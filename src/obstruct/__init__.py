"""Dehn-surgery obstructions for spliced torus-knot manifolds.

Exact-arithmetic tools deciding whether the graph manifolds obtained by
splicing two torus knot exteriors (meridian glued to Seifert fiber, both
ways) can arise from Dehn surgery on a knot in the 3-sphere: linking-form
residue tests, the half-integral toroidal surgery pattern for Eudave-Munoz
knots, SU(2)-cyclic surgery classifications for iterated torus knots, and
Greene's changemaker lattice-embedding obstruction driven by Goeritz forms
of alternating diagrams.

Importing the package loads none of its layers: each public name imports
the module that defines it on first use.
"""

import importlib

__version__ = "0.1.0"

# the layer that defines each public name
_PUBLIC = {
    "goeritz": ("CheckerboardGraph", "det_h1_order", "family_2odd_2odd", "fig3_black_graph",
                "goeritz_matrix", "l35_white_graph"),
    "lattice": ("Changemaker", "Embedding", "GramMatrix", "changemaker_max_norm",
                "changemaker_obstruction", "embed_in_complement", "enumerate_changemakers",
                "is_changemaker", "parse_gram_text"),
    "manifolds": ("EMKnot", "IteratedTorusKnot", "Splice", "TorusKnot", "cable_su2_cyclic_slopes",
                  "census_2odd", "em_slope", "em_splice_form", "em_su2_cyclic",
                  "integral_obstruction", "nonintegral_classification", "not_surgery_verdict"),
    "numtheory": ("Factorization", "ResidueSet", "ResourceCapExceeded", "density", "factor",
                  "in_S", "in_Sprime", "is_prime", "product_bound"),
    "repvar": ("IrrepWitness", "irrep_witness", "x1_singular_orders"),
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    """A public name, read from its layer on first use (PEP 562) and bound
    here, so later reads do not come back; AttributeError for any other."""
    try:
        layer = _LAYER_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value

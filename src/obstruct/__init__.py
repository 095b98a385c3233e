"""Dehn-surgery obstructions for spliced torus-knot manifolds.

Exact-arithmetic tools deciding whether the graph manifolds obtained by
splicing two torus knot exteriors (meridian glued to Seifert fiber, both
ways) can arise from Dehn surgery on a knot in the 3-sphere: linking-form
residue tests, the half-integral toroidal surgery pattern for Eudave-Munoz
knots, SU(2)-cyclic surgery classifications for iterated torus knots, and
Greene's changemaker lattice-embedding obstruction driven by Goeritz forms
of alternating diagrams.
"""

__version__ = "0.1.0"

from .goeritz import (
    CheckerboardGraph,
    det_h1_order,
    family_2odd_2odd,
    fig3_black_graph,
    goeritz_matrix,
    l35_white_graph,
)
from .lattice import (
    Changemaker,
    Embedding,
    GramMatrix,
    changemaker_max_norm,
    changemaker_obstruction,
    embed_in_complement,
    enumerate_changemakers,
    is_changemaker,
    parse_gram_text,
)
from .manifolds import (
    EMKnot,
    IteratedTorusKnot,
    Splice,
    TorusKnot,
    cable_su2_cyclic_slopes,
    census_2odd,
    em_slope,
    em_splice_form,
    em_su2_cyclic,
    integral_obstruction,
    nonintegral_classification,
    not_surgery_verdict,
)
from .numtheory import (
    Factorization,
    ResidueSet,
    ResourceCapExceeded,
    density,
    factor,
    in_S,
    in_Sprime,
    is_prime,
    product_bound,
    square_root_mod,
)
from .repvar import (
    IrrepWitness,
    irrep_witness,
    x1_singular_orders,
)

__all__ = [
    "CheckerboardGraph",
    "Changemaker",
    "EMKnot",
    "Embedding",
    "Factorization",
    "GramMatrix",
    "IrrepWitness",
    "IteratedTorusKnot",
    "ResidueSet",
    "ResourceCapExceeded",
    "Splice",
    "TorusKnot",
    "cable_su2_cyclic_slopes",
    "census_2odd",
    "changemaker_max_norm",
    "changemaker_obstruction",
    "density",
    "det_h1_order",
    "em_slope",
    "em_splice_form",
    "em_su2_cyclic",
    "embed_in_complement",
    "enumerate_changemakers",
    "factor",
    "family_2odd_2odd",
    "fig3_black_graph",
    "goeritz_matrix",
    "in_S",
    "in_Sprime",
    "integral_obstruction",
    "irrep_witness",
    "is_changemaker",
    "is_prime",
    "l35_white_graph",
    "nonintegral_classification",
    "not_surgery_verdict",
    "parse_gram_text",
    "product_bound",
    "square_root_mod",
    "x1_singular_orders",
]

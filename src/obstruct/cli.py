"""Command-line front end.

Every invocation prints a single JSON document to stdout (schema version 1,
sorted keys, rationals as canonical "p/q" strings), so runs are byte-identical
for identical inputs; a human-readable summary goes to stderr with --pretty.
Exit codes: 0 = evaluated, 2 = invalid input, 3 = a resource cap was hit.

The environment variable OBSTRUCT_LOG selects the logging level by name;
a name that is not a level selects INFO.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from fractions import Fraction

from . import __version__
from . import lattice, manifolds, numtheory, repvar


def frac(x) -> str:
    """Canonical rational string p/q (or just p for integers)."""
    return str(Fraction(x))


def manifold_json(m) -> dict:
    if isinstance(m, manifolds.Lens):
        out = {"kind": "lens", "p": m.p, "q": m.q}
    else:  # the cable family's only other result, a ConnectedSum
        out = {"kind": "connected-sum", "summands": [manifold_json(s) for s in m.summands]}
    return {**out, "h1_order": m.h1_order(), "name": str(m)}


def splice_json(y: manifolds.Splice) -> dict:
    return {
        "first": [y.first.p, y.first.q],
        "second": [y.second.p, y.second.q],
        "name": str(y),
    }


def _integral_json(ob: manifolds.IntegralObstruction) -> dict:
    return {
        "slope": ob.sign * ob.n,
        "status": ob.status,
        "residue_ab": ob.residue_ab,
        "residue_cd": ob.residue_cd,
        "witness": ob.witness,
    }


def _renamed(report, field: str, key: str) -> dict | None:
    """The report's fields as a dict, with ``field`` written as ``key``."""
    if report is None:
        return None
    out = report._asdict()
    out[key] = out.pop(field)
    return out


def verdict_json(v: manifolds.SpliceVerdict) -> dict:
    out: dict = {
        "splice": splice_json(v.splice),
        "h1_order": v.h1,
        "overall": v.overall,
        "assumptions": list(v.assumptions),
        "integral": {
            "plus": _integral_json(v.integral_plus),
            "minus": _integral_json(v.integral_minus),
        },
        "shortcut": _renamed(v.shortcut, "set_name", "set"),
        "changemaker": _renamed(v.changemaker, "form_name", "form"),
    }
    if v.nonintegral is None:
        out["nonintegral"] = None
    else:
        m = v.nonintegral
        out["nonintegral"] = {
            "l": m.l,
            "m": m.m,
            "orientation": m.orientation,
            "em_knot": [m.l, m.m, 0, 0],
            "em_slope": frac(m.em_slope),
            "slope": frac(m.slope_abs),
        }
    return out


# ---------------------------------------------------------------------------
# command handlers: each returns (result, pretty_lines)


def _cmd_splice(args) -> tuple[dict, list[str]]:
    y = manifolds.Splice.of(args.a, args.b, args.c, args.d)
    v = manifolds.not_surgery_verdict(y, with_changemaker=args.changemaker)
    pretty = [
        f"{y}: |H1| = {v.h1}",
        f"  nonintegral pattern: "
        + (
            "none"
            if v.nonintegral is None
            else f"(l,m)=({v.nonintegral.l},{v.nonintegral.m}) slope {v.nonintegral.slope_abs}"
        ),
        f"  slope +{v.h1}: {v.integral_plus.status}",
        f"  slope -{v.h1}: {v.integral_minus.status}",
        f"  overall: {v.overall}",
    ]
    return verdict_json(v), pretty


def _cmd_census(args) -> tuple[dict, list[str]]:
    if args.jobs < 1:
        raise ValueError(f"need --jobs >= 1, got {args.jobs}")
    rows = manifolds.census_2odd(args.max_product)
    result = {
        "max_product": args.max_product,
        "rows": [r._asdict() for r in rows],
        "witness_pairs": [[r.a, r.b] for r in rows if r.status == "witness"],
    }
    pretty = [f"{'a':>3} {'b':>3} {'n':>5}  verdict"]
    pretty += [f"{r.a:>3} {r.b:>3} {r.n:>5}  {r.status}" for r in rows]
    return result, pretty


def _cmd_enum(args) -> tuple[dict, list[str]]:
    cms = lattice.enumerate_changemakers(args.len, args.norm)
    result = {
        "count": len(cms),
        "changemakers": [list(c.entries) for c in cms],
        "max_norm": lattice.changemaker_max_norm(args.len),
    }
    pretty = [f"{len(cms)} changemakers of length {args.len}, norm {args.norm}"]
    pretty += ["  " + " ".join(map(str, c.entries)) for c in cms]
    return result, pretty


def _cmd_embed(args) -> tuple[dict, list[str]]:
    try:
        with open(args.gram, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read Gram file: {exc}") from None
    gram = lattice.parse_gram_text(text)
    res = lattice.changemaker_obstruction(gram, args.p, all_witnesses=args.all)
    result = {
        "gram_rank": gram.rank,
        "p": args.p,
        "status": res.status,
        "witnesses": [
            {"sigma": list(e.sigma.entries), "vectors": [list(v) for v in e.vectors]}
            for e in res.witnesses
        ],
    }
    pretty = [f"rank {gram.rank} lattice at norm {args.p}: {res.status}"]
    pretty += [f"  sigma = {e.sigma.entries}" for e in res.witnesses]
    return result, pretty


def _cmd_em(args) -> tuple[dict, list[str]]:
    k = manifolds.EMKnot(args.l, args.m, args.n, args.p)
    slope = manifolds.em_slope(k)
    cyclic = manifolds.em_su2_cyclic(k)
    result: dict = {
        "knot": [k.l, k.m, k.n, k.p],
        "slope": frac(slope),
        "h1_order": abs(slope.numerator),
        "su2_cyclic": cyclic,
        "degenerate_warning": k.degenerate_warning,
        "splice_form": None,
        "splice_form_status": "not-applicable",
        "witness": None,
    }
    if cyclic:
        try:
            form = manifolds.em_splice_form(k)
        except ValueError:
            result["splice_form_status"] = "degenerate"
        else:
            if form is None:
                result["splice_form_status"] = "not-a-splice"
            else:
                result["splice_form"] = splice_json(form)
                result["splice_form_status"] = "splice"
    elif k.n == 0 and k.m not in (0, 1):
        w = repvar.irrep_witness(k.l, k.m, k.p)
        lo, hi = w.extension_window
        result["witness"] = {
            "g": w.g,
            "d": w.d,
            "a": w.a,
            "q": w.q,
            "phi_over_pi": frac(w.phi_over_pi),
            "extension_window": [frac(lo), frac(hi)],
            "extension_holds": w.extension_holds,
        }
    pretty = [
        f"{k}: slope {slope}, |H1| = {abs(slope.numerator)}, "
        f"SU(2)-cyclic: {cyclic}",
        f"  splice form: {result['splice_form_status']}",
    ]
    if result["witness"]:
        pretty.append(f"  witness phi/pi = {result['witness']['phi_over_pi']}")
    return result, pretty


def _cmd_density(args) -> tuple[dict, list[str]]:
    rset = numtheory.ResidueSet.parse(args.set)
    dens = numtheory.density(rset, args.limit)
    result: dict = {
        "set": rset.name(),
        "limit": args.limit,
        "count": dens.numerator * args.limit // dens.denominator,
        "density": frac(dens),
    }
    pretty = [f"|{rset.name()} ∩ [1..{args.limit}]| / {args.limit} = {dens}"]
    if args.bound:
        bound = numtheory.product_bound(rset.kind, rset.k)
        try:
            result["product_bound"] = frac(bound)
        except ValueError:  # more digits than int-to-str conversion allows
            raise numtheory.ResourceCapExceeded(
                f"the exact product bound of {rset.name()} is too long to write"
            ) from None
        result["matches_bound"] = dens == bound
        pretty.append(f"product bound = {result['product_bound']}")
    return result, pretty


def parse_cable_spec(spec: str) -> manifolds.IteratedTorusKnot:
    """Parse 'C(m,n);...;T(p,q)': outermost cable first, torus knot last."""
    parts = [s.strip() for s in spec.strip().split(";") if s.strip()]
    if not parts:
        raise ValueError("empty cable spec")

    def args_of(text: str, prefix: str) -> tuple[int, int]:
        if not (text.startswith(prefix + "(") and text.endswith(")")):
            raise ValueError(f"cannot parse {text!r} in cable spec")
        body = text[len(prefix) + 1 : -1].split(",")
        if len(body) != 2:
            raise ValueError(f"expected two integers in {text!r}")
        return int(body[0]), int(body[1])

    base = args_of(parts[-1], "T")
    cables = tuple(args_of(s, "C") for s in reversed(parts[:-1]))
    return manifolds.IteratedTorusKnot(base, cables)


def _cmd_cable(args) -> tuple[dict, list[str]]:
    knot = parse_cable_spec(args.knot)
    entries = manifolds.cable_su2_cyclic_slopes(knot)
    rows = []
    pretty = [f"{knot}: depth {knot.depth}"]
    for e in entries:
        if e.family is not None:
            rows.append(
                {
                    "slope": None,
                    "family": {
                        "base": e.family.pq,
                        "q_squared": e.family.qsq,
                        "name": str(e.family),
                    },
                    "manifold": {
                        "kind": "lens-family",
                        "p_coeff": e.family.pq,
                        "q_coeff": e.family.qsq,
                        "name": f"L(m*{e.family.pq}+1, m*{e.family.qsq})",
                    },
                }
            )
            pretty.append(f"  slope {e.family}: lens spaces L(m*{e.family.pq}+1, m*{e.family.qsq})")
        else:
            rows.append(
                {"slope": frac(e.slope), "family": None, "manifold": manifold_json(e.manifold)}
            )
            pretty.append(f"  slope {e.slope}: {e.manifold}")
    if not entries:
        pretty.append("  no nontrivial SU(2)-cyclic surgeries")
    result = {"knot": str(knot), "depth": knot.depth, "slopes": rows}
    return result, pretty


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", help="also print a human-readable summary to stderr"
    )
    common.add_argument(
        "--timing", action="store_true",
        help="include wall-clock timing in the report (breaks byte-level determinism)",
    )

    ap = argparse.ArgumentParser(
        prog="obstruct",
        description="Dehn-surgery obstructions for spliced torus-knot manifolds",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("splice", parents=[common], help="surgery verdict for a splice")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--changemaker", action="store_true",
                    help="also run the changemaker obstruction at slope -|H1|")
    sp.set_defaults(handler=_cmd_splice)

    cs = sub.add_parser("census-2odd", parents=[common],
                        help="changemaker census over the (2,odd)-(2,odd) splices")
    cs.add_argument("--max-product", type=int, default=341)
    cs.add_argument("--jobs", type=int, default=1, help="no effect: the census runs in one process")
    cs.set_defaults(handler=_cmd_census)

    cm = sub.add_parser("changemaker", help="changemaker tools")
    cmsub = cm.add_subparsers(dest="action", required=True)
    ce = cmsub.add_parser("enum", parents=[common])
    ce.add_argument("--len", type=int, required=True)
    ce.add_argument("--norm", type=int, required=True)
    ce.set_defaults(handler=_cmd_enum)
    cb = cmsub.add_parser("embed", parents=[common])
    cb.add_argument("--gram", required=True, help="Gram matrix file")
    cb.add_argument("--p", type=int, required=True)
    cb.add_argument("--all", action="store_true",
                    help="search every changemaker, not just the first witness")
    cb.set_defaults(handler=_cmd_embed)

    em = sub.add_parser("em", parents=[common], help="Eudave-Munoz knot report")
    em.add_argument("--l", type=int, required=True)
    em.add_argument("--m", type=int, required=True)
    em.add_argument("--n", type=int, required=True)
    em.add_argument("--p", type=int, required=True)
    em.set_defaults(handler=_cmd_em)

    de = sub.add_parser("density", parents=[common], help="residue-set density scan")
    de.add_argument("--set", required=True, help="S, Sprime, Sk:k or Tk:k")
    de.add_argument("--limit", type=int, required=True)
    de.add_argument("--bound", action="store_true",
                    help="compare against the exact product bound (Sk/Tk)")
    de.set_defaults(handler=_cmd_density)

    ca = sub.add_parser("cable", parents=[common],
                        help="SU(2)-cyclic slopes of an iterated torus knot")
    ca.add_argument("--knot", required=True, help='e.g. "C(13,2);T(2,3)"')
    ca.set_defaults(handler=_cmd_cable)
    return ap


def main(argv=None) -> int:
    name = os.environ.get("OBSTRUCT_LOG")
    if name:
        level = getattr(logging, name.upper(), None)  # may be no level, as BASIC_FORMAT
        logging.basicConfig(level=level if type(level) is int else logging.INFO)
    ap = build_parser()
    args = ap.parse_args(argv)
    started = time.monotonic()
    try:
        result, pretty = args.handler(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except numtheory.ResourceCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = round((time.monotonic() - started) * 1000.0, 3)
    command = args.command + (f" {args.action}" if hasattr(args, "action") else "")
    inputs = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "handler", "pretty", "timing")
    }
    report = {
        "schema": 1,
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "result": result,
        "timing_ms": elapsed_ms if args.timing else None,
    }
    print(json.dumps(report, sort_keys=True))
    if args.pretty:
        print("\n".join(pretty), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

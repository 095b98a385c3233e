"""The four benchmark workloads.

Each workload builds its inputs from a seed in ``setup``, runs them once per
pass with one caller in a closed loop (``run_pass``: one public call per item,
untraced; ``run_traced``: the same items through the calls' public
constituents, inside spans), and checks every output in ``check``, outside
the timed region.  A check returns one message per item: ``None`` when the
output is right, otherwise what is wrong with it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from statistics import median

from common import GOLDEN, ROOT, SetupError, Tracer, clear_caches, program_env


@dataclass
class Item:
    """One timed call: its id, start and end, and output (None when it raised)."""

    key: str
    start: float
    end: float
    output: object
    error: str | None = None

    @property
    def latency_s(self) -> float:
        return self.end - self.start


def _timed(key: str, call, *args, **kwargs) -> Item:
    t0 = time.perf_counter()
    try:
        out = call(*args, **kwargs)
    except Exception as exc:  # a raising item is a failed item, not a crash
        return Item(key, t0, time.perf_counter(), None, f"{type(exc).__name__}: {exc}")
    return Item(key, t0, time.perf_counter(), out)


def _load_golden(name: str):
    path = GOLDEN / name
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise SetupError(f"golden file missing: {exc}") from None


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:8]


def composed_obstruction(lattice, gram, p: int, all_witnesses: bool, tr: Tracer):
    """``changemaker_obstruction`` rebuilt from ``enumerate_changemakers`` and
    one ``embed_in_complement`` per changemaker, each inside a span.

    Returns the result and the counts (changemakers, sigma tried)."""
    with tr.span("lattice.obstruction"):
        if not gram.is_negative_definite():
            raise ValueError("Gram matrix must be negative definite")
        with tr.span("lattice.enumerate"):
            sigmas = lattice.enumerate_changemakers(gram.rank + 1, p)
        found = []
        tried = 0
        for sigma in sigmas:
            tried += 1
            with tr.span("lattice.embed"):
                emb = lattice.embed_in_complement(gram, sigma)
            if emb is not None:
                found.append(emb)
                if not all_witnesses:
                    break
        status = "witness" if found else "obstructed"
        result = lattice.ObstructionResult(status, tuple(found))
    return result, {"changemakers": len(sigmas), "sigma_tried": tried}


class Workload:
    """The inputs of lattice-search, residue-scan and cli-oneshot are fixed
    and run in a fixed order, whatever the seed: a call's time was seen to
    depend on the call before it, which a seeded order turned into spread
    between seeds.  The seed draws the verdict-stream."""

    name = ""
    min_passes = 3  # a run has at least this many passes
    traced_passes = 1  # passes of a traced run, and of its untraced twin
    in_process = True  # False when each item runs in a child process (peak RSS is theirs)

    def setup(self, mods: SimpleNamespace, seed: int, tracer: Tracer | None = None):
        raise NotImplementedError

    def run_pass(self, ctx) -> list[Item]:
        raise NotImplementedError

    def run_traced(self, ctx, tr: Tracer) -> list[Item]:
        raise NotImplementedError

    def check(self, ctx, items: list[Item]) -> list[str | None]:
        raise NotImplementedError

    def traced_check(self, ctx, items: list[Item]) -> list[str | None]:
        return self.check(ctx, items)

    def layer_metrics(self, ctx, tr: Tracer, items: list[Item]) -> dict[str, float]:
        raise NotImplementedError


def _self_s(table: dict, name: str) -> float:
    return table.get(name, {}).get("self_s", 0.0)


# ---------------------------------------------------------------------------
# lattice-search


class LatticeSearch(Workload):
    """``changemaker_obstruction`` on fixed Goeritz forms: four obstructed
    forms that exhaust every changemaker, two early-exit witnesses, and the
    norm-226 form with all witnesses."""

    name = "lattice-search"
    min_passes = 4
    JOBS = (
        ((1, 4, 2, 4), False),
        ((1, 4, 3, 3), False),
        ((2, 3, 2, 4), False),
        ((2, 3, 3, 4), False),
        ((1, 2, 2, 3), False),
        ((3, 2, 3, 2), False),
        (None, True),  # L35-white, the norm-226 form
    )
    GOLDEN_FILE = "lattice_search.json"

    @staticmethod
    def job_name(params) -> str:
        return "L35-white" if params is None else "fig3-black(%d,%d,%d,%d)" % params

    def forms(self, mods, tracer: Tracer | None = None):
        go = mods.goeritz
        out = []
        for params, all_w in self.JOBS:
            with tracer.span("goeritz.form_build") if tracer else contextlib.nullcontext():
                graph = go.l35_white_graph() if params is None else go.fig3_black_graph(*params)
                gram = go.goeritz_matrix(graph)
                n = go.det_h1_order(gram)
            out.append((self.job_name(params), gram, n, all_w))
        return out

    def setup(self, mods, seed, tracer=None):
        golden = _load_golden(self.GOLDEN_FILE)
        items = self.forms(mods, tracer)
        return SimpleNamespace(mods=mods, items=items, golden=golden)

    def run_pass(self, ctx):
        obstruction = ctx.mods.lattice.changemaker_obstruction
        return [_timed(name, obstruction, gram, n, all_witnesses=all_w)
                for name, gram, n, all_w in ctx.items]

    def run_traced(self, ctx, tr):
        out = []
        for name, gram, n, all_w in ctx.items:
            tr.item = name
            out.append(_timed(name, composed_obstruction, ctx.mods.lattice, gram, n, all_w, tr))
        tr.item = None
        return out

    def check(self, ctx, items):
        jobs = {name: (gram, n) for name, gram, n, _ in ctx.items}
        msgs = []
        for it in items:
            if it.error:
                msgs.append(it.error)
                continue
            gram, n = jobs[it.key]
            want = ctx.golden[it.key]
            res, counts = it.output if isinstance(it.output, tuple) else (it.output, None)
            got = [{"sigma": list(e.sigma.entries), "vectors": [list(v) for v in e.vectors]}
                   for e in res.witnesses]
            if n != want["n"]:
                msgs.append(f"|det| {n} != {want['n']}")
            elif res.status != want["status"] or got != want["witnesses"]:
                msgs.append(f"status {res.status} / witnesses {got} differ from the reference")
            elif not all(e.verifies(gram) for e in res.witnesses):
                msgs.append("a witness embedding does not verify")
            elif counts is not None and any(counts[k] != want[k] for k in counts):
                msgs.append(f"counts {counts} differ from the reference")
            else:
                msgs.append(None)
        return msgs

    def layer_metrics(self, ctx, tr, items):
        table = tr.self_times(self.name)
        counts = [it.output[1] for it in items if it.output is not None]
        witnesses = sum(len(it.output[0].witnesses) for it in items if it.output is not None)
        tried = sum(c["sigma_tried"] for c in counts)
        return {
            "lattice.enumerate_s": _self_s(table, "lattice.enumerate"),
            "lattice.changemakers": sum(c["changemakers"] for c in counts),
            "lattice.embed_s": _self_s(table, "lattice.embed"),
            "lattice.sigma_tried": tried,
            "lattice.embed_hit_ratio": witnesses / tried if tried else 0.0,
            "goeritz.form_build_s": _self_s(table, "goeritz.form_build"),
        }


# ---------------------------------------------------------------------------
# residue-scan


class ResidueScan(Workload):
    """``density`` of S and Sprime up to 10^5, and of Sk:k / Tk:k over one
    full period."""

    name = "residue-scan"
    min_passes = 6
    SETS = ("S", "Sprime", "Sk:3", "Sk:4", "Tk:3", "Tk:4", "Tk:5")
    LIMIT = 10**5
    GOLDEN_FILE = "residue_scan.json"

    def scans(self, mods):
        out = []
        for token in self.SETS:
            rset = mods.numtheory.ResidueSet.parse(token)
            limit = rset.period() if rset.kind in ("Sk", "Tk") else self.LIMIT
            out.append((token, rset, limit))
        return out

    def setup(self, mods, seed, tracer=None):
        golden = _load_golden(self.GOLDEN_FILE)
        items = self.scans(mods)
        return SimpleNamespace(mods=mods, items=items, golden=golden)

    def run_pass(self, ctx):
        density = ctx.mods.numtheory.density
        return [_timed(token, density, rset, limit) for token, rset, limit in ctx.items]

    def run_traced(self, ctx, tr):
        density = ctx.mods.numtheory.density

        def traced(rset, limit):
            with tr.span("numtheory.density"):
                return density(rset, limit)

        out = []
        for token, rset, limit in ctx.items:
            tr.item = token
            out.append(_timed(token, traced, rset, limit))
        tr.item = None
        return out

    def check(self, ctx, items):
        nt = ctx.mods.numtheory
        scans = {token: (rset, limit) for token, rset, limit in ctx.items}
        msgs = []
        for it in items:
            if it.error:
                msgs.append(it.error)
                continue
            rset, limit = scans[it.key]
            want = ctx.golden[it.key]
            if limit != want["limit"] or it.output != Fraction(want["count"], limit):
                msgs.append(f"density {it.output} != {want['count']}/{want['limit']}")
            elif rset.kind in ("Sk", "Tk") and it.output != nt.product_bound(rset.kind, rset.k):
                msgs.append(f"density {it.output} != product bound")
            else:
                msgs.append(None)
        return msgs

    def layer_metrics(self, ctx, tr, items):
        table = tr.self_times(self.name)
        limits = {token: limit for token, _, limit in ctx.items}
        members = {it.key: it.output * limits[it.key] for it in items if it.output is not None}
        return {
            "numtheory.density_s": _self_s(table, "numtheory.density"),
            "numtheory.scanned": sum(limits.values()),
            "numtheory.members.S": int(members.get("S", 0)),
            "numtheory.members.Sprime": int(members.get("Sprime", 0)),
        }


# ---------------------------------------------------------------------------
# verdict-stream


def _coprime_pair(rng: random.Random, hi: int) -> tuple[int, int]:
    while True:
        a, b = rng.randint(2, hi), rng.randint(2, hi)
        if gcd(a, b) == 1:
            return a, b


def _present(rng: random.Random, p: int, q: int) -> tuple[int, int]:
    """A random one of the four index pairs naming T(p, q)."""
    return rng.choice(((p, q), (q, p), (-p, -q), (-q, -p)))


def _census_pairs(max_product: int = 341) -> list[tuple[int, int]]:
    pairs = []
    a = 1
    while (2 * a + 1) ** 2 <= max_product:
        b = a
        while (2 * a + 1) * (2 * b + 1) <= max_product:
            pairs.append((a, b))
            b += 1
        a += 1
    return pairs


# (a, b) of the (2, 2a+1)-(2, 2b+1) splices with a changemaker witness
CENSUS_WITNESSES = {(1, 1), (1, 2), (1, 3), (2, 3), (3, 3)}
SIGMA_226 = (1, 2, 2, 4, 4, 8, 11)


def generate_stream(seed: int, size: int = 4000) -> list[tuple]:
    """The seeded call mix.  Each category has a fixed share and, where the
    cost of a call depends on its input, a fixed multiset of inputs, so that
    streams of different seeds cost about the same.

    Items are ``("verdict", kind, (a, b, c, d), with_changemaker)`` or
    ``("em", "em-report", (l, m, n, p))``.
    """
    rng = random.Random(seed)
    census = _census_pairs()
    n_cm = size * 4 // 100
    n_l35 = max(1, n_cm * 3 // 40)
    n_census = n_cm - n_l35
    n_em_pattern = size * 4 // 100
    n_em_knot = size * 2 // 100
    n_mirror = n_equal = size // 10
    n_random = size - n_cm - n_em_pattern - n_em_knot - n_mirror - n_equal
    out: list[tuple] = []

    def sign(x: int) -> int:
        return x if rng.random() < 0.5 else -x

    for _ in range(n_random):
        a, b = _coprime_pair(rng, 3000)
        c, d = _coprime_pair(rng, 3000)
        out.append(("verdict", "random", (sign(a), b, sign(c), d), False))
    for _ in range(n_mirror):
        a, b = _coprime_pair(rng, 3000)
        p, q = _present(rng, a, b)
        r, s = _present(rng, -a, b)
        pair = (p, q, r, s) if rng.random() < 0.5 else (r, s, p, q)
        out.append(("verdict", "opposite-mirror", pair, False))
    for _ in range(n_equal):
        a, b = _coprime_pair(rng, 3000)
        a = sign(a)
        out.append(("verdict", "equal", _present(rng, a, b) + _present(rng, a, b), False))
    for _ in range(n_em_pattern):
        l, m = sign(rng.randint(2, 60)), rng.randint(2, 30)
        first, second = (l, l * m - 1), (2, -(2 * m - 1))
        if rng.random() < 0.5:  # global mirror
            first, second = (-first[0], first[1]), (-second[0], second[1])
        first, second = _present(rng, *first), _present(rng, *second)
        if rng.random() < 0.5:
            first, second = second, first
        out.append(("verdict", "em-pattern", first + second, False))
    for i in range(n_census):
        a, b = census[i % len(census)]
        first, second = _present(rng, 2, 2 * a + 1), _present(rng, 2, 2 * b + 1)
        if rng.random() < 0.5:
            first, second = second, first
        out.append(("verdict", "census", first + second, True))
    for _ in range(n_l35):
        first, second = _present(rng, 3, 5), _present(rng, -3, 5)
        if rng.random() < 0.5:
            first, second = second, first
        out.append(("verdict", "l35", first + second, True))
    for _ in range(n_em_knot):
        l, m = sign(rng.randint(3, 40)), rng.randint(3, 20)
        n, p = rng.choice([(0, 0), (1, 0)] + [(0, q) for q in range(1, 9)])
        out.append(("em", "em-report", (l, m, n, p)))
    rng.shuffle(out)
    return out


@dataclass(frozen=True)
class EMReport:
    slope: Fraction
    su2_cyclic: bool
    splice_form: object
    witness: object

    def to_json(self) -> dict:
        form = self.splice_form
        w = self.witness
        return {
            "slope": str(self.slope),
            "su2_cyclic": self.su2_cyclic,
            "splice_form": None if form is None else [form.first.p, form.first.q,
                                                      form.second.p, form.second.q],
            "witness": None if w is None else [w.g, w.d, w.a, w.q, str(w.phi_over_pi),
                                               w.extension_holds],
        }


def em_report(mf, rv, k, tr: Tracer | None = None) -> EMReport:
    """The Eudave-Munoz knot report: slope, SU(2)-cyclicity, splice form,
    and the irreducible-representation witness when not cyclic."""
    slope = mf.em_slope(k)
    cyclic = mf.em_su2_cyclic(k)
    form = mf.em_splice_form(k) if cyclic else None
    witness = None
    if not cyclic and k.n == 0:
        with tr.span("repvar.irrep_witness") if tr else contextlib.nullcontext():
            witness = rv.irrep_witness(k.l, k.m, k.p)
    return EMReport(slope, cyclic, form, witness)


def composed_verdict(mods, y, with_changemaker: bool, tr: Tracer):
    """``not_surgery_verdict`` rebuilt from its public constituents, each
    inside a span."""
    mf, nt = mods.manifolds, mods.numtheory
    with tr.span("manifolds.verdict"):
        with tr.span("manifolds.nonintegral"):
            nonintegral = mf.nonintegral_classification(y)
        with tr.span("manifolds.integral"):
            plus = mf.integral_obstruction(y, +1)
        with tr.span("manifolds.integral"):
            minus = mf.integral_obstruction(y, -1)
        shortcut = None
        f1, f2 = y.first, y.second
        if f2 == f1.mirror() or f1 == f2:
            mirror_pair = f2 == f1.mirror()
            n = abs(f1.product)
            with tr.span("numtheory.in_S" if mirror_pair else "numtheory.in_Sprime"):
                in_set = nt.in_S(n) if mirror_pair else nt.in_Sprime(n)
            shortcut = mf.ShortcutReport(
                shape="opposite-mirror-pair" if mirror_pair else "equal-pair",
                set_name="S" if mirror_pair else "Sprime",
                n=n,
                in_set=in_set,
                indices_exceed_2=(abs(f1.p) > 2 and f1.q > 2) if mirror_pair else None,
            )
        changemaker = None
        if with_changemaker:
            form = mf.builtin_gram_for(y)
            if form is None:
                changemaker = mf.ChangemakerReport(status="no-form-available")
            else:
                name, gram = form
                h1 = y.h1_order()
                res, _ = composed_obstruction(mods.lattice, gram, h1, False, tr)
                emb = res.first()
                changemaker = mf.ChangemakerReport(
                    status=res.status, form_name=name, slope=-h1,
                    sigma=emb.sigma.entries if emb else None,
                    vectors=emb.vectors if emb else None,
                )
        assumptions = []
        if nonintegral is None:
            minus_ruled = minus.obstructed or (
                changemaker is not None and changemaker.status == "obstructed"
            )
            overall = "not-any-surgery" if plus.obstructed and minus_ruled else "inconclusive"
            assumptions.append(mf._SYMMETRY_ASSUMPTION)
        else:
            overall = "nonintegral-surgery"
        return mf.SpliceVerdict(
            splice=y, h1=y.h1_order(), nonintegral=nonintegral, integral_plus=plus,
            integral_minus=minus, shortcut=shortcut, changemaker=changemaker,
            overall=overall, assumptions=tuple(assumptions),
        )


def _squares_mod(n: int) -> set[int]:
    return {x * x % n for x in range(n)}


class VerdictStream(Workload):
    """A seeded stream of library calls; see ``generate_stream`` for the mix."""

    name = "verdict-stream"
    min_passes = 5
    SIZE = 4000
    BRUTE_FORCE_MAX = 5000  # integral verdicts are re-derived by brute force up to here
    GOLDEN_FILE = "verdict_stream_seed0.json"

    def setup(self, mods, seed, tracer=None):
        golden = _load_golden(self.GOLDEN_FILE)
        mf = mods.manifolds
        items = []
        for i, spec in enumerate(generate_stream(seed, self.SIZE)):
            key = f"{i}:{spec[1]}"
            if spec[0] == "verdict":
                items.append((key, spec, mf.Splice.of(*spec[2])))
            else:
                items.append((key, spec, mf.EMKnot(*spec[2])))
        digests = golden["digests"] if seed == golden["seed"] else None
        return SimpleNamespace(mods=mods, items=items, golden_digests=digests,
                               reference=None)

    def run_pass(self, ctx):
        mf, rv = ctx.mods.manifolds, ctx.mods.repvar
        verdict = mf.not_surgery_verdict
        out = []
        for key, spec, arg in ctx.items:
            if spec[0] == "verdict":
                out.append(_timed(key, verdict, arg, with_changemaker=spec[3]))
            else:
                out.append(_timed(key, em_report, mf, rv, arg))
        return out

    def run_traced(self, ctx, tr):
        mf, rv = ctx.mods.manifolds, ctx.mods.repvar

        def traced_em(k):
            with tr.span("manifolds.em_report"):
                return em_report(mf, rv, k, tr)

        out = []
        for key, spec, arg in ctx.items:
            tr.item = key
            if spec[0] == "verdict":
                out.append(_timed(key, composed_verdict, ctx.mods, arg, spec[3], tr))
            else:
                out.append(_timed(key, traced_em, arg))
        tr.item = None
        return out

    def traced_check(self, ctx, items):
        """The usual checks, and each composed verdict against the one-call
        ``not_surgery_verdict``."""
        msgs = self.check(ctx, items)
        verdict = ctx.mods.manifolds.not_surgery_verdict
        for i, ((key, spec, arg), it) in enumerate(zip(ctx.items, items)):
            if msgs[i] is None and spec[0] == "verdict":
                if verdict(arg, with_changemaker=spec[3]) != it.output:
                    msgs[i] = "composed verdict differs from the one-call verdict"
        return msgs

    def item_json(self, ctx, spec, out) -> dict:
        return ctx.mods.cli.verdict_json(out) if spec[0] == "verdict" else out.to_json()

    def check(self, ctx, items):
        digests = []
        msgs = []
        for (key, spec, arg), it in zip(ctx.items, items):
            if it.error:
                digests.append(None)
                msgs.append(it.error)
                continue
            digests.append(_digest(self.item_json(ctx, spec, it.output)))
            msgs.append(None)
        if ctx.reference is None:
            # first pass of the run: every seed-independent check, once
            for i, ((key, spec, arg), it) in enumerate(zip(ctx.items, items)):
                if msgs[i] is None:
                    try:
                        msgs[i] = self.check_item(ctx, spec, arg, it.output)
                    except Exception as exc:  # a malformed output fails its item
                        msgs[i] = f"check raised {type(exc).__name__}: {exc}"
            ctx.reference = [d if m is None else None for d, m in zip(digests, msgs)]
        else:
            for i, d in enumerate(digests):
                if msgs[i] is None and d != ctx.reference[i]:
                    msgs[i] = "output differs from the run's first pass"
        if ctx.golden_digests is not None:
            for i, d in enumerate(digests):
                if msgs[i] is None and d != ctx.golden_digests[i]:
                    msgs[i] = "output differs from the recorded default-seed digest"
        return msgs

    def check_item(self, ctx, spec, arg, out) -> str | None:
        mods = ctx.mods
        if spec[0] == "em":
            return self.check_em(mods, arg, out)
        kind, (a, b, c, d), with_cm = spec[1], spec[2], spec[3]
        v = out
        n = abs(a * b * c * d - 1)
        if v.h1 != n:
            return f"h1 {v.h1} != |abcd-1| = {n}"
        if v.nonintegral is not None:
            s = abs(v.nonintegral.em_slope)
            if s.numerator != n or s.denominator != 2:
                return f"non-integral slope {s} does not match h1 {n}"
            if v.overall != "nonintegral-surgery":
                return f"overall {v.overall} despite a non-integral match"
        elif kind == "em-pattern":
            return "Eudave-Munoz pattern not recognised"
        for ob in (v.integral_plus, v.integral_minus):
            if ob.n != n:
                return f"integral obstruction modulus {ob.n} != {n}"
            if ob.witness is not None and ob.witness * ob.witness % n != ob.residue_ab % n:
                return f"witness {ob.witness} is not a square root of {ob.residue_ab} mod {n}"
            if n <= self.BRUTE_FORCE_MAX:
                squares = _squares_mod(n)
                if (ob.residue_ab in squares) == ob.obstructed:
                    return f"residue {ob.residue_ab} mod {n}: verdict {ob.status} is wrong"
        msg = self.check_shortcut(mods, kind, v)
        if msg:
            return msg
        if with_cm:
            return self.check_changemaker(mods, kind, spec, v)
        return None

    @staticmethod
    def check_shortcut(mods, kind, v) -> str | None:
        nt = mods.numtheory
        sc = v.shortcut
        expect = {"opposite-mirror": "S", "equal": "Sprime"}.get(kind)
        if expect is None:
            return None
        if sc is None or sc.set_name != expect:
            return f"missing {expect} shortcut"
        m = sc.n
        if expect == "S":
            truth = all(p % 8 == 1 for p in nt.factor(m * m + 1).primes() if p != 2)
        else:
            truth = any(
                all(p % 4 != 3 for p in nt.factor(x).primes()) for x in (m - 1, m + 1)
            )
        if sc.in_set != truth:
            return f"{expect} membership of {m} is {sc.in_set}, factorization says {truth}"
        return None

    @staticmethod
    def check_changemaker(mods, kind, spec, v) -> str | None:
        cm = v.changemaker
        form = mods.manifolds.builtin_gram_for(v.splice)
        if form is None or cm.form_name != form[0]:
            return "changemaker report without the builtin form"
        if kind == "census":
            a, b = sorted((abs(x) - 1) // 2 for x in spec[2] if abs(x) != 2)
            expected = "witness" if (a, b) in CENSUS_WITNESSES else "obstructed"
        else:
            expected = "witness"
        if cm.status != expected:
            return f"changemaker status {cm.status}, expected {expected}"
        if kind == "l35" and cm.sigma != SIGMA_226:
            return f"sigma {cm.sigma} != {SIGMA_226}"
        if cm.status == "witness":
            emb = mods.lattice.Embedding(mods.lattice.Changemaker(cm.sigma), cm.vectors)
            if not emb.verifies(form[1]):
                return "changemaker witness does not verify"
        return None

    @staticmethod
    def check_em(mods, k, rep) -> str | None:
        if rep.slope.denominator != 2:
            return f"slope {rep.slope} is not half-integral"
        if rep.splice_form is not None:
            form = rep.splice_form
            if form.h1_order() != abs(rep.slope.numerator):
                return f"splice form h1 {form.h1_order()} != |{rep.slope.numerator}|"
            match = mods.manifolds.nonintegral_classification(form)
            if match is None or match.slope_abs != abs(rep.slope):
                return "splice form does not match the slope"
        if rep.witness is not None:
            w = rep.witness
            if w.phi_over_pi != Fraction(1, 2) + Fraction(1, 2 * w.d):
                return f"witness phi/pi {w.phi_over_pi} off its closed form"
        return None

    def layer_metrics(self, ctx, tr, items):
        table = tr.self_times(self.name)
        info = ctx.factor_info
        lookups = info.hits + info.misses
        return {
            "numtheory.in_S_s": _self_s(table, "numtheory.in_S"),
            "numtheory.in_Sprime_s": _self_s(table, "numtheory.in_Sprime"),
            "numtheory.factor_misses": info.misses,
            "numtheory.factor_hit_ratio": info.hits / lookups if lookups else 0.0,
            "manifolds.verdict_s": _self_s(table, "manifolds.verdict"),
            "manifolds.nonintegral_s": _self_s(table, "manifolds.nonintegral"),
            "manifolds.integral_s": _self_s(table, "manifolds.integral"),
            "repvar.irrep_witness_s": _self_s(table, "repvar.irrep_witness"),
        }


# ---------------------------------------------------------------------------
# cli-oneshot

# The README commands, with the census at one and two workers.  Paths are
# relative to the checkout root, which is the subprocesses' working directory.
CLI_COMMANDS = (
    ("splice-3-4", ("splice", "--a", "3", "--b", "4", "--c", "-3", "--d", "4", "--pretty")),
    ("splice-2-3", ("splice", "--a", "2", "--b", "3", "--c", "2", "--d", "-3")),
    ("splice-3-5-changemaker", ("splice", "--a", "3", "--b", "5", "--c", "-3", "--d", "5",
                                "--changemaker")),
    ("census-jobs1", ("census-2odd", "--jobs", "1", "--pretty")),
    ("census-jobs2", ("census-2odd", "--jobs", "2", "--pretty")),
    ("changemaker-enum", ("changemaker", "enum", "--len", "7", "--norm", "226")),
    ("changemaker-embed", ("changemaker", "embed", "--gram", "bench/data/gd.txt",
                           "--p", "226", "--all")),
    ("em-2-2-0-0", ("em", "--l", "2", "--m", "2", "--n", "0", "--p", "0")),
    ("em-5-2-0-2", ("em", "--l", "5", "--m", "2", "--n", "0", "--p", "2")),
    ("density-sk2", ("density", "--set", "Sk:2", "--limit", "845", "--bound")),
    ("cable-t23", ("cable", "--knot", "T(2,3)")),
    ("cable-c13", ("cable", "--knot", "C(13,2);T(2,3)")),
    ("cable-c5-c13", ("cable", "--knot", "C(5,2);C(13,2);T(2,3)")),
)
CLI_MODULES = ("obstruct", "obstruct.numtheory", "obstruct.lattice", "obstruct.goeritz",
               "obstruct.manifolds", "obstruct.repvar", "obstruct.cli")


def command_name(argv) -> str:
    return argv[0] + (f"-{argv[1]}" if argv[0] == "changemaker" else "")


# ``python -m obstruct``, which at exit also writes the process's own peak
# resident memory to stderr.  A child's ru_maxrss would not do: on Linux it
# includes the peak of the process it was forked from, here the benchmark.
_PEAK_TAG = "bench-peak-rss-kib"
_RUN_MODULE = f"""
import atexit, runpy, sys

def _peak():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                sys.stderr.write("\\n{_PEAK_TAG} " + line.split()[1] + "\\n")

atexit.register(_peak)
runpy.run_module("obstruct", run_name="__main__", alter_sys=True)
"""


def run_program(argv, env) -> tuple[int, bytes, int | None]:
    """``python -m obstruct argv`` from the checkout root; (exit code, stdout,
    peak resident KiB of the process).

    SIGALRM is held until the child has exited, so that a speed probe never
    competes with the child for the CPU; a held probe runs right after."""
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_MODULE, *argv], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=120, check=False,
        )
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
    peak = [line.split()[1] for line in proc.stderr.decode(errors="replace").splitlines()
            if line.startswith(_PEAK_TAG)]
    return proc.returncode, proc.stdout, int(peak[-1]) if peak else None


def python_ms(args, env, repeats: int) -> list[float]:
    """Wall milliseconds of ``python args``, once per repeat."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
                       check=True)
        out.append((time.perf_counter() - t0) * 1000.0)
    return out


def import_self_ms(env, repeats: int) -> dict[str, float]:
    """Median self import time per program module, from ``-X importtime``."""
    samples: dict[str, list[float]] = {m: [] for m in CLI_MODULES}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import obstruct.cli"], cwd=ROOT,
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=60, check=True, text=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(float(parts[0].split(":")[1]) / 1000.0)
    return {m: median(v) for m, v in samples.items() if v}


class CliOneshot(Workload):
    """The README commands as separate ``python -m obstruct`` processes, one
    at a time, each compared byte for byte with its recorded output."""

    name = "cli-oneshot"
    min_passes = 6
    traced_passes = 3
    in_process = False
    HANDLER_REPEATS = 3
    PYTHON_REPEATS = 5

    def setup(self, mods, seed, tracer=None):
        golden = {}
        for name, _ in CLI_COMMANDS:
            path = GOLDEN / "cli" / f"{name}.out"
            try:
                golden[name] = path.read_bytes()
            except OSError as exc:
                raise SetupError(f"golden file missing: {exc}") from None
        if not (ROOT / "bench" / "data" / "gd.txt").is_file():
            raise SetupError("bench/data/gd.txt missing")
        items = list(CLI_COMMANDS)
        return SimpleNamespace(mods=mods, items=items, golden=golden, env=program_env())

    def run_pass(self, ctx):
        return [_timed(name, run_program, argv, ctx.env) for name, argv in ctx.items]

    def run_traced(self, ctx, tr):
        """Subprocess passes inside spans, then each command in-process."""
        items = []
        walls = []
        for _ in range(self.traced_passes):
            one_pass = []
            for name, argv in ctx.items:
                tr.item = name
                with tr.span("cli.invocation"):
                    one_pass.append(_timed(name, run_program, argv, ctx.env))
            walls.append(sum(it.latency_s for it in one_pass))
            items += one_pass
        ctx.traced_wall = median(walls)
        ctx.latency_ms = {}
        for it in items:
            ctx.latency_ms.setdefault(it.key, []).append(it.latency_s * 1000.0)
        handler = self.run_handlers(ctx, tr)
        tr.item = None
        return items + handler

    def run_handlers(self, ctx, tr) -> list[Item]:
        """In-process ``cli.main(argv)`` per command, stdout captured, caches
        cold.  ``ctx.handler_ms`` gets milliseconds summed over each command's
        examples, median over repeats.  The two-worker census is left to
        ``manifolds.census_pool_ms``."""

        def in_process(argv) -> tuple[int, bytes]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = ctx.mods.cli.main(list(argv))
            return code, buf.getvalue().encode()

        items = []
        per_cmd: dict[str, list[float]] = {}
        for _ in range(self.HANDLER_REPEATS):
            sums: dict[str, float] = {}
            for name, argv in ctx.items:
                if name == "census-jobs2":
                    continue
                clear_caches(ctx.mods)
                tr.item = name
                with tr.span("cli.handler"):
                    it = _timed(name, in_process, argv)
                items.append(it)
                cmd = command_name(argv)
                sums[cmd] = sums.get(cmd, 0.0) + it.latency_s * 1000.0
            for cmd, ms in sums.items():
                per_cmd.setdefault(cmd, []).append(ms)
        ctx.handler_ms = {cmd: median(v) for cmd, v in per_cmd.items()}
        return items

    def check(self, ctx, items):
        msgs = []
        for it in items:
            if it.error:
                msgs.append(it.error)
            elif it.output[0] != 0:
                msgs.append(f"exit code {it.output[0]}")
            elif it.output[1] != ctx.golden[it.key]:
                msgs.append("stdout differs from the recorded bytes")
            else:
                msgs.append(None)
        return msgs

    def layer_metrics(self, ctx, tr, items):
        floor = median(python_ms(["-c", "pass"], ctx.env, self.PYTHON_REPEATS))
        imported = median(python_ms(["-c", "import obstruct.cli"], ctx.env, self.PYTHON_REPEATS))
        metrics = {"cli.interpreter_ms": floor, "cli.import_ms": imported - floor}
        for module, ms in import_self_ms(ctx.env, self.HANDLER_REPEATS).items():
            metrics[f"cli.import.{module.rpartition('.')[2]}_ms"] = ms
        for cmd, ms in ctx.handler_ms.items():
            metrics[f"cli.handler_ms.{cmd}"] = ms
        metrics["manifolds.census_pool_ms"] = (
            median(ctx.latency_ms["census-jobs2"]) - median(ctx.latency_ms["census-jobs1"]))
        return metrics


WORKLOADS = {w.name: w for w in (LatticeSearch(), ResidueScan(), VerdictStream(), CliOneshot())}

"""Acceptance suite: one test per headline criterion, each at its exact
stated tolerance (everything here is integer or rational, so tolerances are
equalities).  Run with ``pytest -s tests/test_acceptance.py`` to see one
PASS/FAIL line per criterion.
"""

import random
from fractions import Fraction
from math import gcd

import oracles
from obstruct import goeritz as go
from obstruct import lattice as la
from obstruct import manifolds as mf
from obstruct import numtheory as nt
from obstruct import repvar as rv


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_acceptance_01_census_reproduction():
    rows = mf.census_2odd(341)
    witnesses = [(r.a, r.b) for r in rows if r.status == "witness"]
    expected = [(1, 1), (1, 2), (1, 3), (2, 3), (3, 3)]
    others_obstructed = all(
        r.status == "obstructed" for r in rows if (r.a, r.b) not in expected
    )
    ok = witnesses == expected and others_obstructed and len(rows) == 148
    report(1, ok, f"census witnesses exactly {expected} among {len(rows)} pairs")


def test_acceptance_02_embedding_and_uniqueness():
    emb = la.embed_in_complement(oracles.GD, oracles.SIGMA_226)
    printed = la.Embedding(oracles.SIGMA_226, oracles.BASIS_226)
    res = la.changemaker_obstruction(oracles.GD, 226, all_witnesses=True)
    unique = [e.sigma.entries for e in res.witnesses]
    ok = (
        emb is not None
        and emb.verifies(oracles.GD)
        and printed.verifies(oracles.GD)
        and printed.gram() == oracles.GD
        and unique == [(1, 2, 2, 4, 4, 8, 11)]
    )
    report(2, ok, "rank-6 form embeds for sigma=(1,2,2,4,4,8,11), uniquely")


def test_acceptance_03_2m_never_square():
    # odd m, n up to 139 gives 70 * 70 = 4900 exact cases
    bad = [
        (m, n)
        for m in range(1, 140, 2)
        for n in range(1, 140, 2)
        if oracles.square_root_mod(2 * m, 4 * m * n - 1) is not None
    ]
    report(3, not bad, f"2m is a non-square mod 4mn-1 in 4900 odd cases; failures: {bad[:3]}")


def test_acceptance_04_character_values():
    bad_val = [m for m in range(1, 200, 2) if oracles.chi_8m(4 * m - 1, m) != -1]
    rng = random.Random(8128)
    bad_mult = []
    for m in range(1, 51, 2):
        mod = 8 * m
        units = [a for a in range(1, mod) if gcd(a, mod) == 1]
        for _ in range(1000):
            a, b = rng.choice(units), rng.choice(units)
            if oracles.chi_8m(a * b % mod, m) != oracles.chi_8m(a, m) * oracles.chi_8m(b, m):
                bad_mult.append((m, a, b))
    ok = not bad_val and not bad_mult
    report(4, ok, "chi_8m(4m-1) = -1 for odd m <= 199; multiplicative on 25000 random triples")


def test_acceptance_05_enumeration_bounds_and_counts():
    bounds_ok = True
    for length in range(1, 6):
        bound = (4**length - 1) // 3
        attained = [
            norm
            for norm in range(bound, bound + 2)
            if la.enumerate_changemakers(length, norm)
        ]
        bounds_ok &= attained == [bound]
    counts_ok = all(
        [c.entries for c in la.enumerate_changemakers(length, norm)]
        == oracles.brute_force_changemakers(length, norm)
        for length in range(1, 5)
        for norm in range(1, 51)
    )
    report(5, bounds_ok and counts_ok, "max norms (4^L-1)/3 attained; counts match brute force")


def test_acceptance_06_em_slope_identities():
    family_ok = all(
        -mf.em_slope(mf.EMKnot(2 * q + 1, -1, 0, -q))
        == Fraction((2 * q + 1) * (36 * q * q + 42 * q + 13), 2)
        for q in range(1, 51)
    )
    base_ok = mf.em_slope(mf.EMKnot(2, 2, 0, 0)) == Fraction(-37, 2)
    report(6, family_ok and base_ok, "half-integral slope closed forms, q <= 50, exact")


def test_acceptance_07_goeritz_determinants():
    gd_ok = go.det_h1_order(oracles.GD) == 226
    fam_ok = all(
        go.det_h1_order(go.family_2odd_2odd(a, b)) == 4 * (2 * a + 1) * (2 * b + 1) - 1
        for a in range(1, 21)
        for b in range(1, 21)
    )
    report(7, gd_ok and fam_ok, "|det| = 226 and 4(2a+1)(2b+1)-1 for all a,b <= 20")


def test_acceptance_08_residue_sets_and_densities():
    shortcut_ok = all(
        not nt.in_S(n) for n in range(1, 10**5 + 1) if n % 8 in (2, 3, 5, 6)
    ) and all(
        not nt.in_Sprime(n) for n in range(2, 10**5 + 1) if n % 12 in (8, 10)
    )
    d_small = nt.density(nt.ResidueSet("S"), 10**4)
    d_large = nt.density(nt.ResidueSet("S"), 10**6)
    print(f"  density(S, 10^4) = {d_small} = {float(d_small):.6f}")
    print(f"  density(S, 10^6) = {d_large} = {float(d_large):.6f}")
    periodic_ok = all(
        nt.density(nt.ResidueSet("Sk", k), nt.ResidueSet("Sk", k).period())
        == nt.product_bound("Sk", k)
        for k in range(0, 4)
    )
    # counts from the per-n membership test (in_S / in_Sprime for each n)
    counts_ok = d_large == Fraction(127352, 10**6) and nt.density(
        nt.ResidueSet("Sprime"), 10**6
    ) == Fraction(349199, 10**6)
    ok = shortcut_ok and d_large < d_small and periodic_ok and counts_ok
    report(8, ok, "shortcut classes to 10^5; density decreasing; 10^6 counts; "
                  "periodic densities exact")


def test_acceptance_09_witness_sweep():
    bad = []
    for l in range(-10, 11):
        for m in list(range(-5, -1)) + list(range(2, 6)):
            for p in range(-5, 6):
                w = rv.irrep_witness(l, m, p)
                if (w is None) != (l % (2 * p - 1) == 0):
                    bad.append((l, m, p, "cyclic-mismatch"))
                elif w is not None:
                    lo, hi = w.extension_window
                    if not (
                        Fraction(1, 3) <= w.phi_over_pi <= Fraction(2, 3)
                        and lo < w.phi_over_pi < hi
                    ):
                        bad.append((l, m, p, "inequality"))
    report(9, not bad, f"1848 (l,m,p) cases: divisibility criterion + exact inequalities; bad: {bad[:3]}")


def test_acceptance_10_pipeline_spot_checks():
    v1 = mf.not_surgery_verdict(mf.Splice.of(2, 3, 2, -3))
    ok1 = (
        v1.overall == "nonintegral-surgery"
        and (v1.nonintegral.l, v1.nonintegral.m) == (2, 2)
        and v1.nonintegral.slope_abs == Fraction(37, 2)
    )
    v2 = mf.not_surgery_verdict(mf.Splice.of(3, 4, -3, 4))
    ok2 = v2.overall == "not-any-surgery"
    v3 = mf.not_surgery_verdict(mf.Splice.of(3, 5, -3, 5), with_changemaker=True)
    ok3 = (
        v3.overall == "inconclusive"
        and not v3.integral_minus.obstructed
        and v3.changemaker.status == "witness"
        and v3.changemaker.sigma == (1, 2, 2, 4, 4, 8, 11)
        and v3.changemaker.slope == -226
    )
    report(10, ok1 and ok2 and ok3, "37/2 realization; (3,4) splice excluded; 226 stays open with witness")


def test_acceptance_11_cable_homology_consistency():
    bad = []
    for p in range(-7, 8):
        for q in range(2, 8):
            if abs(p) < 2 or gcd(abs(p), q) != 1:
                continue
            knots = [mf.IteratedTorusKnot((p, q))]
            for eps in (1, -1):
                knots.append(mf.IteratedTorusKnot((p, q), ((2 * p * q + eps, 2),)))
            for knot in knots:
                for row in mf.cable_su2_cyclic_slopes(knot):
                    if row.family is not None:
                        pq, qsq = row.family.pq, row.family.qsq
                        for m in range(-6, 7):
                            if m == 0:
                                continue
                            slope = pq + Fraction(1, m)
                            lens = oracles.torus_knot_surgery(p, q, slope)
                            if lens != mf.Lens(m * pq + 1, m * qsq) or (
                                lens.h1_order() != abs(slope.numerator)
                            ):
                                bad.append((knot, m))
                    elif row.manifold.h1_order() != abs(row.slope.numerator):
                        bad.append((knot, row.slope))
    report(11, not bad, f"|H1| = |slope numerator| on every listed slope; bad: {bad[:3]}")

import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

import oracles
from obstruct import goeritz as go
from obstruct import lattice as la
from obstruct import manifolds as mf
from obstruct import numtheory as nt
from obstruct.numtheory import ResourceCapExceeded

# ---------------------------------------------------------------------------
# torus knots


def test_torus_knot_canonical_form():
    assert (mf.TorusKnot(2, 3).p, mf.TorusKnot(2, 3).q) == (3, 2)
    assert mf.TorusKnot(2, 3) == mf.TorusKnot(3, 2) == mf.TorusKnot(-2, -3)
    assert mf.TorusKnot(2, -3) == mf.TorusKnot(-3, 2) == mf.TorusKnot(-2, 3)
    assert mf.TorusKnot(3, 5).mirror() == mf.TorusKnot(-3, 5)
    assert mf.TorusKnot(2, 3) != mf.TorusKnot(2, -3)


def test_torus_knot_triviality():
    for p, q in ((1, 0), (0, 1), (1, 1), (5, 1), (1, 5), (-1, 7)):
        assert mf.TorusKnot(p, q).is_trivial
    assert not mf.TorusKnot(2, 3).is_trivial
    with pytest.raises(ValueError):
        mf.TorusKnot(2, 4)


def test_mirror_matches_the_constructor():
    """TorusKnot.mirror builds (-p, q) without the constructor's checks; over
    a grid with trivial knots it equals the checked (-p, q), and a splice's
    mirror is an involution."""
    knots = [mf.TorusKnot(p, q) for p in range(-9, 10) for q in range(-9, 10)
             if gcd(p, q) == 1]
    assert any(k.is_trivial for k in knots)
    for k in knots:
        assert k.mirror() == mf.TorusKnot(-k.p, k.q), k
        assert k.mirror().mirror() == k, k
    for y in (mf.Splice(k, h) for k in knots for h in knots[::7] if k.q > 1 < h.q):
        assert y.mirror().mirror() == y, y


def test_torus_knot_product_invariant():
    assert mf.TorusKnot(2, 3).product == 6
    assert mf.TorusKnot(-2, 3).product == -6
    assert mf.TorusKnot(3, -2).product == -6


# ---------------------------------------------------------------------------
# splices: homology and linking form


def swapped(y):
    return mf.Splice(y.second, y.first)


def equivalence_key(y):
    """Equal for splices equal up to swap, mirror and the index identities,
    which TorusKnot's canonical form applies."""
    return min(
        ((z.first.p, z.first.q), (z.second.p, z.second.q))
        for z in (y, swapped(y), y.mirror(), swapped(y.mirror()))
    )


def test_h1_order_examples():
    assert mf.Splice.of(2, 3, 2, -3).h1_order() == 37
    assert mf.Splice.of(2, 3, 2, 3).h1_order() == 35
    assert mf.Splice.of(3, 5, -3, 5).h1_order() == 226


def test_splice_requires_nontrivial_factors():
    with pytest.raises(ValueError):
        mf.Splice.of(2, 1, 2, 3)
    with pytest.raises(ValueError):
        mf.Splice.of(2, 3, 0, 1)


def linking_self(y):
    """Linking-form self-pairings of the two meridians, in [0, 1): -cd/(abcd-1)
    and -ab/(abcd-1) mod 1."""
    n = y.signed_h1()
    return (Fraction(-y.second.product, n) % 1, Fraction(-y.first.product, n) % 1)


def test_linking_self_values():
    assert linking_self(mf.Splice.of(2, 3, 2, 5)) == (
        Fraction(49, 59),
        Fraction(53, 59),
    )
    # abcd - 1 = -37 here, so -cd/(abcd-1) = 6/-37 = 31/37 mod 1
    assert linking_self(mf.Splice.of(2, 3, 2, -3)) == (
        Fraction(31, 37),
        Fraction(6, 37),
    )


def test_linking_self_swap_symmetry():
    y = mf.Splice.of(2, 3, 3, 5)
    a, b = linking_self(y)
    assert linking_self(swapped(y)) == (b, a)


def test_linking_values_in_unit_interval():
    y = mf.Splice.of(3, 4, -3, 4)
    for v in linking_self(y):
        assert 0 <= v < 1


def test_linking_self_square_factor_identity():
    # the second meridian is ab times the first in homology, so its
    # self-linking is (ab)^2 times the other value mod 1
    for y in (
        mf.Splice.of(2, 3, 2, -3),
        mf.Splice.of(2, 3, 2, 5),
        mf.Splice.of(3, 5, -3, 5),
        mf.Splice.of(3, 4, 5, 2),
    ):
        lk_ab, lk_cd = linking_self(y)
        ab = y.first.product
        assert (ab * ab * lk_ab) % 1 == lk_cd


# ---------------------------------------------------------------------------
# integral obstruction


def test_integral_obstruction_examples():
    y = mf.Splice.of(2, 3, 2, -3)
    assert mf.integral_obstruction(y, +1).obstructed
    assert mf.integral_obstruction(y, -1).obstructed

    y = mf.Splice.of(2, 3, 2, 3)
    assert mf.integral_obstruction(y, +1).obstructed
    minus = mf.integral_obstruction(y, -1)
    assert not minus.obstructed
    assert minus.witness is not None
    assert minus.witness ** 2 % 35 == minus.residue_ab == (-6) % 35


def test_integral_obstruction_sign_validation():
    with pytest.raises(ValueError):
        mf.integral_obstruction(mf.Splice.of(2, 3, 2, 3), 0)


def nontrivial_knots(limit):
    out = []
    for p in range(2, limit + 1):
        for q in range(2, p):
            if mf.gcd(p, q) == 1:
                out.append(mf.TorusKnot(p, q))
                out.append(mf.TorusKnot(-p, q))
    return out


def grid_and_random_splices(seed):
    """The (2,odd) grid 1 <= a <= b < 20, its mirrors, and 500 seeded random
    splices with indices up to 3,000, the verdict-stream range."""
    grid = [mf.Splice.of(2 * a + 1, 2, 2 * b + 1, 2) for a in range(1, 20) for b in range(a, 20)]
    rng = random.Random(seed)
    randoms = []
    while len(randoms) < 500:
        a, b, c, d = (rng.randint(2, 3000) for _ in range(4))
        if gcd(a, b) == gcd(c, d) == 1:
            randoms.append(mf.Splice.of(rng.choice((a, -a)), b, rng.choice((c, -c)), d))
    return grid + [y.mirror() for y in grid] + randoms


def test_residue_agreement_small_indices():
    # ab * cd = 1 mod n = |abcd - 1|, so each sign's two residue classes are
    # inverses and squares together; integral_obstruction roots only the ab
    # class.  Small indices, then the grid and random splices.
    knots = nontrivial_knots(9)
    splices = [mf.Splice(k1, k2) for k1, k2 in itertools.product(knots, knots)]
    for y in splices + grid_and_random_splices(15):
        n = y.h1_order()
        for sign in (+1, -1):
            ob = mf.integral_obstruction(y, sign)
            assert ob.residue_ab * ob.residue_cd % n == 1, (y, sign)
            assert (oracles.square_root_mod(ob.residue_cd, n) is None) == ob.obstructed, (y, sign)
            assert ob.obstructed or ob.witness ** 2 % n == ob.residue_ab


def test_jacobi_exit_matches_factoring_on_splices(monkeypatch):
    """Both signs of the grid, its mirrors and 500 seeded splices give the
    same obstruction with and without the Jacobi exit of _square_roots_mod."""
    splices = grid_and_random_splices(19)
    fast = [mf.integral_obstruction(y, sign) for y in splices for sign in (1, -1)]
    odd_part = [ob.n >> ((ob.n & -ob.n).bit_length() - 1) for ob in fast]
    exits = sum(nt._jacobi(ob.residue_ab, m) == -1 for ob, m in zip(fast, odd_part))
    monkeypatch.setattr(nt, "_jacobi", lambda a, m: 1)
    slow = [mf.integral_obstruction(y, sign) for y in splices for sign in (1, -1)]
    assert fast == slow
    assert exits > 100


def test_integral_obstructions_digest():
    """(residue_ab, residue_cd, witness) of both signs for the grid, its
    mirrors and 500 seeded splices, as the verdict builds them and as
    integral_obstruction does, pinned by digest."""
    rows = []
    for y in grid_and_random_splices(23):
        v = mf.not_surgery_verdict(y)
        for ob in (v.integral_plus, v.integral_minus):
            assert ob == mf.integral_obstruction(y, ob.sign), (y, ob.sign)
            rows.append([ob.residue_ab, ob.residue_cd, ob.witness])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "de18ab73914754438d317ddfe97786736db3e04bf7ae41c5436c44d3cf250903"


def test_verdict_walks_n_once_and_splits_only_while_a_sign_lives(monkeypatch):
    """splice-2-3 (n = 37) has Jacobi symbol -1 for both signs, and its
    residue test never walks n's primes; splice-3-4 (n = 145) has +1 on a
    non-square and walks them once for both signs.  (Both are opposite mirror
    pairs, whose in_S shortcut walks k^2 + 1 = n once more when its odd part
    is 1 mod 8, as 145 is; 37 = 5 mod 8 is not in S, with no walk.)  For
    n = 158,868,865 = 5 * 4127 * 7699 both signs have Jacobi symbol +1 and
    die at 5, so the composite cofactor 4127 * 7699 > 4096^2 is never proved
    or split."""
    walks = []
    split = nt._split

    def counted(n):
        walks.append((sys._getframe(1).f_code.co_name, n))
        return split(n)

    monkeypatch.setattr(nt, "_split", counted)
    mf.not_surgery_verdict(mf.Splice.of(2, 3, 2, -3))
    assert walks == []
    walks.clear()
    mf.not_surgery_verdict(mf.Splice.of(3, 4, -3, 4))
    assert walks == [("_square_roots_mod", 145), ("_odd_divisors_one_mod", 145)]
    walks.clear()

    def unreachable(n):
        raise AssertionError(f"{n} was proved or split after both signs died")

    monkeypatch.setattr(nt, "_pollard_rho", unreachable)
    monkeypatch.setattr(nt, "is_prime", unreachable)
    y = mf.Splice.of(-64, 63, 199, 198)
    v = mf.not_surgery_verdict(y)
    assert walks == [("_square_roots_mod", 158868865)] and v.h1 == 158868865
    assert v.integral_plus.obstructed and v.integral_minus.obstructed
    m = v.h1  # odd
    assert all(nt._jacobi(ob.residue_ab, m) == 1 for ob in (v.integral_plus, v.integral_minus))


def test_square_roots_are_asked_for_units_only(monkeypatch):
    """numtheory roots units only.  Every residue that not_surgery_verdict
    (the grid, its mirrors and 500 seeded splices) and changemaker_obstruction
    (the 512 fig3-black forms of test_linking_form_is_the_residue_test, at
    p = |det|) pass to _square_roots_mod or _sqrt_mod_prime_power, directly
    or through _square_roots_mod, is prime to its modulus.  On 30 of the
    forms the linking form roots each cofactor mod q^e."""
    calls = []

    def checked(label, f, is_unit):
        def wrapper(*args):
            assert is_unit(*args), (label, args)
            calls.append(label)
            return f(*args)
        return wrapper

    def units(residues, n):
        return all(gcd(a, n) == 1 for a in residues)

    def unit(a, p, e):
        return a % p != 0

    monkeypatch.setattr(mf, "_square_roots_mod", checked("mf", nt._square_roots_mod, units))
    monkeypatch.setattr(la, "_square_roots_mod", checked("la", nt._square_roots_mod, units))
    monkeypatch.setattr(la, "_sqrt_mod_prime_power",
                        checked("la-cofactor", nt._sqrt_mod_prime_power, unit))
    monkeypatch.setattr(nt, "_sqrt_mod_prime_power",
                        checked("nt", nt._sqrt_mod_prime_power, unit))
    splices = grid_and_random_splices(29)
    for y in splices:
        mf.not_surgery_verdict(y)
    assert calls.count("mf") == len(splices) and "nt" in calls
    calls.clear()
    per_cofactor = 0
    for a1, b1 in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5), (3, 5)):
        for a0, b0 in itertools.product(range(1, 9), repeat=2):
            form = go.goeritz_matrix(go.fig3_black_graph(a0, a1, b0, b1))
            start = len(calls)
            la.changemaker_obstruction(form, abs(form.determinant()))
            per_cofactor += "la-cofactor" in calls[start:]
    assert (calls.count("la"), per_cofactor) == (482, 30)


# ---------------------------------------------------------------------------
# Eudave-Munoz knots


def test_em_knot_validation():
    with pytest.raises(ValueError):
        mf.EMKnot(2, 2, 1, 1)
    assert mf.EMKnot(2, 2, 0, 0).degenerate_warning is False
    assert mf.EMKnot(1, 2, 0, 0).degenerate_warning is True
    assert mf.EMKnot(2, 1, 0, 0).degenerate_warning is True


def test_em_slope_examples():
    assert mf.em_slope(mf.EMKnot(2, 2, 0, 0)) == Fraction(-37, 2)
    assert mf.em_slope(mf.EMKnot(3, -1, 0, -1)) == Fraction(-273, 2)
    assert mf.em_slope(mf.EMKnot(2, 2, 1, 0)) == Fraction(-37, 2) + 49


def test_em_slope_is_half_integral():
    for l in range(-6, 7):
        for m in range(-4, 5):
            for extra in range(-3, 4):
                for knot in (mf.EMKnot(l, m, extra, 0), mf.EMKnot(l, m, 0, extra)):
                    assert mf.em_slope(knot).denominator == 2


def test_em_mirror_antisymmetry():
    for l in range(-10, 11):
        for m in range(-10, 11):
            for n in range(-10, 11):
                assert mf.em_slope(mf.EMKnot(-l, -m, 1 - n, 0)) == -mf.em_slope(
                    mf.EMKnot(l, m, n, 0)
                )


def test_twisted_torus_slope_identity():
    for q in range(1, 51):
        assert -mf.em_slope(mf.EMKnot(2 * q + 1, -1, 0, -q)) == Fraction(
            (2 * q + 1) * (36 * q * q + 42 * q + 13), 2
        )


def test_em_su2_cyclic():
    assert mf.em_su2_cyclic(mf.EMKnot(3, 2, 0, 2))  # 2p-1 = 3 divides 3
    assert not mf.em_su2_cyclic(mf.EMKnot(2, 2, 2, 0))
    assert mf.em_su2_cyclic(mf.EMKnot(2, 2, 1, 0))
    assert mf.em_su2_cyclic(mf.EMKnot(2, 2, 0, 0))
    assert not mf.em_su2_cyclic(mf.EMKnot(5, 2, 0, 2))


def test_em_splice_form_examples():
    for k, y in ((2, 2, 0, 0), (2, 3, 2, -3)), ((2, 2, 1, 0), (-2, 3, 2, 5)):
        form = mf.em_splice_form(mf.EMKnot(*k))
        assert equivalence_key(form) == equivalence_key(mf.Splice.of(*y))
    assert mf.em_splice_form(mf.EMKnot(3, 2, 0, 2)) is None
    with pytest.raises(ValueError):
        mf.em_splice_form(mf.EMKnot(2, 2, 2, 0))


def test_em_splice_form_h1_consistency():
    cases = []
    for l in range(-6, 7):
        for m in range(-5, 6):
            cases += [
                mf.EMKnot(l, m, 0, 0),
                mf.EMKnot(l, m, 1, 0),
                mf.EMKnot(l, m, 0, 1),
            ]
    checked = 0
    for k in cases:
        try:
            y = mf.em_splice_form(k)
        except ValueError:
            continue  # degenerate parameters give a trivial factor
        if y is None:
            continue
        assert abs(2 * mf.em_slope(k)) == y.h1_order(), k
        checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# non-integral classification


def test_nonintegral_examples():
    m = mf.nonintegral_classification(mf.Splice.of(2, 3, 2, -3))
    assert m is not None and (m.l, m.m) == (2, 2)
    assert m.slope_abs == Fraction(37, 2)
    assert mf.nonintegral_classification(mf.Splice.of(3, 5, -3, 5)) is None
    assert mf.nonintegral_classification(mf.Splice.of(2, 3, 2, 3)) is None


def test_nonintegral_recovers_em_family():
    for l in range(2, 7):
        for m in range(2, 6):
            k = mf.EMKnot(l, m, 0, 0)
            y = mf.em_splice_form(k)
            match = mf.nonintegral_classification(y)
            assert match is not None, (l, m)
            rebuilt = mf.em_splice_form(match.em_knot)
            assert equivalence_key(rebuilt) == equivalence_key(y), (l, m, match)
            assert abs(2 * match.em_slope) == y.h1_order()


def test_nonintegral_accepts_mirrors_and_swaps():
    y = mf.em_splice_form(mf.EMKnot(3, 2, 0, 0))
    for z in (y, swapped(y), y.mirror(), swapped(y.mirror())):
        assert mf.nonintegral_classification(z) is not None


def test_half_integral_family_with_index_2():
    # splices of (2, 2m-1) and (-2, 2m-1) exteriors arise from half-integral
    # surgery for every m >= 2, so an index-2 pair must not be rejected
    for m in range(2, 8):
        y = mf.Splice.of(2, 2 * m - 1, -2, 2 * m - 1)
        assert mf.nonintegral_classification(y) is not None, m


def test_nonintegral_against_pattern_enumeration():
    # independent oracle: enumerate the pattern splices over a parameter box
    # large enough to contain any candidate for these small-index splices,
    # and compare equivalence-based membership with the matcher's verdict
    patterns = set()
    for l in range(-30, 31):
        for m in range(-15, 16):
            try:
                patterns.add(equivalence_key(mf.Splice.of(l, l * m - 1, 2, -(2 * m - 1))))
            except ValueError:
                continue
    knots = nontrivial_knots(5)
    for k1, k2 in itertools.product(knots, knots):
        y = mf.Splice(k1, k2)
        want = equivalence_key(y) in patterns
        got = mf.nonintegral_classification(y)
        assert (got is not None) == want, y
        if got is not None:
            rebuilt = mf.em_splice_form(got.em_knot)
            assert equivalence_key(rebuilt) == equivalence_key(y)


# ---------------------------------------------------------------------------
# torus knot surgeries and cables


def test_torus_knot_surgery_examples():
    assert oracles.torus_knot_surgery(2, 3, 7) == mf.Lens(7, 9)
    assert oracles.torus_knot_surgery(2, 3, 6) == mf.ConnectedSum(
        (mf.Lens(2, 3), mf.Lens(3, 2))
    )
    assert oracles.torus_knot_surgery(2, 5, 8) == oracles.SmallSFS((2, 5, 2), 8)


def test_torus_knot_surgery_negative_side():
    # r = 6 - 1/1: the lens parameters (-5, -9) normalize by a sign flip
    m = oracles.torus_knot_surgery(2, 3, 5)
    assert m == mf.Lens(5, 9)
    assert m.h1_order() == 5


def test_torus_knot_surgery_half_integral():
    # r = 6 + 1/2 = 13/2 has distance 1 from the fiber slope
    assert oracles.torus_knot_surgery(2, 3, Fraction(13, 2)) == mf.Lens(13, 18)


def test_cable_depth_one():
    rows = mf.cable_su2_cyclic_slopes(mf.IteratedTorusKnot((2, 3)))
    assert rows[0].family is not None and rows[0].family.pq == 6
    assert rows[1].slope == 6
    assert rows[1].manifold == mf.ConnectedSum((mf.Lens(2, 3), mf.Lens(3, 2)))
    # no reducible slope when neither index is +/-2
    rows = mf.cable_su2_cyclic_slopes(mf.IteratedTorusKnot((3, 4)))
    assert len(rows) == 1 and rows[0].family is not None


def test_cable_depth_two():
    rows = mf.cable_su2_cyclic_slopes(mf.IteratedTorusKnot((2, 3), ((13, 2),)))
    assert [r.slope for r in rows] == [25, 26]
    assert rows[0].manifold == mf.Lens(25, 36)
    assert rows[1].manifold == mf.ConnectedSum((mf.Lens(13, 18), mf.Lens(2, 1)))
    # 11 = 2*6 - 1 is the other admissible cable, with slopes 23 and 22
    rows = mf.cable_su2_cyclic_slopes(mf.IteratedTorusKnot((2, 3), ((11, 2),)))
    assert [r.slope for r in rows] == [23, 22]
    assert rows[0].manifold == mf.Lens(23, 36)
    assert rows[1].manifold == mf.ConnectedSum((mf.Lens(11, 18), mf.Lens(2, 1)))
    # anything else admits no SU(2)-cyclic surgery at all
    assert mf.cable_su2_cyclic_slopes(mf.IteratedTorusKnot((2, 3), ((9, 2),))) == ()
    assert mf.cable_su2_cyclic_slopes(mf.IteratedTorusKnot((2, 3), ((13, 3),))) == ()


def test_cable_depth_three_empty():
    k = mf.IteratedTorusKnot((2, 3), ((13, 2), (5, 2)))
    assert mf.cable_su2_cyclic_slopes(k) == ()


def test_cable_validation():
    with pytest.raises(ValueError):
        mf.IteratedTorusKnot((1, 3))
    with pytest.raises(ValueError):
        mf.IteratedTorusKnot((2, 3), ((4, 2),))
    with pytest.raises(ValueError):
        mf.IteratedTorusKnot((2, 3), ((5, 1),))


def test_cable_h1_consistency():
    for p in range(-7, 8):
        for q in range(2, 8):
            if abs(p) < 2 or mf.gcd(abs(p), q) != 1:
                continue
            base = mf.IteratedTorusKnot((p, q))
            for row in mf.cable_su2_cyclic_slopes(base):
                if row.family is not None:
                    # the family pq + 1/m is L(m*pq+1, m*q^2), as the cable report prints
                    pq, qsq = row.family.pq, row.family.qsq
                    for m in (-3, -2, -1, 1, 2, 3):
                        slope = pq + Fraction(1, m)
                        lens = oracles.torus_knot_surgery(p, q, slope)
                        assert lens == mf.Lens(m * pq + 1, m * qsq)
                        assert lens.h1_order() == abs(slope.numerator)
                else:
                    assert row.manifold == oracles.torus_knot_surgery(p, q, row.slope)
                    assert row.manifold.h1_order() == abs(row.slope.numerator)
            for eps in (1, -1):
                cable = mf.IteratedTorusKnot((p, q), ((2 * p * q + eps, 2),))
                for row in mf.cable_su2_cyclic_slopes(cable):
                    assert row.manifold.h1_order() == abs(row.slope.numerator)


# ---------------------------------------------------------------------------
# verdict pipeline


def test_verdict_not_any_surgery():
    v = mf.not_surgery_verdict(mf.Splice.of(3, 4, -3, 4))
    assert v.overall == "not-any-surgery"
    assert v.nonintegral is None
    assert v.integral_plus.obstructed and v.integral_minus.obstructed
    assert v.shortcut is not None
    assert v.shortcut.set_name == "S"
    assert v.shortcut.n == 12 and v.shortcut.in_set is False
    assert v.shortcut.indices_exceed_2 is True
    assert v.assumptions


def test_verdict_nonintegral_realization():
    v = mf.not_surgery_verdict(mf.Splice.of(2, 3, 2, -3))
    assert v.overall == "nonintegral-surgery"
    assert (v.nonintegral.l, v.nonintegral.m) == (2, 2)
    assert v.nonintegral.slope_abs == Fraction(37, 2)
    assert not v.assumptions


def test_verdict_l35_changemaker_witness():
    v = mf.not_surgery_verdict(mf.Splice.of(3, 5, -3, 5), with_changemaker=True)
    assert v.overall == "inconclusive"
    assert v.nonintegral is None
    assert not v.integral_minus.obstructed  # residues alone do not decide
    assert v.changemaker.status == "witness"
    assert v.changemaker.sigma == (1, 2, 2, 4, 4, 8, 11)
    assert v.changemaker.form_name == "L35-white"
    assert v.changemaker.slope == -226


def test_verdict_changemaker_settles_2odd_case():
    # (a, b) = (1, 4): residues leave -107 open, the lattice search closes it
    y = mf.Splice.of(2, 3, 2, 9)
    open_verdict = mf.not_surgery_verdict(y)
    assert open_verdict.overall == "inconclusive"
    assert not open_verdict.integral_minus.obstructed
    closed = mf.not_surgery_verdict(y, with_changemaker=True)
    assert closed.changemaker.status == "obstructed"
    assert closed.changemaker.form_name == "fig3-black(1,2,4,2)"
    assert closed.overall == "not-any-surgery"


def test_verdict_changemaker_unavailable():
    v = mf.not_surgery_verdict(mf.Splice.of(3, 4, 3, 5), with_changemaker=True)
    assert v.changemaker.status == "no-form-available"


def test_equal_pair_shortcut():
    v = mf.not_surgery_verdict(mf.Splice.of(2, 3, 2, 3))
    assert v.shortcut.set_name == "Sprime"
    assert v.shortcut.n == 6
    # n - 1 = 5 has no divisor 3 mod 4, so 6 is in the set
    assert v.shortcut.in_set is True


def test_census_small_bounds():
    rows = mf.census_2odd(9)
    assert [(r.a, r.b, r.status) for r in rows] == [(1, 1, "witness")]
    assert rows[0].n == 35
    assert mf.census_2odd(8) == []


def test_census_rows_sorted_and_jobs_agree():
    rows = mf.census_2odd(60)
    assert [(r.a, r.b) for r in rows] == sorted((r.a, r.b) for r in rows)
    pairs = {(a, b) for a in range(1, 4) for b in range(a, 30) if (2 * a + 1) * (2 * b + 1) <= 60}
    assert {(r.a, r.b) for r in rows} == pairs
    assert rows == mf.census_2odd(60)


def test_census_digest_at_cap():
    """Locks every row of the largest census, MAX_CENSUS_PRODUCT = 10^4."""
    rows = mf.census_2odd(mf.MAX_CENSUS_PRODUCT)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (len(rows), digest) == (
        8463, "158cd74756d5ed771bde379d6b6bf802caec62f391c80217dc30d51718e22b9f"
    )


def test_2odd_family_obstructed_by_norm_bound(monkeypatch):
    """The (2, odd) case of the paper's "infinitely many": (2a+1)(2b+1) > 341
    gives n = 4(2a+1)(2b+1) - 1 > 1365 = changemaker_max_norm(6), so no
    changemaker of length 6 has norm n, and slope -n is obstructed before any
    vector is counted, and with no elimination but the one that builds the
    form.  At or below 341 the census finds exactly five witnesses among 148
    rows."""
    rows = mf.census_2odd(341)
    assert len(rows) == 148
    witnesses = [(r.a, r.b) for r in rows if r.status == "witness"]
    assert witnesses == [(1, 1), (1, 2), (1, 3), (2, 3), (3, 3)]

    def no_counts(u, top):
        raise AssertionError("the norm bound decides before any vector count")

    monkeypatch.setattr(la, "_vector_counts", no_counts)
    la._short_counts.cache_clear()
    beyond = [(a, b) for a in range(1, 50) for b in range(a, 5000)
              if 341 < (2 * a + 1) * (2 * b + 1) <= 10**4]
    assert len(beyond) == 8463 - 148
    assert all(mf._census_row(a, b).status == "obstructed" for a, b in beyond)
    a, b = 10**6, 10**6 + 1
    n = 4 * (2 * a + 1) * (2 * b + 1) - 1
    gram = go.family_2odd_2odd(a, b)

    def no_elimination(entries):
        raise AssertionError("the norm bound decides before any elimination")

    monkeypatch.setattr(la, "_positive_elimination", no_elimination)
    assert la.changemaker_obstruction(gram, n).obstructed


def test_census_rejects_nonpositive_max_product():
    for max_product in (0, -9):
        with pytest.raises(ValueError, match="max_product"):
            mf.census_2odd(max_product)


def test_census_product_cap(monkeypatch):
    def no_rows(a, b):
        raise AssertionError("the cap is checked before any row is built")

    monkeypatch.setattr(mf, "_census_row", no_rows)
    with pytest.raises(ResourceCapExceeded, match="MAX_CENSUS_PRODUCT"):
        mf.census_2odd(mf.MAX_CENSUS_PRODUCT + 1)

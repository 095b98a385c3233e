from fractions import Fraction
from math import gcd

import pytest

import oracles
from obstruct import repvar as rv


def test_singular_orders_examples():
    assert rv.x1_singular_orders(2, 2, 0) == (2, 3)
    assert rv.x1_singular_orders(3, 2, 2) == (3, 9)
    assert rv.x1_singular_orders(2, 3, -1) == (2, 13)


def test_cyclic_iff_divisible():
    assert rv.irrep_witness(3, 2, 2) is None  # 2p-1 = 3 divides 3
    assert rv.irrep_witness(6, 3, 2) is None
    assert rv.irrep_witness(0, 2, 4) is None  # everything divides 0
    assert rv.irrep_witness(4, 2, 0) is None  # 2p-1 = -1
    assert rv.irrep_witness(5, 2, 2) is not None


def test_witness_examples():
    w = rv.irrep_witness(5, 2, 2)
    assert (w.g, w.d, w.a, w.q) == (1, 3, 5, 1)
    assert w.phi_over_pi == Fraction(2, 3)
    assert w.k_abs == 3
    assert w.extension_window == (Fraction(1, 6), Fraction(5, 6))
    assert w.extension_holds

    w = rv.irrep_witness(2, 3, -1)
    assert (w.d, w.a, w.q) == (3, 2, 1)
    assert w.phi_over_pi == Fraction(2, 3)
    assert w.k_abs == 5
    assert w.extension_window == (Fraction(1, 10), Fraction(9, 10))
    assert w.extension_holds


def test_witness_invariants_sweep():
    for l in range(-10, 11):
        for m in list(range(-5, -1)) + list(range(2, 6)):
            for p in range(-5, 6):
                w = rv.irrep_witness(l, m, p)
                divisible = l % (2 * p - 1) == 0
                assert (w is None) == divisible, (l, m, p)
                if w is None:
                    continue
                twop1 = abs(2 * p - 1)
                assert w.g == gcd(l, twop1)
                assert w.d == twop1 // w.g and w.d % 2 == 1 and w.d >= 3
                assert w.a == abs(l) // w.g
                assert gcd(w.a, w.d) == 1
                assert 1 <= w.q <= 2 * w.d
                assert w.a * w.q % w.d == (w.d + 1) // 2 % w.d
                _, alpha2 = rv.x1_singular_orders(l, m, p)
                assert w.q % 2 == alpha2 % 2
                assert w.phi_over_pi == (Fraction(w.a * w.q, w.d) % 1)
                assert Fraction(1, 3) <= w.phi_over_pi <= Fraction(2, 3)
                assert w.phi_over_pi == Fraction(1, 2) + Fraction(1, 2 * w.d)
                lo, hi = w.extension_window
                assert lo < w.phi_over_pi < hi


def test_witness_domain_errors():
    with pytest.raises(ValueError):
        rv.irrep_witness(5, 0, 2)
    with pytest.raises(ValueError):
        rv.irrep_witness(5, 1, 2)


def test_singular_orders_match_splice_factor_for_p_zero():
    # with p = 0 the piece X1 is the exterior of T(l, lm-1), so the two
    # singular fiber orders are exactly |l| and |lm - 1|
    for l in range(-8, 9):
        for m in range(-6, 7):
            assert rv.x1_singular_orders(l, m, 0) == (abs(l), abs(l * m - 1))


def test_torus_knot_surgeries_never_hit_abelian_bases():
    # base orders (|p|, |q|, Delta) have gcd(|p|, |q|) = 1, so they are never
    # (2,4,4) or (3,3,3) and large-distance torus knot surgeries always admit
    # irreducible SU(2) representations
    for p in range(2, 13):
        for q in range(2, 13):
            if gcd(p, q) != 1:
                continue
            for delta in range(2, 13):
                for sign in (1, -1):
                    r = sign * p * q + (delta if sign > 0 else -delta)
                    m = oracles.torus_knot_surgery(sign * p, q, r)
                    assert isinstance(m, oracles.SmallSFS)
                    assert m.base_orders[2] == delta
                    assert sorted(m.base_orders) not in ([2, 4, 4], [3, 3, 3])

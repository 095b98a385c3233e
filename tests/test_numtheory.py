import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from obstruct import numtheory as nt


# ---------------------------------------------------------------------------
# independent oracles


def trial_division(n):
    """Factor by plain trial division; the oracle for factor()."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def squares_mod(n):
    return {x * x % n for x in range(n)}


# ---------------------------------------------------------------------------
# factor


def test_factor_examples():
    assert nt.factor(226).factors == ((2, 1), (113, 1))
    assert nt.factor(1).factors == ()
    assert nt.factor(37).factors == ((37, 1),)


def test_factor_matches_trial_division():
    for n in range(1, 2000):
        assert nt.factor(n).factors == trial_division(n), n


def test_factor_large_semiprime():
    p, q = 1000003, 1000033
    f = nt.factor(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factor_prime_power():
    assert nt.factor(3**12).factors == ((3, 12),)
    assert nt.factor(1000003**2).factors == ((1000003, 2),)


def test_factor_range_errors():
    with pytest.raises(ValueError):
        nt.factor(0)
    with pytest.raises(ValueError):
        nt.factor(-5)
    with pytest.raises(OverflowError):
        nt.factor(2**63)


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        nt.Factorization(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(ValueError):
        nt.Factorization(12, ((2, 2), (3, 2)))  # wrong product
    with pytest.raises(ValueError):
        nt.Factorization(16, ((4, 2),))  # 4 is not prime


# ---------------------------------------------------------------------------
# legendre symbol


def test_legendre_examples():
    assert nt.legendre(2, 7) == 1  # squares mod 7 are {1,2,4}
    assert nt.legendre(3, 3) == 0
    assert nt.legendre(2, 3) == -1


def test_legendre_against_brute_force():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        sq = squares_mod(p)
        for a in range(2 * p):
            want = 0 if a % p == 0 else (1 if a % p in sq else -1)
            assert nt.legendre(a, p) == want


def test_legendre_rejects_bad_modulus():
    for p in (2, 9, 15, 1, -7):
        with pytest.raises(ValueError):
            nt.legendre(3, p)


def test_quadratic_reciprocity_to_500():
    primes = [p for p in range(3, 501) if nt.is_prime(p)]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            eps = (-1) ** ((p - 1) // 2 * (q - 1) // 2)
            assert nt.legendre(p, q) * nt.legendre(q, p) == eps


# ---------------------------------------------------------------------------
# modular square roots


def test_is_square_mod_examples():
    assert nt.square_root_mod(6, 11) is None
    assert nt.square_root_mod(4, 21) is not None
    assert nt.square_root_mod(4, 21) ** 2 % 21 == 4
    w = nt.square_root_mod(-6 % 35, 35)
    assert w is not None and w * w % 35 == 29


def test_square_root_mod_trivial_modulus():
    assert nt.square_root_mod(17, 1) == 0


def test_square_root_mod_exhaustive_small():
    # exhaustive below 600, then a deterministic stride through 600..2000
    moduli = list(range(1, 600)) + list(range(601, 2001, 13))
    for n in moduli:
        sq = squares_mod(n)
        for a in range(n):
            w = nt.square_root_mod(a, n)
            if a in sq:
                assert w is not None and w * w % n == a, (a, n)
            else:
                assert w is None, (a, n)


def test_square_root_mod_two_power_cases():
    # odd a: square mod 2 always, mod 4 iff 1 mod 4, mod 2^k (k>=3) iff 1 mod 8
    for k in range(1, 10):
        n = 2**k
        sq = squares_mod(n)
        for a in range(n):
            assert (nt.square_root_mod(a, n) is not None) == (a in sq), (a, n)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=-(2**62), max_value=2**62),
)
def test_square_root_mod_agrees_with_scan(n, a):
    w = nt.square_root_mod(a, n)
    want = a % n in squares_mod(n)
    assert (w is not None) == want
    if w is not None:
        assert 0 <= w < n and w * w % n == a % n


# ---------------------------------------------------------------------------
# the character chi_8m


def test_chi_8m_examples():
    assert oracles.chi_8m(3, 1) == -1  # p = 3, (2/3) = -1
    assert oracles.chi_8m(1, 1) == 1  # p = 17 = 1 mod 8, (2/17) = 1
    assert oracles.chi_8m(11, 3) == -1  # 4m - 1 for m = 3


def test_chi_8m_well_defined_across_primes():
    # all primes below 10^4 in the same class mod 8m give the same value
    primes = [p for p in range(3, 10**4, 2) if nt.is_prime(p)]
    for m in range(1, 31, 2):
        mod = 8 * m
        classes = {}
        for p in primes:
            if (2 * m) % p == 0:
                continue
            val = nt.legendre(2 * m % p, p)
            cls = p % mod
            assert classes.setdefault(cls, val) == val, (m, p)
            assert oracles.chi_8m(cls, m) == val


def test_chi_8m_is_multiplicative():
    rng = random.Random(20240229)
    for m in range(1, 31, 2):
        mod = 8 * m
        units = [a for a in range(1, mod) if nt.gcd(a, mod) == 1]
        for _ in range(50):
            a, b = rng.choice(units), rng.choice(units)
            assert oracles.chi_8m(a * b % mod, m) == oracles.chi_8m(a, m) * oracles.chi_8m(b, m)


def test_chi_8m_at_4m_minus_1():
    for m in range(1, 60, 2):
        assert oracles.chi_8m(4 * m - 1, m) == -1


def test_2m_not_square_mod_4mn_minus_1_sample():
    for m in range(1, 30, 2):
        for n in range(1, 30, 2):
            assert nt.square_root_mod(2 * m, 4 * m * n - 1) is None


# ---------------------------------------------------------------------------
# the sets S and Sprime


def in_S_oracle(n):
    return all(p == 2 or p % 8 == 1 for p, _ in trial_division(n * n + 1))


def in_Sprime_oracle(n):
    def good(d):
        return all(p % 4 != 3 for p, _ in trial_division(d))

    return good(n - 1) or good(n + 1)


def test_in_S_examples():
    assert nt.in_S(6) is False  # 37 = 5 mod 8 divides 37
    assert nt.in_S(15) is True  # 226 = 2 * 113, 113 = 1 mod 8
    assert nt.in_S(1) is True  # vacuous: 2 has no odd prime divisor


def test_in_Sprime_examples():
    assert nt.in_Sprime(10) is False
    assert nt.in_Sprime(8) is False
    assert nt.in_Sprime(2) is True  # n - 1 = 1 is vacuous


def test_in_S_against_oracle():
    for n in range(1, 2500):
        assert nt.in_S(n) == in_S_oracle(n), n


def test_in_Sprime_against_oracle():
    for n in range(2, 2500):
        assert nt.in_Sprime(n) == in_Sprime_oracle(n), n


def test_membership_against_factor_large_n():
    """n in [10^6, 3 * 10^9], where cofactors above 10^6 reach the early-exit
    shortcuts and Pollard rho; oracle: the complete factorization."""
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(10**6, 3 * 10**9)
        in_s = all(p % 8 == 1 for p in nt.factor(n * n + 1).primes() if p != 2)
        in_sprime = any(
            all(p % 4 != 3 for p in nt.factor(x).primes()) for x in (n - 1, n + 1)
        )
        assert nt.in_S(n) == in_s, n
        assert nt.in_Sprime(n) == in_sprime, n


def test_domain_errors():
    with pytest.raises(ValueError):
        nt.in_S(0)
    with pytest.raises(ValueError):
        nt.in_Sprime(1)
    with pytest.raises(OverflowError):
        nt.in_S(2**62)


def test_membership_shortcuts_small():
    for n in range(1, 10**4):
        if n % 8 in (2, 3, 5, 6):
            assert nt.in_S(n) is False, n
        if n % 12 in (8, 10):
            assert nt.in_Sprime(n) is False, n


# ---------------------------------------------------------------------------
# densities and product bounds


def progression_primes(count, residue, modulus):
    """The first count primes residue, residue + modulus, ...; the oracle for
    primes_in_class(), which sieves."""
    out = []
    p = residue
    while len(out) < count:
        if nt.is_prime(p):
            out.append(p)
        p += modulus
    return tuple(out)


def test_class_prime_lists():
    """Every k to 300, which covers k = 0 and each doubling of the sieve's bound."""
    assert nt.primes_in_class(5, 5, 8) == (5, 13, 29, 37, 53)
    assert nt.primes_in_class(5, 3, 4) == (3, 7, 11, 19, 23)
    for residue, modulus in ((5, 8), (3, 4)):
        oracle = progression_primes(300, residue, modulus)
        for k in range(301):
            assert nt.primes_in_class(k, residue, modulus) == oracle[:k], (residue, k)


def membership(rset):
    """Per-n membership in rset, the oracle for density(); lists primes once."""
    if rset.kind == "S":
        return nt.in_S
    if rset.kind == "Sprime":
        return lambda n: n >= 2 and nt.in_Sprime(n)
    primes = rset.primes()
    if rset.kind == "Sk":
        return lambda n: all(n * n % p != p - 1 for p in primes)
    return lambda n: all(n % p != 0 for p in primes)


DENSITY_SETS = (
    [nt.ResidueSet("S"), nt.ResidueSet("Sprime")]
    + [nt.ResidueSet("Sk", k) for k in range(4)]
    + [nt.ResidueSet("Tk", k) for k in range(6)]
)


def test_density_examples():
    """The sieve against the per-n membership test: every limit to 2,000 for
    each kind, then S and Sprime at 2 * 10^4 against in_S / in_Sprime."""
    assert nt.density(nt.ResidueSet("Sk", 0), 10) == 1
    assert nt.density(nt.ResidueSet("Sk", 1), 25) == Fraction(3, 5)
    for rset in DENSITY_SETS:
        contains = membership(rset)
        count = 0
        for limit in range(1, 2001):
            count += contains(limit)
            assert nt.density(rset, limit) * limit == count, (rset, limit)
    limit = 2 * 10**4
    for rset in DENSITY_SETS[:2]:
        assert nt.density(rset, limit) * limit == sum(map(membership(rset), range(1, limit + 1)))


def test_density_sieve_across_segments(monkeypatch):
    """A 16-byte segment sends the prime sieve, the chunked clears and the
    Sprime count through many segments."""
    monkeypatch.setattr(nt, "_SEGMENT", 16)
    for limit in (1, 2, 15, 16, 17, 255, 256, 257, 1000):
        primes = [p for p in range(limit + 1) if nt.is_prime(p)]
        assert list(nt._primes_upto(limit)) == primes
        assert list(nt._primes_upto(limit, 3, 4)) == [p for p in primes if p % 4 == 3]
        for rset in DENSITY_SETS:
            count = sum(map(membership(rset), range(1, limit + 1)))
            assert nt.density(rset, limit) * limit == count, (rset, limit)


def test_density_limit_cap():
    tracemalloc.start()
    try:
        for rset in DENSITY_SETS[:3] + DENSITY_SETS[-1:]:
            with pytest.raises(nt.ResourceCapExceeded, match="MAX_DENSITY_LIMIT"):
                nt.density(rset, nt.MAX_DENSITY_LIMIT + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # refused before the sieve's array is allocated


def test_residue_k_cap(monkeypatch):
    """k above MAX_RESIDUE_K is refused when the set is built, before any
    prime search."""

    def no_search(*args):
        raise AssertionError("prime search started")

    monkeypatch.setattr(nt, "primes_in_class", no_search)
    for kind in ("Sk", "Tk"):
        assert nt.ResidueSet(kind, nt.MAX_RESIDUE_K).k == nt.MAX_RESIDUE_K
        with pytest.raises(nt.ResourceCapExceeded, match="MAX_RESIDUE_K"):
            nt.ResidueSet(kind, nt.MAX_RESIDUE_K + 1)
        with pytest.raises(nt.ResourceCapExceeded, match="MAX_RESIDUE_K"):
            nt.ResidueSet.parse(f"{kind}:{nt.MAX_RESIDUE_K + 1}")


def test_product_bound_examples():
    assert nt.product_bound("Sk", 0) == 1
    assert nt.product_bound("Sk", 1) == Fraction(3, 5)
    assert nt.product_bound("Sk", 2) == Fraction(33, 65)
    assert nt.product_bound("Tk", 2) == Fraction(2, 3) * Fraction(6, 7)
    with pytest.raises(ValueError):
        nt.product_bound("S", 1)


def test_sk_periodic_density_matches_bound():
    for k in (1, 2, 3):
        rset = nt.ResidueSet("Sk", k)
        period = rset.period()
        assert nt.density(rset, period) == nt.product_bound("Sk", k)
        # periodicity: the same count over the second full period
        contains = membership(rset)
        count1 = sum(map(contains, range(1, period + 1)))
        count2 = sum(map(contains, range(period + 1, 2 * period + 1)))
        assert count1 == count2


def test_tk_periodic_density_matches_bound():
    for k in (1, 2, 3):
        rset = nt.ResidueSet("Tk", k)
        assert nt.density(rset, rset.period()) == nt.product_bound("Tk", k)


def test_residue_set_parse():
    assert nt.ResidueSet.parse("S") == nt.ResidueSet("S")
    assert nt.ResidueSet.parse("Sprime") == nt.ResidueSet("Sprime")
    assert nt.ResidueSet.parse("Sk:2") == nt.ResidueSet("Sk", 2)
    assert nt.ResidueSet.parse("Tk:0") == nt.ResidueSet("Tk", 0)
    for bad in ("X", "Sk", "Sk:-1", "S:1"):
        with pytest.raises(ValueError):
            nt.ResidueSet.parse(bad)


def test_sprime_membership_below_2_is_false_for_density():
    assert membership(nt.ResidueSet("Sprime"))(1) is False

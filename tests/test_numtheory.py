import hashlib
import json
import random
import tracemalloc
from fractions import Fraction
from math import isqrt

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


def legendre(a, p):
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


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


def sample_63_bit(seed=2**63 - 25):
    """200 products of 2-4 random primes in [1000, 2^31), each prime below
    2^(63 // k) so the product stays below 2^63, then 200 uniform n < 2^63."""
    rng = random.Random(seed)
    out = []
    for _ in range(200):
        k = rng.randint(2, 4)
        hi = min(2**31, 2 ** (63 // k))
        n = 1
        for _ in range(k):
            p = rng.randrange(1000, hi)
            while not nt.is_prime(p):
                p = p + 1 if p + 1 < hi else 1000
            n *= p
        out.append(n)
    return out + [rng.randrange(1, 2**63) for _ in range(200)]


def factors_checked(n):
    f = nt.factor(n)
    assert f.value == n
    oracles.check_factorization(f)
    return f.factors


def test_factor_digest():
    """Every factor(n).factors for n <= 10^5 and on the 63-bit sample,
    pinned by digest, and each one a complete prime factorization."""
    small = [factors_checked(n) for n in range(1, 10**5 + 1)]
    digest = hashlib.sha256(json.dumps(small).encode()).hexdigest()
    assert digest == "f3a664601bbd512c6736114161aa38a340c781115d0ff803a6f4cd20453378ed"
    large = [factors_checked(n) for n in sample_63_bit()]
    digest = hashlib.sha256(json.dumps(large).encode()).hexdigest()
    assert digest == "e6d5fae95bbb5a9e117323a4ca2ab3aba74c2da5d8d1c2d248ef7aa398616bf6"


def split_inputs():
    """n <= 10^5, the 63-bit sample and n = p^k q^j with p, q >= 4096 and
    k, j <= 3."""
    rng = random.Random(25)
    powers = []
    for lo, hi in ((4096, 2**16), (4096**2, 2**26)):
        for k in range(1, 4):
            for j in range(1, 4):
                p, q = prime_in(rng, lo, hi), prime_in(rng, 4096, hi)
                powers.append(p**k * q**j if p != q else p**k)
    return [*range(1, 10**5 + 1), *sample_63_bit(), *powers]


def test_split_yields_primes_small_first():
    """Every entry of the walk is a prime with exponent e >= 1, and the
    primes below 4096 come first, ascending."""
    for n in split_inputs():
        entries = list(nt._split(n))
        assert all(e >= 1 and oracles.is_prime(p) for p, e in entries), (n, entries)
        small = [p for p, _ in entries if p < 4096]
        assert [p for p, _ in entries[: len(small)]] == sorted(small), (n, entries)


def test_split_yields_each_prime_once(monkeypatch):
    """The contract of the one factoring walk, on :func:`split_inputs`: the
    entries are distinct primes whose powers multiply to n, and no prime at
    least 4096^2 is passed to is_prime twice, although Pollard rho can
    return one more than once."""
    proved, rho = [], []

    def recording(calls, f):
        return lambda n: calls.append(n) or f(n)

    monkeypatch.setattr(nt, "is_prime", recording(proved, nt.is_prime))
    monkeypatch.setattr(nt, "_pollard_rho", recording(rho, nt._pollard_rho))
    repeated_big = 0
    for n in split_inputs():
        proved.clear()
        product, primes = 1, set()
        for c, e in nt._split(n):
            assert c not in primes and oracles.is_prime(c), (n, c)
            primes.add(c)
            product *= c**e
            repeated_big += e > 1 and c >= 4096**2
        assert product == n, n
        big = [c for c in proved if c >= 4096**2 and oracles.is_prime(c)]
        assert len(big) == len(set(big)), (n, big)
    assert repeated_big >= 8 and len(rho) > 0


def test_factor_range_errors():
    with pytest.raises(ValueError):
        nt.factor(0)
    with pytest.raises(ValueError):
        nt.factor(-5)
    with pytest.raises(OverflowError):
        nt.factor(2**63)


def test_factorization_invariants_enforced():
    """The oracle that checks every factor(n) of test_factor_digest rejects
    each kind of bad factor list."""
    oracles.check_factorization(nt.Factorization(12, ((2, 2), (3, 1))))
    with pytest.raises(AssertionError, match="ascending"):
        oracles.check_factorization(nt.Factorization(12, ((3, 1), (2, 2))))
    with pytest.raises(AssertionError, match="multiply"):
        oracles.check_factorization(nt.Factorization(12, ((2, 2), (3, 2))))
    with pytest.raises(AssertionError, match="not prime"):
        oracles.check_factorization(nt.Factorization(16, ((4, 2),)))


# ---------------------------------------------------------------------------
# is_prime

# psi_k: the least odd composite that is a strong probable prime to each of
# the first k prime bases (Jaeschke 1993; Jiang and Deng 2014; OEIS A014233).
PSI = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751, 5: 2152302898747,
       6: 3474749660383, 7: 341550071728321, 8: 341550071728321,
       9: 3825123056546413051, 10: 3825123056546413051, 11: 3825123056546413051,
       12: 318665857834031151167461}


def test_is_prime_matches_sieve_below_10_6():
    limit = 10**6
    sieve = bytearray([1]) * limit
    sieve[:2] = bytes(2)
    for p in range(2, 1001):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if nt.is_prime(n) != sieve[n]] == []


def test_is_prime_matches_oracle_near_each_psi():
    """psi_k - 2, psi_k, psi_k + 2 and 300 seeded odd n within 2^20 of each
    psi_k below psi_12, against the 12-base oracle, exact below psi_12."""
    rng = random.Random(20)
    for psi in sorted(set(PSI.values()) - {PSI[12]}):
        sample = [psi - 2, psi, psi + 2]
        sample += [rng.randrange(max(psi - 2**20, 0), psi + 2**20) | 1 for _ in range(300)]
        for n in sample:
            assert nt.is_prime(n) == oracles.is_prime(n), n


def misreported_composites():
    """Which of these composites is_prime calls prime: 41^2, the least with
    no prime factor up to 37; 8321 = 53 * 157, the least such strong probable
    prime to base 2, for psi_1 = 23 * 89 never reaches a base; psi_2 to psi_11."""
    composites = (41**2, 8321, *set(PSI.values()) - {PSI[1], PSI[12]})
    return [n for n in composites if nt.is_prime(n)]


def test_is_prime_bounds_are_psi_k():
    """Each bound of the base table is the published psi_k for its k, and
    each psi_k is reported composite."""
    assert all(bound == PSI[k] for bound, k in nt._MR_BOUNDS)
    assert misreported_composites() == []


@pytest.mark.parametrize("row", range(len(nt._MR_BOUNDS) + 1))
def test_is_prime_table_one_base_short_fails(monkeypatch, row):
    """A table one base short at any bound, the last being 12 bases below
    psi_12, calls a composite prime."""
    table = [*nt._MR_BOUNDS, (PSI[12], 12)]
    bound, k = table[row]
    table[row] = (bound, k - 1)
    monkeypatch.setattr(nt, "_MR_BOUNDS", tuple(table))
    assert misreported_composites() != []


def test_is_prime_past_the_table():
    """Past the last bound, n gets all 12 bases, and nothing raises; past
    psi_12 that is only a probable-prime test."""
    assert nt.is_prime(2**89 - 1)  # a Mersenne prime above psi_12
    assert not nt.is_prime((2**61 - 1) * (2**31 - 1))
    assert nt.is_prime(PSI[12])  # composite, but a strong probable prime to all 12


# ---------------------------------------------------------------------------
# legendre symbol


def test_legendre_examples():
    assert legendre(2, 7) == 1  # squares mod 7 are {1,2,4}
    assert legendre(3, 3) == 0
    assert legendre(2, 3) == -1


def test_legendre_against_brute_force():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        sq = squares_mod(p)
        for a in range(2 * p):
            want = 0 if a % p == 0 else (1 if a % p in sq else -1)
            assert legendre(a, p) == want


def test_quadratic_reciprocity_to_500():
    primes = [p for p in range(3, 501) if nt.is_prime(p)]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            eps = (-1) ** ((p - 1) // 2 * (q - 1) // 2)
            assert legendre(p, q) * legendre(q, p) == eps


def test_jacobi_is_product_of_legendre():
    """(a / m) for every odd m < 2000 and every a mod m, against the product
    of the oracle's Legendre symbols over the factors of m."""
    table = {}
    for m in range(1, 2000, 2):
        factors = trial_division(m)
        for p, _ in factors:
            if p not in table:
                table[p] = [legendre(a, p) for a in range(p)]
        for a in range(m):
            want = 1
            for p, e in factors:
                want *= table[p][a % p] ** e
            assert nt._jacobi(a, m) == want, (a, m)
    assert nt._jacobi(-1, 7) == -1  # a is reduced mod m first


# ---------------------------------------------------------------------------
# modular square roots


def test_is_square_mod_examples():
    assert oracles.square_root_mod(6, 11) is None
    assert oracles.square_root_mod(4, 21) is not None
    assert oracles.square_root_mod(4, 21) ** 2 % 21 == 4
    w = oracles.square_root_mod(-6 % 35, 35)
    assert w is not None and w * w % 35 == 29


def test_square_root_mod_trivial_modulus():
    assert oracles.square_root_mod(17, 1) == 0


def test_square_root_mod_exhaustive_small():
    # exhaustive below 600, then a deterministic stride through 600..2000
    moduli = list(range(1, 600)) + list(range(601, 2001, 13))
    for n in moduli:
        sq = squares_mod(n)
        for a in range(n):
            w = oracles.square_root_mod(a, n)
            if a in sq:
                assert w is not None and w * w % n == a, (a, n)
            else:
                assert w is None, (a, n)


def test_square_root_mod_witnesses_locked():
    """The exact witness, not only whether one exists, for every a < n <= 300:
    prime powers up to 2^8 and 3^5, and mixed moduli."""
    roots = [oracles.square_root_mod(a, n) for n in range(1, 301) for a in range(n)]
    digest = hashlib.sha256(json.dumps(roots).encode()).hexdigest()
    assert digest == "bd7393a604453cab1a1ee6e4b504103d44ac927e6dfb04f23183ace292e733d6"


def prime_in(rng, lo, hi):
    p = rng.randrange(lo, hi)
    while not oracles.is_prime(p):
        p = p + 1 if p + 1 < hi else lo
    return p


def large_n_sample(seed=23):
    """(a, n) pairs with n < 2^63 whose square roots reach each branch of the
    walk of n's primes:

    * n = p^2 q and p^3 with p >= 4096, so repeated large primes come out of
      Pollard rho, with residues divisible by p and by p^2;
    * 2^k exactly dividing n for k = 1..5, times p^2 q;
    * n = s p q with s < 4096 prime and p, q >= 4096, and a residue a such
      that a and -a are non-squares mod s while the Jacobi symbol of the odd
      part of n is +1 for both, so both signs die at s before the composite
      cofactor p q is split;
    * a random residue and a square for each n of sample_63_bit().
    """
    rng = random.Random(seed)
    pairs = []

    def residues(n, p):
        x = rng.randrange(n)
        for a in (rng.randrange(n), x * x % n, p * rng.randrange(n), p * p * rng.randrange(n)):
            pairs.append((a % n, n))

    for _ in range(30):
        p = prime_in(rng, 4096, 2**20)
        residues(p * p * prime_in(rng, 4096, 2**22), p)
        p = prime_in(rng, 4096, 2**21)
        residues(p**3, p)
    for k in range(1, 6):
        for _ in range(6):
            p = prime_in(rng, 4096, 2**18)
            residues(2**k * p * p * prime_in(rng, 4096, 2**20), p)
    # -1 is a square mod s and mod p q, so a and -a have the same symbols
    small = [s for s in range(5, 4096, 4) if oracles.is_prime(s)]
    for _ in range(30):
        s = rng.choice(small)
        p = q = prime_in(rng, 4096, 2**20)
        while q % 4 != p % 4 or q == p:
            q = prime_in(rng, 4096, 2**20)
        n = s * p * q * 2 ** rng.randrange(3)
        while True:
            a = rng.randrange(n)
            if all(legendre(b, s) == -1 and legendre(b, p) * legendre(b, q) == -1
                   for b in (a, -a)):
                break
        pairs += [(a, n), (rng.randrange(n), n)]
    for n in sample_63_bit():
        x = rng.randrange(n)
        pairs += [(rng.randrange(n), n), (x * x % n, n)]
    return pairs


def test_square_root_mod_large_n_digest():
    """The witness or None for both signs of every pair of large_n_sample(),
    pinned by digest."""
    roots = [[oracles.square_root_mod(b, n) for b in (a, -a)] for a, n in large_n_sample()]
    digest = hashlib.sha256(json.dumps(roots).encode()).hexdigest()
    assert digest == "6219047ac93b3de6552160f39ab74afb0c84c2665a0d0e5c16e0ba99105edc00"


def test_square_roots_mod_match_factoring_oracle():
    """Both signs of each pair of large_n_sample() in one call: residue by
    residue, the witness or None of the factor-then-CRT oracle, which has no
    Jacobi exit; the sample fires that exit often."""
    exits = 0
    for a, n in large_n_sample():
        want = [oracles.square_root_mod_by_factoring(b, n) for b in (a, -a)]
        assert nt._square_roots_mod((a, -a), n) == want, (a, n)
        m = n >> ((n & -n).bit_length() - 1)
        exits += sum(nt._jacobi(b, m) == -1 for b in (a, -a))
    assert exits > 100


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_square_roots_mod_match_factoring_oracle_below_2_63(data):
    n = data.draw(st.integers(min_value=1, max_value=2**63 - 1))
    a, x = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    residues = (a, -a, x * x % n)
    want = [oracles.square_root_mod_by_factoring(b, n) for b in residues]
    assert nt._square_roots_mod(residues, n) == want


def test_sqrt_mod_prime_on_63_bit_primes():
    """For s = 1..40 the first prime p = k 2^s + 1 with k odd from
    k = 2^(62 - s) + 1: square exactly when the oracle says so, and for s = 1
    the root a^((p + 1)/4)."""
    rng = random.Random(63)
    for s in range(1, 41):
        k = 1 << (62 - s) | 1
        while not nt.is_prime(k << s | 1):
            k += 2
        p = k << s | 1
        for _ in range(20):
            a = rng.randrange(1, p)
            r = nt._sqrt_mod_prime(a, p)
            assert (r is None) == (legendre(a, p) == -1), (a, p)
            if r is not None:
                assert r * r % p == a, (a, p)
                if s == 1:
                    assert r == pow(a, (p + 1) // 4, p), (a, p)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=-(2**62), max_value=2**62),
)
def test_square_root_mod_agrees_with_scan(n, a):
    w = oracles.square_root_mod(a, n)
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
            val = legendre(2 * m % p, p)
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
            assert oracles.square_root_mod(2 * m, 4 * m * n - 1) is None


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


def membership_sample(seed=11):
    """300 seeded n in [10^6, 3 * 10^9]; then 100 where n^2 + 1 or n - 1
    has a prime factor in [1000, 4096), the old and new trial bounds; then
    100 where n^2 + 1 or n + 1 has a product of two primes in (4096, 2^15)
    in its cofactor, which is then composite and at least 4096^2."""
    rng = random.Random(seed)
    primes = [p for p in range(1000, 2**15) if oracles.is_prime(p)]
    mid = [p for p in primes if p < 4096]
    big = [p for p in primes if p > 4096]
    out = [rng.randint(10**6, 3 * 10**9) for _ in range(300)]
    for _ in range(50):
        p = rng.choice([p for p in mid if p % 4 == 1])
        out.append(oracles.square_root_mod(p - 1, p) + p * rng.randrange(3 * 10**9 // p))
        p = rng.choice(mid)
        out.append(1 + p * rng.randrange(1, 3 * 10**9 // p))
    for _ in range(50):
        q1, q2 = rng.sample([p for p in big if p % 4 == 1], 2)
        r1, r2 = oracles.square_root_mod(q1 - 1, q1), oracles.square_root_mod(q2 - 1, q2)
        r = (r1 * q2 * pow(q2, -1, q1) + r2 * q1 * pow(q1, -1, q2)) % (q1 * q2)
        out.append(r + q1 * q2 * rng.randrange(3 * 10**9 // (q1 * q2)))
        q3, q4 = rng.sample(big, 2)
        out.append(q3 * q4 * rng.randrange(1, 3 * 10**9 // (q3 * q4)) - 1)
    return out


def test_membership_against_factor_large_n():
    """in_S and in_Sprime against the complete factorization, the rule the
    benchmark checks shortcut verdicts with, on n where cofactors above
    4096^2 reach the early-exit shortcuts and Pollard rho."""
    mid = big = 0
    for n in membership_sample():
        in_s = all(p % 8 == 1 for p in nt.factor(n * n + 1).primes() if p != 2)
        in_sprime = any(
            all(p % 4 != 3 for p in nt.factor(x).primes()) for x in (n - 1, n + 1)
        )
        assert nt.in_S(n) == in_s, n
        assert nt.in_Sprime(n) == in_sprime, n
        for x in (n * n + 1, n - 1, n + 1):
            primes = nt.factor(x).primes()
            mid += any(1000 < p < 4096 for p in primes)
            big += sum(p > 4096 for p in primes) >= 2
    assert mid >= 100 and big >= 100


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
    """A 16-byte segment and row chunk send the prime sieve, the chunked
    clears and the Sprime count through many segments."""
    monkeypatch.setattr(nt, "_SEGMENT", 16)
    monkeypatch.setattr(nt, "_ROW_CHUNK", 16)
    for limit in (1, 2, 15, 16, 17, 255, 256, 257, 1000):
        primes = [p for p in range(limit + 1) if nt.is_prime(p)]
        assert list(nt._primes_upto(limit)) == primes
        assert list(nt._primes_upto(limit, 3, 4)) == [p for p in primes if p % 4 == 3]
        for rset in DENSITY_SETS:
            count = sum(map(membership(rset), range(1, limit + 1)))
            assert nt.density(rset, limit) * limit == count, (rset, limit)


def density_edge_limits(seed=29):
    """The limits where the fast sieves change course: limit + 1 = k^2 - 1,
    k^2, k^2 + 1 for k <= 300, where isqrt(limit + 1) steps; limit + 1 =
    3 * 2^a +- 1, next to a 2-adic progression's first member; limit = p and
    2p - 2 .. 2p + 2 for primes p = 5 mod 8, where p crosses limit and
    limit / 2; 10^5 and 10^6; and 40 seeded limits below 2 * 10^6."""
    rng = random.Random(seed)
    out = {k * k + d - 1 for k in range(1, 301) for d in (-1, 0, 1)}
    out |= {3 * 2**a + d - 1 for a in range(20) for d in (-1, 1)}
    primes = nt.primes_in_class(40, 5, 8) + tuple(
        rng.sample(list(nt._primes_upto(10**5, 5, 8)), 10)
    )
    out |= {x for p in primes for x in (p, 2 * p - 2, 2 * p - 1, 2 * p, 2 * p + 1, 2 * p + 2)}
    out |= {10**5, 10**6} | {rng.randrange(1, 2 * 10**6) for _ in range(40)}
    return sorted(x for x in out if x >= 1)


@pytest.mark.parametrize("rset", DENSITY_SETS[:6], ids=lambda rset: rset.name().replace(":", ""))
def test_density_matches_slow_sieves(rset):
    """density against the slow sieves it replaced (oracles.density_members),
    at every limit of density_edge_limits()."""
    limits = density_edge_limits()
    members = oracles.density_members(rset, limits[-1])
    for limit in limits:
        assert nt.density(rset, limit) * limit == members.count(1, 0, limit + 1), limit


def test_sprime_sieves_primes_to_isqrt(monkeypatch):
    """_count_sprime(limit) asks _primes_upto only for the primes up to
    isqrt(limit + 1), never up to limit + 1."""
    bounds = []
    primes_upto = nt._primes_upto
    monkeypatch.setattr(
        nt, "_primes_upto", lambda n, *args: bounds.append(n) or primes_upto(n, *args)
    )
    for limit in (1, 2, 3, 7, 8, 9, 99, 10**5, 10**6):
        bounds.clear()
        nt.density(nt.ResidueSet("Sprime"), limit)
        assert bounds and max(bounds) <= isqrt(limit + 1), (limit, bounds)


def test_sprime_count_compares_rows_in_chunks():
    """The row comparison adds only small integers to the sieve's arrays:
    about 1.3 bytes per n at the peak, the limit + 2 bytes of the rows and
    the zero source of the clear of 3's multiples, where sieving every prime
    to limit + 1 took 3 and comparing whole rows 4.2."""
    limit = 10**6
    tracemalloc.start()
    try:
        nt._count_sprime(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * limit


def test_s_density_clears_from_one_segment(monkeypatch):
    """Beyond its limit + 1 flags, S's sieve holds a few buffers of at most
    _SEGMENT bytes (the prime sieve's segment, one clear's zero source) and
    the primes up to isqrt(limit): 7 KB with a 2 KiB segment at 2 * 10^5,
    where one unchunked clear of a class mod 5 would take 40 KB."""
    limit = 2 * 10**5
    monkeypatch.setattr(nt, "_SEGMENT", 1 << 11)
    tracemalloc.start()
    try:
        nt.density(nt.ResidueSet("S"), limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit + 8 * nt._SEGMENT


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

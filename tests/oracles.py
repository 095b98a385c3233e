"""Reference implementations that several test files check the library
against, and the fixtures they share.  The library never calls them, so they
skip the input checks and caps of a public function.  Import as
``import oracles``; pytest does not collect this file."""

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from obstruct import lattice as la
from obstruct import manifolds as mf
from obstruct import numtheory as nt

# the Goeritz form of L35's white checkerboard graph, as in bench/data/gd.txt
GD = la.GramMatrix.from_rows(
    [
        [-4, 2, 1, 0, 0, 0],
        [2, -5, 1, 0, 1, 1],
        [1, 1, -5, 2, 0, 1],
        [0, 0, 2, -3, 1, 0],
        [0, 1, 0, 1, -3, 0],
        [0, 1, 1, 0, 0, -2],
    ]
)

SIGMA_226 = la.Changemaker((1, 2, 2, 4, 4, 8, 11))

# the printed basis of SIGMA_226's complement, an embedding of GD
BASIS_226 = (
    (1, 0, 0, 0, -1, -1, 1),
    (-2, 0, 1, 0, 0, 0, 0),
    (1, 0, 1, 1, 1, 0, -1),
    (0, 0, 0, -1, -1, 1, 0),
    (0, -1, -1, 1, 0, 0, 0),
    (0, 1, -1, 0, 0, 0, 0),
)


def brute_force_changemakers(length, norm):
    """All nondecreasing nonnegative tuples of the given norm that satisfy
    the changemaker inequality, in lex order; independent of the library
    enumeration."""
    out = []
    top = isqrt(norm)

    def rec(prefix, rem):
        if len(prefix) == length:
            if rem == 0 and la.is_changemaker(prefix):
                out.append(tuple(prefix))
            return
        lo = prefix[-1] if prefix else 0
        for v in range(lo, top + 1):
            if v * v > rem:
                break
            rec(prefix + [v], rem - v * v)

    rec([], norm)
    return out


class SmallSFS(NamedTuple):
    """A Seifert fibered space over S^2 with three singular fibers."""

    base_orders: tuple[int, int, int]
    h1: int


def torus_knot_surgery(p, q, r):
    """Moser's classification of r-surgery on the nontrivial torus knot
    T(p, q), by the distance Delta of r from the fiber slope pq: Delta = 0
    gives L(p,q) # L(q,p) as indexed; Delta = 1 gives L(mpq+1, mq^2) for
    r = pq + 1/m; Delta >= 2 gives a Seifert space over S^2(|p|, |q|, Delta)
    with |H_1| the numerator of r."""
    r = Fraction(r)
    num, den = r.numerator, r.denominator
    delta = abs(p * q * den - num)
    if delta == 0:
        return mf.ConnectedSum((mf.Lens(p, q), mf.Lens(q, p)))
    if delta == 1:
        m = den if num - p * q * den == 1 else -den
        return mf.Lens(m * p * q + 1, m * q * q)
    return SmallSFS((abs(p), abs(q), delta), abs(num))


def is_prime(n):
    """Miller-Rabin with all of the first 12 prime bases for every n, which
    proves n < 318,665,857,834,031,151,167,461; the oracle for
    nt.is_prime, which runs only as many bases as the size of n needs."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_factorization(f):
    """Assert the invariants of a Factorization, which factor() guarantees
    and the constructor does not check: ascending primes, each proved by
    the is_prime oracle, with exponents e >= 1, multiplying to the value."""
    product, prev = 1, 1
    for p, e in f.factors:
        assert p > prev and e >= 1, f"{f}: primes not ascending, or e < 1"
        assert is_prime(p), f"{f}: {p} is not prime"
        product *= p**e
        prev = p
    assert product == f.value, f"{f}: the factors multiply to {product}"


def square_root_mod_by_factoring(a, n):
    """The witness of nt.square_root_mod, or None, the slow way: factor n
    completely, root a modulo each prime power and join the roots by the
    CRT, with no Jacobi exit and no early stop; the oracle for
    nt._square_roots_mod."""
    a %= n
    x, mod = 0, 1
    for p, e in nt.factor(n).factors:
        pe = p**e
        r = nt._sqrt_mod_prime_power(a, p, e)
        if r is None:
            return None
        x = x + mod * ((r - x) * pow(mod, -1, pe) % pe)
        mod *= pe
    x %= n
    return min(x, (n - x) % n)


def chi_8m(a, m):
    """(2m / p) for the least prime p = a mod 8m, where m is odd and a is a
    unit mod 8m; by quadratic reciprocity this is a character of a."""
    p = a % (8 * m)
    while not nt.is_prime(p):
        p += 8 * m
    return 1 if pow(2 * m % p, (p - 1) // 2, p) == 1 else -1  # Euler's criterion

"""Reference implementations that several test files check the library
against.  The library never calls them, so they skip the input checks and
caps of a public function.  Import as ``import oracles``; pytest does not
collect this file."""

from fractions import Fraction
from typing import NamedTuple

from obstruct import manifolds as mf
from obstruct import numtheory as nt


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


def chi_8m(a, m):
    """(2m / p) for the least prime p = a mod 8m, where m is odd and a is a
    unit mod 8m; by quadratic reciprocity this is a character of a."""
    p = a % (8 * m)
    while not nt.is_prime(p):
        p += 8 * m
    return 1 if pow(2 * m % p, (p - 1) // 2, p) == 1 else -1  # Euler's criterion

"""Exact integer number theory for the surgery obstructions.

Everything here is computed with exact integer (or ``Fraction``) arithmetic:
deterministic factorization, Legendre symbols and square roots modulo n, and
membership plus density computations for two density-zero sets of integers:

* ``S``  -- n such that every odd prime divisor of n^2 + 1 is 1 mod 8;
* ``Sprime`` -- n such that no prime divisor of n - 1 is 3 mod 4, or no
  prime divisor of n + 1 is 3 mod 4 (vacuous divisor sets qualify).

``Sk(k)`` and ``Tk(k)`` are the periodic supersets cut out by the first k
primes congruent to 5 mod 8 (n^2 != -1 mod p_i) and to 3 mod 4 (p_i does not
divide n) respectively; their exact densities are the products returned by
:func:`product_bound`.

:func:`density` does not test each n: it sieves one bytearray over 1..limit,
striking out the arithmetic progressions of non-members, so it needs about
limit bytes and refuses limits above ``MAX_DENSITY_LIMIT`` (10^8) with
:class:`ResourceCapExceeded` before allocating anything.  ``in_S`` and
``in_Sprime`` decide a single n.

Inputs are restricted to signed 64-bit range.  All functions are pure;
``factor`` is memoized, and its results are immutable, so concurrent use is
safe.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice
from math import gcd, isqrt

from ._record import Record

MAX_INPUT = 2**63 - 1

# Trial division handles all factors up to this bound; anything larger goes
# through Miller-Rabin / Pollard rho.
_TRIAL_LIMIT = 1000

# density() sieves an array of about limit bytes, so its limit is capped.
MAX_DENSITY_LIMIT = 10**8

# Sk(k) and Tk(k) take their first k primes from a sieve whose bound doubles
# from _FIRST_PRIME_LIMIT until it holds k of them; the largest k allowed
# takes a few milliseconds, but its period and product bound are huge.
MAX_RESIDUE_K = 10**4
_FIRST_PRIME_LIMIT = 64

# Segment length of the prime sieve and of the Sprime count, in bytes.
_SEGMENT = 1 << 20


class ResourceCapExceeded(RuntimeError):
    """An input would take a computation past one of its fixed caps."""


def _check_width(n: int) -> None:
    if abs(n) > MAX_INPUT:
        raise OverflowError(f"argument {n} exceeds the supported 64-bit range")


def _clear(flags: bytearray, start: int, step: int) -> None:
    """Zero flags[start::step] in place, from at most _SEGMENT zero bytes at
    a time, so a small step does not allocate a large zero source."""
    end = len(flags)
    while end - start > step * _SEGMENT:
        flags[start : start + step * _SEGMENT : step] = bytes(_SEGMENT)
        start += step * _SEGMENT
    if start < end:
        flags[start::step] = bytes((end - 1 - start) // step + 1)


def _primes_upto(limit: int, residue: int = 0, modulus: int = 1) -> Iterator[int]:
    """The primes p <= limit with p = residue mod modulus, in increasing order.

    A segmented sieve of Eratosthenes.  The first segment, at least
    sqrt(limit) + 1 long, is sieved in place and holds every prime that
    sieves the later ones, so memory stays O(sqrt(limit) + _SEGMENT).
    """
    size = max(_SEGMENT, isqrt(limit) + 1)
    base: list[int] = []
    for lo in range(0, limit + 1, size):
        flags = bytearray([1]) * (min(lo + size, limit + 1) - lo)
        hi = lo + len(flags)
        if lo == 0:
            flags[:2] = bytes(len(flags[:2]))
            for p in range(2, isqrt(hi - 1) + 1):
                if flags[p]:
                    _clear(flags, p * p, p)
            base = list(compress(range(isqrt(limit) + 1), flags))
        else:
            for p in base:
                if p * p >= hi:
                    break
                _clear(flags, -lo % p, p)  # p < lo, so these are composite
        first = (residue - lo) % modulus
        yield from compress(range(lo + first, hi, modulus), flags[first::modulus])


_TRIAL_PRIMES = tuple(_primes_upto(_TRIAL_LIMIT))


# Deterministic Miller-Rabin witnesses, sufficient for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 64-bit integers."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant).

    Deterministic: the polynomial offsets c = 1, 2, ... are tried in order.
    """
    for c in range(1, 10**6):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise RuntimeError(f"pollard rho failed on {n}")  # pragma: no cover


class Factorization(Record):
    """A complete prime factorization: value == prod(p**e)."""

    __slots__ = ("value", "factors")

    def __init__(self, value: int, factors: tuple[tuple[int, int], ...]) -> None:
        prod = 1
        prev = 1
        for p, e in factors:
            if p <= prev or e < 1:
                raise ValueError("factors must be ascending primes with e >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prod *= p**e
            prev = p
        if prod != value:
            raise ValueError("factor list does not multiply to the value")
        self._set(value, factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@lru_cache(maxsize=65536)
def factor(n: int) -> Factorization:
    """Complete prime factorization of n >= 1.

    Trial division by primes below 1000, then deterministic Miller-Rabin and
    Pollard rho on whatever is left.  Results are immutable and memoized.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    _check_width(n)
    found: dict[int, int] = {}
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    if 1 < m <= _TRIAL_LIMIT * _TRIAL_LIMIT:
        # no factor <= _TRIAL_LIMIT remains, so m is prime
        found[m] = found.get(m, 0) + 1
        m = 1
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(n, tuple(sorted(found.items())))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p: 0, +1 or -1."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks with the smallest quadratic non-residue as generator.
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _sqrt_mod_odd_prime_power(a: int, p: int, e: int) -> int | None:
    """A square root of a modulo p**e (p odd), or None."""
    pe = p**e
    a %= pe
    if a == 0:
        return pow(p, (e + 1) // 2, pe) % pe
    t = 0
    while a % p == 0:
        a //= p
        t += 1
    if t % 2 == 1:
        return None
    r = _sqrt_mod_prime(a % p, p)
    if r is None:
        return None
    # Hensel: lift r from mod p to mod p^(e-t)
    pk = p
    while pk < p ** (e - t):
        pk2 = pk * pk if pk * pk < p ** (e - t) else p ** (e - t)
        inv = pow(2 * r, -1, pk2)
        r = (r - (r * r - a) * inv) % pk2
        pk = pk2
    return r * p ** (t // 2) % pe


def _sqrt_mod_two_power(a: int, k: int) -> int | None:
    """A square root of a modulo 2**k, or None."""
    mod = 1 << k
    a %= mod
    if a == 0:
        return (1 << ((k + 1) // 2)) % mod
    t = 0
    while a % 2 == 0:
        a //= 2
        t += 1
    if t % 2 == 1:
        return None
    j = k - t  # a is an odd square mod 2^j iff the usual 2-adic criteria hold
    if j == 1:
        r = 1
    elif j == 2:
        if a % 4 != 1:
            return None
        r = 1
    else:
        if a % 8 != 1:
            return None
        r = 1
        for i in range(3, j):
            if (r * r - a) % (1 << (i + 1)) != 0:
                r += 1 << (i - 1)
    return r * (1 << (t // 2)) % mod


def square_root_mod(a: int, n: int) -> int | None:
    """A witness x in [0, n) with x^2 = a (mod n), or None if a is not a
    square modulo n.

    Decides via the factorization of n, Legendre symbols lifted through odd
    prime powers, the standard 2-adic criteria, and a CRT combination; the
    witness is deterministic.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    _check_width(n)
    _check_width(a)
    a %= n
    if n == 1:
        return 0
    x, mod = 0, 1
    for p, e in factor(n).factors:
        pe = p**e
        r = _sqrt_mod_two_power(a, e) if p == 2 else _sqrt_mod_odd_prime_power(a, p, e)
        if r is None:
            return None
        # CRT: combine x mod `mod` with r mod pe
        inv = pow(mod, -1, pe)
        x = x + mod * ((r - x) * inv % pe)
        mod *= pe
    x %= n
    return min(x, (n - x) % n)


def _odd_divisors_one_mod(d: int, modulus: int) -> bool:
    """True iff every odd prime divisor of d >= 1 is 1 mod modulus.

    Early-exits on the first bad prime.  A product of integers that are
    1 mod modulus is itself 1 mod modulus, so a cofactor in any other class
    must contain a bad prime, and we can stop there without splitting it.
    """
    while d % 2 == 0:
        d //= 2
    for p in _TRIAL_PRIMES:  # 2 no longer divides d
        if p * p > d:
            break
        if d % p == 0:
            if p % modulus != 1:
                return False
            while d % p == 0:
                d //= p
    stack = [d] if d > 1 else []
    while stack:
        c = stack.pop()
        if c % modulus != 1:
            return False
        if c <= _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(c):
            continue  # no factor below _TRIAL_LIMIT remains, so c is prime
        f = _pollard_rho(c)
        stack.append(f)
        stack.append(c // f)
    return True


def in_S(n: int) -> bool:
    """True iff every odd prime divisor of n^2 + 1 is congruent to 1 mod 8.

    Vacuously true when n^2 + 1 has no odd prime divisor (n = 1).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > isqrt(MAX_INPUT - 1):
        raise OverflowError(f"n^2 + 1 exceeds the supported range for n = {n}")
    return _odd_divisors_one_mod(n * n + 1, 8)


def in_Sprime(n: int) -> bool:
    """True iff no prime divisor of n - 1 is 3 mod 4, or none of n + 1 is.

    Empty divisor sets (n - 1 = 1) count as satisfying the condition.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    _check_width(n + 1)
    return _odd_divisors_one_mod(n - 1, 4) or _odd_divisors_one_mod(n + 1, 4)


def primes_in_class(k: int, residue: int, modulus: int) -> tuple[int, ...]:
    """The first k primes congruent to residue mod modulus."""
    limit = _FIRST_PRIME_LIMIT
    while True:
        primes = tuple(islice(_primes_upto(limit, residue, modulus), k))
        if len(primes) == k:
            return primes
        limit *= 2


class ResidueSet(Record):
    """One of the residue-condition sets S, Sprime, Sk(k) or Tk(k).

    ``Sk(k)`` keeps n with n^2 != -1 mod p for each of the first k primes
    p = 5 mod 8; ``Tk(k)`` keeps n not divisible by any of the first k primes
    p = 3 mod 4.  Both are periodic, with period the product of their primes.
    k above ``MAX_RESIDUE_K`` raises :class:`ResourceCapExceeded`.
    """

    __slots__ = ("kind", "k")

    def __init__(self, kind: str, k: int | None = None) -> None:
        if kind in ("S", "Sprime"):
            if k is not None:
                raise ValueError(f"{kind} takes no parameter")
        elif kind in ("Sk", "Tk"):
            if k is None or k < 0:
                raise ValueError(f"{kind} needs k >= 0")
            if k > MAX_RESIDUE_K:
                raise ResourceCapExceeded(
                    f"{kind} k = {k} exceeds MAX_RESIDUE_K = {MAX_RESIDUE_K}"
                )
        else:
            raise ValueError(f"unknown residue set kind {kind!r}")
        self._set(kind, k)

    @staticmethod
    def parse(token: str) -> "ResidueSet":
        """Parse a CLI token: ``S``, ``Sprime``, ``Sk:k`` or ``Tk:k``."""
        if token in ("S", "Sprime"):
            return ResidueSet(token)
        for kind in ("Sk", "Tk"):
            if token.startswith(kind + ":"):
                return ResidueSet(kind, int(token[len(kind) + 1 :]))
        raise ValueError(f"cannot parse residue set {token!r}")

    def name(self) -> str:
        if self.kind in ("S", "Sprime"):
            return self.kind
        return f"{self.kind}:{self.k}"

    def primes(self) -> tuple[int, ...]:
        if self.kind == "Sk":
            return primes_in_class(self.k, 5, 8)
        if self.kind == "Tk":
            return primes_in_class(self.k, 3, 4)
        raise ValueError(f"{self.kind} has no defining prime list")

    def period(self) -> int:
        """Period of the membership pattern (Sk/Tk only)."""
        prod = 1
        for p in self.primes():
            prod *= p
        return prod


def density(rset: ResidueSet, limit: int) -> Fraction:
    """Exact density |{1..limit} intersect rset| / limit, by one sieve.

    ``keep[n]`` starts at 1 for every n in 1..limit; each kind zeroes the
    residue classes of its non-members:

    * Tk: the multiples of each of its primes.
    * Sk: n = +-r mod p for each of its primes p, where r = 2^((p-1)/4) is a
      square root of -1 mod p (2 is a non-residue for p = 5 mod 8).
    * S: n = 2, 3, 5, 6 mod 8, and n = +-r mod p for every prime p <= limit
      with p = 5 mod 8.  n^2 + 1 <= limit^2 + 1 has at most one prime factor
      above limit, so a surviving n is in S exactly when the odd part of
      n^2 + 1 is 1 mod 8, which holds exactly when n = 0, 1, 4, 7 mod 8.
    * Sprime: counted by :func:`_count_sprime`.
    """
    if limit < 1:
        raise ValueError(f"need limit >= 1, got {limit}")
    if limit > MAX_DENSITY_LIMIT:
        raise ResourceCapExceeded(
            f"density limit {limit} exceeds MAX_DENSITY_LIMIT = {MAX_DENSITY_LIMIT}"
        )
    if rset.kind == "Sprime":
        return Fraction(_count_sprime(limit), limit)
    keep = bytearray([1]) * (limit + 1)
    keep[0] = 0
    if rset.kind == "Tk":
        for p in rset.primes():
            _clear(keep, p, p)
        return Fraction(keep.count(1), limit)
    if rset.kind == "S":
        for c in (2, 3, 5, 6):
            _clear(keep, c, 8)
        primes: Iterator[int] | tuple[int, ...] = _primes_upto(limit, 5, 8)
    else:
        primes = rset.primes()
    for p in primes:
        r = pow(2, (p - 1) // 4, p)
        _clear(keep, r, p)
        _clear(keep, p - r, p)
    return Fraction(keep.count(1), limit)


def _count_sprime(limit: int) -> int:
    """|{2..limit} intersect Sprime|.

    ``good[m]`` is 1 when no prime 3 mod 4 divides m (0 <= m <= limit + 1);
    n counts when good[n - 1] or good[n + 1].  The two rows are compared a
    segment at a time, as the bits of two integers.
    """
    good = bytearray([1]) * (limit + 2)
    for p in _primes_upto(limit + 1, 3, 4):
        _clear(good, p, p)
    count = 0
    with memoryview(good) as view:
        for lo in range(1, limit, _SEGMENT):  # lo = n - 1
            hi = min(lo + _SEGMENT, limit)
            below = int.from_bytes(view[lo:hi], "little")
            above = int.from_bytes(view[lo + 2 : hi + 2], "little")
            count += (below | above).bit_count()
    return count


def product_bound(kind: str, k: int) -> Fraction:
    """The exact density of Sk(k) or Tk(k) as a product over its primes.

    Sk: prod (1 - 2/p) over the first k primes p = 5 mod 8 (-1 has exactly
    two square roots mod each).  Tk: prod (1 - 1/p) over the first k primes
    p = 3 mod 4.
    """
    if kind not in ("Sk", "Tk"):
        raise ValueError(f"product bound is defined for Sk/Tk, not {kind!r}")
    excluded = 2 if kind == "Sk" else 1
    out = Fraction(1)
    for p in ResidueSet(kind, k).primes():
        out *= Fraction(p - excluded, p)
    return out

"""Exact integer number theory for the surgery obstructions.

Everything here is computed with exact integer (or ``Fraction``) arithmetic:
deterministic factorization, square roots modulo n decided by Euler's criterion
(one routine for every prime power, roots joined by the CRT) after a Jacobi
symbol test that rules most non-squares out without factoring n, and membership
plus density computations for two density-zero sets of integers.  One walk
yields each prime of n once, with its full exponent; several residues mod n
share it, and it stops once none of them can still be a square, so the rest
of n is never split.  Only units are rooted, the one case the callers pass:
the splice residue +-ab mod n = |abcd - 1| is a unit since ab * cd = 1 mod n,
and the linking form roots -m mod p only when gcd(m, p) = 1 and -c_i mod q^e
only for a cofactor c_i prime to q.  The two sets are:

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
:class:`ResourceCapExceeded` before allocating anything.  An m < (B + 1)^2
has at most one prime factor above B, so S sieves the primes to limit and
Sprime those to isqrt(limit + 1).  ``in_S`` and ``in_Sprime`` decide one n.

Inputs are restricted to signed 64-bit range.  All functions are pure;
``factor`` keeps its last four results, a cache that stays only because the
benchmark reads its ``cache_info()``, and its results are immutable, so
concurrent use is safe.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice
from math import gcd, isqrt, prod

from ._record import Record

MAX_INPUT = 2**63 - 1

# One gcd finds every prime factor below this bound; a cofactor below its
# square is then prime, and a larger one goes to Miller-Rabin / Pollard rho.
_TRIAL_LIMIT = 4096
_TRIAL_SQUARE = _TRIAL_LIMIT * _TRIAL_LIMIT

# density() sieves an array of about limit bytes, so its limit is capped.
MAX_DENSITY_LIMIT = 10**8

# Sk(k) and Tk(k) take their first k primes from a sieve whose bound doubles
# from _FIRST_PRIME_LIMIT until it holds k of them; the largest k allowed
# takes a few milliseconds, but its period and product bound are huge.
MAX_RESIDUE_K = 10**4
_FIRST_PRIME_LIMIT = 64

# Segment length of the prime sieve and of the chunked clears, in bytes.
_SEGMENT = 1 << 20

# The Sprime count compares its two rows this many bytes at a time.  Each
# comparison builds three integers of about this size.  Below glibc's 64 KiB
# trim check they come back from the allocator's free lists; integers the
# size of a whole row grow and trim the heap on every call in some
# processes, depending on its layout, at 20 to 95 fresh pages a call.
_ROW_CHUNK = 1 << 14


class ResourceCapExceeded(RuntimeError):
    """An input would take a computation past one of its fixed caps."""


def _check_width(n: int) -> None:
    if abs(n) > MAX_INPUT:
        raise OverflowError(f"argument {n} exceeds the supported 64-bit range")


def _clear(flags: bytearray, start: int, step: int) -> None:
    """Zero flags[start::step] in place, from at most _SEGMENT zero bytes at
    a time, so a small step does not allocate a large zero source.  The
    source is a bytearray, which slice assignment reads without a copy."""
    end = len(flags)
    while end - start > step * _SEGMENT:
        flags[start : start + step * _SEGMENT : step] = bytearray(_SEGMENT)
        start += step * _SEGMENT
    if start < end:
        flags[start::step] = bytearray((end - 1 - start) // step + 1)


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
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)


# Miller-Rabin bases.  psi_k is the least odd composite that is a strong
# probable prime to each of the first k, so those k prove every n < psi_k
# (Jaeschke 1993; Jiang and Deng 2014 for psi_9 to psi_12; OEIS A014233).
# All 12 prove n < psi_12 = 318,665,857,834,031,151,167,461 (about 3.2e23).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (psi_k, k): below psi_k the first k bases suffice.  psi_8 = psi_7 and
# psi_10 = psi_11 = psi_9, so 8, 10 and 11 bases never help.
_MR_BOUNDS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
              (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9))


def is_prime(n: int) -> bool:
    """Whether n is prime; a proof for n < psi_12 (about 3.2e23), so for
    every 64-bit n.  A larger n gets all 12 bases: a strong probable-prime
    test, which psi_12 itself passes."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    k = next((k for bound, k in _MR_BOUNDS if n < bound), len(_MR_BASES))
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:k]:
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
                    q = q * (x - y) % n  # % is non-negative
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)  # gcd ignores the sign
        if g != n:
            return g
    raise RuntimeError(f"pollard rho failed on {n}")  # pragma: no cover


class Factorization(Record):
    """A complete prime factorization: value == prod(p**e) over ascending
    primes p with e >= 1.

    :func:`factor` builds it and has proved each prime, so the constructor
    only stores the fields.
    """

    __slots__ = ("value", "factors")

    def __init__(self, value: int, factors: tuple[tuple[int, int], ...]) -> None:
        self._set(value, factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _split(n: int) -> Iterator[tuple[int, int]]:
    """Each prime p of n >= 1 once, as (p, e) with e >= 1 its full exponent:
    the primes below _TRIAL_LIMIT ascending, then the larger ones.

    g = gcd(n, _TRIAL_PRODUCT) is the product of n's distinct primes below
    _TRIAL_LIMIT; once p^2 > g and g has no prime below p, g is 1 or a
    prime.  One stack loop pops the primes taken from g ascending, then g,
    then n, each cut to its gcd c with what is left of n; each prime is
    divided out of n as often as it goes, so none is proved twice and no c
    popped after g has a prime below _TRIAL_LIMIT.  So a c < _TRIAL_SQUARE
    is prime, as a composite has a prime factor at most its square root; a
    larger c is proved by :func:`is_prime` or split by Pollard rho.
    """
    g = gcd(n, _TRIAL_PRODUCT)
    small = []
    for p in _TRIAL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            small.append(p)
    stack = [n, g, *reversed(small)]
    while stack:
        c = gcd(stack.pop(), n)
        if c == 1:
            continue
        if c < _TRIAL_SQUARE or is_prime(c):
            e = 0
            while n % c == 0:
                n //= c
                e += 1
            yield c, e
        else:
            d = _pollard_rho(c)
            stack += (d, c // d)


@lru_cache(maxsize=4)
def factor(n: int) -> Factorization:
    """Complete prime factorization of n >= 1: the primes of :func:`_split`,
    sorted.  One gcd finds the primes below 4096, then Miller-Rabin, with as
    many bases as each larger entry's size needs, and Pollard rho.  Results
    are immutable.  No library path calls it; the cache of the last four
    stays only because the benchmark reads its ``cache_info()``.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    _check_width(n)
    return Factorization(n, tuple(sorted(_split(n))))


def _jacobi(a: int, m: int) -> int:
    """The Jacobi symbol (a / m) for odd m >= 1: the product of the Legendre
    symbols (a / p) over the prime factors p of m, with multiplicity.

    Computed without factoring m: (2 / m) = -1 exactly when m = 3, 5 mod 8,
    and for odd coprime a, m reciprocity gives (a / m) = -(m / a) exactly
    when a = m = 3 mod 4.  The symbol is 0 when gcd(a, m) > 1.
    """
    a %= m
    t = 1
    while a:
        v = (a & -a).bit_length() - 1
        a >>= v
        if v % 2 and m % 8 in (3, 5):
            t = -t
        if a % 4 == 3 and m % 4 == 3:
            t = -t
        a, m = m % a, a
    return t if m == 1 else 0


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of the unit a modulo the odd prime p, or None
    (Tonelli-Shanks).

    With p - 1 = q 2^s, q odd, and t = a^q, Euler's criterion reads
    t^(2^(s-1)) = 1 exactly when a is a square.  The generator is the smallest
    non-residue z, which fixes the witness.
    """
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    if pow(t, 1 << (s - 1), p) != 1:
        return None
    if t != 1:
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c = s, pow(z, q, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    return r


def _sqrt_mod_prime_power(a: int, p: int, e: int) -> int | None:
    """A square root of a, a unit as every caller's is (see the module
    docstring), modulo the prime power p**e, or None.  For odd p, a root mod p
    lifts by Hensel's lemma straight to p^e.  For p = 2, a is a square mod 2^e
    iff a = 1 mod 2^min(e, 3), and its root is then fixed one bit at a time."""
    if p == 2:
        if a % 2 ** min(e, 3) != 1:
            return None
        r = 1
        for i in range(3, e):
            if (r * r - a) % (1 << (i + 1)) != 0:
                r += 1 << (i - 1)
        return r
    r = _sqrt_mod_prime(a, p)
    if r is None:
        return None
    pe, q = p**e, p  # Hensel: lift r from mod q = p to mod pe
    while q < pe:
        q = min(q * q, pe)
        r = (r - (r * r - a) * pow(2 * r, -1, q)) % q
    return r


def _square_roots_mod(residues: Sequence[int], n: int) -> list[int | None]:
    """For each residue a, a witness x in [0, n) with x^2 = a (mod n), the
    smaller of x and n - x, or None if a is not a square modulo n.  Needs
    n >= 1 and every a a unit mod n, as every caller's residue is (see the
    module docstring); an n outside the 64-bit range raises OverflowError.

    First the Jacobi symbol (a / m) over the odd part m of n: -1 proves that
    a is not a square.  For if x^2 = a mod n, then x^2 = a mod m, and the
    unit a is a nonzero square modulo every prime p of m, so each Legendre
    factor (a / p) is +1.  The residues left share one walk of
    :func:`_split`, which yields each prime p of n once with its full
    exponent e >= 1: each live residue is rooted mod p^e
    (:func:`_sqrt_mod_prime_power`) and joined to its root so far by the
    CRT, and a residue without a root mod p^e is not a square.  The loop
    breaks once no residue is live, which drops the walk, so the rest of n
    is not split.  The CRT root mod n does not depend on the order of the
    primes.
    """
    _check_width(n)
    odd = n >> ((n & -n).bit_length() - 1)
    roots: list[int | None] = [None if _jacobi(a, odd) == -1 else 0 for a in residues]
    live = [i for i, x in enumerate(roots) if x is not None]
    mod = 1
    for p, e in _split(n) if live else ():
        pe = p**e
        inv = pow(mod, -1, pe)
        for i in live:
            r, x = _sqrt_mod_prime_power(residues[i], p, e), roots[i]
            roots[i] = None if r is None else x + mod * ((r - x) * inv % pe)
        live = [i for i in live if roots[i] is not None]
        if not live:
            break
        mod *= pe
    return [x if x is None else min(x, n - x) for x in roots]


def _odd_divisors_one_mod(d: int, modulus: int) -> bool:
    """True iff every odd prime divisor of d >= 1 is 1 mod modulus.

    Odd integers 1 mod modulus are closed under products and exact quotients,
    so a d whose odd part is in another class is rejected without a walk;
    else the walk of :func:`_split` stops at the first bad prime.  When the
    primes below _TRIAL_LIMIT are good, so is the cofactor they leave.
    """
    odd = d >> ((d & -d).bit_length() - 1)
    return odd % modulus == 1 and all(p == 2 or p % modulus == 1 for p, _ in _split(d))


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
        return prod(self.primes())


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

    A class c mod p with limit < 2p <= 2 limit holds only c and c + p in
    1..limit, zeroed by index.  Any other is zeroed in place from a fresh
    zero bytearray if it has at most _SEGMENT members, else by :func:`_clear`.
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
        if limit < 2 * p <= 2 * limit:
            keep[r] = keep[p - r] = 0
            if r + p <= limit:
                keep[r + p] = 0
            if 2 * p - r <= limit:
                keep[2 * p - r] = 0
        elif limit < p * _SEGMENT:
            keep[r::p] = bytearray((limit - r) // p + 1)
            keep[p - r :: p] = bytearray((limit - p + r) // p + 1)
        else:
            _clear(keep, r, p)
            _clear(keep, p - r, p)
    return Fraction(keep.count(1), limit)


def _count_sprime(limit: int) -> int:
    """|{2..limit} intersect Sprime|.

    ``good[m]`` is 1 when no prime 3 mod 4 divides m (0 < m <= limit + 1);
    n counts when good[n - 1] or good[n + 1].  It sieves the primes 3 mod 4
    up to B = isqrt(limit + 1): a survivor m < (B + 1)^2 has at most one
    prime above B and its other odd primes are 1 mod 4, so m is good iff its
    odd part is 1 mod 4.  Then it clears m = 3 * 2^a mod 2^(a + 2), the m
    whose odd part is 3 mod 4 and so holds a prime 3 mod 4.  The two rows
    are compared ``_ROW_CHUNK`` bytes at a time, as the bits of two integers.
    """
    good = bytearray([1]) * (limit + 2)
    for q in _primes_upto(isqrt(limit + 1), 3, 4):
        _clear(good, q, q)
    for a in range(((limit + 1) // 3).bit_length()):
        _clear(good, 3 << a, 4 << a)
    count = 0
    with memoryview(good) as view:
        for lo in range(1, limit, _ROW_CHUNK):  # lo = n - 1
            hi = min(lo + _ROW_CHUNK, limit)
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

"""Changemaker vectors and lattice embeddings into their orthogonal complements.

A changemaker is a nondecreasing vector of nonnegative integers
``(s_0, ..., s_n)`` with ``s_i <= s_0 + ... + s_(i-1) + 1`` for every i.
Greene's obstruction asks, for a negative-definite Gram matrix G of rank n
and a positive integer p, whether G embeds in the orthogonal complement of
some changemaker of norm p inside the standard negative-definite lattice of
rank n + 1.  The embedding search here is complete backtracking: an empty
answer is a proof that no embedding exists.

Sign convention: the lattice pairing is <x, y> = -sum(x_i * y_i).  We store
the positive-definite negation internally and only negate at the API
boundary, which keeps the search free of sign errors.

A GramMatrix is negative definite by construction: its constructor runs a
fraction-free Bareiss elimination of -G without pivoting and needs every
pivot, a leading principal minor of -G, to be positive; no code checks
again.  The form keeps that elimination's rows, so it is the only one: the
determinant, the linking form and the vector counts all read it.  No
floating point is used.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import accumulate
from math import comb, gcd, isqrt, lcm
from operator import eq, le
from typing import Callable, Iterable, Iterator

from ._record import Record
from .numtheory import (
    MAX_INPUT, ResourceCapExceeded, _split, _sqrt_mod_prime_power, _square_roots_mod,
)

# _changemakers nests one generator frame per entry but the last two, so
# length - 2 frames; Python's default recursion limit is 1000
MAX_CHANGEMAKER_LENGTH = 512


class GramMatrix(Record):
    """A symmetric, negative definite matrix of ints, given as a sequence of
    rows of any kind and stored as a tuple of tuples: the constructor raises
    ResourceCapExceeded for a rank above ``MAX_CHANGEMAKER_LENGTH - 1``,
    before any elimination, and ValueError for any other matrix.  It keeps
    the rows of its elimination in ``_rows``, which is not a field."""

    __slots__ = ("entries", "_rows")

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        entries = tuple(map(tuple, entries))
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("Gram matrix must be square")
        if any(type(x) is not int for row in entries for x in row):
            raise ValueError("Gram matrix entries must be ints")
        for i in range(n):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        _check_length(n + 1)
        rows = _positive_elimination(entries)
        if rows is None:
            raise ValueError("Gram matrix must be negative definite")
        self._set(entries, rows)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def determinant(self) -> int:
        """det G = (-1)^n det(-G), and det(-G) is the last pivot."""
        return (-1) ** self.rank * (self._rows[-1][-1] if self._rows else 1)

    def is_negative_definite(self) -> bool:
        """True: the constructor refuses every other matrix."""
        return True


def _positive_elimination(entries: tuple[tuple[int, ...], ...]) -> list[list[int]] | None:
    """Bareiss elimination of -G, given G's rows, without pivoting, or None
    if -G is not positive definite.

    Row k of the result holds, for j >= k, the minor of -G on rows 0..k and
    columns 0..k-1, j; so entry (k, k) is the (k+1)-th leading principal
    minor, and by Sylvester's criterion -G is positive definite exactly when
    each of these pivots is positive.
    """
    a = [[-x for x in row] for row in entries]
    n = len(a)
    prev = 1
    for k in range(n):
        piv = a[k][k]
        if piv <= 0:
            return None
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * piv - a[i][k] * a[k][j]) // prev
        prev = piv
    return a


def is_changemaker(entries) -> bool:
    """True iff entries are nonnegative, nondecreasing and each entry is at
    most one more than the sum of all previous ones."""
    total = 0
    prev = 0
    for v in entries:
        if v < prev or v < 0 or v > total + 1:
            return False
        total += v
        prev = v
    return True


class Changemaker(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        if not is_changemaker(entries):
            raise ValueError(f"{entries} is not a changemaker")
        self._set(entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def norm(self) -> int:
        return sum(v * v for v in self.entries)


def changemaker_max_norm(length: int) -> int:
    """Largest possible norm of a changemaker of the given length.

    Entries are bounded by 1, 2, 4, ..., 2^(length-1), so the norm is at most
    (4^length - 1)/3, attained by that doubling vector.
    """
    return (4**length - 1) // 3


def enumerate_changemakers(length: int, norm: int) -> list[Changemaker]:
    """All changemakers of the given length with squared norm exactly `norm`,
    in lexicographic order.  Empty when norm exceeds the doubling bound;
    ResourceCapExceeded for a length above ``MAX_CHANGEMAKER_LENGTH``."""
    _check_length(length)
    if length < 1 or norm < 1:
        raise ValueError("need length >= 1 and norm >= 1")
    return [Changemaker(s) for s in _changemakers(length, norm)]


def _check_length(length: int) -> None:
    if length > MAX_CHANGEMAKER_LENGTH:
        raise ResourceCapExceeded(
            f"changemaker length {length} exceeds MAX_CHANGEMAKER_LENGTH = {MAX_CHANGEMAKER_LENGTH}"
        )


def _changemakers(
    length: int, norm: int, short: tuple[int, ...] | None = None
) -> Iterator[tuple[int, ...]]:
    """The changemakers of `enumerate_changemakers`, in the same order, as
    tuples; with `short`, only those whose complement has exactly short[0]
    vectors of norm 1 and short[1] of norm 2 (see _complement_counts).

    A nondecreasing sigma has its z = short[0] / 2 zeros as a prefix, so the
    entries before position z are 0 and the rest are positive.  Its nonzero
    entries come in contiguous blocks of equal values, so the block sum
    sum C(m, 2) only grows as entries are appended, and a prefix whose sum
    exceeds (short[1] - 4 C(z, 2)) / 2 is cut, as is one whose sum cannot
    reach it even if every later entry joins its last block.

    One loop places each entry v in turn.  With S the sum of the entries
    before v, r the norm they leave and `slots` entries after v, a
    changemaker needs v <= S + 1; every later entry is >= v, so r - v^2 >=
    slots v^2, that is v <= isqrt(r // (slots + 1)).  The k-th later entry
    is at most 2^(k-1) (S + v + 1), so their squares sum to at most
    (S + v + 1)^2 (4^slots - 1) / 3; as r - v^2 falls and S + v + 1 grows
    with v, the v for which that bound reaches r - v^2 end the range, and v
    starts at the least of them.  A v larger than the entry before it
    starts a block, which leaves the block count the same for every such v;
    so when that count cannot reach the target at one v, no larger v is
    tried.  When two entries a <= b remain after v, they complete the
    prefix to a changemaker of norm `norm` exactly when v <= a <= S + v + 1,
    b <= S + v + a + 1 and a^2 + b^2 = r - v^2; so the loop places them
    inline, with no frame, from the representations of r - v^2 as a sum of
    two squares with a <= b (memoized per call) that meet the inequalities,
    the zero rule for a (b > 0 always, as norm >= 1 and z < length) and the
    exact block count.  Length 2 enters at position -1, before zlo, so v is
    an empty entry 0 before the vector; it lands in the last slot of sig,
    which is never yielded.
    """
    if norm > changemaker_max_norm(length):
        return
    if short is None:
        zlo, zhi, plo, phi = 0, length, 0, comb(length, 2)
    else:
        z, odd = divmod(short[0], 2)
        pairs2 = short[1] - 4 * comb(z, 2)
        if odd or pairs2 < 0 or pairs2 % 2 or z >= length:
            return
        zlo = zhi = z
        plo = phi = pairs2 // 2
    # entries before position zlo are 0; entries from position zhi on are not
    if length == 1:
        if norm == 1 and zlo == 0 and plo == 0:
            yield (1,)
        return
    sig = [0] * length
    two_squares: dict[int, list[tuple[int, int]]] = {}
    # by the number of later entries: their doubling bound, their one-block pairs
    doubling = [changemaker_max_norm(s) for s in range(length + 1)]
    joined = [comb(s, 2) for s in range(length + 1)]

    def rec(
        i: int, prev: int, prefix_sum: int, rem: int, pairs: int, run: int
    ) -> Iterator[tuple[int, ...]]:
        # prev: the entry before position i (0 at the start); pairs: sum
        # C(m, 2) over the nonzero blocks so far; run: length of the nonzero
        # block that ends the prefix (0 after a zero entry)
        slots = length - i - 1  # entries after this one
        lo = max(prev, 1) if i >= zhi else prev
        hi = 0 if i < zlo else min(prefix_sum + 1, isqrt(rem // (slots + 1)))
        while lo <= hi and rem - lo * lo > (prefix_sum + lo + 1) ** 2 * doubling[slots]:
            lo += 1  # even doubling growth cannot reach the norm
        for v in range(lo, hi + 1):
            nrem = rem - v * v
            npairs, nrun = (pairs + run, run + (v > 0)) if v == prev else (pairs, 1)
            # the t-th later entry adds at most nrun + t pairs
            if npairs > phi or npairs + slots * nrun + joined[slots] < plo:
                if v > prev:
                    break  # the same for every larger v, which starts a block too
                continue
            sig[i] = v
            if slots > 2:
                yield from rec(i + 1, v, prefix_sum + v, nrem, npairs, nrun)
                continue
            reps = two_squares.get(nrem)
            if reps is None:
                reps = two_squares[nrem] = []
                # squares are 0 or 1 mod 4, so no sum of two is 3 mod 4
                for a in range(isqrt(nrem // 2) + 1 if nrem % 4 != 3 else 0):
                    b = isqrt(nrem - a * a)
                    if b * b == nrem - a * a:
                        reps.append((a, b))
            if not reps:
                continue
            ahi = 0 if i + 1 < zlo else prefix_sum + v + 1
            alo = max(v, 1) if i + 1 >= zhi else v
            for a, b in reps:
                if a > ahi:
                    break
                if a < alo or b > prefix_sum + v + a + 1:
                    continue
                apairs, arun = (npairs + nrun, nrun + (a > 0)) if a == v else (npairs, 1)
                if b == a:
                    apairs += arun
                if plo <= apairs <= phi:
                    yield (*sig[: i + 1], a, b)

    yield from rec(min(0, length - 3), 0, 0, norm, 0, 0)


class Embedding(Record):
    """An embedding of a rank-n Gram lattice into the complement of sigma
    inside the standard negative-definite lattice of rank n + 1.

    ``vectors[i]`` is the image of the i-th basis vector; all vectors satisfy
    <v_i, sigma> = 0 and <v_i, v_j> reproduces the Gram matrix, with the
    pairing <x, y> = -sum(x_k * y_k).
    """

    __slots__ = ("sigma", "vectors")

    def __init__(self, sigma: Changemaker, vectors: tuple[tuple[int, ...], ...]) -> None:
        self._set(sigma, vectors)

    def verifies(self, gram: GramMatrix) -> bool:
        """Exact check: Gram reproduction, sigma-orthogonality, full rank.

        Given the first two, the v_i and sigma (length n + 1) have full rank
        iff sigma != 0: -G = V V^T is definite, as every GramMatrix is, so the
        v_i are independent, and a nonzero sigma orthogonal to every v_i lies
        outside their span."""
        s = self.sigma.entries
        if len(s) != gram.rank + 1 or len(self.vectors) != gram.rank or any(
            len(v) != len(s) for v in self.vectors
        ):
            return False
        if any(sum(a * b for a, b in zip(v, s)) != 0 for v in self.vectors):
            return False
        rows = tuple(tuple(-sum(a * b for a, b in zip(u, v)) for v in self.vectors)
                     for u in self.vectors)
        return rows == gram.entries and any(s)


@lru_cache(maxsize=64)
def _short_counts(gram: GramMatrix) -> tuple[int, ...]:
    """Numbers of vectors of norm 1, 2 and 3 of L = (Z^n, -G), counted from
    the form's elimination once per matrix: ``embed_in_complement`` asks for
    them once per sigma."""
    return tuple(_vector_counts(gram._rows, 3)[1:])


def _linking_form_admits(gram: GramMatrix) -> bool:
    """False only if L's discriminant form proves that L = (Z^n, G) is not
    the complement of any vector of norm p = |det G| in -Z^(n+1); see
    ``changemaker_obstruction`` for the proof.  A p past numtheory's 64-bit
    range passes untested."""
    p, g, n = abs(gram.determinant()), gram.entries, gram.rank
    if p > MAX_INPUT:
        return True
    m = gram._rows[-2][-2] if n > 1 else 1
    if gcd(m, p) == 1:
        return _square_roots_mod((-m,), p)[0] is not None

    @cache
    def cofactor(i: int) -> int:
        """c_i, the last pivot of -G without row and column i."""
        if i == n - 1:
            return m
        keep = [j for j in range(n) if j != i]
        return _positive_elimination([[g[r][k] for k in keep] for r in keep])[-1][-1]

    for q, e in _split(p):
        c = next((c for c in map(cofactor, range(n - 1, -1, -1)) if c % q), None)
        if c is None or _sqrt_mod_prime_power(-c, q, e) is None:
            return False
    return True


def _vector_counts(u: list[list[int]], top: int) -> list[int]:
    """Numbers of x in Z^n with Q(x) = 0, 1, ..., top, where Q = -G is
    positive definite and u is its ``_positive_elimination``.

    With minors M_0 = 1, M_(k+1) = u[k][k], the form is
      Q(x) = sum_k (sum_(j>=k) u[k][j] x_j)^2 / (M_k M_(k+1)).
    Scaling by the lcm of the denominators keeps Fincke-Pohst in integers.
    """
    n = len(u)
    minors = [1] + [u[k][k] for k in range(n)]
    scale = lcm(*(minors[k] * minors[k + 1] for k in range(n)))
    weight = [scale // (minors[k] * minors[k + 1]) for k in range(n)]
    bound = top * scale  # enumerate every x with Q(x) <= top
    counts = [0] * (top + 1)
    x = [0] * n

    def rec(k: int, rem: int) -> None:
        if k < 0:
            counts[(bound - rem) // scale] += 1
            return
        row = u[k]
        c = sum(row[j] * x[j] for j in range(k + 1, n))
        m = minors[k + 1]
        t = isqrt(rem // weight[k])  # |m x_k + c| <= t
        for v in range(-((t + c) // m), (t - c) // m + 1):
            y = m * v + c
            x[k] = v
            rec(k - 1, rem - weight[k] * y * y)
        x[k] = 0

    rec(n - 1, bound)
    return counts


def _complement_counts(entries: tuple[int, ...]) -> Iterator[int]:
    """Numbers of vectors of norm 1, 2, 3 and 4 orthogonal to sigma in Z^d,
    in turn; each is computed only when the one before it has been taken.

    With z zero entries, nonzero blocks of equal entries of sizes m and
    P = sum C(m, 2), the vectors, with entries +-1 or a single +-2, are:
    norm 1: +-e_i with sigma_i = 0, so 2z;
    norm 2: +-e_i +-e_j on two zeros, and +-(e_i - e_j) within a block, so
    4 C(z, 2) + 2 P;
    norm 3: signs on three zeros, +-e_i +-(e_j - e_k) with one zero and a
    pair in a block, and +-(e_i + e_j - e_k) with sigma_k = sigma_i + sigma_j
    on three nonzero entries, so 8 C(z, 3) + 4 z P + 2 t, where t counts the
    sets of three nonzero entries one of which is the sum of the other two;
    norm 4: +-2 e_i on a zero, 2z; four entries +-1 on four zeros,
    16 C(z, 4); on three zeros and one nonzero entry, none; on two zeros and
    a pair in a block, 8 C(z, 2) P; on one zero and three nonzero entries,
    4 z t; on four nonzero entries, 2 (q13 + q22).  Their signs split these
    1 + 3 or 2 + 2 with equal sums, and a split and its negative give two
    vectors: q13 counts the sets of four one of which is the sum of the other
    three, q22 the unordered pairs of disjoint position pairs with equal
    sums.  No four positive entries split both ways (d = a + b + c and
    d + a = b + c give a = 0).
    With m_w nonzero entries equal to w and c_s pairs of nonzero entries of
    sum s, t = sum_w m_w c_w.  Pairs with equal sums share at most one
    position, and (N - 2) P share one, {i, j} and {i, k} with sigma_j =
    sigma_k, of N nonzero entries; so q22 = sum_s C(c_s, 2) - (N - 2) P.
    Counting each set of three once per member v, without the pairs of sum
    w - v that contain v, 3 T(w) = sum_v m_v (c_(w-v) - m_(w-2v) + [3v = w])
    sets of three sum to w, and q13 = sum_w m_w T(w).
    """
    mult: dict[int, int] = {}
    for v in entries:
        mult[v] = mult.get(v, 0) + 1
    zeros = mult.pop(0, 0)
    yield 2 * zeros
    pairs = sum(comb(m, 2) for m in mult.values())
    yield 4 * comb(zeros, 2) + 2 * pairs
    sums: dict[int, int] = {}  # c_s
    values = sorted(mult)
    for i, u in enumerate(values):
        sums[2 * u] = sums.get(2 * u, 0) + comb(mult[u], 2)
        for w in values[i + 1 :]:
            sums[u + w] = sums.get(u + w, 0) + mult[u] * mult[w]
    triples = sum(m * sums.get(v, 0) for v, m in mult.items())
    yield 8 * comb(zeros, 3) + 4 * zeros * pairs + 2 * triples
    q22 = sum(comb(c, 2) for c in sums.values()) - (len(entries) - zeros - 2) * pairs
    q13 = sum(
        mw * mv * (sums.get(w - v, 0) - mult.get(w - 2 * v, 0) + (3 * v == w))
        for w, mw in mult.items() for v, mv in mult.items()
    ) // 3
    yield (2 * zeros + 16 * comb(zeros, 4) + 8 * comb(zeros, 2) * pairs
           + 4 * zeros * triples + 2 * (q13 + q22))


def _index_fit(det: int, norm: int) -> Callable[[int, int], bool] | None:
    """How L's vector counts must compare with those of the complement of a
    changemaker of norm `norm`: ``eq`` at index 1 (|det G| = norm), ``le``
    when |det G| = k^2 norm with k > 1, and None when no k exists, so that no
    changemaker of this norm admits an embedding.

    An embedding preserves norms and is injective, and its image has finite
    index k in the complement, whose determinant is |sigma|^2 = norm (a
    changemaker contains a 1, so it is primitive).  Hence |det G| = k^2 norm,
    L has at most as many vectors of each norm as the complement, and exactly
    as many when k = 1, since then L is isometric to the complement.  The
    answer depends on the norm alone, so a query decides it once.
    """
    k2, r = divmod(det, norm)
    if r or isqrt(k2) ** 2 != k2:
        return None
    return eq if k2 == 1 else le


def _counts_admit(
    counts: tuple[int, ...], sigma: Changemaker, fits: Callable[[int, int], bool]
) -> bool:
    """Necessary condition for L = (Z^n, -G) to embed in sigma's complement,
    given ``fits = _index_fit(|det G|, sigma.norm)``, decided once per query
    and not None: L's numbers of vectors of norm 1, 2, ..., `counts`, fit
    the complement's, norm by norm.  `counts` holds norms 1 to 3, widened to
    norm 4 after a failed search (see ``changemaker_obstruction``).  The
    test stops at the first misfit, so the complement's norm-4 closed form
    runs only when norms 1 to 3 fit: most sigma fail at norm 3.
    """
    return all(map(fits, counts, _complement_counts(sigma.entries)))


def embed_in_complement(gram: GramMatrix, sigma: Changemaker) -> Embedding | None:
    """The first embedding of `gram` into the complement of `sigma` in
    canonical order, or None if none exists.

    Embeddings are searched up to the lattice automorphisms fixing sigma
    (coordinate permutations within blocks of equal sigma entries, and sign
    flips on coordinates where sigma is 0), by complete backtracking: None is
    a proof that no embedding exists.  Before the search, the index is
    decided once per query (``_index_fit``): sigma is rejected when |det G| is not a
    square times |sigma|^2, or when the counts of vectors of norm 1, 2 and 3
    of the two lattices rule an embedding out (see ``_counts_admit``); each
    such rejection is itself a proof.  At index 1 (|det G| = |sigma|^2) the
    counts must be equal.  Norm 4 is left out: for one sigma, L's norm-4
    count can cost more than a search (see ``changemaker_obstruction``).
    The linking form is not tested here, so this search stays the slow path
    that ``changemaker_obstruction``'s linking-form test is checked against.
    Vectors are filled in increasing order of the Gram diagonal; coordinates
    are processed from the largest sigma entry down; candidate values run
    from high to low, so the embedding returned is canonical and
    deterministic.
    """
    d = gram.rank + 1
    if len(sigma) != d:
        raise ValueError(f"sigma must have length {d}, got {len(sigma)}")
    if sigma.norm == 0:
        return None  # the zero vector spans nothing; full rank is impossible
    fits = _index_fit(abs(gram.determinant()), sigma.norm)
    if fits is None or not _counts_admit(_short_counts(gram), sigma, fits):
        return None
    return _first_embedding(gram, sigma)


def _first_embedding(gram: GramMatrix, sigma: Changemaker) -> Embedding | None:
    """``embed_in_complement`` for a nonzero sigma of length rank + 1 that
    ``_counts_admit``.  ``fill(t)`` returns the first embedding extending
    the vectors filled so far, or None.  It sets vector t's coordinates,
    largest sigma entry first, with an explicit stack, so the Python stack
    grows by one frame per vector, and calls fill(t + 1) per candidate."""
    n = gram.rank
    d = n + 1

    g = gram.entries
    order = sorted(range(n), key=lambda i: -g[i][i])  # by norm, then by index
    sig = sigma.entries[::-1]  # largest sigma entries first
    suf_sig2 = list(accumulate((x * x for x in reversed(sig)), initial=0))[::-1]

    vecs: list[tuple[int, ...]] = []  # in fill order, in reversed coordinates
    sufv: list[list[int]] = []  # suffix norms of each filled vector

    def fill(t: int) -> Embedding | None:
        if t == n:
            res: list[tuple[int, ...] | None] = [None] * n
            for s in range(n):
                res[order[s]] = vecs[s][::-1]
            emb = Embedding(sigma, tuple(res))  # type: ignore[arg-type]
            return emb if emb.verifies(gram) else None  # rank check; holds whenever G is definite
        diag = -g[order[t]][order[t]]
        offs = [-g[order[t]][order[s]] for s in range(t)]
        v = [0] * d

        def values(j: int, rem: int) -> list[int] | range:
            b = isqrt(rem)
            hi, lo = b, -b
            # Canonical form under block permutations: if this coordinate is
            # interchangeable with the previous one (equal sigma entries) and
            # the two rows agree on all filled vectors, keep rows sorted.
            if j > 0 and sig[j - 1] == sig[j]:
                if all(w[j - 1] == w[j] for w in vecs):
                    hi = min(hi, v[j - 1])
            # Canonical form under sign flips where sigma vanishes: the first
            # nonzero entry of such a row must be positive.
            if sig[j] == 0 and all(w[j] == 0 for w in vecs):
                lo = max(lo, 0)
            if j == d - 1:
                # the last coordinate must absorb the whole remaining norm
                if b * b != rem:
                    return []
                if b == 0:
                    return [0] if lo <= 0 <= hi else []
                return [x for x in (b, -b) if lo <= x <= hi]
            return range(hi, lo - 1, -1)

        # stack[j]: once coordinates 0..j-1 are set, the norm left, the dot
        # with sigma, the dots with the filled vectors and coordinate j's values
        stack = [(diag, 0, [0] * t, iter(values(0, diag)))]
        while stack:
            j = len(stack) - 1
            rem, dot_sig, dots, vals = stack[j]
            for val in vals:
                nrem = rem - val * val
                nds = dot_sig + val * sig[j]
                # Cauchy-Schwarz pruning against the remaining coordinates.
                if nds * nds > suf_sig2[j + 1] * nrem:
                    continue
                nd = []
                ok = True
                for s, w in enumerate(vecs):
                    x = dots[s] + val * w[j]
                    need = offs[s] - x
                    if need * need > sufv[s][j + 1] * nrem:
                        ok = False
                        break
                    nd.append(x)
                if not ok:
                    continue
                v[j] = val
                if j + 1 < d:
                    stack.append((nrem, nds, nd, iter(values(j + 1, nrem))))
                    break
                if nrem != 0 or nds != 0 or nd != offs:
                    continue
                vecs.append(tuple(v))
                sufv.append(list(accumulate((x * x for x in reversed(v)), initial=0))[::-1])
                emb = fill(t + 1)
                vecs.pop()
                sufv.pop()
                if emb is not None:
                    return emb
            else:
                stack.pop()
        return None

    return fill(0)


class ObstructionResult(Record):
    """Outcome of the changemaker obstruction for a Gram matrix at norm p.

    Not a tuple: the benchmark tells a traced (result, counts) pair from a
    result by ``isinstance(output, tuple)``."""

    __slots__ = ("status", "witnesses")

    def __init__(self, status: str, witnesses: tuple[Embedding, ...]) -> None:
        self._set(status, witnesses)  # status: "obstructed" or "witness"

    @property
    def obstructed(self) -> bool:
        return self.status == "obstructed"

    def first(self) -> Embedding | None:
        return self.witnesses[0] if self.witnesses else None


def changemaker_obstruction(
    gram: GramMatrix, p: int, all_witnesses: bool = False
) -> ObstructionResult:
    """Search all changemakers of length rank+1 and norm p for one whose
    complement contains `gram`.

    Returns the first witness in (changemaker lex order, canonical embedding
    order), or all of them with ``all_witnesses`` (one embedding per
    admitting changemaker; used for uniqueness checks).

    No changemaker of length rank+1 has a norm p above
    ``changemaker_max_norm(rank + 1)``, so G is then ``obstructed`` at once,
    with no elimination.
    Every changemaker searched has norm p, so the index k of an embedding,
    |det G| = k^2 p, is decided once per query (``_index_fit``): when no k
    exists the result is ``obstructed`` before any changemaker is
    enumerated.

    When |det G| = p, an embedding would have index 1, so L = (Z^n, G)
    would be isometric to sigma's complement, and the linking form decides
    first (``_linking_form_admits``).  Proof: sigma is primitive (it has an
    entry 1) in the unimodular lattice -Z^(n+1), so the discriminant form of
    its complement is minus that of Z sigma (Nikulin, "Integral symmetric
    bilinear forms and some of their applications", 1979); as sigma / p
    pairs with itself to -1/p, it is cyclic of order p, generated by a class
    g with b(g, g) = 1/p mod 1.  L* = G^-1 Z^n, so the x_i = G^-1 e_i
    generate L*/L, and b(x_i, x_i) = (G^-1)_ii = -c_i / p, with c_i the i-th
    diagonal cofactor of -G.  Take q^e || p.  The q-part of L*/L is then
    cyclic, generated by h = (p/q^e) g with b(h, h) = (p/q^e) / q^e, so each
    y_i = (p/q^e) x_i is some k_i h, and as the y_i generate the q-part,
    some k_i is prime to q.  Comparing b(y_i, y_i) = -(p/q^e) c_i / q^e with
    k_i^2 b(h, h), as p/q^e is a unit mod q: -c_i = k_i^2 mod q^e.  So q
    divides c_i exactly when it divides k_i: some c_i is prime to q, and
    -c_i is a square mod q^e for each such i; if either fails, the result
    is ``obstructed``, a proof.  The test takes the first such c_i in the
    order c_(n-1), c_(n-2), ..., c_0.
    c_(n-1) = m is the (n-1)-th leading principal minor, a pivot of the
    elimination already made; when gcd(m, p) = 1 the tests join, by the
    CRT, into "-m is a square mod p", which ``_square_roots_mod`` decides,
    usually by its Jacobi exit before p is factored.  Any other c_i is the
    last pivot of -G without row and column i.

    Past the linking form, the norm <= 3 counts of L are taken (once per
    matrix, ``_short_counts``).  At index 1, L would have exactly the
    complement's numbers of norm-1 and norm-2 vectors, and the enumeration
    skips every sigma without them (see ``_changemakers``).  Otherwise every
    changemaker is enumerated, and each meets the count conditions of
    ``embed_in_complement``.
    After the first failed search, `counts` widens to norm 4: L's vectors
    are counted once more, to norm 4, and later sigma must fit that count
    too.  It can take ten times as long as the norm <= 3 counts (the rank-30
    form -I has 438,540 vectors of norm 4); a first search that succeeds
    never pays it.
    Every step reads the one elimination that proved G definite when it
    was built, where G's rank was capped too; none eliminates G again, and
    only the linking form eliminates its cofactors.  p < 1 raises
    ValueError before any work.
    """
    if p < 1:
        raise ValueError(f"norm p must be positive, got {p}")
    if p > changemaker_max_norm(gram.rank + 1):
        return ObstructionResult("obstructed", ())
    fits = _index_fit(abs(gram.determinant()), p)
    if fits is None or (fits is eq and not _linking_form_admits(gram)):
        return ObstructionResult("obstructed", ())
    found = []
    counts = _short_counts(gram)
    for entries in _changemakers(gram.rank + 1, p, counts if fits is eq else None):
        sigma = Changemaker(entries)
        if not _counts_admit(counts, sigma, fits):
            continue
        emb = _first_embedding(gram, sigma)
        if emb is not None:
            found.append(emb)
            if not all_witnesses:
                break
        elif len(counts) == 3:
            counts = tuple(_vector_counts(gram._rows, 4)[1:])
    if found:
        return ObstructionResult("witness", tuple(found))
    return ObstructionResult("obstructed", ())


def parse_gram_text(text: str) -> GramMatrix:
    """Parse the shared Gram matrix text format.

    Line 1 is the rank n; the next n lines hold n space-separated integers.
    '#' begins a comment line; blank lines are ignored.  A matrix that is
    not negative definite is refused here, as GramMatrix refuses it.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty Gram matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the rank, got {lines[0]!r}") from None
    if n < 1:
        raise ValueError(f"rank must be positive, got {n}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = [int(tok) for tok in ln.split()]
        if len(row) != n:
            raise ValueError(f"expected {n} entries per row, got {len(row)}")
        rows.append(row)
    return GramMatrix(rows)

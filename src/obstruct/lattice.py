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
again.  The same elimination gives the determinant.  No floating point is used.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb, isqrt, lcm
from operator import eq, le
from typing import Callable, Iterator, NamedTuple

from ._record import Record
from .numtheory import ResourceCapExceeded

# _changemakers nests one generator frame per entry but the last two, so
# length - 2 frames; Python's default recursion limit is 1000
MAX_CHANGEMAKER_LENGTH = 512


class GramMatrix(Record):
    """A symmetric, negative definite integer matrix: the constructor raises
    ResourceCapExceeded for a rank above ``MAX_CHANGEMAKER_LENGTH - 1``,
    before any elimination, and ValueError for any other matrix."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        _check_length(n + 1)
        if _positive_elimination(entries) is None:
            raise ValueError("Gram matrix must be negative definite")
        self._set(entries)

    @staticmethod
    def from_rows(rows) -> "GramMatrix":
        return GramMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.entries)

    def determinant(self) -> int:
        """det G = (-1)^n det(-G)."""
        u = _positive_elimination(self.entries)
        return (-1) ** self.rank * (u[-1][-1] if u else 1)

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
    vectors of norm 1 and short[1] of norm 2 (see _complement_short_counts).

    A nondecreasing sigma has its z = short[0] / 2 zeros as a prefix, so the
    entries before position z are 0 and the rest are positive.  Its nonzero
    entries come in contiguous blocks of equal values, so the block sum
    sum C(m, 2) only grows as entries are appended, and a prefix whose sum
    exceeds (short[1] - 4 C(z, 2)) / 2 is cut, as is one whose sum cannot
    reach it even if every later entry joins its last block.

    The last three entries c <= a <= b are placed by one loop (for length 2,
    c is an empty entry 0 before the vector).  With S the sum of the entries
    before c and r the norm they leave, a triple completes the prefix to a
    changemaker of norm `norm` exactly when c <= S + 1, a <= S + c + 1,
    b <= S + c + a + 1 and a^2 + b^2 = r - c^2; then 3 c^2 <= r.  So c runs
    from the least value the prefix and the zero rule allow to
    min(S + 1, isqrt(r // 3)), and (a, b) over the representations of
    r - c^2 as a sum of two squares with a <= b (memoized per call), kept
    when they meet the inequalities, the zero rule for a (b > 0 always, as
    norm >= 1 and z < length) and the exact block count.  That is every
    changemaker with this prefix, in lex order, and no frame is opened for
    a pair that cannot exist.  A c larger than the entry before it starts a
    block, which leaves the block count the same for every such c; so when
    that count cannot reach the target at one c, no larger c is tried.
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

    def rec(
        i: int, prev: int, prefix_sum: int, rem: int, pairs: int, run: int
    ) -> Iterator[tuple[int, ...]]:
        # prev: the entry before position i (0 at the start); pairs: sum
        # C(m, 2) over the nonzero blocks so far; run: length of the nonzero
        # block that ends the prefix (0 after a zero entry)
        lo = max(prev, 1) if i >= zhi else prev
        if i == length - 3:
            # c = sigma_i, then (a, b) = the last two entries.  For length 2,
            # i = -1 < zlo forces c = 0, the empty entry before the vector;
            # it lands in the last slot of sig, which is never yielded.
            hi = 0 if i < zlo else min(prefix_sum + 1, isqrt(rem // 3))
            alo = 1 if i + 1 >= zhi else 0
            for c in range(lo, hi + 1):
                cpairs, crun = (pairs + run, run + (c > 0)) if c == prev else (pairs, 1)
                # a and b add at most crun and crun + 1 pairs
                if cpairs > phi or cpairs + 2 * crun + 1 < plo:
                    if c > prev:
                        break  # the same for every larger c, which starts a block too
                    continue
                rest = rem - c * c
                reps = two_squares.get(rest)
                if reps is None:
                    if rest > 5 * (prefix_sum + c + 1) ** 2:
                        continue  # a <= S + c + 1 and b <= 2 (S + c + 1): no fill
                    reps = two_squares[rest] = []
                    # squares are 0 or 1 mod 4, so no sum of two is 3 mod 4
                    for a in range(isqrt(rest // 2) + 1 if rest % 4 != 3 else 0):
                        b = isqrt(rest - a * a)
                        if b * b == rest - a * a:
                            reps.append((a, b))
                if not reps:
                    continue
                ahi = 0 if i + 1 < zlo else prefix_sum + c + 1
                sig[i] = c
                for a, b in reps:
                    if a > ahi:
                        break
                    if a < c or a < alo or b > prefix_sum + c + a + 1:
                        continue
                    npairs, nrun = (cpairs + crun, crun + (a > 0)) if a == c else (cpairs, 1)
                    if b == a:
                        npairs += nrun
                    if plo <= npairs <= phi:
                        yield (*sig[: i + 1], a, b)
            return
        hi = 0 if i < zlo else min(prefix_sum + 1, isqrt(rem))
        slots = length - i - 1  # entries after this one
        doubling = changemaker_max_norm(slots)
        joined = comb(slots, 2)  # pairs among later entries in one block
        for v in range(lo, hi + 1):
            nrem = rem - v * v
            if nrem < slots * v * v:
                break  # later entries are all >= v; worse for every larger v
            if nrem > (prefix_sum + v + 1) ** 2 * doubling:
                continue  # even doubling growth cannot reach the norm
            npairs, nrun = (pairs + run, run + (v > 0)) if v == prev else (pairs, 1)
            # the t-th later entry adds at most nrun + t pairs
            if npairs > phi or npairs + slots * nrun + joined < plo:
                continue
            sig[i] = v
            yield from rec(i + 1, v, prefix_sum + v, nrem, npairs, nrun)

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


class _SearchFacts(NamedTuple):
    """What the embedding search needs to know about a negative-definite
    Gram matrix G, computed once per matrix."""

    positive: tuple[tuple[int, ...], ...]  # the positive-definite form -G
    order: tuple[int, ...]  # fill order: by diagonal entry, then by index
    det: int  # |det G|
    short: tuple[int, ...]  # numbers of vectors of norm 1, 2 and 3
    elimination: list[list[int]]  # the Bareiss rows of -G, for _vector_counts


@lru_cache(maxsize=64)
def _search_facts(gram: GramMatrix) -> _SearchFacts:
    """The facts about `gram`."""
    u = _positive_elimination(gram.entries)
    n = gram.rank
    gp = tuple(tuple(-x for x in row) for row in gram.entries)
    return _SearchFacts(
        positive=gp,
        order=tuple(sorted(range(n), key=lambda i: (gp[i][i], i))),
        det=u[-1][-1] if n else 1,
        short=tuple(_vector_counts(u, 3)[1:]),
        elimination=u,
    )


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


def _complement_short_counts(entries: tuple[int, ...], top: int = 3) -> tuple[int, ...]:
    """Numbers of vectors of norm 1 to top (3 or 4) orthogonal to sigma in Z^d.

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
    pairs = sum(comb(m, 2) for m in mult.values())
    sums: dict[int, int] = {}  # c_s
    values = sorted(mult)
    for i, u in enumerate(values):
        sums[2 * u] = sums.get(2 * u, 0) + comb(mult[u], 2)
        for w in values[i + 1 :]:
            sums[u + w] = sums.get(u + w, 0) + mult[u] * mult[w]
    triples = sum(m * sums.get(v, 0) for v, m in mult.items())
    counts = (
        2 * zeros,
        4 * comb(zeros, 2) + 2 * pairs,
        8 * comb(zeros, 3) + 4 * zeros * pairs + 2 * triples,
    )
    if top == 3:
        return counts
    q22 = sum(comb(c, 2) for c in sums.values()) - (len(entries) - zeros - 2) * pairs
    q13 = sum(
        mw * mv * (sums.get(w - v, 0) - mult.get(w - 2 * v, 0) + (3 * v == w))
        for w, mw in mult.items() for v, mv in mult.items()
    ) // 3
    return counts + (
        2 * zeros + 16 * comb(zeros, 4) + 8 * comb(zeros, 2) * pairs
        + 4 * zeros * triples + 2 * (q13 + q22),
    )


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
    facts: _SearchFacts, sigma: Changemaker, fits: Callable[[int, int], bool],
    norm4: int | None = None,
) -> bool:
    """Necessary condition for L = (Z^n, -G) to embed in sigma's complement,
    given ``fits = _index_fit(facts.det, sigma.norm)``, which the caller
    decides once per query and which is not None: L's numbers of vectors of
    norm 1 to 3, and of norm 4 when L's norm-4 count `norm4` is given, must
    fit those of the complement.  The norm-4 count is asked for only when
    norms 1 to 3 fit: most sigma fail at norm 3, and their norm-4 closed
    form would cost about as much again.
    """
    if not all(map(fits, facts.short, _complement_short_counts(sigma.entries))):
        return False
    return norm4 is None or fits(norm4, _complement_short_counts(sigma.entries, 4)[3])


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
    Vectors are filled in increasing order of the Gram diagonal; coordinates
    are processed from the largest sigma entry down; candidate values run
    from high to low, so the embedding returned is canonical and
    deterministic.
    """
    d = gram.rank + 1
    if len(sigma) != d:
        raise ValueError(f"sigma must have length {d}, got {len(sigma)}")
    facts = _search_facts(gram)
    if sigma.norm == 0:
        return None  # the zero vector spans nothing; full rank is impossible
    fits = _index_fit(facts.det, sigma.norm)
    if fits is None or not _counts_admit(facts, sigma, fits):
        return None
    return _first_embedding(gram, facts, sigma)


def _first_embedding(
    gram: GramMatrix, facts: _SearchFacts, sigma: Changemaker
) -> Embedding | None:
    """``embed_in_complement`` for a nonzero sigma of length rank + 1 that
    ``_counts_admit``, given the facts about `gram`.  ``fill(t)`` returns the
    first embedding extending the vectors filled so far, or None.  It sets
    vector t's coordinates, largest sigma entry first, with an explicit
    stack, so the Python stack grows by one frame per vector, and calls
    fill(t + 1) per candidate."""
    n = gram.rank
    d = n + 1

    gp = facts.positive
    order = facts.order
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
        diag = gp[order[t]][order[t]]
        offs = [gp[order[t]][order[s]] for s in range(t)]
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
    enumerated.  When |det G| = p, an embedding would have index 1, so L
    would be isometric to sigma's complement and have exactly its numbers of
    norm-1 and norm-2 vectors; the enumeration then skips every sigma without
    them (see ``_changemakers``).  Otherwise every changemaker is enumerated,
    and each meets the count conditions of ``embed_in_complement``.
    Once a search has failed, L's norm-4 vectors are counted, once, and
    later sigma must pass the norm-4 counts too.  That count can take over
    ten times as long as the norm <= 3 counts (the rank-30 form -I has 438,540
    vectors of norm 4), which a query whose first search succeeds never pays.
    The facts about G are computed once, not once per changemaker.  p < 1
    raises ValueError before any work; G's rank was capped, and its
    definiteness proved, when G was built.
    """
    if p < 1:
        raise ValueError(f"norm p must be positive, got {p}")
    if p > changemaker_max_norm(gram.rank + 1):
        return ObstructionResult("obstructed", ())
    facts = _search_facts(gram)
    fits = _index_fit(facts.det, p)
    if fits is None:
        return ObstructionResult("obstructed", ())
    found = []
    short = facts.short if fits is eq else None
    norm4 = None  # L's number of norm-4 vectors, counted once a search fails
    for entries in _changemakers(gram.rank + 1, p, short):
        sigma = Changemaker(entries)
        if not _counts_admit(facts, sigma, fits, norm4):
            continue
        emb = _first_embedding(gram, facts, sigma)
        if emb is not None:
            found.append(emb)
            if not all_witnesses:
                break
        elif norm4 is None:
            norm4 = _vector_counts(facts.elimination, 4)[4]
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
    return GramMatrix.from_rows(rows)

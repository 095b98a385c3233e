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

All integer linear algebra (determinants, ranks) is fraction-free; no
floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def matrix_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix over the rationals, by exact elimination."""
    a = [list(map(int, r)) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(row + 1, nrows):
            if a[i][col] != 0:
                f, g = a[row][col], a[i][col]
                a[i] = [f * a[i][j] - g * a[row][j] for j in range(ncols)]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


@dataclass(frozen=True)
class GramMatrix:
    """A symmetric integer matrix, usually negative definite."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("Gram matrix must be symmetric")

    @staticmethod
    def from_rows(rows) -> "GramMatrix":
        return GramMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.entries)

    def determinant(self) -> int:
        return det_int([list(r) for r in self.entries])

    def is_negative_definite(self) -> bool:
        """(-1)^k times the k-th leading principal minor is positive for all k."""
        for k in range(1, self.rank + 1):
            minor = det_int([list(row[:k]) for row in self.entries[:k]])
            if minor * (-1) ** k <= 0:
                return False
        return True


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


@dataclass(frozen=True)
class Changemaker:
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_changemaker(self.entries):
            raise ValueError(f"{self.entries} is not a changemaker")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def norm(self) -> int:
        return sum(v * v for v in self.entries)

    @property
    def l1(self) -> int:
        return sum(self.entries)

    def genus(self) -> int:
        """(norm - l1) / 2; an integer since v^2 = v mod 2."""
        return (self.norm - self.l1) // 2


def changemaker_max_norm(length: int) -> int:
    """Largest possible norm of a changemaker of the given length.

    Entries are bounded by 1, 2, 4, ..., 2^(length-1), so the norm is at most
    (4^length - 1)/3, attained by that doubling vector.
    """
    return (4**length - 1) // 3


def _max_norm_from(prefix_sum: int, slots: int) -> int:
    total = 0
    t = prefix_sum + 1
    for _ in range(slots):
        total += t * t
        t += t
    return total


def enumerate_changemakers(length: int, norm: int) -> list[Changemaker]:
    """All changemakers of the given length with squared norm exactly `norm`,
    in lexicographic order.  Empty when norm exceeds the doubling bound."""
    if length < 1 or norm < 1:
        raise ValueError("need length >= 1 and norm >= 1")
    out: list[Changemaker] = []
    sig = [0] * length

    def rec(i: int, prefix_sum: int, rem: int) -> None:
        if i == length:
            if rem == 0:
                out.append(Changemaker(tuple(sig)))
            return
        slots = length - i
        lo = sig[i - 1] if i else 0
        hi = min(prefix_sum + 1, isqrt(rem))
        for v in range(lo, hi + 1):
            nrem = rem - v * v
            if nrem < (slots - 1) * v * v:
                continue  # remaining entries are all >= v
            if nrem > _max_norm_from(prefix_sum + v, slots - 1):
                continue  # even doubling growth cannot reach the norm
            sig[i] = v
            rec(i + 1, prefix_sum + v, nrem)
        sig[i] = 0

    rec(0, 0, norm)
    return out


@dataclass(frozen=True)
class Embedding:
    """An embedding of a rank-n Gram lattice into the complement of sigma
    inside the standard negative-definite lattice of rank n + 1.

    ``vectors[i]`` is the image of the i-th basis vector; all vectors satisfy
    <v_i, sigma> = 0 and <v_i, v_j> reproduces the Gram matrix, with the
    pairing <x, y> = -sum(x_k * y_k).
    """

    sigma: Changemaker
    vectors: tuple[tuple[int, ...], ...]

    def gram(self) -> GramMatrix:
        return GramMatrix.from_rows(
            [
                [-sum(a * b for a, b in zip(u, v)) for v in self.vectors]
                for u in self.vectors
            ]
        )

    def verifies(self, gram: GramMatrix) -> bool:
        """Exact check: Gram reproduction, sigma-orthogonality, full rank."""
        s = self.sigma.entries
        if len(self.vectors) != gram.rank or any(
            len(v) != len(s) for v in self.vectors
        ):
            return False
        if any(sum(a * b for a, b in zip(v, s)) != 0 for v in self.vectors):
            return False
        if self.gram() != gram:
            return False
        rows = [list(v) for v in self.vectors] + [list(s)]
        return matrix_rank(rows) == len(s)


def iter_embeddings(gram: GramMatrix, sigma: Changemaker) -> Iterator[Embedding]:
    """All embeddings of `gram` into the complement of `sigma`, up to the
    lattice automorphisms fixing sigma (coordinate permutations within blocks
    of equal sigma entries, and sign flips on coordinates where sigma is 0).

    The search is complete backtracking: exhausting the iterator without a
    result proves that no embedding exists.  Vectors are filled in increasing
    order of the Gram diagonal; coordinates are processed from the largest
    sigma entry down; candidate values run from high to low, so the first
    embedding produced is canonical and deterministic.
    """
    n = gram.rank
    d = n + 1
    if len(sigma) != d:
        raise ValueError(f"sigma must have length {d}, got {len(sigma)}")
    if not gram.is_negative_definite():
        raise ValueError("Gram matrix must be negative definite")
    if sigma.norm == 0:
        return  # the zero vector spans nothing; full rank is impossible

    gp = [[-x for x in row] for row in gram.entries]
    order = sorted(range(n), key=lambda i: (gp[i][i], i))
    coords = list(range(d - 1, -1, -1))  # largest sigma entries first
    sig = [sigma.entries[c] for c in coords]
    suf_sig2 = [0] * (d + 1)
    for j in range(d - 1, -1, -1):
        suf_sig2[j] = suf_sig2[j + 1] + sig[j] * sig[j]

    vecs: list[tuple[int, ...]] = []  # in fill order, indexed by position j
    sufv: list[list[int]] = []  # suffix norms of each filled vector

    def candidates(t: int) -> Iterator[tuple[int, ...]]:
        diag = gp[order[t]][order[t]]
        offs = [gp[order[t]][order[s]] for s in range(t)]
        v = [0] * d

        def rec(j: int, rem: int, dot_sig: int, dots: list[int]) -> Iterator[tuple[int, ...]]:
            if j == d:
                if rem == 0 and dot_sig == 0 and dots == offs:
                    yield tuple(v)
                return
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
                    vals: list[int] | range = []
                elif b == 0:
                    vals = [0] if lo <= 0 <= hi else []
                else:
                    vals = [x for x in (b, -b) if lo <= x <= hi]
            else:
                vals = range(hi, lo - 1, -1)
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
                yield from rec(j + 1, nrem, nds, nd)
                v[j] = 0

        yield from rec(0, diag, 0, [0] * len(vecs))

    def search(t: int) -> Iterator[Embedding]:
        if t == n:
            res: list[tuple[int, ...] | None] = [None] * n
            for s in range(n):
                w = [0] * d
                for j in range(d):
                    w[coords[j]] = vecs[s][j]
                res[order[s]] = tuple(w)
            emb = Embedding(sigma, tuple(res))  # type: ignore[arg-type]
            if emb.verifies(gram):  # rank check; holds whenever G is definite
                yield emb
            return
        for v in candidates(t):
            suffix = [0] * (d + 1)
            for j in range(d - 1, -1, -1):
                suffix[j] = suffix[j + 1] + v[j] * v[j]
            vecs.append(v)
            sufv.append(suffix)
            yield from search(t + 1)
            vecs.pop()
            sufv.pop()

    yield from search(0)


def embed_in_complement(gram: GramMatrix, sigma: Changemaker) -> Embedding | None:
    """First embedding in canonical order, or None if none exists."""
    return next(iter_embeddings(gram, sigma), None)


@dataclass(frozen=True)
class ObstructionResult:
    """Outcome of the changemaker obstruction for a Gram matrix at norm p."""

    status: str  # "obstructed" or "witness"
    witnesses: tuple[Embedding, ...]

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
    """
    if not gram.is_negative_definite():
        raise ValueError("Gram matrix must be negative definite")
    found = []
    for sigma in enumerate_changemakers(gram.rank + 1, p):
        emb = embed_in_complement(gram, sigma)
        if emb is not None:
            found.append(emb)
            if not all_witnesses:
                break
    if found:
        return ObstructionResult("witness", tuple(found))
    return ObstructionResult("obstructed", ())


def parse_gram_text(text: str) -> GramMatrix:
    """Parse the shared Gram matrix text format.

    Line 1 is the rank n; the next n lines hold n space-separated integers.
    '#' begins a comment line; blank lines are ignored.
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

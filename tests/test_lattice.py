import hashlib
import itertools
import json
import random
from math import comb, isqrt

import pytest
from golden_cli import lattice_search_jobs
from oracles import BASIS_226, GD, SIGMA_226, brute_force_changemakers

from obstruct import goeritz as go
from obstruct import lattice as la
from obstruct import manifolds as mf
from obstruct.numtheory import ResourceCapExceeded


# ---------------------------------------------------------------------------
# exact linear algebra


def permutation_det(m):
    """Determinant by expansion over permutations: the oracle for Bareiss."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    term = -term
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def test_determinant_against_permutation_expansion():
    assert GD.determinant() == 226
    rng = random.Random(5)
    for _ in range(40):
        gram = random_negative_definite(rng, rng.randint(1, 4))
        assert gram.determinant() == permutation_det(gram.entries), gram
    for rows in ([[0]], [[1]]):
        with pytest.raises(ValueError, match="negative definite"):
            la.GramMatrix.from_rows(rows)


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        la.GramMatrix.from_rows([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        la.GramMatrix.from_rows([[1, 2, 3], [2, 1, 1]])  # not square


def test_negative_definite():
    assert GD.is_negative_definite()
    assert go.family_2odd_2odd(1, 1).is_negative_definite()
    for rows in ([[0]], [[1]], [[-1, 2], [2, -1]], [[-1, 1], [1, -1]]):
        with pytest.raises(ValueError, match="Gram matrix must be negative definite"):
            la.GramMatrix.from_rows(rows)


def no_elimination(entries):
    raise AssertionError("Bareiss elimination run")


def test_query_past_norm_bound_eliminates_nothing(monkeypatch):
    """A form is eliminated once, where it is built.  Length 6 allows norm
    <= 1365 < |det| = 1443, so the query is obstructed with no elimination."""
    calls = []
    elimination = la._positive_elimination
    monkeypatch.setattr(la, "_positive_elimination", lambda e: calls.append(e) or elimination(e))
    gram = go.family_2odd_2odd(9, 9)
    assert la.changemaker_obstruction(gram, 1443).obstructed
    assert calls == [gram.entries]


def test_verifies_eliminates_nothing(monkeypatch):
    monkeypatch.setattr(la, "_positive_elimination", no_elimination)
    assert la.Embedding(SIGMA_226, BASIS_226).verifies(GD)


# ---------------------------------------------------------------------------
# changemakers


def test_is_changemaker_examples():
    assert la.is_changemaker((1, 2, 2, 4, 4, 8, 11))
    assert not la.is_changemaker((0, 2))
    assert la.is_changemaker((0, 1, 1, 3))
    assert not la.is_changemaker((1, 0))  # decreasing
    assert not la.is_changemaker((2,))  # first entry exceeds 1
    assert la.is_changemaker(())


def test_enumeration_matches_brute_force():
    for length in range(1, 7):
        for norm in range(1, 51):
            got = [c.entries for c in la.enumerate_changemakers(length, norm)]
            assert got == brute_force_changemakers(length, norm), (length, norm)


def test_enumeration_examples():
    assert [c.entries for c in la.enumerate_changemakers(2, 2)] == [(1, 1)]
    assert la.enumerate_changemakers(2, 3) == []
    assert SIGMA_226 in la.enumerate_changemakers(7, 226)


def test_enumeration_is_lex_sorted_and_valid():
    cms = la.enumerate_changemakers(5, 60)
    assert cms == sorted(cms, key=lambda c: c.entries)
    assert all(la.is_changemaker(c.entries) for c in cms)


def test_max_norm_bound_attained():
    for length in range(1, 6):
        bound = la.changemaker_max_norm(length)
        assert bound == (4**length - 1) // 3
        norms = [c.norm for c in la.enumerate_changemakers(length, bound)]
        assert norms, length  # the doubling vector attains the bound
        doubling = tuple(2**i for i in range(length))
        assert la.Changemaker(doubling) in la.enumerate_changemakers(length, bound)
        assert la.enumerate_changemakers(length, bound + 1) == []
        if length >= 3:  # the doubling vector's complement embeds at the bound only
            gram = complement_gram(random.Random(length), la.Changemaker(doubling))
            assert la.changemaker_obstruction(gram, bound).status == "witness"
            assert la.changemaker_obstruction(gram, bound + 1).obstructed


def test_norm_above_doubling_bound_returns_at_once(monkeypatch):
    """Length 2 allows norm <= 5; a huge norm must not walk its two-squares
    loop, which takes about sqrt(norm) steps."""
    calls = []

    def counted_isqrt(x):
        calls.append(x)
        if len(calls) > 1000:
            raise AssertionError("isqrt called more than 1000 times")
        return isqrt(x)

    monkeypatch.setattr(la, "isqrt", counted_isqrt)
    assert la.enumerate_changemakers(2, 10**30) == []
    assert la.changemaker_obstruction(la.GramMatrix(((-1,),)), 10**30).obstructed


def test_obstruction_length_cap(monkeypatch):
    """Rank 512 needs length 513: the form is refused where it is built,
    before any elimination."""
    monkeypatch.setattr(la, "_positive_elimination", no_elimination)
    top = la.MAX_CHANGEMAKER_LENGTH
    rows = [[-int(i == j) for j in range(top)] for i in range(top)]
    with pytest.raises(ResourceCapExceeded, match="length 513 exceeds MAX_CHANGEMAKER_LENGTH"):
        la.GramMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# embeddings


def test_embed_rank_one():
    emb = la.embed_in_complement(
        la.GramMatrix.from_rows([[-1]]), la.Changemaker((0, 1))
    )
    assert emb is not None
    assert emb.vectors == ((1, 0),)
    assert emb.verifies(la.GramMatrix.from_rows([[-1]]))


def test_rank_30_search_stays_within_recursion_limit(monkeypatch):
    """The search takes one Python frame per vector.  A frame per coordinate
    of each vector would need about 30 * 33 frames here, near the default
    limit of 1000, and the trivial witness would raise RecursionError.
    The witness is the first sigma searched, so L's norm-4 vectors, which
    take over ten times as long to count as those of norm <= 3, are never
    counted."""
    vector_counts = la._vector_counts

    def norm3_only(u, top):
        if top > 3:
            raise AssertionError("norm-4 vectors counted before a search failed")
        return vector_counts(u, top)

    monkeypatch.setattr(la, "_vector_counts", norm3_only)
    rank = 30
    minus_i = la.GramMatrix.from_rows(
        [[-1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    )
    res = la.changemaker_obstruction(minus_i, 1)
    assert res.status == "witness"
    assert res.first().sigma.entries == (0,) * rank + (1,)
    assert res.first().verifies(minus_i)


def test_known_basis_verifies_bit_exactly():
    emb = la.Embedding(SIGMA_226, BASIS_226)
    assert emb.verifies(GD)
    for v in BASIS_226:
        assert sum(a * b for a, b in zip(v, SIGMA_226.entries)) == 0


def test_verifies_rejects_bad_embeddings():
    emb = la.Embedding(SIGMA_226, BASIS_226)
    wrong_gram = [list(r) for r in GD.entries]
    wrong_gram[0][0] -= 1
    assert not emb.verifies(la.GramMatrix.from_rows(wrong_gram))
    # (1, 0, ..., 0) is not orthogonal to sigma
    tilted = ((1, 0, 0, 0, 0, 0, 0),) + BASIS_226[1:]
    assert not la.Embedding(SIGMA_226, tilted).verifies(GD)
    # the right Gram and orthogonality, but sigma = 0 spans nothing
    minus_one = la.GramMatrix.from_rows([[-1]])
    assert not la.Embedding(la.Changemaker((0, 0)), ((1, 0),)).verifies(minus_one)
    # sigma and the vectors must have length rank + 1
    assert not la.Embedding(la.Changemaker((0, 0, 1)), ((1, 0, 0),)).verifies(minus_one)


def test_gd_embedding_found_and_verifies():
    emb = la.embed_in_complement(GD, SIGMA_226)
    assert emb is not None
    assert emb.verifies(GD)


def test_obstruction_results():
    res = la.changemaker_obstruction(GD, 226)
    assert res.status == "witness"
    assert res.first().sigma == SIGMA_226
    assert la.changemaker_obstruction(go.family_2odd_2odd(2, 2), 99).obstructed
    assert la.changemaker_obstruction(go.family_2odd_2odd(1, 1), 35).status == "witness"


def test_obstruction_rejects_indefinite():
    with pytest.raises(ValueError):
        la.changemaker_obstruction(la.GramMatrix.from_rows([[1]]), 5)


def test_obstruction_rejects_nonpositive_norm():
    for p in (0, -226):
        with pytest.raises(ValueError, match="norm p must be positive"):
            la.changemaker_obstruction(GD, p)


def test_nonpositive_norm_rejected_before_gram_facts(monkeypatch):
    """p < 1 is refused before _search_facts, whose norm <= 3 count can run
    for a minute on a large form."""

    def no_facts(gram):
        raise AssertionError("Gram facts computed")

    monkeypatch.setattr(la, "_search_facts", no_facts)
    with pytest.raises(ValueError, match="norm p must be positive"):
        la.changemaker_obstruction(GD, 0)


def test_embed_length_mismatch():
    with pytest.raises(ValueError):
        la.embed_in_complement(GD, la.Changemaker((1, 1)))


def test_embeddings_deterministic():
    a = la.changemaker_obstruction(go.family_2odd_2odd(1, 1), 35, all_witnesses=True)
    b = la.changemaker_obstruction(go.family_2odd_2odd(1, 1), 35, all_witnesses=True)
    assert a == b


def naive_embedding_exists(gram, sigma):
    """Unpruned exhaustive search over all integer vectors, the completeness
    oracle for the symmetry-reduced search."""
    n = gram.rank
    d = n + 1
    gp = [[-x for x in row] for row in gram.entries]
    sig = sigma.entries

    def candidates(t):
        b = isqrt(gp[t][t])
        for v in itertools.product(range(-b, b + 1), repeat=d):
            if sum(x * x for x in v) == gp[t][t] and sum(
                x * s for x, s in zip(v, sig)
            ) == 0:
                yield v

    def rec(t, chosen):
        if t == n:
            return True
        for v in candidates(t):
            if all(
                sum(x * y for x, y in zip(v, chosen[s])) == gp[t][s]
                for s in range(t)
            ):
                if rec(t + 1, chosen + [v]):
                    return True
        return False

    return rec(0, [])


def random_negative_definite(rng, n, diag_cap=6):
    """-B^T B for a random unimodular-ish integer B; retried until definite."""
    while True:
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        try:
            g = la.GramMatrix.from_rows(
                [
                    [-sum(b[r][i] * b[r][j] for r in range(n)) for j in range(n)]
                    for i in range(n)
                ]
            )
        except ValueError:  # B is singular
            continue
        if all(-g.entries[i][i] <= diag_cap for i in range(n)):
            return g


def test_pruned_search_equals_naive_search():
    rng = random.Random(99)
    checked = 0
    while checked < 80:
        n = rng.randint(1, 3)
        gram = random_negative_definite(rng, n)
        norm = rng.randint(1, 25)
        sigmas = la.enumerate_changemakers(n + 1, norm)
        if not sigmas:
            continue
        sigma = rng.choice(sigmas)
        pruned = la.embed_in_complement(gram, sigma) is not None
        naive = naive_embedding_exists(gram, sigma)
        assert pruned == naive, (gram, sigma)
        checked += 1


def test_all_yielded_embeddings_verify():
    gram = go.family_2odd_2odd(1, 1)
    found = [la.embed_in_complement(gram, s) for s in la.enumerate_changemakers(6, 35)]
    assert any(found) and all(emb.verifies(gram) for emb in found if emb)


def test_search_facts_computed_once_per_query(monkeypatch):
    calls = []
    search_facts = la._search_facts
    monkeypatch.setattr(la, "_search_facts", lambda g: calls.append(g) or search_facts(g))
    assert len(la.changemaker_obstruction(GD, 226, all_witnesses=True).witnesses) >= 1
    assert calls == [GD]


def test_no_index_obstructs_without_enumerating(monkeypatch):
    """No k has |det G| = k^2 p: GD at 225, fig3-black(3,5,3,5) at |det| + 1
    = 6400, where 6,954,382 changemakers would be walked."""
    monkeypatch.setattr(la, "_changemakers", None)  # calling it raises TypeError
    assert la.changemaker_obstruction(GD, 225).obstructed
    fig3 = go.goeritz_matrix(go.fig3_black_graph(3, 5, 3, 5))
    assert la.changemaker_obstruction(fig3, 6400).obstructed


def complement_gram(rng, sigma):
    """A Gram matrix of sigma's orthogonal complement in -Z^(len sigma), in a
    scrambled basis: {e_j - s_j e_k : j != k} with s_k the first entry equal
    to 1, mixed by a few +/-1 row operations and shuffled."""
    s = sigma.entries
    k = s.index(1)
    basis = []
    for j in range(len(s)):
        if j != k:
            v = [0] * len(s)
            v[j] += 1
            v[k] -= s[j]
            basis.append(v)
    for _ in range(rng.randint(2, 5)):
        i, j = rng.sample(range(len(basis)), 2)
        sign = rng.choice((1, -1))
        basis[i] = [a + sign * b for a, b in zip(basis[i], basis[j])]
    rng.shuffle(basis)
    return la.GramMatrix.from_rows(
        [[-sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    )


def sublattice(gram, i, index=2):
    """The Gram matrix of the sublattice with basis vector i times `index`."""
    c = [index if k == i else 1 for k in range(gram.rank)]
    return la.GramMatrix.from_rows(
        [[c[r] * c[k] * x for k, x in enumerate(row)] for r, row in enumerate(gram.entries)]
    )


def test_complement_forms_always_embed():
    """Known positives: sigma's own complement, and an index-2 sublattice of
    it (|det| = 4 |sigma|^2), must embed at norm |sigma|^2.  The digest pins
    the canonical embedding returned for each of the 273 witnesses."""
    rng = random.Random(5)
    checked = 0
    locked = []
    while checked < 260:
        length = rng.randint(3, 6)
        norm = rng.randint(1, 49)
        sigmas = la.enumerate_changemakers(length, norm)
        if not sigmas:
            continue
        sigma = rng.choice(sigmas)
        gram = complement_gram(rng, sigma)
        if checked >= 200:
            gram = sublattice(gram, rng.randrange(gram.rank))
            assert abs(gram.determinant()) == 4 * norm
        res = la.changemaker_obstruction(gram, norm, all_witnesses=True)
        assert res.status == "witness", (sigma, gram)
        assert sigma in [w.sigma for w in res.witnesses], (sigma, gram)
        assert all(w.verifies(gram) for w in res.witnesses)
        locked.append([[list(w.sigma.entries), list(map(list, w.vectors))] for w in res.witnesses])
        checked += 1
    digest = hashlib.sha256(json.dumps(locked).encode()).hexdigest()
    assert (sum(map(len, locked)), digest) == (
        273,
        "91a122d3c893de91c35d86f0e1d130279f2ef3a81caed68a1539f04a65910085",
    )


def test_obstruction_equals_embedding_of_each_sigma(monkeypatch):
    """Each builtin form, d = |det|, at p = d, d +- 1, 4 d and 9 d, and its
    sublattices of index 2 and 3 at p = d: the witnesses are those found per
    enumerated sigma, and a query enumerates exactly when an index exists."""
    calls = []
    changemakers = la._changemakers
    monkeypatch.setattr(la, "_changemakers", lambda *a: calls.append(a) or changemakers(*a))
    for gram in (GD, *(go.family_2odd_2odd(a, b) for a, b in ((1, 1), (1, 2), (2, 2)))):
        d = abs(gram.determinant())
        cases = [(gram, p) for p in (d, d - 1, d + 1, 4 * d, 9 * d)]
        cases += [(sublattice(gram, 0, index), d) for index in (2, 3)]
        for form, p in cases:
            found = tuple(e for s in la.enumerate_changemakers(form.rank + 1, p)
                          if (e := la.embed_in_complement(form, s)) is not None)
            calls.clear()
            res = la.changemaker_obstruction(form, p, all_witnesses=True)
            assert res == la.ObstructionResult("witness" if found else "obstructed", found)
            assert bool(calls) == (p == d), (form, p)


# ---------------------------------------------------------------------------
# the vector-count filter


def test_complement_short_counts_against_brute_force():
    """Vectors of norm <= 3 have entries in {-1, 0, 1}, so this box holds
    every one of them."""
    checked = 0
    for length in range(2, 7):
        for norm in range(1, 60):
            for sigma in la.enumerate_changemakers(length, norm):
                want = [0] * max(length + 1, 4)
                for v in itertools.product((-1, 0, 1), repeat=length):
                    if sum(a * b for a, b in zip(v, sigma.entries)) == 0:
                        want[sum(a * a for a in v)] += 1
                got = la._complement_short_counts(sigma.entries)
                assert got == (want[1], want[2], want[3]), sigma
                checked += 1
    assert checked == 306


def test_complement_norm4_count_against_brute_force():
    """The closed form against every vector of norm 4 in Z^d: +-2 e_i, and
    the sign patterns of four entries +-1 (each pattern with its negative),
    for all 9,232 changemakers of length <= 8 and norm < 200."""
    checked = 0
    for length in range(1, 9):
        for norm in range(1, 200):
            for s in la._changemakers(length, norm):
                want = 2 * s.count(0)
                for a, b, c, d in itertools.combinations(s, 4):
                    want += 2 * (
                        (a + b + c + d == 0) + (a + b + c - d == 0)
                        + (a + b - c + d == 0) + (a + b - c - d == 0)
                        + (a - b + c + d == 0) + (a - b + c - d == 0)
                        + (a - b - c + d == 0) + (a - b - c - d == 0)
                    )
                assert la._complement_short_counts(s, 4)[3] == want, s
                checked += 1
    assert checked == 9232


def test_short_counts_against_brute_force():
    """Fincke-Pohst counts of vectors of norm 1 to 4 against every vector of
    a box that contains them: |x_i|^2 <= 4 ((-G)^-1)_ii for norm <= 4."""
    rng = random.Random(8)
    for _ in range(150):
        n = rng.randint(1, 4)
        gram = random_negative_definite(rng, n)
        gp = [[-x for x in row] for row in gram.entries]
        det = permutation_det(gp)
        box = [
            isqrt(4 * permutation_det([r[:i] + r[i + 1:] for r in gp[:i] + gp[i + 1:]]) // det)
            for i in range(n)
        ]
        want = [0] * 5
        for x in itertools.product(*(range(-b, b + 1) for b in box)):
            q = sum(gp[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
            if q <= 4:
                want[q] += 1
        facts = la._search_facts(gram)
        assert facts.short == (want[1], want[2], want[3]), gram
        assert la._vector_counts(facts.elimination, 4) == want, gram
        assert facts.det == det


def test_targeted_enumeration_equals_filtered_enumeration():
    """_changemakers with count targets yields exactly the changemakers whose
    complement has those norm-1 and norm-2 counts, in enumeration order.
    Targets are the counts of up to three changemakers of the same length and
    norm, plus random ones (odd or out of range included)."""
    rng = random.Random(13)
    checked = 0
    for length in range(1, 9):
        for norm in range(1, 300):
            cms = [c.entries for c in la.enumerate_changemakers(length, norm)]
            counts = {c: la._complement_short_counts(c)[:2] for c in cms}
            real = sorted(set(counts.values()))
            targets = set(rng.sample(real, min(3, len(real))))
            for _ in range(2):
                targets.add((rng.randint(0, 2 * length + 1), rng.randint(0, length * length)))
            for target in targets:
                want = [c for c in cms if counts[c] == target]
                assert list(la._changemakers(length, norm, target)) == want, (length, norm, target)
                checked += 1
    assert checked == 7526


def test_targeted_enumeration_past_length_8():
    """The same oracle for lengths 9 to 12, where the loop that places the
    last three entries runs below deeper prefixes: at norms 1, 2 and 5 and
    eight seeded norms up to 260, every target some changemaker has, and the
    targets with z = length - 1 or length - 2 zeros.  Those are real only at
    norm 1, (0, ..., 0, 1), and at norms 2 and 5, (0, ..., 0, 1, 1) and
    (0, ..., 0, 1, 2)."""
    rng = random.Random(17)
    checked = high_z = 0
    for length in range(9, 13):
        for norm in [1, 2, 5] + rng.sample(range(6, 261), 8):
            cms = list(la._changemakers(length, norm))
            counts = {c: la._complement_short_counts(c)[:2] for c in cms}
            targets = set(counts.values())
            for z in (length - 1, length - 2):
                targets.update((2 * z, 4 * comb(z, 2) + 2 * pairs) for pairs in (0, 1))
            for target in targets:
                got = list(la._changemakers(length, norm, target))
                assert got == [c for c in cms if counts[c] == target], (length, norm, target)
                checked += 1
                high_z += target[0] >= 2 * length - 4 and bool(got)
    assert (checked, high_z) == (1648, 12)


def lattice_search_forms():
    """The (gram, all_witnesses) jobs of the lattice-search benchmark, in its
    order; it queries each at p = |det|.  Fig3-black forms (four obstructed,
    then two with an early witness), then L35-white."""
    return [(GD if params is None else go.goeritz_matrix(go.fig3_black_graph(*params)), all_w)
            for params, all_w in lattice_search_jobs()]


def test_count_filter_agrees_with_unfiltered_search(monkeypatch):
    """The filtered search against the slow path that tries every sigma, with
    neither the norm <= 3 nor the norm-4 counts, on the 148 census forms and
    the seven forms of the lattice-search benchmark (GD at 226)."""
    cases = [
        (go.family_2odd_2odd(r.a, r.b), r.n) for r in mf.census_2odd(341)
    ]
    assert len(cases) == 148
    cases += [(gram, abs(gram.determinant())) for gram, _ in lattice_search_forms()]

    def search():
        return [la.changemaker_obstruction(g, p, all_witnesses=True) for g, p in cases]

    filtered = search()
    every_sigma = la._changemakers
    monkeypatch.setattr(la, "_counts_admit", lambda facts, sigma, fits, norm4=None: True)
    monkeypatch.setattr(
        la, "_changemakers", lambda length, norm, short=None: every_sigma(length, norm)
    )
    assert search() == filtered
    assert sum(r.status == "witness" for r in filtered) == 8


def test_norm4_count_after_first_failed_search(monkeypatch):
    """A lattice-search pass (the six fig3-black forms at p = |det|, then GD
    at 226 with all witnesses) runs 12 embedding searches and counts L's
    norm-4 vectors 5 times: once per query in which a search failed.  Before
    the norm-4 rule it ran 37 searches."""
    searches, tops = [], []
    first_embedding, vector_counts = la._first_embedding, la._vector_counts
    monkeypatch.setattr(
        la, "_first_embedding", lambda g, f, s: searches.append(s) or first_embedding(g, f, s)
    )
    monkeypatch.setattr(
        la, "_vector_counts", lambda u, top: tops.append(top) or vector_counts(u, top)
    )
    results = [la.changemaker_obstruction(gram, abs(gram.determinant()), all_witnesses=all_w)
               for gram, all_w in lattice_search_forms()]
    assert sum(r.status == "witness" for r in results) == 3
    assert (len(searches), tops.count(4)) == (12, 5)


def test_enumeration_digest():
    """Locks _changemakers' output, in order: untargeted for every length 1..10
    and norm 1..300, and at every (norm-1, norm-2) target that one of those
    changemakers has, or that has z = length - 1 or length - 2 zeros and at
    most one block pair (most of these have no changemaker; they catch a
    nonzero entry before position z, or a zero at it); then the numbers
    yielded at p = |det| with the form's own counts as target, for the six
    lattice-search forms, GD (p = 226) and fig3-black(3,4,3,4) (p = 2703)."""
    every, targeted = hashlib.sha256(), hashlib.sha256()
    sizes = [0, 0]
    for length in range(1, 11):
        high_z = [
            (2 * z, 4 * comb(z, 2) + 2 * pairs)
            for z in range(max(length - 2, 0), length)
            for pairs in (0, 1)
        ]
        for norm in range(1, 301):
            cms = list(la._changemakers(length, norm))
            every.update(repr(cms).encode())
            sizes[0] += len(cms)
            for target in sorted({la._complement_short_counts(c)[:2] for c in cms}.union(high_z)):
                got = list(la._changemakers(length, norm, target))
                targeted.update(repr((target, got)).encode())
                sizes[1] += 1
    assert (sizes, every.hexdigest(), targeted.hexdigest()) == (
        [101897, 35511],
        "7dd203446352e57005185719f8514f9cc6ad8862005d2f37b20e24ce66bb75a7",
        "1a96672822ca2ab645495d275957854cc9cdf0db22d43791cab065d243851c41",
    )
    grams = [gram for gram, _ in lattice_search_forms()]
    grams.append(go.goeritz_matrix(go.fig3_black_graph(3, 4, 3, 4)))
    yielded = []
    for gram in grams:
        facts = la._search_facts(gram)
        yielded.append(len(list(la._changemakers(gram.rank + 1, facts.det, facts.short))))
    assert yielded == [11, 40, 186, 220, 2, 2, 9, 1122]


def test_fig3_black_grid_verdicts():
    """The changemaker verdicts of 45 fig3-black forms at p = |det|: every
    (a0, b0) in 1..3 with 2 <= a1 <= b1 <= 4, a1 = b1 = 2 excluded."""
    verdicts = {}
    for a0, b0 in itertools.product(range(1, 4), repeat=2):
        for a1, b1 in itertools.combinations_with_replacement(range(2, 5), 2):
            if a1 == b1 == 2:
                continue
            gram = go.goeritz_matrix(go.fig3_black_graph(a0, a1, b0, b1))
            res = la.changemaker_obstruction(gram, abs(gram.determinant()))
            verdicts[a0, a1, b0, b1] = res.first().sigma.entries if res.witnesses else None
    assert len(verdicts) == 45
    assert {k: v for k, v in verdicts.items() if v is not None} == {
        (1, 2, 2, 3): (1, 1, 2, 2, 3, 5, 9)
    }


# ---------------------------------------------------------------------------
# Gram text format


def test_gram_text_comments_and_blanks():
    text = "# rank\n2\n\n-2 1\n# a row\n1 -2\n"
    g = la.parse_gram_text(text)
    assert g.entries == ((-2, 1), (1, -2))


def test_gram_text_errors():
    with pytest.raises(ValueError):
        la.parse_gram_text("")
    with pytest.raises(ValueError):
        la.parse_gram_text("x\n1")
    with pytest.raises(ValueError):
        la.parse_gram_text("2\n1 0\n")
    with pytest.raises(ValueError):
        la.parse_gram_text("1\n1 0\n")

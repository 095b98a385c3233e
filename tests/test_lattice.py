import copy
import hashlib
import itertools
import json
import pickle
import random
from math import comb, gcd, isqrt
from operator import eq

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
            la.GramMatrix(rows)


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        la.GramMatrix([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        la.GramMatrix([[1, 2, 3], [2, 1, 1]])  # not square


def test_form_from_lists_is_the_form_from_tuples():
    """The constructor stores any rows as tuples, so a form built from lists
    equals, hashes like and answers queries like the same form built from
    tuples."""
    lists = la.GramMatrix([[-2, 1], [1, -2]])
    tuples = la.GramMatrix(((-2, 1), (1, -2)))
    assert lists.entries == tuples.entries == ((-2, 1), (1, -2))
    assert lists == tuples and hash(lists) == hash(tuples)
    assert la.changemaker_obstruction(lists, 3) == la.changemaker_obstruction(tuples, 3)


def test_negative_definite():
    assert GD.is_negative_definite()
    assert go.family_2odd_2odd(1, 1).is_negative_definite()
    for rows in ([[0]], [[1]], [[-1, 2], [2, -1]], [[-1, 1], [1, -1]]):
        with pytest.raises(ValueError, match="Gram matrix must be negative definite"):
            la.GramMatrix(rows)


def test_gram_entries_must_be_ints():
    """No entry is truncated or taken as a float: truncating -2.7 to -2
    would build a form of determinant 3, and -2.5 has a float determinant
    that changemaker_obstruction cannot use."""
    with pytest.raises(ValueError, match="entries must be ints"):
        la.GramMatrix([[-2.7, 1], [1, -2]])
    with pytest.raises(ValueError, match="entries must be ints"):
        la.GramMatrix(((-2.5, 1.0), (1.0, -2.0)))


@pytest.mark.parametrize(
    "rebuild", [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copied_form_keeps_its_elimination(rebuild):
    """Copy and pickle rebuild a form through its constructor, which makes
    its elimination anew; the copy's vector counts are its own."""
    want = la.changemaker_obstruction(GD, 226, all_witnesses=True)
    form = rebuild(GD)
    la._short_counts.cache_clear()
    assert form.determinant() == 226
    assert la.changemaker_obstruction(form, 226, all_witnesses=True) == want


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
        la.GramMatrix(rows)


# ---------------------------------------------------------------------------
# embeddings


def test_embed_rank_one():
    emb = la.embed_in_complement(
        la.GramMatrix([[-1]]), la.Changemaker((0, 1))
    )
    assert emb is not None
    assert emb.vectors == ((1, 0),)
    assert emb.verifies(la.GramMatrix([[-1]]))


def test_rank_30_search_stays_within_recursion_limit(monkeypatch):
    """The search takes two Python frames per vector, fill and place.  A
    frame per coordinate of each vector would need about 30 * 33 frames
    here, near the default limit of 1000, and the trivial witness would
    raise RecursionError.  The witness is the first sigma searched, so L's norm-4 vectors, which
    take over ten times as long to count as those of norm <= 3, are never
    counted."""
    vector_counts = la._vector_counts

    def norm3_only(u, top):
        if top > 3:
            raise AssertionError("norm-4 vectors counted before a search failed")
        return vector_counts(u, top)

    monkeypatch.setattr(la, "_vector_counts", norm3_only)
    rank = 30
    minus_i = la.GramMatrix(
        [[-1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    )
    res = la.changemaker_obstruction(minus_i, 1)
    assert res.status == "witness"
    assert res.first().sigma.entries == (0,) * rank + (1,)
    assert res.first().verifies(minus_i)


def test_every_search_leaf_verifies(monkeypatch):
    """A completed vector has its norm, pairings and orthogonality with no
    test of its own, so the search's one check, Embedding.verifies, passes
    at every leaf it reaches.  -I of rank 10 fills every vector from the
    norm-1 list; the lattice-search forms mix lists and coordinate search."""
    verifies = la.Embedding.verifies

    def must_verify(emb, gram):
        assert verifies(emb, gram), emb
        return True

    monkeypatch.setattr(la.Embedding, "verifies", must_verify)
    minus_i = la.GramMatrix([[-(i == j) for j in range(10)] for i in range(10)])
    assert la.changemaker_obstruction(minus_i, 1).status == "witness"
    results = [la.changemaker_obstruction(gram, abs(gram.determinant()), all_witnesses=all_w)
               for gram, all_w in lattice_search_forms()]
    assert sum(r.status == "witness" for r in results) == 3


def test_known_basis_verifies_bit_exactly():
    emb = la.Embedding(SIGMA_226, BASIS_226)
    assert emb.verifies(GD)
    for v in BASIS_226:
        assert sum(a * b for a, b in zip(v, SIGMA_226.entries)) == 0


def test_verifies_rejects_bad_embeddings():
    emb = la.Embedding(SIGMA_226, BASIS_226)
    wrong_gram = [list(r) for r in GD.entries]
    wrong_gram[0][0] -= 1
    assert not emb.verifies(la.GramMatrix(wrong_gram))
    # (1, 0, ..., 0) is not orthogonal to sigma
    tilted = ((1, 0, 0, 0, 0, 0, 0),) + BASIS_226[1:]
    assert not la.Embedding(SIGMA_226, tilted).verifies(GD)
    # the right Gram and orthogonality, but sigma = 0 spans nothing
    minus_one = la.GramMatrix([[-1]])
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
        la.changemaker_obstruction(la.GramMatrix([[1]]), 5)


def test_obstruction_rejects_nonpositive_norm():
    for p in (0, -226):
        with pytest.raises(ValueError, match="norm p must be positive"):
            la.changemaker_obstruction(GD, p)


def test_nonpositive_norm_rejected_before_gram_facts(monkeypatch):
    """p < 1 is refused before any vector count, which can run for a minute
    on a large form, and before any elimination."""

    def no_counts(u, top):
        raise AssertionError("vectors counted")

    monkeypatch.setattr(la, "_vector_counts", no_counts)
    monkeypatch.setattr(la, "_positive_elimination", no_elimination)
    la._short_counts.cache_clear()
    with pytest.raises(ValueError, match="norm p must be positive"):
        la.changemaker_obstruction(GD, 0)


def test_embed_length_mismatch():
    with pytest.raises(ValueError):
        la.embed_in_complement(GD, la.Changemaker((1, 1)))


def test_zero_sigma_embeds_nothing():
    """The zero changemaker spans nothing, so nothing embeds in its
    complement with full rank; its norm 0 never reaches the index test,
    which divides by it."""
    assert la.embed_in_complement(GD, la.Changemaker((0,) * 7)) is None


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
            g = la.GramMatrix(
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


def test_gram_facts_computed_once_per_query(monkeypatch):
    """GD at 226 reads the elimination made when GD was built, and counts
    L's vectors of norm <= 3 once for all its changemakers."""
    tops = []
    vector_counts = la._vector_counts
    monkeypatch.setattr(la, "_positive_elimination", no_elimination)
    monkeypatch.setattr(
        la, "_vector_counts", lambda u, top: tops.append(top) or vector_counts(u, top)
    )
    la._short_counts.cache_clear()
    assert len(la.changemaker_obstruction(GD, 226, all_witnesses=True).witnesses) >= 1
    assert tops.count(3) == 1


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
    return la.GramMatrix(
        [[-sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    )


def sublattice(gram, i, index=2):
    """The Gram matrix of the sublattice with basis vector i times `index`."""
    c = [index if k == i else 1 for k in range(gram.rank)]
    return la.GramMatrix(
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
    enumerated sigma, and a query enumerates exactly when an index exists and
    it is above 1 or the linking form passes.  The linking form decides one
    case, fig3-black(2,2,2,2) at 99."""
    calls = []
    changemakers = la._changemakers
    monkeypatch.setattr(la, "_changemakers", lambda *a: calls.append(a) or changemakers(*a))
    decided = []
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
            fits = la._index_fit(abs(form.determinant()), p)
            admits = fits is not eq or la._linking_form_admits(form)
            assert bool(calls) == (fits is not None and admits), (form, p)
            if fits is not None and not admits:
                decided.append((form, p))
    assert decided == [(go.family_2odd_2odd(2, 2), 99)]


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
                got = la._complement_counts(sigma.entries)
                assert tuple(itertools.islice(got, 3)) == (want[1], want[2], want[3]), sigma
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
                assert list(la._complement_counts(s))[3] == want, s
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
        assert la._short_counts(gram) == (want[1], want[2], want[3]), gram
        assert la._vector_counts(gram._rows, 4) == want, gram
        assert abs(gram.determinant()) == det


def target_of(entries):
    """The complement's numbers of norm-1 and norm-2 vectors: the count
    target of _changemakers that these entries meet."""
    return tuple(itertools.islice(la._complement_counts(entries), 2))


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
            counts = {c: target_of(c) for c in cms}
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
    """The same oracle for lengths 9 to 12, where the last two entries are
    placed inline below deeper prefixes: at norms 1, 2 and 5 and
    eight seeded norms up to 260, every target some changemaker has, and the
    targets with z = length - 1 or length - 2 zeros.  Those are real only at
    norm 1, (0, ..., 0, 1), and at norms 2 and 5, (0, ..., 0, 1, 1) and
    (0, ..., 0, 1, 2)."""
    rng = random.Random(17)
    checked = high_z = 0
    for length in range(9, 13):
        for norm in [1, 2, 5] + rng.sample(range(6, 261), 8):
            cms = list(la._changemakers(length, norm))
            counts = {c: target_of(c) for c in cms}
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
    neither the linking form nor the norm <= 3 nor the norm-4 counts, on the
    148 census forms and the seven forms of the lattice-search benchmark (GD
    at 226)."""
    cases = [
        (go.family_2odd_2odd(r.a, r.b), r.n) for r in mf.census_2odd(341)
    ]
    assert len(cases) == 148
    cases += [(gram, abs(gram.determinant())) for gram, _ in lattice_search_forms()]

    def search():
        return [la.changemaker_obstruction(g, p, all_witnesses=True) for g, p in cases]

    filtered = search()
    every_sigma = la._changemakers
    monkeypatch.setattr(la, "_linking_form_admits", lambda gram: True)
    monkeypatch.setattr(la, "_counts_admit", lambda counts, sigma, fits: True)
    monkeypatch.setattr(
        la, "_changemakers", lambda length, norm, short=None: every_sigma(length, norm)
    )
    assert search() == filtered
    assert sum(r.status == "witness" for r in filtered) == 8


def search_digest_forms():
    """The seven lattice-search forms, then the 148 census forms."""
    return [gram for gram, _ in lattice_search_forms()] + [
        go.family_2odd_2odd(r.a, r.b) for r in mf.census_2odd(341)
    ]


def test_first_embedding_digest():
    """Locks the first embedding, or None, that _first_embedding finds for
    every sigma of length rank + 1 and norm |det| on the search-digest
    forms: 6,963 searches, unfiltered, 8 of them with an embedding."""
    locked = []
    for gram in search_digest_forms():
        for sigma in la._changemakers(gram.rank + 1, abs(gram.determinant())):
            emb = la._first_embedding(gram, sigma)
            locked.append([list(sigma), emb and [list(v) for v in emb.vectors]])
    digest = hashlib.sha256(json.dumps(locked).encode()).hexdigest()
    assert (len(locked), sum(e is not None for _, e in locked), digest) == (
        6963, 8, "a1be8efc11246c609854d61d84f5f49dd8a378c090f25d3bada2c7351f7dbbe2",
    )


def index1_cases():
    """(gram, sigma) for each sigma admitted at index 1 (p = |det|) on the
    search-digest forms, which have no vector of norm 1 and so admit no
    sigma with a zero entry, then on the complements of four such sigma."""
    zeros = map(la.Changemaker, [(0, 1, 1, 2, 4, 4), (0, 1, 1, 1, 2, 3, 3),
                                 (0, 0, 1, 1, 2, 2, 5), (0, 0, 0, 1, 1, 3, 5)])
    complements = [complement_gram(random.Random(s.norm), s) for s in zeros]
    cases = []
    for gram in search_digest_forms() + complements:
        counts = la._short_counts(gram)
        cases += [(gram, sigma) for sigma in
                  la._changemakers(gram.rank + 1, abs(gram.determinant()), counts)
                  if la._counts_admit(counts, sigma, eq)]
    return cases


def test_short_vectors_against_brute_force_and_counts():
    """For each of the 48 index-1 cases, the list of each norm k <= 3 holds
    exactly the x in {-1, 0, 1}^d of norm k orthogonal to sigma, in the
    search's order (reversed sigma, values high to low), and has L's count
    of norm k."""
    cases = index1_cases()
    for gram, sigma in cases:
        sig = sigma[::-1]
        want = {1: [], 2: [], 3: []}
        for x in itertools.product((1, 0, -1), repeat=len(sig)):
            k = sum(map(abs, x))  # the norm, as entries are 0 or +-1
            if 1 <= k <= 3 and sum(a * b for a, b in zip(x, sig)) == 0:
                want[k].append(x)
        for k in (1, 2, 3):
            assert la._short_vectors(sig, k) == want[k], (sigma, k)
            assert len(want[k]) == la._short_counts(gram)[k - 1], (sigma, k)
    assert len(cases) == 48


def test_lists_place_what_the_coordinate_search_places(monkeypatch):
    """For each index-1 case, the search with its lists finds the embedding,
    or None, that the coordinate search alone finds with the index hidden,
    and places as many vectors: the lists' filters cut every candidate that
    the coordinate search cuts.  Each placed vector builds one suffix-norm
    row with ``accumulate``, as do each search and each list."""
    rows, lists = [], []
    accumulate, short_vectors = la.accumulate, la._short_vectors
    monkeypatch.setattr(la, "accumulate", lambda *a, **k: rows.append(1) or accumulate(*a, **k))
    monkeypatch.setattr(
        la, "_short_vectors", lambda sig, k: lists.append(k) or short_vectors(sig, k)
    )
    cases = index1_cases()

    def search():
        rows.clear()
        lists.clear()
        found = [la._first_embedding(gram, sigma) for gram, sigma in cases]
        return found, len(rows) - len(lists) - len(cases), len(lists)

    found, placed, listed = search()
    monkeypatch.setattr(la.GramMatrix, "determinant", lambda gram: 0)
    assert search() == (found, placed, 0)
    assert (len(cases), sum(e is not None for e in found), placed, listed) == (48, 12, 525, 86)


def test_short_vector_lists_only_at_index_1_and_norms_to_3(monkeypatch):
    """A lattice-search pass lists only norms 1 to 3, before and after its
    count widens to norm 4; the index-2 and index-3 sublattice queries of
    the builtin forms search, with vectors of norm <= 3, but list nothing."""
    events, searches = [], []
    short_vectors, vector_counts = la._short_vectors, la._vector_counts
    first_embedding = la._first_embedding
    monkeypatch.setattr(
        la, "_short_vectors", lambda sig, k: events.append(("list", k)) or short_vectors(sig, k)
    )
    monkeypatch.setattr(
        la, "_vector_counts", lambda u, top: events.append(("count", top)) or vector_counts(u, top)
    )
    monkeypatch.setattr(
        la, "_first_embedding", lambda g, s: searches.append(s) or first_embedding(g, s)
    )
    for gram, all_w in lattice_search_forms():
        la.changemaker_obstruction(gram, abs(gram.determinant()), all_witnesses=all_w)
    widened = events.index(("count", 4))
    listed = [k for kind, k in events if kind == "list"]
    assert set(listed) == {2, 3}
    assert ("list", 2) in events[widened:] and ("list", 3) in events[widened:]
    events.clear()
    searches.clear()
    for gram in (GD, *(go.family_2odd_2odd(a, b) for a, b in ((1, 1), (1, 2), (2, 2)))):
        for index in (2, 3):
            la.changemaker_obstruction(
                sublattice(gram, 0, index), abs(gram.determinant()), all_witnesses=True
            )
    assert len(searches) == 58
    assert not [e for e in events if e[0] == "list"]


def test_norm4_count_after_first_failed_search(monkeypatch):
    """A lattice-search pass (the six fig3-black forms at p = |det|, then GD
    at 226 with all witnesses) runs 6 embedding searches and counts L's
    norm-4 vectors once: once per query in which a search failed.  The
    linking form decides the four obstructed forms before any search;
    without it the pass runs 12 searches and 5 norm-4 counts, and before the
    norm-4 rule it ran 37 searches."""
    searches, tops = [], []
    first_embedding, vector_counts = la._first_embedding, la._vector_counts
    monkeypatch.setattr(
        la, "_first_embedding", lambda g, s: searches.append(s) or first_embedding(g, s)
    )
    monkeypatch.setattr(
        la, "_vector_counts", lambda u, top: tops.append(top) or vector_counts(u, top)
    )

    def work():
        searches.clear()
        tops.clear()
        results = [la.changemaker_obstruction(gram, abs(gram.determinant()), all_witnesses=all_w)
                   for gram, all_w in lattice_search_forms()]
        assert sum(r.status == "witness" for r in results) == 3
        return len(searches), tops.count(4)

    assert work() == (6, 1)
    monkeypatch.setattr(la, "_linking_form_admits", lambda gram: True)
    assert work() == (12, 5)


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
            for target in sorted({target_of(c) for c in cms}.union(high_z)):
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
        det = abs(gram.determinant())
        yielded.append(len(list(la._changemakers(gram.rank + 1, det, la._short_counts(gram)))))
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
# the linking-form filter


def fig3_black(a0, a1, b0, b1):
    return go.goeritz_matrix(go.fig3_black_graph(a0, a1, b0, b1))


def test_linking_form_is_the_residue_test():
    """On fig3-black(a0, a1, b0, b1), 1 <= a0, b0 <= 8, at p = |det|, the
    linking form passes exactly when the residue test of the splice of
    T(a0 a1 + 1, a1) and T(b0 b1 + 1, b1) leaves slope -n open.  On 30 of the
    512 forms the last cofactor shares a prime with p, and the other
    cofactors obstruct 26 of them."""
    general = decided = 0
    for a1, b1 in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5), (3, 5)):
        for a0, b0 in itertools.product(range(1, 9), repeat=2):
            form = fig3_black(a0, a1, b0, b1)
            admits = la._linking_form_admits(form)
            y = mf.Splice.of(a0 * a1 + 1, a1, b0 * b1 + 1, b1)
            _, minus = mf._integral_obstructions(y, (1, -1))
            assert abs(form.determinant()) == y.h1_order()
            assert admits == (not minus.obstructed), (a0, a1, b0, b1)
            if gcd(form._rows[-2][-2], y.h1_order()) > 1:
                general += 1
                decided += not admits
    assert (general, decided) == (30, 26)


def test_every_witness_passes_the_linking_form(monkeypatch):
    """The search without the linking form, at p = |det|, on GD, the six
    fig3-black forms of the lattice-search benchmark and the 148 census
    forms, and on the sublattices of index 2 and 3 of each: each of its 8
    witnesses (GD, two benchmark forms, five census forms) passes the linking
    form, and a form it rejects has no witness."""
    admits = la._linking_form_admits
    monkeypatch.setattr(la, "_linking_form_admits", lambda gram: True)
    grams = [GD, *(fig3_black(*params) for params, _ in lattice_search_jobs() if params)]
    grams += [go.family_2odd_2odd(r.a, r.b) for r in mf.census_2odd(341)]
    assert len(grams) == 155
    witnesses = rejected = 0
    for gram in grams:
        for form in (gram, sublattice(gram, 0, 2), sublattice(gram, 0, 3)):
            res = la.changemaker_obstruction(form, abs(form.determinant()), all_witnesses=True)
            if res.witnesses:
                assert admits(form), form
                witnesses += 1
            else:
                rejected += not admits(form)
    assert (witnesses, rejected) == (8, 298)


def test_linking_form_decides_hard_forms(monkeypatch):
    """fig3-black(3,4,3,4) at 2703, (3,5,3,5) at 6399 and (2,6,3,6) at 8891,
    whose searches took 0.15 s, 2.5 s and 20.7 s, are obstructed with no
    changemaker enumerated; so are -diag(3, 3) at 9 and -diag(1, 2, 2) at 4,
    whose discriminant groups are not cyclic.  The first is also obstructed
    by the search."""
    hard = [(fig3_black(3, 4, 3, 4), 2703), (fig3_black(3, 5, 3, 5), 6399),
            (fig3_black(2, 6, 3, 6), 8891)]
    hard += [(la.GramMatrix([[-3, 0], [0, -3]]), 9),
             (la.GramMatrix([[-1, 0, 0], [0, -2, 0], [0, 0, -2]]), 4)]
    changemakers = la._changemakers
    monkeypatch.setattr(la, "_changemakers", None)  # calling it raises TypeError
    for gram, p in hard:
        assert abs(gram.determinant()) == p
        assert la.changemaker_obstruction(gram, p).obstructed, p
    monkeypatch.setattr(la, "_changemakers", changemakers)
    monkeypatch.setattr(la, "_linking_form_admits", lambda gram: True)
    assert la.changemaker_obstruction(*hard[0]).obstructed


def test_linking_form_passes_past_64_bits():
    """numtheory proves primes only up to 2^63 - 1; a larger p passes."""
    big = la.GramMatrix([[-(2**63 + 1)]])
    assert la._linking_form_admits(big)


def test_one_elimination_per_query(monkeypatch):
    """Each form is eliminated once, where it is built: census_2odd(10**4)
    eliminates its 8,463 forms once each.  A lattice-search pass on built
    forms eliminates no form again; the one elimination it runs is a
    linking-form cofactor, of rank n - 1, for the fifth form (rank 6 at
    p = 125).  The four obstructed lattice-search forms, decided by the
    linking form, count no vectors."""
    forms = [(gram, abs(gram.determinant()), all_w) for gram, all_w in lattice_search_forms()]
    eliminations, counts = [], []
    elimination, vector_counts = la._positive_elimination, la._vector_counts
    monkeypatch.setattr(
        la, "_positive_elimination", lambda e: eliminations.append(e) or elimination(e)
    )
    monkeypatch.setattr(
        la, "_vector_counts", lambda u, top: counts.append(top) or vector_counts(u, top)
    )
    la._short_counts.cache_clear()
    cofactors = []
    for i, (gram, p, all_w) in enumerate(forms):
        eliminations.clear()
        res = la.changemaker_obstruction(gram, p, all_witnesses=all_w)
        assert res.obstructed == (i < 4)
        if i < 4:
            assert counts == [], i
        assert all(len(e) == gram.rank - 1 for e in eliminations), i
        cofactors.append(len(eliminations))
    assert cofactors == [0, 0, 0, 0, 1, 0, 0]
    eliminations.clear()
    assert len(mf.census_2odd(10**4)) == 8463
    assert len(eliminations) == 8463


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

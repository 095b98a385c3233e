import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import GD

from obstruct import goeritz as go
from obstruct import lattice as la


def test_single_and_double_edge():
    g1 = go.CheckerboardGraph(2, ((0, 1, 1),))
    assert go.goeritz_matrix(g1).entries == ((-1,),)
    g2 = go.CheckerboardGraph(2, ((0, 1, 2),))
    assert go.goeritz_matrix(g2).entries == ((-2,),)


def test_graph_validation():
    for edge in ((0, 0, 1), (1, 0, 1), (0, 1, 0), (0, 2, 1)):  # loop, u > v, no crossing, range
        with pytest.raises(ValueError, match="need 0 <= u < v < 2 and crossings >= 1"):
            go.CheckerboardGraph(2, (edge,))
    with pytest.raises(ValueError, match="must be connected"):
        go.goeritz_matrix(go.CheckerboardGraph(3, ((0, 1, 1),)))


def test_l35_white_graph_matrix():
    g = go.l35_white_graph()
    assert g.vertex_count == 7
    assert go.goeritz_matrix(g) == GD


def test_det_h1_order():
    assert go.det_h1_order(la.GramMatrix([[-1]])) == 1
    assert go.det_h1_order(GD) == 226
    assert go.det_h1_order(go.family_2odd_2odd(1, 1)) == 35
    with pytest.raises(ValueError, match="negative definite"):
        go.det_h1_order(la.GramMatrix([[0]]))


def test_family_matrix_entries():
    # literal matrices: these pin the transcription of fig3_black_graph
    assert go.family_2odd_2odd(1, 1).entries == (
        (-3, 1, 0, 1, 0),
        (1, -3, 1, 0, 0),
        (0, 1, -2, 1, 0),
        (1, 0, 1, -3, 1),
        (0, 0, 0, 1, -2),
    )
    assert go.family_2odd_2odd(2, 3).entries == (
        (-3, 1, 0, 1, 0),
        (1, -3, 1, 0, 0),
        (0, 1, -4, 3, 0),
        (1, 0, 3, -5, 1),
        (0, 0, 0, 1, -3),
    )
    with pytest.raises(ValueError):
        go.family_2odd_2odd(0, 1)


def test_determinants_match_splice_homology():
    # the Goeritz determinant presents H1 of the branched double cover,
    # which is the corresponding splice
    from obstruct.manifolds import Splice

    m = go.goeritz_matrix(go.l35_white_graph())
    assert go.det_h1_order(m) == Splice.of(3, 5, -3, 5).h1_order() == 226
    for a in range(1, 8):
        for b in range(1, 8):
            assert (
                go.det_h1_order(go.family_2odd_2odd(a, b))
                == Splice.of(2, 2 * a + 1, 2, 2 * b + 1).h1_order()
            )


def test_family_determinant_identity():
    for a in range(1, 21):
        for b in range(1, 21):
            g = go.family_2odd_2odd(a, b)
            assert go.det_h1_order(g) == 4 * (2 * a + 1) * (2 * b + 1) - 1
            assert g.is_negative_definite()


def test_fig3_black_census_case_equals_family():
    for a in (1, 2, 5):
        for b in (1, 3, 7):
            g = go.fig3_black_graph(a, 2, b, 2)
            assert g.vertex_count == 6
            assert go.goeritz_matrix(g) == go.family_2odd_2odd(a, b)


def test_fig3_black_determinant_identity():
    for a0 in range(1, 5):
        for a1 in range(2, 6):
            for b0 in range(1, 5):
                for b1 in range(2, 6):
                    g = go.fig3_black_graph(a0, a1, b0, b1)
                    assert g.vertex_count == a1 + b1 + 2
                    p, q = a0 * a1 + 1, a1
                    r, s = b0 * b1 + 1, b1
                    assert go.det_h1_order(go.goeritz_matrix(g)) == abs(
                        p * q * r * s - 1
                    ), (a0, a1, b0, b1)


def test_goeritz_forms_digest():
    """Locks every entry of 1,817 forms, in order: the fig3-black grid
    1 <= a0, b0 <= 4 and 2 <= a1, b1 <= 5 (256 forms), L35-white, and
    family_2odd_2odd(a, b) for 1 <= a < 40, a <= b < 60 (1,560 forms)."""
    grid = itertools.product(range(1, 5), range(2, 6), range(1, 5), range(2, 6))
    forms = [go.goeritz_matrix(go.fig3_black_graph(*params)) for params in grid]
    forms.append(go.goeritz_matrix(go.l35_white_graph()))
    forms += [go.family_2odd_2odd(a, b) for a in range(1, 40) for b in range(a, 60)]
    digest = hashlib.sha256(json.dumps([f.entries for f in forms]).encode()).hexdigest()
    assert (len(forms), digest) == (
        1817, "ae444617642b472d6375a5c549ef29698daa4925334e1f4c5c68ba5afc20de17"
    )


def test_fig3_black_parameter_validation():
    with pytest.raises(ValueError):
        go.fig3_black_graph(0, 2, 1, 2)
    with pytest.raises(ValueError):
        go.fig3_black_graph(1, 1, 1, 2)


def connected_multigraph(rng, nv, extra):
    """Random spanning tree plus `extra` random non-loop edges, one crossing
    each."""
    edges = []
    for v in range(1, nv):
        edges.append((rng.randrange(v), v, 1))
    for _ in range(extra):
        u = rng.randrange(nv)
        v = rng.randrange(nv)
        if u != v:
            edges.append((min(u, v), max(u, v), 1))
    return go.CheckerboardGraph(nv, tuple(edges))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10), st.integers())
def test_goeritz_symmetric_negative_definite(nv, extra, seed):
    g = connected_multigraph(random.Random(seed), nv, extra)
    m = go.goeritz_matrix(g)
    assert m.rank == nv - 1
    assert m.is_negative_definite()
    d0 = go.det_h1_order(m)
    for base in range(1, nv):
        # relabel so that vertex `base` becomes the basepoint 0
        swap = {0: base, base: 0}
        ends = [(swap.get(u, u), swap.get(v, v)) for u, v, _ in g.edges]
        edges = tuple((min(u, v), max(u, v), 1) for u, v in ends)
        relabeled = go.goeritz_matrix(go.CheckerboardGraph(nv, edges))
        assert go.det_h1_order(relabeled) == d0


def reaches_every_vertex(nv, edges):
    """Search from vertex 0: the oracle for deciding connectivity by whether
    the Goeritz form is negative definite."""
    seen = {0}
    while True:
        reached = {v for u, v, _ in edges if u in seen} | {u for u, v, _ in edges if v in seen}
        if reached <= seen:
            return len(seen) == nv
        seen |= reached


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 3)), max_size=9),
)
def test_goeritz_matrix_raises_exactly_when_disconnected(nv, triples):
    edges = tuple((min(u, v), max(u, v), c) for u, v, c in triples if u != v and max(u, v) < nv)
    graph = go.CheckerboardGraph(nv, edges)
    if reaches_every_vertex(nv, edges):
        assert go.goeritz_matrix(graph).is_negative_definite()
    else:
        with pytest.raises(ValueError, match="must be connected"):
            go.goeritz_matrix(graph)

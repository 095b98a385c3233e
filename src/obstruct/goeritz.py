"""Goeritz matrices of reduced alternating diagrams, via checkerboard graphs.

A diagram is ingested as its checkerboard (white or black) graph: one vertex
per region, one edge per crossing between the adjacent regions.  For a
reduced alternating diagram the graph is connected and loop-free, and the
Goeritz matrix obtained by deleting a basepoint vertex is negative definite;
its determinant presents the first homology of the branched double cover.

Two builtin diagram families are provided:

* ``L35-white`` -- the 7-region white graph of an alternating diagram whose
  branched double cover is the splice of the (3,5) and (-3,5) torus knot
  exteriors; its 6x6 Goeritz matrix has determinant 226.
* ``fig3-black(a0,a1,b0,b1)`` -- black graphs of alternating diagrams whose
  branched double covers are the splices for p/q = a0 + 1/a1 and
  r/s = b0 + 1/b1; every instance satisfies |det| = |pqrs - 1|, which guards
  the transcription of the twist regions.
"""

from __future__ import annotations

from ._record import Record
from .lattice import GramMatrix


class CheckerboardGraph(Record):
    """A connected loop-free multigraph on vertices 0..vertex_count-1.

    Edges are stored as a sorted tuple of ordered pairs; multiplicity is
    given by repetition.
    """

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: tuple[tuple[int, int], ...]) -> None:
        if vertex_count < 1:
            raise ValueError("need at least one vertex")
        edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u}: diagram is not reduced")
        self._set(vertex_count, edges)
        if not self._connected():
            raise ValueError("checkerboard graph must be connected")

    def _connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count


def goeritz_matrix(graph: CheckerboardGraph) -> GramMatrix:
    """Goeritz matrix with basepoint vertex 0 deleted: row i - 1 belongs to
    vertex i, with diagonal -deg(v_i) and off-diagonal the number of edges
    between v_i and v_j."""
    n = graph.vertex_count - 1
    rows = [[0] * n for _ in range(n)]
    for u, v in graph.edges:  # sorted pairs without loops, so u < v
        rows[v - 1][v - 1] -= 1
        if u:
            rows[u - 1][u - 1] -= 1
            rows[u - 1][v - 1] += 1
            rows[v - 1][u - 1] += 1
    return GramMatrix.from_rows(rows)


def det_h1_order(gram: GramMatrix) -> int:
    """|det G|, the order of the homology group the matrix presents.  Raises
    ValueError unless G is negative definite."""
    return abs(gram.determinant())


def l35_white_graph() -> CheckerboardGraph:
    """White graph of the 12-crossing alternating diagram for the link whose
    branched double cover splices the (3,5) and (-3,5) torus knot exteriors.

    Regions are labeled 0..6 with 0 the basepoint; the Goeritz matrix of
    this graph is the 6x6 matrix with determinant 226.
    """
    edges = (
        (0, 1),
        (0, 5),
        (1, 2),
        (1, 2),
        (1, 3),
        (2, 3),
        (2, 5),
        (2, 6),
        (3, 4),
        (3, 4),
        (3, 6),
        (4, 5),
    )
    return CheckerboardGraph(7, edges)


def fig3_black_graph(a0: int, a1: int, b0: int, b1: int) -> CheckerboardGraph:
    """Black graph of the alternating diagram for the splice determined by
    the continued fractions p/q = a0 + 1/a1 and r/s = b0 + 1/b1.

    Core vertices are 0..5; the two negative twist regions contribute chains
    with b1-2 and a1-2 extra vertices, so the graph has a1 + b1 + 2 vertices
    in total.  The transcription is guarded by the determinant identity
    |det| = |pqrs - 1| (see tests), which pins it down uniquely among the
    candidate twist-region assignments.
    """
    if a0 < 1 or b0 < 1:
        raise ValueError("need a0, b0 >= 1")
    if a1 < 2 or b1 < 2:
        raise ValueError("need a1, b1 >= 2")
    edges: list[tuple[int, int]] = []
    edges += [(0, 1)] * (b1 - 1)  # b1-1 half-twists
    edges += [(1, 2)] * (a1 - 1)  # a1-1 half-twists
    edges += [(3, 4)] * b0
    edges += [(0, 5)] * a0
    edges += [(0, 2), (1, 4)]  # the two crossings joining the tangles
    nv = 6

    def chain(u: int, v: int, crossings: int) -> None:
        nonlocal nv
        prev = u
        for _ in range(crossings - 1):
            edges.append((prev, nv))
            prev = nv
            nv += 1
        edges.append((prev, v))

    chain(2, 3, b1 - 1)  # 1-b1 twist region
    chain(4, 5, a1 - 1)  # 1-a1 twist region
    return CheckerboardGraph(nv, tuple(edges))


def family_2odd_2odd(a: int, b: int) -> GramMatrix:
    """The 5x5 Goeritz form fig3-black(a,2,b,2), whose branched double cover
    splices the (2,2a+1) and (2,2b+1) torus knot exteriors;
    |det| = 4(2a+1)(2b+1) - 1."""
    return goeritz_matrix(fig3_black_graph(a, 2, b, 2))

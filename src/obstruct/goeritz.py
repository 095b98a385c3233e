"""Goeritz matrices of reduced alternating diagrams, via checkerboard graphs.

A diagram is ingested as its checkerboard (white or black) graph: one vertex
per region, one edge per twist region, weighted by its number of crossings,
between the two regions its crossings join.  For a reduced alternating
diagram the graph is connected and loop-free, and the Goeritz matrix
obtained by deleting a basepoint vertex is negative definite; its
determinant presents the first homology of the branched double cover.

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
    """A loop-free weighted graph on vertices 0..vertex_count-1, one edge
    per twist region.

    Edges are stored as a sorted tuple of ``(u, v, crossings)`` with
    u < v: the twist region's ``crossings`` crossings all join regions u
    and v.  Connectivity is checked where the form is built, by
    ``goeritz_matrix``.
    """

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: tuple[tuple[int, int, int], ...]) -> None:
        if vertex_count < 1:
            raise ValueError("need at least one vertex")
        edges = tuple(sorted(map(tuple, edges)))
        for u, v, crossings in edges:
            if not (0 <= u < v < vertex_count and crossings >= 1):
                raise ValueError(f"edge ({u},{v},{crossings}): need 0 <= u < v < "
                                 f"{vertex_count} and crossings >= 1")
        self._set(vertex_count, edges)


def goeritz_matrix(graph: CheckerboardGraph) -> GramMatrix:
    """Goeritz matrix with basepoint vertex 0 deleted: row i - 1 belongs to
    vertex i, with diagonal minus the crossings at v_i and off-diagonal the
    crossings between v_i and v_j.

    Raises ValueError unless the graph is connected, decided by whether G is
    negative definite, which GramMatrix checks where it is built: -G is the
    weighted Laplacian with the basepoint's row and column deleted.  The Laplacian's form is the sum over edges of
    crossings * (x_u - x_v)^2 >= 0, so -G is positive semidefinite, and by
    Kirchhoff's matrix-tree theorem det(-G) is the number of spanning trees
    weighted by the product of their crossings, which is positive exactly
    when the graph is connected.
    """
    n = graph.vertex_count - 1
    rows = [[0] * n for _ in range(n)]
    for u, v, crossings in graph.edges:  # u < v, so v is not the basepoint
        rows[v - 1][v - 1] -= crossings
        if u:
            rows[u - 1][u - 1] -= crossings
            rows[u - 1][v - 1] += crossings
            rows[v - 1][u - 1] += crossings
    try:
        return GramMatrix(rows)
    except ValueError:
        raise ValueError("checkerboard graph must be connected") from None


def det_h1_order(gram: GramMatrix) -> int:
    """|det G|, the order of the homology group the matrix presents."""
    return abs(gram.determinant())


def l35_white_graph() -> CheckerboardGraph:
    """White graph of the 12-crossing alternating diagram for the link whose
    branched double cover splices the (3,5) and (-3,5) torus knot exteriors.

    Regions are labeled 0..6 with 0 the basepoint; the Goeritz matrix of
    this graph is the 6x6 matrix with determinant 226.
    """
    edges = (
        (0, 1, 1),
        (0, 5, 1),
        (1, 2, 2),
        (1, 3, 1),
        (2, 3, 1),
        (2, 5, 1),
        (2, 6, 1),
        (3, 4, 2),
        (3, 6, 1),
        (4, 5, 1),
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
    edges = [
        (0, 1, b1 - 1),
        (1, 2, a1 - 1),
        (3, 4, b0),
        (0, 5, a0),
        (0, 2, 1),  # the two crossings joining the tangles
        (1, 4, 1),
    ]
    nv = 6
    for u, v, crossings in ((2, 3, b1 - 1), (4, 5, a1 - 1)):  # the 1-b1 and 1-a1 regions
        chain = (u, *range(nv, nv + crossings - 1), v)
        edges += [(min(x, y), max(x, y), 1) for x, y in zip(chain, chain[1:])]
        nv += crossings - 1
    return CheckerboardGraph(nv, tuple(edges))


def family_2odd_2odd(a: int, b: int) -> GramMatrix:
    """The 5x5 Goeritz form fig3-black(a,2,b,2), whose branched double cover
    splices the (2,2a+1) and (2,2b+1) torus knot exteriors;
    |det| = 4(2a+1)(2b+1) - 1."""
    return goeritz_matrix(fig3_black_graph(a, 2, b, 2))

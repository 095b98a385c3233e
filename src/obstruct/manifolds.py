"""Torus knots, spliced torus-knot exteriors, Eudave-Munoz knots, and the
"is this manifold a Dehn surgery?" decision pipeline.

The central objects are the graph manifolds obtained by gluing two nontrivial
torus knot exteriors, sending the meridian of each side to the Seifert fiber
of the other.  Such a splice has cyclic first homology of order |abcd - 1|
and linking form values -cd/(abcd-1) and -ab/(abcd-1) on the two meridians.

Obstructions implemented here:

* non-integral slopes: the splice arises from a non-integral surgery on a
  knot if and only if it matches +/- the pattern
  ``splice(T(l, lm-1), T(2, -(2m-1)))``, in which case the knot is the
  Eudave-Munoz knot k(l, m, 0, 0) and the slope is half-integral;
* integral slopes: an n-surgery forces the linking-form residues to be
  squares mod |H_1|, so quadratic non-residues obstruct each sign;
* the changemaker lattice obstruction for -n, when a builtin Goeritz form
  for the splice is available.

Splice homeomorphism is decided only up to the symmetry group generated by
factor swap, the torus-knot identities T(a,b) = T(b,a) = T(-a,-b), and the
global mirror; verdicts that rely on a failed pattern match record that
assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import goeritz as _goeritz
from . import lattice as _lattice
from ._record import Record
from .numtheory import ResourceCapExceeded, _square_roots_mod, in_S, in_Sprime

MAX_CENSUS_PRODUCT = 10**4  # bounds the report's size (8,463 rows), not search time


# ---------------------------------------------------------------------------
# torus knots and splices


class TorusKnot(Record):
    """A torus knot, stored in canonical form.

    Nontrivial knots satisfy |p| > q >= 2 after using T(p,q) = T(q,p) =
    T(-p,-q); every trivial torus knot (either index of absolute value <= 1)
    normalizes to (1, 1) and is flagged by ``is_trivial``.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if gcd(abs(p), abs(q)) != 1:
            raise ValueError(f"torus knot indices must be coprime: ({p}, {q})")
        if min(abs(p), abs(q)) <= 1:
            p, q = 1, 1
        else:
            if abs(p) < abs(q):
                p, q = q, p
            if q < 0:
                p, q = -p, -q
        self._set(p, q)

    @property
    def is_trivial(self) -> bool:
        return self.q == 1

    @property
    def product(self) -> int:
        return self.p * self.q

    def mirror(self) -> "TorusKnot":
        if self.is_trivial:
            return self
        knot = object.__new__(TorusKnot)  # (-p, q) is canonical when (p, q) is
        knot._set(-self.p, self.q)
        return knot

    def representatives(self) -> tuple[tuple[int, int], ...]:
        """The four index pairs naming this knot."""
        p, q = self.p, self.q
        return ((p, q), (q, p), (-p, -q), (-q, -p))

    def __str__(self) -> str:
        return f"T({self.p},{self.q})"


class Splice(Record):
    """The union of two nontrivial torus knot exteriors glued meridian to
    Seifert fiber both ways."""

    __slots__ = ("first", "second")

    def __init__(self, first: TorusKnot, second: TorusKnot) -> None:
        if first.is_trivial or second.is_trivial:
            raise ValueError("both torus knots must be nontrivial")
        self._set(first, second)

    @staticmethod
    def of(a: int, b: int, c: int, d: int) -> "Splice":
        return Splice(TorusKnot(a, b), TorusKnot(c, d))

    def signed_h1(self) -> int:
        return self.first.product * self.second.product - 1

    def h1_order(self) -> int:
        return abs(self.signed_h1())

    def mirror(self) -> "Splice":
        return Splice(self.first.mirror(), self.second.mirror())

    def __str__(self) -> str:
        return f"splice({self.first},{self.second})"


# ---------------------------------------------------------------------------
# integral obstruction (linking form residues)


class IntegralObstruction(NamedTuple):
    """Residue test for realizing the splice by surgery of slope sign * n,
    n = |H_1|.  The tested classes are sign * sgn(abcd-1) * ab (and cd); the
    slope is impossible unless both are squares mod n.  Since ab * cd = 1
    mod n, the two classes are inverses and are squares together, so one
    root, the ``witness`` for the ab class, decides each sign."""

    sign: int
    n: int
    residue_ab: int
    residue_cd: int
    witness: int | None

    @property
    def obstructed(self) -> bool:
        return self.witness is None

    @property
    def status(self) -> str:
        return "obstructed" if self.obstructed else "inconclusive"


def _integral_obstructions(y: Splice, signs: tuple[int, ...]) -> list[IntegralObstruction]:
    """The residue test of each sign, all decided by one walk of n's primes."""
    big_n = y.signed_h1()
    n = abs(big_n)
    s0 = 1 if big_n > 0 else -1
    res_ab = [sign * s0 * y.first.product % n for sign in signs]
    witnesses = _square_roots_mod(res_ab, n)  # res_cd = 1 / res_ab mod n: one root decides both
    return [
        IntegralObstruction(
            sign=sign, n=n, residue_ab=ab, residue_cd=sign * s0 * y.second.product % n, witness=w
        )
        for sign, ab, w in zip(signs, res_ab, witnesses)
    ]


def integral_obstruction(y: Splice, sign: int) -> IntegralObstruction:
    """Whether surgery of slope sign * n, n = |H_1(y)|, is ruled out by the
    linking form.  The residues are sign * sgn(abcd - 1) * ab and the same
    with cd, mod n; the witness is a square root x of the ab residue mod n,
    the smaller of x and n - x, and None (obstructed) when there is none.
    :func:`not_surgery_verdict` decides both signs in one walk of n's primes.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return _integral_obstructions(y, (sign,))[0]


# ---------------------------------------------------------------------------
# Eudave-Munoz knots


class EMKnot(Record):
    """Parameters (l, m, n, p) of an Eudave-Munoz knot; n*p = 0 always.

    ``degenerate_warning`` flags parameter ranges (l in {-1,0,1} or m in
    {0,1}) where the construction may degenerate to a torus knot; those
    sporadic exclusions are flagged rather than filtered.
    """

    __slots__ = ("l", "m", "n", "p")

    def __init__(self, l: int, m: int, n: int, p: int) -> None:
        if n * p != 0:
            raise ValueError("need n = 0 or p = 0")
        self._set(l, m, n, p)

    @property
    def degenerate_warning(self) -> bool:
        return self.l in (-1, 0, 1) or self.m in (0, 1)

    def __str__(self) -> str:
        return f"k({self.l},{self.m},{self.n},{self.p})"


def em_slope(k: EMKnot) -> Fraction:
    """The half-integral toroidal surgery slope of k(l, m, n, p):
    l(2m-1)(1-lm) - 1/2, corrected by n(2lm-1)^2 or p(2lm-l-1)^2."""
    l, m = k.l, k.m
    r = Fraction(2 * l * (2 * m - 1) * (1 - l * m) - 1, 2)
    if k.p == 0:
        r += k.n * (2 * l * m - 1) ** 2
    else:
        r += k.p * (2 * l * m - l - 1) ** 2
    return r


def em_su2_cyclic(k: EMKnot) -> bool:
    """Whether the half-integral toroidal surgery on k is SU(2)-cyclic:
    p = 0 requires n in {0, 1}; n = 0 requires 2p - 1 to divide l."""
    if k.p == 0 and k.n in (0, 1):
        return True
    return k.n == 0 and k.l % (2 * k.p - 1) == 0


def em_splice_form(k: EMKnot) -> Splice | None:
    """The splice (up to orientation) homeomorphic to the SU(2)-cyclic
    surgery on k, or None for the n = 0, (2p-1) | l knots with p outside
    {0, 1}, whose surgeries are not splices of torus knot exteriors."""
    if not em_su2_cyclic(k):
        raise ValueError(f"{k} does not have an SU(2)-cyclic toroidal surgery")
    l, m = k.l, k.m
    if k.p == 0 and k.n == 0:
        pairs = (l, l * m - 1), (2, -(2 * m - 1))
    elif k.p == 0 and k.n == 1:
        pairs = (-l, l * m - 1), (2, 2 * m + 1)
    elif k.n == 0 and k.p == 1:
        pairs = (-l, m * l - l - 1), (2, 2 * m - 1)
    else:
        return None
    return Splice.of(pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1])


# ---------------------------------------------------------------------------
# non-integral classification


class NonintegralMatch(NamedTuple):
    """A match of the splice against +/- splice(T(l,lm-1), T(2,-(2m-1))):
    the manifold is the half-integral toroidal surgery on k(l, m, 0, 0)."""

    l: int
    m: int
    orientation: int  # +1: the splice matches as given; -1: its mirror does

    @property
    def em_knot(self) -> EMKnot:
        return EMKnot(self.l, self.m, 0, 0)

    @property
    def em_slope(self) -> Fraction:
        return em_slope(self.em_knot)

    @property
    def slope_abs(self) -> Fraction:
        return abs(self.em_slope)


def nonintegral_classification(y: Splice) -> NonintegralMatch | None:
    """Decide whether y matches the half-integral surgery pattern, up to
    factor swap, the torus-knot identities, and global mirror.

    For each symmetry image whose second factor can be written T(2, k), the
    pattern forces m = (1 - k)/2; it remains to test whether the other factor
    is T(l, lm-1) for one of its four index representatives."""
    for eps in (1, -1):
        z = y if eps == 1 else y.mirror()
        for f1, f2 in ((z.first, z.second), (z.second, z.first)):
            if f2.q != 2:
                continue
            k = f2.p  # f2 = T(2, k) with k odd
            m = (1 - k) // 2
            for l, v in f1.representatives():
                if v == l * m - 1:
                    return NonintegralMatch(l=l, m=m, orientation=eps)
    return None


# ---------------------------------------------------------------------------
# lens spaces and iterated cables


class Lens(Record):
    """The lens space of p/q-surgery on the unknot; parameters are kept as
    written (no normalization beyond a sign flip to make p nonnegative)."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if p < 0:
            p, q = -p, -q
        self._set(p, q)

    def h1_order(self) -> int:
        return abs(self.p)

    def __str__(self) -> str:
        if self.p == 2:
            return "RP3"
        return f"L({self.p},{self.q})"


class ConnectedSum(Record):
    __slots__ = ("summands",)

    def __init__(self, summands: tuple[Lens, ...]) -> None:
        self._set(summands)

    def h1_order(self) -> int:
        out = 1
        for s in self.summands:
            out *= s.h1_order()
        return out

    def __str__(self) -> str:
        return " # ".join(str(s) for s in self.summands)


class IteratedTorusKnot(Record):
    """An iterated cable of a torus knot: cables[i] = (m, n) is applied in
    order, innermost first, with n >= 2 and gcd(m, n) = 1 throughout; the
    base must have |p| >= 2 and q >= 2."""

    __slots__ = ("base", "cables")

    def __init__(self, base: tuple[int, int], cables: tuple[tuple[int, int], ...] = ()) -> None:
        p, q = base
        if gcd(abs(p), abs(q)) != 1 or abs(p) < 2 or q < 2:
            raise ValueError(f"invalid base torus knot ({p}, {q})")
        for m, n in cables:
            if gcd(abs(m), abs(n)) != 1 or n < 2:
                raise ValueError(f"invalid cable ({m}, {n})")
        self._set(base, cables)

    @property
    def depth(self) -> int:
        return 1 + len(self.cables)

    def __str__(self) -> str:
        out = f"T({self.base[0]},{self.base[1]})"
        for m, n in self.cables:
            out = f"C({m},{n});" + out
        return out


class SlopeFamily(Record):
    """The one-parameter family of slopes pq + 1/m (m != 0) on a torus knot
    T(p, q), whose surgeries are the lens spaces L(mpq+1, mq^2)."""

    __slots__ = ("pq", "qsq")

    def __init__(self, pq: int, qsq: int) -> None:
        self._set(pq, qsq)

    def __str__(self) -> str:
        return f"{self.pq} + 1/m (m != 0)"


class CableSlope(NamedTuple):
    """One SU(2)-cyclic slope entry: either a fixed slope with its surgery
    description, or the parametric lens-space family."""

    slope: Fraction | None
    manifold: Lens | ConnectedSum | None
    family: SlopeFamily | None = None


def cable_su2_cyclic_slopes(knot: IteratedTorusKnot) -> tuple[CableSlope, ...]:
    """All nontrivial SU(2)-cyclic surgery slopes on an iterated torus knot.

    Depth 1: the family pq + 1/m, plus the slope pq, giving L(p,q) # L(q,p)
    as indexed, exactly when p or q is +/-2.  Depth 2: nonempty only for the
    (2pq+e, 2)-cables, e = +/-1, which have slopes 4pq+e (a lens space) and
    4pq+2e (a lens space summed with RP^3).  Depth >= 3: none.
    """
    p, q = knot.base
    if knot.depth == 1:
        out = [CableSlope(None, None, SlopeFamily(p * q, q * q))]
        if p in (2, -2) or q == 2:
            out.append(CableSlope(Fraction(p * q), ConnectedSum((Lens(p, q), Lens(q, p)))))
        return tuple(out)
    if knot.depth == 2:
        m, n = knot.cables[0]
        for eps in (1, -1):
            if (m, n) == (2 * p * q + eps, 2):
                pq = p * q
                return (
                    CableSlope(
                        Fraction(4 * pq + eps), Lens(4 * pq + eps, 4 * q * q)
                    ),
                    CableSlope(
                        Fraction(4 * pq + 2 * eps),
                        ConnectedSum((Lens(2 * pq + eps, 2 * q * q), Lens(2, 1))),
                    ),
                )
        return ()
    return ()


# ---------------------------------------------------------------------------
# the full "is it a surgery?" verdict


class ShortcutReport(NamedTuple):
    """Residue-set shortcut for the two special splice shapes."""

    shape: str  # "opposite-mirror-pair" for (T(a,b), T(-a,b)); "equal-pair"
    set_name: str  # "S" or "Sprime"
    n: int  # |ab|
    in_set: bool
    indices_exceed_2: bool | None  # the opposite-mirror argument needs a, b > 2


class ChangemakerReport(NamedTuple):
    status: str  # "witness", "obstructed", or "no-form-available"
    form_name: str | None = None
    slope: int | None = None
    sigma: tuple[int, ...] | None = None
    vectors: tuple[tuple[int, ...], ...] | None = None


# The one dataclass left, though decorating it costs about 1 ms at import:
# bench/test_bench.py rebuilds verdicts with dataclasses.replace.
@dataclass(frozen=True)
class SpliceVerdict:
    splice: Splice
    h1: int
    nonintegral: NonintegralMatch | None
    integral_plus: IntegralObstruction
    integral_minus: IntegralObstruction
    shortcut: ShortcutReport | None
    changemaker: ChangemakerReport | None
    overall: str  # "not-any-surgery", "nonintegral-surgery", "inconclusive"
    assumptions: tuple[str, ...]


_SYMMETRY_ASSUMPTION = (
    "splice homeomorphism decided only up to factor swap, index identities, "
    "and global mirror"
)


def _shortcut_report(y: Splice) -> ShortcutReport | None:
    f1, f2 = y.first, y.second
    if f2.p == -f1.p and f2.q == f1.q:  # f2 is the mirror of f1
        n = abs(f1.product)
        return ShortcutReport(
            shape="opposite-mirror-pair",
            set_name="S",
            n=n,
            in_set=in_S(n),
            indices_exceed_2=abs(f1.p) > 2 and f1.q > 2,
        )
    if f1 == f2:
        n = abs(f1.product)
        return ShortcutReport(
            shape="equal-pair",
            set_name="Sprime",
            n=n,
            in_set=in_Sprime(n),
            indices_exceed_2=None,
        )
    return None


def builtin_gram_for(y: Splice) -> tuple[str, _lattice.GramMatrix] | None:
    """A builtin Goeritz form presenting the orientation on which the
    changemaker test applies to surgery slope -|H_1|, if one is available."""
    f1, f2 = y.first, y.second
    if f1.q == 2 and f2.q == 2 and f1.p >= 3 and f2.p >= 3:
        a, b = sorted(((f1.p - 1) // 2, (f2.p - 1) // 2))
        return f"fig3-black({a},2,{b},2)", _goeritz.family_2odd_2odd(a, b)
    if {f1, f2} == {TorusKnot(3, 5), TorusKnot(-3, 5)}:
        return "L35-white", _goeritz.goeritz_matrix(_goeritz.l35_white_graph())
    return None


def _changemaker_report(y: Splice) -> ChangemakerReport:
    form = builtin_gram_for(y)
    if form is None:
        return ChangemakerReport(status="no-form-available")
    name, gram = form
    n = y.h1_order()
    result = _lattice.changemaker_obstruction(gram, n)
    if result.obstructed:
        return ChangemakerReport(status="obstructed", form_name=name, slope=-n)
    emb = result.first()
    return ChangemakerReport(
        status="witness",
        form_name=name,
        slope=-n,
        sigma=emb.sigma.entries,
        vectors=emb.vectors,
    )


def not_surgery_verdict(y: Splice, with_changemaker: bool = False) -> SpliceVerdict:
    """Assemble every obstruction for y into one structured verdict.

    ``overall`` is "not-any-surgery" exactly when the non-integral pattern
    fails and both integral slopes are ruled out, with a changemaker
    obstruction allowed to settle the -n side when requested.
    """
    nonintegral = nonintegral_classification(y)
    plus, minus = _integral_obstructions(y, (1, -1))
    shortcut = _shortcut_report(y)
    changemaker = _changemaker_report(y) if with_changemaker else None

    assumptions: list[str] = []
    if nonintegral is None:
        minus_ruled = minus.obstructed or (
            changemaker is not None and changemaker.status == "obstructed"
        )
        if plus.obstructed and minus_ruled:
            overall = "not-any-surgery"
        else:
            overall = "inconclusive"
        assumptions.append(_SYMMETRY_ASSUMPTION)
    else:
        overall = "nonintegral-surgery"

    return SpliceVerdict(
        splice=y,
        h1=y.h1_order(),
        nonintegral=nonintegral,
        integral_plus=plus,
        integral_minus=minus,
        shortcut=shortcut,
        changemaker=changemaker,
        overall=overall,
        assumptions=tuple(assumptions),
    )


# ---------------------------------------------------------------------------
# census of the (2, odd)-(2, odd) splices


class CensusRow(NamedTuple):
    a: int
    b: int
    n: int
    status: str  # "witness" or "obstructed"
    sigma: tuple[int, ...] | None


def _census_row(a: int, b: int) -> CensusRow:
    report = _changemaker_report(Splice.of(2 * a + 1, 2, 2 * b + 1, 2))
    import logging  # here, not at import: most commands never log
    logging.getLogger(__name__).debug("census row (%d,%d): n=%d %s", a, b, -report.slope, report.status)
    return CensusRow(a, b, -report.slope, report.status, report.sigma)


def census_2odd(max_product: int) -> list[CensusRow]:
    """Changemaker verdicts for every splice of (2, 2a+1) and (2, 2b+1)
    torus knot exteriors with 1 <= a <= b and (2a+1)(2b+1) <= max_product,
    at surgery slope -|H_1| = -(4(2a+1)(2b+1) - 1): the changemaker part of
    ``not_surgery_verdict(Splice.of(2a+1, 2, 2b+1, 2), with_changemaker=True)``.

    Rows are built in one process, sorted by (a, b).  A bound above
    ``MAX_CENSUS_PRODUCT`` raises ResourceCapExceeded before any row is built.
    """
    if max_product < 1:
        raise ValueError(f"need max_product >= 1, got {max_product}")
    if max_product > MAX_CENSUS_PRODUCT:
        raise ResourceCapExceeded(
            f"max_product {max_product} exceeds MAX_CENSUS_PRODUCT = {MAX_CENSUS_PRODUCT}"
        )
    rows = []
    a = 1
    while (2 * a + 1) * (2 * a + 1) <= max_product:
        b = a
        while (2 * a + 1) * (2 * b + 1) <= max_product:
            rows.append(_census_row(a, b))
            b += 1
        a += 1
    return rows

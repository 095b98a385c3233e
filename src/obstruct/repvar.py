"""Exact-rational witnesses for non-cyclic SU(2) representations.

For the half-integral toroidal surgery on the knot k(l, m, 0, p), the piece
X1 of the surgered manifold is Seifert fibered with singular fibers of orders
|-l| and |(1-lm)(2p-1) + pl|, and the manifold is SU(2)-cyclic exactly when
2p - 1 divides l.  When it does not, an abelian representation of pi_1(X1)
sending the meridian to -1 and the fiber to e^(i*phi) exists with

    phi/pi = A*q/D = 1/2 + 1/(2D)  (mod 1),

where g = gcd(l, 2p-1), A = |l|/g, D = |2p-1|/g, and q is the unique integer
in [1, 2D] with A*q = (D+1)/2 (mod D) and q = alpha2 (mod 2).  Such a
representation extends to an irreducible one over the whole manifold as long
as phi/pi avoids 1/(2|k|)-neighborhoods of 0 and 1, where k = 2m - 1 indexes
the (2, k)-torus-knot piece on the other side.

phi is stored as the exact rational phi/pi; no trigonometry is evaluated,
and every comparison is an exact rational inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


def x1_singular_orders(l: int, m: int, p: int) -> tuple[int, int]:
    """Orders of the two singular fibers of the piece X1: |-l| and
    |(1 - l*m)*(2p - 1) + p*l|."""
    return abs(l), abs((1 - l * m) * (2 * p - 1) + p * l)


@dataclass(frozen=True)
class IrrepWitness:
    """Data certifying an irreducible SU(2) representation.

    g = gcd(l, 2p-1); d = |2p-1|/g (odd, >= 3); a = |l|/g, coprime to d;
    q is the parity-matched solution of a*q = (d+1)/2 mod d in [1, 2d];
    phi_over_pi = a*q/d mod 1 lies in [1/3, 2/3] and inside the extension
    window (1/(2|k|), 1 - 1/(2|k|)) for k = 2m - 1.
    """

    g: int
    d: int
    a: int
    q: int
    phi_over_pi: Fraction
    k_abs: int

    @property
    def extension_window(self) -> tuple[Fraction, Fraction]:
        half = Fraction(1, 2 * self.k_abs)
        return half, 1 - half

    @property
    def extension_holds(self) -> bool:
        lo, hi = self.extension_window
        return lo < self.phi_over_pi < hi


def irrep_witness(l: int, m: int, p: int) -> IrrepWitness | None:
    """None when the half-integral toroidal surgery on k(l, m, 0, p) is
    SU(2)-cyclic (i.e. when 2p - 1 divides l); otherwise an exact witness.

    Requires m not in {0, 1}, which the n = 0 family guarantees.
    """
    if m in (0, 1):
        raise ValueError(f"need m outside {{0, 1}}, got m = {m}")
    twop1 = 2 * p - 1
    if l % twop1 == 0:
        return None
    g = gcd(l, twop1)
    d = abs(twop1) // g
    a = abs(l) // g
    # d is odd, d >= 3, gcd(a, d) = 1 by construction
    _, alpha2 = x1_singular_orders(l, m, p)
    q0 = (d + 1) // 2 * pow(a, -1, d) % d
    q = q0 if q0 % 2 == alpha2 % 2 else q0 + d
    phi = Fraction(a * q, d) % 1
    w = IrrepWitness(g=g, d=d, a=a, q=q, phi_over_pi=phi, k_abs=abs(2 * m - 1))
    assert w.phi_over_pi == Fraction(1, 2) + Fraction(1, 2 * d)
    return w


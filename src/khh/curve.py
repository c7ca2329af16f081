"""Elliptic curves over QQ: group law, divisor classes, cohomology tables.

Long Weierstrass form with exact rational arithmetic throughout.  Divisor
classes are kept reduced as [S] + (d-1)[O]; genus-1 Riemann-Roch then
reads dimensions straight off the degree, with the principal degree-0
class the only special case.  Torsion certification walks multiples up to
the uniform bound of 12, so non-torsion claims are finite checks.

The table builders assemble the sheaf summands of the cusp bundle over
the curve and of its ample-twist line bundle, tracking both twist-sign
conventions side by side; their h^0/h^1 columns come from rr_dims cell by
cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rationals import qq, qq_str
from .errors import ParseError, PreconditionError, TorsionPointError

MAZUR_BOUND = 12


@dataclass(frozen=True)
class Point:
    """Affine point or the point at infinity."""

    x: object = None
    y: object = None
    infinity: bool = False

    @classmethod
    def at_infinity(cls):
        return cls(infinity=True)

    def __repr__(self):
        if self.infinity:
            return "O"
        return f"({qq_str(self.x)}, {qq_str(self.y)})"


O = Point.at_infinity()


class EllipticCurve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over QQ."""

    def __init__(self, a1=0, a2=0, a3=0, a4=0, a6=0):
        self.a1, self.a2, self.a3 = qq(a1), qq(a2), qq(a3)
        self.a4, self.a6 = qq(a4), qq(a6)
        b2 = self.a1**2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3**2 + 4 * self.a6
        b8 = (
            self.a1**2 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3**2
            - self.a4**2
        )
        self.discriminant = -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
        if self.discriminant == 0:
            raise PreconditionError("singular Weierstrass equation (discriminant 0)")

    def on_curve(self, P: Point) -> bool:
        if P.infinity:
            return True
        x, y = P.x, P.y
        return (
            y * y + self.a1 * x * y + self.a3 * y
            == x**3 + self.a2 * x * x + self.a4 * x + self.a6
        )

    def point(self, x, y) -> Point:
        P = Point(qq(x), qq(y))
        if not self.on_curve(P):
            raise PreconditionError(f"point {P} is not on the curve")
        return P

    def neg(self, P: Point) -> Point:
        if P.infinity:
            return P
        return Point(P.x, -P.y - self.a1 * P.x - self.a3)

    def add(self, P1: Point, P2: Point) -> Point:
        if P1.infinity:
            return P2
        if P2.infinity:
            return P1
        x1, y1, x2, y2 = P1.x, P1.y, P2.x, P2.y
        if x1 == x2 and y1 + y2 + self.a1 * x2 + self.a3 == 0:
            return O
        if x1 == x2:
            lam = (3 * x1 * x1 + 2 * self.a2 * x1 + self.a4 - self.a1 * y1) / (
                2 * y1 + self.a1 * x1 + self.a3
            )
            nu = (-(x1**3) + self.a4 * x1 + 2 * self.a6 - self.a3 * y1) / (
                2 * y1 + self.a1 * x1 + self.a3
            )
        else:
            lam = (y2 - y1) / (x2 - x1)
            nu = (y1 * x2 - y2 * x1) / (x2 - x1)
        x3 = lam * lam + self.a1 * lam - self.a2 - x1 - x2
        y3 = -(lam + self.a1) * x3 - nu - self.a3
        return Point(x3, y3)

    def mul(self, n: int, P: Point) -> Point:
        if n < 0:
            return self.mul(-n, self.neg(P))
        acc = O
        add = self.add
        while n:
            acc = add(acc, P)  # n is at most the torsion probe; no need to double
            n -= 1
        return acc

    def is_torsion(self, P: Point):
        """(True, order) or (False, None), by the uniform order bound."""
        acc = O
        for n in range(1, MAZUR_BOUND + 1):
            acc = self.add(acc, P)
            if acc.infinity:
                return True, n
        return False, None


@dataclass(frozen=True)
class DivisorClass:
    """Reduced form [S] + (degree-1)[O] of a divisor class."""

    degree: int
    reducer: Point

    def is_principal(self):
        return self.degree == 0 and self.reducer.infinity


class DivisorGroup:
    """Divisor-class arithmetic on one curve."""

    def __init__(self, curve: EllipticCurve):
        self.curve = curve

    def reduce(self, points_with_mult) -> DivisorClass:
        """Class of sum(n_i [P_i]) as [S] + (deg-1)[O] with S the group sum."""
        deg = 0
        S = O
        for P, n in points_with_mult:
            if not self.curve.on_curve(P):
                raise PreconditionError(f"point {P} not on the curve")
            deg += n
            S = self.curve.add(S, self.curve.mul(n, P))
        return DivisorClass(deg, S)

    def of_point(self, P: Point) -> DivisorClass:
        return self.reduce([(P, 1)])

    def add(self, D1: DivisorClass, D2: DivisorClass) -> DivisorClass:
        return DivisorClass(
            D1.degree + D2.degree, self.curve.add(D1.reducer, D2.reducer)
        )

    def power(self, D: DivisorClass, k: int) -> DivisorClass:
        return DivisorClass(k * D.degree, self.curve.mul(k, D.reducer))

    def rr_dims(self, D: DivisorClass):
        """(h^0, h^1) by genus-1 Riemann-Roch with Serre duality."""
        if D.degree > 0:
            return (D.degree, 0)
        if D.degree < 0:
            return (0, -D.degree)
        return (1, 1) if D.is_principal() else (0, 0)


# -- sheaf summand bookkeeping ----------------------------------------------


def reduced_k_summands(n: int, m: int) -> tuple:
    """The J-powers, sorted, of the summands of the relative K_n sheaf of
    the cusp bundle x A^m, with J = O(P - Q).

    n < 0 has none; n = 0, 1 are the conductor-square classes J and
    J (x) Omega^1, where Omega^1 splits as trivial summands; from n = 2 on
    the (J^5 + J^6) (x) V_n block plus the J (x) Omega^n term.  Polynomial
    factors contribute trivial bundles only, so each power is positive.
    """
    if n < 0:
        return ()
    if n <= 1:
        return (1,)
    i = n // 2
    powers = set()
    # (J^5 + J^6) (x) V_n(R[t_1..t_m]): V-terms J^{6(i-1-k)} (x) Omega^{2k(+1)}
    for k in range(i):
        omega_deg = 2 * k + (1 if n % 2 else 0)
        if omega_deg > m + 1:
            continue  # the form module vanishes on curve x A^m
        for base in (5, 6):
            powers.add(base + 6 * (i - 1 - k))
    if n <= m + 1:
        powers.add(1)  # J (x) Omega^n term
    return tuple(sorted(powers))


# -- top-level tables ----------------------------------------------------------


@dataclass
class CuspBundleTables:
    regular_table: list = field(default_factory=list)
    regular_verdict: bool = True
    twist_table: list = field(default_factory=list)
    k0_dims: dict = field(default_factory=dict)
    km1_dims: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)


def cusp_bundle_tables(
    curve: EllipticCurve,
    P: Point,
    Q: Point,
    n_range=(-1, 6),
    m: int = 2,
    j_cutoff: int = 4,
) -> CuspBundleTables:
    """The three cohomology tables for the cusp bundle over the curve.

    (a) relative K_n sheaf summands of X x A^m: all h^0 = h^1 = 0, so
        K_n(X x A^m) agrees with K_n of the curve for every n in range;
    (b) the ample-twist line bundle: summands J (x) L^{+-j} under both
        twist-sign conventions, assembled into the degree-0 and degree-(-1)
        relative K-dimensions (H^0 feeds K_0, H^1 feeds K_{-1});
    (c) the square-zero analogue: the raw h^p(J (x) L^{+-j}) cells, which
        are the rows of (b)'s twist_table.
    """
    if j_cutoff < 1:
        raise PreconditionError("j_cutoff >= 1 required")
    if n_range[0] > n_range[1]:
        raise PreconditionError("n_min <= n_max required")
    div = DivisorGroup(curve)
    if not (curve.on_curve(P) and curve.on_curve(Q)):
        raise PreconditionError("P and Q must lie on the curve")
    delta = curve.add(P, curve.neg(Q))
    torsion, order = curve.is_torsion(delta)
    if torsion:
        raise TorsionPointError(
            f"P - Q has finite order {order}; the tables require infinite order"
        )
    J = DivisorClass(0, delta)
    L = div.of_point(Q)  # O(Q), degree 1, ample

    tables = CuspBundleTables()
    for n in range(n_range[0], n_range[1] + 1):
        row = {"n": n, "cells": []}
        for j_power in reduced_k_summands(n, m):
            h0, h1 = div.rr_dims(div.power(J, j_power))
            row["cells"].append({"j_power": j_power, "h0": h0, "h1": h1})
            if h0 or h1:
                tables.regular_verdict = False
        tables.regular_table.append(row)

    for sign_name, sign in (("plus", 1), ("minus", -1)):
        k0 = 0
        km1 = 0
        for j in range(1, j_cutoff + 1):
            D = div.add(J, div.power(L, sign * j))
            h0, h1 = div.rr_dims(D)
            tables.twist_table.append(
                {"convention": sign_name, "j": j, "h0": h0, "h1": h1}
            )
            k0 += h0
            km1 += h1
        tables.k0_dims[sign_name] = k0
        tables.km1_dims[sign_name] = km1

    if tables.km1_dims["plus"] != tables.km1_dims["minus"]:
        tables.findings.append(
            "twist-sign discrepancy: the H^1 column vanishes under positive "
            "twists but not under negative twists; both tables reported, "
            "neither convention adjudicated"
        )
    return tables


# -- text format ---------------------------------------------------------------


def _rational(text: str, what: str, lineno: int):
    try:
        return qq(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad {what} {text!r}", lineno) from None


def parse_curve_file(text: str):
    """`curve a1 a2 a3 a4 a6` plus `point x y` / `point inf` lines.

    Returns (curve, points in file order).
    """
    curve = None
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "curve":
            if len(parts) != 6:
                raise ParseError("curve needs exactly a1 a2 a3 a4 a6", lineno)
            curve = EllipticCurve(*(_rational(p, "curve coefficient", lineno) for p in parts[1:]))
        elif parts[0] == "point":
            if curve is None:
                raise ParseError("point before curve", lineno)
            if len(parts) == 2 and parts[1] == "inf":
                points.append(O)
            elif len(parts) == 3:
                x, y = (_rational(p, "point coordinate", lineno) for p in parts[1:])
                try:
                    pt = curve.point(x, y)
                except PreconditionError:
                    raise ParseError(
                        f"point ({parts[1]}, {parts[2]}) is not on the curve", lineno
                    ) from None
                points.append(pt)
            else:
                raise ParseError("point needs x y or inf", lineno)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if curve is None:
        raise ParseError("missing curve line")
    return curve, points

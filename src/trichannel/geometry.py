"""Planar predicates and the node record.

``orient2d`` and ``incircle`` return exact signs: a floating-point filter
decides the common case and a rational (``fractions.Fraction``) fallback
settles anything inside the filter's error bound.  Every function here is
pure and reentrant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Tuple

Point = Tuple[float, float]
TrianglePoints = Tuple[Point, Point, Point]

_EPS = math.ulp(1.0) / 2.0  # 2^-53
CCW_ERRBOUND = (3.0 + 16.0 * _EPS) * _EPS
ICC_ERRBOUND = (10.0 + 96.0 * _EPS) * _EPS


class DegenerateTriangleError(ValueError):
    """Raised when a predicate needs a non-collinear triangle and got one."""


class NodeKind(str, Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"
    VIRTUAL = "virtual"


@dataclass(frozen=True, slots=True)
class NodeState:
    """Disc-shaped node: position, velocity and radius.

    Scenario-level validation additionally requires static/virtual nodes to
    carry zero velocity; derived tables (e.g. after motion transmission) may
    relax that, so it is not enforced here.
    """

    id: int
    x: float
    y: float
    vx: float
    vy: float
    r: float
    kind: NodeKind = NodeKind.STATIC

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError(f"node {self.id}: negative radius {self.r}")

    @property
    def position(self) -> Point:
        return (self.x, self.y)


class InCircleSide(Enum):
    INSIDE = "inside"
    COCIRCULAR = "cocircular"
    OUTSIDE = "outside"


def _signed_float(value: Fraction) -> float:
    """float(value), but never losing a nonzero sign to underflow."""
    if value == 0:
        return 0.0
    f = float(value)
    if f != 0.0:
        return f
    return math.copysign(5e-324, 1.0 if value > 0 else -1.0)


def _orient2d_exact(a: Point, b: Point, c: Point) -> float:
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return _signed_float(det)


def orient2d(a: Point, b: Point, c: Point) -> float:
    """Twice the signed area of (a, b, c): > 0 iff counterclockwise.

    The sign is exact for any double-precision input.
    """
    detleft = (a[0] - c[0]) * (b[1] - c[1])
    detright = (a[1] - c[1]) * (b[0] - c[0])
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if abs(det) > CCW_ERRBOUND * detsum:
        return det
    return _orient2d_exact(a, b, c)


def incircle_det(a: Point, b: Point, c: Point, p: Point) -> Tuple[float, float]:
    """Float det[[x, y, x^2+y^2, 1]] over rows (a, b, c, p) and its permanent.

    The sign of the determinant is certain when its magnitude exceeds
    ``ICC_ERRBOUND`` times the permanent.
    """
    adx = a[0] - p[0]
    ady = a[1] - p[1]
    bdx = b[0] - p[0]
    bdy = b[1] - p[1]
    cdx = c[0] - p[0]
    cdy = c[1] - p[1]

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady
    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy
    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    return det, permanent


def incircle_filter(dx, dy):
    """``incircle_det`` over arrays: ``dx``/``dy`` are (5, ...), rows a, b,
    c, a, b relative to the point tested."""
    lift = dx[:3] * dx[:3] + dy[:3] * dy[:3]
    # Row k: the minor of rows k+1 and k+2, e.g. bdx*cdy - cdx*bdy for a.
    left = dx[1:4] * dy[2:5]
    right = dx[2:5] * dy[1:4]
    terms = lift * (left - right)
    perms = (abs(left) + abs(right)) * lift
    return terms[0] + terms[1] + terms[2], perms[0] + perms[1] + perms[2]


def _incircle_det_exact(a: Point, b: Point, c: Point, p: Point) -> float:
    px, py = Fraction(p[0]), Fraction(p[1])
    rows = []
    for q in (a, b, c):
        qx = Fraction(q[0]) - px
        qy = Fraction(q[1]) - py
        rows.append((qx, qy, qx * qx + qy * qy))
    (adx, ady, alift), (bdx, bdy, blift), (cdx, cdy, clift) = rows
    det = (
        alift * (bdx * cdy - cdx * bdy)
        + blift * (cdx * ady - adx * cdy)
        + clift * (adx * bdy - bdx * ady)
    )
    return _signed_float(det)


def incircle(a: Point, b: Point, c: Point, p: Point) -> InCircleSide:
    """Exact side of ``p`` relative to the circumcircle of triangle (a, b, c).

    The side is the sign of gamma = D4 * D2A, the product of the 4x4 lifted
    determinant (columns 1, x, y, x^2+y^2) and the triangle's signed
    doubled area.  The second factor makes the sign insensitive to the
    ordering of (a, b, c): gamma < 0 means inside, 0 cocircular, > 0
    outside.  A cocircular point counts as an event (conservative) for
    callers that predict edge flips.

    Raises ``DegenerateTriangleError`` when (a, b, c) are collinear.
    """
    orient = orient2d(a, b, c)
    if orient == 0.0:
        raise DegenerateTriangleError(f"collinear triangle {a}, {b}, {c}")

    det, permanent = incircle_det(a, b, c, p)
    if not abs(det) > ICC_ERRBOUND * permanent:
        det = _incircle_det_exact(a, b, c, p)

    # det is the [[x, y, x^2+y^2, 1]] row order; the column order used by
    # gamma is an odd permutation of it, so gamma < 0 when det and orient
    # share a sign.
    if det == 0.0:
        return InCircleSide.COCIRCULAR
    if (det > 0.0) == (orient > 0.0):
        return InCircleSide.INSIDE
    return InCircleSide.OUTSIDE


def dist(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def point_along(pts: Sequence[Point], travel: float) -> Point:
    """Point at arc length ``travel`` along the polyline ``pts``.

    Clamped to the first point for ``travel <= 0`` and to the last point
    past the end.  Each hop's length is subtracted from the remaining
    travel rather than summed into a running total; the simulator and the
    sequencer both depend on the bits of this form.  The remaining travel
    stays positive, so a hop that holds it is never zero-length.
    """
    if travel <= 0:
        return pts[0]
    for a, b in zip(pts, pts[1:]):
        hop = dist(a, b)
        if travel <= hop:
            f = travel / hop
            return (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
        travel -= hop
    return pts[-1]

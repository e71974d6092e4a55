"""Taut-string path extraction through a triangle corridor.

Portal endpoints are shrunk toward the portal interior by the padding plus
the endpoint node's radius before string pulling, so the resulting polyline
keeps clearance from the disc nodes spanning each portal.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from .geometry import Point, TrianglePoints, dist, orient2d
from .mesh import point_in_triangle


@dataclass
class PathPolyline:
    points: List[Point]
    segment_ids: List[int]  # per-point source channel segment id


def _triarea2(a: Point, b: Point, c: Point) -> float:
    # Positive when c lies left of the directed line a -> b.
    return (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])


def _shared_directed_edge(tri_a: TrianglePoints, tri_b: TrianglePoints
                          ) -> Tuple[Point, Point]:
    """Shared edge directed as it appears in tri_a's CCW cycle."""
    other = set(tri_b)
    for k in range(3):
        a, b = tri_a[k], tri_a[(k + 1) % 3]
        if a in other and b in other:
            return a, b
    raise ValueError("consecutive corridor triangles share no edge")


def extract_portals(triangles: Sequence[TrianglePoints]
                    ) -> List[Tuple[Point, Point]]:
    """(left, right) portal pairs as seen walking the corridor."""
    portals = []
    for cur, nxt in zip(triangles, triangles[1:]):
        a, b = _shared_directed_edge(cur, nxt)
        # Interior of the current triangle lies left of a -> b, so the
        # walker crosses left-to-right: b is on their left hand.
        portals.append((b, a))
    return portals


def _shrink_portal(left: Point, right: Point, off_left: float,
                   off_right: float) -> Optional[Tuple[Point, Point]]:
    d = dist(left, right)
    if d - off_left - off_right <= 0.0:
        return None
    ux, uy = (right[0] - left[0]) / d, (right[1] - left[1]) / d
    new_left = (left[0] + ux * off_left, left[1] + uy * off_left)
    new_right = (right[0] - ux * off_right, right[1] - uy * off_right)
    return new_left, new_right


def _string_pull(portals: Sequence[Tuple[Point, Point]], start: Point,
                 target: Point) -> List[Point]:
    pts: List[Tuple[Point, Point]] = list(portals) + [(target, target)]
    path = [start]
    apex = pl = pr = start
    apex_i = left_i = right_i = -1
    i = 0
    while i < len(pts):
        left, right = pts[i]
        if _triarea2(apex, pr, right) >= 0.0:
            if apex == pr or _triarea2(apex, pl, right) <= 0.0:
                pr, right_i = right, i
            else:
                path.append(pl)
                apex, apex_i = pl, left_i
                pl = pr = apex
                left_i = right_i = apex_i
                i = apex_i + 1
                continue
        if _triarea2(apex, pl, left) <= 0.0:
            if apex == pl or _triarea2(apex, pr, left) >= 0.0:
                pl, left_i = left, i
            else:
                path.append(pr)
                apex, apex_i = pr, right_i
                pl = pr = apex
                left_i = right_i = apex_i
                i = apex_i + 1
                continue
        i += 1
    if path[-1] != target:
        path.append(target)
    # Drop consecutive duplicates.
    out = [path[0]]
    for p in path[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _ccw(tri: TrianglePoints) -> TrianglePoints:
    if orient2d(*tri) < 0:
        return (tri[0], tri[2], tri[1])
    return tri


def funnel(triangles: Sequence[TrianglePoints], start: Point, target: Point,
           padding: float, radius_of: Optional[Mapping[Point, float]] = None,
           segment_id: int = 0) -> Optional[PathPolyline]:
    """Shortest taut path through the corridor with collision padding.

    Returns None when any portal's shrunk width is non-positive (the
    corridor is too narrow); raises ValueError when start/target are not
    inside the first/last triangle or padding is negative.
    """
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if not triangles:
        raise ValueError("empty corridor")
    tris = [_ccw(t) for t in triangles]
    if not point_in_triangle(tris[0], start):
        raise ValueError("start point outside the first corridor triangle")
    if not point_in_triangle(tris[-1], target):
        raise ValueError("target point outside the last corridor triangle")

    if len(tris) == 1:
        pts = [start, target] if start != target else [start]
        return PathPolyline(points=pts, segment_ids=[segment_id] * len(pts))

    shrunk: List[Tuple[Point, Point]] = []
    for left, right in extract_portals(tris):
        r_left = radius_of.get(left, 0.0) if radius_of else 0.0
        r_right = radius_of.get(right, 0.0) if radius_of else 0.0
        portal = _shrink_portal(left, right, padding + r_left, padding + r_right)
        if portal is None:
            return None
        shrunk.append(portal)

    points = _string_pull(shrunk, start, target)
    return PathPolyline(points=points, segment_ids=[segment_id] * len(points))

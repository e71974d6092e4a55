"""Taut-string path extraction through a run of snapshot triangles.

The funnel steps across ``Mesh.neighbors``, as channel search does: each
portal is the edge of a triangle opposite the column that holds the next
triangle id.  Portal endpoints are shrunk toward the portal interior by
the padding plus the endpoint node's radius (``NodeTable.r`` by node
index) before string pulling, so the resulting polyline keeps clearance
from the disc nodes spanning each portal.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .geometry import Point, dist, orient2d
from .mesh import Mesh, point_in_triangle


@dataclass
class PathPolyline:
    points: List[Point]
    segment_ids: List[int]  # per-point source channel segment id


def _triarea2(a: Point, b: Point, c: Point) -> float:
    # Positive when c lies left of the directed line a -> b.
    return (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])


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


def funnel(mesh: Mesh, tri_ids: Sequence[int], start: Point, target: Point,
           padding: float, segment_id: int = 0) -> Optional[PathPolyline]:
    """Shortest taut path through the triangles ``tri_ids`` of ``mesh``.

    Returns None when any portal's shrunk width is non-positive (the
    corridor is too narrow); raises ValueError when start/target are not
    inside the first/last triangle, padding is negative, or consecutive
    ids are not neighbours or cross from a clockwise row.
    """
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if not tri_ids:
        raise ValueError("empty corridor")
    xy, r = mesh.xy_list, mesh.nodes.r_list
    ids = list(tri_ids)
    rows = mesh.triangles[ids].tolist()
    if not point_in_triangle([xy[v] for v in rows[0]], start):
        raise ValueError("start point outside the first corridor triangle")
    if not point_in_triangle([xy[v] for v in rows[-1]], target):
        raise ValueError("target point outside the last corridor triangle")

    # The portal from t into u is t's edge opposite the column k that holds
    # u in t's neighbours, a -> b as in t's CCW cycle: the walker crosses
    # it with b on their left.
    ends: List[Tuple[int, int]] = []
    for row, nbr, u in zip(rows, mesh.neighbors[ids].tolist(), ids[1:]):
        k = nbr.index(u)  # ValueError when u is not a neighbour
        a, b = row[k - 2], row[k - 1]
        if orient2d(xy[a], xy[b], xy[row[k]]) < 0:
            raise ValueError("clockwise corridor triangle")
        ends.append((b, a))
    shrunk: List[Tuple[Point, Point]] = []
    for left, right in ends:
        portal = _shrink_portal(xy[left], xy[right], padding + r[left], padding + r[right])
        if portal is None:
            return None
        shrunk.append(portal)

    points = _string_pull(shrunk, start, target)
    return PathPolyline(points=points, segment_ids=[segment_id] * len(points))

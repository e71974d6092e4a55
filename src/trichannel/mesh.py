"""Delaunay mesh over node positions at a time snapshot, plus its dual placements.

Nodes enter as a ``NodeTable``: ids in ascending order with positions,
velocities and radii as arrays.  A node's row is its dense index; every
mesh table holds dense indices, and as the index is monotone in node id,
index order is id order.  A plan reads one table (``Scenario.table_at``)
and all its snapshots share it.  A snapshot's tables are an earlier
snapshot's, taken to the new positions and Lawson-flipped until every edge
is certainly locally Delaunay: a plan's later snapshots advance from the
one before, its first from the run's last plan's first
(``simulate.plan_detailed`` keeps that one).  One whose nodes sit
where its seed's do, bit for bit, shares the seed's tables untested, as
does one that needs no flip.  Qhull (``scipy.spatial.Delaunay``, nodes fed
in id order) builds them only on fallback (``_advance`` lists when).  An
advanced snapshot is the unique Delaunay triangulation of its nodes, so
its tables equal Qhull's, whichever snapshot it came from.

The topology is three ``(T, 3)`` tables, read by every stage.
``triangles[t]`` holds the node indices of triangle ``t``, CCW at the
snapshot time and starting at the lowest index, with rows ordered by
sorted vertex triple, so the tables depend only on the set of triangles.
``neighbors[t, k]`` is the triangle across the edge opposite vertex ``k``,
or -1 on the hull, so the edges ab, bc, ca of (a, b, c) lie opposite c, a,
b, and ``opposite[t, k]`` is its vertex across the edge, or -1: the edge's
flip certificate is ``(triangles[t], opposite[t, k])``.  An edge is written
(lower index, higher index); ``mesh_edges`` lists each once, by triangle
id, then ab, bc, ca.  Channel search and the funnel step across
``neighbors`` itself, and the funnel reads each portal end's radius from
``nodes.r`` by index; ``build_dual`` lists the goal's placements by id.

``Mesh.xy`` holds the positions at the snapshot time and ``Mesh.vel`` the
motion that search and event prediction extrapolate with: the raw
velocities, or the transmitted ones once ``transmission.transmit`` has
run.  A snapshot's arrays are read-only; ``opposite`` and ``xy_list``, the
list view scalar code reads, are built once per snapshot, on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import Delaunay as _QhullDelaunay
from scipy.spatial import QhullError

from .geometry import (CCW_ERRBOUND, Point, TrianglePoints, dist, incircle_det,
                       incircle_filter, orient2d, orient_det)

# Column of the vertex opposite each of the edges ab, bc and ca.
_AB_BC_CA = [2, 0, 1]
# Columns of a row read forward (CCW row) or backward (clockwise row) from
# the column of its lowest index.
_ROW_ORDERS = np.array([[[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                        [[0, 2, 1], [1, 0, 2], [2, 1, 0]]])
# Two placement distances closer than this, relative, are compared again
# with ``math.hypot``: ``np.hypot`` can differ from it in the last bit.
_TIE_RTOL = 1e-12
# ``_advance`` accepts an orientation or in-circle value only when it exceeds
# this share of its permanent, far above the float error bounds (~1e-15):
# Qhull can pick another diagonal than the exact in-circle sign at 1e-13.
_ADVANCE_RTOL = 1e-9
# Past this many flips, a Qhull build costs about as much.
_MAX_FLIPS = 64


class DegenerateInputError(ValueError):
    """Fewer than three nodes, or all nodes collinear."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class NodeTable:
    """Nodes as arrays in ascending id order; a node's row is its dense index."""

    ids: np.ndarray  # (N,) node ids, ascending
    xy: np.ndarray  # (N, 2) positions at time 0
    vel: np.ndarray  # (N, 2) velocities
    r: np.ndarray  # (N,) radii

    def __post_init__(self) -> None:
        if not (self.ids[1:] > self.ids[:-1]).all():
            raise ValueError("duplicate node ids" if np.unique(self.ids).size < self.ids.size
                             else "node ids not ascending")

    @cached_property
    def r_list(self) -> List[float]:
        return self.r.tolist()


@dataclass(frozen=True, eq=False)
class Mesh:
    time: float
    nodes: NodeTable
    xy: np.ndarray  # (N, 2) node positions at ``time``
    vel: np.ndarray  # (N, 2) planning motion of each node
    triangles: np.ndarray  # (T, 3) node indices, CCW from the lowest; rows by sorted triple
    neighbors: np.ndarray  # (T, 3) triangle across the edge opposite each vertex, or -1

    @cached_property
    def xy_list(self) -> List[Point]:
        return list(zip(*self.xy.T.tolist()))

    @cached_property
    def opposite(self) -> np.ndarray:
        """(T, 3) vertex of ``neighbors[t, k]`` across the edge opposite vertex
        ``k`` of ``t``, or -1 on the hull.  The edge is ``t`` less vertex ``k``,
        so it is the difference of the rows' index sums plus vertex ``k``."""
        tris, nbrs = self.triangles, self.neighbors
        tsum = tris.sum(axis=1)
        return _frozen(np.where(nbrs >= 0, tsum[nbrs] - tsum[:, None] + tris, -1))

    def triangle_points(self, tri_id: int) -> TrianglePoints:
        xy = self.xy_list
        a, b, c = self.triangles[tri_id].tolist()
        return (xy[a], xy[b], xy[c])


def _by_sorted_triple(triangles: np.ndarray, neighbors: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """The tables with rows ordered by sorted vertex triple, neighbours renumbered."""
    order = np.lexsort(np.sort(triangles, axis=1).T[::-1])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    neighbors = neighbors[order]
    return triangles[order], np.where(neighbors >= 0, rank[neighbors], -1)


def _qhull_tables(pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Qhull's triangle and neighbour tables, every row CCW from its lowest index."""
    try:
        qhull = _QhullDelaunay(pts)
    except QhullError as exc:
        raise DegenerateInputError(f"degenerate node set: {exc}") from None
    if qhull.simplices.shape[0] == 0:
        raise DegenerateInputError("all nodes collinear")

    triangles = qhull.simplices.astype(np.intp)
    neighbors = qhull.neighbors.astype(np.intp)
    # Orient every triangle CCW: ``orient_det`` filters all rows at once,
    # and only the rows inside its error bound go to the exact ``orient2d``.
    x, y = pts[:, 0][triangles], pts[:, 1][triangles]  # (T, 3) corner coordinates
    det, size = orient_det((x[:, 0] - x[:, 2], x[:, 1] - x[:, 2]),
                           (y[:, 0] - y[:, 2], y[:, 1] - y[:, 2]))
    clockwise = det < 0
    for row in np.flatnonzero(~(np.abs(det) > CCW_ERRBOUND * size)):
        clockwise[row] = orient2d(*pts[triangles[row]].tolist()) < 0
    # Qhull's choice of first vertex is not reproducible between snapshots:
    # read each row from its lowest index, forward if CCW, else backward.
    # A neighbour column moves with the vertex it lies opposite.
    rows = np.arange(len(triangles))[:, None]
    cols = _ROW_ORDERS[clockwise.astype(np.intp), triangles.argmin(axis=1)]
    return _by_sorted_triple(triangles[rows, cols], neighbors[rows, cols])


def _advance(prior: Mesh, pts: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``prior``'s tables taken to the positions ``pts`` by Lawson flips.

    At ``prior``'s own positions, bit for bit, its read-only tables as they
    are, untested: an accepted advance certified them there, or Qhull built
    them from these points.  Otherwise None, for Qhull to build the tables
    instead, when ``prior`` (of any node table) has another node count or
    misses a node (Qhull drops duplicates), a hull vertex is not where
    ``prior`` has it, a prior triangle's orientation (so it must be CCW) or
    an in-circle value is not clear of zero by ``_ADVANCE_RTOL`` of its
    permanent, or more than ``_MAX_FLIPS`` edges flip.  With the hull fixed
    and every triangle CCW, the tables cover the hull once; a flip happens
    only where the opposite vertex is certainly inside, which keeps both new
    triangles CCW, and every edge of the result is certainly locally
    Delaunay: it is the unique Delaunay triangulation, Qhull's.  With no
    flip, that is ``prior``'s own tables again; else new ones in
    sorted-triple row order.
    """
    tris, nbrs = prior.triangles, prior.neighbors
    # Raw bytes, so that -0.0 and 0.0 differ (and a count differs too).
    if prior.xy.tobytes() == pts.tobytes():
        return tris, nbrs
    # Every hull vertex starts one hull edge: ab, bc or ca with no triangle across.
    hull = tris[nbrs[:, _AB_BC_CA] < 0]
    if (len(prior.xy) != len(pts)
            or not np.bincount(tris.ravel(), minlength=len(pts)).all()
            or (prior.xy[hull] != pts[hull]).any()):
        return None
    x, y = pts[:, 0][tris], pts[:, 1][tris]  # (T, 3) corner coordinates
    det, size = orient_det((x[:, 0] - x[:, 2], x[:, 1] - x[:, 2]),
                           (y[:, 0] - y[:, 2], y[:, 1] - y[:, 2]))
    if not (det > _ADVANCE_RTOL * size).all():
        return None
    # Every interior edge once, from its lower-id triangle t.
    t, k = np.nonzero(nbrs > np.arange(len(tris))[:, None])
    probe = prior.opposite[t, k]
    det, perm = incircle_filter((x[t] - pts[probe, 0, None]).T[[0, 1, 2, 0, 1]],
                                (y[t] - pts[probe, 1, None]).T[[0, 1, 2, 0, 1]])
    if not (np.abs(det) > _ADVANCE_RTOL * perm).all():
        return None
    flip = det > 0
    if not flip.any():
        return tris, nbrs
    stack = np.column_stack([t[flip], k[flip]]).tolist()
    tris, nbrs, xy = tris.copy(), nbrs.copy(), pts.tolist()
    flips = 0
    while stack:
        t, k = stack.pop()
        u = nbrs[t, k]
        if u < 0:
            continue
        # t = (a, b, c) and u = (d, c, b) share the edge bc.
        a, b, c = (tris[t].tolist() * 2)[k:k + 3]
        _, across_ca, across_ab = (nbrs[t].tolist() * 2)[k:k + 3]
        j = nbrs[u].tolist().index(t)
        d = tris[u, j]
        _, across_bd, across_dc = (nbrs[u].tolist() * 2)[j:j + 3]
        det, perm = incircle_det(xy[a], xy[b], xy[c], xy[d])
        if not abs(det) > _ADVANCE_RTOL * perm:
            return None
        if det < 0:
            continue
        flips += 1
        if flips > _MAX_FLIPS:
            return None
        # Flip bc to ad: t = (a, b, d) and u = (d, c, a), both CCW, each
        # rolled to start at its lowest index; then test their outer edges.
        for row, tri, nbr in ((t, [a, b, d], [across_bd, u, across_ab]),
                              (u, [d, c, a], [across_ca, t, across_dc])):
            i = tri.index(min(tri))
            tris[row], nbrs[row] = tri[i:] + tri[:i], nbr[i:] + nbr[:i]
            stack += [[row, -i % 3], [row, (2 - i) % 3]]
        for w, old, new in ((across_bd, u, t), (across_ca, t, u)):
            if w >= 0:
                nbrs[w, nbrs[w].tolist().index(old)] = new
    return _by_sorted_triple(tris, nbrs)


def build_mesh(table: NodeTable, t: float, prior: Optional[Mesh] = None) -> Mesh:
    """Delaunay triangulation of the table's nodes at ``t``: ``xy + vel * t``.

    ``prior``'s tables, of any node table, are advanced to ``t`` by edge
    flips wherever that certainly gives Qhull's (``_advance``); otherwise,
    or with no prior, Qhull builds them.  At the prior's very positions the
    new snapshot shares its tables, but keeps its own time, node table,
    positions and the table's velocities.  Raises ``DegenerateInputError``
    for fewer than 3 nodes or an all-collinear set.
    """
    if len(table.ids) < 3:
        raise DegenerateInputError(f"need at least 3 nodes, got {len(table.ids)}")

    pts = table.xy + table.vel * t
    advanced = _advance(prior, pts) if prior is not None else None
    triangles, neighbors = advanced if advanced is not None else _qhull_tables(pts)
    return Mesh(time=t, nodes=table, xy=_frozen(pts), vel=table.vel,
                triangles=_frozen(triangles), neighbors=_frozen(neighbors))


def mesh_edges(mesh: Mesh) -> np.ndarray:
    """``(E, 2)`` table of the mesh edges, each once as (lower, higher) index.

    Edges come in first-occurrence order: by triangle id, then ab, bc, ca.
    An edge first occurs in the lower-id triangle of the two sharing it.
    """
    tris = mesh.triangles
    across = mesh.neighbors[:, _AB_BC_CA]
    first = (across < 0) | (across > np.arange(len(tris))[:, None])
    a, b = tris[first], tris[:, [1, 2, 0]][first]  # the ends of ab, bc, ca
    return np.column_stack([np.minimum(a, b), np.maximum(a, b)])


def find_triangle(mesh: Mesh, vertices: Sequence[int]) -> Optional[int]:
    """Id of the triangle with these three node indices in any order, or None."""
    match = (np.sort(mesh.triangles, axis=1) == sorted(vertices)).all(axis=1)
    hit = np.flatnonzero(match)
    return int(hit[0]) if hit.size else None


def build_dual(mesh: Mesh, goal: Point, ego_radius: float) -> List[Point]:
    """Each triangle's dual node, in a list by triangle id, placed by the goal.

    A node is the point of the triangle's shared edges nearest to the goal,
    clamped off the edge ends; the dual edges are ``Mesh.neighbors``.  Edges
    are tried in the order ab, bc, ca and the first nearest wins.  A
    triangle with no shared edge (single-triangle mesh) gets its centroid.
    One array pass places every candidate with the operations of the scalar
    rule; ``math.hypot`` decides near ties.
    """
    tris = mesh.triangles
    across = mesh.neighbors[:, _AB_BC_CA]  # triangle across ab, bc, ca
    nxt = tris[:, [1, 2, 0]]
    lo, hi = np.minimum(tris, nxt), np.maximum(tris, nxt)  # edge ends, (T, 3)
    x, y = mesh.xy.T
    gx, gy = goal
    ax, ay = x[lo], y[lo]
    dx, dy = x[hi] - ax, y[hi] - ay
    length_sq = dx * dx + dy * dy
    length = np.sqrt(length_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = ((gx - ax) * dx + (gy - ay) * dy) / length_sq
        tenth = 0.1 * length
        margin = np.where(ego_radius < tenth, ego_radius, tenth) / length
        # min(max(s, margin), 1 - margin) with the builtins' NaN behaviour.
        s = np.where(margin > s, margin, s)
        s = np.where(1.0 - margin < s, 1.0 - margin, s)
        # Qhull never joins coincident nodes, so no edge has zero length.
        cx, cy = ax + s * dx, ay + s * dy
        d = np.hypot(cx - gx, cy - gy)
        d[(across < 0) | np.isnan(d)] = np.inf  # never "< best_d"
        ranked = np.sort(d, axis=1)
        # The first of equal minima wins; a near tie is decided below.
        near = ranked[:, 1] - ranked[:, 0] <= _TIE_RTOL * ranked[:, 0]
    pick = np.arange(len(tris)) * 3 + d.argmin(axis=1)  # flat (T, 3) index
    px, py = cx.ravel()[pick], cy.ravel()[pick]
    lone = np.isinf(ranked[:, 0])
    if lone.any():
        corners = mesh.xy[tris[lone]]
        px[lone], py[lone] = ((corners[:, 0] + corners[:, 1] + corners[:, 2]) / 3.0).T
    placements = list(zip(px.tolist(), py.tolist()))
    for row in np.flatnonzero(near).tolist():
        best_d = math.inf
        for j, point in enumerate(zip(cx[row].tolist(), cy[row].tolist())):
            if across[row, j] >= 0 and dist(point, goal) < best_d:
                placements[row], best_d = point, dist(point, goal)
    return placements


def generate_virtual_nodes(boundary: Sequence[Point], spacing: float,
                           max_count: Optional[int] = None) -> List[Point]:
    """Evenly spaced virtual node positions along a polyline.

    Points sit at arc-length intervals <= ``spacing`` and include both
    endpoints.  A closed polyline (first point == last point) does not
    duplicate the seam point.  Raises ValueError, before placing any, when
    that takes more than ``max_count`` points.
    """
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if len(boundary) < 2:
        raise ValueError("boundary polyline needs at least 2 points")

    closed = boundary[0] == boundary[-1]
    seg_lengths = [dist(boundary[i], boundary[i + 1]) for i in range(len(boundary) - 1)]
    total = sum(seg_lengths)
    if total == 0.0:
        raise ValueError("zero-length boundary polyline")

    # Clamped so that a count past every cap stays an int, even where
    # ``total / spacing`` overflows.
    intervals = max(1, math.ceil(min(total / spacing, 2.0 ** 53)))
    count = intervals if closed else intervals + 1
    if max_count is not None and count > max_count:
        raise ValueError(f"needs over {max_count} nodes at spacing {spacing}")
    targets = [i * total / intervals for i in range(count)]

    points: List[Point] = []
    seg = 0
    walked = 0.0
    for s in targets:
        while seg < len(seg_lengths) - 1 and walked + seg_lengths[seg] < s:
            walked += seg_lengths[seg]
            seg += 1
        a, b = boundary[seg], boundary[seg + 1]
        frac = 0.0 if seg_lengths[seg] == 0 else (s - walked) / seg_lengths[seg]
        frac = min(frac, 1.0)
        points.append((a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1])))
    if not closed:
        # Force the exact endpoint: the arc-length walk can round short.
        points[-1] = boundary[-1]
    return points


def point_in_triangle(pts: TrianglePoints, p: Point) -> bool:
    """Boundary-inclusive containment for a CCW triangle."""
    a, b, c = pts
    return (
        orient2d(a, b, p) >= 0
        and orient2d(b, c, p) >= 0
        and orient2d(c, a, p) >= 0
    )


def locate(mesh: Mesh, p: Point) -> Optional[int]:
    """Triangle containing ``p`` (boundary-inclusive, lowest id wins).

    ``orient_det`` filters every edge of every row at once; a row that no
    edge certainly excludes and not every edge certainly holds goes to the
    exact ``point_in_triangle``.  Returns None when ``p`` is outside the
    convex hull.
    """
    px, py = p
    x, y = mesh.xy.T
    ax, ay = x[mesh.triangles] - px, y[mesh.triangles] - py  # (T, 3) corners
    # orient2d(a, b, p) of the edges ab, bc, ca
    det, size = orient_det((ax, ax[:, [1, 2, 0]]), (ay, ay[:, [1, 2, 0]]))
    err = CCW_ERRBOUND * size
    inside = (det > err).all(axis=1)
    for row in np.flatnonzero(~(det < -err).any(axis=1)).tolist():
        if inside[row] or point_in_triangle(mesh.triangle_points(row), p):
            return row
    return None

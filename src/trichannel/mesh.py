"""Delaunay mesh over node positions at a time snapshot, plus its dual graph.

Construction delegates to Qhull (``scipy.spatial.Delaunay``) with nodes fed
in id order, so the output is deterministic per input.  The Delaunay
property is audited elsewhere with the exact ``incircle`` predicate.

The topology is two ``(T, 3)`` tables, built once and read by every stage.
``triangles[t]`` holds the node ids of triangle ``t``, CCW at the snapshot
time, with rows ordered by sorted vertex triple.  ``neighbors[t, k]`` is
the triangle across the edge opposite vertex ``k``, or -1 on the hull, so
the edges ab, bc, ca of (a, b, c) lie opposite c, a, b.  An edge is written
(lower id, higher id); edges are walked by triangle id, then ab, bc, ca
(``mesh_edges``), and dual-graph neighbours are sorted by triangle id.

``Mesh.velocities`` is the motion that search and event prediction
extrapolate with: the raw node velocities from ``build_mesh``, or the
transmitted ones once ``transmission.transmit`` has run on the snapshot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import Delaunay as _QhullDelaunay
from scipy.spatial import QhullError

from .geometry import (CCW_ERRBOUND, NodeKind, NodeState, Point, TrianglePoints,
                       Vector, dist, orient2d, position_at)

# Column of the vertex opposite each of the edges ab, bc and ca.
_AB_BC_CA = [2, 0, 1]


class DegenerateInputError(ValueError):
    """Fewer than three nodes, or all nodes collinear."""


@dataclass
class Mesh:
    time: float
    nodes: Dict[int, NodeState]
    positions: Dict[int, Point]  # node positions at ``time``
    triangles: np.ndarray  # (T, 3) node ids, CCW; rows ordered by sorted triple
    neighbors: np.ndarray  # (T, 3) triangle across the edge opposite each vertex, or -1
    velocities: Dict[int, Vector]  # planning motion of each node

    def triangle_points(self, tri_id: int) -> TrianglePoints:
        a, b, c = self.triangles[tri_id].tolist()
        return (self.positions[a], self.positions[b], self.positions[c])


def build_mesh(nodes: Iterable[NodeState], t: float) -> Mesh:
    """Delaunay triangulation of the nodes at positions extrapolated to ``t``.

    Raises ``DegenerateInputError`` for fewer than 3 nodes or an
    all-collinear set.
    """
    node_list = sorted(nodes, key=lambda n: n.id)
    if len(node_list) < 3:
        raise DegenerateInputError(f"need at least 3 nodes, got {len(node_list)}")
    if len({n.id for n in node_list}) != len(node_list):
        raise ValueError("duplicate node ids")

    positions = {n.id: position_at(n, t) for n in node_list}
    pts = np.array([positions[n.id] for n in node_list], dtype=float)
    try:
        qhull = _QhullDelaunay(pts)
    except QhullError as exc:
        raise DegenerateInputError(f"degenerate node set: {exc}") from None
    if qhull.simplices.shape[0] == 0:
        raise DegenerateInputError("all nodes collinear")

    triangles = np.array([n.id for n in node_list])[qhull.simplices]
    neighbors = qhull.neighbors.astype(np.intp)
    # Orient every triangle CCW: the float filter of ``orient2d`` decides
    # all rows at once, and only the rows inside its error bound go to the
    # exact predicate.
    a, b, c = (pts[qhull.simplices[:, k]] for k in range(3))
    detleft = (a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
    detright = (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0])
    det = detleft - detright
    clockwise = det < 0
    uncertain = ~(np.abs(det) > CCW_ERRBOUND * (np.abs(detleft) + np.abs(detright)))
    for row in np.flatnonzero(uncertain):
        va, vb, vc = triangles[row].tolist()
        clockwise[row] = orient2d(positions[va], positions[vb], positions[vc]) < 0
    # Swapping vertices b and c swaps the neighbours opposite them too.
    triangles[clockwise] = triangles[clockwise][:, [0, 2, 1]]
    neighbors[clockwise] = neighbors[clockwise][:, [0, 2, 1]]

    # Deterministic triangle ids: rows ordered by the sorted vertex triple.
    order = np.lexsort(np.sort(triangles, axis=1).T[::-1])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    neighbors = neighbors[order]
    return Mesh(
        time=t,
        nodes={n.id: n for n in node_list},
        positions=positions,
        triangles=triangles[order],
        neighbors=np.where(neighbors >= 0, rank[neighbors], -1),
        velocities={n.id: n.velocity for n in node_list},
    )


def mesh_edges(mesh: Mesh) -> np.ndarray:
    """``(E, 2)`` table of the mesh edges, each once as (lower id, higher id).

    Edges come in first-occurrence order: by triangle id, then ab, bc, ca.
    An edge first occurs in the lower-id triangle of the two sharing it.
    """
    tris = mesh.triangles
    ends = np.stack([tris, np.roll(tris, -1, axis=1)], axis=2)  # ab, bc, ca
    across = mesh.neighbors[:, _AB_BC_CA]
    first = (across < 0) | (across > np.arange(len(tris))[:, None])
    return np.sort(ends[first], axis=1)


def find_triangle(mesh: Mesh, vertices: Sequence[int]) -> Optional[int]:
    """Id of the triangle with these three vertices in any order, or None."""
    match = (np.sort(mesh.triangles, axis=1) == sorted(vertices)).all(axis=1)
    hit = np.flatnonzero(match)
    return int(hit[0]) if hit.size else None


@dataclass
class DualGraph:
    """One node per triangle, one edge per shared mesh edge.

    Dual node placement follows a goal-attraction rule: the point of the
    triangle's goal-facing shared edge nearest to the goal, clamped off the
    edge endpoints.
    """

    goal: Point
    placements: Dict[int, Point]  # triangle id -> dual node position
    # Per triangle id: (neighbour id, shared mesh edge), sorted by neighbour.
    adjacency: List[List[Tuple[int, Tuple[int, int]]]]


def _closest_point_on_edge(mesh: Mesh, edge: Tuple[int, int], goal: Point,
                           ego_radius: float) -> Point:
    pa = mesh.positions[edge[0]]
    pb = mesh.positions[edge[1]]
    dx, dy = pb[0] - pa[0], pb[1] - pa[1]
    length_sq = dx * dx + dy * dy
    length = math.sqrt(length_sq)
    if length == 0.0:
        return pa
    s = ((goal[0] - pa[0]) * dx + (goal[1] - pa[1]) * dy) / length_sq
    margin = min(0.1 * length, ego_radius) / length
    s = min(max(s, margin), 1.0 - margin)
    return (pa[0] + s * dx, pa[1] + s * dy)


def build_dual(mesh: Mesh, goal: Point, ego_radius: float = 0.5) -> DualGraph:
    """Dual graph with goal-attracted node placement.

    Shared edges are tried in the order ab, bc, ca and the first nearest
    candidate wins.  A triangle with no shared edge (single-triangle mesh)
    gets its centroid.
    """
    placements: Dict[int, Point] = {}
    adjacency: List[List[Tuple[int, Tuple[int, int]]]] = []
    rows = zip(mesh.triangles.tolist(), mesh.neighbors[:, _AB_BC_CA].tolist())
    for tri_id, ((a, b, c), across) in enumerate(rows):
        links: List[Tuple[int, Tuple[int, int]]] = []
        best: Optional[Point] = None
        best_d = math.inf
        for (u, v), neigh in zip(((a, b), (b, c), (c, a)), across):
            if neigh < 0:
                continue
            edge = (u, v) if u < v else (v, u)
            links.append((neigh, edge))
            candidate = _closest_point_on_edge(mesh, edge, goal, ego_radius)
            d = dist(candidate, goal)
            if d < best_d:
                best, best_d = candidate, d
        if best is None:
            pts = mesh.triangle_points(tri_id)
            best = (
                (pts[0][0] + pts[1][0] + pts[2][0]) / 3.0,
                (pts[0][1] + pts[1][1] + pts[2][1]) / 3.0,
            )
        placements[tri_id] = best
        links.sort()
        adjacency.append(links)
    return DualGraph(goal=goal, placements=placements, adjacency=adjacency)


def generate_virtual_nodes(boundary: Sequence[Point], spacing: float,
                           id_start: int = 0) -> List[NodeState]:
    """Evenly spaced zero-velocity, zero-radius virtual nodes along a polyline.

    Nodes sit at arc-length intervals <= ``spacing`` and include both
    endpoints.  A closed polyline (first point == last point) does not
    duplicate the seam node.
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

    intervals = max(1, math.ceil(total / spacing))
    count = intervals if closed else intervals + 1
    targets = [i * total / intervals for i in range(count)]

    nodes: List[NodeState] = []
    seg = 0
    walked = 0.0
    for i, s in enumerate(targets):
        while seg < len(seg_lengths) - 1 and walked + seg_lengths[seg] < s:
            walked += seg_lengths[seg]
            seg += 1
        a, b = boundary[seg], boundary[seg + 1]
        frac = 0.0 if seg_lengths[seg] == 0 else (s - walked) / seg_lengths[seg]
        frac = min(frac, 1.0)
        p = (a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1]))
        nodes.append(NodeState(id=id_start + i, x=p[0], y=p[1], vx=0.0, vy=0.0,
                               r=0.0, kind=NodeKind.VIRTUAL))
    if not closed:
        # Force the exact endpoint: the arc-length walk can round short.
        end = boundary[-1]
        nodes[-1] = NodeState(id=nodes[-1].id, x=end[0], y=end[1], vx=0.0, vy=0.0,
                              r=0.0, kind=NodeKind.VIRTUAL)
    return nodes


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

    Returns None when ``p`` is outside the convex hull.
    """
    pos = mesh.positions
    for tri_id, (a, b, c) in enumerate(mesh.triangles.tolist()):
        if point_in_triangle((pos[a], pos[b], pos[c]), p):
            return tri_id
    return None

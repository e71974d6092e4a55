"""Delaunay mesh over node positions at a time snapshot, plus its dual graph.

Construction delegates to Qhull (``scipy.spatial.Delaunay``) with nodes fed
in id order, so the output is deterministic per input.  The Delaunay
property is audited elsewhere with the exact ``incircle`` predicate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import Delaunay as _QhullDelaunay
from scipy.spatial import QhullError

from .geometry import (NodeKind, NodeState, Point, TrianglePoints, dist, orient2d,
                       position_at)

EdgeKey = Tuple[int, int]


class DegenerateInputError(ValueError):
    """Fewer than three nodes, or all nodes collinear."""


def edge_key(u: int, v: int) -> EdgeKey:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Triangle:
    id: int
    vertices: Tuple[int, int, int]  # node ids, CCW at the snapshot time

    def edges(self) -> List[EdgeKey]:
        a, b, c = self.vertices
        return [edge_key(a, b), edge_key(b, c), edge_key(c, a)]


@dataclass
class Mesh:
    time: float
    nodes: Dict[int, NodeState]
    positions: Dict[int, Point]  # node positions at ``time``
    triangles: List[Triangle]
    adjacency: Dict[int, List[int]]  # triangle id -> neighbor triangle ids
    edge_to_triangles: Dict[EdgeKey, List[int]]

    def triangle_points(self, tri_id: int) -> TrianglePoints:
        a, b, c = self.triangles[tri_id].vertices
        return (self.positions[a], self.positions[b], self.positions[c])

    def shared_edge(self, tri_a: int, tri_b: int) -> EdgeKey:
        common = set(self.triangles[tri_a].vertices) & set(self.triangles[tri_b].vertices)
        if len(common) != 2:
            raise ValueError(f"triangles {tri_a} and {tri_b} share no edge")
        u, v = sorted(common)
        return (u, v)


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

    ids = [n.id for n in node_list]
    # Deterministic triangle ids: sort by the sorted vertex-id triple.
    raw: List[Tuple[int, int, int]] = []
    for simplex in qhull.simplices:
        va, vb, vc = (ids[simplex[0]], ids[simplex[1]], ids[simplex[2]])
        if orient2d(positions[va], positions[vb], positions[vc]) < 0:
            vb, vc = vc, vb
        raw.append((va, vb, vc))
    raw.sort(key=lambda tri: tuple(sorted(tri)))

    triangles = [Triangle(id=i, vertices=v) for i, v in enumerate(raw)]
    edge_to_triangles: Dict[EdgeKey, List[int]] = {}
    for tri in triangles:
        for e in tri.edges():
            edge_to_triangles.setdefault(e, []).append(tri.id)

    adjacency: Dict[int, List[int]] = {tri.id: [] for tri in triangles}
    for e, tris in edge_to_triangles.items():
        if len(tris) == 2:
            adjacency[tris[0]].append(tris[1])
            adjacency[tris[1]].append(tris[0])
    for neigh in adjacency.values():
        neigh.sort()

    return Mesh(
        time=t,
        nodes={n.id: n for n in node_list},
        positions=positions,
        triangles=triangles,
        adjacency=adjacency,
        edge_to_triangles=edge_to_triangles,
    )


@dataclass
class DualGraph:
    """One node per triangle, one edge per shared mesh edge.

    Dual node placement follows a goal-attraction rule: the point of the
    triangle's goal-facing shared edge nearest to the goal, clamped off the
    edge endpoints.
    """

    goal: Point
    placements: Dict[int, Point]  # triangle id -> dual node position
    edges: List[Tuple[int, int, EdgeKey]]  # (tri_a, tri_b, crossed mesh edge)
    adjacency: Dict[int, List[Tuple[int, EdgeKey]]] = field(default_factory=dict)


def _closest_point_on_edge(mesh: Mesh, edge: EdgeKey, goal: Point,
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

    A triangle with no shared edge (single-triangle mesh) gets its centroid.
    """
    placements: Dict[int, Point] = {}
    for tri in mesh.triangles:
        best: Optional[Point] = None
        best_d = math.inf
        for e in tri.edges():
            if len(mesh.edge_to_triangles[e]) != 2:
                continue
            candidate = _closest_point_on_edge(mesh, e, goal, ego_radius)
            d = dist(candidate, goal)
            if d < best_d:
                best, best_d = candidate, d
        if best is None:
            pts = mesh.triangle_points(tri.id)
            best = (
                (pts[0][0] + pts[1][0] + pts[2][0]) / 3.0,
                (pts[0][1] + pts[1][1] + pts[2][1]) / 3.0,
            )
        placements[tri.id] = best

    edges: List[Tuple[int, int, EdgeKey]] = []
    adjacency: Dict[int, List[Tuple[int, EdgeKey]]] = {t.id: [] for t in mesh.triangles}
    for e, tris in sorted(mesh.edge_to_triangles.items()):
        if len(tris) == 2:
            a, b = sorted(tris)
            edges.append((a, b, e))
            adjacency[a].append((b, e))
            adjacency[b].append((a, e))
    for lst in adjacency.values():
        lst.sort()
    return DualGraph(goal=goal, placements=placements, edges=edges, adjacency=adjacency)


def generate_virtual_nodes(boundary: Sequence[Point], spacing: float,
                           id_start: int = 0, radius: float = 0.0) -> List[NodeState]:
    """Evenly spaced zero-velocity virtual nodes along a polyline.

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
                               r=radius, kind=NodeKind.VIRTUAL))
    if not closed:
        # Force the exact endpoint: the arc-length walk can round short.
        end = boundary[-1]
        nodes[-1] = NodeState(id=nodes[-1].id, x=end[0], y=end[1], vx=0.0, vy=0.0,
                              r=radius, kind=NodeKind.VIRTUAL)
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
    for tri in mesh.triangles:
        if point_in_triangle(mesh.triangle_points(tri.id), p):
            return tri.id
    return None

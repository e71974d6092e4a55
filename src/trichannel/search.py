"""Channel search on the dual graph: baseline A* and time-aware Timed A*.

Both searches return a ``Channel``: the triangle sequence from the ego's
triangle to the goal triangle and the estimated arrival time at each
triangle's dual node.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .geometry import Point, dist
from .mesh import DualGraph, Mesh


@dataclass
class Channel:
    """Edge-connected triangle sequence at one mesh topology."""

    time: float  # topology snapshot time
    triangles: List[int]  # triangle ids, ego first, goal last
    etas: List[float]  # per-triangle arrival offset from ``time``, seconds
    waypoints: List[Point]  # dual node placement per triangle
    start_point: Point

    def __len__(self) -> int:
        return len(self.triangles)


def _cumulative_etas(waypoints: Sequence[Point], ego_position: Point,
                     ego_speed: float) -> List[float]:
    # Arrival at triangle i is the time to reach waypoint i-1, the dual
    # placement on the portal into triangle i; the first triangle already
    # holds the ego, so its arrival time is zero.
    etas = [0.0]
    reach = 0.0
    prev = ego_position
    for w in waypoints[:-1]:
        reach += dist(prev, w) / ego_speed
        etas.append(reach)
        prev = w
    return etas


def _reconstruct(dual: DualGraph, came: Dict[int, int],
                 start_tri: int, goal_tri: int, time: float,
                 ego_position: Point, ego_speed: float) -> Channel:
    tris = [goal_tri]
    while tris[-1] != start_tri:
        tris.append(came[tris[-1]])
    tris.reverse()
    waypoints = [dual.placements[t] for t in tris]
    return Channel(
        time=time,
        triangles=tris,
        etas=_cumulative_etas(waypoints, ego_position, ego_speed),
        waypoints=waypoints,
        start_point=ego_position,
    )


def _check_tris(dual: DualGraph, start_tri: int, goal_tri: int) -> None:
    for tri in (start_tri, goal_tri):
        if tri not in dual.placements:
            raise KeyError(f"unknown triangle id {tri}")


def astar(dual: DualGraph, start_tri: int, goal_tri: int, *,
          time: float = 0.0, ego_position: Optional[Point] = None,
          ego_speed: float = 1.0) -> Optional[Channel]:
    """Minimum-cost channel under static Euclidean edge costs.

    Heuristic is the straight-line distance from a dual placement to the
    goal point.  Returns None when start and goal are disconnected.
    """
    _check_tris(dual, start_tri, goal_tri)
    if ego_position is None:
        ego_position = dual.placements[start_tri]

    g: Dict[int, float] = {start_tri: 0.0}
    came: Dict[int, int] = {}
    h0 = dist(dual.placements[start_tri], dual.goal)
    open_heap: List[Tuple[float, float, int]] = [(h0, h0, start_tri)]
    closed = set()
    while open_heap:
        _, _, tri = heapq.heappop(open_heap)
        if tri in closed:
            continue
        closed.add(tri)
        if tri == goal_tri:
            return _reconstruct(dual, came, start_tri, goal_tri, time,
                                ego_position, ego_speed)
        for neigh, _ in dual.adjacency[tri]:
            if neigh in closed:
                continue
            cand = g[tri] + dist(dual.placements[tri], dual.placements[neigh])
            if cand < g.get(neigh, math.inf):
                g[neigh] = cand
                came[neigh] = tri
                h = dist(dual.placements[neigh], dual.goal)
                heapq.heappush(open_heap, (cand + h, h, neigh))
    return None


def edge_gap_at(mesh: Mesh, edge: Tuple[int, int], t: float) -> float:
    """Clear width of a mesh edge at time offset ``t`` from the snapshot.

    Distance between the two endpoint nodes, extrapolated with
    ``mesh.velocities``, minus both node radii.
    """
    u, v = edge
    pu, pv = mesh.positions[u], mesh.positions[v]
    vu, vv = mesh.velocities[u], mesh.velocities[v]
    ax, ay = pu[0] + vu[0] * t, pu[1] + vu[1] * t
    bx, by = pv[0] + vv[0] * t, pv[1] + vv[1] * t
    return math.hypot(ax - bx, ay - by) - mesh.nodes[u].r - mesh.nodes[v].r


def timed_astar(dual: DualGraph, mesh: Mesh, start_tri: int, goal_tri: int, *,
                ego_speed: float, width_threshold: float, time: float = 0.0,
                ego_position: Optional[Point] = None) -> Optional[Channel]:
    """Time-aware channel search.

    Costs are travel times at ``ego_speed``; crossing a mesh edge is
    admitted only when the edge's clear width at the arrival time stays at
    or above ``width_threshold``, with node positions extrapolated to that
    time with ``mesh.velocities``.  A triangle is expanded at most once.
    Returns None when no admissible channel exists.
    """
    if ego_speed <= 0:
        raise ValueError(f"ego_speed must be positive, got {ego_speed}")
    _check_tris(dual, start_tri, goal_tri)
    if ego_position is None:
        ego_position = dual.placements[start_tri]

    g: Dict[int, float] = {start_tri: dist(ego_position, dual.placements[start_tri]) / ego_speed}
    came: Dict[int, int] = {}
    h0 = dist(dual.placements[start_tri], dual.goal) / ego_speed
    open_heap: List[Tuple[float, float, int]] = [(g[start_tri] + h0, h0, start_tri)]
    closed = set()
    while open_heap:
        _, _, tri = heapq.heappop(open_heap)
        if tri in closed:
            continue
        closed.add(tri)
        if tri == goal_tri:
            return _reconstruct(dual, came, start_tri, goal_tri, time,
                                ego_position, ego_speed)
        for neigh, edge in dual.adjacency[tri]:
            if neigh in closed:
                continue
            t_eta = g[tri] + dist(dual.placements[tri], dual.placements[neigh]) / ego_speed
            if edge_gap_at(mesh, edge, t_eta) < width_threshold:
                continue
            if t_eta < g.get(neigh, math.inf):
                g[neigh] = t_eta
                came[neigh] = tri
                h = dist(dual.placements[neigh], dual.goal) / ego_speed
                heapq.heappush(open_heap, (t_eta + h, h, neigh))
    return None

"""Channel search on the dual graph: baseline A* and time-aware Timed A*.

Both searches run one best-first loop over ``Mesh.neighbors`` and return a
``Channel``: the triangle sequence from the ego's triangle to the goal
triangle and the estimated arrival time at each triangle's dual node.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


def edge_gap_at(mesh: Mesh, edge: Tuple[int, int], t: float) -> float:
    """Clear width of a mesh edge at time offset ``t`` from the snapshot.

    Distance between the two endpoint nodes, extrapolated with
    ``mesh.vel``, minus both node radii.
    """
    u, v = edge
    xy, vel, r = mesh.xy_list, mesh.vel_list, mesh.nodes.r_list
    pu, pv = xy[u], xy[v]
    vu, vv = vel[u], vel[v]
    ax, ay = pu[0] + vu[0] * t, pu[1] + vu[1] * t
    bx, by = pv[0] + vv[0] * t, pv[1] + vv[1] * t
    return math.hypot(ax - bx, ay - by) - r[u] - r[v]


def _best_first(dual: DualGraph, mesh: Mesh, start_tri: int, goal_tri: int,
                start_cost: float, speed: float, width_threshold: Optional[float]
                ) -> Optional[List[int]]:
    """Triangle ids of the cheapest channel from ``start_tri`` to ``goal_tri``.

    Edge costs and the heuristic are dual-placement distances divided by
    ``speed``.  With ``width_threshold`` given, an edge is crossed only when
    its ``edge_gap_at`` the arrival cost is not below it.  A triangle is
    expanded at most once.  None when no channel exists.
    """
    place = dual.placements
    for tri in (start_tri, goal_tri):
        if tri not in place:
            raise KeyError(f"unknown triangle id {tri}")
    tris, nbrs = mesh.triangles.tolist(), mesh.neighbors.tolist()
    g: Dict[int, float] = {start_tri: start_cost}
    came: Dict[int, int] = {}
    h0 = dist(place[start_tri], dual.goal) / speed
    open_heap: List[Tuple[float, float, int]] = [(start_cost + h0, h0, start_tri)]
    closed = set()
    while open_heap:
        _, _, tri = heapq.heappop(open_heap)
        if tri in closed:
            continue
        closed.add(tri)
        if tri == goal_tri:
            path = [goal_tri]
            while path[-1] != start_tri:
                path.append(came[path[-1]])
            return path[::-1]
        # Heap entries are distinct, so the order of the neighbours here
        # cannot change which triangle pops next.
        row = tris[tri]
        for k, neigh in enumerate(nbrs[tri]):
            if neigh < 0 or neigh in closed:
                continue
            cand = g[tri] + dist(place[tri], place[neigh]) / speed
            # The edge opposite vertex k as (lower, higher) index, the order
            # ``edge_gap_at`` subtracts radii in.  A NaN gap is admitted.
            u, v = row[k - 2], row[k - 1]
            if (width_threshold is not None and edge_gap_at(
                    mesh, (u, v) if u < v else (v, u), cand) < width_threshold):
                continue
            if cand < g.get(neigh, math.inf):
                g[neigh] = cand
                came[neigh] = tri
                h = dist(place[neigh], dual.goal) / speed
                heapq.heappush(open_heap, (cand + h, h, neigh))
    return None


def _channel(dual: DualGraph, tris: Optional[List[int]], time: float,
             ego_position: Point, ego_speed: float) -> Optional[Channel]:
    if tris is None:
        return None
    waypoints = [dual.placements[t] for t in tris]
    # Arrival at triangle i is the time to reach waypoint i-1, the dual
    # placement on the portal into triangle i; the first triangle already
    # holds the ego, so its arrival time is zero.
    etas = [0.0]
    prev = ego_position
    for w in waypoints[:-1]:
        etas.append(etas[-1] + dist(prev, w) / ego_speed)
        prev = w
    return Channel(time=time, triangles=tris, etas=etas, waypoints=waypoints,
                   start_point=ego_position)


def astar(dual: DualGraph, mesh: Mesh, start_tri: int, goal_tri: int, *,
          ego_position: Optional[Point] = None,
          ego_speed: float = 1.0) -> Optional[Channel]:
    """Minimum-cost channel under static Euclidean edge costs.

    Heuristic is the straight-line distance from a dual placement to the
    goal point.  ``ego_speed`` only sets the channel's arrival times.
    Returns None when start and goal are disconnected.
    """
    tris = _best_first(dual, mesh, start_tri, goal_tri, 0.0, 1.0, None)
    if ego_position is None:
        ego_position = dual.placements[start_tri]
    return _channel(dual, tris, 0.0, ego_position, ego_speed)


def timed_astar(dual: DualGraph, mesh: Mesh, start_tri: int, goal_tri: int, *,
                ego_speed: float, width_threshold: float, time: float = 0.0,
                ego_position: Optional[Point] = None) -> Optional[Channel]:
    """Time-aware channel search.

    Costs are travel times at ``ego_speed``; crossing a mesh edge is
    admitted only when the edge's clear width at the arrival time stays at
    or above ``width_threshold``, with node positions extrapolated to that
    time with ``mesh.vel``.  A triangle is expanded at most once.
    Returns None when no admissible channel exists.
    """
    if ego_speed <= 0:
        raise ValueError(f"ego_speed must be positive, got {ego_speed}")
    if ego_position is None:
        ego_position = dual.placements[start_tri]
    tris = _best_first(dual, mesh, start_tri, goal_tri,
                       dist(ego_position, dual.placements[start_tri]) / ego_speed,
                       ego_speed, width_threshold)
    return _channel(dual, tris, time, ego_position, ego_speed)

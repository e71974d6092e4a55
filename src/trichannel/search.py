"""Channel search on the dual graph: baseline A* and time-aware Timed A*.

Both searches run one best-first loop over ``Mesh.neighbors``, read as one
list row per triangle, and return a ``Channel``: the triangle sequence from
the ego's triangle to the goal triangle and the estimated arrival time at
each triangle's dual node, counted from the snapshot's own time,
``mesh.time``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .geometry import Point, dist
from .mesh import Mesh


@dataclass
class Channel:
    """Edge-connected triangle sequence of the snapshot it was searched on."""

    triangles: List[int]  # triangle ids, ego first, goal last
    etas: List[float]  # per-triangle arrival offset from ``mesh.time``, seconds
    waypoints: List[Point]  # dual node placement per triangle

    def __len__(self) -> int:
        return len(self.triangles)


def _best_first(place: Sequence[Point], goal: Point, mesh: Mesh, start_tri: int,
                goal_tri: int, speed: float, width_threshold: Optional[float],
                start: Optional[Point] = None) -> Optional[List[int]]:
    """Triangle ids of the cheapest channel from ``start_tri`` to ``goal_tri``.

    Edge costs and the heuristic are dual-placement distances divided by
    ``speed``; the start triangle costs the way from ``start`` to its node,
    or nothing without one.  With ``width_threshold`` given, an edge is
    crossed only when its clear width at the arrival cost is not below it:
    the distance between its two nodes, extrapolated with ``mesh.vel``,
    minus both radii.  A triangle is expanded at most once.  None when no
    channel exists; KeyError for a triangle id out of range, -1 included.
    """
    for tri in (start_tri, goal_tri):
        if not 0 <= tri < len(place):
            raise KeyError(f"unknown triangle id {tri}")
    gx, gy = goal
    hypot, heappop, heappush, inf = math.hypot, heapq.heappop, heapq.heappush, math.inf
    # Row t of each: the triangle across side k of t, and vertex k of t,
    # which it lies opposite.
    across = mesh.neighbors.tolist()
    gated = width_threshold is not None
    if gated:
        corners = mesh.triangles.tolist()
        xy, r = mesh.xy_list, mesh.nodes.r_list
        vx, vy = mesh.vel.T.tolist()
    # Cost and heuristic by triangle id; each heuristic is computed once.
    g: List[float] = [inf] * len(mesh.triangles)
    h: List[Optional[float]] = [None] * len(mesh.triangles)
    came = [-1] * len(mesh.triangles)
    sx, sy = place[start_tri]
    start_cost = 0.0 if start is None else dist(start, (sx, sy)) / speed
    h0 = hypot(sx - gx, sy - gy) / speed
    g[start_tri], h[start_tri] = start_cost, h0
    open_heap: List[Tuple[float, float, int]] = [(start_cost + h0, h0, start_tri)]
    closed = [False] * len(across)
    while open_heap:
        _, _, tri = heappop(open_heap)
        if closed[tri]:
            continue
        closed[tri] = True
        if tri == goal_tri:
            path = [goal_tri]
            while path[-1] != start_tri:
                path.append(came[path[-1]])
            return path[::-1]
        # Heap entries are distinct, so the order of the neighbours here
        # cannot change which triangle pops next.
        g_tri = g[tri]
        px, py = place[tri]
        for k, neigh in enumerate(across[tri]):
            if neigh < 0 or closed[neigh]:
                continue
            qx, qy = place[neigh]
            cand = g_tri + hypot(px - qx, py - qy) / speed
            # Neither test has side effects: the cheaper one goes first.
            if not cand < g[neigh]:
                continue
            if gated:
                # The clear width at the arrival cost of the edge opposite
                # vertex k, lower index first.  Kept in this operation order:
                # another, such as a relative position plus a relative
                # velocity, rounds differently and can flip a width equal to
                # the threshold.  A NaN width is admitted.
                row = corners[tri]
                u, v = row[k - 2], row[k - 1]
                if u > v:
                    u, v = v, u
                (ux, uy), (wx, wy) = xy[u], xy[v]
                if (hypot((ux + vx[u] * cand) - (wx + vx[v] * cand),
                          (uy + vy[u] * cand) - (wy + vy[v] * cand)) - r[u] - r[v]
                        < width_threshold):
                    continue
            g[neigh] = cand
            came[neigh] = tri
            hn = h[neigh]
            if hn is None:
                hn = h[neigh] = hypot(qx - gx, qy - gy) / speed
            heappush(open_heap, (cand + hn, hn, neigh))
    return None


def _channel(placements: Sequence[Point], tris: Optional[List[int]],
             ego_position: Point, ego_speed: float) -> Optional[Channel]:
    if tris is None:
        return None
    waypoints = [placements[t] for t in tris]
    # Arrival at triangle i is the time to reach waypoint i-1, the dual
    # placement on the portal into triangle i; the first triangle already
    # holds the ego, so its arrival time is zero.
    etas = [0.0]
    prev = ego_position
    for w in waypoints[:-1]:
        etas.append(etas[-1] + dist(prev, w) / ego_speed)
        prev = w
    return Channel(triangles=tris, etas=etas, waypoints=waypoints)


def astar(placements: Sequence[Point], mesh: Mesh, start_tri: int, goal_tri: int, *,
          goal: Point, ego_position: Point, ego_speed: float) -> Optional[Channel]:
    """Minimum-cost channel under static Euclidean edge costs.

    Heuristic is the straight-line distance from a dual placement to the
    goal point.  ``ego_speed`` only sets the channel's arrival times.
    Returns None when start and goal are disconnected.
    """
    tris = _best_first(placements, goal, mesh, start_tri, goal_tri, 1.0, None)
    return _channel(placements, tris, ego_position, ego_speed)


def timed_astar(placements: Sequence[Point], mesh: Mesh, start_tri: int,
                goal_tri: int, *, goal: Point, ego_speed: float,
                width_threshold: float, ego_position: Point) -> Optional[Channel]:
    """Time-aware channel search.

    Costs are travel times at ``ego_speed``; crossing a mesh edge is
    admitted only when the edge's clear width at the arrival time stays at
    or above ``width_threshold``, with node positions extrapolated to that
    time with ``mesh.vel``.  A triangle is expanded at most once.
    Returns None when no admissible channel exists.
    """
    if ego_speed <= 0:
        raise ValueError(f"ego_speed must be positive, got {ego_speed}")
    tris = _best_first(placements, goal, mesh, start_tri, goal_tri, ego_speed,
                       width_threshold, ego_position)
    return _channel(placements, tris, ego_position, ego_speed)

"""Channel search tests: static A*, the time-aware variant, and gap checks."""
import math
import random
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

from nodes import table_of
from test_stage_oracles import edge_gap_at
from trichannel.geometry import NodeKind, NodeState, dist
from trichannel.mesh import build_dual, build_mesh
from trichannel.search import astar, timed_astar


def make_nodes(points, r=0.0):
    return [NodeState(id=i, x=x, y=y, vx=0.0, vy=0.0, r=r)
            for i, (x, y) in enumerate(points)]


def grid_scene(cols=6, rows=3, jitter_seed=0):
    rng = random.Random(jitter_seed)
    pts = [(c * 2.0 + rng.uniform(-0.2, 0.2), r * 2.0 + rng.uniform(-0.2, 0.2))
           for r in range(rows) for c in range(cols)]
    return make_nodes(pts)


def shares_edge(mesh, a, b):
    """Brute force: triangles ``a`` and ``b`` have exactly two vertices in common."""
    return len(set(mesh.triangles[a].tolist()) & set(mesh.triangles[b].tolist())) == 2


def dijkstra_oracle(mesh, placements, start, goal):
    """Shortest dual-graph path cost by networkx Dijkstra.

    The graph joins every pair of triangles that share two vertices.
    """
    g = nx.Graph()
    for a in range(len(mesh.triangles)):
        for b in range(a + 1, len(mesh.triangles)):
            if shares_edge(mesh, a, b):
                g.add_edge(a, b, weight=dist(placements[a], placements[b]))
    g.add_node(start)
    g.add_node(goal)
    try:
        return nx.dijkstra_path_length(g, start, goal)
    except nx.NetworkXNoPath:
        return None


class TestAstar:
    def test_trivial_same_triangle(self):
        mesh = build_mesh(table_of(make_nodes([(0, 0), (4, 0), (0, 4)])), 0.0)
        place = build_dual(mesh, (1, 1), 0.5)
        ch = astar(place, mesh, 0, 0, goal=(1, 1), ego_position=place[0], ego_speed=1.0)
        assert ch.triangles == [0]

    def test_channel_is_edge_connected(self):
        mesh = build_mesh(table_of(grid_scene()), 0.0)
        place = build_dual(mesh, (10, 4), 0.5)
        ch = astar(place, mesh, 0, len(mesh.triangles) - 1, goal=(10, 4),
                   ego_position=place[0], ego_speed=1.0)
        assert ch is not None
        for a, b in zip(ch.triangles, ch.triangles[1:]):
            assert shares_edge(mesh, a, b)

    def test_cost_matches_dijkstra(self):
        for seed in range(5):
            mesh = build_mesh(table_of(grid_scene(jitter_seed=seed)), 0.0)
            goal = (10.0, 4.0)
            place = build_dual(mesh, goal, 0.5)
            start, end = 0, len(mesh.triangles) - 1
            ch = astar(place, mesh, start, end, goal=goal, ego_position=place[start],
                       ego_speed=1.0)
            want = dijkstra_oracle(mesh, place, start, end)
            got = sum(dist(place[a], place[b])
                      for a, b in zip(ch.triangles, ch.triangles[1:]))
            assert math.isclose(got, want, rel_tol=1e-9)

    def test_unknown_triangle_raises(self):
        mesh = build_mesh(table_of(make_nodes([(0, 0), (4, 0), (0, 4)])), 0.0)
        place = build_dual(mesh, (1, 1), 0.5)
        # -1 too: as a list index it would read the last triangle.
        for bad in (99, -1):
            with pytest.raises(KeyError):
                astar(place, mesh, 0, bad, goal=(1, 1), ego_position=place[0],
                      ego_speed=1.0)
            with pytest.raises(KeyError):
                timed_astar(place, mesh, bad, 0, goal=(1, 1), ego_speed=1.0,
                            width_threshold=0.1, ego_position=place[0])

    def test_arrival_times_start_at_zero(self):
        mesh = build_mesh(table_of(grid_scene()), 0.0)
        place = build_dual(mesh, (10, 4), 0.5)
        ch = astar(place, mesh, 0, len(mesh.triangles) - 1, goal=(10, 4),
                   ego_position=(0.5, 0.5), ego_speed=2.0)
        assert ch.etas[0] == 0.0
        assert all(b >= a for a, b in zip(ch.etas, ch.etas[1:]))
        # Arrival at triangle i+1 is the time to reach waypoint i.
        reach = dist((0.5, 0.5), ch.waypoints[0]) / 2.0
        assert math.isclose(ch.etas[1], reach)


class TestEdgeGap:
    def test_static_gap(self):
        mesh = build_mesh(table_of(make_nodes([(0, 0), (3, 0), (0, 3)], r=0.5)), 0.0)
        gap = edge_gap_at(mesh, (0, 1), 0.0)
        assert math.isclose(gap, 3.0 - 1.0)

    def test_closing_gap_over_time(self):
        nodes = [
            NodeState(id=0, x=0, y=0, vx=1.0, vy=0, r=0.5, kind=NodeKind.DYNAMIC),
            NodeState(id=1, x=4, y=0, vx=-1.0, vy=0, r=0.5, kind=NodeKind.DYNAMIC),
            NodeState(id=2, x=2, y=3, vx=0, vy=0, r=0.0),
        ]
        mesh = build_mesh(table_of(nodes), 0.0)
        assert math.isclose(edge_gap_at(mesh, (0, 1), 0.0), 3.0)
        assert math.isclose(edge_gap_at(mesh, (0, 1), 1.0), 1.0)

    def test_velocity_override_table(self):
        nodes = [
            NodeState(id=0, x=0, y=0, vx=1.0, vy=0, r=0.0, kind=NodeKind.DYNAMIC),
            NodeState(id=1, x=4, y=0, vx=0.0, vy=0, r=0.0),
            NodeState(id=2, x=2, y=3, vx=0, vy=0, r=0.0),
        ]
        mesh = build_mesh(table_of(nodes), 0.0)
        frozen = np.zeros((3, 2))
        assert math.isclose(
            edge_gap_at(replace(mesh, vel=frozen), (0, 1), 5.0), 4.0)


class TestTimedAstar:
    def test_reduces_to_astar_when_static(self):
        for seed in range(3):
            mesh = build_mesh(table_of(grid_scene(jitter_seed=seed)), 0.0)
            goal = (10.0, 4.0)
            place = build_dual(mesh, goal, 0.5)
            start, end = 0, len(mesh.triangles) - 1
            plain = astar(place, mesh, start, end, goal=goal, ego_position=(0, 0),
                          ego_speed=1.0)
            timed = timed_astar(place, mesh, start, end, goal=goal, ego_speed=1.0,
                                width_threshold=0.0, ego_position=(0, 0))
            plain_cost = sum(dist(place[a], place[b])
                             for a, b in zip(plain.triangles, plain.triangles[1:]))
            timed_cost = sum(dist(place[a], place[b])
                             for a, b in zip(timed.triangles, timed.triangles[1:]))
            assert math.isclose(plain_cost, timed_cost, rel_tol=1e-9)

    def test_narrow_edge_rejected(self):
        # Hourglass: two wide pockets joined by a pinch narrower than the
        # threshold, so no admissible channel crosses it.
        pts = [(0, 0), (0, 4), (2, 1.8), (2, 2.2), (4, 0), (4, 4)]
        mesh = build_mesh(table_of(make_nodes(pts, r=0.0)), 0.0)
        place = build_dual(mesh, (4, 2), 0.5)
        start = next(i for i, v in enumerate(mesh.triangles.tolist())
                     if {0, 1} <= set(v))
        end = next(i for i, v in enumerate(mesh.triangles.tolist())
                   if {4, 5} <= set(v))
        wide = timed_astar(place, mesh, start, end, goal=(4, 2), ego_speed=1.0,
                           width_threshold=0.2, ego_position=place[start])
        tight = timed_astar(place, mesh, start, end, goal=(4, 2), ego_speed=1.0,
                            width_threshold=3.0, ego_position=place[start])
        assert wide is not None
        assert tight is None

    def test_gap_opens_by_arrival_time(self):
        # The pinch is closed now but its endpoints separate; a distant ego
        # arrives late enough to pass.
        pts = [(0, 0), (0, 4), (6, 1.9), (6, 2.1), (12, 0), (12, 4)]
        nodes = make_nodes(pts, r=0.0)
        nodes[2] = NodeState(id=2, x=6, y=1.9, vx=0, vy=-1.0, r=0.0,
                             kind=NodeKind.DYNAMIC)
        nodes[3] = NodeState(id=3, x=6, y=2.1, vx=0, vy=1.0, r=0.0,
                             kind=NodeKind.DYNAMIC)
        mesh = build_mesh(table_of(nodes), 0.0)
        place = build_dual(mesh, (12, 2), 0.5)
        start = next(i for i, v in enumerate(mesh.triangles.tolist()) if {0, 1} <= set(v))
        end = next(i for i, v in enumerate(mesh.triangles.tolist()) if {4, 5} <= set(v))
        ch = timed_astar(place, mesh, start, end, goal=(12, 2), ego_speed=1.0,
                         width_threshold=1.0, ego_position=(0.1, 2.0))
        assert ch is not None

    def test_invalid_speed(self):
        mesh = build_mesh(table_of(make_nodes([(0, 0), (4, 0), (0, 4)])), 0.0)
        place = build_dual(mesh, (1, 1), 0.5)
        with pytest.raises(ValueError):
            timed_astar(place, mesh, 0, 0, goal=(1, 1), ego_speed=0.0,
                        width_threshold=0.1, ego_position=place[0])

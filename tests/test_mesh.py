"""Mesh construction, dual graph placement and virtual node tests."""
import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from nodes import table_of
from test_stage_oracles import corpus
from trichannel import mesh as mesh_module
from trichannel import sequencer, simulate
from trichannel.geometry import (InCircleSide, NodeKind, NodeState, dist, incircle,
                                 orient2d)
from trichannel.mesh import (DegenerateInputError, NodeTable, build_dual, build_mesh,
                             find_triangle, generate_virtual_nodes, locate,
                             mesh_edges, point_in_triangle)
from trichannel.scenario import ObjectTrack, Scenario, generate_synthetic
from trichannel.simulate import MethodId, run_scenario


def make_nodes(points, r=0.0, kind=NodeKind.STATIC):
    return [NodeState(id=i, x=x, y=y, vx=0.0, vy=0.0, r=r, kind=kind)
            for i, (x, y) in enumerate(points)]


def random_nodes(rng, n, span=20.0):
    pts = {(round(rng.uniform(0, span), 6), round(rng.uniform(0, span), 6))
           for _ in range(n)}
    return make_nodes(sorted(pts))


def is_delaunay(mesh):
    """Exact empty-circumcircle audit against every other mesh vertex."""
    for verts in mesh.triangles.tolist():
        a, b, c = (mesh.xy_list[v] for v in verts)
        for nid, p in enumerate(mesh.xy_list):
            if nid in verts:
                continue
            if incircle(a, b, c, p) is InCircleSide.INSIDE:
                return False
    return True


def neighbor_ids(mesh, tri_id):
    """Edge-adjacent triangle ids of ``tri_id``, sorted."""
    return sorted(n for n in mesh.neighbors[tri_id].tolist() if n >= 0)


def shared_vertices(mesh, a, b):
    return set(mesh.triangles[a].tolist()) & set(mesh.triangles[b].tolist())


def edge_triangle_count(mesh, u, v):
    """Brute force: how many triangles hold both ``u`` and ``v``."""
    return sum(1 for verts in mesh.triangles.tolist() if u in verts and v in verts)


class TestBuildMesh:
    def test_single_triangle(self):
        mesh = build_mesh(table_of(make_nodes([(0, 0), (4, 0), (0, 4)])), 0.0)
        assert len(mesh.triangles) == 1
        assert neighbor_ids(mesh, 0) == []

    def test_square_gives_two_adjacent_triangles(self):
        mesh = build_mesh(table_of(make_nodes([(0, 0), (2, 0), (2, 2), (0, 2)])), 0.0)
        assert len(mesh.triangles) == 2
        assert neighbor_ids(mesh, 0) == [1]
        assert neighbor_ids(mesh, 1) == [0]
        shared = shared_vertices(mesh, 0, 1)
        assert edge_triangle_count(mesh, *shared) == 2

    def test_triangles_are_ccw(self):
        rng = random.Random(7)
        mesh = build_mesh(table_of(random_nodes(rng, 30)), 0.0)
        for tri_id in range(len(mesh.triangles)):
            a, b, c = mesh.triangle_points(tri_id)
            assert orient2d(a, b, c) > 0

    def test_delaunay_property_random_sets(self):
        rng = random.Random(1)
        for _ in range(5):
            mesh = build_mesh(table_of(random_nodes(rng, 25)), 0.0)
            assert is_delaunay(mesh)

    def test_positions_extrapolated_to_time(self):
        nodes = make_nodes([(0, 0), (4, 0), (0, 4)])
        mover = NodeState(id=3, x=1.0, y=1.0, vx=1.0, vy=0.0, r=0.1,
                          kind=NodeKind.DYNAMIC)
        mesh = build_mesh(table_of(nodes + [mover]), 2.0)
        assert mesh.xy_list[3] == (3.0, 1.0)
        assert mesh.time == 2.0

    def test_deterministic_triangle_ordering(self):
        rng = random.Random(3)
        nodes = random_nodes(rng, 40)
        m1 = build_mesh(table_of(nodes), 0.0)
        m2 = build_mesh(table_of(list(reversed(nodes))), 0.0)
        assert m1.triangles.tolist() == m2.triangles.tolist()

    def test_too_few_nodes_raises(self):
        with pytest.raises(DegenerateInputError):
            build_mesh(table_of(make_nodes([(0, 0), (1, 1)])), 0.0)

    def test_collinear_nodes_raise(self):
        with pytest.raises(DegenerateInputError):
            build_mesh(table_of(make_nodes([(0, 0), (1, 0), (2, 0), (3, 0)])), 0.0)

    def test_duplicate_ids_rejected(self):
        nodes = make_nodes([(0, 0), (4, 0), (0, 4)])
        dup = NodeState(id=0, x=9, y=9, vx=0, vy=0, r=0)
        with pytest.raises(ValueError):
            build_mesh(table_of(nodes + [dup]), 0.0)

    @pytest.mark.parametrize("ids, message", [([2, 0, 2, 5], "duplicate node ids"),
                                              ([0, 3, 1, 5], "not ascending")])
    def test_table_ids_must_ascend(self, ids, message):
        # Row index order is id order only when the ids strictly ascend.
        with pytest.raises(ValueError, match=message):
            NodeTable(ids=np.array(ids), xy=np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0],
                                                      [4.0, 4.0]]),
                      vel=np.zeros((4, 2)), r=np.zeros(4))

    def test_snapshot_is_immutable(self):
        # A plan reuses the snapshot built at a time, so nothing may edit it.
        mesh = build_mesh(table_of(make_nodes([(0, 0), (4, 0), (0, 4)])), 0.0)
        for table in (mesh.xy, mesh.vel, mesh.triangles, mesh.neighbors,
                      mesh.nodes.ids, mesh.nodes.r):
            with pytest.raises(ValueError):
                table[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.time = 1.0

    def test_adjacency_is_symmetric(self):
        rng = random.Random(11)
        mesh = build_mesh(table_of(random_nodes(rng, 30)), 0.0)
        for tid in range(len(mesh.triangles)):
            for n in neighbor_ids(mesh, tid):
                assert tid in neighbor_ids(mesh, n)


def closest_point_oracle(pa, pb, goal, ego_radius):
    """Nearest point to goal on segment [pa, pb], clamped off the endpoints."""
    dx, dy = pb[0] - pa[0], pb[1] - pa[1]
    length = math.hypot(dx, dy)
    s = ((goal[0] - pa[0]) * dx + (goal[1] - pa[1]) * dy) / (length * length)
    margin = min(0.1 * length, ego_radius) / length
    s = min(max(s, margin), 1.0 - margin)
    return (pa[0] + s * dx, pa[1] + s * dy)


class TestDualGraph:
    def test_placement_on_goal_facing_edge(self):
        # Two triangles; the shared edge faces the goal for the left one.
        mesh = build_mesh(table_of(make_nodes([(0, 0), (2, 0), (2, 2), (0, 2)])), 0.0)
        goal = (10.0, 1.0)
        for tid, placement in enumerate(build_dual(mesh, goal, ego_radius=0.25)):
            # The placement must be the best clamp point over the shared edges.
            best = None
            a, b, c = mesh.triangles[tid].tolist()
            for e in (sorted((a, b)), sorted((b, c)), sorted((c, a))):
                if edge_triangle_count(mesh, *e) != 2:
                    continue
                cand = closest_point_oracle(mesh.xy_list[e[0]],
                                            mesh.xy_list[e[1]], goal, 0.25)
                if best is None or dist(cand, goal) < dist(best, goal):
                    best = cand
            assert best is not None
            assert dist(placement, best) < 1e-12

    def test_endpoint_clamp_margin(self):
        # Goal far beyond one endpoint: placement stops short of the vertex.
        mesh = build_mesh(table_of(make_nodes([(0, 0), (2, 0), (2, 2), (0, 2)])), 0.0)
        goal = (100.0, 100.0)
        placements = build_dual(mesh, goal, ego_radius=0.25)
        shared = sorted(shared_vertices(mesh, 0, 1))
        pa, pb = mesh.xy_list[shared[0]], mesh.xy_list[shared[1]]
        edge_len = dist(pa, pb)
        margin = min(0.1 * edge_len, 0.25)
        for placement in placements:
            assert dist(placement, pa) >= margin - 1e-12
            assert dist(placement, pb) >= margin - 1e-12

    def test_isolated_triangle_uses_centroid(self):
        mesh = build_mesh(table_of(make_nodes([(0, 0), (3, 0), (0, 3)])), 0.0)
        assert build_dual(mesh, (10, 10), 0.5) == [(1.0, 1.0)]
        assert mesh.neighbors.tolist() == [[-1, -1, -1]]

    def test_dual_edges_match_interior_mesh_edges(self):
        rng = random.Random(5)
        mesh = build_mesh(table_of(random_nodes(rng, 20)), 0.0)
        placements = build_dual(mesh, (0, 0), 0.5)
        count = len(mesh.triangles)
        interior = sum(1 for a in range(count) for b in range(a + 1, count)
                       if len(shared_vertices(mesh, a, b)) == 2)
        # The search steps across ``mesh.neighbors``; the dual places every node.
        assert (mesh.neighbors >= 0).sum() == 2 * interior
        assert len(placements) == count


def jittered_grid(rng, k, jitter):
    return make_nodes([(i + rng.uniform(-jitter, jitter), j + rng.uniform(-jitter, jitter))
                       for i in range(k) for j in range(k)])


# Nearly collinear points on the hull.  Qhull keeps a sliver in the first
# (the float orientation filter cannot decide it) and a zero-area triangle
# in the second (the float determinant is negative, the exact one zero).
SLIVERS = [
    [(0.001, 0.0001), (0.002, 0.0002), (0.003, 0.00030000000000000003),
     (-0.9972090777543787, -0.5493769161247686)],
    [(0.01, 0.003), (0.02, 0.006), (0.03, 0.009), (0.04, 0.012),
     (-0.8568600069922567, -3.2699259842094905)],
]


def oracle_scenes():
    """Random sets, jittered grids, exactly cocircular grids and slivers."""
    rng = random.Random(23)
    for n in (4, 12, 30, 60):
        yield random_nodes(rng, n)
    for k, jitter in ((3, 1e-3), (5, 0.2), (6, 1e-9)):
        yield jittered_grid(rng, k, jitter)
    for k in (2, 3, 5, 7):
        yield make_nodes([(i, j) for i in range(k) for j in range(k)])
    for pts in SLIVERS:
        yield make_nodes(pts)
    # Ids out of position order, so a row index never equals a node id.
    yield [NodeState(id=1000 - 7 * i, x=n.x, y=n.y, vx=0.0, vy=0.0, r=0.0)
           for i, n in enumerate(random_nodes(rng, 25))]


def reference_triangles(nodes):
    """Row by row: exact ``orient2d`` on each Qhull simplex, rolled to start
    at its lowest index, sorted by triple.

    Vertices are node indices: positions in the nodes sorted by id.
    """
    nodes = sorted(nodes, key=lambda n: n.id)
    pos = [n.position for n in nodes]
    rows = []
    for a, b, c in Delaunay(np.array(pos)).simplices.tolist():
        if orient2d(pos[a], pos[b], pos[c]) < 0:
            b, c = c, b
        low = [a, b, c].index(min(a, b, c))
        rows.append([a, b, c][low:] + [a, b, c][:low])
    return sorted(rows, key=sorted)


def opposite_oracle(mesh):
    """Per side: the vertex of the triangle across it that is not in the row, or -1."""
    rows = mesh.triangles.tolist()
    out = []
    for verts, across in zip(rows, mesh.neighbors.tolist()):
        out.append([])
        for u in across:
            extra = [] if u < 0 else [v for v in rows[u] if v not in verts]
            assert len(extra) == (u >= 0)
            out[-1].append(extra[0] if extra else -1)
    return out


class TestTopologyTables:
    """The triangle, neighbour and opposite tables against brute-force scans."""

    @pytest.mark.parametrize("nodes", list(oracle_scenes()))
    def test_tables_match_brute_force(self, nodes):
        mesh = build_mesh(table_of(nodes), 0.0)
        rows = mesh.triangles.tolist()
        assert rows == reference_triangles(nodes)
        assert mesh.nodes.ids.tolist() == sorted(n.id for n in nodes)
        assert mesh.triangles.shape == mesh.neighbors.shape == (len(rows), 3)
        keys = [sorted(v) for v in rows]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # rows by sorted triple
        for t, verts in enumerate(rows):
            assert orient2d(*mesh.triangle_points(t)) >= 0
            assert verts[0] == min(verts)  # every row starts at its lowest index
            for k, u in enumerate(mesh.neighbors[t].tolist()):
                edge = set(verts) - {verts[k]}
                holders = [w for w, other in enumerate(rows)
                           if w != t and edge <= set(other)]
                if u < 0:
                    assert holders == []  # a hull edge lies in no other triangle
                    continue
                assert holders == [u]
                assert shared_vertices(mesh, t, u) == edge
                assert mesh.neighbors[u].tolist().count(t) == 1  # points back

    def test_opposite_matches_brute_force(self, monkeypatch):
        # Each scene's Qhull build, then that snapshot advanced by flips.
        calls = count_qhull(monkeypatch)
        advanced = 0
        for label, nodes, t in corpus():
            try:
                built = build_mesh(table_of(nodes), t)
            except DegenerateInputError:
                continue
            before = len(calls)
            moved = build_mesh(built.nodes, t + 0.3, built)
            advanced += len(calls) == before
            for mesh in (built, moved):
                assert mesh.opposite.tolist() == opposite_oracle(mesh), label
                assert not mesh.opposite.flags.writeable
        assert advanced > 30  # a moving hull node sends the rest back to Qhull

    def test_opposite_matches_brute_force_in_closed_loop(self, monkeypatch):
        # Snapshots a plan advances from the one before; the hull stays put.
        calls = count_qhull(monkeypatch)
        advanced = []

        def checking_build(nodes, t, prior=None):
            before = len(calls)
            got = build_mesh(nodes, t, prior)
            advanced.append(len(calls) == before)
            assert got.opposite.tolist() == opposite_oracle(got)
            return got

        monkeypatch.setattr(sequencer, "build_mesh", checking_build)
        monkeypatch.setattr(simulate, "build_mesh", checking_build)
        run_scenario(dataclasses.replace(generate_synthetic(1), time_limit=4.0),
                     MethodId.PROPOSED)
        assert sum(advanced) > 0.8 * len(advanced) > 20

    @pytest.mark.parametrize("nodes", list(oracle_scenes()))
    def test_edges_in_first_occurrence_order(self, nodes):
        mesh = build_mesh(table_of(nodes), 0.0)
        want = []
        for a, b, c in mesh.triangles.tolist():
            for e in (sorted((a, b)), sorted((b, c)), sorted((c, a))):
                if e not in want:
                    want.append(e)
        assert mesh_edges(mesh).tolist() == want

    def test_clockwise_qhull_rows_are_flipped(self, monkeypatch):
        # Qhull hands over CCW triangles; feed them clockwise to exercise
        # the orientation fix.  (A zero-area row keeps Qhull's order.)
        scenes = [make_nodes(SLIVERS[0]), random_nodes(random.Random(8), 30)]
        want = [build_mesh(table_of(nodes), 0.0) for nodes in scenes]

        class Clockwise:
            def __init__(self, pts):
                q = Delaunay(pts)
                self.simplices = q.simplices[:, [0, 2, 1]]
                self.neighbors = q.neighbors[:, [0, 2, 1]]

        monkeypatch.setattr(mesh_module, "_QhullDelaunay", Clockwise)
        for nodes, expected in zip(scenes, want):
            got = build_mesh(table_of(nodes), 0.0)
            assert got.triangles.tolist() == expected.triangles.tolist()
            assert got.neighbors.tolist() == expected.neighbors.tolist()

    def test_find_triangle_ignores_vertex_order(self):
        mesh = build_mesh(table_of(random_nodes(random.Random(4), 20)), 0.0)
        for tri_id, (a, b, c) in enumerate(mesh.triangles.tolist()):
            assert find_triangle(mesh, (c, a, b)) == tri_id
            assert find_triangle(mesh, (b, a, c)) == tri_id
        assert find_triangle(mesh, (0, 1, 999)) is None


def count_qhull(monkeypatch):
    """List that gains the node count of every Qhull build from now on."""
    calls = []
    real = mesh_module._QhullDelaunay

    def counting(pts):
        calls.append(len(pts))
        return real(pts)

    monkeypatch.setattr(mesh_module, "_QhullDelaunay", counting)
    return calls


def assert_same_tables(got, want):
    assert got.triangles.tolist() == want.triangles.tolist()
    assert got.neighbors.tolist() == want.neighbors.tolist()


def advance_or_raise(table, t0, t1):
    """``build_mesh(table, t1, prior)`` against a Qhull build, both raising alike."""
    try:
        want = build_mesh(table, t1)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            build_mesh(table, t1, build_mesh(table, t0))
        return
    assert_same_tables(build_mesh(table, t1, build_mesh(table, t0)), want)


_speed = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
# Corners and edge midpoints of a 20 m square.
FRAME = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (20.0, 10.0),
         (20.0, 20.0), (10.0, 20.0), (0.0, 20.0), (0.0, 10.0)]


def square_framed(rng, n):
    """Still nodes: ``FRAME`` then ``n`` random points inside it."""
    inner = [(rng.uniform(1.0, 19.0), rng.uniform(1.0, 19.0)) for _ in range(n)]
    return make_nodes(FRAME + inner)


class TestAdvance:
    """``build_mesh(table, t, prior)`` equals a Qhull build at ``t``, and a
    plan's first snapshot advances from the run's last plan's first."""

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_loop_snapshots_equal_qhull(self, seed, monkeypatch):
        scene = dataclasses.replace(generate_synthetic(seed), time_limit=6.0)
        calls = count_qhull(monkeypatch)
        advanced = []  # per advance: whether it ran without Qhull

        def checking_build(nodes, t, prior):
            built = len(calls)
            got = build_mesh(nodes, t, prior)
            advanced.append(len(calls) == built)
            assert_same_tables(got, build_mesh(nodes, t))
            return got

        monkeypatch.setattr(sequencer, "build_mesh", checking_build)
        run_scenario(scene, MethodId.PROPOSED)
        assert sum(advanced) > 0.8 * len(advanced) > 20

    @pytest.mark.parametrize("method", list(MethodId))
    def test_plan_start_snapshots_equal_qhull(self, method, monkeypatch):
        # A plan's first snapshot advances from the last plan's first.
        calls = count_qhull(monkeypatch)
        started = []  # per plan: whether its first snapshot ran Qhull

        def checking_build(nodes, t, prior):
            built = len(calls)
            got = build_mesh(nodes, t, prior)
            started.append(len(calls) > built)
            assert_same_tables(got, build_mesh(nodes, t))
            return got

        monkeypatch.setattr(simulate, "build_mesh", checking_build)
        for seed in range(3):
            run_scenario(dataclasses.replace(generate_synthetic(seed), time_limit=6.0),
                         method)
        assert len(started) > 100
        assert sum(started) <= 0.1 * len(started)

    def test_runs_start_cold(self, monkeypatch):
        # Parked pedestrians: every plan's first snapshot sits where the one
        # before sat, so only a run's first plan runs Qhull, run after run.
        scene = generate_synthetic(0)
        parked = dataclasses.replace(scene, time_limit=3.0, nodes=[
            dataclasses.replace(tr, kind=NodeKind.STATIC, waypoints=tr.waypoints[:1])
            for tr in scene.nodes])
        calls = count_qhull(monkeypatch)
        runs = []  # per run, per plan: whether it ran Qhull
        plan_detailed = simulate.plan_detailed

        def recording_plan(*args):
            built = len(calls)
            planned = plan_detailed(*args)
            runs[-1].append(len(calls) > built)
            return planned

        monkeypatch.setattr(simulate, "plan_detailed", recording_plan)
        for _ in range(2):
            runs.append([])
            run_scenario(parked, MethodId.PROPOSED)
        assert runs[0] == runs[1]
        assert runs[0][0] and not any(runs[0][1:])
        assert parked.plan_start is None

    def test_no_prior_runs_qhull(self, monkeypatch):
        table = generate_synthetic(0).table_at(4.0)
        calls = count_qhull(monkeypatch)
        first = build_mesh(table, 0.0)
        assert build_mesh(table, 0.0).triangles is not first.triangles
        assert calls == [len(table.ids)] * 2

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_moving_sets_equal_qhull(self, data):
        # Points inside a square frame, corners and edge midpoints, that
        # stays or moves.
        n = data.draw(st.integers(1, 30), label="inner nodes")
        coord = st.floats(0.5, 19.5)
        inner = data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        speeds = data.draw(st.lists(st.tuples(_speed, _speed), min_size=n + 8,
                                    max_size=n + 8))
        if data.draw(st.booleans(), label="static frame"):
            speeds[:8] = [(0.0, 0.0)] * 8
        nodes = [NodeState(id=i, x=x, y=y, vx=vx, vy=vy, r=0.0)
                 for i, ((x, y), (vx, vy)) in enumerate(zip(FRAME + inner, speeds))]
        t0 = data.draw(st.sampled_from([0.0, 0.5]), label="prior time")
        advance_or_raise(table_of(nodes), t0, t0 + data.draw(st.floats(0.01, 3.0)))

    @pytest.mark.parametrize("t1", [0.5, 1.0, 2.0])
    def test_cocircular_grids_take_the_fallback(self, t1, monkeypatch):
        # Exactly cocircular integer grids with integer speeds, and still
        # ones: an in-circle value of zero is never decided by flips.
        grids = [table_of(nodes) for label, nodes, _ in corpus()
                 if label.startswith("grid-")]
        grids += [table_of(make_nodes([(i, j) for i in range(k) for j in range(k)]))
                  for k in (2, 3, 5, 7)]
        calls = count_qhull(monkeypatch)
        for table in grids:
            del calls[:]
            advance_or_raise(table, 0.0, t1)
            # A moving grid's advance runs Qhull too; a still one shares
            # the tables Qhull built for its prior.
            assert calls == [len(table.ids)] * (3 if table.vel.any() else 2)

    @pytest.mark.parametrize("eps", [1e-13, -1e-13, 1e-15, 3e-11])
    def test_near_cocircular_quad_takes_the_fallback(self, eps, monkeypatch):
        # A unit square inside a still frame; its fourth corner crosses the
        # circle through the other three.  So close to it, Qhull's diagonal
        # is not the one the float in-circle sign picks.
        pts = [(-10, -13), (12, -9), (13, 11), (-11, 12), (0, 0), (1, 0), (1, 1), (0, 1)]
        nodes = [NodeState(id=i, x=x, y=y, vx=0.0, vy=eps if i == 7 else 0.0, r=0.0)
                 for i, (x, y) in enumerate(pts)]
        calls = count_qhull(monkeypatch)
        advance_or_raise(table_of(nodes), -1.0, 1.0)
        assert calls == [8] * 3

    def test_inverted_triangle_takes_the_fallback(self, monkeypatch):
        # Node 6 crosses the edge between nodes 4 and 5 inside a still frame.
        pts = [(0, 0), (10, 0), (10, 10), (0, 10), (3, 5), (8, 5), (4.5, 6.5)]
        nodes = [NodeState(id=i, x=x, y=y, vx=0.0, vy=-2.0 if i == 6 else 0.0, r=0.0)
                 for i, (x, y) in enumerate(pts)]
        table = table_of(nodes)
        assert find_triangle(build_mesh(table, 0.0), (4, 5, 6)) is not None
        calls = count_qhull(monkeypatch)
        advance_or_raise(table, 0.0, 1.0)
        assert calls == [7] * 3

    def test_flip_cap_takes_the_fallback(self, monkeypatch):
        table = generate_synthetic(0).table_at(4.0)
        prior = build_mesh(table, 0.0)
        flipped = build_mesh(table, 0.3, prior)
        assert flipped.triangles.tolist() != prior.triangles.tolist()
        calls = count_qhull(monkeypatch)
        assert_same_tables(build_mesh(table, 0.3, prior), flipped)
        assert calls == []
        monkeypatch.setattr(mesh_module, "_MAX_FLIPS", 0)
        assert_same_tables(build_mesh(table, 0.3, prior), flipped)
        assert calls == [len(table.ids)]

    def test_advance_without_flips_shares_the_seed_tables(self, monkeypatch):
        table = generate_synthetic(0).table_at(4.0)
        prior = build_mesh(table, 0.0)
        calls = count_qhull(monkeypatch)
        still = build_mesh(table, 0.0, prior)
        assert still.triangles is prior.triangles and still.neighbors is prior.neighbors
        assert not (still.triangles.flags.writeable or still.neighbors.flags.writeable)
        flipped = build_mesh(table, 0.3, prior)
        assert calls == []
        assert flipped.triangles.tolist() != prior.triangles.tolist()
        assert_same_tables(flipped, build_mesh(table, 0.3))

    def test_new_table_with_same_positions_advances(self, monkeypatch):
        nodes = random_nodes(random.Random(2), 20)
        prior = build_mesh(table_of(nodes), 0.0)
        calls = count_qhull(monkeypatch)
        assert_same_tables(build_mesh(table_of(nodes), 0.0, prior), prior)
        assert calls == []

    def test_seed_positions_share_the_tables_untested(self, monkeypatch):
        # A new table whose nodes sit at a moving prior's positions, with
        # other velocities.
        prior = build_mesh(generate_synthetic(0).table_at(4.0), 1.5)
        table = NodeTable(ids=prior.nodes.ids, xy=prior.xy,
                          vel=mesh_module._frozen(-prior.vel), r=prior.nodes.r)

        def untested(*args):
            raise AssertionError("certified a snapshot at its seed's positions")

        calls = count_qhull(monkeypatch)
        monkeypatch.setattr(mesh_module, "incircle_filter", untested)
        monkeypatch.setattr(mesh_module, "orient_det", untested)
        built = build_mesh(table, 0.0, prior)
        assert built.triangles is prior.triangles and built.neighbors is prior.neighbors
        assert built.nodes is table and built.vel is table.vel and built.time == 0.0
        assert built.xy is not prior.xy and built.xy.tobytes() == prior.xy.tobytes()
        assert calls == []

    def test_interior_node_moved_by_one_ulp_is_certified(self, monkeypatch):
        # Node 8 is the first inside a still frame.
        nodes = square_framed(random.Random(3), 12)
        prior = build_mesh(table_of(nodes), 0.0)
        moved = [dataclasses.replace(n, x=np.nextafter(n.x, 21.0)) if n.id == 8 else n
                 for n in nodes]
        certified = []
        real = mesh_module.incircle_filter
        monkeypatch.setattr(mesh_module, "incircle_filter",
                            lambda *args: certified.append(1) or real(*args))
        calls = count_qhull(monkeypatch)
        assert_same_tables(build_mesh(table_of(moved), 0.0, prior), build_mesh(table_of(moved), 0.0))
        assert certified and calls == [len(nodes)]

    def test_hull_vertex_moved_by_one_ulp_is_rebuilt(self, monkeypatch):
        # Node 4 is the corner (20, 20) of a still frame.
        nodes = square_framed(random.Random(3), 12)
        prior = build_mesh(table_of(nodes), 0.0)
        moved = [dataclasses.replace(n, x=np.nextafter(n.x, 21.0)) if n.id == 4 else n
                 for n in nodes]
        calls = count_qhull(monkeypatch)
        assert_same_tables(build_mesh(table_of(moved), 0.0, prior), build_mesh(table_of(moved), 0.0))
        assert calls == [len(nodes)] * 2

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_other_node_count_is_rebuilt(self, extra, monkeypatch):
        # The prior has one node fewer or one more, the last by id.
        nodes = square_framed(random.Random(4), 12)
        grown = nodes + [NodeState(id=len(nodes), x=7.5, y=12.5, vx=0.0, vy=0.0, r=0.0)]
        prior = build_mesh(table_of(nodes[:-1] if extra < 0 else grown), 0.0)
        calls = count_qhull(monkeypatch)
        assert_same_tables(build_mesh(table_of(nodes), 0.0, prior), build_mesh(table_of(nodes), 0.0))
        assert calls == [len(nodes)] * 2

    def test_node_missing_from_prior_is_rebuilt(self, monkeypatch):
        # The last node starts on node 8, and Qhull drops it, the highest index.
        nodes = square_framed(random.Random(6), 12)
        x, y = nodes[8].position
        table = table_of(nodes + [NodeState(id=len(nodes), x=x, y=y, vx=1.0,
                                                vy=0.5, r=0.0)])
        prior = build_mesh(table, 0.0)
        assert np.unique(prior.triangles).tolist() == list(range(len(nodes)))
        calls = count_qhull(monkeypatch)
        assert_same_tables(build_mesh(table, 0.5, prior), build_mesh(table, 0.5))
        assert calls == [len(nodes) + 1] * 2

    @pytest.mark.parametrize("seeds", [(0, 1), (3, 4)])
    def test_other_scenario_is_rebuilt(self, seeds, monkeypatch):
        # Scenes 3 and 4 have as many nodes, and the same hull.
        prior_table, table = (generate_synthetic(s).table_at(0.0) for s in seeds)
        prior = build_mesh(prior_table, 0.0)
        calls = count_qhull(monkeypatch)
        assert_same_tables(build_mesh(table, 0.0, prior), build_mesh(table, 0.0))
        assert calls == [len(table.ids)] * 2


class TestVirtualNodes:
    def test_spacing_respected(self):
        points = generate_virtual_nodes([(0, 0), (10, 0)], spacing=1.0)
        assert points[0] == (0, 0)
        assert points[-1] == (10, 0)
        for a, b in zip(points, points[1:]):
            assert dist(a, b) <= 1.0 + 1e-9

    def test_all_virtual_zero_velocity(self):
        # A scenario's wall rows: virtual, still and zero-radius, with ids
        # counting on from its largest track id.
        sc = Scenario(id="wall", nodes=[ObjectTrack(id=4, kind=NodeKind.STATIC, radius=0.2,
                                                    waypoints=[(0.0, 1.0, 3.0)])],
                      boundaries=[[(0, 0), (3, 4)]], start=(0.5, 0.0), goal=(2.5, 0.0),
                      ego_speed=1.0, ego_radius=0.4, time_limit=1.0)
        walls = sc.node_states_at(0.0)[1:]
        assert [n.position for n in walls] == generate_virtual_nodes([(0, 0), (3, 4)],
                                                                     sc.virtual_spacing)
        assert all(n.kind is NodeKind.VIRTUAL for n in walls)
        assert all((n.vx, n.vy, n.r) == (0, 0, 0) for n in walls)
        assert [n.id for n in walls] == list(range(5, 5 + len(walls)))

    def test_closed_polyline_no_seam_duplicate(self):
        square = [(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)]
        points = generate_virtual_nodes(square, spacing=1.0)
        assert len(points) == len(set(points))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            generate_virtual_nodes([(0, 0), (1, 0)], spacing=0.0)
        with pytest.raises(ValueError):
            generate_virtual_nodes([(0, 0)], spacing=1.0)
        with pytest.raises(ValueError):
            generate_virtual_nodes([(1, 1), (1, 1)], spacing=1.0)

    def test_count_checked_before_placing(self):
        assert len(generate_virtual_nodes([(0, 0), (10, 0)], 1.0, max_count=11)) == 11
        with pytest.raises(ValueError, match="over 10 nodes"):
            generate_virtual_nodes([(0, 0), (10, 0)], 1.0, max_count=10)
        # ``length / spacing`` overflows to inf: still a count past the cap.
        with pytest.raises(ValueError, match="over 10 nodes"):
            generate_virtual_nodes([(0, 0), (1e12, 0)], 1e-300, max_count=10)


class TestLocate:
    def test_inside_and_outside(self):
        mesh = build_mesh(table_of(make_nodes([(0, 0), (4, 0), (0, 4)])), 0.0)
        assert locate(mesh, (1, 1)) == 0
        assert locate(mesh, (10, 10)) is None

    def test_boundary_inclusive(self):
        mesh = build_mesh(table_of(make_nodes([(0, 0), (4, 0), (0, 4)])), 0.0)
        assert locate(mesh, (2, 0)) == 0
        assert locate(mesh, (0, 0)) == 0

    def test_point_in_triangle_edge_cases(self):
        tri = ((0, 0), (4, 0), (0, 4))
        assert point_in_triangle(tri, (1, 1))
        assert point_in_triangle(tri, (2, 2))  # on the hypotenuse
        assert not point_in_triangle(tri, (3, 3))


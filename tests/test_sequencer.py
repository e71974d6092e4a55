"""Channel sequence generation: cut indices, subgoals and full pipelines."""
import dataclasses
import math
import random

import numpy as np
import pytest

import trichannel.sequencer as sequencer
import trichannel.simulate as simulate
from trichannel.events import anchor_survives, compute_event_time
from trichannel.geometry import NodeKind, NodeState, dist, orient2d, point_along
from trichannel.mesh import build_dual, build_mesh, point_in_triangle
from trichannel.scenario import generate_synthetic
from trichannel.search import Channel, astar
from trichannel.sequencer import (ChannelSequence, SequenceFailure,
                                  SequencerConfig, cut_index,
                                  generate_sequence, subgoal)
from trichannel.simulate import MethodId, SimConfig, run_scenario
from trichannel.transmission import TransmissionConfig, transmit

from nodes import table_of
from segment_views import node_anchor, node_triangles


def make_nodes(points, r=0.0):
    return [NodeState(id=i, x=x, y=y, vx=0.0, vy=0.0, r=r)
            for i, (x, y) in enumerate(points)]


STRIP_START = (0.9, 0.6)


def straight_strip():
    """Six-triangle strip along +x with unit hop times, entered at ``STRIP_START``."""
    pts = [(0, 0), (2, 0), (4, 0), (6, 0), (1, 2), (3, 2), (5, 2), (7, 2)]
    mesh = build_mesh(table_of(make_nodes(pts)), 0.0)
    placements = build_dual(mesh, (7, 1), 0.5)
    start = next(i for i, v in enumerate(mesh.triangles.tolist()) if 0 in v)
    end = next(i for i, v in enumerate(mesh.triangles.tolist()) if 7 in v)
    ch = astar(placements, mesh, start, end, goal=(7, 1), ego_position=STRIP_START,
               ego_speed=1.0)
    return mesh, ch


def centroid(mesh, ch, i):
    """A point inside channel triangle ``i``."""
    pts = mesh.triangle_points(ch.triangles[i])
    return (sum(p[0] for p in pts) / 3, sum(p[1] for p in pts) / 3)


class TestLastTriangleIndex:
    def test_ego_behind_event(self):
        mesh, ch = straight_strip()
        assert cut_index(ch, mesh, centroid(mesh, ch, 2), 5) == 2

    def test_event_at_ego_triangle(self):
        mesh, ch = straight_strip()
        assert cut_index(ch, mesh, centroid(mesh, ch, 4), 4) == 3

    def test_degenerate_first_triangle(self):
        mesh, ch = straight_strip()
        assert cut_index(ch, mesh, centroid(mesh, ch, 0), 0) == -1

    def test_ego_past_event_capped(self):
        # The ego index is capped at the event index.
        mesh, ch = straight_strip()
        assert cut_index(ch, mesh, centroid(mesh, ch, 5), 2) == 1

    def test_estimate_in_no_triangle_keeps_the_first(self):
        mesh, ch = straight_strip()
        assert cut_index(ch, mesh, (50.0, 50.0), 3) == 0


def walked_index(mesh, ch, travel):
    """``cut_index`` of the ego walked ``travel`` along the dual-node chain,
    with the event on the channel's last triangle."""
    est = point_along([STRIP_START, *ch.waypoints], travel)
    return cut_index(ch, mesh, est, len(ch) - 1)


class TestEgoIndexAt:
    def test_no_motion_keeps_first_triangle(self):
        mesh, ch = straight_strip()
        assert walked_index(mesh, ch, 0.0) == 0

    def test_advance_lands_in_later_triangle(self):
        mesh, ch = straight_strip()
        total = dist(STRIP_START, ch.waypoints[0]) + sum(
            dist(a, b) for a, b in zip(ch.waypoints, ch.waypoints[1:]))
        e = walked_index(mesh, ch, total)
        # The chain end sits on shared triangle boundaries, so the located
        # index may be one short of the final triangle.
        assert e >= len(ch.triangles) - 2

    def test_monotone_in_time(self):
        mesh, ch = straight_strip()
        idx = [walked_index(mesh, ch, t * 0.5) for t in range(20)]
        assert all(b >= a for a, b in zip(idx, idx[1:]))


def subgoal_oracle(anchor, est_ego, clearances, grid=300):
    """Dense barycentric sweep for the nearest feasible anchor point."""
    a, b, c = anchor
    best, best_d = None, math.inf
    for i in range(grid + 1):
        for j in range(grid + 1 - i):
            u, v = i / grid, j / grid
            w = 1 - u - v
            p = (u * a[0] + v * b[0] + w * c[0], u * a[1] + v * b[1] + w * c[1])
            if all(dist(p, vert) >= cr for vert, cr in zip(anchor, clearances)):
                d = dist(p, est_ego)
                if d < best_d:
                    best, best_d = p, d
    return best, best_d


class TestSubgoal:
    def test_feasible_estimate_returned_unchanged(self):
        anchor = ((0, 0), (6, 0), (3, 5))
        got = subgoal(anchor, (3.0, 2.0), [0.5, 0.5, 0.5], ego_radius=0.3)
        assert got == (3.0, 2.0)

    def test_outside_estimate_projected_to_clearance_region(self):
        anchor = ((0, 0), (6, 0), (3, 5))
        radii = [0.5, 0.5, 0.5]
        ego_r = 0.3
        est = (-2.0, -2.0)
        got = subgoal(anchor, est, radii, ego_radius=ego_r)
        clearances = [ego_r + r for r in radii]
        _, want_d = subgoal_oracle(anchor, est, clearances)
        assert point_in_triangle(anchor, got)
        assert all(dist(got, v) >= cr - 1e-9
                   for v, cr in zip(anchor, clearances))
        assert dist(got, est) <= want_d + 0.05

    def test_vanishing_region_falls_back_to_centroid(self):
        anchor = ((0, 0), (1, 0), (0.5, 1))
        got = subgoal(anchor, (0.5, 0.3), [5.0, 5.0, 5.0], ego_radius=1.0)
        cx = (0 + 1 + 0.5) / 3
        cy = (0 + 0 + 1) / 3
        assert got == (cx, cy)

    def test_random_cases_match_dense_oracle(self):
        # Every other case has zero clearance, as ``_follow`` places path
        # ends; every other one of those draws its estimate inside.
        rng = random.Random(9)
        for case in range(40):
            anchor = tuple((rng.uniform(0, 10), rng.uniform(0, 10))
                           for _ in range(3))
            if abs(orient2d(*anchor)) < 1.0:
                continue
            if orient2d(*anchor) < 0:
                anchor = (anchor[0], anchor[2], anchor[1])
            est = (rng.uniform(-5, 15), rng.uniform(-5, 15))
            if case % 2:
                radii, ego_r = [0.0, 0.0, 0.0], 0.0
                if case % 4 == 3:
                    u, v = rng.random(), rng.random()
                    u, v = (1 - u, 1 - v) if u + v > 1 else (u, v)
                    (ax, ay), (bx, by), (cx, cy) = anchor
                    est = (ax + u * (bx - ax) + v * (cx - ax),
                           ay + u * (by - ay) + v * (cy - ay))
            else:
                radii, ego_r = [rng.uniform(0.0, 0.6) for _ in range(3)], 0.3
            got = subgoal(anchor, est, radii, ego_radius=ego_r)
            assert point_in_triangle(anchor, got)
            clearances = [ego_r + r for r in radii]
            if point_in_triangle(anchor, est) and all(
                    dist(est, v) >= cr for v, cr in zip(anchor, clearances)):
                assert got == est
            oracle_pt, oracle_d = subgoal_oracle(anchor, est, clearances, grid=150)
            if oracle_pt is None:
                continue  # empty region: centroid fallback, checked above
            assert dist(got, est) <= oracle_d + 0.1


def static_scene_nodes():
    pts = [(0, 0), (5, 0), (10, 0), (2.5, 4), (7.5, 4), (0, 4), (10, 4)]
    return make_nodes(pts, r=0.1)


def crossing_scene_nodes():
    nodes = static_scene_nodes()
    walker = NodeState(id=len(nodes), x=5.0, y=-4.0, vx=0.0, vy=1.0, r=0.2,
                       kind=NodeKind.DYNAMIC)
    return nodes + [walker]


class TestGenerateSequence:
    def cfg(self, **kw):
        defaults = dict(ego_radius=0.2, ego_speed=1.0)
        defaults.update(kw)
        return SequencerConfig(**defaults)

    def test_static_scene_single_segment(self):
        result = generate_sequence(build_mesh(table_of(static_scene_nodes()), 0.0),
                                   (0.5, 1.0), (9.5, 3.0), self.cfg())
        assert isinstance(result, ChannelSequence)
        assert len(result.segments) == 1
        assert result.terminated == "goal"
        assert result.segments[0].t_end is None
        assert result.segments[0].subgoal == (9.5, 3.0)

    def test_crossing_scene_multiple_segments(self):
        result = generate_sequence(build_mesh(table_of(crossing_scene_nodes()), 0.0),
                                   (0.5, 1.0), (9.5, 3.0), self.cfg(ego_speed=0.4))
        assert isinstance(result, ChannelSequence)
        assert len(result.segments) >= 2

    def test_anchor_continuity(self):
        result = generate_sequence(build_mesh(table_of(crossing_scene_nodes()), 0.0),
                                   (0.5, 1.0), (9.5, 3.0), self.cfg(ego_speed=0.4))
        assert isinstance(result, ChannelSequence)
        for cur, nxt in zip(result.segments, result.segments[1:]):
            assert frozenset(node_anchor(cur)) == frozenset(node_triangles(nxt)[0])

    def test_window_contiguity(self):
        result = generate_sequence(build_mesh(table_of(crossing_scene_nodes()), 0.0),
                                   (0.5, 1.0), (9.5, 3.0), self.cfg(ego_speed=0.4))
        assert isinstance(result, ChannelSequence)
        for cur, nxt in zip(result.segments, result.segments[1:]):
            assert cur.t_end == nxt.mesh.time
        assert result.segments[0].mesh.time == 0.0
        # Every closed window is non-empty: the sequence moves forward.
        assert all(seg.t_end > seg.mesh.time for seg in result.segments
                   if seg.t_end is not None)

    def test_subgoal_inside_anchor(self):
        # A segment's snapshot holds its start positions; each anchor vertex
        # moves with its scene velocity to the segment's end time.
        nodes = crossing_scene_nodes()
        velocity = {n.id: (n.vx, n.vy) for n in nodes}
        for speed in (0.2, 0.4, 1.0):
            result = generate_sequence(build_mesh(table_of(nodes), 0.0), (0.5, 1.0),
                                       (9.5, 3.0), self.cfg(ego_speed=speed))
            assert isinstance(result, ChannelSequence)
            closed = [seg for seg in result.segments if seg.t_end is not None]
            assert closed
            for seg in closed:
                offset = seg.t_end - seg.mesh.time
                at = dict(zip(seg.mesh.nodes.ids.tolist(), seg.mesh.xy_list))
                anchor = tuple((at[v][0] + velocity[v][0] * offset,
                                at[v][1] + velocity[v][1] * offset)
                               for v in node_anchor(seg))
                assert point_in_triangle(anchor, seg.subgoal)

    def test_max_segments_cap(self):
        result = generate_sequence(build_mesh(table_of(crossing_scene_nodes()), 0.0),
                                   (0.5, 1.0), (9.5, 3.0),
                                   self.cfg(ego_speed=0.4, max_segments=1))
        assert isinstance(result, ChannelSequence)
        assert len(result.segments) == 1
        assert result.terminated in ("max_segments", "goal", "threshold",
                                     "anchor_lost")

    def test_failure_names_cycle(self):
        # Goal outside the convex hull of the nodes: no goal triangle.
        result = generate_sequence(build_mesh(table_of(static_scene_nodes()), 0.0),
                                   (0.5, 1.0), (50.0, 50.0), self.cfg())
        assert isinstance(result, SequenceFailure)
        assert result.cycle == 0
        assert "goal" in result.reason

    def test_blocked_channel_fails(self):
        # Width threshold above every edge gap in the scene: no channel.
        pts = [(0, 0), (0, 2), (5, 0.95), (5, 1.05), (10, 0), (10, 2)]
        nodes = make_nodes(pts, r=0.0)
        result = generate_sequence(build_mesh(table_of(nodes), 0.0), (0.5, 1.0), (9.5, 1.0),
                                   self.cfg(ego_radius=6.0))
        assert isinstance(result, SequenceFailure)
        assert result.reason == "no admissible channel"

    def test_unaffected_windows(self):
        # Re-running event prediction over each emitted segment must find
        # nothing strictly inside its validity window.
        nodes = crossing_scene_nodes()
        cfg = self.cfg(ego_speed=0.4)
        result = generate_sequence(build_mesh(table_of(nodes), 0.0), (0.5, 1.0), (9.5, 3.0),
                                   cfg)
        assert isinstance(result, ChannelSequence)
        for seg in result.segments:
            if seg.t_end is None:
                continue
            mesh = build_mesh(table_of(nodes), seg.mesh.time)
            ids = []
            by_verts = {frozenset(v): i for i, v in enumerate(mesh.triangles.tolist())}
            ok = all(frozenset(v) in by_verts for v in node_triangles(seg))
            if not ok:
                continue
            ids = [by_verts[frozenset(v)] for v in node_triangles(seg)]
            window = seg.t_end - seg.mesh.time
            etas = [window] * len(ids)
            ch = Channel(triangles=ids, etas=etas, waypoints=[(0, 0)] * len(ids))
            report = compute_event_time(ch, mesh, cfg.sample_resolution)
            if report is not None:
                assert report.time >= seg.t_end - 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SequencerConfig(max_segments=0)
        with pytest.raises(ValueError):
            SequencerConfig(tau_threshold=0)
        with pytest.raises(ValueError):
            SequencerConfig(sample_resolution=0)

    @pytest.mark.parametrize("value", [2.5, 3.0, math.nan, "3", None, True])
    def test_non_integer_max_segments_rejected(self, value):
        # 2.5 used to pass validation and make ``generate_sequence`` raise
        # TypeError.
        with pytest.raises(ValueError, match="max_segments must be an integer"):
            SequencerConfig(max_segments=value)

    @pytest.mark.parametrize("field", ["tau_threshold", "sample_resolution",
                                       "width_threshold", "padding",
                                       "ego_radius", "ego_speed"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SequencerConfig(**{field: value})

    @pytest.mark.parametrize("field, bad, least", [
        ("ego_speed", 0.0, 1e-3), ("ego_radius", -0.1, 0.0),
        ("width_threshold", -0.1, 0.0), ("padding", -0.1, 0.0)])
    def test_config_rejects_out_of_range(self, field, bad, least):
        # A zero ego speed made every plan() call raise.
        with pytest.raises(ValueError, match=field):
            SequencerConfig(**{field: bad})
        assert getattr(SequencerConfig(**{field: least}), field) == least

    def test_default_derived_thresholds(self):
        cfg = SequencerConfig(ego_radius=0.25)
        assert math.isclose(cfg.effective_width_threshold, 0.7)
        assert math.isclose(cfg.effective_padding, 0.35)
        cfg2 = SequencerConfig(ego_radius=0.25, width_threshold=1.0, padding=0.5)
        assert cfg2.effective_width_threshold == 1.0
        assert cfg2.effective_padding == 0.5


def test_repair_rebuild_plans_on_its_own_velocities(monkeypatch):
    # When the next snapshot would lose the anchor, the cut is repaired
    # (one triangle fewer, or one sample earlier) before that snapshot is
    # built.  Search and event prediction on every mesh, those rebuilt at a
    # repaired cut included, must use motion transmitted along that mesh's
    # own edges.
    scene = dataclasses.replace(generate_synthetic(0), time_limit=4.0)
    cfg = SimConfig().planner
    log = []  # ("check", t, survives), ("build", t) or ("plan",) in order
    predicted = []  # mesh times that event prediction saw

    def recording_survives(table, t, verts):
        ok = anchor_survives(table, t, verts)
        log.append(("check", t, ok))
        return ok

    def recording_build(nodes, t, prior=None):
        log.append(("build", t))
        return build_mesh(nodes, t, prior)

    def recording_sequence(*args):
        log.append(("plan",))
        return generate_sequence(*args)

    def checked(channel, mesh, res):
        fresh = transmit(build_mesh(mesh.nodes, mesh.time), cfg.transmission)
        assert np.array_equal(mesh.vel, fresh.vel)
        predicted.append(mesh.time)
        return compute_event_time(channel, mesh, res)

    monkeypatch.setattr(sequencer, "anchor_survives", recording_survives)
    monkeypatch.setattr(sequencer, "build_mesh", recording_build)
    monkeypatch.setattr(simulate, "generate_sequence", recording_sequence)
    monkeypatch.setattr(sequencer, "compute_event_time", checked)
    run_scenario(scene, MethodId.PROPOSED)
    # A rebuild follows a repaired cut when a survival check failed since
    # the plan's previous build.
    repaired, failed = set(), False
    for entry in log:
        if entry[0] == "plan":
            failed = False
        elif entry[0] == "check":
            failed = failed or not entry[2]
        else:
            if failed:
                repaired.add(entry[1])
            failed = False
    assert repaired & set(predicted)


def test_one_build_per_snapshot_time(monkeypatch):
    # Within one plan each cycle builds one snapshot, later than the last:
    # the cut settles that the anchor survives into it, so no cycle steps
    # back to an earlier snapshot time.  Every cycle after the first hands
    # the previous cycle's snapshot to ``build_mesh`` to advance.
    scene = dataclasses.replace(generate_synthetic(0), time_limit=4.0)
    cfg = SimConfig().planner
    builds, results = [], []  # per plan: build times, the sequence result
    built = []  # per plan: the snapshots built

    def recording_build(nodes, t, prior=None):
        assert prior.nodes is nodes
        assert prior.time == builds[-1][-1]
        assert prior.triangles is built[-1][-1].triangles
        builds[-1].append(t)
        built[-1].append(build_mesh(nodes, t, prior))
        return built[-1][-1]

    def recording_sequence(first, *args):
        # The first snapshot comes from the plan, at time 0.
        assert first.time == 0.0
        builds.append([first.time])
        built.append([first])
        results.append(generate_sequence(first, *args))
        return results[-1]

    monkeypatch.setattr(sequencer, "build_mesh", recording_build)
    monkeypatch.setattr(simulate, "generate_sequence", recording_sequence)
    run_scenario(scene, MethodId.PROPOSED)
    failures = [r.reason for r in results if isinstance(r, SequenceFailure)]
    assert "anchor missing from snapshot" not in failures
    cycles = [r.cycle + 1 if isinstance(r, SequenceFailure) else len(r.segments)
              for r in results]
    assert any(n > 1 for n in cycles)
    assert [len(times) for times in builds] == cycles
    for times in builds:
        assert all(a < b for a, b in zip(times, times[1:])), times
    # A sequence ends on a lost anchor only once the handover cannot move
    # one sample earlier and still leave a window.
    lost = [r.segments[-1] for r in results
            if not isinstance(r, SequenceFailure) and r.terminated == "anchor_lost"]
    assert lost
    assert all(seg.t_end - seg.mesh.time <= 1.5 * cfg.sample_resolution for seg in lost)
    # No closed window is a rounding artifact of the sample grid.
    assert all(seg.t_end - seg.mesh.time > 1e-9 for r in results
               if not isinstance(r, SequenceFailure)
               for seg in r.segments if seg.t_end is not None)


def test_anchor_missing_from_snapshot_fails(monkeypatch):
    # Qhull could still drop an anchor that the cut found surviving; the
    # sequence then fails with its own reason instead of looping.
    def no_anchor(mesh, vertices):
        return None

    monkeypatch.setattr(sequencer, "find_triangle", no_anchor)
    result = generate_sequence(build_mesh(table_of(crossing_scene_nodes()), 0.0),
                               (0.5, 1.0), (9.5, 3.0),
                               SequencerConfig(ego_radius=0.2, ego_speed=0.4))
    assert isinstance(result, SequenceFailure)
    assert result.cycle == 1
    assert result.reason == "anchor missing from snapshot"


@pytest.mark.parametrize("seed", range(3))
def test_segments_keep_their_snapshot(seed):
    # A segment is a run of edge-connected triangles of the snapshot at
    # its start time; its node-id triangles are read from that snapshot.
    scene = generate_synthetic(seed)
    cfg = SimConfig().sequencer_for(scene)
    segments = 0
    for t in (0.0, 1.5, 3.0, 4.5):
        result = generate_sequence(build_mesh(scene.table_at(t), 0.0), scene.start,
                                   scene.goal, cfg)
        if not isinstance(result, ChannelSequence):
            continue
        starts = [0.0, *(seg.t_end for seg in result.segments[:-1])]
        for seg, t_start in zip(result.segments, starts):
            mesh = seg.mesh
            assert mesh.time == t_start
            for a, b in zip(seg.tri_ids, seg.tri_ids[1:]):
                assert b in mesh.neighbors[a].tolist()
            ids = mesh.nodes.ids[mesh.triangles[seg.tri_ids]]
            assert node_triangles(seg) == [tuple(row) for row in ids.tolist()]
            assert node_anchor(seg) == node_triangles(seg)[-1]
            segments += 1
    assert segments >= 4


@pytest.mark.parametrize("method", [MethodId.ASTAR, MethodId.TIMED_ASTAR])
def test_baseline_follows_one_segment(monkeypatch, method):
    scene = generate_synthetic(0)
    cfg = SimConfig().sequencer_for(scene)
    followed = []
    follow = simulate._follow

    def recording_follow(segments, *args, **kwargs):
        followed.append(segments)
        return follow(segments, *args, **kwargs)

    monkeypatch.setattr(simulate, "_follow", recording_follow)
    planned = simulate.plan_detailed(scene, method, scene.start, 0.0, cfg)
    assert planned.path is not None
    [[seg]] = followed
    assert (seg.mesh.time, seg.t_end, seg.subgoal) == (0.0, None, scene.goal)
    [planned_seg] = planned.segments
    assert planned_seg is seg
    assert planned.path.points[0] == scene.start
    assert planned.path.points[-1] == scene.goal


# Plans whose ego estimate at one or two cuts lies in no channel triangle:
# it is on the route's first hop, rounded out of the ego's own triangle.
# They were found when the cut still fell back to counting passed
# waypoints.  ``want`` pairs ``cut_index``'s result at each such cut with
# the segments, each (snapshot time, t_end, triangle ids, subgoal).
OUTSIDE_ESTIMATE_PLANS = [
    (4, 1.0999999999999999, (2.6745781567623155, 4.66853920890974), ([0, 0], [
        (0.0, 0.1, [11, 9], (2.7041177647518633, 4.924201005078142)),
        (0.1, 0.2, [9], (2.736872370081759, 5.121500614377509)),
        (0.2, 0.30000000000000004, [9, 10], (2.7676849412249367, 5.319482501174013)),
        (0.30000000000000004, 0.5, [11], (2.92500211769801, 5.728005891505201)),
        (0.5, 0.6, [11], (3.003660703989424, 5.937233296666942))])),
    (4, 1.3, (2.731555752940185, 5.0643851347681315), ([0, 0], [
        (0.0, 0.1, [9, 10], (2.7676849412249367, 5.319482501174013)),
        (0.1, 0.30000000000000004, [11], (2.92500211769801, 5.728005891505201)),
        (0.30000000000000004, 0.4, [11], (3.003660703989424, 5.937233296666942)),
        (0.4, 0.6000000000000001, [11], (3.002036211555337, 6.337229997933754)),
        (0.6000000000000001, 0.7000000000000001, [12],
         (2.9992213213737298, 6.537210187935828))])),
    (5, 14.999999999999963, (19.903585088493045, 3.3564504286611396), ([0], [
        (0.0, 0.1, [38], (19.939923683487482, 3.3928958993538174)),
        (0.1, 0.6, [40], (19.903585088493045, 3.3965797522404646)),
        (0.6, 0.9, [42], (19.903585088493045, 3.204080609211037)),
        (0.9, 1.2000000000000002, [43], (19.84984974564195, 3.0267790728394632)),
        (1.2000000000000002, 1.5000000000000002, [44, 42],
         (20.40407100703233, 3.2684000849422277))])),
]


@pytest.mark.parametrize("seed, t, ego, want", OUTSIDE_ESTIMATE_PLANS)
def test_estimate_in_no_triangle_keeps_the_ego_triangle(monkeypatch, seed, t, ego,
                                                        want):
    outside = []  # cut_index's result for each estimate in no channel triangle
    real_cut_index = sequencer.cut_index

    def recording_cut_index(channel, mesh, est, m):
        k = real_cut_index(channel, mesh, est, m)
        if not any(point_in_triangle(mesh.triangle_points(tri), est)
                   for tri in channel.triangles):
            outside.append(k)
        return k

    monkeypatch.setattr(sequencer, "cut_index", recording_cut_index)
    scene = generate_synthetic(seed)
    result = generate_sequence(build_mesh(scene.table_at(t), 0.0), ego, scene.goal,
                               SimConfig().sequencer_for(scene))
    assert result.terminated == "max_segments"
    assert (outside, [(seg.mesh.time, seg.t_end, seg.tri_ids, seg.subgoal)
                      for seg in result.segments]) == want


@pytest.mark.parametrize("transmission", [None, TransmissionConfig()], ids=["False", "True"])
def test_transmission_switch(monkeypatch, transmission):
    # Without motion transmission every snapshot plans on the nodes' own
    # velocities; with it, snapshots plan on transmitted ones.
    scene = generate_synthetic(0)
    cfg = dataclasses.replace(SimConfig().sequencer_for(scene), transmission=transmission)
    results = []

    def recording_sequence(*args):
        results.append(generate_sequence(*args))
        return results[-1]

    monkeypatch.setattr(simulate, "generate_sequence", recording_sequence)
    for t in (0.0, 1.0, 2.0):
        simulate.plan(scene, MethodId.PROPOSED, scene.start, t, cfg)
    own = [seg.mesh.vel is seg.mesh.nodes.vel for r in results
           if isinstance(r, ChannelSequence) for seg in r.segments]
    assert len(own) > 2
    assert all(own) if transmission is None else not any(own)

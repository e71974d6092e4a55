"""Connectivity-change prediction tests, checked against mesh rebuilds
and against a per-pair reference scan."""
import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import trichannel.events as events
import trichannel.sequencer as sequencer

from nodes import table_of
from trichannel.events import EventReport, compute_event_time
from trichannel.geometry import (CCW_ERRBOUND, ICC_ERRBOUND,
                                 DegenerateTriangleError, InCircleSide,
                                 NodeKind, NodeState, incircle, orient2d)
from trichannel.mesh import DegenerateInputError, build_dual, build_mesh, find_triangle
from trichannel.scenario import generate_synthetic
from trichannel.search import Channel, astar
from trichannel.simulate import MethodId, run_scenario
from trichannel.transmission import TransmissionConfig, transmit


def make_nodes(points, r=0.0):
    return [NodeState(id=i, x=x, y=y, vx=0.0, vy=0.0, r=r)
            for i, (x, y) in enumerate(points)]


def neighbors_of(mesh, tri_id):
    """Opposite vertices of the triangles edge-adjacent to ``tri_id``, sorted."""
    if tri_id < 0 or tri_id >= len(mesh.triangles):
        raise KeyError(f"unknown triangle id {tri_id}")
    own = set(mesh.triangles[tri_id].tolist())
    return sorted({v for n in mesh.neighbors[tri_id].tolist() if n >= 0
                   for v in mesh.triangles[n].tolist() if v not in own})


# Reference scan: one (channel triangle, probe) pair at a time, with the
# float filter per pair and the exact predicate for undecided samples.
# ``compute_event_time`` must return exactly what ``reference_event_time``
# returns.

def _reference_exact_is_event(tri_pts, tri_vels, probe_pt, probe_vel, tau):
    pts = tri_pts + tri_vels * tau
    p = (probe_pt[0] + probe_vel[0] * tau, probe_pt[1] + probe_vel[1] * tau)
    try:
        side = incircle(tuple(pts[0]), tuple(pts[1]), tuple(pts[2]), p)
    except DegenerateTriangleError:
        return True  # collapsing triangle: conservative event
    return side is not InCircleSide.OUTSIDE


def first_event_offset(tri_pts, tri_vels, probe_pt, probe_vel, taus):
    """Earliest sampled offset at which the probe enters the circumcircle.

    ``tri_pts``/``tri_vels`` are (3, 2) arrays of vertex positions and
    velocities at the mesh snapshot.
    """
    if taus.size == 0:
        return None
    # A shared velocity is a rigid translation: the in-circle sign never
    # changes.
    if np.array_equal(tri_vels, np.broadcast_to(np.asarray(probe_vel, dtype=float),
                                                tri_vels.shape)):
        return None
    ax = tri_pts[0, 0] + tri_vels[0, 0] * taus
    ay = tri_pts[0, 1] + tri_vels[0, 1] * taus
    bx = tri_pts[1, 0] + tri_vels[1, 0] * taus
    by = tri_pts[1, 1] + tri_vels[1, 1] * taus
    cx = tri_pts[2, 0] + tri_vels[2, 0] * taus
    cy = tri_pts[2, 1] + tri_vels[2, 1] * taus
    px = probe_pt[0] + probe_vel[0] * taus
    py = probe_pt[1] + probe_vel[1] * taus

    adx, ady = ax - px, ay - py
    bdx, bdy = bx - px, by - py
    cdx, cdy = cx - px, cy - py
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    bdxcdy, cdxbdy = bdx * cdy, cdx * bdy
    cdxady, adxcdy = cdx * ady, adx * cdy
    adxbdy, bdxady = adx * bdy, bdx * ady
    det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady)
    det_err = ICC_ERRBOUND * (
        (np.abs(bdxcdy) + np.abs(cdxbdy)) * alift
        + (np.abs(cdxady) + np.abs(adxcdy)) * blift
        + (np.abs(adxbdy) + np.abs(bdxady)) * clift
    )

    oleft = (ax - cx) * (by - cy)
    oright = (ay - cy) * (bx - cx)
    orient = oleft - oright
    orient_err = CCW_ERRBOUND * (np.abs(oleft) + np.abs(oright))

    det_pos = det > det_err
    det_neg = det < -det_err
    ori_pos = orient > orient_err
    ori_neg = orient < -orient_err
    certain_event = (det_pos & ori_pos) | (det_neg & ori_neg)
    certain_clear = (det_pos & ori_neg) | (det_neg & ori_pos)
    for idx in np.nonzero(~certain_clear)[0]:
        if certain_event[idx]:
            return float(taus[idx])
        if _reference_exact_is_event(tri_pts, tri_vels, probe_pt, probe_vel,
                                     float(taus[idx])):
            return float(taus[idx])
    return None


def reference_event_time(channel, mesh, sample_resolution):
    """``compute_event_time`` as a loop over triangles, then probes."""
    if sample_resolution <= 0:
        raise ValueError(f"sample_resolution must be positive, got {sample_resolution}")
    vel = mesh.vel.__getitem__

    best = None
    for idx, tri_id in enumerate(channel.triangles):
        eta = channel.etas[idx]
        if best is not None:
            eta = min(eta, best[0])  # only earlier events can still win
        taus = np.arange(sample_resolution, eta, sample_resolution)
        if taus.size == 0:
            continue
        verts = mesh.triangles[tri_id].tolist()
        tri_pts = np.array([mesh.xy_list[v] for v in verts], dtype=float)
        tri_vels = np.array([vel(v) for v in verts], dtype=float)
        for probe in neighbors_of(mesh, tri_id):
            tau = first_event_offset(tri_pts, tri_vels, mesh.xy_list[probe],
                                     vel(probe), taus)
            if tau is not None and (best is None or tau < best[0]):
                best = (tau, idx, probe)
    if best is not None:
        return EventReport(time=mesh.time + best[0], triangle_index=best[1],
                           node_id=int(mesh.nodes.ids[best[2]]))
    return None


def exact_scan_oracle(tri_pts, tri_vels, probe_pt, probe_vel, taus):
    """Per-sample exact in-circle scan in plain Python."""
    for tau in taus:
        pts = [(tri_pts[k][0] + tri_vels[k][0] * tau,
                tri_pts[k][1] + tri_vels[k][1] * tau) for k in range(3)]
        p = (probe_pt[0] + probe_vel[0] * tau, probe_pt[1] + probe_vel[1] * tau)
        try:
            hit = incircle(pts[0], pts[1], pts[2], p) is not InCircleSide.OUTSIDE
        except Exception:
            hit = True
        if hit:
            return float(tau)
    return None


class TestNeighborsOf:
    def test_square_mesh(self):
        mesh = build_mesh(table_of(make_nodes([(0, 0), (2, 0), (2, 2), (0, 2)])), 0.0)
        # Each triangle has exactly one neighbor; its opposite vertex is the
        # one not shared.
        for tri_id, verts in enumerate(mesh.triangles.tolist()):
            opp = neighbors_of(mesh, tri_id)
            assert len(opp) == 1
            assert opp[0] not in verts

    def test_unknown_triangle(self):
        mesh = build_mesh(table_of(make_nodes([(0, 0), (2, 0), (0, 2)])), 0.0)
        with pytest.raises(KeyError):
            neighbors_of(mesh, 5)


class TestFirstEventOffset:
    def setup_method(self):
        self.tri_pts = np.array([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)])
        self.tri_vels = np.zeros((3, 2))

    def test_approaching_probe_detected(self):
        taus = np.arange(0.1, 6.0, 0.1)
        # Probe starts far below, moving up into the circumcircle.
        tau = first_event_offset(self.tri_pts, self.tri_vels, (2.0, -8.0),
                                 (0.0, 2.0), taus)
        want = exact_scan_oracle(self.tri_pts, self.tri_vels, (2.0, -8.0),
                                 (0.0, 2.0), taus)
        assert tau == want
        assert tau is not None

    def test_receding_probe_clear(self):
        taus = np.arange(0.1, 5.0, 0.1)
        tau = first_event_offset(self.tri_pts, self.tri_vels, (2.0, -8.0),
                                 (0.0, -1.0), taus)
        assert tau is None

    def test_empty_window(self):
        assert first_event_offset(self.tri_pts, self.tri_vels, (0, -9),
                                  (0, 1), np.array([])) is None

    def test_matches_exact_scan_on_random_cases(self):
        rng = random.Random(4)
        taus = np.arange(0.1, 4.0, 0.1)
        for _ in range(40):
            tri_pts = np.array([(rng.uniform(0, 10), rng.uniform(0, 10))
                                for _ in range(3)])
            tri_vels = np.array([(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                 for _ in range(3)])
            probe = (rng.uniform(-5, 15), rng.uniform(-5, 15))
            pvel = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            got = first_event_offset(tri_pts, tri_vels, probe, pvel, taus)
            want = exact_scan_oracle(tri_pts, tri_vels, probe, pvel, taus)
            assert got == want


def crossing_channel(walker_speed=1.0):
    """Corridor of two triangles with a pedestrian bearing down on it."""
    pts = [(0, 0), (4, 0), (8, 0), (2, 3), (6, 3)]
    nodes = make_nodes(pts)
    walker = NodeState(id=5, x=4.0, y=-6.0, vx=0.0, vy=walker_speed, r=0.2,
                       kind=NodeKind.DYNAMIC)
    nodes.append(walker)
    mesh = build_mesh(table_of(nodes), 0.0)
    return mesh, build_dual(mesh, (7, 2), 0.5)


class TestComputeEventTime:
    def test_static_scene_has_no_events(self):
        mesh = build_mesh(table_of(make_nodes([(0, 0), (4, 0), (8, 0), (2, 3), (6, 3)])), 0.0)
        placements = build_dual(mesh, (7, 2), 0.5)
        ch = astar(placements, mesh, 0, len(mesh.triangles) - 1, goal=(7, 2),
                   ego_position=(1, 1), ego_speed=0.1)
        assert compute_event_time(ch, mesh, 0.1) is None

    def test_report_fields(self):
        mesh, placements = crossing_channel()
        start = next(i for i, v in enumerate(mesh.triangles.tolist()) if {0, 1, 3} == set(v))
        end = next(i for i, v in enumerate(mesh.triangles.tolist()) if {1, 2, 4} == set(v))
        ch = astar(placements, mesh, start, end, goal=(7, 2), ego_position=(2.0, 1.0),
                   ego_speed=0.2)
        report = compute_event_time(ch, mesh, 0.1)
        assert isinstance(report, EventReport)
        assert report.time > mesh.time
        assert 0 <= report.triangle_index < len(ch.triangles)

    def test_predicted_event_matches_mesh_rebuild(self):
        # The channel triangle must disappear from a freshly built mesh
        # within one sample step of the reported time (a cocircular touch
        # is reported conservatively, with the flip right after it), and
        # must still exist one step before.
        mesh, placements = crossing_channel()
        start = next(i for i, v in enumerate(mesh.triangles.tolist()) if {0, 1, 3} == set(v))
        end = next(i for i, v in enumerate(mesh.triangles.tolist()) if {1, 2, 4} == set(v))
        ch = astar(placements, mesh, start, end, goal=(7, 2), ego_position=(2.0, 1.0),
                   ego_speed=0.2)
        report = compute_event_time(ch, mesh, 0.1)
        assert report is not None
        tri_verts = frozenset(
            mesh.triangles[ch.triangles[report.triangle_index]].tolist())

        def alive(t):
            rebuilt = build_mesh(mesh.nodes, t)
            return tri_verts in {frozenset(v) for v in rebuilt.triangles.tolist()}

        assert not alive(report.time + 0.1)
        assert alive(report.time - 0.1)

    def test_earliest_event_wins(self):
        # Two pedestrians aimed at different corridor triangles: the report
        # must carry the earliest event overall, even when a nearer channel
        # triangle sees its own event later.
        pts = [(0, 0), (4, 0), (8, 0), (12, 0), (2, 3), (6, 3), (10, 3)]
        nodes = make_nodes(pts)
        nodes.append(NodeState(id=7, x=10.0, y=-1.5, vx=0.0, vy=1.0, r=0.1,
                               kind=NodeKind.DYNAMIC))  # hits far triangle soon
        nodes.append(NodeState(id=8, x=2.0, y=-6.0, vx=0.0, vy=1.0, r=0.1,
                               kind=NodeKind.DYNAMIC))  # hits near triangle later
        mesh = build_mesh(table_of(nodes), 0.0)
        placements = build_dual(mesh, (11, 2), 0.5)
        start = next(i for i, v in enumerate(mesh.triangles.tolist()) if 0 in v)
        end = next(i for i, v in enumerate(mesh.triangles.tolist()) if 3 in v)
        ch = astar(placements, mesh, start, end, goal=(11, 2), ego_position=(1.0, 0.5),
                   ego_speed=0.1)
        report = compute_event_time(ch, mesh, 0.1)
        assert report is not None
        assert report.node_id == 7
        # Per-triangle scan of every channel window must not beat it.
        for idx, tri_id in enumerate(ch.triangles):
            verts = mesh.triangles[tri_id].tolist()
            tri_pts = np.array([mesh.xy_list[v] for v in verts])
            tri_vels = mesh.vel[verts]
            taus = np.arange(0.1, ch.etas[idx], 0.1)
            for probe in neighbors_of(mesh, tri_id):
                tau = first_event_offset(tri_pts, tri_vels,
                                         mesh.xy_list[probe],
                                         mesh.vel[probe], taus)
                if tau is not None:
                    assert tau >= report.time - 1e-9

    def test_sampling_window_excludes_zero_and_arrival(self):
        mesh, placements = crossing_channel(walker_speed=50.0)
        start = next(i for i, v in enumerate(mesh.triangles.tolist()) if {0, 1, 3} == set(v))
        ch = astar(placements, mesh, start, start, goal=(7, 2), ego_position=(2.0, 1.0),
                   ego_speed=1.0)
        # Single-triangle channel: arrival offset 0, so no samples, no event.
        assert compute_event_time(ch, mesh, 0.1) is None

    def test_velocity_table_overrides_node_motion(self):
        mesh, placements = crossing_channel()
        start = next(i for i, v in enumerate(mesh.triangles.tolist()) if {0, 1, 3} == set(v))
        end = next(i for i, v in enumerate(mesh.triangles.tolist()) if {1, 2, 4} == set(v))
        ch = astar(placements, mesh, start, end, goal=(7, 2), ego_position=(2.0, 1.0),
                   ego_speed=0.2)
        assert compute_event_time(ch, mesh, 0.1) is not None
        frozen_mesh = dataclasses.replace(mesh, vel=np.zeros_like(mesh.vel))
        assert compute_event_time(ch, frozen_mesh, 0.1) is None

    def test_invalid_resolution(self):
        mesh, placements = crossing_channel()
        ch = astar(placements, mesh, 0, 0, goal=(7, 2), ego_position=placements[0],
                   ego_speed=1.0)
        with pytest.raises(ValueError):
            compute_event_time(ch, mesh, 0.0)


# Equivalence of the batched scan with the reference scan.

def moving_nodes(points, velocities):
    return [NodeState(id=i, x=x, y=y, vx=vx, vy=vy, r=0.0,
                      kind=NodeKind.DYNAMIC if (vx, vy) != (0, 0) else NodeKind.STATIC)
            for i, ((x, y), (vx, vy)) in enumerate(zip(points, velocities))]


def channel_of(mesh, tri_ids, etas):
    """A channel over arbitrary triangles; the scan reads only ids and etas."""
    return Channel(triangles=list(tri_ids), etas=list(etas),
                   waypoints=[(0.0, 0.0)] * len(tri_ids))


def triangle_with(mesh, verts):
    return next(i for i, v in enumerate(mesh.triangles.tolist()) if set(v) == set(verts))


def count_exact_calls(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return incircle(*args)

    monkeypatch.setattr(events, "incircle", counting)
    return calls


# Integer coordinates and velocities that are multiples of 0.5, sampled at
# 0.5 or 0.25, keep every extrapolated coordinate exact, so cocircular and
# collinear samples (exact fallbacks) occur often; 0.1 gives rounded ones.
_speeds = st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
_scenes = st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                   min_size=4, max_size=9, unique=True).flatmap(
    lambda pts: st.tuples(st.just(pts),
                          st.lists(st.tuples(_speeds, _speeds),
                                   min_size=len(pts), max_size=len(pts))))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scene=_scenes, res=st.sampled_from([0.5, 0.25, 0.1]),
       data=st.data())
def test_batched_scan_matches_reference(scene, res, data):
    points, vels = scene
    t0 = data.draw(st.sampled_from([0.0, 1.5]), label="mesh time")
    try:
        mesh = build_mesh(table_of(moving_nodes(points, vels)), t0)
    except DegenerateInputError:
        assume(False)
    tri_ids = data.draw(st.lists(st.integers(0, len(mesh.triangles) - 1),
                                 min_size=1, max_size=8), label="channel")
    # Windows: empty (0 or one step), cut exactly at a sample, or arbitrary.
    eta = st.one_of(st.integers(2, 24).map(lambda k: k * res),
                    st.floats(res, 6.0), st.sampled_from([0.0, res]))
    etas = data.draw(st.lists(eta, min_size=len(tri_ids), max_size=len(tri_ids)),
                     label="etas")
    n = len(points)
    per_node = st.lists(st.tuples(_speeds, _speeds), min_size=n, max_size=n)
    table = data.draw(st.one_of(
        st.none(),
        per_node,
        st.tuples(_speeds, _speeds).map(lambda v: [v] * n),
    ), label="velocities")
    if table is not None:
        mesh = dataclasses.replace(mesh, vel=np.array(table, dtype=float))
    ch = channel_of(mesh, tri_ids, etas)
    assert compute_event_time(ch, mesh, res) == reference_event_time(ch, mesh, res)


class TestBatchedScan:
    def test_tie_goes_to_lowest_probe(self):
        # Mirror-image probes across the two upper edges of an isosceles
        # triangle reach its circumcircle at the same sample.
        pts = [(0, 0), (4, 0), (2, 3), (7, 2), (-3, 2)]
        vels = [(0, 0), (0, 0), (0, 0), (-1, 0), (1, 0)]
        mesh = build_mesh(table_of(moving_nodes(pts, vels)), 0.0)
        tri = triangle_with(mesh, (0, 1, 2))
        assert neighbors_of(mesh, tri) == [3, 4]
        ch = channel_of(mesh, [tri], [6.0])
        verts = mesh.triangles[tri].tolist()
        tri_pts = np.array([mesh.xy_list[v] for v in verts], dtype=float)
        taus = np.arange(0.5, 6.0, 0.5)
        hits = [first_event_offset(tri_pts, np.zeros((3, 2)), mesh.xy_list[p],
                                   vels[p], taus) for p in (3, 4)]
        assert hits[0] is not None and hits[0] == hits[1]
        report = compute_event_time(ch, mesh, 0.5)
        assert report == EventReport(time=hits[0], triangle_index=0, node_id=3)
        assert report == reference_event_time(ch, mesh, 0.5)

    def test_tie_goes_to_lowest_channel_index(self):
        # The same triangle twice in the channel: both copies see the event
        # at the same sample, and the first copy wins.
        pts = [(0, 0), (4, 0), (2, 3), (7, 2), (-3, 2)]
        vels = [(0, 0), (0, 0), (0, 0), (-1, 0), (1, 0)]
        mesh = build_mesh(table_of(moving_nodes(pts, vels)), 0.0)
        tri = triangle_with(mesh, (0, 1, 2))
        other = triangle_with(mesh, (1, 2, 3))
        ch = channel_of(mesh, [other, tri, tri], [0.0, 6.0, 6.0])
        report = compute_event_time(ch, mesh, 0.5)
        assert report == reference_event_time(ch, mesh, 0.5)
        assert (report.triangle_index, report.node_id) == (1, 3)

    def test_rigid_translation_is_skipped(self):
        pts = [(0, 0), (4, 0), (2, 3), (2, -1)]
        mesh = build_mesh(table_of(moving_nodes(pts, [(0.5, -1.0)] * 4)), 0.0)
        ch = channel_of(mesh, range(len(mesh.triangles)), [8.0] * len(mesh.triangles))
        assert compute_event_time(ch, mesh, 0.1) is None
        assert reference_event_time(ch, mesh, 0.1) is None
        # Equal NaN velocities are not a rigid translation (NaN != NaN): the
        # pairs are scanned, and the exact predicate rejects the NaN.
        nan_mesh = dataclasses.replace(mesh, vel=np.array([(math.nan, 0.0)] * 4))
        for scan in (compute_event_time, reference_event_time):
            with pytest.raises(ValueError):
                scan(ch, nan_mesh, 0.5)

    def test_cocircular_sample_goes_to_exact_predicate(self, monkeypatch):
        # At tau = 1 the probe sits on the corner of the square whose other
        # three corners are the triangle: exactly cocircular, float det 0.
        pts = [(0, 0), (2, 0), (0, 2), (2, 3)]
        vels = [(0, 0), (0, 0), (0, 0), (0, -1)]
        mesh = build_mesh(table_of(moving_nodes(pts, vels)), 0.0)
        ch = channel_of(mesh, [triangle_with(mesh, (0, 1, 2))], [3.0])
        calls = count_exact_calls(monkeypatch)
        report = compute_event_time(ch, mesh, 0.5)
        assert len(calls) == 1
        assert report == EventReport(time=1.0, triangle_index=0, node_id=3)
        assert report == reference_event_time(ch, mesh, 0.5)

    def test_collapsing_triangle_is_an_event(self, monkeypatch):
        # The apex reaches the base line at tau = 1: the triangle is
        # collinear there and the exact predicate reports an event.
        pts = [(0, 0), (2, 0), (1, 1), (1, -10)]
        vels = [(0, 0), (0, 0), (0, -1), (0, 0)]
        mesh = build_mesh(table_of(moving_nodes(pts, vels)), 0.0)
        ch = channel_of(mesh, [triangle_with(mesh, (0, 1, 2))], [3.0])
        calls = count_exact_calls(monkeypatch)
        report = compute_event_time(ch, mesh, 0.5)
        assert len(calls) == 1
        assert report == EventReport(time=1.0, triangle_index=0, node_id=3)
        assert report == reference_event_time(ch, mesh, 0.5)

    def test_window_is_truncated_at_arrival(self):
        pts = [(0, 0), (2, 0), (0, 2), (2, 3)]
        vels = [(0, 0), (0, 0), (0, 0), (0, -1)]
        mesh = build_mesh(table_of(moving_nodes(pts, vels)), 0.0)
        tri = triangle_with(mesh, (0, 1, 2))
        for eta, want in ((0.0, None), (0.5, None), (1.0, None), (1.01, 1.0)):
            ch = channel_of(mesh, [tri], [eta])
            report = compute_event_time(ch, mesh, 0.5)
            assert report == reference_event_time(ch, mesh, 0.5)
            assert (report and report.time) == want

    def test_probe_cache_follows_transmitted_velocities(self):
        # Rigid pairs are told from ``mesh.vel``.  The static triangle and
        # its static probe form a rigid pair of the raw snapshot;
        # transmission hands the probe the walker's motion, and the
        # transmitted snapshot, which has the raw one's topology, must scan
        # the pair.
        pts = [(0, 0), (2, 0), (1, 1.8), (1, -1.5), (1, -3)]
        vels = [(0, 0), (0, 0), (0, 0), (0, 0), (0, 2)]
        raw = build_mesh(table_of(moving_nodes(pts, vels)), 0.0)
        ch = channel_of(raw, [triangle_with(raw, (0, 1, 2))], [3.0])
        assert compute_event_time(ch, raw, 0.1) is None
        moved = transmit(raw, TransmissionConfig())
        report = compute_event_time(ch, moved, 0.1)
        assert report is not None and report.node_id == 3
        assert report == reference_event_time(ch, moved, 0.1)

    def test_closed_loop_replay_matches_reference(self, monkeypatch):
        # Every call the sequencer makes (main scan and prefix re-scan) on
        # a short crossing run returns what the reference returns.
        scene = dataclasses.replace(generate_synthetic(3), time_limit=4.0)
        calls = []

        def checked(channel, mesh, res):
            got = compute_event_time(channel, mesh, res)
            assert got == reference_event_time(channel, mesh, res)
            calls.append(got)
            return got

        monkeypatch.setattr(sequencer, "compute_event_time", checked)
        run_scenario(scene, MethodId.PROPOSED)
        assert len(calls) > 50
        assert any(c is not None for c in calls)


# Anchor survival into a later snapshot, against a brute-force scan.

class TestEarlyReturns:
    # No window with a sample, or no moving node: the scan returns None
    # before it gathers a pair.
    @pytest.fixture(params=["no sample", "still", "still -0.0"])
    def unscanned(self, request, monkeypatch):
        mesh, _ = crossing_channel()  # the walker moves
        n = len(mesh.triangles)
        if request.param == "no sample":
            etas = [(0.0, 0.05, 0.1)[i % 3] for i in range(n)]  # each <= 0.1
        else:
            zero = -0.0 if request.param.endswith("-0.0") else 0.0
            mesh = dataclasses.replace(mesh, vel=np.full_like(mesh.vel, zero))
            etas = [8.0] * n

        def refuse(*args):
            raise AssertionError("gathered pairs")

        monkeypatch.setattr(events, "_gather", refuse)
        return channel_of(mesh, range(n), etas), mesh

    def test_returns_none_without_gathering(self, unscanned):
        ch, mesh = unscanned
        assert compute_event_time(ch, mesh, 0.1) is None
        assert reference_event_time(ch, mesh, 0.1) is None

    def test_zero_resolution_still_raises(self, unscanned):
        ch, mesh = unscanned
        for scan in (compute_event_time, reference_event_time):
            with pytest.raises(ValueError, match="sample_resolution"):
                scan(ch, mesh, 0.0)

    def test_one_moving_node_gathers(self, monkeypatch):
        mesh, _ = crossing_channel()
        assert np.count_nonzero(mesh.vel.any(axis=1)) == 1
        ch = channel_of(mesh, range(len(mesh.triangles)), [8.0] * len(mesh.triangles))
        gather, calls = events._gather, []

        def counting(*args):
            calls.append(args)
            return gather(*args)

        monkeypatch.setattr(events, "_gather", counting)
        report = compute_event_time(ch, mesh, 0.1)
        assert len(calls) == 1
        assert report is not None and report == reference_event_time(ch, mesh, 0.1)


def survives_oracle(table, t, tri):
    """No other node inside or on the circumcircle of ``tri`` at ``t``."""
    xy = [tuple(p) for p in (table.xy + table.vel * t).tolist()]
    a, b, c = (xy[v] for v in tri)
    if orient2d(a, b, c) == 0.0:
        return False
    return all(incircle(a, b, c, p) is InCircleSide.OUTSIDE
               for i, p in enumerate(xy) if i not in tri)


def survival_scenes():
    """(nodes, mesh time, later times, triangle stride)."""
    rng = random.Random(31)
    for _ in range(40):  # random sets
        n = rng.randint(4, 40)
        pts = [(rng.uniform(0, 20), rng.uniform(0, 12)) for _ in range(n)]
        vels = [(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                if rng.random() < 0.4 else (0.0, 0.0) for _ in range(n)]
        yield moving_nodes(pts, vels), 0.0, (0.3, 1.0), 1
    for _ in range(30):  # exactly cocircular integer grids, integer speeds
        side = rng.randint(2, 6)
        pts = [(float(i), float(j)) for i in range(side) for j in range(side)]
        vels = [(float(rng.randint(-1, 1)), float(rng.randint(-1, 1)))
                if rng.random() < 0.3 else (0.0, 0.0) for _ in pts]
        yield moving_nodes(pts, vels), 0.0, (0.0, 0.5, 1.0), 1
    for seed in range(6):
        nodes = generate_synthetic(seed).node_states_at(0.0)
        for t0 in (0.0, 6.0, 12.0):
            yield nodes, t0, (t0 + 0.1, t0 + 0.5), 7


class TestAnchorSurvives:
    def test_matches_brute_force_and_rebuild(self):
        outcomes = {True: 0, False: 0}
        for nodes, t0, later, stride in survival_scenes():
            table = table_of(nodes)
            try:
                tris = build_mesh(table, t0).triangles[::stride].tolist()
            except DegenerateInputError:
                continue
            for t in later:
                rebuilt = None
                for tri in tris:
                    got = events.anchor_survives(table, t, tri)
                    assert got == survives_oracle(table, t, tri), (t, tri)
                    outcomes[got] += 1
                    if got:
                        rebuilt = rebuilt or build_mesh(table, t)
                        assert find_triangle(rebuilt, tri) is not None, (t, tri)
        assert min(outcomes.values()) >= 100, outcomes

    def test_node_on_circle_is_a_loss(self):
        square = table_of(make_nodes([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert not events.anchor_survives(square, 0.0, [0, 1, 2])
        # Node 3 moves off the circle, outward and then inward.
        moving = table_of(moving_nodes([(0, 0), (1, 0), (1, 1), (0, 1)],
                                           [(0, 0), (0, 0), (0, 0), (-1, 1)]))
        assert events.anchor_survives(moving, 0.5, [0, 1, 2])
        assert not events.anchor_survives(moving, -0.25, [0, 1, 2])

    def test_collinear_and_coincident_are_losses(self):
        line = table_of(make_nodes([(0, 0), (1, 0), (2, 0), (1, 5)]))
        assert not events.anchor_survives(line, 0.0, [0, 1, 2])
        twin = table_of(make_nodes([(0, 0), (4, 0), (0, 4), (0, 0)]))
        assert not events.anchor_survives(twin, 0.0, [0, 1, 2])

"""End-to-end acceptance gate.

One test per release criterion; each prints a single PASS/FAIL line with
its headline numbers.  The heavy batch experiment (criteria 6 and 8) runs
once per session through a module-scoped fixture.
"""
import hashlib
import math
import os
import platform
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy

from trichannel.cli import run_batch, write_outputs
from trichannel.events import compute_event_time
from trichannel.funnel import funnel
from trichannel.geometry import (InCircleSide, NodeKind, NodeState, dist,
                                 incircle, orient2d)
from trichannel.mesh import (DegenerateInputError, build_dual, build_mesh,
                             locate, point_in_triangle)
from trichannel.render import render_run
from trichannel import simulate
from trichannel.scenario import ObjectTrack, generate_synthetic
from trichannel.search import astar
from trichannel.sequencer import (ChannelSequence, SequencerConfig,
                                  generate_sequence)
from trichannel.simulate import MethodId, SimConfig, aggregate, run_scenario

from nodes import table_of
from segment_views import node_anchor, node_triangles

WORKERS = max(1, min(8, os.cpu_count() or 1))


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


# -- criterion 1: predicate oracle agreement ---------------------------------

def orient_sign_oracle(a, b, c):
    ax, ay = map(Fraction, a)
    bx, by = map(Fraction, b)
    cx, cy = map(Fraction, c)
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (d > 0) - (d < 0)


def incircle_side_oracle(a, b, c, p):
    """Circumcircle membership via exact rational circumcenter."""
    ax, ay = map(Fraction, a)
    bx, by = map(Fraction, b)
    cx, cy = map(Fraction, c)
    px, py = map(Fraction, p)
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0:
        return None  # degenerate triangle
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    d2 = (px - ux) ** 2 + (py - uy) ** 2
    if d2 < r2:
        return InCircleSide.INSIDE
    if d2 == r2:
        return InCircleSide.COCIRCULAR
    return InCircleSide.OUTSIDE


def test_criterion_1_predicate_oracle_suite():
    rng = random.Random(101)
    t0 = time.perf_counter()
    checked = mismatches = 0
    while checked < 10_000:
        pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(4)]
        if rng.random() < 0.5:
            # Near-degenerate: probe pulled onto the circumcircle or the
            # line a-b, then perturbed by 1e-12.
            a, b, c, _ = pts
            f = rng.random()
            on_line = (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
            eps = 1e-12
            pts[3] = (on_line[0] + rng.uniform(-eps, eps),
                      on_line[1] + rng.uniform(-eps, eps))
        a, b, c, p = pts
        want_orient = orient_sign_oracle(a, b, c)
        got_orient = orient2d(a, b, c)
        if ((got_orient > 0) - (got_orient < 0)) != want_orient:
            mismatches += 1
        want_side = incircle_side_oracle(a, b, c, p)
        if want_side is not None:
            if incircle(a, b, c, p) is not want_side:
                mismatches += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(1, "predicate oracle suite", ok,
           f"{checked} instances, {mismatches} sign mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


# -- criterion 2: Delaunay audit ---------------------------------------------

def test_criterion_2_delaunay_validity():
    rng = random.Random(202)
    t0 = time.perf_counter()
    violations = sets = 0
    while sets < 100:
        n = rng.randint(4, 200)
        nodes = [NodeState(id=i, x=rng.uniform(0, 50), y=rng.uniform(0, 50),
                           vx=0.0, vy=0.0, r=0.0) for i in range(n)]
        try:
            mesh = build_mesh(table_of(nodes), 0.0)
        except DegenerateInputError:
            continue
        sets += 1
        for verts in mesh.triangles.tolist():
            a, b, c = (mesh.xy_list[v] for v in verts)
            for nid, pos in enumerate(mesh.xy_list):
                if nid in verts:
                    continue
                if incircle(a, b, c, pos) is InCircleSide.INSIDE:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report(2, "delaunay validity audit", ok,
           f"{sets} node sets, {violations} inside classifications, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60.0


# -- shared corpus for criteria 3 and 4 --------------------------------------

def random_small_scene(rng):
    """Up to 15 nodes, 1-3 dynamic, plus a start/goal pair inside the hull."""
    n = rng.randint(8, 15)
    n_dyn = rng.randint(1, 3)
    nodes = []
    for i in range(n):
        dyn = i < n_dyn
        nodes.append(NodeState(
            id=i, x=rng.uniform(0, 20), y=rng.uniform(0, 12),
            vx=rng.uniform(-1.5, 1.5) if dyn else 0.0,
            vy=rng.uniform(-1.5, 1.5) if dyn else 0.0,
            r=rng.uniform(0.05, 0.3),
            kind=NodeKind.DYNAMIC if dyn else NodeKind.STATIC))
    return nodes


def rebuild_first_change(channel, mesh, resolution):
    """Brute-force rebuild-and-diff: first sampled time at which the
    re-triangulated scene differs from the previous sample, with the sets
    of triangles that disappeared and appeared there."""
    nodes = mesh.nodes
    prev = {frozenset(v) for v in mesh.triangles.tolist()}
    for tau in np.arange(resolution, max(channel.etas), resolution):
        t = float(tau)
        cur = {frozenset(v)
               for v in build_mesh(nodes, t).triangles.tolist()}
        if cur != prev:
            return t, prev - cur, cur - prev
        prev = cur
    return None, set(), set()


def build_channel(nodes, rng):
    try:
        mesh = build_mesh(table_of(nodes), 0.0)
    except DegenerateInputError:
        return None, None
    hull_x = [p[0] for p in mesh.xy_list]
    hull_y = [p[1] for p in mesh.xy_list]
    for _ in range(20):
        start = (rng.uniform(min(hull_x), max(hull_x)),
                 rng.uniform(min(hull_y), max(hull_y)))
        goal = (rng.uniform(min(hull_x), max(hull_x)),
                rng.uniform(min(hull_y), max(hull_y)))
        if dist(start, goal) < 5.0:
            continue
        s_tri, g_tri = locate(mesh, start), locate(mesh, goal)
        if s_tri is None or g_tri is None:
            continue
        ch = astar(build_dual(mesh, goal, 0.2), mesh, s_tri, g_tri, goal=goal,
                   ego_position=start, ego_speed=1.0)
        if ch is not None and len(ch.triangles) >= 2:
            return mesh, ch
    return None, None


def test_criterion_3_event_prediction_oracle():
    rng = random.Random(303)
    res = 0.1
    t0 = time.perf_counter()
    scenes = cases = agree = excused = hull_events = 0
    while scenes < 200:
        nodes = random_small_scene(rng)
        mesh, ch = build_channel(nodes, rng)
        if mesh is None:
            continue
        scenes += 1
        t_star, gone, born = rebuild_first_change(ch, mesh, res)
        # Condition on the first connectivity change being an interior edge
        # flip whose vanished edge belongs to a channel triangle inside its
        # scanned window.  Hull reconfigurations (a vertex sliding past a
        # boundary edge) carry no in-circle certificate and are outside the
        # predictor's model; they are tallied separately.
        touching = None
        if t_star is not None:
            for idx, tri_id in enumerate(ch.triangles):
                verts = frozenset(mesh.triangles[tri_id].tolist())
                if verts in gone and t_star < ch.etas[idx]:
                    touching = idx
                    break
        if touching is None:
            continue
        is_flip = (len(gone) == 2 and len(born) == 2
                   and set().union(*gone) == set().union(*born))
        if not is_flip:
            hull_events += 1
            continue
        cases += 1
        predicted = compute_event_time(ch, mesh, res)
        if predicted is not None and abs(predicted.time - t_star) <= res + 1e-9:
            agree += 1
        elif t_star >= ch.etas[touching] - res - 1e-9:
            # Change lands within one sample of that triangle's arrival;
            # the sampled window cannot see it.
            excused += 1
    elapsed = time.perf_counter() - t0
    rate = agree / cases if cases else 0.0
    ok = rate >= 0.95 and (agree + excused) == cases and elapsed < 300.0
    report(3, "event prediction vs rebuild oracle", ok,
           f"{scenes} scenes, {cases} first-flip-in-channel cases, "
           f"{rate:.1%} within one sample, {excused} quantization-excused, "
           f"{hull_events} hull events excluded, {elapsed:.0f}s")
    assert cases >= 50
    assert rate >= 0.95
    assert agree + excused == cases, "unexplained disagreement with oracle"
    assert elapsed < 300.0


def test_criterion_4_sequence_invariants():
    rng = random.Random(404)
    cfg = SequencerConfig(ego_radius=0.2, ego_speed=1.0)
    sequences = violations = closed = 0
    details = []
    attempts = 0
    while sequences < 200 and attempts < 2000:
        attempts += 1
        nodes = random_small_scene(rng)
        start = (rng.uniform(2, 18), rng.uniform(2, 10))
        goal = (rng.uniform(2, 18), rng.uniform(2, 10))
        if dist(start, goal) < 5.0:
            continue
        result = generate_sequence(build_mesh(table_of(nodes), 0.0), start, goal, cfg)
        if not isinstance(result, ChannelSequence):
            continue
        sequences += 1
        segs = result.segments
        if segs[0].mesh.time != 0.0:
            violations += 1
            details.append("window start")
        for cur, nxt in zip(segs, segs[1:]):
            if frozenset(node_anchor(cur)) != frozenset(node_triangles(nxt)[0]):
                violations += 1
                details.append("anchor continuity")
            if cur.t_end != nxt.mesh.time:
                violations += 1
                details.append("window contiguity")
        for seg in segs:
            if seg.t_end is None:
                continue
            closed += 1
            if seg.t_end <= seg.mesh.time:
                violations += 1
                details.append("empty window")
            # Subgoal containment against the anchor extrapolated to the
            # end of the validity window.
            offset = seg.t_end - seg.mesh.time
            tri = []
            at = dict(zip(seg.mesh.nodes.ids.tolist(), seg.mesh.xy_list))
            for v in node_anchor(seg):
                p = at[v]
                vel = next((n.vx, n.vy) for n in nodes if n.id == v)
                tri.append((p[0] + vel[0] * offset, p[1] + vel[1] * offset))
            if not point_in_triangle(tuple(tri), seg.subgoal):
                violations += 1
                details.append("subgoal containment")
            # Unaffectedness: re-predicting over the segment's own triangles
            # and window finds nothing strictly before the boundary event.
            report_ = _segment_event(nodes, seg)
            if report_ is not None and report_ < seg.t_end - 1e-9:
                violations += 1
                details.append("unaffectedness")
    ok = violations == 0 and sequences >= 100
    report(4, "sequence invariants", ok,
           f"{sequences} sequences, {closed} closed segments, {violations} violations"
           + (f" ({sorted(set(details))})" if details else ""))
    assert sequences >= 100
    assert violations == 0


def _segment_event(nodes, seg):
    from trichannel.search import Channel
    from trichannel.transmission import TransmissionConfig, transmit

    mesh = build_mesh(table_of(nodes), seg.mesh.time)
    by_verts = {frozenset(v): i for i, v in enumerate(mesh.triangles.tolist())}
    ids = []
    for v in node_triangles(seg):
        tid = by_verts.get(frozenset(v))
        if tid is None:
            return None  # triangle gone from this snapshot; skip
        ids.append(tid)
    window = seg.t_end - seg.mesh.time
    ch = Channel(triangles=ids,
                 etas=[window] * len(ids), waypoints=[(0, 0)] * len(ids))
    # Same velocity model the sequencer predicted with.
    rep = compute_event_time(ch, transmit(mesh, TransmissionConfig()), 0.1)
    return None if rep is None else rep.time


# -- criterion 5: funnel optimality ------------------------------------------

def polyline_length(path):
    return sum(dist(a, b) for a, b in zip(path.points, path.points[1:]))


def convex_portal_oracle(portals, start, target):
    from scipy.optimize import minimize

    left = np.array([p[0] for p in portals], dtype=float)
    right = np.array([p[1] for p in portals], dtype=float)
    s = np.asarray(start, dtype=float)
    g = np.asarray(target, dtype=float)

    def total(t):
        pts = left + (right - left) * t[:, None]
        chain = np.vstack([s, pts, g])
        return float(np.sum(np.hypot(*(np.diff(chain, axis=0).T))))

    n = len(portals)
    best = math.inf
    for init in (np.full(n, 0.5), np.linspace(0.1, 0.9, n),
                 np.linspace(0.9, 0.1, n)):
        res = minimize(total, init, bounds=[(0.0, 1.0)] * n,
                       method="L-BFGS-B",
                       options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 500})
        best = min(best, float(res.fun))
    return best


def random_corridor(rng):
    tris = []
    x = 0.0
    lo, hi = 0.0, rng.uniform(1.5, 2.5)
    prev = [(x, lo), (x, hi)]
    n_quads = rng.randint(1, 5)  # up to 10 triangles
    for _ in range(n_quads):
        x += rng.uniform(1.5, 3.0)
        lo2 = lo + rng.uniform(-0.8, 0.8)
        hi2 = lo2 + rng.uniform(1.5, 2.5)
        cur = [(x, lo2), (x, hi2)]
        tris.append((prev[0], cur[0], prev[1]))
        tris.append((cur[0], cur[1], prev[1]))
        prev, lo, hi = cur, lo2, hi2
    start = (0.3, (tris[0][0][1] + tris[0][2][1]) / 2)
    target = ((prev[0][0] + prev[1][0]) / 2 - 0.3,
              (prev[0][1] + prev[1][1]) / 2)
    return tris, start, target


def test_criterion_5_funnel_optimality():
    from trichannel.funnel import _shrink_portal

    from test_stage_oracles import _ccw, corridor_mesh, extract_portals

    rng = random.Random(505)
    corridors = mismatches = escapes = 0
    while corridors < 50:
        tris, start, target = random_corridor(rng)
        padding = 0.15
        try:
            path = funnel(corridor_mesh(tris), range(len(tris)), start, target,
                          padding)
        except ValueError:
            continue
        if path is None:
            continue
        corridors += 1
        portals = [_shrink_portal(left, right, padding, padding)
                   for left, right in extract_portals([_ccw(t) for t in tris])]
        want = convex_portal_oracle(portals, start, target)
        if not math.isclose(polyline_length(path), want, rel_tol=1e-6, abs_tol=1e-6):
            mismatches += 1
        for a, b in zip(path.points, path.points[1:]):
            for i in range(101):
                f = i / 100
                p = (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
                if not any(point_in_triangle(t, p) for t in tris):
                    escapes += 1
    ok = mismatches == 0 and escapes == 0
    report(5, "funnel vs shortest-path oracle", ok,
           f"{corridors} corridors, {mismatches} length mismatches, "
           f"{escapes} out-of-channel samples")
    assert mismatches == 0
    assert escapes == 0


# -- criteria 6 and 8: synthetic experiment ----------------------------------

@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    base = tmp_path_factory.mktemp("experiment")
    scene_dir = base / "scenes"
    scene_dir.mkdir()
    paths = []
    for seed in range(50):
        sc = generate_synthetic(seed)
        p = scene_dir / f"{sc.id}.json"
        sc.save(p)
        paths.append(p)
    t0 = time.perf_counter()
    metrics, skipped, errors = run_batch(paths, list(MethodId), SimConfig(),
                                         workers=WORKERS)
    assert errors == []
    elapsed = time.perf_counter() - t0
    out_dir = base / "run1"
    csv_path, _ = write_outputs(metrics, skipped, out_dir)
    return {"paths": paths, "metrics": metrics, "elapsed": elapsed,
            "csv": csv_path, "summary": aggregate(metrics)}


def test_criterion_6_synthetic_experiment(experiment):
    s = experiment["summary"]
    prop, timed, base = s["proposed"], s["timed_astar"], s["astar"]
    compl_margin = prop["completion_rate"] - timed["completion_rate"]
    plan_margin = prop["planning_success_rate"] - timed["planning_success_rate"]
    coll_margin = prop["collision_rate"] - base["collision_rate"]
    time_ratio = (prop["mean_completion_time"] / base["mean_completion_time"]
                  if prop["mean_completion_time"] and base["mean_completion_time"]
                  else math.inf)
    elapsed = experiment["elapsed"]
    checks = [compl_margin >= 0.10, plan_margin >= 0.15,
              coll_margin <= -0.08, abs(time_ratio - 1.0) <= 0.25,
              elapsed < 900.0]
    ok = all(checks)
    report(6, "synthetic experiment ordinal margins", ok,
           f"completion +{compl_margin * 100:.0f}pts (need >=+10), "
           f"planning +{plan_margin * 100:.0f}pts (need >=+15), "
           f"collision {coll_margin * 100:+.0f}pts (need <=-8), "
           f"time ratio {time_ratio:.2f} (need within 0.25), "
           f"{elapsed:.0f}s")
    assert compl_margin >= 0.10, f"completion margin {compl_margin:.2f}"
    assert plan_margin >= 0.15, f"planning margin {plan_margin:.2f}"
    assert coll_margin <= -0.08, f"collision margin {coll_margin:.2f}"
    assert abs(time_ratio - 1.0) <= 0.25, f"time ratio {time_ratio:.2f}"
    assert elapsed < 900.0


def test_criterion_7_static_reduction(tmp_path):
    from trichannel.geometry import NodeKind as NK
    from trichannel.scenario import ObjectTrack, Scenario

    scene_dir = tmp_path / "static"
    scene_dir.mkdir()
    paths = []
    for seed in range(20):
        sc = generate_synthetic(seed + 1000)
        frozen = [ObjectTrack(id=tr.id, kind=NK.STATIC, radius=tr.radius,
                              waypoints=[tr.waypoints[0]])
                  for tr in sc.nodes]
        sc2 = Scenario(id=f"{sc.id}-static", nodes=frozen,
                       boundaries=sc.boundaries, start=sc.start, goal=sc.goal,
                       ego_speed=sc.ego_speed, ego_radius=sc.ego_radius,
                       time_limit=sc.time_limit)
        p = scene_dir / f"{sc2.id}.json"
        sc2.save(p)
        paths.append(p)
    metrics, _, errors = run_batch(paths, list(MethodId), SimConfig(), workers=WORKERS)
    assert errors == []
    outcomes = {}
    for m in metrics:
        outcomes.setdefault(m.scenario_id, {})[m.method] = m.completed
    mismatched = [sid for sid, per in outcomes.items()
                  if len(set(per.values())) != 1]
    collisions = sum(m.collision_count for m in metrics)
    ok = not mismatched and collisions == 0
    report(7, "static reduction", ok,
           f"20 scenarios, {len(mismatched)} outcome mismatches, "
           f"{collisions} collisions")
    assert not mismatched, f"differing completion outcomes: {mismatched}"
    assert collisions == 0


def test_criterion_8_determinism(experiment, tmp_path):
    metrics, skipped, errors = run_batch(experiment["paths"], list(MethodId),
                                         SimConfig(), workers=WORKERS)
    assert errors == []
    csv_path, _ = write_outputs(metrics, skipped, tmp_path / "run2")
    same = csv_path.read_bytes() == experiment["csv"].read_bytes()
    report(8, "byte-identical rerun", same,
           f"{csv_path.stat().st_size} byte CSV")
    assert same


# The experiment's metrics.csv, hashed on the toolchain below.  Float
# results can move in the last bit with another numpy, scipy or Python, so
# the hash holds only there.  A deliberate behaviour change records the
# new hash here and says so in CHANGES.md.
GOLDEN_METRICS_CSV = {
    "sha256": "9c09296a9439fce0f2203916d3c37d8f003cd1a86b61518b559bb76f53ba48f6",
    "python": "3.11.7",
    "numpy": "2.4.6",
    "scipy": "1.17.1",
}


def skip_off_golden_toolchain():
    toolchain = {"python": platform.python_version(), "numpy": np.__version__,
                 "scipy": scipy.__version__}
    recorded = {k: GOLDEN_METRICS_CSV[k] for k in toolchain}
    if toolchain != recorded:
        pytest.skip(f"golden hash recorded on {recorded}, running {toolchain}")


def test_criterion_8_golden_metrics_csv(experiment):
    skip_off_golden_toolchain()
    digest = hashlib.sha256(experiment["csv"].read_bytes()).hexdigest()
    same = digest == GOLDEN_METRICS_CSV["sha256"]
    report(8, "golden metrics.csv", same, f"sha256 {digest[:12]}")
    assert same


# Every SVG frame of two short renders, in order, hashed on the toolchain
# of GOLDEN_METRICS_CSV.
GOLDEN_RENDER_SHA256 = {
    (5, "proposed"): "d5b1c5f3e33d6f483b165f079f56093dd1fe6541f2185139980ec5e68cdc899f",
    (7, "astar"): "1bad5d0b634adaa9216fa7f25b0d4b4c97eba434256dff59fa12bbdcf974ab3e",
}


@pytest.mark.parametrize("seed, method", [(5, MethodId.PROPOSED), (7, MethodId.ASTAR)])
def test_criterion_8_golden_render_frames(tmp_path, seed, method):
    skip_off_golden_toolchain()
    frames = render_run(generate_synthetic(seed), method, tmp_path, frame_dt=2.0)
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in frames)).hexdigest()
    same = digest == GOLDEN_RENDER_SHA256[seed, method.value]
    report(8, f"golden render frames, {method.value}", same,
           f"{len(frames)} frames, sha256 {digest[:12]}")
    assert same


def plan_digest(monkeypatch, runs):
    """sha256 of every plan() path's points over the closed-loop ``runs`` of
    (scenario, method), and per plan whether it found a path."""
    digest, plans = hashlib.sha256(), []
    plan = simulate.plan

    def hashed(*args):
        path = plan(*args)
        plans.append(path is not None)
        if path is not None:
            digest.update(np.asarray(path.points, dtype=float).tobytes())
        digest.update(b"|")
        return path

    monkeypatch.setattr(simulate, "plan", hashed)
    for scene, method in runs:
        run_scenario(scene, method)
    return digest.hexdigest(), plans


# Every plan() path of proposed runs on parked copies of four scenes, hashed
# (``plan_digest``) on the toolchain of GOLDEN_METRICS_CSV.  A parked copy
# freezes each track at its first waypoint, as the benchmark's ``parked``
# workload does, so no node moves in any snapshot.
GOLDEN_PARKED_PATHS_SHA256 = "e43250d8dcda3d74e496167b17fe0d70f4e102ea58d11da3d6bcfbc5c51a599c"


def parked(sc):
    return replace(sc, id=f"{sc.id}-parked", nodes=[
        ObjectTrack(id=t.id, kind=NodeKind.STATIC, radius=t.radius,
                    waypoints=[t.waypoints[0]])
        for t in sc.nodes])


def test_criterion_8_golden_parked_paths(monkeypatch):
    skip_off_golden_toolchain()
    digest, plans = plan_digest(monkeypatch, [(parked(generate_synthetic(seed)),
                                               MethodId.PROPOSED) for seed in range(4)])
    same = digest == GOLDEN_PARKED_PATHS_SHA256
    report(8, "golden parked paths", same,
           f"{len(plans)} plans, {sum(plans)} paths, sha256 {digest[:12]}")
    assert same


# Every plan() path of all three methods on two moving scenes cut to their
# first 8 s, hashed (``plan_digest``) on the toolchain of GOLDEN_METRICS_CSV.
GOLDEN_MOVING_PATHS_SHA256 = "46cd38bd7ab2d35fa921e16272e691af63a79a8c74a65e7aca2c93320b14e16f"


def test_criterion_8_golden_moving_paths(monkeypatch):
    skip_off_golden_toolchain()
    digest, plans = plan_digest(monkeypatch, [
        (replace(generate_synthetic(seed), time_limit=8.0), method)
        for seed in range(2) for method in MethodId])
    same = digest == GOLDEN_MOVING_PATHS_SHA256
    report(8, "golden moving paths", same,
           f"{len(plans)} plans, {sum(plans)} paths, sha256 {digest[:12]}")
    assert same

"""Closed-loop execution: stepping, collision checks, metrics."""
import math
import re

import pytest

from trichannel import render, simulate
from trichannel.funnel import PathPolyline
from trichannel.geometry import NodeKind, dist, point_along
from trichannel.mesh import build_mesh
from trichannel.render import _bounds, render_run
from trichannel.scenario import ObjectTrack, Scenario, generate_synthetic
from trichannel.simulate import (Metrics, MethodId, SimConfig, SimState,
                                 aggregate, colliding_ids, plan_detailed,
                                 run_scenario, step)


def empty_road(length=12.0, width=6.0, time_limit=30.0):
    return Scenario(
        id="empty",
        nodes=[ObjectTrack(id=0, kind=NodeKind.STATIC, radius=0.1,
                           waypoints=[(0.0, length / 2, width / 2 + 2.0)])],
        boundaries=[[(0.0, 0.0), (length, 0.0)],
                    [(0.0, width), (length, width)]],
        start=(0.5, width / 2),
        goal=(length - 0.5, width / 2),
        ego_speed=1.0,
        ego_radius=0.25,
        time_limit=time_limit,
    )


class TestDetectCollision:
    def scene(self):
        return Scenario(
            id="discs",
            nodes=[ObjectTrack(id=0, kind=NodeKind.STATIC, radius=0.5,
                               waypoints=[(0.0, 0.0, 0.0)]),
                   ObjectTrack(id=1, kind=NodeKind.VIRTUAL, radius=0.5,
                               waypoints=[(0.0, 5.0, 0.0)]),
                   ObjectTrack(id=2, kind=NodeKind.STATIC, radius=4.0,
                               waypoints=[(0.0, 0.0, 20.0)])],
            boundaries=[], start=(0.0, 10.0), goal=(9.0, 10.0),
            ego_speed=1.0, ego_radius=0.2, time_limit=1.0)

    def colliding(self, ego, ego_radius=0.2):
        sc = self.scene()
        return colliding_ids(ego, ego_radius, sc, 0.0)

    def test_overlap_detected(self):
        assert self.colliding((0.6, 0.0)) == {0}

    def test_touching_is_not_collision(self):
        assert self.colliding((0.7, 0.0)) == set()

    def test_virtual_nodes_ignored(self):
        assert self.colliding((5.0, 0.0)) == set()

    def test_exact_contact_is_not_collision(self):
        # hypot(3, 4) and 1 + 4 are both exactly 5.0: the test is strict.
        assert self.colliding((3.0, 24.0), 1.0) == set()
        assert self.colliding((3.0, 24.0 - 1e-9), 1.0) == {2}


def node_state_collisions(scenario, states):
    """Collision onsets by the node-state check the array check replaced."""
    def colliding(ego, t):
        return {n.id for n in scenario.node_states_at(t)
                if n.kind is not NodeKind.VIRTUAL
                and dist(ego, n.position) < scenario.ego_radius + n.r}

    count, before = 0, colliding(scenario.start, 0.0)
    for state in states:
        now = colliding(state.ego, state.t)
        count += len(now - before)
        before = now
    return count


def test_collision_count_matches_node_state_replay(monkeypatch):
    states = []

    def recording_step(*args):
        states.append(real_step(*args))
        return states[-1]

    real_step = simulate.step
    monkeypatch.setattr(simulate, "step", recording_step)
    total = 0
    for seed in range(6):
        sc = generate_synthetic(seed)
        for method in MethodId:
            states.clear()
            m = run_scenario(sc, method)
            assert m.collision_count == node_state_collisions(sc, states), (sc.id, method)
            total += m.collision_count
    assert total > 0  # the replay compares some onsets


class TestStep:
    def test_advances_along_path(self):
        sc = empty_road()
        path = PathPolyline(points=[(0.0, 3.0), (10.0, 3.0)])
        st = SimState(t=0.0, ego=(0.0, 3.0), path=path, cursor=0.0)
        st = step(st, sc, 0.5)
        assert st.t == 0.5
        assert st.ego == (0.5, 3.0)  # ego_speed 1.0
        assert st.cursor == 0.5

    def test_holds_without_path(self):
        sc = empty_road()
        st = SimState(t=1.0, ego=(2.0, 3.0), path=None)
        st2 = step(st, sc, 0.1)
        assert st2.ego == st.ego
        assert st2.t == pytest.approx(1.1)

    def test_stops_at_path_end(self):
        sc = empty_road()
        path = PathPolyline(points=[(0.0, 3.0), (1.0, 3.0)])
        st = SimState(t=0.0, ego=(0.0, 3.0), path=path, cursor=0.0)
        st = step(st, sc, 5.0)
        assert st.ego == (1.0, 3.0)

    def test_zero_length_hops_skipped(self):
        sc = empty_road()
        path = PathPolyline(points=[(0.0, 3.0), (0.0, 3.0), (1.0, 3.0),
                                    (1.0, 3.0), (3.0, 3.0)])
        st = step(SimState(t=0.0, ego=(0.0, 3.0), path=path), sc, 0.5)
        assert st.ego == (0.5, 3.0)
        st = step(st, sc, 1.0)
        assert st.ego == (1.5, 3.0)
        assert st.cursor == 1.5

    def test_zero_travel_stays_at_start(self):
        # ``step`` always travels (dt and ego speed are positive); the
        # walker it calls holds the first point for zero travel, also when
        # the path starts with a zero-length hop.
        pts = [(0.0, 3.0), (0.0, 3.0), (1.0, 3.0)]
        assert point_along(pts, 0.0) == (0.0, 3.0)
        assert point_along(pts, 1.0) == (1.0, 3.0)

    def test_holds_path_end_after_overshoot(self):
        sc = empty_road()
        path = PathPolyline(points=[(0.0, 3.0), (1.0, 3.0), (1.0, 4.0)])
        st = SimState(t=0.0, ego=(0.0, 3.0), path=path, cursor=1.5)
        for _ in range(3):
            st = step(st, sc, 0.5)
            assert st.ego == (1.0, 4.0)
        assert st.t == 1.5

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            step(SimState(t=0.0, ego=(0, 0)), empty_road(), 0.0)


@pytest.mark.parametrize("field", ["dt", "replan_interval"])
@pytest.mark.parametrize("value", [0.0, -0.1])
def test_sim_config_rejects_non_positive_times(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: value})


class TestPlanning:
    def test_all_methods_plan_on_empty_road(self):
        sc = empty_road()
        cfg = SimConfig().sequencer_for(sc)
        for method in MethodId:
            res = plan_detailed(sc, method, sc.start, 0.0, cfg)
            assert res.path is not None, method
            end = res.path.points[-1]
            assert math.dist(end, sc.goal) < 1e-9

    def test_proposed_exposes_sequence(self):
        sc = empty_road()
        cfg = SimConfig().sequencer_for(sc)
        res = plan_detailed(sc, MethodId.PROPOSED, sc.start, 0.0, cfg)
        assert res.segments

    def test_unreachable_goal_fails(self):
        sc = empty_road()
        sc = Scenario(id="far", nodes=sc.nodes, boundaries=sc.boundaries,
                      start=sc.start, goal=(100.0, 100.0),
                      ego_speed=sc.ego_speed, ego_radius=sc.ego_radius,
                      time_limit=sc.time_limit)
        cfg = SimConfig().sequencer_for(sc)
        for method in MethodId:
            assert plan_detailed(sc, method, sc.start, 0.0, cfg).path is None


class TestRunScenario:
    def test_empty_road_completes_near_straight_line_time(self):
        sc = empty_road()
        for method in MethodId:
            m = run_scenario(sc, method)
            assert m.completed, method
            # Straight-line time is 11s at unit speed; allow detour slack.
            assert m.completion_time <= 11.0 * 1.3
            assert m.collision_count == 0
            assert m.cycles_succeeded == m.cycles_attempted

    def test_deterministic(self):
        sc = generate_synthetic(7)
        a = run_scenario(sc, MethodId.PROPOSED)
        b = run_scenario(sc, MethodId.PROPOSED)
        for f in ("completed", "completion_time", "cycles_attempted",
                  "cycles_succeeded", "collision_count", "collided"):
            assert getattr(a, f) == getattr(b, f)

    def test_time_limit_bounds_run(self):
        sc = empty_road(length=50.0, time_limit=5.0)
        m = run_scenario(sc, MethodId.ASTAR)
        assert not m.completed
        assert m.completion_time is None
        assert m.cycles_attempted == pytest.approx(50, abs=1)

    def test_new_contacts_counted_once(self):
        # A pedestrian parked on the route: driving through it is one
        # contact, not one per step.
        sc = empty_road()
        blocker = ObjectTrack(id=1, kind=NodeKind.DYNAMIC, radius=0.4,
                              waypoints=[(0.0, 6.0, 3.0), (100.0, 6.01, 3.0)])
        sc = Scenario(id="blocked", nodes=sc.nodes + [blocker],
                      boundaries=sc.boundaries, start=sc.start, goal=sc.goal,
                      ego_speed=sc.ego_speed, ego_radius=sc.ego_radius,
                      time_limit=sc.time_limit)
        m = run_scenario(sc, MethodId.ASTAR)
        assert m.collision_count <= 2


@pytest.mark.parametrize("frame_dt", [0.0, math.nan, math.inf])
def test_render_rejects_bad_frame_step(tmp_path, frame_dt):
    with pytest.raises(ValueError, match="frame_dt"):
        render_run(empty_road(), MethodId.ASTAR, tmp_path, frame_dt=frame_dt)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("method", [MethodId.ASTAR, MethodId.PROPOSED])
def test_render_stops_where_run_stops(tmp_path, method):
    # One frame per step: the frames cover the steps the metrics count,
    # and the last one shows the ego one step short of the goal.
    sc = empty_road()
    cfg = SimConfig()
    m = run_scenario(sc, method, cfg)
    assert m.completed
    frames = render_run(sc, method, tmp_path, cfg, frame_dt=cfg.dt)
    assert len(frames) == round(m.completion_time / cfg.dt)
    x0, _, _, y1 = _bounds(sc)
    cx, cy = map(float, re.findall(
        r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="[\d.]+" fill="#cc2222"',
        frames[-1].read_text())[-1])
    ego = (x0 + cx / 20.0, y1 - cy / 20.0)
    gap = math.dist(ego, sc.goal)
    assert sc.ego_radius < gap <= sc.ego_radius + sc.ego_speed * cfg.dt + 1e-3


def test_render_does_not_reseed_the_planner(tmp_path, monkeypatch):
    # Frames draw the plan's own snapshot, so in a rendered run each plan
    # leaves its first snapshot as the warm start, as in a run, and the run
    # leaves none behind.
    scene = empty_road(time_limit=1.0)
    plans, kept = [], []

    def recorded(*args):
        plans.append(plan_detailed(*args))
        kept.append(scene.plan_start)
        return plans[-1]

    monkeypatch.setattr(render, "plan_detailed", recorded)
    cfg = SimConfig()
    render_run(scene, MethodId.ASTAR, tmp_path, cfg, frame_dt=cfg.dt)
    assert len(plans) == 10
    assert kept == [p.segments[0].mesh for p in plans]
    assert scene.plan_start is None


def test_plan_detailed_keeps_each_plans_first_snapshot(monkeypatch):
    # A plan's first snapshot advances from the scenario's warm start and
    # replaces it, also when the plan fails: here the goal leaves the mesh.
    scene = empty_road()
    cfg = SimConfig().sequencer_for(scene)
    built = []  # (prior, snapshot) per first build

    def recording_build(table, t, prior):
        built.append((prior, build_mesh(table, t, prior)))
        return built[-1][1]

    monkeypatch.setattr(simulate, "build_mesh", recording_build)
    first = plan_detailed(scene, MethodId.ASTAR, scene.start, 0.0, cfg)
    assert first.path is not None and scene.plan_start is first.segments[0].mesh
    scene.goal = (100.0, 100.0)
    for method in MethodId:
        assert plan_detailed(scene, method, scene.start, 1.0, cfg).path is None
    assert [prior for prior, _ in built] == [None] + [mesh for _, mesh in built[:-1]]
    assert scene.plan_start is built[-1][1]


class TestAggregate:
    def rows(self):
        def mk(method, completed, t, att, suc, coll):
            return Metrics(scenario_id="s", method=method, completed=completed,
                           completion_time=t, cycles_attempted=att,
                           cycles_succeeded=suc, collision_count=coll,
                           collided=coll > 0, planner_latency_mean=0.0,
                           planner_latency_max=0.0)
        return [
            mk("astar", True, 10.0, 100, 100, 0),
            mk("astar", False, None, 50, 25, 2),
            mk("proposed", True, 12.0, 100, 90, 0),
        ]

    def test_summary_math(self):
        out = aggregate(self.rows())
        a = out["astar"]
        assert a["runs"] == 2
        assert a["completion_rate"] == 0.5
        assert a["mean_completion_time"] == 10.0
        assert a["planning_success_rate"] == 125 / 150
        assert a["collision_rate"] == 0.5
        p = out["proposed"]
        assert p["completion_rate"] == 1.0
        assert p["collision_rate"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_no_completions_gives_none_time(self):
        rows = [m for m in self.rows() if not m.completed]
        out = aggregate(rows)
        assert out["astar"]["mean_completion_time"] is None

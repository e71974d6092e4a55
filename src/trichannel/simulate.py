"""Closed-loop scenario execution and metric collection.

The ego replans at a fixed cadence with the selected method (the proposed
channel-sequence pipeline, or the Timed A* / A* single-channel baselines),
follows the resulting polyline, and accrues completion, planning-success
and collision metrics.  Every method turns channel segments into a path
with one loop (``_follow``); a baseline plan is one segment to the goal.
A ``PlanResult`` keeps the segments it planned, with or without a path, and
the renderer draws them.  ``plan_detailed`` builds every method's first
snapshot, advanced from the run's last plan's first.
``rollout`` is the only loop over simulated time; ``run_scenario`` and the
SVG renderer both consume it, and it scopes that warm start to one run.
Runs are deterministic for a given scenario, method and configuration.
"""
from __future__ import annotations

import enum
import math
import time as _time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .funnel import PathPolyline, funnel
from .geometry import Point, dist, point_along
from .mesh import DegenerateInputError, NodeTable, build_dual, build_mesh, locate
from .scenario import Scenario
from .search import astar, timed_astar
from .sequencer import (ChannelSegment, SequenceFailure,
                        SequencerConfig, generate_sequence, subgoal)


class MethodId(str, enum.Enum):
    PROPOSED = "proposed"
    TIMED_ASTAR = "timed_astar"
    ASTAR = "astar"


@dataclass
class Metrics:
    scenario_id: str
    method: str
    completed: bool
    completion_time: Optional[float]
    cycles_attempted: int
    cycles_succeeded: int
    collision_count: int
    collided: bool
    planner_latency_mean: float
    planner_latency_max: float


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.1
    replan_interval: float = 0.1
    planner: SequencerConfig = field(default_factory=SequencerConfig)

    def __post_init__(self) -> None:
        # A chained comparison: NaN fails it, so it is rejected too.
        for name in ("dt", "replan_interval"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def sequencer_for(self, scenario: Scenario) -> SequencerConfig:
        return replace(
            self.planner,
            ego_speed=scenario.ego_speed,
            ego_radius=scenario.ego_radius,
        )


def colliding_ids(ego: Point, ego_radius: float, scenario: Scenario,
                  t: float) -> Set[int]:
    """Ids of the non-virtual nodes whose discs the ego disc overlaps at ``t``, strictly."""
    return {tr.id for tr in scenario.obstacles
            if dist(ego, tr.position_at(t)) < ego_radius + tr.radius}


def _clear_chord(a: Point, b: Point,
                 discs: Sequence[Tuple[Point, float]], depth: int
                 ) -> List[Point]:
    if depth == 0:
        return [a, b]
    abx, aby = b[0] - a[0], b[1] - a[1]
    denom = abx * abx + aby * aby
    if denom == 0:
        return [a, b]
    worst: Optional[Tuple[float, Point, Point, float, float]] = None
    for c, radius in discs:
        t = ((c[0] - a[0]) * abx + (c[1] - a[1]) * aby) / denom
        if t <= 1e-9 or t >= 1.0 - 1e-9:
            continue  # endpoints are fixed; only interior grazes move
        q = (a[0] + t * abx, a[1] + t * aby)
        d = dist(q, c)
        pen = radius - d
        if pen > 1e-9 and (worst is None or pen > worst[0]):
            worst = (pen, q, c, radius, d)
    if worst is None:
        return [a, b]
    _, q, c, radius, d = worst
    if d < 1e-12:
        length = math.sqrt(denom)
        moved = (q[0] - aby / length * radius, q[1] + abx / length * radius)
    else:
        f = radius / d
        moved = (c[0] + (q[0] - c[0]) * f, c[1] + (q[1] - c[1]) * f)
    return (_clear_chord(a, moved, discs, depth - 1)[:-1]
            + _clear_chord(moved, b, discs, depth - 1))


def _clear_polyline(points: Sequence[Point], table: NodeTable, rows: Sequence[int],
                    ego_radius: float) -> List[Point]:
    """``points`` with each chord pushed off the obstacle discs it grazes.

    The funnel holds its bend points clear of the padded discs, but the
    straight chord wrapping a disc between two bends cuts inside the
    clearance circle; executed verbatim it can graze the obstacle.  The
    deepest interior graze per chord is pushed out radially to 0.05 m
    beyond the clearance circle and the halves re-checked, leaving a
    residual penetration well under that margin.
    """
    discs = [(tuple(p), ri + ego_radius + 0.05)
             for p, ri in zip(table.xy[rows].tolist(), table.r[rows].tolist())]
    out = [points[0]]
    for a, b in zip(points, points[1:]):
        out.extend(_clear_chord(a, b, discs, 5)[1:])
    return out


@dataclass
class PlanResult:
    path: Optional[PathPolyline]
    # The followed segments, or the planned ones when the first funnel fails.
    segments: Sequence[ChannelSegment] = ()


def _follow(segments: Sequence[ChannelSegment], ego: Point, table: NodeTable,
            obstacle_rows: Sequence[int], ego_radius: float, padding: float
            ) -> PlanResult:
    """Funnel paths from the ego through each segment to its subgoal, joined
    and cleared of the discs of ``table``'s ``obstacle_rows``.  No path, but
    the segments still, when the first segment's funnel fails; a later
    failure truncates the path."""
    points: List[Point] = []
    cursor = ego
    for si, seg in enumerate(segments):
        # Subgoals live in the anchor extrapolated to the event time, so
        # they can sit just outside the snapshot triangles the funnel sees.
        # ``subgoal`` at zero clearance keeps an endpoint its triangle holds
        # and moves any other to the nearest grid point inside.
        start_pt = subgoal(seg.mesh.triangle_points(seg.tri_ids[0]), cursor,
                           (0.0, 0.0, 0.0), 0.0)
        target_pt = subgoal(seg.mesh.triangle_points(seg.tri_ids[-1]), seg.subgoal,
                            (0.0, 0.0, 0.0), 0.0)
        try:
            part = funnel(seg.mesh, seg.tri_ids, start_pt, target_pt, padding)
        except ValueError:
            part = None
        if part is None:
            if si == 0:
                return PlanResult(path=None, segments=segments)
            break
        skip = 1 if points and part.points[0] == points[-1] else 0
        points.extend(part.points[skip:])
        cursor = seg.subgoal
    path = PathPolyline(points=_clear_polyline(points, table, obstacle_rows, ego_radius))
    return PlanResult(path=path, segments=segments)


def plan_detailed(scenario: Scenario, method: MethodId, ego: Point,
                  t_now: float, cfg: SequencerConfig) -> PlanResult:
    """One plan at ``t_now``: the channel sequence, or a baseline's single
    channel to the goal as one segment, followed by ``_follow``.

    The plan's first snapshot advances from the last plan's first, which
    the scenario keeps for the run (``Scenario.plan_start``), and replaces
    it before planning, so also when the plan then fails.
    """
    table = scenario.table_at(t_now)
    goal = scenario.goal
    try:
        mesh = build_mesh(table, 0.0, scenario.plan_start)
        scenario.plan_start = mesh
        if method is MethodId.PROPOSED:
            result = generate_sequence(mesh, ego, goal, cfg)
            if isinstance(result, SequenceFailure):
                return PlanResult(path=None)
            segments = result.segments
        else:
            start_tri, goal_tri = locate(mesh, ego), locate(mesh, goal)
            if start_tri is None or goal_tri is None:
                return PlanResult(path=None)
            placements = build_dual(mesh, goal, cfg.ego_radius)
            if method is MethodId.ASTAR:
                channel = astar(placements, mesh, start_tri, goal_tri, goal=goal,
                                ego_position=ego, ego_speed=cfg.ego_speed)
            else:
                channel = timed_astar(placements, mesh, start_tri, goal_tri, goal=goal,
                                      ego_speed=cfg.ego_speed,
                                      width_threshold=cfg.effective_width_threshold,
                                      ego_position=ego)
            if channel is None:
                return PlanResult(path=None)
            # ``locate`` found both ends inside their triangles by the exact
            # test, so ``_follow``'s placement leaves them where they are.
            segments = [ChannelSegment(None, mesh, channel.triangles, goal)]
    except DegenerateInputError:
        return PlanResult(path=None)
    return _follow(segments, ego, table, scenario.obstacle_rows, scenario.ego_radius,
                   cfg.effective_padding)


def plan(scenario: Scenario, method: MethodId, ego: Point, t_now: float,
         cfg: SequencerConfig) -> Optional[PathPolyline]:
    return plan_detailed(scenario, method, ego, t_now, cfg).path


@dataclass(frozen=True)
class SimState:
    t: float
    ego: Point
    path: Optional[PathPolyline] = None
    cursor: float = 0.0  # arc length travelled along ``path``


def step(state: SimState, scenario: Scenario, dt: float) -> SimState:
    """Advance the clock: ego follows its path, or holds without one."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if state.path is None:
        return replace(state, t=state.t + dt)
    cursor = state.cursor + scenario.ego_speed * dt
    return SimState(t=state.t + dt, ego=point_along(state.path.points, cursor),
                    path=state.path, cursor=cursor)


@dataclass(frozen=True)
class RolloutStep:
    """One simulator step of a closed-loop run."""

    before: SimState  # where the step starts, after this step's replan if any
    planned: Optional[PlanResult]  # this step's replan; None when none was due
    after: SimState
    at_goal: bool  # the ego reached the goal; the run ends with this step


def rollout(scenario: Scenario, cfg: SimConfig,
            replan: Callable[[Point, float], PlanResult]) -> Iterator[RolloutStep]:
    """The closed loop of one run, yielding one record per simulator step.

    ``replan(ego, t)`` runs every ``cfg.replan_interval``, then ``step``
    advances by ``cfg.dt``, until the ego reaches the goal or the time
    limit runs out.  A replan always replaces the followed path, with None
    when planning failed, so the ego holds until a later replan succeeds.
    The run owns the scenario's warm start: it starts and ends empty, so
    that plans seed only from this run's own.
    """
    state = SimState(t=0.0, ego=scenario.start)
    next_replan = 0.0
    scenario.plan_start = None
    try:
        while state.t < scenario.time_limit - 1e-9:
            planned = None
            if state.t >= next_replan - 1e-9:
                next_replan += cfg.replan_interval
                planned = replan(state.ego, state.t)
                state = replace(state, path=planned.path, cursor=0.0)
            after = step(state, scenario, cfg.dt)
            at_goal = dist(after.ego, scenario.goal) <= scenario.ego_radius
            yield RolloutStep(state, planned, after, at_goal)
            if at_goal:
                return
            state = after
    finally:
        scenario.plan_start = None


def run_scenario(scenario: Scenario, method: MethodId,
                 cfg: Optional[SimConfig] = None) -> Metrics:
    """Execute one scenario with one method and collect metrics.

    A collision does not terminate the run; cycle counting stops at task
    completion.
    """
    cfg = cfg or SimConfig()
    seq_cfg = cfg.sequencer_for(scenario)
    latencies: List[float] = []

    def timed_plan(ego: Point, t: float) -> PlanResult:
        t0 = _time.perf_counter()
        path = plan(scenario, method, ego, t, seq_cfg)
        latencies.append(_time.perf_counter() - t0)
        return PlanResult(path=path)

    attempted = succeeded = 0
    collision_count = 0
    colliding = colliding_ids(scenario.start, scenario.ego_radius, scenario, 0.0)
    completion_time: Optional[float] = None
    for rec in rollout(scenario, cfg, timed_plan):
        if rec.planned is not None:
            attempted += 1
            succeeded += rec.planned.path is not None
        now_colliding = colliding_ids(rec.after.ego, scenario.ego_radius, scenario,
                                      rec.after.t)
        collision_count += len(now_colliding - colliding)
        colliding = now_colliding
        if rec.at_goal:
            completion_time = rec.after.t

    return Metrics(
        scenario_id=scenario.id,
        method=method.value,
        completed=completion_time is not None,
        completion_time=completion_time,
        cycles_attempted=attempted,
        cycles_succeeded=succeeded,
        collision_count=collision_count,
        collided=collision_count > 0,
        planner_latency_mean=sum(latencies) / len(latencies) if latencies else 0.0,
        planner_latency_max=max(latencies) if latencies else 0.0,
    )


def aggregate(metrics: Sequence[Metrics]) -> Dict[str, dict]:
    """Per-method summary: completion, mean time, planning success, collisions."""
    if not metrics:
        raise ValueError("no metrics to aggregate")
    out: Dict[str, dict] = {}
    methods = sorted({m.method for m in metrics})
    for method in methods:
        rows = [m for m in metrics if m.method == method]
        times = [m.completion_time for m in rows if m.completed]
        attempted = sum(m.cycles_attempted for m in rows)
        succeeded = sum(m.cycles_succeeded for m in rows)
        out[method] = {
            "runs": len(rows),
            "completion_rate": sum(m.completed for m in rows) / len(rows),
            "mean_completion_time": sum(times) / len(times) if times else None,
            "planning_success_rate": succeeded / attempted if attempted else None,
            "collision_rate": sum(m.collided for m in rows) / len(rows),
        }
    return out

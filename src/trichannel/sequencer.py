"""Channel sequence generation.

One cycle: build the mesh, transmit motion information, search a channel,
predict the first topological event, cut the unaffected prefix (anchored at
its last triangle), then repeat from the anchor at the event time with all
nodes advanced by the linear model.  Consecutive segments overlap on the
anchor triangle, so the union forms one spatially and temporally connected
corridor.  Each segment keeps its snapshot, whose time is the segment's
start, and its triangle ids in it.  Each pass of the cut walks the ego once
along its route to the cut time; that one estimate picks the anchor
(``cut_index``) and is the subgoal's target.  The cut settles that the
anchor survives into the next snapshot, so each cycle builds one snapshot,
later than the last, and hands it to ``build_mesh`` to advance by edge
flips into the next.  The first cycle passes none, so ``build_mesh``
advances the last plan's first snapshot: Qhull runs on fallback only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .events import anchor_survives, compute_event_time
from .funnel import funnel
from .geometry import NodeState, Point, TrianglePoints, dist, orient2d, point_along
from .mesh import (Mesh, NodeTable, build_dual, build_mesh, find_triangle, locate,
                   point_in_triangle)
from .search import Channel, timed_astar
from .transmission import TransmissionConfig, transmit


@dataclass(frozen=True)
class SequencerConfig:
    max_segments: int = 5
    tau_threshold: float = 10.0  # planning horizon, seconds
    transmission_enabled: bool = True
    transmission: TransmissionConfig = field(default_factory=TransmissionConfig)
    ego_radius: float = 0.5
    ego_speed: float = 2.0
    width_threshold: Optional[float] = None  # default 2 * ego_radius + 0.2
    sample_resolution: float = 0.1
    padding: Optional[float] = None  # default ego_radius + 0.1

    def __post_init__(self) -> None:
        if not isinstance(self.max_segments, int) or self.max_segments < 1:
            raise ValueError(f"max_segments must be an integer >= 1, "
                             f"got {self.max_segments!r}")
        # Chained comparisons: NaN fails them, so it is rejected too.
        for name in ("tau_threshold", "sample_resolution", "ego_speed"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("ego_radius", "width_threshold", "padding"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {value}")

    @property
    def effective_width_threshold(self) -> float:
        return self.width_threshold if self.width_threshold is not None else 2 * self.ego_radius + 0.2

    @property
    def effective_padding(self) -> float:
        return self.padding if self.padding is not None else self.ego_radius + 0.1


@dataclass
class ChannelSegment:
    """Prefix of one channel, valid from its snapshot's time to ``t_end``: a
    run of edge-connected triangles of the snapshot it was planned on."""

    t_end: Optional[float]  # None for the final segment
    mesh: Mesh  # the snapshot at the segment's start time
    tri_ids: List[int]  # triangle ids in ``mesh``, ego first, anchor last
    subgoal: Point


@dataclass
class ChannelSequence:
    segments: List[ChannelSegment]
    goal: Point
    terminated: str  # "goal" | "threshold" | "max_segments" | "anchor_lost"


@dataclass(frozen=True)
class SequenceFailure:
    cycle: int
    time: float
    reason: str


SequenceResult = Union[ChannelSequence, SequenceFailure]


def cut_index(channel: Channel, mesh: Mesh, est: Point, m: int) -> int:
    """Channel index ``k`` of the segment's last triangle, for the event at
    channel index ``m``.

    The ego is at ``e``, the first channel index whose triangle holds the
    estimate ``est``, or 0 when none does: a point on the route's first hop
    can round out of the ego's own triangle.  k = e when the ego is behind
    the event triangle, else m - 1.  k = -1 (e = m = 0) still keeps the
    ego's own triangle, ``max(k, 0)``.
    """
    e = next((i for i, tri in enumerate(channel.triangles)
              if point_in_triangle(mesh.triangle_points(tri), est)), 0)
    return e if e < m else m - 1


def subgoal(anchor: TrianglePoints, est_ego: Point,
            vertex_radii: Sequence[float], ego_radius: float) -> Point:
    """Point inside the anchor closest to ``est_ego`` with vertex clearance.

    Clearance requires distance >= ego_radius + vertex radius from each
    anchor vertex.  Falls back to the centroid when the clearance region is
    empty.  The minimization runs on a barycentric grid with local
    refinement, accurate to a small fraction of the triangle size.
    """
    a, b, c = anchor
    clear = [ego_radius + r for r in vertex_radii]

    def feasible(p: Point) -> bool:
        return (point_in_triangle((a, b, c), p)
                and all(dist(p, v) >= cr for v, cr in zip(anchor, clear)))

    if feasible(est_ego):
        return est_ego

    grid = 48  # barycentric steps per triangle side
    ii, jj = np.meshgrid(np.arange(grid + 1), np.arange(grid + 1), indexing="ij")
    mask = ii + jj <= grid
    u = ii[mask] / grid
    v = jj[mask] / grid
    w = 1.0 - u - v
    xs = u * a[0] + v * b[0] + w * c[0]
    ys = u * a[1] + v * b[1] + w * c[1]
    ok = np.ones(xs.shape, dtype=bool)
    for vert, cr in zip(anchor, clear):
        ok &= (xs - vert[0]) ** 2 + (ys - vert[1]) ** 2 >= cr * cr
    if not ok.any():
        return ((a[0] + b[0] + c[0]) / 3.0, (a[1] + b[1] + c[1]) / 3.0)

    d2 = (xs - est_ego[0]) ** 2 + (ys - est_ego[1]) ** 2
    d2[~ok] = np.inf
    best_i = int(np.argmin(d2))
    best = (float(xs[best_i]), float(ys[best_i]))

    # Local pattern-search refinement.
    scale = max(dist(a, b), dist(b, c), dist(c, a))
    step = scale / grid
    for _ in range(24):
        improved = False
        for dx, dy in ((step, 0), (-step, 0), (0, step), (0, -step)):
            cand = (best[0] + dx, best[1] + dy)
            if dist(cand, est_ego) < dist(best, est_ego) and feasible(cand):
                best = cand
                improved = True
        if not improved:
            step *= 0.5
    # Boundary grid points can round a hair outside the triangle; pull
    # toward the centroid until the exact containment test agrees.
    cen = ((a[0] + b[0] + c[0]) / 3.0, (a[1] + b[1] + c[1]) / 3.0)
    pull = 1e-9
    while not point_in_triangle((a, b, c), best) and pull < 1.0:
        best = (best[0] + (cen[0] - best[0]) * pull,
                best[1] + (cen[1] - best[1]) * pull)
        pull *= 10.0
    return best


def _prefix_event(channel: Channel, mesh: Mesh, k: int, window: float,
                  sample_resolution: float) -> Optional[Tuple[float, int]]:
    """Earliest event in triangles 0..k scanned over the whole window.

    Returns (offset, channel index) when one exists strictly before
    ``window``, else None.  Used to tighten the segment cut: the kept
    prefix must stay valid for the full window, not only until the ego
    reaches each triangle.
    """
    probe = Channel(triangles=channel.triangles[: k + 1],
                    etas=[window] * (k + 1),
                    waypoints=channel.waypoints[: k + 1])
    report = compute_event_time(probe, mesh, sample_resolution)
    if report is None:
        return None
    offset = report.time - mesh.time
    return (offset, report.triangle_index) if offset < window else None


def generate_sequence(nodes: Union[NodeTable, Sequence[NodeState]], start: Point,
                      goal: Point, cfg: SequencerConfig) -> SequenceResult:
    """Run the full pipeline from time 0 until a terminal condition.

    ``nodes`` is a node table or states at time 0; later cycles extrapolate
    them linearly.  Returns the channel sequence, or a failure naming the cycle
    and its reason.
    """
    table = nodes if isinstance(nodes, NodeTable) else NodeTable.of(nodes)
    tau = 0.0
    start_pt = start
    anchor: Optional[Tuple[int, int, int]] = None  # node indices
    segments: List[ChannelSegment] = []
    mesh: Optional[Mesh] = None  # the previous cycle's snapshot

    # Each cycle builds one snapshot and returns or appends exactly one
    # segment, so the sequence is full when the loop runs out.
    for cycle in range(cfg.max_segments):
        mesh = build_mesh(table, tau, mesh)
        if cfg.transmission_enabled:
            mesh = transmit(mesh, cfg.transmission)
        dual = build_dual(mesh, goal, cfg.ego_radius)
        goal_tri = locate(mesh, goal)
        if anchor is None:
            start_tri, missing = locate(mesh, start_pt), "start point outside the mesh"
        else:  # the cut found it surviving; only Qhull rounding can drop it
            start_tri, missing = find_triangle(mesh, anchor), "anchor missing from snapshot"
        if start_tri is None:
            return SequenceFailure(cycle, tau, missing)
        if goal_tri is None:
            return SequenceFailure(cycle, tau, "goal point outside the mesh")

        channel = timed_astar(
            dual, mesh, start_tri, goal_tri,
            ego_speed=cfg.ego_speed,
            width_threshold=cfg.effective_width_threshold,
            ego_position=start_pt,
        )
        if channel is None:
            return SequenceFailure(cycle, tau, "no admissible channel")

        event = compute_event_time(channel, mesh, cfg.sample_resolution)
        if event is None or event.time > cfg.tau_threshold:
            segments.append(ChannelSegment(None, mesh, channel.triangles, goal))
            reason = "goal" if event is None else "threshold"
            return ChannelSequence(segments=segments, goal=goal, terminated=reason)

        tau_next = event.time
        m = event.triangle_index
        # One ego estimate per cut time sets both the anchor index and the
        # subgoal, else the anchor can lag behind the estimated position and
        # drag the subgoal backwards.  The executed path is a funnel path,
        # so walking the taut funnel polyline estimates the ego more
        # tightly than the dual-node chain, the fallback when a portal is
        # too narrow to thread.
        try:
            taut = funnel(mesh, channel.triangles, start_pt, goal,
                          cfg.effective_padding)
        except ValueError:  # a subgoal can sit just outside the snapshot anchor
            taut = None
        route = taut.points if taut is not None else [start_pt, *channel.waypoints]
        # The prediction scans each triangle only until the ego reaches it,
        # so a kept triangle can still flip between its arrival and the cut
        # time.  Re-scan the kept prefix over the full window and pull the
        # cut earlier until it is genuinely unaffected.
        # Bound: each repeat lowers ``m`` (and so ``k``), moves ``tau_next``
        # to an earlier sample of the prefix scan's finite grid or one
        # sample earlier, or halves a positive window, taking the
        # anchor toward its snapshot row, which ``build_mesh`` orients CCW.
        # Only a zero-area row could not pass.
        while True:
            est = point_along(route, cfg.ego_speed * (tau_next - tau))
            k = cut_index(channel, mesh, est, m)
            if k >= 0:
                refined = _prefix_event(channel, mesh, k, tau_next - tau,
                                        cfg.sample_resolution)
                if refined is not None:
                    tau_next = tau + refined[0]
                    m = refined[1]
                    continue
            # The anchor can collapse between samples; a subgoal inside an
            # inverted triangle is meaningless, so halve the window until
            # the anchor is properly oriented at the cut time.
            verts = mesh.triangles[channel.triangles[max(k, 0)]].tolist()
            # Raw motion, not the planning velocity.
            a, b, c = map(tuple, (mesh.xy[verts] + mesh.nodes.vel[verts]
                                  * (tau_next - tau)).tolist())
            if orient2d(a, b, c) <= 0:
                tau_next = tau + (tau_next - tau) * 0.5
                continue
            # The next snapshot must hold the anchor.  A lost one flipped in
            # the last sample, which the prediction does not test: keep one
            # triangle fewer, else hand over one sample earlier if more than
            # one is left (cut times sit on the grid up to rounding), else end.
            lost = not anchor_survives(table, tau_next, verts)
            if lost and k > 0:
                m = k
            elif lost and tau_next - tau > 1.5 * cfg.sample_resolution:
                tau_next -= cfg.sample_resolution
            else:
                break

        # The subgoal targets the ego estimate but must sit inside the
        # anchor (a, b, c) as extrapolated to the cut time; when the event
        # hits the ego's own triangle (k < 0) that triangle doubles as the
        # anchor and the segment just holds until the replan.
        # Same safety margin as the funnel padding, so the subgoal never
        # sits at exact contact distance from a vertex disc.
        margin = cfg.effective_padding - cfg.ego_radius
        radii = [mesh.nodes.r_list[v] + margin for v in verts]
        target = start_pt if k < 0 else est
        sg = subgoal((a, b, c), target, radii, cfg.ego_radius)
        segments.append(ChannelSegment(tau_next, mesh, channel.triangles[:max(k, 0) + 1], sg))
        if lost:
            return ChannelSequence(segments=segments, goal=goal, terminated="anchor_lost")
        anchor = tuple(verts)
        start_pt = sg
        tau = tau_next

    return ChannelSequence(segments=segments, goal=goal, terminated="max_segments")


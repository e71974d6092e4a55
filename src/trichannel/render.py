"""SVG frame rendering of a scenario run.

One SVG per frame step of ``simulate.rollout``: boundary polylines, the
edges of the current plan's first snapshot (it builds none of its own),
the active channel corridor, the planned polyline, node discs and the
ego disc.
"""
from __future__ import annotations

import math
from pathlib import Path as FsPath
from typing import List, Optional, Sequence, Tuple

from .funnel import PathPolyline
from .geometry import NodeKind, Point, TrianglePoints
from .mesh import Mesh, mesh_edges
from .scenario import Scenario
from .simulate import MethodId, PlanResult, SimConfig, plan_detailed, rollout

_KIND_FILL = {
    NodeKind.STATIC: "#777777",
    NodeKind.DYNAMIC: "#b0b0b0",
    NodeKind.VIRTUAL: "#d9d9d9",
}
_EGO_FILL = "#cc2222"


def _bounds(scenario: Scenario, pad: float = 2.0) -> Tuple[float, float, float, float]:
    xs: List[float] = []
    ys: List[float] = []
    for b in scenario.boundaries:
        for x, y in b:
            xs.append(x)
            ys.append(y)
    for p in (scenario.start, scenario.goal):
        xs.append(p[0])
        ys.append(p[1])
    for track in scenario.nodes:
        for _, x, y in track.waypoints:
            xs.append(x)
            ys.append(y)
    return (min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)


class SvgCanvas:
    """Minimal SVG builder in scenario coordinates (y flipped)."""

    def __init__(self, bounds: Tuple[float, float, float, float], scale: float = 20.0):
        self.x0, self.y0, self.x1, self.y1 = bounds
        self.scale = scale
        self.width = (self.x1 - self.x0) * scale
        self.height = (self.y1 - self.y0) * scale
        self.parts: List[str] = []

    def tx(self, p: Point) -> Tuple[float, float]:
        return ((p[0] - self.x0) * self.scale, (self.y1 - p[1]) * self.scale)

    def circle(self, center: Point, r: float, fill: str, opacity: float = 1.0) -> None:
        cx, cy = self.tx(center)
        self.parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r * self.scale:.2f}" '
            f'fill="{fill}" fill-opacity="{opacity}"/>'
        )

    def polyline(self, points: Sequence[Point], stroke: str, width: float = 1.5,
                 dash: Optional[str] = None) -> None:
        if len(points) < 2:
            return
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (self.tx(p) for p in points))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def polygon(self, points: Sequence[Point], fill: str, opacity: float) -> None:
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (self.tx(p) for p in points))
        self.parts.append(
            f'<polygon points="{coords}" fill="{fill}" fill-opacity="{opacity}" stroke="none"/>'
        )

    def to_svg(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width:.0f}" '
            f'height="{self.height:.0f}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
        )


def render_frame(scenario: Scenario, t: float, ego: Point, mesh: Optional[Mesh],
                 corridor: Sequence[TrianglePoints],
                 path: Optional[PathPolyline]) -> str:
    canvas = SvgCanvas(_bounds(scenario))
    nodes = scenario.node_states_at(t)

    # Mesh edges underneath everything else.
    if mesh is not None:
        xy = mesh.xy_list
        for u, v in mesh_edges(mesh).tolist():
            canvas.polyline([xy[u], xy[v]], stroke="#cccccc", width=0.5)

    for tri in corridor:
        canvas.polygon(tri, fill="#ffd27f", opacity=0.35)
    for boundary in scenario.boundaries:
        canvas.polyline(boundary, stroke="#444444", width=2.0)
    for n in nodes:
        radius = n.r if n.r > 0 else 0.08
        canvas.circle(n.position, radius, _KIND_FILL[n.kind])
    if path is not None:
        canvas.polyline(path.points, stroke="#cc2222", width=2.0)
    canvas.circle(scenario.goal, 0.2, "#2266cc")
    canvas.circle(ego, scenario.ego_radius, _EGO_FILL, opacity=0.9)
    return canvas.to_svg()


def render_run(scenario: Scenario, method: MethodId, out_dir: FsPath,
               cfg: Optional[SimConfig] = None, frame_dt: float = 0.5) -> List[FsPath]:
    """Simulate and write one SVG per frame step; returns the file paths."""
    if not 0 < frame_dt < math.inf:
        raise ValueError(f"frame_dt must be positive and finite, got {frame_dt}")
    cfg = cfg or SimConfig()
    seq_cfg = cfg.sequencer_for(scenario)
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    next_frame = 0.0
    mesh: Optional[Mesh] = None  # the current plan's first snapshot
    corridor: List[TrianglePoints] = []
    written: List[FsPath] = []

    def replan(ego: Point, t: float) -> PlanResult:
        return plan_detailed(scenario, method, ego, t, seq_cfg)

    for rec in rollout(scenario, cfg, replan):
        if rec.planned is not None:
            segments = rec.planned.segments
            mesh = segments[0].mesh if segments else None
            corridor = [seg.mesh.triangle_points(t) for seg in segments
                        for t in seg.tri_ids] if rec.planned.path is not None else []
        state = rec.before
        if state.t >= next_frame - 1e-9:
            next_frame += frame_dt
            svg = render_frame(scenario, state.t, state.ego, mesh, corridor, state.path)
            path = out / f"{scenario.id}_{method.value}_{len(written):04d}.svg"
            path.write_text(svg)
            written.append(path)
    return written

"""Scenario description, JSON (de)serialization and the synthetic generator.

A scenario holds timed waypoint trajectories for every object node
(linearly interpolated, linearly extrapolated after the last waypoint),
boundary polylines that become virtual nodes, and the ego task parameters.
The planner reads every node at a time as one ``NodeTable`` (``table_at``).
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import List, Optional, Tuple

import numpy as np

from .geometry import NodeKind, NodeState, Point
from .mesh import Mesh, NodeTable, generate_virtual_nodes

SCHEMA_VERSION = 1
# Virtual nodes one scenario may place along its boundaries (a synthetic
# scene places 137).  More come from a wall far longer than the ego is
# wide, which could exhaust memory before any other check ran.
MAX_VIRTUAL_NODES = 10_000
# Wall-to-wall legs one synthetic walker may take within the time limit (a
# default scene takes at most 3).  Each leg is a waypoint, and a road barely
# wider than its margins takes millions.
MAX_BOUNCES = 10_000


class ScenarioFormatError(ValueError):
    """Malformed scenario file content."""


def _json_int(value: object, field: str) -> int:
    """``value`` if it is a JSON integer; ``int`` would truncate 1.5 and take ``true``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{field} must be an integer, got {value!r}")
    return value


def _json_float(value: object, field: str) -> float:
    """``value`` as a float if it is a JSON number; ``float`` takes ``true`` and ``"12"``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{field} must be a number, got {value!r}")
    return float(value)


def _json_point(value: object, field: str) -> Point:
    """``value`` as a point if it is a list of exactly two JSON numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioFormatError(f"{field} must be a point [x, y], got {value!r}")
    return (_json_float(value[0], field), _json_float(value[1], field))


def _all_finite(*values: float) -> bool:
    # NaN fails every comparison, so range checks alone would let it through.
    return all(math.isfinite(v) for v in values)


@dataclass
class ObjectTrack:
    id: int
    kind: NodeKind
    radius: float
    waypoints: List[Tuple[float, float, float]]  # (t, x, y), t strictly increasing

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ScenarioFormatError(f"node {self.id}: empty trajectory")
        if not _all_finite(self.radius, *(v for w in self.waypoints for v in w)):
            raise ScenarioFormatError(f"node {self.id}: non-finite radius or waypoint")
        ts = [w[0] for w in self.waypoints]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ScenarioFormatError(f"node {self.id}: waypoint times not strictly increasing")
        if self.radius < 0:
            raise ScenarioFormatError(f"node {self.id}: negative radius")
        if self.kind in (NodeKind.STATIC, NodeKind.VIRTUAL):
            xs = {(w[1], w[2]) for w in self.waypoints}
            if len(xs) > 1:
                raise ScenarioFormatError(f"node {self.id}: {self.kind.value} node moves")

    def _leg(self, t: float) -> List[Tuple[float, float, float]]:
        """The two waypoints that bound ``t``; past the last, the last two."""
        wp = self.waypoints
        for i in range(1, len(wp)):
            if t <= wp[i][0]:
                return wp[i - 1:i + 1]
        return wp[-2:]

    def position_at(self, t: float) -> Point:
        wp = self.waypoints
        if len(wp) == 1 or t <= wp[0][0]:
            return (wp[0][1], wp[0][2])
        (t0, x0, y0), (t1, x1, y1) = self._leg(t)
        f = (t - t0) / (t1 - t0)
        return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))

    def velocity_at(self, t: float) -> Tuple[float, float]:
        wp = self.waypoints
        if len(wp) == 1 or t < wp[0][0]:
            return (0.0, 0.0)
        (t0, x0, y0), (t1, x1, y1) = self._leg(t)
        return ((x1 - x0) / (t1 - t0), (y1 - y0) / (t1 - t0))


@dataclass
class Scenario:
    id: str
    nodes: List[ObjectTrack]
    boundaries: List[List[Point]]
    start: Point
    goal: Point
    ego_speed: float
    ego_radius: float
    time_limit: float
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        numbers = [*self.start, *self.goal, self.ego_speed, self.ego_radius,
                   self.time_limit, *(v for b in self.boundaries for p in b for v in p)]
        if not _all_finite(*numbers):
            raise ScenarioFormatError("non-finite start, goal, ego parameter, "
                                      "time limit or boundary point")
        if self.schema_version != SCHEMA_VERSION:
            raise ScenarioFormatError(f"unsupported schema_version {self.schema_version}")
        if self.time_limit <= 0:
            raise ScenarioFormatError("time_limit must be positive")
        if self.start == self.goal:
            raise ScenarioFormatError("start and goal coincide")
        if self.ego_speed <= 0 or self.ego_radius < 0:
            raise ScenarioFormatError("invalid ego parameters")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ScenarioFormatError("duplicate node ids")
        if self.boundaries and self.ego_radius == 0:
            raise ScenarioFormatError("ego radius 0 leaves boundary nodes no spacing")
        # Placed once per scenario; ``dataclasses.replace`` runs this again.
        walls: List[Point] = []
        for i, boundary in enumerate(self.boundaries):
            try:
                walls += generate_virtual_nodes(boundary, self.virtual_spacing,
                                                max_count=MAX_VIRTUAL_NODES - len(walls))
            except ValueError as exc:
                raise ScenarioFormatError(f"boundary {i}: {exc}") from None
        # Rows built once: the tracks in id order, then the wall nodes, whose
        # ids count on from the last track's.  ``table_at`` fills only the
        # rows of tracks with more than one waypoint.
        tracks = sorted(self.nodes, key=lambda tr: tr.id)
        first_wall = max(ids, default=-1) + 1
        row_ids = np.array([tr.id for tr in tracks]
                           + list(range(first_wall, first_wall + len(walls))), dtype=np.int64)
        xy = np.array([tr.position_at(0.0) for tr in tracks] + walls, dtype=float)
        vel = np.array([tr.velocity_at(0.0) for tr in tracks] + [(0.0, 0.0)] * len(walls),
                       dtype=float)
        r = np.array([tr.radius for tr in tracks] + [0.0] * len(walls), dtype=float)
        xy, vel = xy.reshape(-1, 2), vel.reshape(-1, 2)
        for column in (row_ids, xy, vel, r):
            column.flags.writeable = False
        self._rows = NodeTable(ids=row_ids, xy=xy, vel=vel, r=r)
        self._kinds = [tr.kind for tr in tracks] + [NodeKind.VIRTUAL] * len(walls)
        # Rows of the tracks in the order the scenario lists them.
        self._listed_rows = np.searchsorted(self._rows.ids, ids)
        self._moving = [tr for tr in tracks if len(tr.waypoints) > 1]
        self._moving_rows = [row for row, tr in enumerate(tracks) if len(tr.waypoints) > 1]
        # Non-virtual tracks and their rows in the order the scenario lists
        # them, the order in which the path clearing breaks ties.
        self.obstacles = [tr for tr in self.nodes if tr.kind is not NodeKind.VIRTUAL]
        self.obstacle_rows = np.searchsorted(self._rows.ids,
                                             [tr.id for tr in self.obstacles])
        # The first snapshot of the run's last plan, the next one's warm
        # start; ``simulate.plan_detailed`` keeps it and ``rollout`` empties it.
        self.plan_start: Optional[Mesh] = None

    @property
    def virtual_spacing(self) -> float:
        # Narrow enough that an ego disc cannot slip between wall nodes.
        return 2.0 * self.ego_radius * 0.9

    def node_states_at(self, t: float, include_virtual: bool = True) -> List[NodeState]:
        """The rows of ``table_at(t)`` as node states: the tracks in the order
        the scenario lists them, then, with ``include_virtual``, the wall
        nodes.  ``render`` and ``perfbench/run.py::_clear_steps`` read it."""
        table = self.table_at(t)
        rows = self._listed_rows.tolist()
        if include_virtual:
            rows += range(len(self.nodes), len(self._kinds))
        ids, xy, vel, r = (column.tolist() for column in
                           (table.ids, table.xy, table.vel, table.r))
        return [NodeState(id=ids[i], x=xy[i][0], y=xy[i][1], vx=vel[i][0], vy=vel[i][1],
                          r=r[i], kind=self._kinds[i]) for i in rows]

    def table_at(self, t: float) -> NodeTable:
        """Every node at time ``t`` as a ``NodeTable``: the tracks in id order,
        then the wall nodes."""
        if not self._moving:
            return self._rows
        xy, vel = self._rows.xy.copy(), self._rows.vel.copy()
        xy[self._moving_rows] = [tr.position_at(t) for tr in self._moving]
        vel[self._moving_rows] = [tr.velocity_at(t) for tr in self._moving]
        xy.flags.writeable = vel.flags.writeable = False
        return NodeTable(ids=self._rows.ids, xy=xy, vel=vel, r=self._rows.r)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "id": self.id,
            "nodes": [
                {
                    "id": n.id,
                    "kind": n.kind.value,
                    "radius": n.radius,
                    "waypoints": [{"t": t, "x": x, "y": y} for t, x, y in n.waypoints],
                }
                for n in self.nodes
            ],
            "boundaries": [[list(p) for p in b] for b in self.boundaries],
            "start": list(self.start),
            "goal": list(self.goal),
            "ego": {"speed": self.ego_speed, "radius": self.ego_radius},
            "time_limit": self.time_limit,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        try:
            nodes = [
                ObjectTrack(
                    id=_json_int(n["id"], "node id"),
                    kind=NodeKind(n["kind"]),
                    radius=_json_float(n["radius"], "node radius"),
                    waypoints=[tuple(_json_float(w[k], f"waypoint {k}") for k in "txy")
                               for w in n["waypoints"]],
                )
                for n in data["nodes"]
            ]
            if not isinstance(data["id"], str):
                raise ScenarioFormatError(f"scenario id must be a string, got {data['id']!r}")
            return cls(
                id=data["id"],
                nodes=nodes,
                boundaries=[[_json_point(p, "boundary point") for p in b]
                            for b in data["boundaries"]],
                start=_json_point(data["start"], "start"),
                goal=_json_point(data["goal"], "goal"),
                ego_speed=_json_float(data["ego"]["speed"], "ego speed"),
                ego_radius=_json_float(data["ego"]["radius"], "ego radius"),
                time_limit=_json_float(data["time_limit"], "time_limit"),
                schema_version=_json_int(data.get("schema_version", SCHEMA_VERSION),
                                         "schema_version"),
            )
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            if isinstance(exc, ScenarioFormatError):
                raise
            raise ScenarioFormatError(f"malformed scenario: {exc}") from exc

    def save(self, path: FsPath) -> None:
        FsPath(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: FsPath) -> "Scenario":
        try:
            data = json.loads(FsPath(path).read_text())
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(data)


# Off-wall clearance for pedestrian centres in synthetic scenes.
_WALL_MARGIN = 0.6


@dataclass(frozen=True)
class SyntheticParams:
    """Knobs for the straight-road pedestrian-crossing generator."""

    road_length: float = 30.0
    road_width: float = 10.0
    ped_count_min: int = 10
    ped_count_max: int = 20
    ped_speed_min: float = 0.25
    ped_speed_max: float = 0.8
    ped_radius: float = 0.3
    ego_speed: float = 2.0
    ego_radius: float = 0.25
    time_limit: float = 25.0

    def __post_init__(self) -> None:
        # Chained comparisons: NaN fails them, so it is rejected too.
        # A zero ego radius leaves the wall nodes no spacing.
        for name in ("ped_speed_min", "ego_speed", "ego_radius", "time_limit"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0 <= self.ped_radius < math.inf:
            raise ValueError(f"ped_radius must be >= 0 and finite, got {self.ped_radius}")
        # The start lies 0.5 m from one end of the road and the goal 0.5 m
        # from the other, so a shorter road puts the goal at or behind the start.
        if not 1 < self.road_length < math.inf:
            raise ValueError(f"road_length must exceed 1 and be finite, "
                             f"got {self.road_length}")
        # Walkers bounce between the margins: with no room between them,
        # ``_bounce_waypoints`` never reaches the horizon.
        if not 2 * _WALL_MARGIN < self.road_width < math.inf:
            raise ValueError(f"road_width must exceed {2 * _WALL_MARGIN} and be finite, "
                             f"got {self.road_width}")
        if not self.ped_speed_min <= self.ped_speed_max < math.inf:
            raise ValueError("invalid pedestrian speed range")
        # ``bool`` is an ``int``, but ``True`` is no pedestrian count.
        for name in ("ped_count_min", "ped_count_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.ped_count_min <= self.ped_count_max:
            raise ValueError("invalid pedestrian count range")
        legs = self.time_limit * self.ped_speed_max / (self.road_width - 2 * _WALL_MARGIN)
        if legs > MAX_BOUNCES:
            raise ValueError(f"a walker would cross the road {legs:.3g} times, over "
                             f"{MAX_BOUNCES}: widen road_width or shorten time_limit")


def _bounce_waypoints(x: float, y: float, direction: float, speed: float,
                      lo: float, hi: float, horizon: float
                      ) -> List[Tuple[float, float, float]]:
    """Perpendicular crossing that reflects off the road margins."""
    wps = [(0.0, x, y)]
    t, pos, d = 0.0, y, direction
    while t < horizon:
        edge = hi if d > 0 else lo
        dt = (edge - pos) / (d * speed)
        if t + dt >= horizon:
            wps.append((horizon, x, pos + d * speed * (horizon - t)))
            break
        t += dt
        pos = edge
        d = -d
        wps.append((t, x, pos))
    return wps


def generate_synthetic(seed: int, params: SyntheticParams = SyntheticParams()) -> Scenario:
    """Straight road with pedestrians crossing perpendicularly.

    Deterministic per seed.  Pedestrians reflect off the road margins so
    they keep crossing without leaving the road; the two wall polylines
    have slightly different lengths so their virtual nodes never align
    into exactly cocircular quadruples.
    """
    rng = random.Random(seed)
    length, width = params.road_length, params.road_width
    count = rng.randint(params.ped_count_min, params.ped_count_max)
    min_sep = 2.0 * params.ped_radius + 1.0

    tracks: List[ObjectTrack] = []
    placed: List[Point] = []
    for i in range(count):
        for _ in range(200):
            x = rng.uniform(3.0, length - 3.0)
            y = rng.uniform(_WALL_MARGIN, width - _WALL_MARGIN)
            if all(math.hypot(x - px, y - py) >= min_sep for px, py in placed):
                break
        placed.append((x, y))
        direction = 1.0 if rng.random() < 0.5 else -1.0
        speed = rng.uniform(params.ped_speed_min, params.ped_speed_max)
        tracks.append(ObjectTrack(
            id=i,
            kind=NodeKind.DYNAMIC,
            radius=params.ped_radius,
            waypoints=_bounce_waypoints(x, y, direction, speed, _WALL_MARGIN,
                                        width - _WALL_MARGIN, params.time_limit),
        ))

    overhang = 0.3  # stagger wall node spacing (see docstring)
    boundaries = [
        [(-overhang, 0.0), (length + overhang, 0.0)],
        [(0.0, width), (length, width)],
    ]
    return Scenario(
        id=f"synthetic-{seed}",
        nodes=tracks,
        boundaries=boundaries,
        start=(0.5, width / 2.0),
        goal=(length - 0.5, width / 2.0),
        ego_speed=params.ego_speed,
        ego_radius=params.ego_radius,
        time_limit=params.time_limit,
    )

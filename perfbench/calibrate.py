"""Reference workload that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give drifts by a third over minutes, in CPU time as
much as in wall time.  ``Speedometer`` times a fixed reference workload,
in CPU time, every ``interval`` seconds of the measurement, so that each
CPU timing can be scaled by how slow the reference ran at that moment and
a drift of the host cancels.

The reference workload is frozen here and uses no planner code, so a
change to the planner cannot move it.  It does the kinds of work a
planning call does, in about the same mix: a Delaunay triangulation of
moving discs through Qhull, triangle adjacency built in dicts of tuples,
a heap search over it and in-circle tests over short time-sample arrays
in numpy.
"""
from __future__ import annotations

import bisect
import heapq
import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from scipy.spatial import Delaunay

# About the median time of one reference sample on a shared 2-vCPU Intel
# Xeon host (Python 3.11, numpy 2.4, scipy 1.17).  It sets the scale only:
# scaled timings read as milliseconds on that host at its usual speed.
REFERENCE_S = 3.0e-3
WINDOW_S = 2.0  # reference samples are pooled over windows of this length


@dataclass(frozen=True)
class _Disc:
    id: int
    x: float
    y: float
    vx: float
    vy: float


def _discs(seed: int = 7, count: int = 150) -> List[_Disc]:
    rng = random.Random(seed)
    return [_Disc(i, rng.uniform(0.0, 30.0), rng.uniform(0.0, 10.0),
                  rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            for i in range(count)]


_DISCS = _discs()
_TAUS = np.linspace(0.0, 2.0, 20)


def reference_sample() -> float:
    """One sample of the reference workload; returns a checksum."""
    pos: Dict[int, Tuple[float, float]] = {
        d.id: (d.x + d.vx * 0.5, d.y + d.vy * 0.5) for d in _DISCS}
    pts = np.array([pos[d.id] for d in _DISCS], dtype=float)
    tris: List[Tuple[int, int, int]] = []
    for a, b, c in Delaunay(pts).simplices.tolist():
        (ax, ay), (bx, by), (cx, cy) = pos[a], pos[b], pos[c]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0:
            b, c = c, b
        tris.append((a, b, c))
    tris.sort(key=lambda tri: tuple(sorted(tri)))
    edges: Dict[Tuple[int, int], List[int]] = {}
    for i, (a, b, c) in enumerate(tris):
        for e in ((a, b), (b, c), (c, a)):
            edges.setdefault((min(e), max(e)), []).append(i)
    adj: Dict[int, List[int]] = {i: [] for i in range(len(tris))}
    for owners in edges.values():
        if len(owners) == 2:
            adj[owners[0]].append(owners[1])
            adj[owners[1]].append(owners[0])
    centre = [((pos[a][0] + pos[b][0] + pos[c][0]) / 3.0,
               (pos[a][1] + pos[b][1] + pos[c][1]) / 3.0) for a, b, c in tris]
    goal = max(range(len(tris)), key=lambda i: centre[i][0])
    cost = {0: 0.0}
    heap = [(0.0, 0)]
    path_len = 0
    while heap:
        _, i = heapq.heappop(heap)
        if i == goal:
            break
        path_len += 1
        for j in adj[i]:
            g = cost[i] + math.dist(centre[i], centre[j])
            if g < cost.get(j, math.inf):
                cost[j] = g
                heapq.heappush(heap, (g + math.dist(centre[j], centre[goal]), j))
    total = float(path_len)
    for a, b, c in tris[:40]:
        xs = np.array([[_DISCS[v].x, _DISCS[v].y] for v in (a, b, c)])
        vs = np.array([[_DISCS[v].vx, _DISCS[v].vy] for v in (a, b, c)])
        ax, ay = xs[0, 0] + vs[0, 0] * _TAUS, xs[0, 1] + vs[0, 1] * _TAUS
        bx, by = xs[1, 0] + vs[1, 0] * _TAUS, xs[1, 1] + vs[1, 1] * _TAUS
        cx, cy = xs[2, 0] + vs[2, 0] * _TAUS, xs[2, 1] + vs[2, 1] * _TAUS
        det = ((ax * ax + ay * ay) * (bx * cy - cx * by)
               + (bx * bx + by * by) * (cx * ay - ax * cy)
               + (cx * cx + cy * cy) * (ax * by - bx * ay))
        total += float(np.abs(det).min())
    return total


class Speedometer:
    """Reference samples taken along a measurement, and the scale they give.

    ``tick()`` is called often (between planning calls); it takes a
    sample when ``interval`` wall seconds have passed since the last one.
    The time the samples take is kept apart in ``spent_wall_s`` and
    ``spent_cpu_s`` so callers can take it out of their own times.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.times: List[float] = []  # perf_counter at each sample
        self.samples: List[float] = []  # CPU seconds one sample took
        self.spent_wall_s = 0.0
        self.spent_cpu_s = 0.0
        self._next = -math.inf
        self._starts: List[float] = []  # start of each window
        self._medians: List[float] = []  # median sample of each window

    def sample(self) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        reference_sample()
        c1, t1 = time.process_time(), time.perf_counter()
        self.times.append(t0)
        self.samples.append(c1 - c0)
        self.spent_cpu_s += c1 - c0
        self.spent_wall_s += t1 - t0
        self._next = t1 + self.interval

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def warm_up(self, count: int = 20) -> None:
        for _ in range(count):
            reference_sample()

    def finish(self) -> None:
        """Pool the samples into windows; call once after measuring."""
        self.sample()
        start, pooled = self.times[0], []
        for t, s in zip(self.times, self.samples):
            if t - start >= WINDOW_S and pooled:
                self._starts.append(start)
                self._medians.append(statistics.median(pooled))
                start, pooled = t, []
            pooled.append(s)
        self._starts.append(start)
        self._medians.append(statistics.median(pooled))

    def scale_at(self, t: float) -> float:
        """Factor that turns CPU time spent at ``t`` into reference time."""
        i = max(0, bisect.bisect_right(self._starts, t) - 1)
        return REFERENCE_S / self._medians[i]

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def window_medians_ms(self) -> List[float]:
        return [round(m * 1e3, 4) for m in self._medians]

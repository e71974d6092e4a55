"""Prediction of the first topological event along a channel.

An event is a probe vertex (the vertex across a side of a channel
triangle, ``Mesh.opposite``) entering, or touching, the channel triangle's
circumcircle: the edge between them is about to flip.  Nodes are
extrapolated linearly, and each channel triangle is sampled from one
resolution step up to (excluding) the ego's arrival at that triangle.

Each call gathers its channel's moving (triangle, probe) pairs with a
non-empty window into one array and scans them in a single pass: the
floating-point in-circle and orientation filter, with the predicates'
error bounds, runs over a (pairs x samples) grid in time blocks of 8, 16,
32, ... samples, and the scan stops at the first block that holds an
event.  Only the cells the filter cannot decide go to the exact predicate.
A call returns None before gathering when no channel triangle has a sample
in its window or when no node of the snapshot moves.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    CCW_ERRBOUND,
    ICC_ERRBOUND,
    DegenerateTriangleError,
    InCircleSide,
    incircle,
    incircle_filter,
    orient2d,
    orient_det,
)
from .mesh import Mesh, NodeTable
from .search import Channel

_FIRST_BLOCK = 8  # samples in the first time block; each later block doubles
# Node rows of a pair as the filter reads them: the triangle (a, b, c), a
# and b again so that every 2x2 minor is a slice, and the probe last.
_ROWS = np.array([0, 1, 2, 0, 1, 3])


@dataclass(frozen=True)
class EventReport:
    """First predicted connectivity change affecting the channel."""

    time: float  # absolute event time
    triangle_index: int  # index within the channel
    node_id: int  # triggering external node


def _gather(tri_ids: np.ndarray, mesh: Mesh, counts: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Channel index, probe, and the (2, 6, pairs) x and y of the positions
    and velocities of the ``_ROWS`` of each pair to scan, by channel index,
    then probe id.  A triangle's probes are its ``Mesh.opposite`` row, each
    once.  A pair with an empty window (``counts``) or with one velocity
    for all four nodes (NaN compares unequal) is left out.
    """
    probes = np.sort(mesh.opposite[tri_ids], axis=1)  # the hull's -1 first
    # Two neighbours can share a probe (a vertex of degree three).
    fresh = probes >= 0
    fresh[:, 1:] &= probes[:, 1:] != probes[:, :-1]
    chan, col = np.nonzero(fresh & (counts[:, None] > 0))
    probe = probes[chan, col]
    rows = np.column_stack([mesh.triangles[tri_ids[chan]], probe])[:, _ROWS]
    vels = mesh.vel[rows].T
    moving = (vels != vels[:, :1]).any(axis=(0, 1))
    return (chan[moving], probe[moving], np.ascontiguousarray(mesh.xy[rows[moving]].T),
            np.ascontiguousarray(vels[..., moving]))


def _exact_is_event(pts: np.ndarray, vels: np.ndarray, tau: float) -> bool:
    """Exact in-circle test of one pair: (2, 6) x and y of the ``_ROWS``."""
    x, y = pts + vels * tau
    try:
        side = incircle((x[0], y[0]), (x[1], y[1]), (x[2], y[2]), (x[5], y[5]))
    except DegenerateTriangleError:
        return True  # collapsing triangle: conservative event
    return side is not InCircleSide.OUTSIDE


def _filter(pts: np.ndarray, vels: np.ndarray, taus: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Certain-event and certain-clear masks of the (samples, pairs) grid.

    ``pts``/``vels`` are (2, 6, pairs): x and y of the node rows laid out
    as ``_ROWS``.  A cell in neither mask needs the exact predicate.  The
    filters are ``incircle_filter`` and ``orient_det`` with the predicates'
    error bounds, so every value has the bits of the scalar ``incircle``
    and ``orient2d`` filters.
    """
    t = taus[:, None]
    x = pts[0, :, None] + vels[0, :, None] * t  # (6, S, P)
    y = pts[1, :, None] + vels[1, :, None] * t
    det, det_perm = incircle_filter(x[:5] - x[5], y[:5] - y[5])
    det_err = ICC_ERRBOUND * det_perm

    orient, orient_size = orient_det(x[:2] - x[2], y[:2] - y[2])  # a - c, b - c
    orient_err = CCW_ERRBOUND * orient_size

    det_pos = det > det_err
    det_neg = det < -det_err
    ori_pos = orient > orient_err
    ori_neg = orient < -orient_err
    # Event iff gamma = -det * orient <= 0, i.e. det and orient share a sign
    # (inside) or either is zero (cocircular / degenerate).
    certain_event = (det_pos & ori_pos) | (det_neg & ori_neg)
    certain_clear = (det_pos & ori_neg) | (det_neg & ori_pos)
    return certain_event, certain_clear


def compute_event_time(channel: Channel, mesh: Mesh, sample_resolution: float
                       ) -> Optional[EventReport]:
    """Earliest topological event along the channel.

    Triangle ``i`` of the channel is sampled at
    ``np.arange(sample_resolution, channel.etas[i], sample_resolution)``
    against every probe: the opposite vertex of each edge-adjacent
    triangle.  A cocircular sample or a collapsing triangle counts as an
    event.  Nodes are extrapolated with ``mesh.vel``.  A pair whose
    four nodes share one velocity translates rigidly and is skipped.  The
    earliest sample wins; a tie goes to the lowest channel index, then to
    the lowest probe id.  Returns None when no triangle sees an event
    before the ego reaches it, at once when no window holds a sample or
    every velocity is zero.

    All pairs are scanned in one array pass, block by block in time; the
    cells the float filter cannot decide go to the exact predicate pair by
    pair, sample by sample, and only while they can still win.
    """
    if sample_resolution <= 0:
        raise ValueError(f"sample_resolution must be positive, got {sample_resolution}")
    res = sample_resolution

    # Samples per channel triangle: the length of np.arange(res, eta, res),
    # computed as numpy does, ceil((eta - res) / res), floored at zero.
    counts = np.maximum(np.ceil((np.array(channel.etas, dtype=float) - res) / res),
                        0).astype(np.intp)
    if not counts.any() or not mesh.vel.any():  # no sample, or every pair at rest
        return None
    chan, probe, pts, vels = _gather(np.asarray(channel.triangles, dtype=np.intp),
                                     mesh, counts)
    if chan.size == 0:
        return None
    counts = counts[chan]
    # arange values depend only on the index, so the longest window's grid
    # holds every shorter window's samples as a prefix.
    grid = np.arange(res, channel.etas[chan[counts.argmax()]], res)

    start, size = 0, _FIRST_BLOCK
    while start < grid.size:
        stop = min(start + size, grid.size)
        keep = counts > start  # pairs whose window reaches this block
        if not keep.all():
            chan, probe, counts = chan[keep], probe[keep], counts[keep]
            pts, vels = pts[..., keep], vels[..., keep]
        certain_event, certain_clear = _filter(pts, vels, grid[start:stop])
        in_window = np.arange(start, stop)[:, None] < counts
        hit = certain_event & in_window
        undecided = in_window & ~certain_event & ~certain_clear

        # The winner is the first event in (sample, pair) order; pairs are
        # gathered by channel index, then probe id.
        cols, rows = np.nonzero(hit)
        best = (int(cols[0]), int(rows[0])) if cols.size else (stop - start, 0)
        for r, c in zip(*np.nonzero(undecided.T)):  # pair by pair, as gathered
            if (c, r) < best and _exact_is_event(pts[..., r], vels[..., r],
                                                 grid[start + c]):
                best = (int(c), int(r))
        if best[0] < stop - start:
            c, r = best
            return EventReport(time=mesh.time + float(grid[start + c]),
                               triangle_index=int(chan[r]),
                               node_id=int(mesh.nodes.ids[probe[r]]))
        start, size = stop, size * 2
    return None


def anchor_survives(nodes: NodeTable, t: float, tri: Sequence[int]) -> bool:
    """Whether no node lies inside or on the circumcircle of ``tri`` at ``t``.

    If so, ``build_mesh`` holds it at ``t``, advanced or built by Qhull: an
    empty circumcircle puts a triangle in every Delaunay triangulation.  A
    collinear one is lost.
    """
    xy = nodes.xy + nodes.vel * t
    verts = list(tri)
    a, b, c = map(tuple, xy[verts].tolist())
    orient = orient2d(a, b, c)
    rows = xy[verts + verts[:2]]  # a, b, c, a, b
    det, perm = incircle_filter(rows[:, :1] - xy[:, 0], rows[:, 1:] - xy[:, 1])
    err = ICC_ERRBOUND * perm
    # Certainly outside: det and orient differ in sign (see ``incircle``).
    clear = det < -err if orient > 0 else det > err
    clear[verts] = True  # the triangle's own vertices
    return orient != 0.0 and all(incircle(a, b, c, p) is InCircleSide.OUTSIDE
                                 for p in map(tuple, xy[~clear].tolist()))

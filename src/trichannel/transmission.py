"""Motion information transmission along mesh edges.

A dynamic node's velocity is projected toward each adjacent node; the
neighbor adopts the projection when it dominates its own speed.  Sweeps are
synchronous (Jacobi-style): every projection within one sweep reads the
start-of-sweep velocities, making the result order-independent.

A moving node ``i`` projects its velocity ``v`` along the displacement
``p`` to a neighbour as ``factor * v``, where
``factor = alpha / (|p| + alpha) * |pi/2 - theta| ** beta * cos(theta)``
and ``theta`` is the angle between ``v`` and ``p``; nothing is projected
when ``cos(theta) < 0``.  One sweep evaluates this over both directions
of every edge (``mesh_edges``) at once; a snapshot in which no node moves
is returned as it is, before the edges are listed.  numpy's ``+ - * /``
and ``abs`` give the bits that Python floats give; ``hypot``, ``acos`` and
``pow`` run as ``math`` and builtin calls, as numpy's can differ from them
in the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .mesh import Mesh, mesh_edges


@dataclass(frozen=True)
class TransmissionConfig:
    alpha: float = 1.0  # meters; balances proximity against speed
    beta: float = 1.0  # heading-sharpness exponent
    passes: int = 1

    def __post_init__(self) -> None:
        # Chained comparisons: NaN fails them, so it is rejected too.
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be >= 0 and finite, got {self.alpha}")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be >= 0 and finite, got {self.beta}")
        # ``bool`` is an ``int``, but ``True`` is no pass count.
        if isinstance(self.passes, bool) or not isinstance(self.passes, int) or self.passes < 1:
            raise ValueError(f"passes must be an integer >= 1, got {self.passes!r}")


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` of each pair, as an array."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, len(x))


def transmit(mesh: Mesh, cfg: TransmissionConfig) -> Mesh:
    """Propagate ``mesh.vel`` across mesh edges for ``cfg.passes`` sweeps.

    Returns the same snapshot with the transmitted velocities, meant only
    for the current planning cycle, never for ground-truth state.  Each
    sweep projects every moving node's velocity along each of its edges
    that it moves toward, and each target keeps the first strictly largest
    projection in source order that beats its own speed.  Returns
    ``mesh`` itself when every velocity is zero (-0.0 included).  Raises
    ValueError when an edge that takes a projection has zero length.
    """
    if not mesh.vel.any():  # no node moves: nothing to project
        return mesh
    # Each edge in both directions.  The winner is picked by (target,
    # magnitude, source), so the order of the edges cannot change it.
    ends = mesh_edges(mesh)
    tail, head = ends.ravel(), ends[:, ::-1].ravel()
    alpha, beta = float(cfg.alpha), float(cfg.beta)
    x, y = mesh.xy.T
    vel = mesh.vel

    for _ in range(cfg.passes):
        vx, vy = vel.T
        moving = (~((vx == 0.0) & (vy == 0.0))).nonzero()[0]
        speed = np.zeros(len(vel))
        speed[moving] = _hypot(vx[moving], vy[moving])
        live = (speed[tail] != 0.0).nonzero()[0]
        src, dst = tail[live], head[live]
        sx, sy = vx[src], vy[src]
        px, py = x[dst] - x[src], y[dst] - y[src]
        # The source moves toward the target.
        toward = (~(sx * px + sy * py <= 0.0)).nonzero()[0]
        src, dst = src[toward], dst[toward]
        sx, sy, px, py = sx[toward], sy[toward], px[toward], py[toward]
        plen = _hypot(px, py)
        if (plen == 0.0).any():
            raise ValueError("zero displacement vector")
        vlen = speed[src]
        # Normalize before the dot product: vlen * plen can underflow to
        # zero for subnormal inputs even when both factors are nonzero.
        cos = (sx / vlen) * (px / plen) + (sy / vlen) * (py / plen)
        # A source heading away (cos < 0) projects nothing: clamped to 0,
        # its factor is 0, and the zero projection is dropped below.
        cos = np.where(cos < 0.0, 0.0, np.where(1.0 < cos, 1.0, cos))
        theta = np.fromiter(map(math.acos, cos.tolist()), float, len(cos))
        sharp = np.fromiter(map(pow, np.abs(math.pi / 2 - theta).tolist(), repeat(beta)),
                            float, len(cos))
        factor = alpha / (plen + alpha) * sharp * cos
        qx, qy = factor * sx, factor * sy
        # A zero projection never beats a speed.
        some = (~((qx == 0.0) & (qy == 0.0))).nonzero()[0]
        src, dst, qx, qy = src[some], dst[some], qx[some], qy[some]
        # A resting target with one candidate adopts it without comparing
        # magnitudes.
        own = speed[dst]
        weigh = ((own != 0.0) | (np.bincount(dst, minlength=len(vel))[dst] > 1)).nonzero()[0]
        mag = np.full(len(dst), math.inf)
        mag[weigh] = _hypot(qx[weigh], qy[weigh])
        win = (~(mag <= own)).nonzero()[0]
        if not win.size:
            continue
        # The first strict maximum per target, in source order.
        order = win[np.lexsort((src[win], -mag[win], dst[win]))]
        first = np.ones(len(order), dtype=bool)
        first[1:] = dst[order[1:]] != dst[order[:-1]]
        pick = order[first]
        vel = vel.copy()
        vel[dst[pick], 0], vel[dst[pick], 1] = qx[pick], qy[pick]
        vel.flags.writeable = False

    return replace(mesh, vel=vel)

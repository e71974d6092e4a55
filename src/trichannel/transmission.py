"""Motion information transmission along mesh edges.

A dynamic node's velocity is projected toward each adjacent node; the
neighbor adopts the projection when it dominates its own speed.  Sweeps are
synchronous (Jacobi-style): every projection within one sweep reads the
start-of-sweep velocities, making the result order-independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Tuple

import numpy as np

from .geometry import Vector
from .mesh import Mesh


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
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")


def project_velocity(v: Vector, p: Vector, cfg: TransmissionConfig) -> Vector:
    """Attenuated copy of ``v`` carried along displacement ``p``.

    Zero when the mover heads away (angle between v and p outside
    [-pi/2, pi/2]).  The result keeps the direction of ``v``.
    """
    px, py = p
    plen = math.hypot(px, py)
    if plen == 0.0:
        raise ValueError("zero displacement vector")
    vx, vy = v
    vlen = math.hypot(vx, vy)
    if vlen == 0.0:
        return (0.0, 0.0)
    # Normalize before the dot product: vlen * plen can underflow to zero
    # for subnormal inputs even when both factors are nonzero.
    cos_theta = (vx / vlen) * (px / plen) + (vy / vlen) * (py / plen)
    if cos_theta < 0.0:
        return (0.0, 0.0)
    cos_theta = min(cos_theta, 1.0)
    theta = math.acos(cos_theta)
    factor = (cfg.alpha / (plen + cfg.alpha)) * abs(math.pi / 2 - theta) ** cfg.beta * cos_theta
    return (factor * vx, factor * vy)


def transmit(mesh: Mesh, cfg: TransmissionConfig) -> Mesh:
    """Propagate ``mesh.vel`` across mesh edges for ``cfg.passes`` sweeps.

    Returns the same snapshot with the transmitted velocities, meant only
    for the current planning cycle, never for ground-truth state.  Each
    sweep drops in one array pass the directed edges whose source rests or
    moves away; only the survivors go through the scalar
    ``project_velocity``, and each target keeps the first strictly largest
    projection in (source, target) order that beats its own speed.
    """
    n = len(mesh.xy)
    # Every directed edge, once per triangle side.
    tail = mesh.triangles[:, [0, 1, 2, 1, 2, 0]].ravel()
    head = mesh.triangles[:, [1, 2, 0, 0, 1, 2]].ravel()
    vel = mesh.vel

    for _ in range(cfg.passes):
        live = ~((vel[:, 0] == 0.0) & (vel[:, 1] == 0.0))[tail]
        # Unique keys i * n + j: the directed edges from moving nodes, sorted.
        src, dst = np.divmod(np.unique(tail[live] * n + head[live]), n)
        vs = vel[src]
        pij = mesh.xy[dst] - mesh.xy[src]
        toward = np.flatnonzero(~(vs[:, 0] * pij[:, 0] + vs[:, 1] * pij[:, 1] <= 0.0))
        dst = dst[toward]
        best: Dict[int, Tuple[float, Vector]] = {}
        # Every projection reads the start-of-sweep velocities.
        for j, vi, vj, p in zip(dst.tolist(), vs[toward].tolist(),
                                vel[dst].tolist(), pij[toward].tolist()):
            proj = project_velocity(vi, p, cfg)
            mag = math.hypot(*proj)
            if mag <= math.hypot(*vj):
                continue
            if j not in best or mag > best[j][0]:
                best[j] = (mag, proj)
        if best:
            vel = vel.copy()
            vel[list(best)] = [proj for _, proj in best.values()]
            vel.flags.writeable = False

    return replace(mesh, vel=vel)

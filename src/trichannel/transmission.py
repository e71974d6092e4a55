"""Motion information transmission along mesh edges.

A dynamic node's velocity is projected toward each adjacent node; the
neighbor adopts the projection when it dominates its own speed.  Sweeps are
synchronous (Jacobi-style): every projection within one sweep reads the
start-of-sweep velocities, making the result order-independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

import numpy as np

from .geometry import Point, Vector
from .mesh import Mesh, mesh_edges


@dataclass(frozen=True)
class TransmissionConfig:
    alpha: float = 1.0  # meters; balances proximity against speed
    beta: float = 1.0  # heading-sharpness exponent
    passes: int = 1

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
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
    """Propagate ``mesh.velocities`` across mesh edges for ``cfg.passes`` sweeps.

    Returns the same snapshot with the transmitted velocities; nodes,
    positions and topology are shared with ``mesh``.  The result is meant
    only for the current planning cycle (search costs and event
    prediction), never for mutating ground-truth state.
    """
    undirected = mesh_edges(mesh)
    directed = np.concatenate([undirected, undirected[:, ::-1]])
    edges = directed[np.lexsort(directed.T[::-1])].tolist()  # sorted (i, j)
    velocities: Dict[int, Vector] = dict(mesh.velocities)

    for _ in range(cfg.passes):
        snapshot = dict(velocities)
        best: Dict[int, Vector] = {}
        for (i, j) in edges:
            vi = snapshot[i]
            if vi == (0.0, 0.0):
                continue
            pi: Point = mesh.positions[i]
            pj: Point = mesh.positions[j]
            pij = (pj[0] - pi[0], pj[1] - pi[1])
            if vi[0] * pij[0] + vi[1] * pij[1] <= 0.0:
                continue
            proj = project_velocity(vi, pij, cfg)
            mag = math.hypot(*proj)
            if mag <= math.hypot(*snapshot[j]):
                continue
            prev = best.get(j)
            if prev is None or mag > math.hypot(*prev):
                best[j] = proj
        velocities.update(best)

    return replace(mesh, velocities=velocities)

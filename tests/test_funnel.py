"""Taut-path extraction tests, including a padded visibility-graph oracle."""
import itertools
import math
import random

import networkx as nx
import pytest

from trichannel.funnel import PathPolyline, extract_portals, funnel
from trichannel.geometry import dist
from trichannel.mesh import point_in_triangle


def polyline_length(path):
    return sum(dist(a, b) for a, b in zip(path.points, path.points[1:]))


def strip_corridor(n=4, width=2.0, length=3.0):
    """Straight triangle strip along +x made of alternating triangles."""
    tris = []
    for i in range(n):
        x0, x1 = i * length, (i + 1) * length
        if i % 2 == 0:
            tris.append(((x0, 0.0), (x1, 0.0), (x0, width)))
            tris.append(((x1, 0.0), (x1, width), (x0, width)))
        else:
            tris.append(((x0, 0.0), (x1, 0.0), (x0, width)))
            tris.append(((x1, 0.0), (x1, width), (x0, width)))
    return tris


def shortest_path_oracle(portals, start, target):
    """Minimum-length path crossing every shrunk portal in order.

    The crossing point on portal i is parametrized by t_i in [0, 1]; total
    length is convex in t, so a bounded quasi-Newton solve from a few
    starts yields the global taut-string optimum.
    """
    import numpy as np
    from scipy.optimize import minimize

    left = np.array([p[0] for p in portals], dtype=float)
    right = np.array([p[1] for p in portals], dtype=float)
    s = np.asarray(start, dtype=float)
    g = np.asarray(target, dtype=float)

    def total(t):
        pts = left + (right - left) * t[:, None]
        chain = np.vstack([s, pts, g])
        return float(np.sum(np.hypot(*(np.diff(chain, axis=0).T))))

    n = len(portals)
    best = math.inf
    for init in (np.full(n, 0.5), np.linspace(0.1, 0.9, n),
                 np.linspace(0.9, 0.1, n)):
        res = minimize(total, init, bounds=[(0.0, 1.0)] * n,
                       method="L-BFGS-B",
                       options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 500})
        best = min(best, float(res.fun))
    return best


class TestStraightCorridor:
    def test_two_point_path(self):
        tris = strip_corridor(3)
        path = funnel(tris, (0.5, 1.0), (8.5, 1.0), padding=0.2)
        assert path.points == [(0.5, 1.0), (8.5, 1.0)]
        assert path.segment_ids == [0, 0]

    def test_single_triangle(self):
        tri = [((0, 0), (4, 0), (0, 4))]
        path = funnel(tri, (0.5, 0.5), (1.0, 1.0), padding=0.1)
        assert path.points == [(0.5, 0.5), (1.0, 1.0)]

    def test_degenerate_start_equals_target(self):
        tri = [((0, 0), (4, 0), (0, 4))]
        path = funnel(tri, (1.0, 1.0), (1.0, 1.0), padding=0.1)
        assert path.points == [(1.0, 1.0)]


class TestBends:
    def l_corridor(self):
        # Right-angle corridor around the inner corner at (2, 2).
        a, b, c, d, e, f = (0, 0), (2, 0), (2, 2), (0, 2), (4, 0), (4, 2)
        return [
            ((0, 2), (0, 0), (2, 0)),   # entry triangle
            ((0, 2), (2, 0), (2, 2)),
            ((2, 2), (2, 0), (4, 0)),
            ((2, 2), (4, 0), (4, 2)),
        ]

    def test_bend_offset_by_padding(self):
        tris = [
            ((0, 0), (4, 0), (0, 4)),
            ((4, 0), (4, 4), (0, 4)),
            ((4, 0), (8, 4), (4, 4)),
        ]
        padding = 0.3
        path = funnel(tris, (0.5, 3.0), (4.5, 3.9), padding=padding)
        if len(path.points) == 3:
            bend = path.points[1]
            corner = min([(4, 0), (0, 4), (4, 4)],
                         key=lambda c: dist(c, bend))
            assert math.isclose(dist(bend, corner), padding, rel_tol=1e-9)

    def test_length_matches_visibility_oracle(self):
        rng = random.Random(2)
        for _ in range(8):
            # Randomized zigzag corridor.
            tris = []
            x = 0.0
            lo, hi = 0.0, 2.0
            prev = [(x, lo), (x, hi)]
            for i in range(5):
                x += rng.uniform(1.5, 3.0)
                lo2 = lo + rng.uniform(-0.8, 0.8)
                hi2 = lo2 + rng.uniform(1.5, 2.5)
                cur = [(x, lo2), (x, hi2)]
                tris.append((prev[0], cur[0], prev[1]))
                tris.append((cur[0], cur[1], prev[1]))
                prev, lo, hi = cur, lo2, hi2
            start = (0.3, (tris[0][0][1] + tris[0][2][1]) / 2)
            target = ((prev[0][0] + prev[1][0]) / 2 - 0.3,
                      (prev[0][1] + prev[1][1]) / 2)
            padding = 0.15
            path = funnel(tris, start, target, padding)
            if path is None:
                continue
            portals = []
            from trichannel.funnel import _ccw, _shrink_portal
            for left, right in extract_portals([_ccw(t) for t in tris]):
                portals.append(_shrink_portal(left, right, padding, padding))
            want = shortest_path_oracle(portals, start, target)
            assert math.isclose(polyline_length(path), want, rel_tol=1e-6, abs_tol=1e-6)

    def test_containment_in_corridor(self):
        tris = self.l_corridor()
        path = funnel(tris, (0.5, 1.0), (3.5, 1.0), padding=0.1)
        assert path is not None
        for a, b in zip(path.points, path.points[1:]):
            for i in range(101):
                f = i / 100
                p = (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
                assert any(point_in_triangle(t, p) or
                           min(dist(p, v) for v in t) < 0.2
                           for t in tris)


class TestFailures:
    def test_narrow_portal_returns_none(self):
        tris = strip_corridor(2, width=0.5)
        assert funnel(tris, (0.2, 0.25), (5.5, 0.25), padding=0.3) is None

    def test_node_radii_consume_portal_width(self):
        tris = [((0, 0), (2, 0), (0, 2)), ((2, 0), (2, 2), (0, 2))]
        radius_of = {(2, 0): 1.2, (0, 2): 1.2}
        # Portal length is 2*sqrt(2) = 2.83; radii alone eat 2.4 of it.
        assert funnel(tris, (0.5, 0.5), (1.8, 1.8), padding=0.3,
                      radius_of=radius_of) is None
        assert funnel(tris, (0.5, 0.5), (1.8, 1.8), padding=0.0,
                      radius_of=radius_of) is not None

    def test_start_outside_raises(self):
        tris = strip_corridor(2)
        with pytest.raises(ValueError):
            funnel(tris, (-5, -5), (5, 1), padding=0.1)

    def test_target_outside_raises(self):
        tris = strip_corridor(2)
        with pytest.raises(ValueError):
            funnel(tris, (0.5, 1.0), (50, 50), padding=0.1)

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError):
            funnel([((0, 0), (1, 0), (0, 1))], (0.2, 0.2), (0.3, 0.3), -0.1)

    def test_empty_corridor_rejected(self):
        with pytest.raises(ValueError):
            funnel([], (0, 0), (1, 1), 0.1)

    def test_disconnected_triangles_rejected(self):
        tris = [((0, 0), (2, 0), (0, 2)), ((10, 10), (12, 10), (10, 12))]
        with pytest.raises(ValueError):
            funnel(tris, (0.5, 0.5), (10.5, 10.5), padding=0.0)


class TestPortals:
    def test_left_right_orientation(self):
        tris = [t for t in strip_corridor(2)]
        from trichannel.funnel import _ccw
        portals = extract_portals([_ccw(t) for t in tris])
        assert len(portals) == len(tris) - 1
        # Walking +x, the left portal end must have the larger y.
        for left, right in portals:
            if not math.isclose(left[0], right[0]):
                continue
            assert left[1] > right[1]


def test_polyline_length():
    p = PathPolyline(points=[(0, 0), (3, 4), (3, 5)], segment_ids=[0, 0, 1])
    assert polyline_length(p) == 6.0

"""Taut-path extraction tests, including a padded visibility-graph oracle.

Corridors are written as point triangles; ``corridor_mesh`` turns them into
the ``Mesh`` that ``funnel`` walks, triangle ``i`` being id ``i``.
"""
import dataclasses
import importlib
import math
import random

import pytest

from trichannel.funnel import PathPolyline, _shrink_portal, funnel
from trichannel.geometry import NodeKind, NodeState, dist
from trichannel.mesh import build_mesh, locate, point_in_triangle

from nodes import table_of
from test_stage_oracles import _ccw, corridor_mesh, extract_portals


# The package's ``funnel`` function shadows the module of that name.
funnel_module = importlib.import_module("trichannel.funnel")


def thread(tris, start, target, padding, radius_of=None):
    """``funnel`` through every triangle of a point corridor, in order."""
    return funnel(corridor_mesh(tris, radius_of), range(len(tris)), start, target,
                  padding)


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
        path = thread(tris, (0.5, 1.0), (8.5, 1.0), padding=0.2)
        assert path.points == [(0.5, 1.0), (8.5, 1.0)]

    def test_single_triangle(self):
        tri = [((0, 0), (4, 0), (0, 4))]
        path = thread(tri, (0.5, 0.5), (1.0, 1.0), padding=0.1)
        assert path.points == [(0.5, 0.5), (1.0, 1.0)]

    def test_degenerate_start_equals_target(self):
        tri = [((0, 0), (4, 0), (0, 4))]
        path = thread(tri, (1.0, 1.0), (1.0, 1.0), padding=0.1)
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
        path = thread(tris, (0.5, 3.0), (4.5, 3.9), padding=padding)
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
            path = thread(tris, start, target, padding)
            if path is None:
                continue
            portals = []
            for left, right in extract_portals([_ccw(t) for t in tris]):
                portals.append(_shrink_portal(left, right, padding, padding))
            want = shortest_path_oracle(portals, start, target)
            assert math.isclose(polyline_length(path), want, rel_tol=1e-6, abs_tol=1e-6)

    def test_containment_in_corridor(self):
        tris = self.l_corridor()
        path = thread(tris, (0.5, 1.0), (3.5, 1.0), padding=0.1)
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
        assert thread(tris, (0.2, 0.25), (5.5, 0.25), padding=0.3) is None

    def test_node_radii_consume_portal_width(self):
        tris = [((0, 0), (2, 0), (0, 2)), ((2, 0), (2, 2), (0, 2))]
        radius_of = {(2, 0): 1.2, (0, 2): 1.2}
        # Portal length is 2*sqrt(2) = 2.83; radii alone eat 2.4 of it.
        assert thread(tris, (0.5, 0.5), (1.8, 1.8), padding=0.3,
                      radius_of=radius_of) is None
        assert thread(tris, (0.5, 0.5), (1.8, 1.8), padding=0.0,
                      radius_of=radius_of) is not None

    def test_start_outside_raises(self):
        tris = strip_corridor(2)
        with pytest.raises(ValueError):
            thread(tris, (-5, -5), (5, 1), padding=0.1)

    def test_target_outside_raises(self):
        tris = strip_corridor(2)
        with pytest.raises(ValueError):
            thread(tris, (0.5, 1.0), (50, 50), padding=0.1)

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError):
            thread([((0, 0), (1, 0), (0, 1))], (0.2, 0.2), (0.3, 0.3), -0.1)

    def test_empty_corridor_rejected(self):
        with pytest.raises(ValueError):
            funnel(corridor_mesh([((0, 0), (1, 0), (0, 1))]), [], (0, 0), (1, 1), 0.1)

    def test_disconnected_triangles_rejected(self):
        tris = [((0, 0), (2, 0), (0, 2)), ((10, 10), (12, 10), (10, 12))]
        with pytest.raises(ValueError):
            thread(tris, (0.5, 0.5), (10.5, 10.5), padding=0.0)


class TestPortals:
    @pytest.fixture
    def shrinks(self, monkeypatch):
        """Every ``_shrink_portal`` call ``funnel`` makes, as (left, right,
        left offset, right offset)."""
        calls = []

        def recording(left, right, off_left, off_right):
            calls.append((left, right, off_left, off_right))
            return _shrink_portal(left, right, off_left, off_right)

        monkeypatch.setattr(funnel_module, "_shrink_portal", recording)
        return calls

    def test_left_right_orientation(self, shrinks):
        tris = strip_corridor(2)
        thread(tris, (0.5, 1.0), (5.5, 1.0), padding=0.1)
        assert len(shrinks) == len(tris) - 1
        # Walking +x, the left portal end must have the larger y.
        for left, right, _, _ in shrinks:
            if not math.isclose(left[0], right[0]):
                continue
            assert left[1] > right[1]

    def test_each_end_shrinks_by_its_own_radius(self, shrinks):
        # Walking up and to the right, (0, 2) is the portal's left end.
        tris = [((0, 0), (2, 0), (0, 2)), ((2, 0), (2, 2), (0, 2))]
        path = thread(tris, (0.2, 1.0), (1.8, 1.0), padding=0.1,
                      radius_of={(0, 2): 1.5, (2, 0): 0.2})
        assert shrinks == [((0.0, 2.0), (2.0, 0.0), 0.1 + 1.5, 0.1 + 0.2)]
        # The straight line meets the portal at (1, 1), inside the left
        # end's clearance, so the path bends round it.
        assert len(path.points) == 3
        assert math.isclose(dist(path.points[1], (0, 2)), 1.6)

    def test_clockwise_row_rejected(self):
        mesh = corridor_mesh(strip_corridor(2))
        # Row 1 read backwards, its neighbour columns moved along.
        tris, nbrs = mesh.triangles.copy(), mesh.neighbors.copy()
        tris[1], nbrs[1] = tris[1, ::-1], nbrs[1, ::-1]
        flipped = dataclasses.replace(mesh, triangles=tris, neighbors=nbrs)
        args = ([0, 1, 2], (0.5, 1.0), (3.5, 1.0), 0.1)
        assert funnel(mesh, *args) is not None
        with pytest.raises(ValueError, match="clockwise"):
            funnel(flipped, *args)

    def test_coincident_nodes_pad_by_the_kept_node(self, shrinks):
        # Nodes 2 and 3 coincide; the mesh keeps node 2 and drops node 3,
        # and the portal end there is padded by node 2's radius.
        nodes = [NodeState(id=i, x=x, y=y, vx=0.0, vy=0.0, r=r, kind=NodeKind.STATIC)
                 for i, (x, y, r) in enumerate([(0, 1, 0.0), (2, 0, 0.0), (2, 3, 0.3),
                                                (2, 3, 0.7), (4, 1, 0.0)])]
        mesh = build_mesh(table_of(nodes), 0.0)
        assert 2 in mesh.triangles and 3 not in mesh.triangles
        ids = [locate(mesh, (1.0, 1.2)), locate(mesh, (3.0, 1.2))]
        padding = 0.1
        assert funnel(mesh, ids, (1.0, 1.2), (3.0, 1.2), padding) is not None
        [(left, right, off_left, off_right)] = shrinks
        assert (left, right) == ((2.0, 3.0), (2.0, 0.0))
        assert (off_left, off_right) == (padding + 0.3, padding + 0.0)


def test_polyline_length():
    p = PathPolyline(points=[(0, 0), (3, 4), (3, 5)])
    assert polyline_length(p) == 6.0

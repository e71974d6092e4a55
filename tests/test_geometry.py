"""Exact predicate tests: sign correctness, convention, and the filter path."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trichannel.geometry import (DegenerateTriangleError, InCircleSide,
                                 NodeKind, NodeState, dist, incircle, incircle_det,
                                 orient2d, orient_det)


def orient_oracle(a, b, c):
    """Rational-arithmetic sign of the orientation determinant."""
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)


def incircle_oracle(a, b, c, p):
    """Rational sign of gamma = -det4 * orient; -1 inside, 0 on, +1 outside."""
    px, py = Fraction(p[0]), Fraction(p[1])
    rows = []
    for q in (a, b, c):
        qx, qy = Fraction(q[0]) - px, Fraction(q[1]) - py
        rows.append((qx, qy, qx * qx + qy * qy))
    (adx, ady, al), (bdx, bdy, bl), (cdx, cdy, cl) = rows
    det = (al * (bdx * cdy - cdx * bdy)
           + bl * (cdx * ady - adx * cdy)
           + cl * (adx * bdy - bdx * ady))
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    orient = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    gamma = -det * orient
    return (gamma > 0) - (gamma < 0)


def lifted_det_oracle(a, b, c, p):
    """Rational det[[x, y, x^2+y^2, 1]] over rows (a, b, c, p), by Leibniz's
    sum over the 24 permutations."""
    rows = [(x, y, x * x + y * y, 1) for x, y in (map(Fraction, q) for q in (a, b, c, p))]
    det = Fraction(0)
    for perm in itertools.permutations(range(4)):
        inversions = sum(i > j for i, j in itertools.combinations(perm, 2))
        det += (-1) ** inversions * math.prod(rows[i][j] for i, j in enumerate(perm))
    return det


coords = st.floats(min_value=-100, max_value=100, allow_nan=False,
                   allow_infinity=False)
points = st.tuples(coords, coords)
# Near-degenerate input: small integer grids, each coordinate maybe moved
# by one ulp either way, so collinear and cocircular sets are common.
grid_coords = st.builds(lambda v, step: math.nextafter(v, step * math.inf) if step else v,
                        st.integers(-3, 3).map(float), st.sampled_from([-1, 0, 1]))
near_points = st.tuples(st.one_of(grid_coords, coords), st.one_of(grid_coords, coords))


class TestOrient2d:
    def test_counterclockwise_positive(self):
        assert orient2d((0, 0), (1, 0), (0, 1)) > 0

    def test_clockwise_negative(self):
        assert orient2d((0, 0), (0, 1), (1, 0)) < 0

    def test_collinear_zero(self):
        assert orient2d((0, 0), (1, 1), (2, 2)) == 0.0

    def test_collinear_with_awkward_floats(self):
        # Points on a line whose naive determinant rounds to garbage.
        a = (0.1, 0.1)
        b = (0.2, 0.2)
        c = (0.30000000000000004, 0.30000000000000004)
        assert orient2d(a, b, c) == 0.0

    def test_tiny_perturbation_resolved_exactly(self):
        base = 12.345678901234567
        a = (base, base)
        b = (base + 1, base + 1)
        c = (base + 2, base + 2 + 1e-15)
        assert orient2d(a, b, c) > 0
        c = (base + 2, base + 2 - 1e-15)
        assert orient2d(a, b, c) < 0

    @given(points, points, points)
    @settings(max_examples=300, deadline=None)
    def test_sign_matches_rational_oracle(self, a, b, c):
        got = orient2d(a, b, c)
        assert ((got > 0) - (got < 0)) == orient_oracle(a, b, c)

    @given(points, points, points)
    @settings(max_examples=150, deadline=None)
    def test_cyclic_rotation_keeps_sign(self, a, b, c):
        s1 = orient2d(a, b, c)
        s2 = orient2d(b, c, a)
        assert (s1 > 0) == (s2 > 0) and (s1 == 0) == (s2 == 0)


class TestIncircle:
    def test_inside_unit_circle(self):
        res = incircle((1, 0), (0, 1), (-1, 0), (0, 0))
        assert res is InCircleSide.INSIDE
        assert res is not InCircleSide.OUTSIDE

    def test_outside_unit_circle(self):
        res = incircle((1, 0), (0, 1), (-1, 0), (0, -5))
        assert res is InCircleSide.OUTSIDE

    def test_cocircular_counts_as_event(self):
        res = incircle((1, 0), (0, 1), (-1, 0), (0, -1))
        assert res is InCircleSide.COCIRCULAR
        assert res is not InCircleSide.OUTSIDE

    def test_collinear_triangle_raises(self):
        with pytest.raises(DegenerateTriangleError):
            incircle((0, 0), (1, 1), (2, 2), (0, 1))

    def test_orientation_insensitive(self):
        # Swapping two triangle vertices must not flip the classification.
        a, b, c, p = (1, 0), (0, 1), (-1, 0), (0.1, 0.2)
        assert incircle(a, b, c, p) is incircle(a, c, b, p)

    def test_barely_inside_near_cocircular(self):
        r = incircle((1, 0), (0, 1), (-1, 0), (0, -1 + 1e-14))
        assert r is InCircleSide.INSIDE
        r = incircle((1, 0), (0, 1), (-1, 0), (0, -1 - 1e-14))
        assert r is InCircleSide.OUTSIDE

    @given(points, points, points, points)
    @settings(max_examples=300, deadline=None)
    def test_sign_matches_rational_oracle(self, a, b, c, p):
        if orient_oracle(a, b, c) == 0:
            with pytest.raises(DegenerateTriangleError):
                incircle(a, b, c, p)
            return
        res = incircle(a, b, c, p)
        want = incircle_oracle(a, b, c, p)
        got = {InCircleSide.INSIDE: -1, InCircleSide.COCIRCULAR: 0,
               InCircleSide.OUTSIDE: 1}[res]
        assert got == want


def sign(value):
    return (value > 0) - (value < 0)


class TestDeterminants:
    """``orient_det`` and ``incircle_det`` are the only determinant formulas:
    the float filters and the exact fallbacks both evaluate them."""

    @given(st.lists(st.tuples(near_points, near_points, near_points),
                    min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_orient_det_over_arrays_is_its_scalar_form(self, triples):
        (ax, ay), (bx, by), (cx, cy) = np.array(triples).transpose(1, 2, 0)
        det, size = orient_det((ax - cx, bx - cx), (ay - cy, by - cy))
        scalar = [orient_det((a[0] - c[0], b[0] - c[0]), (a[1] - c[1], b[1] - c[1]))
                  for a, b, c in triples]
        assert det.tobytes() == np.array([d for d, _ in scalar]).tobytes()
        assert size.tobytes() == np.array([s for _, s in scalar]).tobytes()

    @given(near_points, near_points, near_points)
    @settings(max_examples=300, deadline=None)
    def test_orient_det_on_fractions_is_exact(self, a, b, c):
        (ax, ay), (bx, by), (cx, cy) = (map(Fraction, q) for q in (a, b, c))
        det, _ = orient_det((ax - cx, bx - cx), (ay - cy, by - cy))
        assert sign(det) == orient_oracle(a, b, c)

    @given(near_points, near_points, near_points, near_points)
    @settings(max_examples=300, deadline=None)
    def test_incircle_det_on_fractions_is_exact(self, a, b, c, p):
        det, _ = incircle_det(*(tuple(map(Fraction, q)) for q in (a, b, c, p)))
        assert sign(det) == sign(lifted_det_oracle(a, b, c, p))


class TestMotionModel:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            NodeState(id=0, x=0, y=0, vx=0, vy=0, r=-0.1)

    def test_node_accessors(self):
        n = NodeState(id=7, x=1, y=2, vx=3, vy=4, r=0.5, kind=NodeKind.DYNAMIC)
        assert n.position == (1, 2)


def test_dist_is_euclidean():
    assert dist((0, 0), (3, 4)) == 5.0
    assert dist((1, 1), (1, 1)) == 0.0
    assert math.isclose(dist((-1, -1), (1, 1)), 2 * math.sqrt(2))

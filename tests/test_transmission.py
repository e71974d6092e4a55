"""Velocity propagation across mesh edges.

``project_velocity`` is the scalar oracle that ``tests/test_stage_oracles.py``
holds ``transmit`` to; its tests pin the formula.
"""
import dataclasses
import math

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trichannel.transmission as transmission
from nodes import table_of
from test_stage_oracles import bits, project_velocity, reference_transmit
from trichannel.geometry import NodeKind, NodeState
from trichannel.mesh import Mesh, NodeTable, build_mesh, mesh_edges
from trichannel.transmission import TransmissionConfig, transmit


def projection_oracle(v, p, alpha, beta):
    """Direct evaluation of the attenuation formula."""
    plen = math.hypot(*p)
    vlen = math.hypot(*v)
    if vlen == 0:
        return (0.0, 0.0)
    # Divide each factor on its own: vlen * plen underflows to zero for a
    # subnormal v even though neither length is zero.
    cos_t = (v[0] * p[0] + v[1] * p[1]) / vlen / plen
    if cos_t < 0:
        return (0.0, 0.0)
    theta = math.acos(min(cos_t, 1.0))
    f = (alpha / (plen + alpha)) * abs(math.pi / 2 - theta) ** beta * min(cos_t, 1.0)
    return (f * v[0], f * v[1])


vec = st.tuples(st.floats(-5, 5, allow_nan=False),
                st.floats(-5, 5, allow_nan=False))


class TestProjectVelocity:
    def test_head_on_attenuates_by_distance(self):
        cfg = TransmissionConfig(alpha=1.0, beta=1.0)
        out = project_velocity((2.0, 0.0), (1.0, 0.0), cfg)
        # factor = (1/(1+1)) * (pi/2)^1 * 1
        want = 2.0 * 0.5 * (math.pi / 2)
        assert math.isclose(out[0], want)
        assert out[1] == 0.0

    def test_receding_motion_transmits_nothing(self):
        cfg = TransmissionConfig()
        assert project_velocity((1.0, 0.0), (-1.0, 0.0), cfg) == (0.0, 0.0)
        assert project_velocity((1.0, 0.0), (-0.1, 3.0), cfg) == (0.0, 0.0)

    def test_perpendicular_motion_transmits_nothing(self):
        cfg = TransmissionConfig(beta=1.0)
        out = project_velocity((0.0, 1.0), (1.0, 0.0), cfg)
        assert math.hypot(*out) < 1e-12

    def test_zero_velocity_passes_through(self):
        assert project_velocity((0.0, 0.0), (1.0, 1.0),
                                TransmissionConfig()) == (0.0, 0.0)

    def test_zero_displacement_rejected(self):
        with pytest.raises(ValueError):
            project_velocity((1.0, 0.0), (0.0, 0.0), TransmissionConfig())

    @given(vec, vec)
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_formula(self, v, p):
        if math.hypot(*p) < 1e-9:
            return
        cfg = TransmissionConfig(alpha=1.0, beta=1.0)
        got = project_velocity(v, p, cfg)
        # acos is ill-conditioned near parallel vectors; allow for that.
        want = projection_oracle(v, p, 1.0, 1.0)
        assert math.isclose(got[0], want[0], abs_tol=1e-6)
        assert math.isclose(got[1], want[1], abs_tol=1e-6)

    @given(vec, vec)
    @settings(max_examples=200, deadline=None)
    def test_result_parallel_to_input_and_no_longer(self, v, p):
        if math.hypot(*p) == 0 or math.hypot(*v) == 0:
            return
        out = project_velocity(v, p, TransmissionConfig(alpha=0.5, beta=1.0))
        cross = out[0] * v[1] - out[1] * v[0]
        assert abs(cross) < 1e-9  # same direction
        assert out[0] * v[0] + out[1] * v[1] >= 0  # never reversed


def crossing_scene():
    """A walker heading toward a static node, plus filler corners."""
    return [
        NodeState(id=0, x=0.0, y=0.0, vx=1.0, vy=0.0, r=0.3,
                  kind=NodeKind.DYNAMIC),
        NodeState(id=1, x=2.0, y=0.1, vx=0.0, vy=0.0, r=0.3),
        NodeState(id=2, x=1.0, y=3.0, vx=0.0, vy=0.0, r=0.3),
        NodeState(id=3, x=1.0, y=-3.0, vx=0.0, vy=0.0, r=0.3),
    ]


class TestTransmit:
    def test_static_neighbor_adopts_projection(self):
        nodes = crossing_scene()
        mesh = build_mesh(table_of(nodes), 0.0)
        out = transmit(mesh, TransmissionConfig())
        assert math.hypot(*out.vel[1]) > 0
        # Adopted motion keeps the walker's direction.
        assert out.vel[1][0] > 0
        assert abs(out.vel[1][1]) < 1e-9

    def test_magnitudes_never_shrink(self):
        nodes = crossing_scene()
        mesh = build_mesh(table_of(nodes), 0.0)
        out = transmit(mesh, TransmissionConfig(passes=2))
        for nid, v in enumerate(mesh.nodes.vel):
            assert math.hypot(*out.vel[nid]) >= math.hypot(*v) - 1e-12

    def test_positions_and_kinds_untouched(self):
        nodes = crossing_scene()
        mesh = build_mesh(table_of(nodes), 0.0)
        out = transmit(mesh, TransmissionConfig())
        assert out.nodes is mesh.nodes
        assert np.array_equal(out.xy, mesh.xy)

    def test_all_static_is_identity(self):
        nodes = [NodeState(id=i, x=float(i % 3), y=float(i // 3), vx=0, vy=0,
                           r=0.1) for i in range(6)]
        mesh = build_mesh(table_of(nodes), 0.0)
        out = transmit(mesh, TransmissionConfig())
        assert not out.vel.any()

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_still_snapshot_lists_no_edges(self, monkeypatch, zero):
        # -0.0 is still too, as the sweep's ``== 0.0`` test reads it.
        mesh = build_mesh(table_of(crossing_scene()), 0.0)
        still = dataclasses.replace(mesh, vel=np.full_like(mesh.vel, zero))
        cfg = TransmissionConfig(passes=2)
        want = bits(reference_transmit(still, cfg))

        def refuse(mesh):
            raise AssertionError("a still snapshot listed its edges")

        monkeypatch.setattr(transmission, "mesh_edges", refuse)
        assert transmit(still, cfg).vel.tobytes() == want

    def test_one_moving_node_sweeps(self, monkeypatch):
        mesh = build_mesh(table_of(crossing_scene()), 0.0)
        cfg = TransmissionConfig(passes=2)
        calls = []

        def counting(mesh):
            calls.append(mesh)
            return mesh_edges(mesh)

        monkeypatch.setattr(transmission, "mesh_edges", counting)
        out = transmit(mesh, cfg)
        assert len(calls) == 1
        assert out.vel.tobytes() == bits(reference_transmit(mesh, cfg))
        assert out.vel.tobytes() != mesh.vel.tobytes()

    def test_sweeps_extend_reach(self):
        # With one pass the far node is untouched; a second pass reaches it
        # through the middle node.
        nodes = [
            NodeState(id=0, x=0.0, y=0.0, vx=2.0, vy=0.0, r=0.1,
                      kind=NodeKind.DYNAMIC),
            NodeState(id=1, x=1.0, y=0.2, vx=0.0, vy=0.0, r=0.1),
            NodeState(id=2, x=2.0, y=-0.2, vx=0.0, vy=0.0, r=0.1),
            NodeState(id=3, x=1.0, y=5.0, vx=0.0, vy=0.0, r=0.1),
        ]
        mesh = build_mesh(table_of(nodes), 0.0)
        one = transmit(mesh, TransmissionConfig(passes=1))
        two = transmit(mesh, TransmissionConfig(passes=2))
        assert math.hypot(*two.vel[2]) >= math.hypot(*one.vel[2])

    def test_dominance_rule_keeps_faster_own_motion(self):
        # A node already faster than any projection keeps its velocity.
        nodes = [
            NodeState(id=0, x=0.0, y=0.0, vx=0.5, vy=0.0, r=0.1,
                      kind=NodeKind.DYNAMIC),
            NodeState(id=1, x=1.0, y=0.0, vx=3.0, vy=0.0, r=0.1,
                      kind=NodeKind.DYNAMIC),
            NodeState(id=2, x=0.5, y=2.0, vx=0.0, vy=0.0, r=0.1),
        ]
        mesh = build_mesh(table_of(nodes), 0.0)
        out = transmit(mesh, TransmissionConfig())
        assert out.vel[1].tolist() == [3.0, 0.0]

    def test_heading_away_after_rounding_projects_nothing(self):
        # The raw dot product of v and p is 2.2e-16 > 0, but the cosine of
        # the normalised vectors rounds to -5.6e-17: no projection.  With
        # beta = 0 the angle term is 1, so a cosine taken as +5.6e-17 would
        # project.
        v, p = (-1.4262367369669522, 1.523063644510537), (-0.85045086967935, -0.7963844962709904)
        nodes = [NodeState(id=0, x=0.0, y=0.0, vx=v[0], vy=v[1], r=0.1,
                           kind=NodeKind.DYNAMIC),
                 NodeState(id=1, x=p[0], y=p[1], vx=0.0, vy=0.0, r=0.1),
                 NodeState(id=2, x=1.0, y=-1.0, vx=0.0, vy=0.0, r=0.1)]
        out = transmit(build_mesh(table_of(nodes), 0.0), TransmissionConfig(beta=0.0))
        assert out.vel[1].tolist() == [0.0, 0.0]

    def test_zero_length_edge_rejected(self):
        # Only a hand-built mesh joins two nodes at one point; an infinite
        # velocity leaves the heading test undecided (inf * 0 is NaN).
        table = NodeTable(ids=np.arange(3), xy=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
                          vel=np.array([[math.inf, 0.0], [0.0, 0.0], [0.0, 0.0]]),
                          r=np.zeros(3))
        mesh = Mesh(time=0.0, nodes=table, xy=table.xy, vel=table.vel,
                    triangles=np.array([[0, 1, 2]]), neighbors=np.array([[-1, -1, -1]]))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="zero displacement"):
            transmit(mesh, TransmissionConfig())


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransmissionConfig(alpha=-1)
        with pytest.raises(ValueError):
            TransmissionConfig(beta=-0.5)
        with pytest.raises(ValueError):
            TransmissionConfig(passes=0)

    @pytest.mark.parametrize("passes", [1.5, 2.0, "2", None, True])
    def test_non_integer_passes_rejected(self, passes):
        # 1.5 used to pass validation and make ``transmit`` raise TypeError.
        with pytest.raises(ValueError, match="passes must be an integer"):
            TransmissionConfig(passes=passes)

    def test_defaults(self):
        cfg = TransmissionConfig()
        assert cfg.alpha == 1.0
        assert cfg.beta == 1.0
        assert cfg.passes == 1

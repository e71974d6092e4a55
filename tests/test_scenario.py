"""Scenario model, serialization and the synthetic generator."""
import dataclasses
import json
import math

import numpy as np
import pytest

from trichannel import scenario as scenario_module
from trichannel.geometry import NodeKind
from trichannel.mesh import generate_virtual_nodes
from trichannel.scenario import (MAX_BOUNCES, ObjectTrack, Scenario,
                                 ScenarioFormatError, SyntheticParams,
                                 generate_synthetic)


def simple_scenario():
    return Scenario(
        id="t",
        nodes=[
            ObjectTrack(id=0, kind=NodeKind.DYNAMIC, radius=0.3,
                        waypoints=[(0.0, 1.0, 1.0), (2.0, 3.0, 1.0)]),
            ObjectTrack(id=1, kind=NodeKind.STATIC, radius=0.5,
                        waypoints=[(0.0, 5.0, 5.0)]),
        ],
        boundaries=[[(0, 0), (10, 0)], [(0, 8), (10, 8)]],
        start=(0.5, 4.0),
        goal=(9.5, 4.0),
        ego_speed=2.0,
        ego_radius=0.4,
        time_limit=20.0,
    )


class TestObjectTrack:
    def test_interpolation_between_waypoints(self):
        tr = ObjectTrack(id=0, kind=NodeKind.DYNAMIC, radius=0.1,
                         waypoints=[(0.0, 0.0, 0.0), (2.0, 2.0, 0.0)])
        assert tr.position_at(0.5) == (0.5, 0.0)
        assert tr.velocity_at(0.5) == (1.0, 0.0)

    def test_extrapolation_past_last_waypoint(self):
        tr = ObjectTrack(id=0, kind=NodeKind.DYNAMIC, radius=0.1,
                         waypoints=[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
        assert tr.position_at(3.0) == (3.0, 3.0)

    def test_before_first_waypoint_holds(self):
        tr = ObjectTrack(id=0, kind=NodeKind.DYNAMIC, radius=0.1,
                         waypoints=[(1.0, 5.0, 5.0), (2.0, 6.0, 5.0)])
        assert tr.position_at(0.0) == (5.0, 5.0)
        assert tr.velocity_at(0.0) == (0.0, 0.0)

    def test_single_waypoint_is_stationary(self):
        tr = ObjectTrack(id=0, kind=NodeKind.STATIC, radius=0.1,
                         waypoints=[(0.0, 2.0, 3.0)])
        assert tr.position_at(100.0) == (2.0, 3.0)
        assert tr.velocity_at(100.0) == (0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ScenarioFormatError):
            ObjectTrack(id=0, kind=NodeKind.DYNAMIC, radius=0.1, waypoints=[])
        with pytest.raises(ScenarioFormatError):
            ObjectTrack(id=0, kind=NodeKind.DYNAMIC, radius=0.1,
                        waypoints=[(1.0, 0, 0), (1.0, 1, 1)])
        with pytest.raises(ScenarioFormatError):
            ObjectTrack(id=0, kind=NodeKind.DYNAMIC, radius=-0.1,
                        waypoints=[(0.0, 0, 0)])
        with pytest.raises(ScenarioFormatError):
            # Static nodes must not move.
            ObjectTrack(id=0, kind=NodeKind.STATIC, radius=0.1,
                        waypoints=[(0.0, 0, 0), (1.0, 5, 5)])


class TestScenario:
    def test_validation(self):
        sc = simple_scenario()
        with pytest.raises(ScenarioFormatError):
            Scenario(id="x", nodes=[], boundaries=[], start=(0, 0), goal=(0, 0),
                     ego_speed=1, ego_radius=0.1, time_limit=10)
        with pytest.raises(ScenarioFormatError):
            Scenario(id="x", nodes=[], boundaries=[], start=(0, 0), goal=(1, 0),
                     ego_speed=1, ego_radius=0.1, time_limit=0)
        with pytest.raises(ScenarioFormatError):
            Scenario(id="x", nodes=sc.nodes + sc.nodes, boundaries=[],
                     start=(0, 0), goal=(1, 0), ego_speed=1, ego_radius=0.1,
                     time_limit=10)

    def test_node_states_include_virtual_walls(self):
        sc = simple_scenario()
        states = sc.node_states_at(0.0)
        kinds = {s.kind for s in states}
        assert NodeKind.VIRTUAL in kinds
        ids = [s.id for s in states]
        assert len(ids) == len(set(ids))

    def test_node_states_exclude_virtual_on_request(self):
        sc = simple_scenario()
        states = sc.node_states_at(0.0, include_virtual=False)
        assert all(s.kind is not NodeKind.VIRTUAL for s in states)
        assert len(states) == 2

    def test_virtual_nodes_placed_once(self, monkeypatch):
        calls = []
        real = scenario_module.generate_virtual_nodes

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scenario_module, "generate_virtual_nodes", counting)
        sc = simple_scenario()
        assert len(calls) == len(sc.boundaries)
        first = [s for s in sc.node_states_at(0.0) if s.kind is NodeKind.VIRTUAL]
        for t in (0.0, 1.0, 7.5):
            again = [s for s in sc.node_states_at(t) if s.kind is NodeKind.VIRTUAL]
            assert again == first
            assert len(again) == len(first)
        assert len(calls) == len(sc.boundaries)

    def test_replace_rebuilds_virtual_nodes(self):
        def virtual(sc):
            return [n for n in sc.node_states_at(0.0) if n.kind is NodeKind.VIRTUAL]

        sc = simple_scenario()
        wider = dataclasses.replace(sc, boundaries=[[(0, 0), (20, 0)]])
        assert [n.position for n in virtual(wider)] != \
            [n.position for n in virtual(sc)]
        fewer = dataclasses.replace(sc, nodes=sc.nodes[:1])
        assert min(n.id for n in virtual(fewer)) == 1

    def wall(self, length, ego_radius=0.5):
        data = simple_scenario().to_dict()
        data["boundaries"] = [[[0.0, 0.0], [length, 0.0]]]
        data["ego"]["radius"] = ego_radius
        return data

    def test_virtual_node_cap(self):
        # Spacing 0.9: an open wall of n intervals takes n + 1 nodes.
        cap = scenario_module.MAX_VIRTUAL_NODES
        at_cap = Scenario.from_dict(self.wall(0.9 * (cap - 1.5)))
        assert len([n for n in at_cap.node_states_at(0.0)
                    if n.kind is NodeKind.VIRTUAL]) == cap
        with pytest.raises(ScenarioFormatError, match="over"):
            Scenario.from_dict(self.wall(0.9 * (cap - 0.5)))

    def test_virtual_node_cap_spans_boundaries(self):
        cap = scenario_module.MAX_VIRTUAL_NODES
        data = self.wall(0.9 * (cap / 2 - 0.5))  # cap / 2 + 1 nodes each
        data["boundaries"].append([[0.0, 8.0], [0.9 * (cap / 2 - 0.5), 8.0]])
        with pytest.raises(ScenarioFormatError, match="boundary 1"):
            Scenario.from_dict(data)

    def test_zero_ego_radius_with_walls_is_named(self):
        with pytest.raises(ScenarioFormatError, match="ego radius 0"):
            Scenario.from_dict(self.wall(10.0, ego_radius=0.0))

    def test_roundtrip_through_json(self, tmp_path):
        sc = simple_scenario()
        f = tmp_path / "scene.json"
        sc.save(f)
        back = Scenario.load(f)
        assert back.to_dict() == sc.to_dict()

    def test_load_rejects_bad_json(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        with pytest.raises(ScenarioFormatError):
            Scenario.load(f)

    # ``True`` and "12" are no numbers, though ``float`` takes both.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "12"])
    @pytest.mark.parametrize("where", [
        lambda d, v: d["nodes"][0]["waypoints"][1].update(x=v),
        lambda d, v: d["nodes"][0]["waypoints"][0].update(t=v),
        lambda d, v: d["nodes"][1].update(radius=v),
        lambda d, v: d["boundaries"][0][1].__setitem__(1, v),
        lambda d, v: d["start"].__setitem__(0, v),
        lambda d, v: d["goal"].__setitem__(1, v),
        lambda d, v: d["ego"].update(speed=v),
        lambda d, v: d["ego"].update(radius=v),
        lambda d, v: d.update(time_limit=v),
    ])
    def test_from_dict_rejects_non_finite_numbers(self, where, bad):
        data = simple_scenario().to_dict()
        where(data, bad)
        with pytest.raises(ScenarioFormatError):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("point", [[1.0], [1.0, 2.0, 3.0], 1.0, "12", {"x": 1.0}])
    @pytest.mark.parametrize("where, field", [
        (lambda d, p: d.update(start=p), "start"),
        (lambda d, p: d.update(goal=p), "goal"),
        (lambda d, p: d["boundaries"][1].__setitem__(0, p), "boundary point"),
    ])
    def test_from_dict_rejects_points_not_of_two_numbers(self, where, field, point):
        data = simple_scenario().to_dict()
        where(data, point)
        with pytest.raises(ScenarioFormatError, match=f"{field} must be a point"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("scenario_id", [None, 7, True, ["t"]])
    def test_from_dict_rejects_non_string_ids(self, scenario_id):
        data = simple_scenario().to_dict()
        data["id"] = scenario_id
        with pytest.raises(ScenarioFormatError, match="scenario id must be a string"):
            Scenario.from_dict(data)

    def test_from_dict_loads_json_integers_as_floats(self):
        data = simple_scenario().to_dict()
        data["nodes"][1]["radius"], data["start"], data["time_limit"] = 1, [1, 4], 20
        sc = Scenario.from_dict(data)
        assert (sc.nodes[1].radius, sc.start, sc.time_limit) == (1.0, (1.0, 4.0), 20.0)
        assert all(type(v) is float for v in (sc.nodes[1].radius, *sc.start, sc.time_limit))

    def test_load_rejects_nan_in_json(self, tmp_path):
        # Python's json module reads the NaN literal.
        f = tmp_path / "nan.json"
        text = json.dumps(simple_scenario().to_dict()).replace('"radius": 0.3', '"radius": NaN')
        assert "NaN" in text
        f.write_text(text)
        with pytest.raises(ScenarioFormatError):
            Scenario.load(f)

    @pytest.mark.parametrize("version", [0, 2, 99, "99", 1.5, True])
    def test_from_dict_rejects_other_schema_versions(self, version):
        data = simple_scenario().to_dict()
        data["schema_version"] = version
        with pytest.raises(ScenarioFormatError, match="schema_version"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("node_id", [2.7, 2.0, "2", True])
    def test_from_dict_rejects_non_integer_node_ids(self, node_id):
        data = simple_scenario().to_dict()
        data["nodes"][0]["id"] = node_id
        with pytest.raises(ScenarioFormatError, match="node id must be an integer"):
            Scenario.from_dict(data)

    def test_from_dict_rejects_an_ego_node(self):
        # The ego is no node of the scene: as one, it would count as an obstacle.
        data = generate_synthetic(0).to_dict()
        data["nodes"][0]["kind"] = "ego"
        with pytest.raises(ScenarioFormatError, match="malformed scenario"):
            Scenario.from_dict(data)

    def test_load_rejects_missing_fields(self, tmp_path):
        f = tmp_path / "partial.json"
        f.write_text(json.dumps({"id": "x", "nodes": []}))
        with pytest.raises(ScenarioFormatError):
            Scenario.load(f)


def assert_table_at_matches_tracks(sc, times):
    """``table_at`` holds, bit for bit, each track's own position, velocity
    and radius in id order, then the ``generate_virtual_nodes`` points of
    every boundary with ids counting on from the largest track id, zero
    velocity and zero radius; ``node_states_at`` reads its rows."""
    tracks = sorted(sc.nodes, key=lambda tr: tr.id)
    walls = [p for b in sc.boundaries for p in generate_virtual_nodes(b, sc.virtual_spacing)]
    first_wall = max((tr.id for tr in tracks), default=-1) + 1
    for t in times:
        want = {
            "ids": np.array([tr.id for tr in tracks]
                            + list(range(first_wall, first_wall + len(walls))), dtype=np.int64),
            "xy": np.array([tr.position_at(t) for tr in tracks] + walls,
                           dtype=float).reshape(-1, 2),
            "vel": np.array([tr.velocity_at(t) for tr in tracks] + [(0.0, 0.0)] * len(walls),
                            dtype=float).reshape(-1, 2),
            "r": np.array([tr.radius for tr in tracks] + [0.0] * len(walls), dtype=float),
        }
        got = sc.table_at(t)
        for name, b in want.items():
            a = getattr(got, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (sc.id, t, name)
            assert a.tobytes() == b.tobytes(), (sc.id, t, name)
            assert not a.flags.writeable, (sc.id, t, name)
        rows = {i: row for row, i in enumerate(got.ids.tolist())}
        for n in sc.node_states_at(t):
            row = rows[n.id]
            assert (n.x, n.y, n.vx, n.vy) == (*got.xy[row], *got.vel[row]), (sc.id, t, n.id)
            assert n.r == got.r[row], (sc.id, t, n.id)


def waypoint_times(sc):
    """Every waypoint time, the midpoints between them, and times before the
    first waypoint and past the last."""
    ts = sorted({w[0] for tr in sc.nodes for w in tr.waypoints})
    return ts + [(a + b) / 2.0 for a, b in zip(ts, ts[1:])] + [ts[0] - 1.0, ts[-1] + 3.7]


class TestTableAt:
    @pytest.mark.parametrize("seed", range(12))
    def test_synthetic_matches_node_states(self, seed):
        sc = generate_synthetic(seed)
        assert_table_at_matches_tracks(sc, waypoint_times(sc))

    def test_hand_made_scene_matches_node_states(self):
        sc = Scenario(
            id="mixed",
            nodes=[
                ObjectTrack(id=9, kind=NodeKind.DYNAMIC, radius=0.3,
                            waypoints=[(1.0, 0.0, 0.0), (2.5, 3.0, 1.0), (4.0, 3.0, 5.0)]),
                ObjectTrack(id=2, kind=NodeKind.DYNAMIC, radius=0.2,
                            waypoints=[(0.0, 6.0, 6.0)]),  # one waypoint: parked
                ObjectTrack(id=5, kind=NodeKind.STATIC, radius=0.5,
                            waypoints=[(0.0, 8.0, 1.0)]),
                ObjectTrack(id=0, kind=NodeKind.DYNAMIC, radius=0.1,
                            waypoints=[(0.0, 9.0, 9.0), (3.0, 0.5, 7.0)]),
            ],
            boundaries=[],
            start=(0.5, 4.0), goal=(9.5, 4.0),
            ego_speed=1.0, ego_radius=0.25, time_limit=10.0,
        )
        assert sc.table_at(0.0).ids.tolist() == [0, 2, 5, 9]
        # Obstacles keep the order the scenario lists them in.
        assert sc.table_at(0.0).ids[sc.obstacle_rows].tolist() == [9, 2, 5, 0]
        assert_table_at_matches_tracks(sc, waypoint_times(sc))

    def test_hand_made_scene_with_walls_matches_tracks(self):
        sc = Scenario(
            id="walled",
            nodes=[
                ObjectTrack(id=7, kind=NodeKind.DYNAMIC, radius=0.3,
                            waypoints=[(0.0, 1.0, 1.0), (2.0, 3.0, 1.0)]),
                ObjectTrack(id=3, kind=NodeKind.STATIC, radius=0.5,
                            waypoints=[(0.0, 4.0, 4.0)]),
                ObjectTrack(id=5, kind=NodeKind.DYNAMIC, radius=0.2,
                            waypoints=[(1.0, 2.0, 5.0), (3.0, 2.0, 2.0), (4.0, 5.0, 2.0)]),
            ],
            boundaries=[[(0.0, 0.0), (10.0, 0.0)],  # open
                        [(0.0, 8.0), (10.0, 8.0), (10.0, 12.0), (0.0, 8.0)]],  # closed
            start=(0.5, 4.0), goal=(9.5, 4.0),
            ego_speed=1.0, ego_radius=0.4, time_limit=10.0,
        )
        ids = sc.table_at(0.0).ids.tolist()
        assert ids[:3] == [3, 5, 7] and ids[3:] == list(range(8, len(ids) + 5))
        assert_table_at_matches_tracks(sc, waypoint_times(sc))

    def test_all_static_scene_matches_node_states(self):
        # Criterion 7's scenes: every walker parked at its first waypoint.
        sc = generate_synthetic(1000)
        parked = dataclasses.replace(sc, nodes=[
            ObjectTrack(id=tr.id, kind=NodeKind.STATIC, radius=tr.radius,
                        waypoints=[tr.waypoints[0]]) for tr in sc.nodes])
        assert_table_at_matches_tracks(parked, [0.0, 0.05, 3.0, 40.0])

    def test_ids_and_radii_shared_between_tables(self):
        sc = generate_synthetic(0)
        a, b = sc.table_at(0.0), sc.table_at(1.0)
        assert a.ids is b.ids and a.r is b.r
        assert a.xy is not b.xy

    def test_node_states_keep_listed_order(self):
        sc = dataclasses.replace(simple_scenario(), nodes=simple_scenario().nodes[::-1])
        walls = [p for b in sc.boundaries for p in generate_virtual_nodes(b, sc.virtual_spacing)]
        for t in (0.0, 1.3):
            states = sc.node_states_at(t)
            assert [n.id for n in states] == [1, 0, *range(2, 2 + len(walls))]
            assert [n.position for n in states[2:]] == walls
            assert {n.kind for n in states[2:]} == {NodeKind.VIRTUAL}
            assert [n.position for n in states[:2]] == [tr.position_at(t) for tr in sc.nodes]
            assert sc.node_states_at(t, include_virtual=False) == states[:2]

    def test_obstacle_rows_skip_virtual_nodes(self):
        sc = simple_scenario()
        table = sc.table_at(0.0)
        states = sc.node_states_at(0.0, include_virtual=False)
        assert table.ids[sc.obstacle_rows].tolist() == [s.id for s in states]


class TestSyntheticGenerator:
    def test_deterministic_per_seed(self):
        a = generate_synthetic(3)
        b = generate_synthetic(3)
        assert a.to_dict() == b.to_dict()
        c = generate_synthetic(4)
        assert c.to_dict() != a.to_dict()

    def test_pedestrian_count_and_speed_ranges(self):
        params = SyntheticParams()
        for seed in range(10):
            sc = generate_synthetic(seed, params)
            walkers = [n for n in sc.nodes if n.kind is NodeKind.DYNAMIC]
            assert params.ped_count_min <= len(walkers) <= params.ped_count_max
            for w in walkers:
                (t0, x0, y0), (t1, x1, y1) = w.waypoints[0], w.waypoints[1]
                speed = math.hypot(x1 - x0, y1 - y0) / (t1 - t0)
                assert params.ped_speed_min - 1e-9 <= speed <= params.ped_speed_max + 1e-9
                # Crossing motion is perpendicular to the road.
                assert x1 == x0

    def test_walkers_stay_between_walls(self):
        params = SyntheticParams()
        sc = generate_synthetic(1, params)
        for n in sc.nodes:
            for t in [i * 0.5 for i in range(50)]:
                x, y = n.position_at(t)
                assert -0.01 <= y <= params.road_width + 0.01

    def test_task_geometry(self):
        params = SyntheticParams()
        sc = generate_synthetic(0, params)
        assert sc.start[0] < 1.0
        assert sc.goal[0] > params.road_length - 1.0
        assert sc.ego_speed == params.ego_speed
        assert sc.time_limit == params.time_limit
        assert len(sc.boundaries) == 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SyntheticParams(road_width=0)
        with pytest.raises(ValueError):
            SyntheticParams(ped_count_min=5, ped_count_max=3)
        with pytest.raises(ValueError):
            SyntheticParams(ped_speed_min=0)
        with pytest.raises(ValueError):
            SyntheticParams(ego_speed=-1)

    @pytest.mark.parametrize("field", ["ped_count_min", "ped_count_max"])
    @pytest.mark.parametrize("value", [True, 12.0, 1.5])
    def test_non_integer_pedestrian_counts_rejected(self, field, value):
        counts = {"ped_count_min": 1, "ped_count_max": 20, field: value}
        with pytest.raises(ValueError, match=field):
            SyntheticParams(**counts)

    @pytest.mark.parametrize("field, value", [("ego_radius", 0.0), ("road_length", 1.0),
                                              ("road_length", 0.5)])
    def test_params_the_generator_cannot_place_rejected(self, field, value):
        # A zero ego radius gives the wall nodes no spacing; a road of 1 m
        # or less puts the goal (0.5 m from its end) at or behind the start.
        with pytest.raises(ValueError, match=field):
            SyntheticParams(**{field: value})

    @pytest.mark.parametrize("width", [1.2, 1.0])
    def test_road_without_room_between_margins_rejected(self, width):
        # Walkers bounce between margins 0.6 m inside each wall; with no
        # room between the margins the generator would never stop.
        with pytest.raises(ValueError, match="road_width"):
            SyntheticParams(road_width=width)

    @pytest.mark.parametrize("field, value", [("road_width", 1.2 + 1e-6),
                                              ("time_limit", 1e9)])
    def test_too_many_bounces_rejected(self, monkeypatch, field, value):
        # Each wall-to-wall leg is a waypoint: these would take about 2e7 and
        # 9e7 per walker.  The parameters fail before any walker is placed.
        def unreachable(*args):
            raise AssertionError("generator ran")

        monkeypatch.setattr(scenario_module, "_bounce_waypoints", unreachable)
        with pytest.raises(ValueError, match=str(MAX_BOUNCES)):
            generate_synthetic(0, SyntheticParams(**{field: value}))

    def test_narrow_road_still_generates(self):
        sc = generate_synthetic(0, SyntheticParams(road_width=1.3))
        assert sum(n.kind is NodeKind.DYNAMIC for n in sc.nodes) == 16

    @pytest.mark.parametrize("field", ["road_length", "road_width", "ped_speed_min",
                                       "ped_speed_max", "ped_radius", "ego_speed",
                                       "ego_radius", "time_limit"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ValueError):
            SyntheticParams(**{field: value})

"""Scenario model, serialization and the synthetic generator."""
import dataclasses
import json
import math

import pytest

from trichannel import scenario as scenario_module
from trichannel.geometry import NodeKind
from trichannel.scenario import (ObjectTrack, Scenario, ScenarioFormatError,
                                 SyntheticParams, generate_synthetic)


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
            assert all(a is b for a, b in zip(first, again))
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
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

    def test_load_rejects_nan_in_json(self, tmp_path):
        # Python's json module reads the NaN literal.
        f = tmp_path / "nan.json"
        text = json.dumps(simple_scenario().to_dict()).replace('"radius": 0.3', '"radius": NaN')
        assert "NaN" in text
        f.write_text(text)
        with pytest.raises(ScenarioFormatError):
            Scenario.load(f)

    def test_load_rejects_missing_fields(self, tmp_path):
        f = tmp_path / "partial.json"
        f.write_text(json.dumps({"id": "x", "nodes": []}))
        with pytest.raises(ScenarioFormatError):
            Scenario.load(f)


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

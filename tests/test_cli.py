"""Command-line interface: argument handling, outputs, reproducibility."""
import csv
import dataclasses
import json
from pathlib import Path

import pytest

from trichannel import cli
from trichannel.cli import CSV_COLUMNS, main, run_batch
from trichannel.geometry import NodeKind
from trichannel.scenario import ObjectTrack, Scenario
from trichannel.simulate import MethodId, SimConfig


def small_scenario(path: Path, sid="cli-test"):
    sc = Scenario(
        id=sid,
        nodes=[ObjectTrack(id=0, kind=NodeKind.STATIC, radius=0.1,
                           waypoints=[(0.0, 5.0, 5.5)])],
        boundaries=[[(0.0, 0.0), (10.0, 0.0)], [(0.0, 6.0), (10.0, 6.0)]],
        start=(0.5, 3.0),
        goal=(9.5, 3.0),
        ego_speed=1.5,
        ego_radius=0.25,
        time_limit=15.0,
    )
    sc.save(path)
    return sc


class TestGenerate:
    def test_writes_requested_count(self, tmp_path):
        out = tmp_path / "scenes"
        rc = main(["generate", "--count", "3", "--seed", "11",
                   "--out-dir", str(out)])
        assert rc == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 3
        for f in files:
            Scenario.load(f)  # must parse

    def test_seeded_output_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--count", "2", "--seed", "5",
                     "--out-dir", str(a)]) == 0
        assert main(["generate", "--count", "2", "--seed", "5",
                     "--out-dir", str(b)]) == 0
        for fa, fb in zip(sorted(a.iterdir()), sorted(b.iterdir())):
            assert fa.read_bytes() == fb.read_bytes()

    def test_invalid_params_exit_code(self, tmp_path):
        rc = main(["generate", "--ped-min", "9", "--ped-max", "2",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("flags", [["--road-width", "nan"],
                                       ["--speed-min", "inf", "--speed-max", "inf"]])
    def test_non_finite_params_exit_code(self, tmp_path, caplog, flags):
        out = tmp_path / "x"
        assert main(["generate", *flags, "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "invalid generator parameters" in caplog.text

    def test_too_many_bounces_exit_code(self, tmp_path, caplog):
        out = tmp_path / "x"
        assert main(["generate", "--road-width", "1.2000001", "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "invalid generator parameters" in caplog.text

    def test_negative_count_exit_code(self, tmp_path, caplog):
        out = tmp_path / "x"
        assert main(["generate", "--count", "-2", "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "invalid --count" in caplog.text
        assert "wrote" not in caplog.text


class TestRun:
    def test_outputs_written(self, tmp_path):
        scene = tmp_path / "s.json"
        small_scenario(scene)
        out = tmp_path / "res"
        rc = main(["run", str(scene), "--methods", "astar",
                   "--out-dir", str(out)])
        assert rc == 0
        rows = list(csv.reader((out / "metrics.csv").open()))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 2
        assert rows[1][1] == "cli-test"
        assert rows[1][2] == "astar"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == 1
        assert "astar" in summary["methods"]

    def test_multiple_methods_sorted_rows(self, tmp_path):
        scene = tmp_path / "s.json"
        small_scenario(scene)
        out = tmp_path / "res"
        rc = main(["run", str(scene), "--methods", "astar,proposed",
                   "--out-dir", str(out)])
        assert rc == 0
        rows = list(csv.reader((out / "metrics.csv").open()))[1:]
        assert [r[2] for r in rows] == ["astar", "proposed"]

    def test_rerun_is_byte_identical(self, tmp_path):
        scene = tmp_path / "s.json"
        small_scenario(scene)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["run", str(scene), "--methods", "proposed,astar",
                         "--out-dir", str(out)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == \
            (out2 / "metrics.csv").read_bytes()

    def test_malformed_scenario_skipped(self, tmp_path):
        good = tmp_path / "good.json"
        small_scenario(good)
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out = tmp_path / "res"
        rc = main(["run", str(good), str(bad), "--methods", "astar",
                   "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == 1
        assert len(summary["skipped"]) == 1

    def test_other_schema_version_skipped(self, tmp_path):
        good, future = tmp_path / "good.json", tmp_path / "future.json"
        small_scenario(good)
        data = json.loads(good.read_text())
        data["schema_version"] = 99
        future.write_text(json.dumps(data))
        out = tmp_path / "res"
        rc = main(["run", str(good), str(future), "--methods", "astar",
                   "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == 1
        assert len(summary["skipped"]) == 1 and "schema_version" in summary["skipped"][0]

    def test_no_transmission_runs(self, tmp_path):
        scene = tmp_path / "s.json"
        small_scenario(scene)
        out = tmp_path / "res"
        rc = main(["run", str(scene), "--methods", "proposed", "--no-transmission",
                   "--out-dir", str(out)])
        assert rc == 0
        rows = list(csv.reader((out / "metrics.csv").open()))[1:]
        assert [r[2] for r in rows] == ["proposed"]

    def test_missing_file_reported(self, tmp_path):
        good = tmp_path / "good.json"
        small_scenario(good)
        out = tmp_path / "res"
        rc = main(["run", str(good), str(tmp_path / "nope.json"),
                   "--methods", "astar", "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert any("nope" in s for s in summary["skipped"])

    def test_skipped_files_listed_in_argument_order(self, tmp_path):
        good, bad, missing = (tmp_path / n for n in ("good.json", "bad.json", "nope.json"))
        small_scenario(good)
        bad.write_text("{broken")
        out = tmp_path / "res"
        rc = main(["run", str(good), str(bad), str(missing), "--methods", "astar",
                   "--out-dir", str(out)])
        assert rc == 0
        skipped = json.loads((out / "summary.json").read_text())["skipped"]
        assert [s.split(":")[0] for s in skipped] == [str(bad), str(missing)]

    def test_unknown_method_exit_code(self, tmp_path, caplog):
        scene = tmp_path / "s.json"
        small_scenario(scene)
        rc = main(["run", str(scene), "--methods", "dijkstra",
                   "--out-dir", str(tmp_path / "res")])
        assert rc == 2
        assert "invalid --methods" in caplog.text

    @pytest.mark.parametrize("spec", [",", "", " , ", "astar,astar", "proposed, astar,proposed"])
    def test_empty_or_repeated_methods_exit_code(self, tmp_path, caplog, spec):
        # An empty list wrote a header-only metrics.csv; a repeat ran each
        # scene twice and wrote duplicate rows.
        scene = tmp_path / "s.json"
        small_scenario(scene)
        out = tmp_path / "res"
        assert main(["run", str(scene), "--methods", spec, "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "invalid --methods" in caplog.text

    def test_each_file_read_once(self, tmp_path, monkeypatch):
        scene = tmp_path / "s.json"
        small_scenario(scene)
        loaded = []
        load = Scenario.load.__func__

        def counting_load(cls, path):
            loaded.append(path)
            return load(cls, path)

        monkeypatch.setattr(Scenario, "load", classmethod(counting_load))
        metrics, _, _ = run_batch([scene], [MethodId.ASTAR, MethodId.TIMED_ASTAR],
                                  SimConfig())
        assert [m.method for m in metrics] == ["astar", "timed_astar"]
        assert loaded == [scene]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_run_spares_the_batch(self, tmp_path, monkeypatch, workers):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        small_scenario(good, "good")
        small_scenario(bad, "bad")
        alone = tmp_path / "alone"
        assert main(["run", str(good), "--methods", "astar",
                     "--out-dir", str(alone)]) == 0
        load = Scenario.load.__func__

        def poisoning_load(cls, path):
            sc = load(cls, path)
            if path != bad:
                return sc
            return PoisonedScenario(**{f.name: getattr(sc, f.name)
                                       for f in dataclasses.fields(sc) if f.init})

        monkeypatch.setattr(Scenario, "load", classmethod(poisoning_load))
        out = tmp_path / "res"
        assert main(["run", str(good), str(bad), "--methods", "astar",
                     "--workers", str(workers), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["errors"] == ["bad/astar: RuntimeError: poisoned scene"]
        assert summary["runs"] == 1
        assert (out / "metrics.csv").read_bytes() == \
            (alone / "metrics.csv").read_bytes()


class PoisonedScenario(Scenario):
    """Loads like any scenario; every run of it raises."""

    def node_states_at(self, t, include_virtual=True):
        raise RuntimeError("poisoned scene")

    def table_at(self, t):
        raise RuntimeError("poisoned scene")


@pytest.mark.parametrize("flag", ["--max-segments", "--sample-resolution",
                                  "--passes", "--replan-interval"])
def test_non_positive_planner_flag_exit_code(tmp_path, caplog, flag):
    scene = tmp_path / "s.json"
    small_scenario(scene)
    out = tmp_path / "out"
    for command in ("run", "compare", "render"):
        assert main([command, str(scene), flag, "0", "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert caplog.text.count("invalid planner settings") == 3


@pytest.mark.parametrize("flag, value", [
    ("--replan-interval", "nan"), ("--replan-interval", "inf"),
    ("--sample-resolution", "nan"), ("--sample-resolution", "inf"),
    ("--tau-threshold", "nan"), ("--tau-threshold", "inf"),
    ("--padding", "-1"), ("--padding", "nan"), ("--padding", "inf"),
    ("--width-threshold", "-1"), ("--width-threshold", "nan"),
    ("--alpha", "nan"), ("--alpha", "inf"), ("--beta", "nan"), ("--beta", "inf"),
])
def test_non_finite_or_negative_planner_flag_exit_code(tmp_path, caplog, flag, value):
    scene = tmp_path / "s.json"
    small_scenario(scene)
    out = tmp_path / "out"
    for command in ("run", "compare", "render"):
        assert main([command, str(scene), f"{flag}={value}", "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert caplog.text.count("invalid planner settings") == 3


def test_planner_flag_defaults_are_the_config_defaults():
    for command in (["run", "s.json"], ["compare", "s.json"], ["render", "s.json"]):
        assert cli._sim_config(cli.build_parser().parse_args(command)) == SimConfig()


def test_pool_no_larger_than_the_task_count(tmp_path, monkeypatch):
    scene = tmp_path / "s.json"
    small_scenario(scene)
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(cli, "Pool", SerialPool)
    metrics, _, errors = run_batch([scene], [MethodId.ASTAR, MethodId.TIMED_ASTAR],
                                   SimConfig(), workers=64)
    assert sizes == [2]
    assert [m.method for m in metrics] == ["astar", "timed_astar"]
    assert errors == []


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_non_positive_workers_exit_code(tmp_path, caplog, workers):
    scene = tmp_path / "s.json"
    small_scenario(scene)
    out = tmp_path / "out"
    for command in ("run", "compare"):
        assert main([command, str(scene), "--workers", workers,
                     "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert caplog.text.count("invalid --workers") == 2


class TestCompare:
    def test_prints_table_and_writes_outputs(self, tmp_path, capsys):
        scene = tmp_path / "s.json"
        small_scenario(scene)
        out = tmp_path / "res"
        rc = main(["compare", str(scene), "--out-dir", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        for name in ("astar", "proposed", "timed_astar"):
            assert name in printed
        assert (out / "metrics.csv").exists()

    def test_no_scenarios_exit_code(self, tmp_path):
        rc = main(["compare", str(tmp_path / "none.json"),
                   "--out-dir", str(tmp_path / "res")])
        assert rc == 2

    def test_all_malformed_exit_code(self, tmp_path, caplog):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out = tmp_path / "res"
        rc = main(["compare", str(bad), "--out-dir", str(out)])
        assert rc == 2
        assert "no scenario could be run" in caplog.text
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == 0
        assert len(summary["skipped"]) == 1

    def test_out_dir_is_a_file_exit_code(self, tmp_path, caplog):
        scene = tmp_path / "s.json"
        small_scenario(scene)
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["compare", str(scene), "--out-dir", str(out)])
        assert rc == 2
        assert "cannot write outputs" in caplog.text

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_unwritable_out_dir_simulates_nothing(self, tmp_path, caplog,
                                                  monkeypatch, command):
        scene = tmp_path / "s.json"
        small_scenario(scene)
        out = tmp_path / "taken"
        out.write_text("")
        calls = []
        monkeypatch.setattr(cli, "run_scenario", lambda *a: calls.append(a))
        rc = main([command, str(scene), "--out-dir", str(out / "sub")])
        assert rc == 2
        assert "cannot write outputs" in caplog.text
        assert calls == []


class TestRender:
    def test_frames_written(self, tmp_path):
        scene = tmp_path / "s.json"
        small_scenario(scene)
        out = tmp_path / "frames"
        rc = main(["render", str(scene), "--method", "proposed",
                   "--out-dir", str(out), "--frame-dt", "2.0"])
        assert rc == 0
        frames = list(out.glob("*.svg"))
        assert frames
        assert all(f.read_text().startswith("<svg") for f in frames)

    def test_bad_scenario_exit_code(self, tmp_path):
        rc = main(["render", str(tmp_path / "missing.json"),
                   "--out-dir", str(tmp_path / "frames")])
        assert rc == 2

    @pytest.mark.parametrize("frame_dt", ["0", "-0.5", "nan", "inf"])
    def test_non_positive_frame_dt_exit_code(self, tmp_path, caplog, frame_dt):
        scene = tmp_path / "s.json"
        small_scenario(scene)
        out = tmp_path / "frames"
        rc = main(["render", str(scene), "--out-dir", str(out),
                   "--frame-dt", frame_dt])
        assert rc == 2
        assert not out.exists()
        assert "invalid --frame-dt" in caplog.text

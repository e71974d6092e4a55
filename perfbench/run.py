"""Closed-loop benchmark of the channel-sequence planner.

    python3 perfbench/run.py --workload crossing --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36

One client drives ``simulate.run_scenario`` in closed loop: the ego
replans every 0.1 s of simulated time and the next ``plan()`` call starts
only when the previous one returns.  Each call is timed from outside by
wrapping ``simulate.plan``.  The program receives only ``Scenario``
objects, built here from ``--seed``.  Timings are CPU time of this
process, scaled by the speed of a fixed reference workload sampled along
the run (``calibrate.py``), so that the drift of a shared host cancels.  ``--trace 1`` splits the time into an
untraced pass and a traced pass over the same scenes and reports the
per-layer metrics of ``tracing.py``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md in this directory for the metrics and the workloads.
"""
from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from calibrate import REFERENCE_S, Speedometer
from tracing import Tracer, layer_metrics, ratio

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# name -> (methods run on every scene, whether pedestrians are frozen)
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], bool]] = {
    "crossing": (("proposed",), False),
    "crossing-baselines": (("astar", "timed_astar"), False),
    "parked": (("proposed",), True),
}
POOL_SIZE = 64  # scenes generated per seed; runs cycle through them
SCENE_SEED_STRIDE = 1000  # --seed n uses generate_synthetic(n * 1000 + i)
SETUP_REPEATS = 5
SETUP_REFERENCE_SAMPLES = 15  # taken before and after each set-up process
P99_BLOCK = 1000  # calls per block of the tail estimate (10 beyond each p99)

END_TO_END_UNITS = {
    "plan_ms_p50": "ms", "plan_ms_p99": "ms", "sim_s_per_s": "s/s",
    "setup_s": "s", "peak_rss_mb": "MB", "plan_ok_ratio": "ratio",
    "goal_progress": "ratio", "collision_free_rate": "ratio",
}


class _TimeUp(Exception):
    """Raised inside the loop when the measuring time is over."""


@dataclass
class Run:
    """One closed-loop scenario run of one method."""

    scene: object  # scenario.Scenario
    method: str
    latencies: List[float] = field(default_factory=list)  # CPU seconds per call
    walls: List[float] = field(default_factory=list)  # wall seconds per call
    starts: List[float] = field(default_factory=list)  # perf_counter at each call
    states: List[Tuple[float, Tuple[float, float]]] = field(default_factory=list)
    paths: int = 0  # calls that returned a path with finite points
    invalid: int = 0  # calls that returned a path with a non-finite point
    raised: int = 0
    metrics: object = None  # simulate.Metrics of a whole run
    error: Optional[str] = None
    aborted: bool = False
    start: float = 0.0
    wall_s: float = 0.0  # reference samples taken out of both
    cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.raised

    @property
    def whole(self) -> bool:
        return not self.aborted

    @property
    def scenario_id(self) -> str:
        return self.scene.id


def _import_planner():
    if not (SRC / "trichannel" / "__init__.py").is_file():
        sys.exit(f"perfbench: planner sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import trichannel
    if Path(trichannel.__file__).resolve().parent != SRC / "trichannel":
        sys.exit(f"perfbench: imported trichannel from {trichannel.__file__}, "
                 f"not from {SRC}")
    from trichannel import cli, simulate
    return trichannel, simulate, cli


def build_scenes(tc, seed: int, frozen: bool) -> list:
    """The seed's scene pool; ``frozen`` parks every pedestrian at t=0."""
    scenes = [tc.generate_synthetic(seed * SCENE_SEED_STRIDE + i)
              for i in range(POOL_SIZE)]
    if not frozen:
        return scenes
    return [replace(sc, id=f"{sc.id}-parked", nodes=[
        tc.ObjectTrack(id=t.id, kind=tc.NodeKind.STATIC, radius=t.radius,
                       waypoints=[t.waypoints[0]])
        for t in sc.nodes]) for sc in scenes]


def scenes_sha256(scenes: Sequence) -> str:
    blob = json.dumps([sc.to_dict() for sc in scenes], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def set_up(tc, simulate, workload: str, seed: int) -> list:
    """Scene generation plus one warm-up plan per method."""
    methods, frozen = WORKLOADS[workload]
    scenes = build_scenes(tc, seed, frozen)
    sc = scenes[0]
    cfg = simulate.SimConfig().sequencer_for(sc)
    for method in methods:
        simulate.plan(sc, simulate.MethodId(method), sc.start, 0.0, cfg)
    return scenes


def measure_setup_s(workload: str, seed: int) -> Tuple[float, List[float]]:
    """Median CPU time of fresh processes doing import plus set-up.

    Each time is scaled by reference samples taken right before and after
    its process.  Returns the median and the processes' wall times.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    speed = Speedometer()
    speed.warm_up()
    walls, times = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_REFERENCE_SAMPLES):
            speed.sample()
        before = _children_cpu_s()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - t0)
        cpu = _children_cpu_s() - before
        for _ in range(SETUP_REFERENCE_SAMPLES):
            speed.sample()
        around = speed.samples[-2 * SETUP_REFERENCE_SAMPLES:]
        times.append(cpu * REFERENCE_S / statistics.median(around))
    return statistics.median(times), walls


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _finite(path) -> bool:
    return bool(path.points) and all(
        math.isfinite(x) and math.isfinite(y) for x, y in path.points)


def run_pass(simulate, scenes: list, methods: Sequence[str], seconds: float,
             tracer: Optional[Tracer] = None) -> Tuple[List[Run], Speedometer]:
    """Closed-loop runs over ``scenes`` (cycling) for ``seconds``.

    The first run always finishes; later runs are cut when the time is
    over, and a cut run counts only for latency.  An exception out of one
    run is recorded with its name and the next run starts.  Reference
    samples are taken between plan calls, outside the timed calls.  Each
    call is timed in CPU time of this process and in wall time.
    """
    real_plan = simulate.plan
    real_run = simulate.run_scenario
    speed = Speedometer()
    speed.warm_up()
    tick = speed.tick
    if tracer is not None:
        real_run = tracer.span("simulate.loop", real_run)
        tick = tracer.span("trace.reference", tick)  # kept out of every layer
    clock, cpu = time.perf_counter, time.process_time
    runs: List[Run] = []
    deadline = math.inf

    def timed_plan(scenario, method, ego, t_now, cfg):
        if clock() >= deadline:
            raise _TimeUp
        tick()
        run = runs[-1]
        run.states.append((t_now, ego))
        t0, c0 = clock(), cpu()
        try:
            path = real_plan(scenario, method, ego, t_now, cfg)
        except Exception:
            run.raised += 1
            raise
        c1, t1 = cpu(), clock()
        run.latencies.append(c1 - c0)
        run.walls.append(t1 - t0)
        run.starts.append(t0)
        if path is not None:
            if _finite(path):
                run.paths += 1
            else:
                run.invalid += 1
        return path

    start = clock()
    simulate.plan = timed_plan
    try:
        i = 0
        while not runs or clock() < deadline:
            scene = scenes[i % len(scenes)]
            for method in methods:
                if runs and clock() >= deadline:
                    break
                run = Run(scene, method)
                runs.append(run)
                spent_wall, spent_cpu = speed.spent_wall_s, speed.spent_cpu_s
                run.start, c0 = clock(), cpu()
                try:
                    run.metrics = real_run(scene, simulate.MethodId(method))
                except _TimeUp:
                    run.aborted = True
                except Exception as exc:
                    run.error = f"{type(exc).__name__}: {exc}"
                run.cpu_s = cpu() - c0 - (speed.spent_cpu_s - spent_cpu)
                run.wall_s = clock() - run.start - (speed.spent_wall_s - spent_wall)
                if deadline == math.inf:
                    deadline = start + seconds
            i += 1
    finally:
        simulate.plan = real_plan
    speed.finish()
    return runs, speed


def scaled_latencies(runs: Sequence[Run], speed: Speedometer) -> List[float]:
    """Every plan call's CPU time in reference seconds, in call order."""
    return [x * speed.scale_at(t) for r in runs for t, x in zip(r.starts, r.latencies)]


def scaled_cpu(run: Run, speed: Speedometer) -> float:
    """The run's CPU time in reference seconds: each plan call scaled at
    its start, the rest of the loop at the run's midpoint."""
    plans = sum(x * speed.scale_at(t) for t, x in zip(run.starts, run.latencies))
    rest = run.cpu_s - sum(run.latencies)
    return plans + rest * speed.scale_at(run.start + run.wall_s / 2)


def outcome_csv(cli, runs: Sequence[Run]) -> bytes:
    """``metrics.csv`` as the CLI writes it for these runs, plus error lines."""
    done = sorted((r.metrics for r in runs if r.metrics is not None),
                  key=lambda m: (m.scenario_id, m.method))
    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp-", dir=ROOT) as tmp:
        csv_path, _ = cli.write_outputs(done, [], Path(tmp))
        data = csv_path.read_bytes()
    errors = io.StringIO()
    writer = csv.writer(errors)
    for r in runs:
        if r.error is not None:
            writer.writerow(["error", r.scenario_id, r.method, r.error])
    return data + errors.getvalue().encode()


def _progress(run: Run) -> float:
    if run.metrics is not None and run.metrics.completed:
        return 1.0
    if not run.states:
        return 0.0
    scene, ego = run.scene, run.states[-1][1]
    span = math.dist(scene.start, scene.goal)
    return min(1.0, max(0.0, 1.0 - math.dist(ego, scene.goal) / span))


def _clear_steps(run: Run) -> int:
    """Sampled steps in which the ego disc overlaps no obstacle disc."""
    scene = run.scene
    clear = 0
    for t, ego in run.states:
        nodes = scene.node_states_at(t, include_virtual=False)
        if all(math.dist(ego, (n.x, n.y)) >= scene.ego_radius + n.r for n in nodes):
            clear += 1
    return clear


def summarise(runs: List[Run], speed: Speedometer, dt: float
              ) -> Tuple[Dict[str, float], Dict]:
    """End-to-end metrics (setup and memory aside) and the outcome counts."""
    lat_ms = [x * 1e3 for x in scaled_latencies(runs, speed)]
    # The slowest calls hardly speed up when the host does (in 2 s windows
    # where the reference and the median call ran 40 % faster, the p99 call
    # ran about 10 % faster), so scaling them would credit them a speed-up
    # they did not get.  The tail is taken over CPU time as measured.
    cpu_ms = [x * 1e3 for r in runs for x in r.latencies]
    wall_ms = [x * 1e3 for r in runs for x in r.walls]
    sim_s = sum(r.states[-1][0] + dt for r in runs if r.states)
    attempted = sum(r.attempted for r in runs)
    ok = sum(r.paths for r in runs)
    whole = [r for r in runs if r.whole]
    steps = sum(len(r.states) for r in whole)
    finished = [r.metrics for r in whole if r.metrics is not None]
    metrics = {
        "plan_ms_p50": statistics.median(lat_ms),
        "plan_ms_p99": _p99(cpu_ms),
        "sim_s_per_s": sim_s / sum(scaled_cpu(r, speed) for r in runs),
        "plan_ok_ratio": ratio(ok, attempted),
        "goal_progress": statistics.fmean(_progress(r) for r in whole),
        "collision_free_rate": ratio(sum(_clear_steps(r) for r in whole), steps),
    }
    counts = {
        "plan_calls": attempted,
        "ok_paths": ok,
        "plan_samples": len(lat_ms),
        "scaled_plan_ms_p99": _p99(lat_ms),
        "wall_plan_ms_p50": statistics.median(wall_ms),
        "wall_plan_ms_p99": _p99(wall_ms),
        "wall_sim_s_per_s": sim_s / sum(r.wall_s for r in runs),
        "no_path": attempted - ok - sum(r.invalid + r.raised for r in runs),
        "raised": sum(r.raised for r in runs),
        "invalid_paths": sum(r.invalid for r in runs),
        "whole_runs": len(whole),
        "runs_per_min": 60.0 * len(whole) / sum(scaled_cpu(r, speed) for r in whole),
        "cut_runs": len(runs) - len(whole),
        "errored_runs": [f"{r.scenario_id}/{r.method}: {r.error}"
                         for r in runs if r.error],
        "completed": sum(m.completed for m in finished),
        "collided": sum(m.collided for m in finished),
        "steps_sampled": steps,
    }
    return metrics, counts


def _p99(values: List[float]) -> float:
    """99th percentile, as the median over consecutive blocks of calls.

    A burst of load from elsewhere on the host lands in one block, so it
    moves the median of the blocks' tails far less than a tail taken over
    the whole pass.  Under two blocks' worth of calls, the plain p99.
    """
    k = max(1, len(values) // P99_BLOCK)
    blocks = [values[i * len(values) // k:(i + 1) * len(values) // k] for i in range(k)]
    return statistics.median(
        statistics.quantiles(b, n=100, method="inclusive")[98] for b in blocks)


def host_record(tc) -> Dict[str, object]:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "trichannel": tc.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _common_prefix(a: List[Run], b: List[Run]) -> Tuple[List[Run], List[Run]]:
    n = 0
    while n < min(len(a), len(b)) and a[n].whole and b[n].whole:
        n += 1
    return a[:n], b[:n]


def run_workload(args) -> int:
    tc, simulate, cli = _import_planner()
    methods, _ = WORKLOADS[args.workload]
    if args.setup_only:
        set_up(tc, simulate, args.workload, args.seed)
        return 0

    setup = None
    if not args.trace:
        setup = measure_setup_s(args.workload, args.seed)
    scenes = set_up(tc, simulate, args.workload, args.seed)
    scene_hash = scenes_sha256(scenes)
    # Modules and the scene pool are long-lived; frozen, they stay out of
    # the full collections that the planner's own garbage triggers, which
    # otherwise land as 20 ms pauses on about 1 % of the calls.
    gc.collect()
    gc.freeze()

    layers = {}
    absent: List[str] = []
    if args.trace:
        plain, speed = run_pass(simulate, scenes, methods, args.seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced, traced_speed = run_pass(simulate, scenes, methods,
                                            args.seconds / 2, tracer)
        absent = tracer.absent + [f"site {s}" for s in tracer.missing_sites]
        plans = sum(len(r.latencies) + r.raised for r in traced)
        # Span times in reference time, at the traced pass's median speed.
        scale = REFERENCE_S / traced_speed.median_s()
        layers = {name: (value * scale if unit == "ms" else value, unit)
                  for name, (value, unit) in layer_metrics(tracer, plans).items()}
        # Same scenes, same call order: compare latency of the calls both
        # passes made.
        base = scaled_latencies(plain, speed)
        with_trace = scaled_latencies(traced, traced_speed)
        n = min(len(base), len(with_trace))
        layers["trace.overhead_ratio"] = (
            statistics.median(with_trace[:n]) / statistics.median(base[:n]), "ratio")
        layers["trace.plan_calls"] = (float(plans), "count")
        pa, pb = _common_prefix(plain, traced)
        hashes_agree = outcome_csv(cli, pa) == outcome_csv(cli, pb)
        runs = plain
    else:
        runs, speed = run_pass(simulate, scenes, methods, args.seconds)
        hashes_agree = True

    e2e, counts = summarise(runs, speed, simulate.SimConfig().dt)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if setup is not None:
        e2e["setup_s"] = setup[0]
    csv_bytes = outcome_csv(cli, [r for r in runs if r.whole])
    failed = (counts["raised"] + counts["invalid_paths"]
              + sum(1 for r in runs if r.error and not r.raised))
    correct = hashes_agree and counts["invalid_paths"] == 0

    used = sorted({r.scenario_id for r in runs})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "methods": list(methods),
        "host": host_record(tc),
        "scenes": {"pool": f"{scenes[0].id} .. {scenes[-1].id}", "count": len(scenes),
                   "sha256": scene_hash, "used": used},
        "setup_wall_samples_s": setup[1] if setup else None,
        "reference": {"reference_ms": REFERENCE_S * 1e3,
                      "samples": len(speed.samples),
                      "median_ms": speed.median_s() * 1e3,
                      "window_ms": speed.window_medians_ms(),
                      "spent_s": speed.spent_wall_s},
        "outcome": {**counts,
                    "completion_rate": ratio(counts["completed"], counts["whole_runs"]),
                    "collision_rate": ratio(counts["collided"], counts["whole_runs"]),
                    "plan_fail_ratio": ratio(counts["plan_calls"] - counts["ok_paths"],
                                             counts["plan_calls"]),
                    "metrics_csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
                    "traced_matches_untraced": hashes_agree},
        "absent": absent,
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, value in e2e.items():
        print(f"  {name:<22} {value:12.4f} {END_TO_END_UNITS[name]}")
    for name, (value, unit) in layers.items():
        print(f"  {name:<48} {value:12.4f} {unit}")
    print("outcome rows:")
    sys.stdout.write(csv_bytes.decode())
    print("record " + json.dumps(record, sort_keys=True))
    if args.trace:
        reported = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": counts["plan_calls"],
                      "failed": failed, "metrics": reported}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    merged: Dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                merged[f"{workload}/{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="scene set: generate_synthetic(seed * 1000 + i)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # timed child of --trace 0
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

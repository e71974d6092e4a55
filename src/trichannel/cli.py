"""Command-line entry point: generate | run | render | compare."""
from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from multiprocessing import Pool
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from .scenario import Scenario, ScenarioFormatError, SyntheticParams, generate_synthetic
from .sequencer import SequencerConfig
from .simulate import Metrics, MethodId, SimConfig, aggregate, run_scenario
from .transmission import TransmissionConfig

log = logging.getLogger("trichannel")

CSV_COLUMNS = [
    "schema_version",
    "scenario_id",
    "method",
    "completed",
    "completion_time",
    "cycles_attempted",
    "cycles_succeeded",
    "collision_count",
    "collided",
]
SUMMARY_SCHEMA_VERSION = 1


def _add_planner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=TransmissionConfig.alpha,
                        help="motion transmission proximity balance (m)")
    parser.add_argument("--beta", type=float, default=TransmissionConfig.beta,
                        help="motion transmission heading exponent")
    parser.add_argument("--passes", type=int, default=TransmissionConfig.passes,
                        help="motion transmission sweep count")
    parser.add_argument("--no-transmission", action="store_true",
                        help="disable motion information transmission")
    parser.add_argument("--sample-resolution", type=float,
                        default=SequencerConfig.sample_resolution,
                        help="event prediction time sampling step (s)")
    parser.add_argument("--width-threshold", type=float, default=None,
                        help="minimum edge clear width (m); default 2*ego_radius + 0.2")
    parser.add_argument("--padding", type=float, default=None,
                        help="funnel collision padding (m); default ego_radius + 0.1")
    parser.add_argument("--max-segments", type=int, default=SequencerConfig.max_segments,
                        help="channel sequence early-termination segment cap")
    parser.add_argument("--tau-threshold", type=float,
                        default=SequencerConfig.tau_threshold,
                        help="channel sequence planning horizon (s)")
    parser.add_argument("--replan-interval", type=float, default=SimConfig.replan_interval,
                        help="replanning cadence (s)")


def _sim_config(args: argparse.Namespace) -> Optional[SimConfig]:
    """The run settings from the planner flags; None, logged, when one is invalid."""
    try:
        # Checked even when ``--no-transmission`` leaves it unused.
        transmission = TransmissionConfig(alpha=args.alpha, beta=args.beta,
                                          passes=args.passes)
        planner = SequencerConfig(
            max_segments=args.max_segments,
            tau_threshold=args.tau_threshold,
            transmission=None if args.no_transmission else transmission,
            width_threshold=args.width_threshold,
            sample_resolution=args.sample_resolution,
            padding=args.padding,
        )
        return SimConfig(replan_interval=args.replan_interval, planner=planner)
    except ValueError as exc:
        log.error("invalid planner settings: %s", exc)
        return None


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        params = SyntheticParams(
            ped_count_min=args.ped_min,
            ped_count_max=args.ped_max,
            ped_speed_min=args.speed_min,
            ped_speed_max=args.speed_max,
            road_width=args.road_width,
        )
    except ValueError as exc:
        log.error("invalid generator parameters: %s", exc)
        return 2
    if args.count < 0:
        log.error("invalid --count: must be non-negative, got %s", args.count)
        return 2
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for i in range(args.count):
            scenario = generate_synthetic(args.seed + i, params)
            scenario.save(out_dir / f"{scenario.id}.json")
    except OSError as exc:
        log.error("cannot write scenarios to %s: %s", out_dir, exc)
        return 2
    log.info("wrote %d scenario files to %s", args.count, out_dir)
    return 0


def _metrics_row(m: Metrics) -> List:
    return [
        SUMMARY_SCHEMA_VERSION,
        m.scenario_id,
        m.method,
        int(m.completed),
        "" if m.completion_time is None else f"{m.completion_time:.6f}",
        m.cycles_attempted,
        m.cycles_succeeded,
        m.collision_count,
        int(m.collided),
    ]


def _run_task(scenario: Scenario, method: MethodId, cfg: SimConfig) -> Union[Metrics, str]:
    """The run's metrics, or ``scenario_id/method: ExcType: msg`` if it raised."""
    try:
        return run_scenario(scenario, method, cfg)
    except Exception as exc:  # one failed run must not lose the batch
        log.exception("run %s/%s failed", scenario.id, method.value)
        return f"{scenario.id}/{method.value}: {type(exc).__name__}: {exc}"


def run_batch(scenario_paths: Sequence[Path], methods: Sequence[MethodId],
              cfg: SimConfig, workers: int = 1
              ) -> Tuple[List[Metrics], List[str], List[str]]:
    """Run every (scenario, method) pair; missing and malformed files are skipped.

    Each file is read once, here; the tasks carry the loaded scenarios.
    Returns the metrics, the skipped files and the runs that raised.
    """
    scenarios: List[Scenario] = []
    skipped: List[str] = []
    for path in scenario_paths:
        try:
            scenarios.append(Scenario.load(path))
        except (ScenarioFormatError, OSError) as exc:
            log.warning("skipping %s: %s", path, exc)
            skipped.append(f"{path}: {exc}")

    tasks = [(sc, m, cfg) for sc in scenarios for m in methods]
    if workers > 1 and len(tasks) > 1:
        with Pool(min(workers, len(tasks))) as pool:
            results = pool.starmap(_run_task, tasks)
    else:
        results = [_run_task(*t) for t in tasks]
    metrics = sorted((r for r in results if isinstance(r, Metrics)),
                     key=lambda m: (m.scenario_id, m.method))
    errors = [r for r in results if isinstance(r, str)]
    return metrics, skipped, errors


def write_outputs(metrics: List[Metrics], skipped: List[str],
                  out_dir: Path, errors: Sequence[str] = ()) -> Tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "metrics.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for m in metrics:
            writer.writerow(_metrics_row(m))

    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "methods": aggregate(metrics) if metrics else {},
        "skipped": skipped,
        "errors": list(errors),
        "runs": len(metrics),
        "planner_latency": {
            m: {
                "mean": sum(x.planner_latency_mean for x in metrics if x.method == m)
                / max(1, sum(1 for x in metrics if x.method == m)),
                "max": max((x.planner_latency_max for x in metrics if x.method == m),
                           default=0.0),
            }
            for m in sorted({x.method for x in metrics})
        },
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return csv_path, summary_path


def _parse_methods(spec: str) -> List[MethodId]:
    """Methods of a comma-separated list; ValueError for none, an unknown or a repeat."""
    methods = [MethodId(s.strip()) for s in spec.split(",") if s.strip()]
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"need distinct known methods, got {spec!r}")
    return methods


def _run_and_write(args: argparse.Namespace,
                   methods: Sequence[MethodId]) -> Optional[List[Metrics]]:
    """Run the batch and write its outputs; None, logged, on an error.

    Missing and malformed files are skipped and listed in ``summary.json``.
    """
    paths = [Path(p) for p in args.scenarios]
    cfg = _sim_config(args)
    if cfg is None:
        return None
    if args.workers < 1:
        log.error("invalid --workers: must be at least 1, got %s", args.workers)
        return None
    out_dir = Path(args.out_dir)
    try:  # before simulating, so that a bad --out-dir costs no runs
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        log.error("cannot write outputs: %s", exc)
        return None
    metrics, skipped, errors = run_batch(paths, methods, cfg, workers=args.workers)
    try:
        csv_path, summary_path = write_outputs(metrics, skipped, out_dir, errors)
    except OSError as exc:
        log.error("cannot write outputs: %s", exc)
        return None
    log.info("wrote %s and %s", csv_path, summary_path)
    return metrics


def cmd_run(args: argparse.Namespace) -> int:
    try:
        methods = _parse_methods(args.methods)
    except ValueError as exc:
        log.error("invalid --methods: %s", exc)
        return 2
    return 0 if _run_and_write(args, methods) is not None else 2


def _format_summary_table(summary: dict) -> str:
    rows = ["method            completion  mean_time  plan_success  collision"]
    for method, agg in sorted(summary.items()):
        mean_time = agg["mean_completion_time"]
        success = agg["planning_success_rate"]
        rows.append(
            f"{method:<17} {agg['completion_rate']:>9.1%} "
            f"{'-' if mean_time is None else f'{mean_time:8.1f}s'} "
            f"{'-' if success is None else f'{success:11.1%}'} "
            f"{agg['collision_rate']:>9.1%}"
        )
    return "\n".join(rows)


def cmd_compare(args: argparse.Namespace) -> int:
    """``run`` with every method, then the per-method summary table."""
    metrics = _run_and_write(args, list(MethodId))
    if metrics is None:
        return 2
    if not metrics:
        log.error("no scenario could be run")
        return 2
    print(_format_summary_table(aggregate(metrics)))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from .render import render_run  # heavier import, only when needed

    try:
        scenario = Scenario.load(Path(args.scenario))
    except (ScenarioFormatError, OSError) as exc:
        log.error("cannot load %s: %s", args.scenario, exc)
        return 2
    cfg = _sim_config(args)
    if cfg is None:
        return 2
    if not 0 < args.frame_dt < math.inf:
        log.error("invalid --frame-dt: must be positive and finite, got %s", args.frame_dt)
        return 2
    try:
        frames = render_run(scenario, MethodId(args.method), Path(args.out_dir),
                            cfg, frame_dt=args.frame_dt)
    except OSError as exc:
        log.error("cannot write frames: %s", exc)
        return 2
    log.info("wrote %d frames to %s", len(frames), args.out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trichannel",
        description="Channel-sequence spatial constraints for motion planning "
                    "in dynamic environments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate synthetic scenario files")
    gen.add_argument("--count", type=int, default=200)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", default="scenarios")
    gen.add_argument("--ped-min", type=int, default=10)
    gen.add_argument("--ped-max", type=int, default=20)
    gen.add_argument("--speed-min", type=float, default=0.25)
    gen.add_argument("--speed-max", type=float, default=0.8)
    gen.add_argument("--road-width", type=float, default=10.0)
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run scenarios and write metrics")
    run.add_argument("scenarios", nargs="+")
    run.add_argument("--methods", default="proposed,timed_astar,astar")
    run.add_argument("--out-dir", default="results")
    run.add_argument("--workers", type=int, default=1)
    _add_planner_args(run)
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="run all methods and print a summary diff")
    cmp_.add_argument("scenarios", nargs="+")
    cmp_.add_argument("--out-dir", default="results")
    cmp_.add_argument("--workers", type=int, default=1)
    _add_planner_args(cmp_)
    cmp_.set_defaults(func=cmd_compare)

    ren = sub.add_parser("render", help="render a run to SVG frames")
    ren.add_argument("scenario")
    ren.add_argument("--method", default="proposed",
                     choices=[m.value for m in MethodId])
    ren.add_argument("--out-dir", default="frames")
    ren.add_argument("--frame-dt", type=float, default=0.5)
    _add_planner_args(ren)
    ren.set_defaults(func=cmd_render)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

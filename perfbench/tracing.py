"""Call-site tracing for the benchmark's traced run.

Wrappers replace the module attributes that the planner's call sites
resolve at run time (``sequencer.build_mesh`` and ``simulate.build_mesh``,
``events.incircle``, ...), so nothing in the planner changes.  A span
wrapper times its call and keeps a stack, so that a span's self time
excludes the spans it encloses.  A count wrapper only counts and adds no
span; its time stays in the caller's self time.  Work counts come from
arguments and return values.  A function that exists at none of its call
sites (renamed or removed by a refactor) is reported as absent and its
metrics read 0.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Site = Tuple[str, str]  # (module, attribute path such as "Scenario.node_states_at")
Observer = Callable[["Stat", tuple, dict, object, Optional[BaseException]], None]


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    counts: Counter = field(default_factory=Counter)  # work counts by name


@dataclass(frozen=True)
class Probe:
    name: str  # "<layer>.<function>"
    kind: str  # "span" or "count"
    sites: Tuple[Site, ...]
    observe: Optional[Observer] = None


def _observe_mesh(stat, args, kwargs, ret, exc):
    if ret is not None:
        stat.counts["triangles"] += len(ret.triangles)


def _observe_search(stat, args, kwargs, ret, exc):
    if exc is None and ret is None:
        stat.counts["none"] += 1
    elif ret is not None:
        stat.counts["channels"] += 1
        stat.counts["channel_len"] += len(ret)


def _observe_events(stat, args, kwargs, ret, exc):
    if ret is not None:
        stat.counts["hits"] += 1
    # The main scan's channel starts with the ego's own triangle (arrival
    # offset 0); the sequencer's prefix re-scan probes every kept triangle
    # over the full window, so its first offset is the window length.
    channel = args[0] if args else kwargs["channel"]
    if channel.etas and channel.etas[0] > 0:
        stat.counts["prefix_rescans"] += 1


def _observe_offsets(stat, args, kwargs, ret, exc):
    taus = args[4] if len(args) > 4 else kwargs["taus"]
    stat.counts["samples"] += taus.size


def _observe_sequence(stat, args, kwargs, ret, exc):
    if ret is None:
        return
    segments = getattr(ret, "segments", None)
    if segments is None:  # SequenceFailure names the 0-based failing cycle
        stat.counts["failures"] += 1
        stat.counts["cycles"] += ret.cycle + 1
        return
    stat.counts["sequences"] += 1
    stat.counts["cycles"] += len(segments)
    stat.counts["segments"] += len(segments)
    if ret.terminated == "max_segments":
        stat.counts["max_segments"] += 1


def _observe_funnel(stat, args, kwargs, ret, exc):
    if ret is None:
        stat.counts["fails"] += 1


_P = "trichannel."
SIM, SEQ, EVT = _P + "simulate", _P + "sequencer", _P + "events"

PROBES: Tuple[Probe, ...] = (
    Probe("simulate.plan", "span", ((SIM, "plan"),)),
    Probe("simulate.step", "count", ((SIM, "step"),)),
    Probe("scenario.node_states_at", "span",
          ((_P + "scenario", "Scenario.node_states_at"),)),
    Probe("sequencer.generate_sequence", "span", ((SIM, "generate_sequence"),),
          _observe_sequence),
    Probe("sequencer.subgoal", "span", ((SEQ, "subgoal"),)),
    Probe("mesh.build_mesh", "span", ((SEQ, "build_mesh"), (SIM, "build_mesh")),
          _observe_mesh),
    Probe("mesh.build_dual", "span", ((SEQ, "build_dual"), (SIM, "build_dual"))),
    Probe("mesh.locate", "span", ((SEQ, "locate"), (SIM, "locate"))),
    Probe("transmission.transmit", "span", ((SEQ, "transmit"),)),
    Probe("search.timed_astar", "span",
          ((SEQ, "timed_astar"), (SIM, "timed_astar")), _observe_search),
    Probe("search.astar", "span", ((SIM, "astar"),), _observe_search),
    Probe("events.compute_event_time", "span", ((SEQ, "compute_event_time"),),
          _observe_events),
    Probe("events.first_event_offset", "span", ((EVT, "first_event_offset"),),
          _observe_offsets),
    Probe("funnel.funnel", "span", ((SEQ, "funnel"), (SIM, "funnel")),
          _observe_funnel),
    Probe("geometry.incircle", "count", ((EVT, "incircle"),)),
    Probe("geometry.orient2d", "count",
          ((_P + "geometry", "orient2d"), (_P + "mesh", "orient2d"),
           (SEQ, "orient2d"), (_P + "funnel", "orient2d"))),
)

# Layers whose self time is summed per plan; geometry is counted only.
LAYERS = ("events", "mesh", "transmission", "search", "sequencer", "funnel",
          "scenario", "simulate")


def _resolve(site: Site):
    """(owner, attribute name), or None when the site no longer exists."""
    module, path = site
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Span and count wrappers feeding one table of per-function stats."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.absent: List[str] = []
        self.missing_sites: List[str] = []
        self._stack: List[float] = []  # child time of each open span

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def span(self, name: str, fn: Callable, observe: Optional[Observer] = None
             ) -> Callable:
        stat = self.stat(name)
        stack = self._stack
        clock = time.process_time  # CPU time, as the end-to-end timings

        def wrapper(*args, **kwargs):
            ret = exc = None
            stack.append(0.0)
            t0 = clock()
            try:
                ret = fn(*args, **kwargs)
                return ret
            except Exception as e:
                exc = e
                raise
            finally:
                dur = clock() - t0
                stat.calls += 1
                stat.self_s += dur - stack.pop()
                if stack:
                    stack[-1] += dur
                if observe is not None:
                    observe(stat, args, kwargs, ret, exc)

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        stat = self.stat(name)

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the call sites of every probe; restore the originals on exit."""
        undo = []
        try:
            for probe in PROBES:
                found = False
                for site in probe.sites:
                    target = _resolve(site)
                    if target is None:
                        self.missing_sites.append(".".join(site))
                        continue
                    owner, attr = target
                    original = getattr(owner, attr)
                    if probe.kind == "span":
                        wrapped = self.span(probe.name, original, probe.observe)
                    else:
                        wrapped = self.counter(probe.name, original)
                    setattr(owner, attr, wrapped)
                    undo.append((owner, attr, original))
                    found = True
                if not found:
                    self.absent.append(probe.name)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, plans: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass, normalised by ``plans``."""
    s = tracer.stat
    out: Dict[str, Tuple[float, str]] = {}

    def calls_ms(name: str, ms_key: str = "ms_per_plan") -> None:
        out[f"{name}.calls_per_plan"] = (ratio(s(name).calls, plans), "count")
        out[f"{name}.{ms_key}"] = (ratio(s(name).self_s * 1e3, plans), "ms")

    ev = "events.compute_event_time"
    calls_ms(ev)
    out[f"{ev}.hit_ratio"] = (ratio(s(ev).counts["hits"], s(ev).calls), "ratio")
    out[f"{ev}.prefix_rescans_per_plan"] = (
        ratio(s(ev).counts["prefix_rescans"], plans), "count")
    fo = "events.first_event_offset"
    calls_ms(fo)
    out[f"{fo}.samples_per_plan"] = (ratio(s(fo).counts["samples"], plans), "count")

    out["geometry.incircle.exact_calls_per_plan"] = (
        ratio(s("geometry.incircle").calls, plans), "count")
    out["geometry.orient2d.calls_per_plan"] = (
        ratio(s("geometry.orient2d").calls, plans), "count")

    calls_ms("mesh.build_mesh")
    out["mesh.build_mesh.triangles_per_call"] = (
        ratio(s("mesh.build_mesh").counts["triangles"], s("mesh.build_mesh").calls),
        "count")
    calls_ms("mesh.build_dual")
    calls_ms("mesh.locate")
    calls_ms("transmission.transmit")

    calls_ms("search.timed_astar")
    calls_ms("search.astar")
    searches = [s("search.timed_astar"), s("search.astar")]
    out["search.none_ratio"] = (
        ratio(sum(x.counts["none"] for x in searches), sum(x.calls for x in searches)),
        "ratio")
    out["search.channel_len_mean"] = (
        ratio(sum(x.counts["channel_len"] for x in searches),
               sum(x.counts["channels"] for x in searches)), "count")

    gs = "sequencer.generate_sequence"
    calls_ms(gs, "self_ms_per_plan")
    g = s(gs)
    out[f"{gs}.cycles_per_call"] = (ratio(g.counts["cycles"], g.calls), "count")
    out[f"{gs}.segments_mean"] = (
        ratio(g.counts["segments"], g.counts["sequences"]), "count")
    out[f"{gs}.max_segments_ratio"] = (ratio(g.counts["max_segments"], g.calls), "ratio")
    out[f"{gs}.failure_ratio"] = (ratio(g.counts["failures"], g.calls), "ratio")
    calls_ms("sequencer.subgoal")

    calls_ms("funnel.funnel")
    out["funnel.funnel.fail_ratio"] = (
        ratio(s("funnel.funnel").counts["fails"], s("funnel.funnel").calls), "ratio")

    calls_ms("scenario.node_states_at")
    out["simulate.plan.self_ms_per_plan"] = (
        ratio(s("simulate.plan").self_s * 1e3, plans), "ms")
    out["simulate.loop.self_ms_per_step"] = (
        ratio(s("simulate.loop").self_s * 1e3, s("simulate.step").calls), "ms")

    for layer in LAYERS:
        self_s = sum(st.self_s for name, st in tracer.stats.items()
                     if name.startswith(layer + "."))
        out[f"{layer}.self_ms_per_plan"] = (ratio(self_s * 1e3, plans), "ms")
    return out

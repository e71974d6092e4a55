"""Every call site that the benchmark's tracer wraps still resolves.

``perfbench/tracing.py`` wraps module attributes such as
``trichannel.simulate.funnel``; a site that a refactor retires only zeroes
its per-layer metrics in a benchmark run.  This test makes it fail here.
The tracer is loaded read-only: no bytecode is written next to it.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# The batched event kernel retired this probe.  The CI smoke run reads this
# set, and allows these sites and the probes left with no other site.
ALLOWED_ABSENT = {("trichannel.events", "first_event_offset")}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # ``dataclass`` looks its module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]


def test_every_probe_site_resolves(tracing):
    sites = [site for probe in tracing.PROBES for site in probe.sites]
    assert len(sites) > 20
    missing = [".".join(site) for site in sites
               if site not in ALLOWED_ABSENT and tracing._resolve(site) is None]
    assert missing == []


def test_a_retired_site_is_reported(tracing):
    assert tracing._resolve(("trichannel.simulate", "no_such_site")) is None
    assert tracing._resolve(("trichannel.simulate", "funnel")) is not None

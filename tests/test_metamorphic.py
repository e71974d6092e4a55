"""Metamorphic relations: a plan compared with the plan of a transformed
scene, bit for bit, with no recorded expected value.

Id relabel: node ids name nodes and break ties, and nothing else.  Mapping
every track id through a strictly increasing function keeps the order of
the table rows and every tie, so each plan must come out the same.
"""
from dataclasses import replace

import pytest

from trichannel.scenario import generate_synthetic
from trichannel.simulate import MethodId, SimConfig, plan_detailed

PLAN_TIMES = range(18)  # s


def relabelled(sc):
    """``sc`` with every track id mapped through id -> 3 id + 5."""
    return replace(sc, nodes=[replace(tr, id=3 * tr.id + 5) for tr in sc.nodes])


def plan_bits(sc, method, t):
    """The path's points and each segment's cut time, triangle ids and
    subgoal, for one cold plan from the start at time ``t``.  A float's
    ``repr`` round-trips, so equal strings mean equal bits."""
    sc.plan_start = None
    result = plan_detailed(sc, method, sc.start, float(t), SimConfig().sequencer_for(sc))
    path = None if result.path is None else repr(result.path.points)
    return path, [repr((s.t_end, list(s.tri_ids), s.subgoal)) for s in result.segments]


@pytest.mark.parametrize("seed", range(6))
def test_monotone_id_relabel_keeps_every_plan(seed):
    sc = generate_synthetic(seed)
    other = relabelled(sc)
    assert other.table_at(0.0).ids.tolist() != sc.table_at(0.0).ids.tolist()
    paths = 0
    for method in MethodId:
        for t in PLAN_TIMES:
            want = plan_bits(sc, method, t)
            assert plan_bits(other, method, t) == want, (method.value, t)
            paths += want[0] is not None
    assert paths > len(MethodId) * len(PLAN_TIMES) // 2

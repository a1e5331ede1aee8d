import pytest

import pipeforge as pf
from pipeforge.expr import Ref

from conftest import build_running


def resolved(xor_delay=0, with_e=False):
    return pf.resolve_direct_backward(
        pf.balance_merges(build_running(xor_delay, with_e)))


def test_raw_plan_has_no_chain_requirement():
    plan = pf.apply_protocol(resolved(), pf.Protocol.RAW)
    assert plan.protocol is pf.Protocol.RAW
    assert plan.total_latency == 2
    assert plan.depths["xor"] == 2


def test_ready_valid_plan_chain_length():
    plan = pf.apply_protocol(resolved(xor_delay=2), pf.Protocol.READY_VALID)
    assert plan.total_latency == 4
    assert plan.depths["_init_"] == 0


def test_ready_valid_rejects_multiple_output_zones():
    b = pf.pipe_new([("x", 8)], "t")
    b1 = b.split("b1")
    b.add_step(b1, pf.StepBody.reg("s1", [("q1", 8, Ref("x"))]))
    b.add_step(b.main, pf.StepBody.reg("s2", [("q2", 8, Ref("x"))]))
    b.drive_output([("o1", "q1")], branch=b1)
    b.drive_output([("o2", "q2")])
    g = pf.resolve_direct_backward(pf.balance_merges(b.build()))
    pf.apply_protocol(g, pf.Protocol.RAW)  # raw tolerates several sinks
    with pytest.raises(pf.MultiOutputBackpressureError):
        pf.apply_protocol(g, pf.Protocol.READY_VALID)


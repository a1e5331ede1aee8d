import pytest

import pipeforge as pf

from conftest import build_running, golden_running


def lowered(xor_delay=0, with_e=False, resolver=pf.resolve_direct_backward,
            policy=None, protocol=pf.Protocol.RAW):
    g = resolver(pf.balance_merges(build_running(xor_delay, with_e)))
    return pf.lower(g, pf.apply_protocol(g, protocol), policy)


def test_combinational_result_after_latency():
    nl = lowered()
    stim = pf.Stimulus(cycles=8, inputs=[{}, {"x": 3, "y": 5}])
    trace = pf.simulate(nl, stim)
    # applied at cycle 1 after one reset cycle, visible 2 cycles later
    assert trace.samples[3]["z_out"] == golden_running(3, 5) == 4


def test_delay_variant_arrives_two_cycles_later():
    nl = lowered(xor_delay=2)
    trace = pf.simulate(nl, pf.Stimulus(
        cycles=10, inputs=[{}, {"x": 3, "y": 5}]))
    assert trace.samples[4]["z_out"] != 4 or trace.samples[3]["z_out"] != 4
    assert trace.samples[5]["z_out"] == 4


def test_measured_latency():
    assert pf.measured_latency(lowered()) == 2
    assert pf.measured_latency(lowered(xor_delay=2)) == 4
    assert pf.measured_latency(
        lowered(xor_delay=2, with_e=True, policy=pf.direct_fifo(3, 3))) == 4
    # the one output path runs through a FIFO deeper than the warm-up margin
    b = pf.pipe_new([("x", 8), ("e", 4)], "fifo_only")
    b.add_step(b.main, pf.StepBody.delay(
        "d", 20, [("z", 8, pf.Not(pf.Ref("x")))]))
    b.drive_output([("e_out", "e")])
    g = pf.resolve_direct_backward(pf.balance_merges(b.build()))
    nl = pf.lower(g, pf.apply_protocol(g, pf.Protocol.RAW), pf.direct_fifo(3, 3))
    assert nl.cell_counts()["fifo"] == 2
    assert pf.measured_latency(nl) == 20


def test_passthrough_latency_zero():
    b = pf.pipe_new([("x", 8)], "t")
    b.drive_output([("x_out", "x")])
    g = pf.resolve_direct_backward(pf.balance_merges(b.build()))
    nl = pf.lower(g, pf.apply_protocol(g, pf.Protocol.RAW))
    assert pf.measured_latency(nl) == 0


def test_stimulus_guards():
    with pytest.raises(pf.SimulationError):
        pf.Stimulus(cycles=1, reset_cycles=2)
    with pytest.raises(pf.SimulationError):
        pf.simulate(lowered(), pf.Stimulus(cycles=4, watch=("no_such_net",)))


def test_reset_clears_state():
    nl = lowered()
    t = pf.simulate(nl, pf.Stimulus(
        cycles=6, inputs=[{"x": 9, "y": 9}] * 2, reset_cycles=2))
    # values applied during reset never reach the registers
    assert all(s["z_out"] == 0 for s in t.samples[:4])


def test_watch_exposes_internal_nets():
    nl = lowered(xor_delay=2, with_e=True, policy=pf.direct_fifo(3, 3))
    counter = next(n for n in nl.nets if n.endswith("__read_start"))
    t = pf.simulate(nl, pf.Stimulus(cycles=8, watch=(counter,)))
    vals = [s[counter] for s in t.samples]
    assert vals[1:5] == [3, 2, 1, 0]  # startup countdown after reset
    assert all(v == 0 for v in vals[5:])
    # stage 2 of e's four-deep register chain is e two cycles late
    nl = lowered(xor_delay=2, with_e=True)
    es = [3, 7, 1, 9, 4, 6, 2, 5]
    t = pf.simulate(nl, pf.Stimulus(cycles=len(es), watch=("xor__e__d2",),
                                    inputs=[{"e": e} for e in es]))
    assert [s["xor__e__d2"] for s in t.samples] == [0, 0, 0, 7, 1, 9, 4, 6]


def test_fifo_and_register_traces_cycle_identical():
    reg = lowered(xor_delay=2, with_e=True)
    fifo = lowered(xor_delay=2, with_e=True, policy=pf.direct_fifo(3, 3))
    inputs = [{"x": (7 * c) & 0xFF, "y": (c * c) & 0xFF, "e": c & 0xF}
              for c in range(40)]
    ta = pf.simulate(reg, pf.Stimulus(cycles=40, inputs=inputs))
    tb = pf.simulate(fifo, pf.Stimulus(cycles=40, inputs=inputs))
    for sa, sb in zip(ta.samples, tb.samples):
        assert sa["z_out"] == sb["z_out"] and sa["e_out"] == sb["e_out"]


def test_ready_valid_accepted_stream_order():
    nl = lowered(xor_delay=2, protocol=pf.Protocol.READY_VALID)
    data = [{"x": k + 1, "y": 2 * k + 1} for k in range(10)]
    ready = [0] + [1, 0, 1, 1, 0, 0, 1] * 10
    per_cycle = []
    k = 0
    for r in ready:
        per_cycle.append(dict(data[k]) if k < len(data) else {"in_valid": 0})
        if r and k < len(data):
            k += 1
    t = pf.simulate(nl, pf.Stimulus(
        cycles=len(ready), inputs=per_cycle, sink_ready=ready))
    assert [o["z_out"] for o in t.accepted_outputs] == [
        golden_running(d["x"], d["y"]) for d in data[:len(t.accepted_outputs)]]
    assert len(t.accepted_outputs) >= 6


def test_equivalence_self_and_cross():
    a = lowered(xor_delay=2, with_e=True)
    b = lowered(xor_delay=2, with_e=True, policy=pf.direct_fifo(3, 3))
    c = lowered(xor_delay=2, with_e=True, protocol=pf.Protocol.READY_VALID)
    assert pf.check_equivalence(a, a, trials=1, cycles=80).ok
    assert pf.check_equivalence(a, b, trials=2, cycles=120).ok
    assert pf.check_equivalence(a, c, trials=2, cycles=120).ok


def test_equivalence_detects_fault():
    a = lowered(with_e=True)
    bad = lowered(with_e=True)
    for cell in bad.cells:
        if getattr(cell, "out", None) == "e_out":
            cell.expr = pf.expr.Not(cell.expr)
    verdict = pf.check_equivalence(a, bad, trials=1, cycles=80)
    assert not verdict.ok
    assert "differs" in verdict.detail


def test_equivalence_port_mismatch():
    with pytest.raises(pf.PortMismatchError):
        pf.check_equivalence(lowered(), lowered(with_e=True), trials=1)


def test_trace_serialization():
    nl = lowered()
    t = pf.simulate(nl, pf.Stimulus(cycles=4, inputs=[{}, {"x": 3, "y": 5}]))
    csv = t.to_csv()
    assert csv.splitlines()[0] == "cycle,x,y,z_out"
    assert csv.splitlines()[2].startswith("1,3,5,")
    vcd = t.to_vcd()
    assert "$var wire 16" in vcd and "#3" in vcd


def test_fifo_overflow_raises():
    from pipeforge.netlist import FifoCell
    nl = lowered(xor_delay=2, with_e=True, policy=pf.direct_fifo(3, 3))
    for cell in nl.cells:
        if isinstance(cell, FifoCell):
            # force the read side off: writes every cycle must overflow
            read_driver = nl.drivers()[cell.read_en]
            read_driver.expr = pf.expr.Const(0, 1)
    with pytest.raises(pf.SimulationError):
        pf.simulate(nl, pf.Stimulus(cycles=20))


def test_register_feedback_has_no_latency():
    from pipeforge.netlist import CombCell, DelayCell
    # q <- delay(q xor not x): q toggles every cycle while x is 0
    nl = pf.Netlist("toggle", inputs=[("x", 1)], outputs=[("q", 1)],
                    nets={"x": 1, "d": 1, "q": 1})
    nl.cells = [CombCell("d", pf.BinOp("xor", pf.Ref("q"), pf.Not(pf.Ref("x")))),
                DelayCell("q", "d", 1, 1)]
    nl.check()
    with pytest.raises(pf.SimulationError, match="feeds back"):
        pf.measured_latency(nl)


def test_deep_ready_valid_stream_gets_every_output():
    b = pf.pipe_new([("x", 8)], "deep")
    prev = "x"
    for i in range(32):
        b.add_step(b.main, pf.StepBody.delay(f"s{i}", 2, [
            (f"v{i}", 8, pf.BinOp("add", pf.Ref(prev), pf.Const(i + 1, 8)))]))
        prev = f"v{i}"
    b.drive_output([("out", prev)])
    g = pf.resolve_direct_backward(pf.balance_merges(b.build()))
    nl = pf.lower(g, pf.apply_protocol(g, pf.Protocol.READY_VALID))
    assert g.depths()["s31"] == 64
    # 200 cycles at a low ready duty hold fewer ready cycles than the depth
    verdict = pf.check_equivalence(nl, nl, trials=2, cycles=200)
    assert verdict.ok, verdict.detail


def test_width_errors_raise_when_evaluated_or_simulated():
    from pipeforge.netlist import CombCell
    widths = {"s": 1, "a": 8, "b": 4}
    values = {"s": 1, "a": 3, "b": 2}
    bad = [pf.Mux(pf.Ref("s"), pf.Ref("a"), pf.Ref("b")),
           pf.Slice(8, 0, pf.Ref("a"))]
    for expr in bad:
        with pytest.raises(pf.WidthMismatchError):
            expr.eval(values, widths)
        nl = pf.Netlist("bad", inputs=[("s", 1), ("a", 8), ("b", 4)],
                        outputs=[("o", 8)], nets={**widths, "o": 8},
                        cells=[CombCell("o", expr)])
        with pytest.raises(pf.WidthMismatchError):
            pf.simulate(nl, pf.Stimulus(cycles=2))

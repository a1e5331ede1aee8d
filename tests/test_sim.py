import random
from dataclasses import replace

import pytest

import oracle
import pipeforge as pf

from conftest import build_running, golden_running


def lowered(xor_delay=0, with_e=False, resolver=pf.resolve_direct_backward,
            policy=None, protocol=pf.Protocol.RAW):
    g = resolver(pf.balance_merges(build_running(xor_delay, with_e)))
    return pf.lower(g, pf.apply_protocol(g, protocol), policy)


def _replace_driver(nl, net, **changes):
    """``nl`` rebuilt with ``net``'s driver changed by ``changes``."""
    old = nl.drivers[net]
    return replace(nl, cells=[replace(c, **changes) if c is old else c
                              for c in nl.cells])


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
    with pytest.raises(pf.SimulationError, match="must not be negative"):
        pf.Stimulus(cycles=-1, reset_cycles=-2)
    with pytest.raises(pf.SimulationError, match="must not be negative"):
        pf.Stimulus(cycles=4, reset_cycles=-1)
    with pytest.raises(pf.SimulationError, match="sink_ready lists 2 of 6"):
        pf.Stimulus(cycles=6, sink_ready=[1, 1])
    rv = lowered(protocol=pf.Protocol.READY_VALID)
    trace = pf.simulate(rv, pf.Stimulus(cycles=2, sink_ready=[1, 1]))
    assert len(trace.samples) == 2
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
    bad = _replace_driver(a, "e_out", expr=pf.Not(a.drivers["e_out"].expr))
    verdict = pf.check_equivalence(a, bad, trials=1, cycles=80)
    assert not verdict.ok
    assert "differs" in verdict.detail


def test_equivalence_port_mismatch():
    with pytest.raises(pf.PortMismatchError):
        pf.check_equivalence(lowered(), lowered(with_e=True), trials=1)


@pytest.mark.parametrize("trials", [0, -3])
def test_equivalence_needs_a_trial(trials):
    # no trial compares nothing, on the term path and the simulated one
    for protocol in pf.Protocol:
        nl = lowered(protocol=protocol)
        with pytest.raises(pf.SimulationError, match="needs a trial"):
            pf.check_equivalence(nl, nl, trials=trials)


def test_trace_serialization():
    nl = lowered()
    t = pf.simulate(nl, pf.Stimulus(cycles=4, inputs=[{}, {"x": 3, "y": 5}]))
    csv = t.to_csv()
    assert csv.splitlines()[0] == "cycle,x,y,z_out"
    assert csv.splitlines()[2].startswith("1,3,5,")
    vcd = t.to_vcd()
    assert "$var wire 16" in vcd and "#3" in vcd


def test_fifo_overflow_raises():
    nl = lowered(xor_delay=2, with_e=True, policy=pf.direct_fifo(3, 3))
    for fifo in nl.fifos:
        # force the read side off: writes every cycle must overflow
        nl = _replace_driver(nl, fifo.read_en, expr=pf.expr.Const(0, 1))
    with pytest.raises(pf.SimulationError):
        pf.simulate(nl, pf.Stimulus(cycles=20))


def test_register_feedback_has_no_latency():
    from pipeforge.netlist import CombCell, DelayCell
    # q <- delay(q xor not x): q toggles every cycle while x is 0
    nl = pf.Netlist("toggle", inputs=[("x", 1)], outputs=[("q", 1)],
                    nets={"x": 1, "d": 1, "q": 1},
                    cells=[CombCell("d", pf.BinOp("xor", pf.Ref("q"),
                                                  pf.Not(pf.Ref("x")))),
                           DelayCell("q", "d", 1)])
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
    # 200 cycles at a low ready duty hold fewer ready cycles than the depth;
    # the terms decide the pair, so the simulation is asked on its own too
    from pipeforge.sim import _Compiled, _equivalence, _stream_latency
    assert pf.check_equivalence(nl, nl, trials=2, cycles=200).ok
    sim = _Compiled(nl)
    verdict = _equivalence(sim, _stream_latency(sim, 0), _Compiled(nl), 2, 0,
                           200)
    assert verdict.ok, verdict.detail


def test_width_errors_raise_when_evaluated_or_simulated():
    # a netlist holding one is rejected when it is built, before any call
    from pipeforge.netlist import CombCell
    widths = {"s": 1, "a": 8, "b": 4}
    bad = [pf.Mux(pf.Ref("s"), pf.Ref("a"), pf.Ref("b")),
           pf.Slice(8, 0, pf.Ref("a"))]
    for expr in bad:
        with pytest.raises(pf.WidthMismatchError):
            expr.width(widths)
        with pytest.raises(pf.WidthMismatchError):
            pf.Netlist("bad", inputs=[("s", 1), ("a", 8), ("b", 4)],
                       outputs=[("o", 8)], nets={**widths, "o": 8},
                       cells=[CombCell("o", expr)])


def test_fifo_underflow_raises():
    from pipeforge.netlist import FifoCell
    nl = lowered(xor_delay=2, with_e=True, policy=pf.direct_fifo(3, 3))
    fifo = next(c for c in nl.cells if isinstance(c, FifoCell))
    # reading from the first enabled cycle on, before anything was written
    nl = _replace_driver(nl, fifo.read_en, expr=pf.expr.Const(1, 1))
    with pytest.raises(pf.SimulationError, match="read while empty"):
        pf.simulate(nl, pf.Stimulus(cycles=4))


def test_vcd_identifiers_beyond_94_ports():
    ports = [f"p{i}" for i in range(200)]
    trace = pf.Trace(ports, {p: 4 for p in ports},
                     samples=[{p: i % 16 for i, p in enumerate(ports)}])
    ids = [line.split()[3] for line in trace.to_vcd().splitlines()
           if line.startswith("$var")]
    assert len(set(ids)) == len(ports)
    assert all("!" <= ch <= "~" for code in ids for ch in code)
    assert ids[:3] == ["!", '"', "#"]  # the first 94 stay one character


def _expr_netlist(expr, widths):
    """One combinational output ``o`` over the inputs in ``widths``."""
    from pipeforge.netlist import CombCell
    w = expr.width(widths)
    return pf.Netlist("e", inputs=list(widths.items()), outputs=[("o", w)],
                      nets={**widths, "o": w}, cells=[CombCell("o", expr)])


def _random_expr(rng, widths, depth):
    """A width-correct random expression over every operator, with the forms
    the simulator compiles apart: runs of equal ``cat`` parts, alone and
    mixed, shifts by 0 and slices up to the top bit."""
    names = sorted(widths)
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            w = rng.randint(1, 12)
            return pf.Const(rng.randrange(1 << w), w)
        return pf.Ref(rng.choice(names))
    kind = rng.choice(["add", "sub", "mul", "xor", "and", "or", "not",
                       "shl", "shr", "mux", "slice", "cat", "run", "mixed",
                       "shift0", "top"])
    a = _random_expr(rng, widths, depth - 1)
    wa = a.width(widths)
    if kind in ("add", "sub", "mul", "xor", "and", "or"):
        return pf.BinOp(kind, a, _random_expr(rng, widths, depth - 1))
    if kind == "not":
        return pf.Not(a)
    if kind in ("shl", "shr"):
        return pf.Shift(kind, rng.randint(0, wa + 1), a)
    if kind == "shift0":
        return pf.Shift(rng.choice(("shl", "shr")), 0, a)
    if kind == "slice":
        lo = rng.randrange(wa)
        return pf.Slice(rng.randint(lo, wa - 1), lo, a)
    if kind == "top":  # full width half the time
        return pf.Slice(wa - 1, rng.choice((0, rng.randrange(wa))), a)
    if kind == "cat":
        return pf.Concat((a, _random_expr(rng, widths, depth - 1)))
    if kind == "run":  # 2 to 40 copies, fewer of a wide part
        return pf.Concat((a,) * rng.randint(2, max(2, min(40, 640 // wa))))
    b = _random_expr(rng, widths, depth - 1)
    if kind == "mixed":  # such as cat(a, a, b, a)
        return pf.Concat(tuple(rng.choice((a, b))
                               for _ in range(rng.randint(3, 6))))
    wb = b.width(widths)
    if wa > wb:
        a = pf.Slice(wb - 1, 0, a)
    elif wb > wa:
        b = pf.Slice(wa - 1, 0, b)
    sel = _random_expr(rng, widths, depth - 1)
    bit = rng.randrange(sel.width(widths))
    return pf.Mux(pf.Slice(bit, bit, sel), a, b)


def _check_against_eval(expr, widths, rng, cycles=12):
    # the benchmark's oracle, which never imports pipeforge, is the reference
    inputs = [{n: rng.randrange(1 << w) for n, w in widths.items()}
              for _ in range(cycles)]
    trace = pf.simulate(_expr_netlist(expr, widths),
                        pf.Stimulus(cycles, inputs))
    for given, sample in zip(inputs, trace.samples):
        assert sample["o"] == oracle._eval(expr.to_sexpr(), given,
                                           widths), expr


def test_compiled_expressions_match_eval():
    # the simulator compiles each cell on its own; a wrong operator, a
    # dropped mask or a wrong rewrite fails here
    rng = random.Random(7)
    widths = {"a": 8, "b": 16, "c": 1, "d": 5}
    for _ in range(300):
        _check_against_eval(_random_expr(rng, widths, 5), widths, rng)


def test_deep_expressions_simulate():
    # deeper than CPython's limit of 200 nested parentheses
    rng = random.Random(3)
    widths = {"a": 8, "b": 8, "s": 1}
    chain = pf.Ref("a")
    for i in range(300):
        op = ("add", "xor", "sub", "mul")[i % 4]
        chain = pf.BinOp(op, chain, pf.Ref("b")) if i % 5 else pf.Not(chain)
    muxes = pf.Ref("a")
    for i in range(300):
        muxes = pf.Mux(pf.Ref("s"), muxes, pf.Shift("shr", i % 3, pf.Ref("b")))
    wide = pf.Concat(tuple(pf.Slice(i % 8, i % 8, pf.Ref("a" if i % 3 else "b"))
                           for i in range(300)))
    copies = pf.Concat((pf.Ref("s"),) * 4096)
    for expr in (chain, muxes, wide, copies):
        _check_against_eval(expr, widths, rng)


def test_inputs_are_masked_to_their_ports():
    # a Verilog port keeps its low bits only, so the simulator does too
    nl = _expr_netlist(pf.Concat((pf.Ref("x"), pf.Ref("x"))), {"x": 4})
    sample, = pf.simulate(nl, pf.Stimulus(1, [{"x": 0x1f}])).samples
    assert sample == {"x": 0xf, "o": 0xff}
    rv = lowered(protocol=pf.Protocol.READY_VALID)
    trace = pf.simulate(rv, pf.Stimulus(
        cycles=4, inputs=[{"x": 3, "y": 5, "in_valid": 2}] * 4))
    assert [s["in_valid"] for s in trace.samples] == [0] * 4
    assert not trace.accepted_inputs


HOSTILE = ["x'\"\\\n", "__import__('os')", "\"); raise SystemExit(3) #",
           "{v}", "'''", "a b\tc", "\\n\\'", "é z"]


def _hostile_netlist(name, read_en):
    """A counter-started FIFO behind a delay line, every net renamed by
    ``name``."""
    from pipeforge.netlist import CombCell, CounterCell, DelayCell, FifoCell
    n = {k: name(k) for k in ("x", "s", "d", "d1", "f", "we", "re", "full",
                              "empty", "cnt", "zero", "o", "o2")}
    cells = [CombCell(n["s"], pf.BinOp("add", pf.Ref(n["x"]), pf.Const(3, 8))),
             DelayCell(n["d"], n["s"], 2, stages=(n["d1"],)),
             CounterCell(n["cnt"], n["zero"], 2),
             CombCell(n["we"], pf.Const(1, 1)),
             CombCell(n["re"], read_en(n)),
             FifoCell(n["f"], n["d"], 3, n["we"], n["re"], n["full"],
                      n["empty"]),
             CombCell(n["o"], pf.Ref(n["f"])),
             CombCell(n["o2"], pf.Not(pf.Ref(n["d1"])))]
    widths = {n[k]: 1 for k in ("we", "re", "full", "empty", "zero")}
    widths.update({n[k]: 8 for k in ("x", "s", "d", "d1", "f", "o", "o2")})
    widths[n["cnt"]] = 2
    return pf.Netlist("hostile", inputs=[(n["x"], 8)],
                      outputs=[(n["o"], 8), (n["o2"], 8)],
                      nets=widths, cells=cells), n


def test_hostile_net_names_simulate_like_plain_ones():
    # net names reach the generated code only as string literals, so names
    # that read as Python change nothing
    started = lambda n: pf.Ref(n["zero"])  # noqa: E731
    plain, _ = _hostile_netlist(lambda k: k, started)
    xs = [{"x": (37 * c) % 256} for c in range(16)]
    want = pf.simulate(plain, pf.Stimulus(16, xs, watch=tuple(plain.nets)))
    for i, bad in enumerate(HOSTILE):
        rename = lambda k, bad=bad, i=i: f"{bad}{k}{i}"  # noqa: E731
        nl, n = _hostile_netlist(rename, started)
        got = pf.simulate(nl, pf.Stimulus(
            16, [{n["x"]: x["x"]} for x in xs], watch=tuple(nl.nets)))
        assert [{k: s[n[k]] for k in n} for s in got.samples] == [
            {k: s[k] for k in n} for s in want.samples]


@pytest.mark.parametrize("bad", HOSTILE)
def test_hostile_net_names_in_fifo_errors(bad):
    rename = lambda k: f"{bad}{k}"  # noqa: E731
    never, n = _hostile_netlist(rename, lambda n: pf.Const(0, 1))
    with pytest.raises(pf.SimulationError) as full:
        pf.simulate(never, pf.Stimulus(12))
    assert str(full.value) == f"FIFO {n['f']!r} write while full"
    always, n = _hostile_netlist(rename, lambda n: pf.Const(1, 1))
    with pytest.raises(pf.SimulationError) as empty:
        pf.simulate(always, pf.Stimulus(12))
    assert str(empty.value) == f"FIFO {n['f']!r} read while empty"


def test_equivalence_compares_a_raw_output_named_out_valid():
    def netlist(expr):
        g = pf.resolve_direct_backward(pf.balance_merges(pf.graph_from_spec({
            "name": "hs", "inputs": [{"name": "x", "width": 1}],
            "outputs": [{"name": "out_valid", "from": "q"}],
            "steps": [{"name": "s", "kind": "reg", "defines": [
                {"name": "q", "width": 1, "expr": expr}]}]})))
        return pf.lower(g, pf.apply_protocol(g, pf.Protocol.RAW))

    plain, flipped = netlist("x"), netlist(["xor", "x", ["const", 1, 1]])
    assert pf.check_equivalence(plain, plain).ok
    assert not pf.check_equivalence(plain, flipped).ok


# -- the output cone ----------------------------------------------------------


def _port_columns(nl, trace):
    ports = [n for n, _ in nl.inputs + nl.outputs]
    return [{p: s[p] for p in ports} for s in trace.samples]


def test_unwatched_traces_match_fully_watched_ones(random_corpus):
    # only the output cone is compiled unless every net is watched, so the
    # two must agree on the ports wherever dead cells exist
    rng = random.Random(13)
    policies = [pf.direct_auto(), pf.direct_fifo(2, 1), pf.direct_force_srl()]
    for g in rng.sample(random_corpus, 10):
        b = pf.balance_merges(g)
        for resolver in (pf.resolve_direct_backward, pf.resolve_p2p_backward,
                         pf.resolve_exhaustive_forward):
            r = resolver(b)
            for protocol in pf.Protocol:
                plan = pf.apply_protocol(r, protocol)
                for policy in policies:
                    nl = pf.lower(r, plan, policy)
                    ins, _ = nl.data_ports()
                    stim = [{p: rng.randrange(1 << w) for p, w in ins}
                            | {"in_valid": rng.randrange(2)} for _ in range(30)]
                    ready = [rng.randrange(2) for _ in range(30)]
                    cone, full = (pf.simulate(nl, pf.Stimulus(
                        30, stim, ready, watch=watch))
                        for watch in ((), tuple(nl.nets)))
                    assert _port_columns(nl, cone) == _port_columns(nl, full)
                    assert cone.accepted_outputs == full.accepted_outputs


def _off_form(nl):
    """``nl`` with every FIFO's write enable rewritten to an equal value
    that neither form ``lower`` gives takes: ``1 | 0`` under raw,
    ``~full & tap`` under ready/valid."""
    from pipeforge.netlist import CombCell
    cells = {id(nl.drivers[c.write_en]): c for c in nl.fifos}
    rewritten = []
    for cell in nl.cells:
        fifo = cells.get(id(cell))
        if fifo is None:
            rewritten.append(cell)
        elif nl.protocol is pf.Protocol.RAW:
            rewritten.append(CombCell(cell.out, pf.BinOp(
                "or", pf.Const(1, 1), pf.Const(0, 1))))
        else:
            rewritten.append(CombCell(cell.out, pf.BinOp(
                "and", pf.Not(pf.Ref(fifo.full)), cell.expr.lhs)))
    return replace(nl, cells=rewritten)


def test_fifos_on_form_trace_like_checked_ones(random_corpus):
    # a started or aligned FIFO runs on a delay ring unless its flags are
    # reached; the same FIFO with an equal write enable off that form is a
    # checked queue, and the two must trace alike, on the ports and on
    # every net, flags included
    from pipeforge.netlist import fifo_started, fifo_taps
    from pipeforge.sim import _Compiled
    rng = random.Random(22)
    policies = [pf.direct_fifo(2, 1), pf.direct_fifo(4, 8)]
    fifos = 0
    for g in rng.sample(random_corpus, 10):
        b = pf.balance_merges(g)
        for resolver in (pf.resolve_direct_backward, pf.resolve_p2p_backward,
                         pf.resolve_exhaustive_forward):
            r = resolver(b)
            for protocol in pf.Protocol:
                plan = pf.apply_protocol(r, protocol)
                form = (fifo_started if protocol is pf.Protocol.RAW
                        else fifo_taps)
                for policy in policies:
                    nl = pf.lower(r, plan, policy)
                    if not nl.fifos:
                        continue
                    off = _off_form(nl)
                    assert all(form(c, nl.drivers) for c in nl.fifos)
                    assert not any(form(c, off.drivers) for c in off.fifos)
                    fifos += len(nl.fifos)
                    # every lowered FIFO is started or aligned: unwatched,
                    # each runs on a delay ring, and a watched flag makes
                    # its own FIFO a checked queue
                    assert not _Compiled(nl).queues
                    one = (nl.fifos[0].full,)
                    assert len(_Compiled(nl, one).queues) == 1
                    ins, _ = nl.data_ports()
                    cycles = 2 * plan.total_latency + 20
                    stim = [{p: rng.randrange(1 << w) for p, w in ins}
                            | {"in_valid": rng.randrange(2)}
                            for _ in range(cycles)]
                    ready = [rng.randrange(2) for _ in range(cycles)]
                    for watch in ((), one, tuple(nl.nets)):
                        want, got = (pf.simulate(x, pf.Stimulus(
                            cycles, stim, ready, watch=watch))
                            for x in (off, nl))
                        assert got.samples == want.samples
                        assert got.accepted_inputs == want.accepted_inputs
                        assert got.accepted_outputs == want.accepted_outputs
    assert fifos > 100


def _settled_every_cycle(nl):
    """``nl`` with every cell ``o = e`` rewritten ``o = e | (in_valid & 0)``:
    the same value and width, and every cell in the input cone."""
    from pipeforge.netlist import CombCell
    nothing = pf.BinOp("and", pf.Ref("in_valid"), pf.Const(0, 1))
    return replace(nl, cells=[
        CombCell(c.out, pf.BinOp("or", c.expr, nothing))
        if isinstance(c, CombCell) else c for c in nl.cells])


def test_stalled_cycles_trace_like_settled_ones(random_corpus):
    # a stalled ready/valid cycle re-settles only the input cone; the same
    # netlist with every cell read into that cone re-settles everything
    # every cycle, and the two must trace alike
    from pipeforge.sim import _Compiled
    rng = random.Random(25)
    rv = pf.Protocol.READY_VALID
    policies = [pf.direct_auto(), pf.direct_fifo(2, 1), pf.direct_fifo(4, 8)]
    split = 0
    for g in rng.sample(random_corpus, 8):
        b = pf.balance_merges(g)
        for resolver in (pf.resolve_direct_backward, pf.resolve_p2p_backward,
                         pf.resolve_exhaustive_forward):
            r = resolver(b)
            plan = pf.apply_protocol(r, rv)
            for policy in policies:
                nl = pf.lower(r, plan, policy)
                ref = _settled_every_cycle(nl)
                split += bool(_Compiled(nl).state_cone)
                ins, _ = nl.data_ports()
                cycles = 4 * plan.total_latency + 40
                stim = [{p: rng.randrange(1 << w) for p, w in ins}
                        | {"in_valid": rng.randrange(2)}
                        for _ in range(cycles)]
                for duty in (0.1, 0.5, 0.9):
                    ready = [int(rng.random() < duty) for _ in range(cycles)]
                    for watch in ((), tuple(nl.nets)):
                        want, got = (pf.simulate(x, pf.Stimulus(
                            cycles, stim, ready, watch=watch))
                            for x in (ref, nl))
                        assert got.samples == want.samples
                        assert got.accepted_inputs == want.accepted_inputs
                        assert got.accepted_outputs == want.accepted_outputs
    assert split > 50


def _stalled_register():
    """A ready/valid netlist whose output ``o = ~r`` reads only the
    register ``r`` of ``x``: the state cone, 0xf in the reset state."""
    from pipeforge.netlist import CombCell, DelayCell
    widths = {"x": 4, "in_valid": 1, "out_ready": 1, "o": 4, "in_ready": 1,
              "out_valid": 1, "enable": 1, "r": 4, "valid_0": 1}
    cells = [CombCell("enable", pf.Ref("out_ready")),
             CombCell("in_ready", pf.Ref("out_ready")),
             CombCell("valid_0", pf.Ref("in_valid")),
             DelayCell("out_valid", "valid_0", 1),
             DelayCell("r", "x", 1),
             CombCell("o", pf.Not(pf.Ref("r")))]
    return pf.Netlist("stalled", inputs=[("x", 4), ("in_valid", 1),
                                         ("out_ready", 1)],
                      outputs=[("o", 4), ("in_ready", 1), ("out_valid", 1)],
                      nets=widths, cells=cells,
                      protocol=pf.Protocol.READY_VALID, enable="enable")


def test_state_cone_settles_after_a_stalled_reset():
    # three reset cycles with the sink stalled, then more stalls: each
    # sample of o is ~x of the last enabled cycle after reset, 0xf before
    from pipeforge.sim import _Compiled
    nl = _stalled_register()
    xs = [(5 * c + 3) % 16 for c in range(14)]
    ready = [0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0]
    stim = pf.Stimulus(len(xs), [{"x": x} for x in xs], ready,
                       reset_cycles=3, watch=("r",))
    want, r = [], 0
    for c, x in enumerate(xs):
        want.append(r ^ 0xF)
        if c >= 3 and ready[c]:
            r = x
    sim = _Compiled(nl, stim.watch)
    assert sim.state_cone  # o is not re-settled on a stalled cycle
    first = sim.run(stim)
    assert [s["o"] for s in first.samples] == want
    # a second run starts from the slots the first one left
    assert sim.run(stim) == first
    assert first == pf.simulate(_settled_every_cycle(nl), stim)


def test_a_tapped_fifo_that_fills_traces_like_a_checked_one():
    # taps from input ports fill and drain a 3-deep FIFO, which lowered
    # designs never do; the taps are not aligned, so the FIFO is a checked
    # queue, and on its form the enables must block and skip as the flags
    # in them say, without a check ever firing
    from pipeforge.netlist import CombCell, FifoCell, fifo_taps
    widths = {"x": 4, "a": 1, "b": 1, "f": 4, "we": 1, "re": 1, "full": 1,
              "empty": 1}

    def netlist(we):
        return pf.Netlist("taps", inputs=[("x", 4), ("a", 1), ("b", 1)],
                          outputs=[("f", 4)], nets=widths,
                          cells=[CombCell("we", we),
                                 CombCell("re", pf.BinOp(
                                     "and", pf.Ref("b"),
                                     pf.Not(pf.Ref("empty")))),
                                 FifoCell("f", "x", 3, "we", "re", "full",
                                          "empty")])

    on = netlist(pf.BinOp("and", pf.Ref("a"), pf.Not(pf.Ref("full"))))
    off = netlist(pf.BinOp("and", pf.Not(pf.Ref("full")), pf.Ref("a")))
    assert fifo_taps(on.fifos[0], on.drivers) == ("a", "b")
    assert fifo_taps(off.fifos[0], off.drivers) is None
    rng = random.Random(5)
    # writes outrun reads, then reads outrun writes
    stim = [{"x": rng.randrange(16), "a": int(rng.random() < p),
             "b": int(rng.random() < 1 - p)}
            for p in [0.8] * 30 + [0.2] * 30]
    for watch in ((), ("full", "empty", "we", "re")):
        want, got = (pf.simulate(x, pf.Stimulus(60, stim, watch=watch))
                     for x in (off, on))
        assert got.samples == want.samples
    assert any(s["full"] for s in got.samples)
    assert any(s["empty"] for s in got.samples[40:])


def _through_every_edge():
    """``o`` reads a FIFO fed from the first stage net of a delay line,
    read from a startup counter: x -> s -> d1 -> m -> f -> o.  The line's
    own output ``d`` and the FIFO's flags are read by nothing."""
    from pipeforge.netlist import CombCell, CounterCell, DelayCell, FifoCell
    widths = {"x": 8, "s": 8, "d": 8, "d1": 8, "d2": 8, "m": 8, "f": 8,
              "o": 8, "we": 1, "re": 1, "full": 1, "empty": 1, "cnt": 2,
              "zero": 1}
    cells = [CombCell("s", pf.BinOp("add", pf.Ref("x"), pf.Const(3, 8))),
             DelayCell("d", "s", 3, stages=("d1", "d2")),
             CombCell("m", pf.Not(pf.Ref("d1"))),
             CounterCell("cnt", "zero", 2),
             CombCell("we", pf.Const(1, 1)),
             CombCell("re", pf.Ref("zero")),
             FifoCell("f", "m", 3, "we", "re", "full", "empty"),
             CombCell("o", pf.Ref("f"))]
    return pf.Netlist("edges", inputs=[("x", 8)], outputs=[("o", 8)],
                      nets=widths, cells=cells)


def test_cone_walks_every_edge_kind():
    nl = _through_every_edge()
    xs = [(29 * c + 5) % 256 for c in range(24)]

    # by hand, in enabled cycles t since the one reset cycle
    def s(t):
        return (xs[t + 1] + 3) & 0xFF

    def m(t):
        return ~(s(t - 1) if t >= 1 else 0) & 0xFF

    # the FIFO's first read, at t = 2, is visible from t = 3 on
    want = [0] + [m(t - 3) if t >= 3 else 0 for t in range(len(xs) - 1)]
    for watch in ((), tuple(nl.nets)):
        trace = pf.simulate(nl, pf.Stimulus(len(xs), [{"x": x} for x in xs],
                                            watch=watch))
        assert [sample["o"] for sample in trace.samples] == want, watch
    assert pf.measured_latency(nl) == 4
    # the rule keeps each stage net's delay from its line's input
    assert dict(nl.stage_delays) == {"d1": 1, "d2": 2}
    # the settle-time walk reads the same index: a stage net k cycles after
    # the line's input, a FIFO capacity + 1 after its latest source
    from pipeforge.sim import _Compiled, _settle_time
    from pipeforge.terms import _timed_terms
    sim = _Compiled(nl)
    assert [_settle_time(sim, [n]) for n in ("s", "d1", "d2", "d", "m", "re",
                                             "o")] == [0, 1, 2, 3, 1, 2, 6]
    # and so do the timed terms, where the FIFO is a delay of its capacity
    terms = _timed_terms(nl, ["s", "d1", "d2", "d", "m", "o"], {})
    assert [shift for shift, _ in terms.values()] == [0, 1, 2, 3, 1, 4]


def test_terms_intern_their_cores_in_walk_order(random_corpus):
    # the walk takes the last net and the last source first, as
    # ``netlist.postorder`` does, so a netlist interns its cores in one
    # order, id for id
    from pipeforge.terms import _timed_terms

    def reading(i):
        return i, True, True

    cores = {}
    _timed_terms(_through_every_edge(), ["s", "d1", "d2", "d", "m", "o"], cores)
    assert list(cores) == [
        ("in", 8, "x", ()), ("const", 8, 3, ()),
        ("add", 8, None, (reading(0), (1, False, True))),
        ("not", 8, None, (reading(2),))]
    g = pf.resolve_direct_backward(pf.balance_merges(random_corpus[2]))
    nl = pf.lower(g, pf.apply_protocol(g, pf.Protocol.READY_VALID),
                  pf.direct_fifo(2, 1))
    assert len(nl.fifos) == 3
    cores = {}
    outs = [n for n, _ in nl.data_ports()[1]]
    assert _timed_terms(nl, outs + ["out_valid", "in_ready", "enable"],
                        cores) is not None
    assert list(cores) == [
        ("handshake", 1, "in_valid", ()), ("handshake", 1, "out_ready", ()),
        ("in", 7, "in0", ()), ("in", 3, "in2", ()), ("in", 2, "in1", ()),
        ("cat", 4, (2, 2), (reading(4), reading(4))),
        ("slice", 3, (2, 0), (reading(5),)),
        ("xor", 3, None, (reading(6), reading(3))),
        ("slice", 2, (1, 0), (reading(3),)),
        ("slice", 2, (2, 1), (reading(7),)),
        ("mul", 4, None, (reading(8), reading(9))),
        ("slice", 2, (1, 0), (reading(10),)),
        ("cat", 9, (3, 3, 3), (reading(7),) * 3),
        ("slice", 7, (6, 0), (reading(12),)),
        ("shl", 7, 2, (reading(13),)),
        ("cat", 8, (2, 2, 2, 2), (reading(11),) * 4),
        ("slice", 7, (6, 0), (reading(15),)),
        ("xor", 7, None, (reading(14), reading(16)))]


def test_terms_do_not_handle_a_loop_a_flag_or_a_counter():
    # each netlist is built, so it keeps the rule, and the terms give up on
    # it without raising: the walk comes back to a net through a delay
    # line, or reaches a FIFO's flag or a startup counter's count
    from pipeforge.netlist import CombCell, CounterCell, DelayCell, FifoCell
    from pipeforge.terms import _timed_terms
    x = pf.Ref("x")
    # a FIFO of 2 started by a counter of 1: the delay line of its capacity
    fifo = [CounterCell("cnt", "zero", 1), CombCell("we", pf.Const(1, 1)),
            CombCell("re", pf.Ref("zero")),
            FifoCell("f", "x", 2, "we", "re", "full", "empty")]
    fifo_nets = dict.fromkeys(("cnt", "zero", "we", "re", "f", "full",
                               "empty"), 1)

    def netlist(nets, cells, o):
        return pf.Netlist("unhandled", inputs=[("x", 1)], outputs=[("o", 1)],
                          nets={"x": 1, "o": 1, **nets},
                          cells=[*cells, CombCell("o", o)])

    loop = netlist({"a": 1, "d": 1},
                   [CombCell("a", pf.BinOp("xor", x, pf.Ref("d"))),
                    DelayCell("d", "a", 1)], pf.Ref("a"))
    flag = netlist(fifo_nets, fifo, pf.BinOp("xor", pf.Ref("f"),
                                             pf.Ref("full")))
    counter = netlist(fifo_nets, fifo, pf.BinOp("xor", x, pf.Ref("cnt")))
    for nl in (loop, flag, counter):
        assert _timed_terms(nl, ["o"], {}) is None
    # the started FIFO alone is handled, x two cycles on
    assert _timed_terms(netlist(fifo_nets, fifo, pf.Ref("f")), ["o"],
                        {})["o"] == (2, (0, True, True))


def _unread_fifo(read_en):
    """``o`` is ``~x``; a FIFO written every cycle and read when
    ``read_en`` says feeds nothing."""
    from pipeforge.netlist import CombCell, FifoCell
    widths = {"x": 4, "o": 4, "f": 4, "we": 1, "re": 1, "full": 1, "empty": 1}
    return pf.Netlist("unread", inputs=[("x", 4)], outputs=[("o", 4)],
                      nets=widths,
                      cells=[CombCell("o", pf.Not(pf.Ref("x"))),
                             CombCell("we", pf.Const(1, 1)),
                             CombCell("re", pf.Const(read_en, 1)),
                             FifoCell("f", "x", 3, "we", "re", "full",
                                      "empty")])


def test_unread_fifo_still_checks_its_occupancy():
    with pytest.raises(pf.SimulationError, match="'f' write while full"):
        pf.simulate(_unread_fifo(0), pf.Stimulus(cycles=8))
    with pytest.raises(pf.SimulationError, match="'f' read while empty"):
        pf.simulate(_unread_fifo(1), pf.Stimulus(cycles=8))
    # three writes fit: the fourth enabled cycle is the first to overflow
    trace = pf.simulate(_unread_fifo(0), pf.Stimulus(cycles=4,
                                                      inputs=[{"x": 5}] * 4))
    assert [sample["o"] for sample in trace.samples] == [10] * 4


def test_dead_cells_still_raise():
    # a cell no output reads is held to the netlist rule all the same: a dead
    # width error or combinational loop is refused when the netlist is built
    from pipeforge.netlist import CombCell

    def netlist(*dead):
        return pf.Netlist("dead", inputs=[("x", 4)], outputs=[("o", 4)],
                          nets={"x": 4, "o": 4, **{c.out: 4 for c in dead}},
                          cells=[CombCell("o", pf.Ref("x")), *dead])

    ok = netlist(CombCell("a", pf.Not(pf.Ref("x"))))
    assert pf.simulate(ok, pf.Stimulus(cycles=2)).samples
    assert pf.measured_latency(ok) == 0
    mux = pf.Mux(pf.Ref("x"), pf.Ref("x"), pf.Ref("x"))  # a 4-bit selector
    with pytest.raises(pf.WidthMismatchError,
                       match="^net 'a': mux selector must be 1 bit wide$"):
        netlist(CombCell("a", mux))
    with pytest.raises(pf.WidthMismatchError):
        _replace_driver(ok, "a", expr=mux)
    with pytest.raises(pf.PipeforgeError, match="combinational cycle"):
        netlist(CombCell("a", pf.Not(pf.Ref("b"))),
                CombCell("b", pf.Not(pf.Ref("a"))))


# -- timed terms ----------------------------------------------------------------


def _outputs(nl):
    return [n for n, _ in nl.outputs]


def test_terms_agree_with_the_simulator(random_corpus):
    # the grid above: every raw output term sits at the measured latency,
    # every ready/valid design decides with its outputs at the depth of
    # its valid chain, and a pair the terms call equal simulates alike
    from pipeforge.sim import _Compiled, _equivalence, _latency, _settle_time
    from pipeforge.terms import _timed_terms, output_terms as _output_terms
    rng = random.Random(13)
    policies = [pf.direct_auto(), pf.direct_fifo(2, 1), pf.direct_force_srl()]
    for g in rng.sample(random_corpus, 10):
        b = pf.balance_merges(g)
        cores = {}
        base = None
        for resolver in (pf.resolve_direct_backward, pf.resolve_p2p_backward,
                         pf.resolve_exhaustive_forward):
            r = resolver(b)
            for protocol in pf.Protocol:
                plan = pf.apply_protocol(r, protocol)
                for policy in policies:
                    nl = pf.lower(r, plan, policy)
                    sim = _Compiled(nl)
                    if protocol is pf.Protocol.RAW:
                        terms = _timed_terms(nl, _outputs(nl), cores)
                        assert terms is not None, g.name
                        latency = _latency(sim, 0)
                        shifts = {shift for shift, _ in terms.values()}
                    else:
                        terms = _output_terms(nl, cores)
                        assert terms is not None, g.name
                        latency = _settle_time(sim, ["out_valid"])
                        shifts = {shift for shift, core in terms if core[1]}
                    assert shifts == {latency}, g.name
                    if base is None:
                        base = sim, latency, _output_terms(nl, cores)
                        continue
                    assert _output_terms(nl, cores) == base[2], g.name
                    verdict = _equivalence(base[0], base[1], sim, 1, 0, 80)
                    assert verdict.ok, (g.name, verdict.detail)


def _mutable(protocol=pf.Protocol.RAW):
    """x - y one cycle on, xor x, through a 3-deep FIFO, and e through a
    4-deep one: a sub, a delay line on one of two paths and two FIFOs."""
    g = pf.resolve_direct_backward(pf.balance_merges(pf.graph_from_spec({
        "name": "mut",
        "inputs": [{"name": "x", "width": 8}, {"name": "y", "width": 8},
                   {"name": "e", "width": 4}],
        "outputs": [{"name": "q_out", "from": "q"},
                    {"name": "e_out", "from": "e"}],
        "steps": [{"name": "d", "kind": "reg", "defines": [
                      {"name": "diff", "width": 8, "expr": ["sub", "x", "y"]}]},
                  {"name": "m", "kind": {"delay": 3}, "defines": [
                      {"name": "q", "width": 8,
                       "expr": ["xor", "diff", "x"]}]}]})))
    return pf.lower(g, pf.apply_protocol(g, protocol), pf.direct_fifo(3, 3))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except pf.PipeforgeError as exc:
        return type(exc), str(exc)


def test_measured_latency_from_terms_matches_the_simulated_one(
        random_corpus, monkeypatch):
    # where the terms decide, the latency is read off them without
    # compiling, and is what the impulse simulation finds: the same value,
    # or an error of the same type and text
    from pipeforge import sim
    from pipeforge.netlist import CombCell, DelayCell
    rng = random.Random(13)
    policies = [pf.direct_auto(), pf.direct_fifo(2, 1), pf.direct_force_srl()]
    netlists = []
    for g in rng.sample(random_corpus, 10):  # the grid above, raw
        b = pf.balance_merges(g)
        for resolver in (pf.resolve_direct_backward, pf.resolve_p2p_backward,
                         pf.resolve_exhaustive_forward):
            r = resolver(b)
            plan = pf.apply_protocol(r, pf.Protocol.RAW)
            netlists += [pf.lower(r, plan, policy) for policy in policies]
    constant = _expr_netlist(pf.BinOp("xor", pf.Ref("x"), pf.Ref("x")),
                             {"x": 4})
    static = _expr_netlist(pf.Const(5, 4), {"x": 4})
    toggle = pf.Netlist("toggle", inputs=[("x", 1)], outputs=[("q", 1)],
                        nets={"x": 1, "d": 1, "q": 1},
                        cells=[CombCell("d", pf.BinOp("xor", pf.Ref("q"),
                                                      pf.Not(pf.Ref("x")))),
                               DelayCell("q", "d", 1)])
    # a draw of 2 leaves bit 0 clear, so seed 0's first two draws miss
    low_bit = _expr_netlist(pf.Slice(0, 0, pf.Ref("x")), {"x": 2})
    # each of these responds to no draw only because its op is masked
    x = pf.Ref("x")
    masked = [_expr_netlist(e, {"x": 4}) for e in (
        pf.BinOp("add", x, pf.BinOp("sub", pf.Const(0, 4), x)),
        pf.BinOp("sub", x, pf.BinOp("add", x, pf.Const(1, 4))),
        pf.BinOp("and", pf.Shift("shl", 2, x), pf.Const(48, 6)),
        pf.BinOp("and", pf.Slice(1, 0, x), pf.Const(12, 4)))]
    # and the low 4 bits of a multiple of 16 are 0
    masked.append(pf.Netlist(
        "mul", inputs=[("x", 8)], outputs=[("o", 8)],
        nets={"x": 8, "a": 8, "b": 4, "o": 8},
        cells=[CombCell("a", pf.Shift("shl", 4, x)),
               CombCell("b", pf.Slice(3, 0, pf.Ref("a"))),
               CombCell("o", pf.BinOp("mul", pf.Ref("b"), pf.Ref("b")))]))
    # a 1-bit not turns a draw of 1 into a 0 selector
    flip = _expr_netlist(pf.Mux(pf.Not(x), pf.Const(1, 2), pf.Const(2, 2)),
                         {"x": 1})
    netlists += [constant, static, toggle, low_bit, *masked, flip]
    decided = 0
    for nl in netlists:
        simulated = [_outcome(lambda: sim._latency(sim._Compiled(nl), seed))
                     for seed in range(4)]
        with monkeypatch.context() as m:
            if sim.output_terms(nl, {}) is not None:
                decided += 1
                m.setattr(sim, "_Compiled", None)  # nothing may compile
            assert [_outcome(pf.measured_latency, nl, seed)
                    for seed in range(4)] == simulated, nl.name
    assert decided == len(netlists) - 2  # all but static and toggle
    no_response = (pf.NoResponseError, "output never responded to any impulse")
    assert _outcome(pf.measured_latency, constant) == no_response
    assert _outcome(pf.measured_latency, static) == no_response
    assert "feeds back" in _outcome(pf.measured_latency, toggle)[1]
    assert [pf.measured_latency(low_bit, seed) for seed in range(4)] == [0] * 4
    for nl in masked:
        assert _outcome(pf.measured_latency, nl) == no_response
    assert pf.measured_latency(flip) == 0


def _swap_sub(nl):
    e = nl.drivers["d__diff__c"].expr
    return _replace_driver(nl, "d__diff__c",
                           expr=pf.BinOp("sub", e.rhs, e.lhs))


def _deepen_x(nl):
    return _replace_driver(nl, "d__x", depth=2, style="srl")


def _read_from_the_start(nl):
    return _replace_driver(nl, "m__e__re", expr=pf.Ref("m__e__we"))


def _simulated(a, b):
    """``check_equivalence``'s simulated path, whatever the terms say."""
    from pipeforge.sim import _Compiled, _equivalence, _stream_latency
    sim = _Compiled(a)
    return _equivalence(sim, _stream_latency(sim, 0), _Compiled(b), 4, 0, 400)


@pytest.mark.parametrize("mutate", [_swap_sub, _deepen_x,
                                    _read_from_the_start])
def test_mutations_change_terms_and_still_diverge(mutate):
    from pipeforge.terms import _timed_terms
    good, bad = _mutable(), mutate(_mutable())
    cores = {}
    assert _timed_terms(good, _outputs(good), cores) != _timed_terms(
        bad, _outputs(bad), cores)
    got = _outcome(pf.check_equivalence, good, bad)
    assert got == _outcome(_simulated, good, bad)
    assert isinstance(got, tuple) or not got.ok


def _valid_tap(nl, net, step):
    """Rewire ``net`` to the valid-chain net ``step`` stages from the one
    it reads."""
    e = nl.drivers[net].expr
    tap = (e.lhs if isinstance(e, pf.BinOp) else e).name
    moved = pf.Ref(f"valid_{int(tap.removeprefix('valid_')) + step}")
    return _replace_driver(nl, net, expr=pf.BinOp("and", moved, e.rhs)
                           if isinstance(e, pf.BinOp) else moved)


def _write_one_stage_later(nl):
    return _valid_tap(nl, "m__e__we", 1)


def _out_valid_one_tap_early(nl):
    return _valid_tap(nl, "out_valid", -1)


def _always_ready(nl):
    return _replace_driver(nl, "in_ready", expr=pf.Const(1, 1))


@pytest.mark.parametrize("mutate, diverges", [
    (_write_one_stage_later, True), (_out_valid_one_tap_early, True),
    # an in_ready that ignores out_ready takes inputs the frozen pipeline
    # drops, so the inputs taken are not the stream sent
    (_always_ready, True), (_swap_sub, True)])
def test_ready_valid_mutations_get_the_simulated_verdict(mutate, diverges):
    from pipeforge.terms import output_terms as _output_terms
    rv = pf.Protocol.READY_VALID
    good, bad = _mutable(rv), mutate(_mutable(rv))
    cores = {}
    assert _output_terms(good, cores) is not None
    assert _output_terms(good, cores) != _output_terms(bad, cores)
    for base in (good, _mutable()):
        got = _outcome(pf.check_equivalence, base, bad)
        assert got == _outcome(_simulated, base, bad)
        assert (isinstance(got, tuple) or not got.ok) == diverges


def _fifo_off_its_taps(nl):
    return _replace_driver(nl, "m__e__we", expr=pf.Ref("valid_0"))  # no ~full


def _taps_one_stage_too_far(nl):
    return _valid_tap(nl, "m__e__re", 1)


def _loop_through_a_delay(nl):
    return _replace_driver(nl, "d__x", inp="m__q__c")  # which reads d__x


def _width_error(nl):
    d, x = pf.Ref("d__diff"), pf.Ref("d__x")
    return _replace_driver(nl, "m__q__c", expr=pf.Mux(x, d, x))  # an 8-bit selector


def _e_out_reads(net):
    """``e_out`` xor ``net``, which an undeclared net is added as, 1 bit
    wide and undriven."""
    def mutate(nl):
        width = nl.nets.get(net, 1)
        read = pf.Ref(net)
        if width < 4:
            read = pf.Concat((pf.Const(0, 4 - width), read))
        e_out = nl.drivers["e_out"]
        return replace(nl, nets={net: width, **nl.nets}, cells=[
            replace(c, expr=pf.BinOp("xor", pf.Ref("m__e"), read))
            if c is e_out else c for c in nl.cells])
    return mutate


def _raw_with_an_enable(nl):
    from pipeforge.netlist import CombCell
    return replace(nl, nets={**nl.nets, "en": 1},
                   cells=nl.cells + (CombCell("en", pf.Const(1, 1)),),
                   enable="en")


@pytest.mark.parametrize("protocol, mutate, refused", [
    pytest.param(pf.Protocol.READY_VALID, _fifo_off_its_taps, None,
                 id="fifo_off_its_taps"),
    pytest.param(pf.Protocol.READY_VALID, _taps_one_stage_too_far, None,
                 id="taps_one_stage_too_far"),
    pytest.param(pf.Protocol.RAW, _loop_through_a_delay, None,
                 id="loop_through_a_delay"),
    pytest.param(pf.Protocol.RAW, _width_error,
                 "net 'm__q__c': mux selector must be 1 bit wide",
                 id="width_error"),
    pytest.param(pf.Protocol.RAW, _e_out_reads("m__e__full"), None,
                 id="reads_a_fifo_flag"),
    pytest.param(pf.Protocol.RAW, _e_out_reads("m__e__read_start"), None,
                 id="reads_a_counter"),
    pytest.param(pf.Protocol.RAW, _e_out_reads("floating"),
                 "net 'floating' has no driver", id="reads_an_undriven_net"),
    pytest.param(pf.Protocol.RAW, _raw_with_an_enable, None,
                 id="raw_with_an_enable")])
def test_netlists_the_terms_do_not_handle_are_simulated(protocol, mutate,
                                                         refused):
    from pipeforge.terms import output_terms as _output_terms
    if refused:
        # such a netlist cannot be built, so neither the terms nor the
        # simulator ever see it
        with pytest.raises(pf.PipeforgeError, match=f"^{refused}$"):
            mutate(_mutable(protocol))
        return
    good, bad = _mutable(protocol), mutate(_mutable(protocol))
    assert _output_terms(good, {}) is not None
    assert _output_terms(bad, {}) is None
    assert _outcome(pf.check_equivalence, good, bad) == _outcome(
        _simulated, good, bad)


def test_a_raw_fifo_off_its_start_form_is_not_started():
    from pipeforge.netlist import fifo_started
    nl = _mutable()
    fifo = nl.drivers["m__e"]
    assert fifo_started(fifo, nl.drivers)
    nl = _replace_driver(nl, "m__e__we", expr=pf.Not(pf.Ref("m__e__full")))
    assert not fifo_started(fifo, nl.drivers)
    # the FIFO never fills, so it still writes on every cycle
    got = pf.check_equivalence(_mutable(), nl)
    assert got.ok and _simulated(_mutable(), nl) == got


def test_a_shift_past_every_bit_is_the_zero_constant():
    from pipeforge.terms import _timed_terms
    widths = {"x": 8}
    cores = {}

    def term(e):
        return _timed_terms(_expr_netlist(e, widths), ["o"], cores)["o"]

    for op in ("shl", "shr"):
        assert term(pf.Shift(op, 8, pf.Ref("x"))) == term(pf.Const(0, 8))
        assert term(pf.Shift(op, 7, pf.Ref("x"))) != term(pf.Const(0, 8))
    # a shift by far more bits than memory holds builds no unmasked value,
    # neither as a term nor simulated
    for op in ("shl", "shr"):
        huge = pf.Shift(op, 10**12, pf.Ref("x"))
        assert term(huge) == term(pf.Const(0, 8))
        trace = pf.simulate(_expr_netlist(huge, widths),
                            pf.Stimulus(2, [{"x": 0xFF}] * 2))
        assert [sample["o"] for sample in trace.samples] == [0, 0]


def test_a_stream_that_never_comes_out_has_too_few_outputs():
    from pipeforge.sim import Verdict
    good = _mutable(pf.Protocol.READY_VALID)
    bad = _replace_driver(good, "out_valid", expr=pf.Const(0, 1))
    got = pf.check_equivalence(good, bad)
    assert got == Verdict(False, "trial 0: too few outputs (0)")
    assert _simulated(good, bad) == got


def test_latency_is_measured_on_raw_netlists_only():
    with pytest.raises(pf.SimulationError, match="applies to raw netlists"):
        pf.measured_latency(_mutable(pf.Protocol.READY_VALID))


def _handshaked(valid_through_fifo=False, late_constant=False):
    """A ready/valid ``o = ~x xor 5`` two enabled cycles on, with a valid
    chain of four stages; ``out_valid`` or the constant may pass a FIFO
    with the enables ``lower`` gives one."""
    from pipeforge.netlist import CombCell, DelayCell, FifoCell
    nets = {"x": 4, "in_valid": 1, "out_ready": 1, "o": 4, "out_valid": 1,
            "in_ready": 1, "enable": 1, "n": 4, "d": 4, "k": 4, "f": 4}
    nets |= {f"valid_{i}": 1 for i in range(5)}
    cells = [CombCell("enable", pf.Ref("out_ready")),
             CombCell("in_ready", pf.Ref("out_ready")),
             CombCell("valid_0", pf.Ref("in_valid")),
             DelayCell("valid_4", "valid_0", 4,
                       stages=("valid_1", "valid_2", "valid_3")),
             CombCell("n", pf.Not(pf.Ref("x"))),
             DelayCell("d", "n", 2, "srl"),
             CombCell("k", pf.Const(5, 4))]

    def fifo(out, inp, width, w):
        nets.update({out: width, "we": 1, "re": 1, "full": 1, "empty": 1})
        return [CombCell("we", pf.BinOp("and", pf.Ref(f"valid_{w}"),
                                        pf.Not(pf.Ref("full")))),
                CombCell("re", pf.BinOp("and", pf.Ref(f"valid_{w + 1}"),
                                        pf.Not(pf.Ref("empty")))),
                FifoCell(out, inp, 2, "we", "re", "full", "empty")]

    if valid_through_fifo:
        cells += fifo("vf", "valid_0", 1, 0) + [CombCell("out_valid",
                                                         pf.Ref("vf"))]
    else:
        cells.append(CombCell("out_valid", pf.Ref("valid_2")))
    if late_constant:  # the FIFO's taps sit past the output's shift
        cells += fifo("f", "k", 4, 2)
    else:
        cells.append(CombCell("f", pf.Ref("k")))
    cells.append(CombCell("o", pf.BinOp("xor", pf.Ref("d"), pf.Ref("f"))))
    return pf.Netlist("hs", inputs=[("x", 4), ("in_valid", 1), ("out_ready", 1)],
                      outputs=[("o", 4), ("out_valid", 1), ("in_ready", 1)],
                      nets=nets, cells=cells, protocol=pf.Protocol.READY_VALID,
                      enable="enable")


def test_ready_valid_fifos_carry_data_at_their_taps_only():
    # a FIFO shows its last read value between reads, so neither the valid
    # chain nor a value read before the FIFO's output tap may pass one;
    # those netlists are simulated, and diverge
    from pipeforge.terms import output_terms as _output_terms
    plain = _handshaked()
    assert _output_terms(plain, {}) is not None
    assert pf.check_equivalence(plain, plain).ok
    for bad in (_handshaked(valid_through_fifo=True),
                _handshaked(late_constant=True)):
        assert _output_terms(bad, {}) is None
        got = _outcome(pf.check_equivalence, plain, bad)
        assert got == _outcome(_simulated, plain, bad)
        assert isinstance(got, tuple) or not got.ok


def test_a_flag_read_by_its_own_enables_is_simulated():
    # out_valid passes a FIFO whose enables read its flags; the flags come
    # from the FIFO's occupancy, so that is no loop, and the FIFO's last
    # read value holds out_valid high past the stream
    good, bad = _handshaked(), _handshaked(valid_through_fifo=True)
    got = pf.check_equivalence(good, bad)
    assert not got.ok and "outputs from" in got.detail
    assert _simulated(good, bad) == got


def test_every_call_rejects_two_drivers_and_an_undriven_net():
    # every call takes a built netlist, and neither shape can be built,
    # whether by the constructor or by ``dataclasses.replace``
    from pipeforge.netlist import CombCell
    single = _expr_netlist(pf.Ref("x"), {"x": 4})
    double = single.cells + (CombCell("o", pf.Not(pf.Ref("x"))),)
    with pytest.raises(pf.PipeforgeError,
                       match="^net 'o' has multiple drivers$"):
        pf.Netlist(single.name, single.inputs, single.outputs,
                   dict(single.nets), double)
    with pytest.raises(pf.PipeforgeError,
                       match="^net 'o' has multiple drivers$"):
        replace(single, cells=double)
    with pytest.raises(pf.PipeforgeError,
                       match="^net 'floating' has no driver$"):
        _e_out_reads("floating")(_mutable())
    good = _mutable()
    pf.emit_verilog(good)
    assert pf.simulate(good, pf.Stimulus(cycles=2)).samples
    pf.measured_latency(good)
    assert pf.check_equivalence(good, _mutable()).ok


def test_terms_decide_only_a_settled_window():
    # not-then-delay and delay-then-not agree once the line has filled, and
    # show zeros or ones before; that shows wherever the terms do not put
    # every output at one shift, so those pairs are simulated
    from pipeforge.netlist import CombCell, DelayCell
    not_first = [CombCell("n", pf.Not(pf.Ref("x"))),
                 DelayCell("d", "n", 2, "srl"), CombCell("o", pf.Ref("d"))]
    delay_first = [DelayCell("d", "x", 2, "srl"),
                   CombCell("o", pf.Not(pf.Ref("d")))]

    def netlist(cells, p):
        return pf.Netlist("t", inputs=[("x", 4)], outputs=[("o", 4), ("p", 4)],
                          nets={"x": 4, "p": 4, **{c.out: 4 for c in cells}},
                          cells=cells + [CombCell("p", p)])

    for p in (pf.Ref("x"), pf.BinOp("add", pf.Ref("x"), pf.Ref("o"))):
        verdict = pf.check_equivalence(netlist(not_first, p),
                                       netlist(delay_first, p))
        assert not verdict.ok and "transaction 0 differs" in verdict.detail
    # with both outputs two cycles on, the window opens after the fill
    p = pf.Shift("shl", 0, pf.Ref("o"))
    assert pf.check_equivalence(netlist(not_first, p),
                                netlist(delay_first, p)).ok


def test_constant_functions_of_the_inputs_are_equivalent():
    # x xor x reads x but never responds to it: an impulse finds no
    # latency, while the terms of two copies are equal
    nl = _expr_netlist(pf.BinOp("xor", pf.Ref("x"), pf.Ref("x")), {"x": 4})
    with pytest.raises(pf.NoResponseError):
        pf.measured_latency(nl)
    assert pf.check_equivalence(nl, nl).ok
    # outputs that read no input at all are still simulated
    static = _expr_netlist(pf.Const(5, 4), {"x": 4})
    with pytest.raises(pf.NoResponseError):
        pf.check_equivalence(static, static)


def test_terms_keep_what_each_node_computes_with():
    # pairs that differ in one op, parameter, operand order or part width
    # compute different functions, and their terms differ; a rebuilt copy
    # has the same term
    from pipeforge.terms import _timed_terms
    x, y, s = pf.Ref("x"), pf.Ref("y"), pf.Slice(0, 0, pf.Ref("y"))
    widths = {"x": 8, "y": 8}
    pairs = [(pf.BinOp("add", x, y), pf.BinOp("sub", x, y)),
             (pf.BinOp("sub", x, y), pf.BinOp("sub", y, x)),
             (pf.Shift("shl", 1, x), pf.Shift("shl", 2, x)),
             (pf.Shift("shl", 1, x), pf.Shift("shr", 1, x)),
             (pf.Slice(3, 0, x), pf.Slice(4, 1, x)),
             (pf.BinOp("add", x, pf.Const(1, 8)), pf.BinOp("add", x, pf.Const(2, 8))),
             (pf.Not(x), pf.Not(pf.Concat((pf.Const(0, 1), x)))),
             (pf.Mux(s, x, y), pf.Mux(s, y, x)),
             # a concatenation shifts by its parts' widths
             (pf.Concat((pf.Slice(3, 0, x), y)),
              pf.Concat((x, pf.Slice(3, 0, y))))]
    cores = {}

    def term(nl):
        return _timed_terms(nl, ["o"], cores)["o"]

    for a, b in pairs:
        assert term(_expr_netlist(a, widths)) == term(_expr_netlist(a, widths))
        assert term(_expr_netlist(a, widths)) != term(_expr_netlist(b, widths))

import random
from dataclasses import FrozenInstanceError, replace

import pytest

import pipeforge as pf
from pipeforge import expr as E
from pipeforge.netlist import CombCell, CounterCell, DelayCell, FifoCell

from conftest import build_running


def lowered(xor_delay=0, with_e=False, resolver=pf.resolve_direct_backward,
            policy=None, protocol=pf.Protocol.RAW):
    g = resolver(pf.balance_merges(build_running(xor_delay, with_e)))
    return pf.lower(g, pf.apply_protocol(g, protocol), policy)


def test_ports_raw():
    nl = lowered(with_e=True)
    assert nl.inputs == (("x", 8), ("y", 8), ("e", 4))
    assert nl.outputs == (("z_out", 16), ("e_out", 4))
    assert nl.enable is None


def test_ports_ready_valid():
    nl = lowered(xor_delay=2, protocol=pf.Protocol.READY_VALID)
    assert ("in_valid", 1) in nl.inputs and ("out_ready", 1) in nl.inputs
    assert ("out_valid", 1) in nl.outputs and ("in_ready", 1) in nl.outputs
    assert nl.enable == "enable"
    # a tap per pipeline depth, 0..total latency
    assert all(f"valid_{d}" in nl.nets for d in range(5))
    (valid_line,) = [c for c in nl.cells if isinstance(c, DelayCell)
                     and c.out.startswith("valid_")]
    assert (valid_line.out, valid_line.inp) == ("valid_4", "valid_0")
    assert valid_line.depth == 4 and valid_line.style == "register"
    assert valid_line.stages == ("valid_1", "valid_2", "valid_3")


def test_register_lowering_counts():
    nl = lowered(with_e=True)
    counts = nl.cell_counts()
    # mul, addA, addB step registers + merge compensation on the mul branch
    # + x feed + e two-deep chain
    assert counts["fifo"] == 0 and counts["counter"] == 0
    assert counts["reg"] == 7


def test_fifo_lowering_raw():
    nl = lowered(xor_delay=2, with_e=True, policy=pf.direct_fifo(3, 3))
    counts = nl.cell_counts()
    assert counts["fifo"] == 1 and counts["counter"] == 1
    (fifo,) = [c for c in nl.cells if isinstance(c, FifoCell)]
    assert fifo.capacity == 4 and nl.nets[fifo.out] == 4
    (cnt,) = [c for c in nl.cells if isinstance(c, CounterCell)]
    assert cnt.init == 3
    # write enable tied high, read enable follows the startup counter
    drivers = nl.drivers
    assert drivers[fifo.write_en].expr == E.Const(1, 1)
    assert drivers[fifo.read_en].expr == E.Ref(cnt.zero)


def test_fifo_lowering_ready_valid_taps():
    nl = lowered(xor_delay=2, with_e=True, policy=pf.direct_fifo(3, 3),
                 protocol=pf.Protocol.READY_VALID)
    (fifo,) = [c for c in nl.cells if isinstance(c, FifoCell)]
    assert not any(isinstance(c, CounterCell) for c in nl.cells)
    drivers = nl.drivers
    # e travels depth 0 -> 4: write at tap 0, read at tap 3
    assert drivers[fifo.write_en].expr == E.BinOp(
        "and", E.Ref("valid_0"), E.Not(E.Ref(fifo.full)))
    assert drivers[fifo.read_en].expr == E.BinOp(
        "and", E.Ref("valid_3"), E.Not(E.Ref(fifo.empty)))


def test_net_naming_convention():
    nl = lowered(with_e=True)
    assert "addA__sumXY" in nl.nets
    assert "xor__z" in nl.nets
    assert "x" in nl.nets  # input zone nets use the port name directly
    assert nl.nets["addA__x"] == 8


def test_exhaustive_strategy_lowers_more_registers():
    direct = lowered(with_e=True).cell_counts()["reg"]
    exhaustive = lowered(
        with_e=True, resolver=pf.resolve_exhaustive_forward).cell_counts()["reg"]
    assert exhaustive > direct


def test_check_rejects_multiple_drivers():
    nl = lowered()
    with pytest.raises(pf.PipeforgeError):
        replace(nl, cells=nl.cells + (CombCell("xor__z", E.Ref("x")),))


@pytest.mark.parametrize("names, named", [
    (("a", "b", "b", "a"), "b"),
    (("d", "s2"), "s2"),  # a delay line drives its stages before its output
    (("d",), "d"),
    (("f_empty", "f_full"), "f_full"),  # a FIFO drives out, full, empty
])
def test_drivers_names_the_first_net_met_twice(names, named):
    delay = DelayCell("d", "x", 3, stages=("s1", "s2"))
    fifo = FifoCell("f", "x", 2, "x", "x", "f_full", "f_empty")
    driven = {"s1": delay, "s2": delay, "d": delay, "f": fifo,
              "f_full": fifo, "f_empty": fifo}
    nl = pf.Netlist("dup", inputs=[("x", 1)],
                    nets=dict.fromkeys(["x", *driven], 1),
                    cells=[delay, fifo])
    assert nl.drivers == driven
    with pytest.raises(pf.PipeforgeError,
                       match=f"^net '{named}' has multiple drivers$"):
        replace(nl, nets=dict.fromkeys([*nl.nets, *names], 1),
                cells=[*(CombCell(n, E.Ref("x")) for n in names), *nl.cells])


def test_check_rejects_dangling_net():
    nl = lowered()
    with pytest.raises(pf.PipeforgeError):
        replace(nl, nets={**nl.nets, "floating": 4})


def test_comb_cycle_detected():
    with pytest.raises(pf.PipeforgeError):
        pf.Netlist("t", inputs=[("a", 1)], outputs=[],
                   nets={"a": 1, "p": 1, "q": 1},
                   cells=[CombCell("p", E.BinOp("and", E.Ref("a"), E.Ref("q"))),
                          CombCell("q", E.Ref("p"))])


def test_comb_order_respects_dependencies():
    nl = lowered(with_e=True)
    order = nl.comb_order
    pos = {c.out: i for i, c in enumerate(order)}
    for c in order:
        for ref in c.expr.refs():
            if ref in pos:
                assert pos[ref] < pos[c.out]


def test_reads_are_each_combinational_cells_sorted_refs(random_corpus):
    # the rule keeps, by net, what each combinational cell reads, sorted,
    # and nothing for any other cell
    rng = random.Random(27)
    policies = [pf.direct_auto(), pf.direct_fifo(2, 1), pf.direct_force_srl()]
    for g in rng.sample(random_corpus, 12):
        b = pf.balance_merges(g)
        for resolver in (pf.resolve_direct_backward, pf.resolve_p2p_backward,
                         pf.resolve_exhaustive_forward):
            r = resolver(b)
            for protocol in pf.Protocol:
                nl = pf.lower(r, pf.apply_protocol(r, protocol),
                              rng.choice(policies))
                assert dict(nl.reads) == {
                    c.out: tuple(sorted(c.expr.refs())) for c in nl.cells
                    if isinstance(c, CombCell)}, g.name


def test_a_deep_combinational_chain_listed_output_first():
    # 3,000 adders in a row, the output's cell first: ordering them is one
    # walk kept on a stack, not a call per cell
    n = 3000
    cells = [CombCell("o", E.Ref(f"n{n}"))]
    cells += [CombCell(f"n{i}", E.BinOp("add", E.Ref(f"n{i - 1}"), E.Const(1, 8)))
              for i in range(n, 0, -1)]
    nl = pf.Netlist("chain", inputs=[("n0", 8)], outputs=[("o", 8)],
                    nets={"o": 8, **{f"n{i}": 8 for i in range(n + 1)}},
                    cells=cells)
    order = [c.out for c in nl.comb_order]
    assert order == [f"n{i}" for i in range(1, n + 1)] + ["o"]
    trace = pf.simulate(nl, pf.Stimulus(3, [{}, {"n0": 7}, {"n0": 250}]))
    assert [s["o"] for s in trace.samples] == [(x + n) % 256 for x in (0, 7, 250)]
    assert pf.measured_latency(nl) == 0


def _every_kind():
    """``o = {f, y}``, where a FIFO started by a counter holds ``x + y``
    two cycles on: one cell of each kind."""
    x, y = E.Ref("x"), E.Ref("y")
    nets = {"x": 8, "y": 8, "o": 16, "s": 8, "d": 8, "d1": 8, "f": 8,
            "we": 1, "re": 1, "full": 1, "empty": 1, "cnt": 2, "zero": 1}
    cells = [CombCell("s", E.BinOp("add", x, y)),
             DelayCell("d", "s", 2, stages=("d1",)),
             CounterCell("cnt", "zero", 2),
             CombCell("we", E.Const(1, 1)),
             CombCell("re", E.Ref("zero")),
             FifoCell("f", "d", 3, "we", "re", "full", "empty"),
             CombCell("o", E.Concat((E.Ref("f"), y)))]
    return pf.Netlist("every", inputs=[("x", 8), ("y", 8)], outputs=[("o", 16)],
                      nets=nets, cells=cells)


def test_the_rule_rejects_each_shape_when_built():
    # each shape, added to a valid netlist, raises one error whether the
    # netlist is built or replaced; a built netlist cannot be changed
    x, y = E.Ref("x"), E.Ref("y")
    mux = E.Mux(E.Slice(3, 0, x), x, y)  # a 4-bit selector
    shapes = [
        ({}, [CombCell("o", E.Concat((y, x)))], pf.PipeforgeError,
         "net 'o' has multiple drivers"),
        ({"floating": 1}, [], pf.PipeforgeError, "net 'floating' has no driver"),
        ({"a": 4, "b": 12}, [CombCell("a", x), CombCell("b", y)],
         pf.WidthMismatchError, "net 'a' is 4 bits but its expression has 8"),
        ({"a": 8}, [CombCell("a", E.BinOp("mul", x, x))],
         pf.WidthMismatchError, "net 'a' is 8 bits but its expression has 16"),
        ({"a": 8}, [CombCell("a", mux)], pf.WidthMismatchError,
         "net 'a': mux selector must be 1 bit wide"),
        ({"a": 8}, [CombCell("a", E.BinOp("xor", x, E.Ref("ghost")))],
         pf.PipeforgeError, "net 'ghost' is not declared"),
        ({}, [CombCell("w", x)], pf.PipeforgeError,
         "net 'w' is not declared"),
        ({"a": 8, "b": 8}, [CombCell("a", E.Not(E.Ref("b"))),
                            CombCell("b", E.Not(E.Ref("a")))],
         pf.PipeforgeError, "combinational cycle through net 'a'"),
        ({"a": 4}, [DelayCell("a", "x", 1)], pf.WidthMismatchError,
         "net 'a' is 4 bits where 8 are needed"),
        ({"a": 8}, [DelayCell("a", "x", 1, "latch")], pf.PipeforgeError,
         "unknown delay style 'latch'"),
        ({"a": 8}, [DelayCell("a", "x", 1, "srl")], pf.PipeforgeError,
         "srl delay lines are too short"),
        ({"a": 8}, [DelayCell("a", "x", 2)], pf.PipeforgeError,
         "delay line stage nets do not match its depth"),
        ({"g": 8, "gf": 1, "ge": 1}, [FifoCell("g", "x", 1, "we", "re", "gf",
                                               "ge")],
         pf.PipeforgeError, "FIFO cells have capacity >= 2"),
        ({"g": 8, "gf": 1, "ge": 1, "w": 2},
         [CombCell("w", E.Const(1, 2)), FifoCell("g", "x", 2, "w", "re", "gf", "ge")],
         pf.WidthMismatchError, "net 'w' is 2 bits where 1 are needed"),
        ({"c": 2, "z": 1}, [CounterCell("c", "z", 0)], pf.PipeforgeError,
         "startup counters have init >= 1"),
        ({"c": 2, "z": 1}, [CounterCell("c", "z", 4)], pf.WidthMismatchError,
         "counter 'c' cannot hold its init 4"),
    ]
    good = _every_kind()
    for nets, cells, error, message in shapes:
        fields = {"nets": {**good.nets, **nets}, "cells": good.cells + tuple(cells)}
        with pytest.raises(error, match=f"^{message}$"):
            pf.Netlist(good.name, good.inputs, good.outputs, **fields)
        with pytest.raises(error, match=f"^{message}$"):
            replace(good, **fields)
    with pytest.raises(pf.WidthMismatchError,
                       match="^net 's' is 8 bits where 1 are needed$"):
        replace(good, enable="s")
    for ports in ({"inputs": good.inputs + (("x", 8),)},
                  {"outputs": good.outputs + (("x", 8),)}):
        with pytest.raises(pf.PipeforgeError, match="^port 'x' is listed twice$"):
            replace(good, **ports)
    for name in ("name", "inputs", "nets", "cells", "enable", "drivers",
                 "reads", "comb_order"):
        with pytest.raises(FrozenInstanceError):
            setattr(good, name, getattr(good, name))
    with pytest.raises(TypeError):
        good.nets["x"] = 8
    with pytest.raises(TypeError):
        good.drivers["x"] = good.cells[0]
    with pytest.raises(TypeError):
        good.reads["s"] = ()
    for cell in good.cells:
        with pytest.raises(FrozenInstanceError):
            setattr(cell, "out" if hasattr(cell, "out") else "init", 3)
    assert pf.simulate(good, pf.Stimulus(8)).samples

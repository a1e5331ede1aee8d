"""Timed terms: a netlist's outputs read off its cells, without simulating.

A timed term ``(shift, core)`` is ``core`` applied to the input ports of
``shift`` enabled cycles before, as latency is in retiming (Leiserson and
Saxe, "Retiming Synchronous Circuitry", Algorithmica 1991).  Cores are
hash-consed in a table shared by one comparison, so terms compare with ``==``.

- An input port or a constant is a leaf at shift 0; a handshake port of a
  ready/valid netlist is a leaf of its own kind.  A wire, as wide as its
  source in a built ``Netlist``, is its source's term.
- A combinational cell is interned node by node, each node keeping the op,
  width and parameters its compiled statement computes with.  A node sits
  at the earliest shift among its arguments that read an input, or the
  latest if none does; an argument at a later shift gets a delay node.
- A delay line adds its depth to its input's shift, its kth stage net k.
- A FIFO adds its capacity, and only if every FIFO has the enables
  ``lower`` gives it: under raw ``netlist.fifo_started``; under ready/valid
  ``netlist.fifo_taps``, with ``tap_w`` ``in_valid`` at some shift w,
  ``tap_r`` at w + capacity - 1, through wires and delay lines only, and the
  FIFO's input, aligned, at w (at most w if it reads no input).  Such a FIFO
  holds the valid transactions between its taps, so it never blocks,
  overflows or runs empty.
- Anything else is not handled: a FIFO off its pattern, a read of a FIFO's
  or counter's flags, and a net that feeds back into itself.

The terms are found in one walk back from the nets asked for and every
FIFO's taps, over the netlist's ``drivers`` and kept ``reads``: a net's term
is interned as soon as its sources have theirs, and each node's width is
carried up from its arguments' rather than asked of the expression again.

The data outputs' terms decide equivalence (``output_terms``) where all are
handled and aligned (no delay node, no handshake port), those that read an
input (at least one) share one shift and the others settle by then.  Under
ready/valid, ``enable`` and ``in_ready`` must also be wires from
``out_ready``, and ``out_valid`` ``in_valid`` at that shift through wires and
delay lines.  One enable then freezes every sequential cell, so the kth
accepted output is the cores applied to the kth accepted input.  Two
netlists whose terms decide and are equal compute the same outputs from the
same inputs once their pipelines have filled, raw, ready/valid or one of each.

Where a raw netlist's terms decide, they also give its latency: the one
shift of its input-reading outputs is the delay ``measured_latency``'s
impulse finds, provided some output core responds to one of the impulse's
own draws (``evaluate`` against the all-zero input); if none does, the
impulse would find none either.  Every other raw netlist is measured by
simulating the impulse.
"""

from __future__ import annotations

from typing import Sequence

from .expr import BinOp, Concat, Const, Expr, Mux, Not, Ref, Shift, Slice
from .netlist import (CombCell, DelayCell, FifoCell, Netlist, fifo_started,
                      fifo_taps)
from .protocol import Protocol

# A core is ``(id, reads_input, aligned)``: ``id`` numbers it in the table
# of one comparison, so equal cores are equal functions; ``reads_input`` is
# set where a data input port is among its leaves, and ``aligned`` where
# neither a delay node nor a handshake port is, so the core is a function
# of the data inputs at its one shift alone.
Core = tuple[int, bool, bool]


def _core(cores: dict, op: str, width: int | None, params,
          args: tuple[Core, ...]) -> Core:
    """The core ``op`` of ``width`` bits with ``params`` over ``args``,
    interned in ``cores``."""
    key = (op, width, params, args)
    core = cores.get(key)
    if core is None:
        reads_input, aligned = op == "in", op not in ("delay", "handshake")
        for _, arg_reads_input, arg_aligned in args:
            reads_input = reads_input or arg_reads_input
            aligned = aligned and arg_aligned
        core = cores[key] = (len(cores), reads_input, aligned)
    return core


def _handshake(cores: dict, port: str) -> Core:
    """The leaf of the 1-bit handshake input ``port``."""
    return _core(cores, "handshake", 1, port, ())


def _aligned(cores: dict, op: str, width: int, params,
             args: list[tuple[int, Core, int]]) -> tuple[int, Core, int]:
    """The term of ``op`` over the terms ``args``, aligned, and its width.
    An argument that reads no input and settles by the shift is a constant
    there and needs no delay node."""
    latest, at = args[0][0], None  # at: the earliest input-reading shift
    for shift, core, _ in args:
        if shift > latest:
            latest = shift
        if core[1] and (at is None or shift < at):
            at = shift
    if at is None:
        at = latest
    if latest <= at:
        return at, _core(cores, op, width, params,
                         tuple(arg[1] for arg in args)), width
    return at, _core(cores, op, width, params, tuple(
        core if shift <= at else _core(cores, "delay", None, shift - at, (core,))
        for shift, core, _ in args)), width


def _expr_term(e: Expr, terms: dict, widths: dict[str, int],
               cores: dict) -> tuple[int, Core, int]:
    """The term of ``e`` over the terms of the nets it reads, and its width,
    carried up from its arguments'."""
    t = type(e)
    if t is Ref:
        shift, core = terms[e.name]
        return shift, core, widths[e.name]
    if t is Const:
        w = e.const_width
        return 0, _core(cores, "const", w, e.value, ()), w
    if t is BinOp:
        lhs = _expr_term(e.lhs, terms, widths, cores)
        rhs = _expr_term(e.rhs, terms, widths, cores)
        w = lhs[2] + rhs[2] if e.op == "mul" else max(lhs[2], rhs[2])
        return _aligned(cores, e.op, w, None, [lhs, rhs])
    if t is Mux:
        args = [_expr_term(a, terms, widths, cores)
                for a in (e.sel, e.then, e.other)]
        return _aligned(cores, "mux", args[1][2], None, args)
    if t is Concat:
        args = [_expr_term(p, terms, widths, cores) for p in e.parts]
        params = tuple(w for _, _, w in args)
        return _aligned(cores, "cat", sum(params), params, args)
    # one argument: the node sits at its shift and needs no delay node
    if t is Shift:
        w = e.arg.width(widths)
        if e.amount >= w:  # every bit shifts out, and the argument is unread
            return 0, _core(cores, "const", w, 0, ()), w
        shift, core, _ = _expr_term(e.arg, terms, widths, cores)
        return shift, _core(cores, e.op, w, e.amount, (core,)), w
    if t is Not:
        shift, core, w = _expr_term(e.arg, terms, widths, cores)
        return shift, _core(cores, "not", w, None, (core,)), w
    if t is Slice:
        shift, core, _ = _expr_term(e.arg, terms, widths, cores)
        w = e.hi - e.lo + 1
        return shift, _core(cores, "slice", w, (e.hi, e.lo), (core,)), w
    raise TypeError(f"unknown expression node {e!r}")


def _timed_terms(netlist: Netlist, nets: Sequence[str], cores: dict,
                 ) -> dict[str, tuple[int, Core]] | None:
    """Each of ``nets`` as a timed term, by the rules above, interned in
    ``cores``; None where any net they read is not handled.  One depth-first
    walk kept on a stack, from ``nets`` and every FIFO's taps, over the
    netlist's driver index and kept ``reads``: a net's term is interned as
    soon as its sources have theirs.  Like ``netlist.postorder`` it takes
    the last net and the last source first, so one netlist interns its
    cores in one order."""
    drivers, fifos, reads = netlist.drivers, netlist.fifos, netlist.reads
    taps: dict[str, tuple[str, str]] = {}  # by FIFO output, ready/valid only
    if netlist.protocol is Protocol.RAW:
        if not all(fifo_started(c, drivers) for c in fifos):
            return None
    else:
        for c in fifos:
            found = fifo_taps(c, drivers)
            if found is None:
                return None
            taps[c.out] = found
    inputs = dict(netlist.inputs)
    data = dict(netlist.data_ports()[0])
    widths, stage_delays = netlist.nets, netlist.stage_delays
    terms: dict[str, tuple[int, Core]] = {}
    entered: set[str] = set()  # on the stack below its unfinished sources
    stack = [*nets, *(t for pair in taps.values() for t in pair)]
    while stack:
        net = stack[-1]
        if net in terms:
            stack.pop()
            continue
        cell = drivers.get(net)
        kind = type(cell)
        if net not in entered:
            entered.add(net)
            if kind is CombCell:
                sources = reads[net]
            elif kind is DelayCell:
                sources = cell.inp,
            elif kind is FifoCell and net == cell.out:
                sources = cell.inp, *taps.get(net, ())
            else:  # a leaf, or a flag or counter net, not handled below
                sources = ()
            todo = [n for n in sources if n not in terms]
            if todo:
                if not entered.isdisjoint(todo):
                    return None  # a net feeds back into itself
                stack += todo
                continue
        stack.pop()
        if kind is CombCell:
            shift, core, _ = _expr_term(cell.expr, terms, widths, cores)
            terms[net] = shift, core
        elif kind is DelayCell:
            shift, core = terms[cell.inp]
            terms[net] = shift + (cell.depth if net == cell.out
                                  else stage_delays[net]), core
        elif kind is FifoCell and net == cell.out:
            shift, core = terms[cell.inp]
            if net in taps:
                at = terms[taps[net][0]][0]
                if not core[2] or (shift != at if core[1] else shift > at):
                    return None
                shift = at
            terms[net] = shift + cell.capacity, core
        elif cell is None and net in inputs:
            op = "in" if net in data else "handshake"
            terms[net] = 0, _core(cores, op, inputs[net], net, ())
        else:
            return None
    if taps:
        valid = _handshake(cores, "in_valid")
        for c in fifos:
            write, read = (terms[t] for t in taps[c.out])
            if write[1] != valid or read != (write[0] + c.capacity - 1, valid):
                return None
    return {n: terms[n] for n in nets}


def output_terms(netlist: Netlist, cores: dict,
                 ) -> list[tuple[int, Core]] | None:
    """The data output ports' timed terms, interned in ``cores``, where they
    decide equivalence by the rules above; None elsewhere."""
    outs = [n for n, _ in netlist.data_ports()[1]]
    rv = netlist.protocol is Protocol.READY_VALID
    if (netlist.enable is not None) != rv:
        return None
    handshake = ["out_valid", "in_ready", netlist.enable] if rv else []
    found = _timed_terms(netlist, outs + handshake, cores)
    if found is None:
        return None
    terms = [found[n] for n in outs]
    shifts = {shift for shift, core in terms if core[1]}
    if len(shifts) != 1:
        return None
    latency, = shifts
    if not all(core[2] and shift <= latency for shift, core in terms):
        return None
    if rv:
        ready = 0, _handshake(cores, "out_ready")
        if not (found[netlist.enable] == found["in_ready"] == ready
                and found["out_valid"] == (latency,
                                           _handshake(cores, "in_valid"))):
            return None
    return terms


def _mask(width: int) -> int:
    return (1 << width) - 1


def _cat(width: int, widths: tuple[int, ...], *parts: int) -> int:
    acc = parts[0]
    for w, b in zip(widths[1:], parts[1:]):
        acc = (acc << w) | b
    return acc


# each op's value from its width, parameters and argument values: masked
# after add, sub, mul, not, shl and slice, unmasked after xor, and, or, shr,
# mux and cat, and a constant is its raw value.  ``sim._Compiled`` leaves
# out the masks that cannot change a value, as its slots stay within their
# widths (after mul, whose product fits its width, and after a slice up to
# its argument's top bit), so the two agree
_EVAL = {
    "const": lambda w, p: p,
    "add": lambda w, p, a, b: (a + b) & _mask(w),
    "sub": lambda w, p, a, b: (a - b) & _mask(w),
    "mul": lambda w, p, a, b: (a * b) & _mask(w),
    "xor": lambda w, p, a, b: a ^ b,
    "and": lambda w, p, a, b: a & b,
    "or": lambda w, p, a, b: a | b,
    "not": lambda w, p, a: ~a & _mask(w),
    "shl": lambda w, p, a: (a << p) & _mask(w),
    "shr": lambda w, p, a: a >> p,
    "mux": lambda w, p, s, a, b: a if s else b,
    "slice": lambda w, p, a: (a >> p[1]) & _mask(w),
    "cat": _cat,
}


def evaluate(cores: dict, inputs: dict[str, int]) -> list[int | None]:
    """Every core's value, indexed by its id, with each data input port at
    its value in ``inputs``; None for a core that is not aligned.  One pass
    over ``cores`` in interning order, as each core is interned after its
    arguments."""
    values: list[int | None] = []
    for (op, width, params, args), (_, _, aligned) in cores.items():
        if not aligned:
            values.append(None)
        elif op == "in":
            values.append(inputs[params])
        else:
            values.append(_EVAL[op](width, params,
                                    *(values[a[0]] for a in args)))
    return values

"""Cycle-accurate netlist simulator used as the verification oracle.

Two-phase evaluation per cycle: combinational cells settle in topological
order (sequential outputs count as cycle-start constants), then sequential
state updates, gated by the global enable under ready/valid.  Two-valued
simulation; reset is synchronous and active-high, registers come up in
their reset state.

Each public call compiles its netlists once into straight-line Python
(``_Compiled``): every net is a slot in one value list, every cell one
statement with its widths and masks resolved to literals, and a cycle is a
call of a few generated functions.

Every slot holds a value within its net's width.  ``run`` masks each input
to its port's width, as a Verilog port truncates, and the netlist's rule
gives every cell the width its expression has, so each cell keeps it.  The
compiled expressions rest on that and use the fewest operations that give
each value: a run of k equal ``cat`` parts of width w is one product with
``sum(1 << w*i for i in range(k))``; a ``mul`` needs no mask, as its width
is the sum of its operands'; a ``not`` is one ``xor`` with the mask; a
``slice`` up to its argument's top bit needs no mask, and from bit 0 it is
its argument; and a shift by 0 is its argument.

A netlist is checked once, when it is built (``Netlist``), so nothing here
checks it again: each compilation reads the driver index, combinational
order and FIFO and counter lists the netlist keeps.  Only the output cone
is compiled.  The observed nets are the ports, the watched nets, the global
enable and the enables of every checked FIFO (below); one walk back from
them over the driver index picks the cells to compile, and a cell no
observed net reads costs nothing per cycle.

A netlist with a global enable settles in two cones.  The input cone is
every combinational cell that reads an input port at any depth, through
wires too (``enable``, ``in_ready`` and ``valid_0`` are wires of input
ports); the state cone is everything else: the ring and stage loads, FIFO
outputs and flags, counter nets and every cell that reads only those.  The
input cone settles every cycle, the state cone only when the state moves:
before the first cycle, after a reset cycle and after an enabled cycle's
update.  On a stalled cycle nothing the state cone reads has changed, so
its slots already hold what it would compute (the selective
trace of Ulrich, "Exclusive Simulation of Activity in Digital Networks",
CACM 1969).  A netlist without an enable settles everything every cycle.

A FIFO is simulated in one of two forms, chosen by its enables with the
two recognizers the timed terms trust (``netlist.fifo_started`` and
``netlist.fifo_taps``).  A started FIFO, written on every enabled cycle and
read from a startup counter of ``capacity - 1``, holds at most
``capacity - 1`` values, so it never fills, and it is first read once it
holds one, so it never runs empty: it is the delay line of its capacity.
A tapped FIFO's enables are ``tap_w & ~full`` and ``tap_r & ~empty``, and
its taps are aligned where ``tap_r`` is ``tap_w`` delayed by
``capacity - 1`` enabled cycles, both reached from one net through wires
and delay lines (as ``lower`` taps the valid chain from ``in_valid``).
Then each write is read ``capacity - 1`` cycles later, so the FIFO is
never full or empty when an enable fires, and its output is ``h`` of
``capacity`` enabled cycles before, where ``h = data if tap_w else
h(t - 1)`` holds the last write.  So a started or aligned FIFO whose flags
nothing reads runs on the delay ring of its capacity, storing its input if
started and ``h`` if aligned.  Every other FIFO is a checked queue: one
off both forms, one whose taps are not aligned, and a ring FIFO whose flag
is watched or read.  It is simulated and counted with its enables
observed, so its "read while empty" and "write while full" errors fire on
the same cycles as if everything were compiled (one whose output nothing
reads stores zeros).  On either form the enables never err, so a ring
FIFO traces alike as a checked queue.

``measured_latency`` reads the latency off the timed terms where they
decide (``terms.py`` states when), without compiling.  Elsewhere it
simulates an impulse, after warming the netlist up for as long as its own
longest sequential path into the outputs, found in one walk over the same
index; a net that feeds back into itself through sequential cells never
settles, and is reported as an error rather than measured.

Equivalence is first asked of ``terms.output_terms``: two netlists
whose data outputs' terms decide and are equal are equivalent without a
simulated cycle, and every other pair is simulated, each side's latency
read off its own terms where they decide.  ``simulate`` always simulates.
``equivalence_to`` checks one netlist against many, and
``check_equivalence`` is it applied once.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Callable

from .errors import NoResponseError, PortMismatchError, SimulationError
from .expr import BinOp, Concat, Const, Expr, Mux, Not, Ref, Shift, Slice
from .netlist import (CombCell, DelayCell, FifoCell, Netlist, feed,
                      fifo_started, fifo_taps, postorder)
from .protocol import Protocol
from .terms import evaluate, output_terms


@dataclass
class Stimulus:
    cycles: int
    # per-cycle input values, each read masked to its port's width; cycles
    # past the list and missing ports read as 0 (in_valid defaults to 1
    # under ready/valid)
    inputs: list[dict] | None = None
    sink_ready: list[int] | None = None  # per cycle; None means always ready
    reset_cycles: int = 1
    watch: tuple[str, ...] = ()

    def __post_init__(self):
        if self.cycles < 0 or self.reset_cycles < 0:
            raise SimulationError("stimulus counts must not be negative")
        if self.cycles < self.reset_cycles:
            raise SimulationError("stimulus shorter than its reset")
        if self.sink_ready is not None and len(self.sink_ready) < self.cycles:
            raise SimulationError(
                f"sink_ready lists {len(self.sink_ready)} of "
                f"{self.cycles} cycles")


def _vcd_id(i: int) -> str:
    """The ith VCD identifier: base-94 digits over the printable ``!``..``~``,
    least significant first, so the first 94 are one character."""
    code = chr(33 + i % 94)
    while i >= 94:
        i = i // 94 - 1
        code += chr(33 + i % 94)
    return code


@dataclass
class Trace:
    ports: list[str]
    widths: dict[str, int]
    samples: list[dict] = field(default_factory=list)
    accepted_inputs: list[dict] = field(default_factory=list)
    accepted_outputs: list[dict] = field(default_factory=list)

    def to_csv(self) -> str:
        cols = ["cycle"] + self.ports
        lines = [",".join(cols)]
        for i, s in enumerate(self.samples):
            lines.append(",".join([str(i)] + [str(s.get(p, 0)) for p in cols[1:]]))
        return "\n".join(lines) + "\n"

    def to_vcd(self, timescale: str = "1ns") -> str:
        ids = {p: _vcd_id(i) for i, p in enumerate(self.ports)}
        out = [f"$timescale {timescale} $end", "$scope module top $end"]
        for p in self.ports:
            out.append(f"$var wire {self.widths.get(p, 1)} {ids[p]} {p} $end")
        out += ["$upscope $end", "$enddefinitions $end"]
        prev: dict[str, int] = {}
        for i, s in enumerate(self.samples):
            out.append(f"#{i}")
            for p in self.ports:
                v = s.get(p, 0)
                if prev.get(p) != v:
                    out.append(f"b{v:b} {ids[p]}")
                    prev[p] = v
        return "\n".join(out) + "\n"


# lines per generated function: CPython's compiler needs a few KB of memory
# per line, and compiling one function at a time bounds that peak
_CHUNK = 100
# parenthesis depth past which a subexpression is assigned to a slot of its
# own, far below CPython's nesting limit of 200
_NEST = 50
_MASKED = {"add": "+", "sub": "-"}
_EXACT = {"mul": "*", "xor": "^", "and": "&", "or": "|"}


def _mask(width: int) -> str:
    return hex((1 << width) - 1)


class _Compiled:
    """A netlist compiled to straight-line Python, with its sequential state.

    Every net of the output cone (below) has a slot in the value list
    ``v``, and holds a value within its net's width.  Each combinational
    cell of the cone is one assignment with its masks resolved to literals,
    and a wire needs none: it shares its source's slot.  ``_expr`` compiles
    an expression to the fewest operations that give its value while every
    slot is in range: a mask that cannot change the value is left out, a
    run of equal ``cat`` parts is one product, and a full-width slice or a
    shift by 0 is its argument.  The statements are compiled as functions
    of at most ``_CHUNK`` lines: the settle functions compute a cycle's
    values, the update functions advance the state at the clock edge.  Net
    names enter the generated source only as ``repr`` literals in error
    messages.

    Under a global enable the settle statements form two lists, each in
    topological order: ``input_cone``, the cells that read an input port
    through cells or wires, and ``state_cone``, every other statement (a
    spilled temporary goes with its cell).  No state-cone statement reads
    an input, so ``run`` calls ``state_cone`` as soon as the state moves,
    for the cycles that follow: before the first cycle, after a reset cycle
    and after an enabled cycle's update.  Without an enable there is one
    list, ``input_cone``, and ``state_cone`` is empty.

    Every sequential cell shares the one global enable, so one count ``t``
    of enabled cycles since reset drives them all.  The delay lines of one
    depth ``d`` form a group whose outputs take adjacent slots; the group
    keeps a ring ``R[j]`` of ``d`` frames, each the tuple of the group's
    inputs on one enabled cycle.  Frame ``t % d`` holds the inputs of ``d``
    cycles ago, so one slice assignment reads every output of the group and
    one gather ``G[j]`` overwrites the frame.  A ring FIFO joins the group of
    its capacity: a started one gathers its input, an aligned one a slot of
    no net set by one settle statement, ``h = data if tap_w else
    R[j][t % c - 1][i]``; frame ``t % c - 1`` is the last enabled cycle's,
    so ``h`` is the last write and the ring's output ``h`` of ``c`` cycles
    before.  A checked queue's output register is ``S[j]`` and its contents
    the deque ``Q[j]``; its update pops where ``read_en`` is set and
    appends where ``write_en`` is, and raises where either errs.  A startup
    counter reads ``max(init - t, 0)``.

    The walk back from the observed nets by ``feed``, over the netlist's
    driver index, reaches the nets that get slots and the cells that get
    statements.  A ring FIFO's output reads its input, and ``tap_w`` if it
    is aligned; a reached flag reads its FIFO's enables, and makes it a
    checked queue.  Every other checked queue's enables are observed from
    the start, and one whose output is not reached queues zeros.  Stage
    nets, FIFO flags and enables and counter nets are only computed where
    the walk reaches them.
    """

    def __init__(self, netlist: Netlist, watch: tuple[str, ...] = ()):
        self.netlist = netlist
        drivers, fifos = netlist.drivers, netlist.fifos
        # the FIFOs of a form that may run on a delay ring (see the module
        # docstring), by output: tap_w where aligned, None where started
        ringed: dict[str, str | None] = {}
        for c in fifos:
            if fifo_started(c, drivers):
                ringed[c.out] = None
            elif (taps := fifo_taps(c, drivers)) is not None:
                w, r = (_delayed(netlist, tap) for tap in taps)
                if w is not None and r == (w[0], w[1] + c.capacity - 1):
                    ringed[c.out] = taps[0]
        # the observed nets and every net they read, walked backwards
        reached: dict[str, None] = {}
        lines: dict[int, DelayCell] = {}  # the delay lines met, by id
        stack = [n for n, _ in netlist.inputs + netlist.outputs] + list(watch)
        if netlist.enable is not None:
            stack.append(netlist.enable)
        # a FIFO off the ring forms always counts, so its enables are observed
        stack += [n for c in fifos if c.out not in ringed
                  for n in (c.write_en, c.read_en)]
        while stack:
            net = stack.pop()
            if net in reached:
                continue
            reached[net] = None
            c = drivers.get(net)
            if isinstance(c, DelayCell):
                lines[id(c)] = c
                stack.append(c.inp)
            elif isinstance(c, FifoCell) and c.out in ringed:
                if net == c.out:  # on its ring it reads no enable
                    stack.append(c.inp)
                    if ringed[c.out] is not None:
                        stack.append(ringed[c.out])
                else:  # a reached flag makes it a checked queue
                    stack += (c.write_en, c.read_en)
            else:
                stack += feed(netlist, net)[0]
        # a ringed FIFO whose flags nothing reaches runs on its ring; every
        # other FIFO keeps a checked queue, as its enables are observed
        ring: list[FifoCell] = []
        queued: list[FifoCell] = []
        for c in fifos:
            if c.out not in ringed or c.full in reached or c.empty in reached:
                queued.append(c)
            elif c.out in reached:
                ring.append(c)
        groups: dict[int, list[DelayCell | FifoCell]] = {}
        for c in lines.values():
            groups.setdefault(c.depth, []).append(c)
        for c in ring:
            groups.setdefault(c.capacity, []).append(c)
        # sequential outputs first, in state order, so slices copy them
        order = [c.out for group in groups.values() for c in group]
        order += [c.out for c in queued] + list(reached)
        self.slot = {net: i for i, net in enumerate(dict.fromkeys(order))}
        self.nslots = len(self.slot)
        # each aligned FIFO's held value, a slot of no net
        hold = {out: self.nslots + k for k, out in enumerate(
            c.out for c in ring if ringed[c.out] is not None)}
        self.nslots += len(hold)
        # under an enable, the input cone: every net that reads an input
        # port through combinational cells, wires included
        cone = netlist.enable is not None
        live = {n for n, _ in netlist.inputs}
        cells: list[CombCell] = []
        for c in netlist.comb_order:
            if c.out not in reached:
                continue
            if cone and not live.isdisjoint(netlist.reads[c.out]):
                live.add(c.out)
            if isinstance(c.expr, Ref):
                # in topological order, so a chain of wires ends at its
                # first source
                self.slot[c.out] = self.slot[c.expr.name]
            else:
                cells.append(c)
        self.rings = [[(0,) * len(group)] * depth
                      for depth, group in groups.items()]
        gathers = [_gather([hold[c.out] if c.out in hold
                            else self.slot[c.inp] for c in group])
                   for group in groups.values()]
        self.queues = [deque() for _ in queued]
        self.fifo_out = [0] * len(queued)
        settle: list[str] = []  # the input cone, run every cycle
        # the state cone, run when the state moves; one list without an enable
        state: list[str] = [] if cone else settle
        update: list[str] = []
        ref = self._ref
        for j, (depth, group) in enumerate(groups.items()):
            first = self.slot[group[0].out]
            state.append(
                f"v[{first}:{first + len(group)}] = R[{j}][t % {depth}]")
            state += [f"{ref(net)} = R[{j}][t % {depth} - {k}][{i}]"
                      for i, c in enumerate(group) if isinstance(c, DelayCell)
                      for k, net in enumerate(c.stages, 1) if net in reached]
            update.append(f"R[{j}][t % {depth}] = G[{j}](v)")
        if queued:
            first = self.slot[queued[0].out]
            state.append(f"v[{first}:{first + len(queued)}] = S")
        for j, c in enumerate(queued):
            if c.full in reached:
                state.append(f"{ref(c.full)} = "
                             f"1 if len(Q[{j}]) >= {c.capacity} else 0")
            if c.empty in reached:
                state.append(f"{ref(c.empty)} = 0 if Q[{j}] else 1")
            # an unread FIFO still counts, storing zeros
            data = ref(c.inp) if c.out in reached else "0"
            empty = repr(f"FIFO {c.out!r} read while empty")
            full = repr(f"FIFO {c.out!r} write while full")
            update += [f"if {ref(c.read_en)}:\n"
                       f"    if not Q[{j}]:\n"
                       f"        raise SimulationError({empty})\n"
                       f"    S[{j}] = Q[{j}].popleft()",
                       f"if {ref(c.write_en)}:\n"
                       f"    if len(Q[{j}]) >= {c.capacity}:\n"
                       f"        raise SimulationError({full})\n"
                       f"    Q[{j}].append({data})"]
        for c in netlist.counters:
            if c.count in reached:
                state.append(
                    f"{ref(c.count)} = {c.init} - t if t < {c.init} else 0")
            if c.zero in reached:
                state.append(f"{ref(c.zero)} = 0 if t < {c.init} else 1")
        for c in cells:
            out = settle if c.out in live else state
            src, _, _ = self._expr(c.expr, out)
            out.append(f"{ref(c.out)} = {src}")
        # an aligned FIFO's held value is its last write, and frame
        # t % c - 1 holds the last enabled cycle's; only its ring's gather
        # reads it, so it comes after every cell
        for j, group in enumerate(groups.values() if hold else ()):
            for i, c in enumerate(group):
                if c.out in hold:
                    tap_w = ringed[c.out]
                    out = state if live.isdisjoint((c.inp, tap_w)) else settle
                    out.append(f"v[{hold[c.out]}] = {ref(c.inp)} if "
                               f"{ref(tap_w)} else R[{j}][t % {c.capacity} - 1]"
                               f"[{i}]")
        self.v = [0] * self.nslots
        # the code names nothing else: CPython interns each name a compile
        # meets and frees it with the code, and names per ring or per depth
        # made that churn grow the heap by about 15 KB per benchmark round
        namespace = {"R": self.rings, "G": gathers, "Q": self.queues,
                     "S": self.fifo_out, "SimulationError": SimulationError}
        self.input_cone = _functions(settle, namespace)
        self.state_cone = [] if state is settle else _functions(state,
                                                                 namespace)
        self.update = _functions(update, namespace)

    def _ref(self, net: str) -> str:
        return f"v[{self.slot[net]}]"

    def _expr(self, e: Expr, out: list[str]) -> tuple[str, int, int]:
        """Python source for ``e``, its parenthesis depth and its width, in
        the fewest operations that give its value while every slot holds a
        value within its net's width.  Each node's width is carried up from
        its arguments'.  A subexpression nested ``_NEST`` deep is first
        assigned to a new slot, by a statement appended to ``out``."""
        t = type(e)
        if t is Const:
            return hex(e.value), 0, e.const_width
        if t is Ref:
            return self._ref(e.name), 1, self.netlist.nets[e.name]
        if t is BinOp:
            (a, da, wa), (b, db, wb) = (self._expr(e.lhs, out),
                                        self._expr(e.rhs, out))
            if e.op in _MASKED:
                w = max(wa, wb)
                src = f"({a} {_MASKED[e.op]} {b} & {_mask(w)})"
            else:  # a product fits the sum of its operands' widths
                w = wa + wb if e.op == "mul" else max(wa, wb)
                src = f"({a} {_EXACT[e.op]} {b})"
            return self._spill(src, max(da, db) + 1, out) + (w,)
        if t is Not:
            a, d, w = self._expr(e.arg, out)
            return self._spill(f"({a} ^ {_mask(w)})", d + 1, out) + (w,)
        if t is Shift:
            w = e.arg.width(self.netlist.nets)
            # every bit shifts out; testing first keeps a huge shl from
            # allocating, and compiles nothing of the argument
            if e.amount >= w:
                return "0", 0, w
            a, d, _ = self._expr(e.arg, out)
            if not e.amount:
                return a, d, w
            if e.op == "shl":
                src = f"({a} << {e.amount} & {_mask(w)})"
            else:
                src = f"({a} >> {e.amount})"
            return self._spill(src, d + 1, out) + (w,)
        if t is Mux:
            (s, ds, _), (a, da, w), (b, db, _) = (
                self._expr(x, out) for x in (e.sel, e.then, e.other))
            return self._spill(f"({a} if {s} else {b})",
                               max(ds, da, db) + 1, out) + (w,)
        if t is Slice:
            a, d, wa = self._expr(e.arg, out)
            w = e.hi - e.lo + 1
            src = a
            if e.lo:
                src = f"{src} >> {e.lo}"
            if e.hi + 1 < wa:  # not up to the top bit
                src = f"{src} & {_mask(w)}"
            if src == a:
                return a, d, w
            return self._spill(f"({src})", d + 1, out) + (w,)
        if t is Concat:
            acc, d, total = None, 0, 0
            for p, copies in groupby(e.parts):  # each run of equal parts
                k = len(list(copies))
                b, db, w = self._expr(p, out)
                total += w * k
                if k > 1:  # k copies of a w-bit value never carry
                    ones = hex(sum(1 << w * i for i in range(k)))
                    b, db = self._spill(f"({b} * {ones})", db + 1, out)
                if acc is None:
                    acc, d = b, db
                else:
                    acc, d = self._spill(f"({acc} << {w * k} | {b})",
                                         max(d, db) + 1, out)
            return acc, d, total
        raise TypeError(f"unknown expression node {e!r}")

    def _spill(self, src: str, depth: int, out: list[str]) -> tuple[str, int]:
        if depth < _NEST:
            return src, depth
        slot = f"v[{self.nslots}]"
        self.nslots += 1
        out.append(f"{slot} = {src}")
        return slot, 1

    def reset(self) -> None:
        for ring in self.rings:
            ring[:] = [(0,) * len(ring[0])] * len(ring)
        for q in self.queues:
            q.clear()
        self.fifo_out[:] = [0] * len(self.fifo_out)

    def run(self, stim: Stimulus) -> Trace:
        """Simulate ``stim`` from the reset state."""
        nl = self.netlist
        rv = nl.protocol is Protocol.READY_VALID
        in_ports = [n for n, _ in nl.inputs]
        out_ports = [n for n, _ in nl.outputs]
        ports = in_ports + out_ports + [p for p in stim.watch
                                        if p not in in_ports + out_ports]
        trace = Trace(ports, {p: nl.nets[p] for p in ports})
        slot = self.slot
        data_in, data_out = nl.data_ports()
        # each input masked to its port's width, as a Verilog port truncates
        data = [(p, slot[p], (1 << w) - 1) for p, w in data_in]
        sample = _gather([slot[p] for p in ports])
        enable = None if nl.enable is None else slot[nl.enable]
        if rv:
            valid_in, ready_in, ready_out, valid_out = (
                slot[p] for p in ("in_valid", "out_ready", "in_ready",
                                  "out_valid"))
            taken_in = [p for p, _ in data_in]
            taken_out = [p for p, _ in data_out]
            get_in = _gather([slot[p] for p in taken_in])
            get_out = _gather([slot[p] for p in taken_out])
        v, update = self.v, self.update
        state_cone, input_cone = self.state_cone, self.input_cone
        samples = trace.samples
        accepted_in, accepted_out = trace.accepted_inputs, trace.accepted_outputs
        given = chain((stim.inputs or [])[:stim.cycles], repeat({}))
        ready = repeat(1) if stim.sink_ready is None else stim.sink_ready
        # the state cone reads no input, so it settles as soon as the state
        # moves (a reset or an enabled cycle) for the cycles that follow; on
        # a stalled cycle its slots already hold what it would compute
        self.reset()
        t = 0
        for f in state_cone:
            f(v, t)
        for cycle, inputs, sink in zip(range(stim.cycles), given, ready):
            for p, i, mask in data:
                v[i] = inputs.get(p, 0) & mask
            if rv:
                v[valid_in] = inputs.get("in_valid", 1) & 1
                v[ready_in] = 1 if sink else 0
            for f in input_cone:
                f(v, t)
            samples.append(dict(zip(ports, sample(v))))
            if cycle < stim.reset_cycles:
                self.reset()
                t = 0
                for f in state_cone:
                    f(v, t)
                continue
            if rv:
                if v[valid_in] and v[ready_out]:
                    accepted_in.append(dict(zip(taken_in, get_in(v))))
                if v[valid_out] and v[ready_in]:
                    accepted_out.append(dict(zip(taken_out, get_out(v))))
            if enable is None or v[enable]:
                for f in update:
                    f(v, t)
                t += 1
                for f in state_cone:
                    f(v, t)
        return trace


def _gather(slots: list[int]) -> Callable[[list], tuple]:
    """A function of the value list returning the values at ``slots`` as a
    tuple; ``itemgetter`` returns a bare value for a single slot."""
    if len(slots) == 1:
        i, = slots
        return lambda v: (v[i],)
    return itemgetter(*slots) if slots else lambda v: ()


def _delayed(netlist: Netlist, net: str) -> tuple[str, int] | None:
    """The net that ``net`` is a delay of through wires and delay lines, and
    the enabled cycles between them; None where the walk comes back to a
    net, around a loop of delay lines."""
    drivers, shift, seen = netlist.drivers, 0, set()
    while net not in seen:
        seen.add(net)
        c = drivers.get(net)
        if isinstance(c, DelayCell):
            shift += feed(netlist, net)[1]
            net = c.inp
        elif isinstance(c, CombCell) and isinstance(c.expr, Ref):
            net = c.expr.name
        else:
            return net, shift
    return None


def _functions(stmts: list[str], namespace: dict) -> list[Callable]:
    """Compile ``stmts`` as functions ``(v, t)`` of at most ``_CHUNK``
    lines each, each one on its own, so the compiler's memory stays
    bounded."""
    fns = []
    lines: list[str] = []

    def flush():
        body = "\n".join(["def chunk(v, t):"] + lines)
        exec(compile(body, "<pipeforge sim>", "exec"), namespace)
        fns.append(namespace.pop("chunk"))
        lines.clear()

    for stmt in stmts:
        if len(lines) >= _CHUNK:
            flush()
        lines.extend("    " + line for line in stmt.split("\n"))
    if lines:
        flush()
    return fns


def simulate(netlist: Netlist, stim: Stimulus) -> Trace:
    for p in stim.watch:
        if p not in netlist.nets:
            raise SimulationError(f"watched net {p!r} does not exist")
    return _Compiled(netlist, stim.watch).run(stim)


def _settle_time(sim: _Compiled, nets: list[str]) -> int:
    """Longest sequential path into ``nets``, in enabled cycles.

    Inputs and constants settle at 0, a combinational net at the latest of
    the nets it reads, a delay line's kth net k cycles after its input, a
    FIFO's nets ``capacity + 1`` cycles after the latest of what ``feed``
    says they read, and a startup counter's nets at its ``init``.  So once
    the inputs have held still this long after reset, ``nets`` hold still
    too.  Walks only the nets that ``nets`` depend on, in one depth-first
    pass over the compiled netlist's driver index.
    """
    netlist = sim.netlist
    settle: dict[str, int] = {}
    for net in postorder(nets, lambda n: feed(netlist, n)[0],
                         lambda n: SimulationError(
                             f"net {n!r} feeds back into itself, so it "
                             "never settles")):
        srcs, delay = feed(netlist, net)
        settle[net] = max((settle[n] for n in srcs), default=0) + delay
    return max((settle[n] for n in nets), default=0)


def measured_latency(netlist: Netlist, seed: int = 0) -> int:
    """Input-to-output delay of a raw netlist, as an impulse finds it.

    The pipeline is warmed with zeros and given a one-cycle random
    stimulus; the delay is the cycles until any output first deviates from
    its settled value.  A draw the function is insensitive to is retried
    with fresh values, and ``NoResponseError`` raised after 20.  Where its
    timed terms decide (``terms.py``), the delay is their one shift and the
    draws are evaluated on the output cores only.  Elsewhere the netlist is
    compiled once and the impulses simulated, after a warm-up as long as
    its own longest sequential path into the outputs, so it needs no
    planned latency.
    """
    if netlist.protocol is not Protocol.RAW:
        raise SimulationError("latency measurement applies to raw netlists")
    return _raw_latency(netlist, seed)


def _raw_latency(netlist: Netlist, seed: int,
                 sim: _Compiled | None = None) -> int:
    """``measured_latency`` of a raw netlist: its timed terms first, and
    where they do not decide, the impulses simulated on ``sim``, compiled
    here if not given."""
    latency = _term_latency(netlist, seed)
    if latency is None:
        return _latency(sim or _Compiled(netlist), seed)
    return latency


def _first_response(netlist: Netlist, seed: int,
                    response: Callable[[dict], int | None]) -> int:
    """``response`` of the first of 20 random one-cycle impulses, drawn
    from ``seed``, that it is not None for; ``NoResponseError`` if none."""
    rng = random.Random(seed)
    for _ in range(20):
        impulse = {n: rng.randrange(1, 1 << w) for n, w in netlist.inputs}
        latency = response(impulse)
        if latency is not None:
            return latency
    raise NoResponseError("output never responded to any impulse")


def _latency(sim: _Compiled, seed: int) -> int:
    """``measured_latency`` of a compiled raw netlist, simulated."""
    out_ports = [n for n, _ in sim.netlist.outputs]
    warm = _settle_time(sim, out_ports) + 8

    def response(impulse: dict) -> int | None:
        trace = sim.run(Stimulus(2 * warm + 2, [{}] * warm + [impulse]))
        settled = trace.samples[warm - 1]
        for c in range(warm, len(trace.samples)):
            if any(trace.samples[c][p] != settled[p] for p in out_ports):
                return c - warm
        return None

    return _first_response(sim.netlist, seed, response)


def _term_latency(netlist: Netlist, seed: int) -> int | None:
    """``measured_latency`` of a raw netlist read off its timed terms; None
    where they do not decide."""
    cores: dict = {}
    terms = output_terms(netlist, cores)
    if terms is None:
        return None
    latency = next(shift for shift, core in terms if core[1])
    outs = [core[0] for _, core in terms]
    settled = evaluate(cores, {n: 0 for n, _ in netlist.inputs})

    def response(impulse: dict) -> int | None:
        values = evaluate(cores, impulse)
        return latency if any(values[i] != settled[i] for i in outs) else None

    return _first_response(netlist, seed, response)


@dataclass
class Verdict:
    ok: bool
    detail: str = ""


def _ready_schedule(rng: random.Random, cycles: int, duty: float,
                    ready_cycles: int) -> list[int]:
    """``cycles`` sink-ready bits drawn at ``duty``, then more drawn the same
    way until ``ready_cycles`` of them are set."""
    bits = [1 if rng.random() < duty else 0 for _ in range(cycles)]
    ready = sum(bits)
    while ready < ready_cycles:
        bits.append(1 if rng.random() < duty else 0)
        ready += bits[-1]
    return bits


def _stream_latency(sim: _Compiled, seed: int) -> int:
    """Enabled cycles from a transaction in to its result out: measured on
    a raw netlist, the depth of the valid chain under ready/valid."""
    if sim.netlist.protocol is Protocol.RAW:
        return _raw_latency(sim.netlist, seed, sim)
    return _settle_time(sim, ["out_valid"])


def _stream_outputs(sim: _Compiled, data: list[dict], rng: random.Random,
                    cycles: int, latency: int) -> tuple[list[dict], list[dict]]:
    """Feed a transaction stream and return the input transactions the
    netlist took and the output transaction stream.

    Raw netlists take one transaction per cycle and outputs are aligned by
    ``latency``; ready/valid netlists get a randomly stalling sink (the kth
    value is presented until the kth enabled cycle accepts it), ready long
    enough for every transaction to come out ``latency`` enabled cycles
    after it went in, and take what ``in_valid & in_ready`` accepts.
    """
    netlist = sim.netlist
    out_ports = [n for n, _ in netlist.data_ports()[1]]
    reset = 1
    if netlist.protocol is Protocol.RAW:
        trace = sim.run(Stimulus(reset + len(data) + latency,
                                 [{}] * reset + data))
        return data, [{p: trace.samples[reset + k + latency][p]
                       for p in out_ports} for k in range(len(data))]
    duty = 0.1 + 0.8 * rng.random()
    ready = [0] * reset + _ready_schedule(rng, cycles, duty,
                                          len(data) + latency)
    # acceptance cycles are known upfront: in_ready mirrors out_ready
    per_cycle: list[dict] = []
    k = 0
    for c in range(len(ready)):
        per_cycle.append(data[k] if k < len(data) else {"in_valid": 0})
        if ready[c] and k < len(data):
            k += 1
    trace = sim.run(Stimulus(
        cycles=len(ready), inputs=per_cycle, sink_ready=ready,
        reset_cycles=reset))
    return trace.accepted_inputs, trace.accepted_outputs


def check_equivalence(a: Netlist, b: Netlist, trials: int = 4,
                      seed: int = 0, cycles: int = 400) -> Verdict:
    """Compare two lowerings of the same pipeline on matched random streams.

    Port interfaces must agree up to the handshake ports; transaction
    streams (aligned per netlist) must be identical, a ready/valid netlist
    must take exactly the stream's inputs, in order, and neither may hold
    more outputs than the stream had inputs.  Each netlist is compiled
    once, for its latency and every trial.

    Every pair, raw, ready/valid or one of each, is first compared by the
    timed terms of its data outputs (``terms.output_terms``).  Where those
    decide on both sides and are equal, the pair is equivalent and nothing
    is compiled or simulated.  Then ``trials``, ``seed`` and ``cycles``
    have no effect, and outputs that read their inputs but are constant
    functions of them (``x xor x``) are equivalent where the impulse of the
    latency measurement raised ``NoResponseError``.  Every other pair is
    simulated.  ``trials`` below 1 raises ``SimulationError``, as it would
    compare nothing.
    """
    if trials < 1:
        raise SimulationError(f"equivalence needs a trial, got {trials}")
    if a.data_ports() != b.data_ports():
        raise PortMismatchError(
            f"port interfaces differ: {a.data_ports()} vs {b.data_ports()}")
    return equivalence_to(a, seed)(b, trials, seed, cycles)


def equivalence_to(a: Netlist, seed: int) -> Callable[
        [Netlist, int, int, int], Verdict]:
    """``check(b, trials, seed_b, cycles)``: ``check_equivalence`` of ``a``
    and ``b`` less its argument checks, with ``a``'s latency measured at
    ``seed``.  ``a``'s terms are found once, here, and ``a`` is compiled
    and measured once, when the first ``b`` the terms do not decide needs it."""
    cores: dict = {}
    terms = output_terms(a, cores)
    base = None  # a compiled, and its stream latency

    def check(b: Netlist, trials: int, seed_b: int, cycles: int) -> Verdict:
        nonlocal base
        if terms is not None and terms == output_terms(b, cores):
            return Verdict(True)
        if base is None:
            sim = _Compiled(a)
            base = sim, _stream_latency(sim, seed)
        return _equivalence(*base, _Compiled(b), trials, seed_b, cycles)

    return check


def _equivalence(sim_a: _Compiled, lat_a: int, sim_b: _Compiled,
                 trials: int, seed: int, cycles: int) -> Verdict:
    """The simulated half of ``check_equivalence``: two compiled netlists
    with equal data ports, the first one's stream latency given."""
    ins, _ = sim_a.netlist.data_ports()
    lat_b = _stream_latency(sim_b, seed)
    rng = random.Random(seed)
    for trial in range(trials):
        n = max(16, cycles // 4)
        data = [{p: rng.randrange(0, 1 << w) for p, w in ins} for _ in range(n)]
        in_a, out_a = _stream_outputs(
            sim_a, data, random.Random(rng.randrange(1 << 30)), cycles, lat_a)
        in_b, out_b = _stream_outputs(
            sim_b, data, random.Random(rng.randrange(1 << 30)), cycles, lat_b)
        for taken in (in_a, in_b):
            if taken != data:  # in_ready took inputs out of turn
                return Verdict(False, f"trial {trial}: {len(taken)} inputs "
                                      f"taken, not the {n} sent in order")
        m = min(len(out_a), len(out_b))
        if m < 4:
            return Verdict(False, f"trial {trial}: too few outputs ({m})")
        for k in range(m):
            if out_a[k] != out_b[k]:
                return Verdict(False,
                               f"trial {trial}: transaction {k} differs: "
                               f"{out_a[k]} vs {out_b[k]}")
        if max(len(out_a), len(out_b)) > n:  # a valid held past the stream
            return Verdict(False, f"trial {trial}: {len(out_a)} and "
                                  f"{len(out_b)} outputs from {n} inputs")
    return Verdict(True)

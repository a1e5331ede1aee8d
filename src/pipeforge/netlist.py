"""Primitive-level netlist IR and lowering from a resolved graph.

Cells are combinational assignments, delay lines, constant-latency FIFOs
and FIFO startup counters.  A delay line covers every register delay: a
single register, a register chain (with or without the no-extract
attribute) or a shift register, differing only in how it is emitted.
Every net has exactly one driver; ready/valid pipelines additionally carry
a 1-bit valid chain and a single global enable net implementing uniform
backpressure (enable low freezes every sequential cell at once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from . import expr as E
from .errors import PipeforgeError, WidthMismatchError
from .model import SignalStatus, SyncGraph, ZoneKind
from .protocol import HANDSHAKE_INPUTS, HANDSHAKE_OUTPUTS, HandshakePlan, Protocol
from .resolve import PrimitivePolicy, ShiftregMode


@dataclass(frozen=True)
class CombCell:
    out: str
    expr: E.Expr


DELAY_STYLES = ("register", "no_extract", "srl")
_LINE_STYLE = {ShiftregMode.AUTO: "register",
               ShiftregMode.FORCE_REG: "no_extract",
               ShiftregMode.FORCE_SRL: "srl"}


def select_primitive(latency: int, width: int, policy: PrimitivePolicy) -> str:
    """The decision table for one propagation: ``"wire"`` at latency 0,
    ``"fifo"`` at or above both thresholds, else a delay-line style (a
    single register is always ``"register"``)."""
    if latency >= 2:
        if latency >= policy.depth_threshold and width >= policy.width_threshold:
            return "fifo"
        return _LINE_STYLE[policy.shiftreg_mode]
    return "wire" if latency == 0 else "register"


@dataclass(frozen=True)
class DelayCell:
    """``out`` is ``inp`` delayed by ``depth`` enabled cycles.

    Register-style lines (register, no_extract) name their depth - 1
    intermediate nets in ``stages``, the kth being ``inp`` delayed k cycles;
    an srl line is one shift-register instance and has none.
    """
    out: str
    inp: str
    depth: int
    style: str = "register"
    stages: tuple[str, ...] = ()


@dataclass(frozen=True)
class FifoCell:
    out: str
    inp: str
    capacity: int
    write_en: str
    read_en: str
    full: str
    empty: str


@dataclass(frozen=True)
class CounterCell:
    count: str  # current value, observable in traces
    zero: str   # 1-bit (count == 0)
    init: int


Cell = CombCell | DelayCell | FifoCell | CounterCell

# IEEE 1364-2005 Annex B: no Verilog tool takes these as a port or module name
VERILOG_KEYWORDS = frozenset("""
    always and assign automatic begin buf bufif0 bufif1 case casex casez cell
    cmos config deassign default defparam design disable edge else end
    endcase endconfig endfunction endgenerate endmodule endprimitive
    endspecify endtable endtask event for force forever fork function
    generate genvar highz0 highz1 if ifnone incdir include initial inout input
    instance integer join large liblist library localparam macromodule medium
    module nand negedge nmos nor noshowcancelled not notif0 notif1 or output
    parameter pmos posedge primitive pull0 pull1 pulldown pullup
    pulsestyle_ondetect pulsestyle_onevent rcmos real realtime reg release
    repeat rnmos rpmos rtran rtranif0 rtranif1 scalared showcancelled signed
    small specify specparam strong0 strong1 supply0 supply1 table task time
    tran tranif0 tranif1 tri tri0 tri1 triand trior trireg unsigned use uwire
    vectored wait wand weak0 weak1 while wire wor xnor xor""".split())


@dataclass(frozen=True)
class Netlist:
    """A netlist, checked once when it is built and immutable after.

    The constructor, and so ``dataclasses.replace``, applies the one rule of
    a netlist, so that the Verilog ``emit_verilog`` writes means what
    ``simulate`` runs:

    - every net but an input port has one driver, an input port none;
    - every port is named once, and every port and every net a cell reads
      or drives is declared in ``nets``, a port as wide as its net;
    - a combinational cell's expression is width-correct and as wide as its
      net, so a wire joins two nets of one width;
    - a delay line's nets and a FIFO's output are as wide as their input;
      FIFO enables and flags, counter zero flags and the global enable are
      1 bit, and a counter's net holds its init;
    - a delay line has a known style, a depth of at least 1 (2 for srl) and
      a stage net per cycle but the last (none for srl); a FIFO holds at
      least 2 values, and a startup counter starts at 1 or more;
    - the combinational cells form no cycle.

    Widths live in ``nets`` only.  What the rule finds is kept, and every
    consumer reads it and checks nothing: ``drivers``, every net's driving
    cell, stage nets and flags included; ``stage_delays``, each stage net's
    delay in enabled cycles from its line's input (the kth stage net k);
    ``reads``, the nets each combinational cell's expression reads, sorted,
    by the cell's net; ``comb_order``, the combinational cells in evaluation
    order (sequential outputs count as cycle-start constants); ``fifos`` and
    ``counters``, in cell order.
    """
    name: str
    inputs: tuple[tuple[str, int], ...] = ()
    outputs: tuple[tuple[str, int], ...] = ()
    nets: Mapping[str, int] = field(default_factory=dict)
    cells: tuple[Cell, ...] = ()
    protocol: Protocol = Protocol.RAW
    enable: str | None = None  # global clock-enable net (ready/valid only)
    drivers: Mapping[str, Cell] = field(init=False, repr=False, compare=False)
    stage_delays: Mapping[str, int] = field(init=False, repr=False,
                                            compare=False)
    reads: Mapping[str, tuple[str, ...]] = field(init=False, repr=False,
                                                 compare=False)
    comb_order: tuple[CombCell, ...] = field(init=False, repr=False, compare=False)
    fifos: tuple[FifoCell, ...] = field(init=False, repr=False, compare=False)
    counters: tuple[CounterCell, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # checked as a plain dict, then wrapped; the proxy that
        # ``dataclasses.replace`` passes copies fastest by its own copy()
        nets = (self.nets.copy() if isinstance(self.nets, MappingProxyType)
                else dict(self.nets))
        inputs, outputs = tuple(self.inputs), tuple(self.outputs)
        cells = tuple(self.cells)

        def need(net: str, width: int | None = None) -> int:
            got = nets.get(net)
            if got is None:
                raise PipeforgeError(f"net {net!r} is not declared")
            if width not in (None, got):
                raise WidthMismatchError(
                    f"net {net!r} is {got} bits where {width} are needed")
            return got

        named: set[str] = set()
        for name, w in inputs + outputs:
            if name in named:
                raise PipeforgeError(f"port {name!r} is listed twice")
            named.add(name)
            if nets.get(name) != w:
                raise WidthMismatchError(f"port {name!r} width mismatch")
        # one pass over the cells, as a large netlist is slow to walk
        drivers: dict[str, Cell] = {}
        stage_delays: dict[str, int] = {}
        combs, fifos, counters = [], [], []
        for c in cells:
            if isinstance(c, CombCell):
                driven: tuple[str, ...] = (c.out,)
                combs.append(c)
            elif isinstance(c, DelayCell):
                if c.style not in DELAY_STYLES:
                    raise PipeforgeError(f"unknown delay style {c.style!r}")
                if c.depth < (2 if c.style == "srl" else 1):
                    raise PipeforgeError(f"{c.style} delay lines are too short")
                if len(c.stages) != (0 if c.style == "srl" else c.depth - 1):
                    raise PipeforgeError("delay line stage nets do not match its depth")
                w = nets.get(c.inp)
                for n in (*c.stages, c.out):
                    if w is None or nets.get(n) != w:
                        need(n, need(c.inp))
                # a line drives its stages before its output
                for k, n in enumerate(c.stages, 1):
                    if n in drivers:
                        raise PipeforgeError(f"net {n!r} has multiple drivers")
                    drivers[n] = c
                    stage_delays[n] = k
                driven = (c.out,)
            elif isinstance(c, FifoCell):
                if c.capacity < 2:
                    raise PipeforgeError("FIFO cells have capacity >= 2")
                driven = (c.out, c.full, c.empty)
                need(c.out, need(c.inp))
                for n in (c.write_en, c.read_en, c.full, c.empty):
                    need(n, 1)
                fifos.append(c)
            else:
                if c.init < 1:
                    raise PipeforgeError("startup counters have init >= 1")
                driven = (c.count, c.zero)
                if c.init >> need(c.count):
                    raise WidthMismatchError(
                        f"counter {c.count!r} cannot hold its init {c.init}")
                need(c.zero, 1)
                counters.append(c)
            for n in driven:
                if n in drivers:
                    raise PipeforgeError(f"net {n!r} has multiple drivers")
                drivers[n] = c
        ports = {n for n, _ in inputs}
        for net in nets:
            if net in ports:
                if net in drivers:
                    raise PipeforgeError(f"input port {net!r} is driven internally")
            elif net not in drivers:
                raise PipeforgeError(f"net {net!r} has no driver")
        if len(drivers) != len(nets) - len(ports):
            need(next(n for n in drivers if n not in nets))
        if self.enable is not None:
            need(self.enable, 1)
        reads: dict[str, tuple[str, ...]] = {}  # each cell's, sorted
        for c in combs:
            refs = c.expr.refs()
            if not nets.keys() >= refs:
                need(min(refs - nets.keys()))
            try:
                got = c.expr.width(nets)
            except WidthMismatchError as exc:
                raise WidthMismatchError(f"net {c.out!r}: {exc}") from None
            if got != nets[c.out]:
                raise WidthMismatchError(
                    f"net {c.out!r} is {nets[c.out]} bits but its expression "
                    f"has {got}")
            reads[c.out] = tuple(sorted(refs))

        def sources(net: str) -> list[str]:
            return [r for r in reversed(reads[net])
                    if isinstance(drivers.get(r), CombCell)]

        # cells and sources go in reversed, as ``postorder`` takes the last
        # first, so the order is the one a depth-first visit in cell and name
        # order gives
        order = postorder([c.out for c in reversed(combs)], sources,
                          lambda net: PipeforgeError(
                              f"combinational cycle through net {net!r}"))
        for key, value in (
                ("inputs", inputs), ("outputs", outputs),
                ("nets", MappingProxyType(nets)), ("cells", cells),
                ("drivers", MappingProxyType(drivers)),
                ("stage_delays", MappingProxyType(stage_delays)),
                ("reads", MappingProxyType(reads)),
                ("comb_order", tuple(drivers[net] for net in order)),
                ("fifos", tuple(fifos)), ("counters", tuple(counters))):
            object.__setattr__(self, key, value)  # frozen: set once, here

    def data_ports(self) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
        """The input and output ports that carry data: every port under raw,
        all but the handshake ports under ready/valid."""
        if self.protocol is Protocol.RAW:
            return list(self.inputs), list(self.outputs)
        return ([p for p in self.inputs if p[0] not in HANDSHAKE_INPUTS],
                [p for p in self.outputs if p[0] not in HANDSHAKE_OUTPUTS])

    def cell_counts(self) -> dict[str, int]:
        counts = {"comb": len(self.comb_order), "reg": 0, "shiftreg": 0,
                  "fifo": len(self.fifos), "counter": len(self.counters)}
        for c in self.cells:
            if isinstance(c, DelayCell):
                if c.style == "srl":
                    counts["shiftreg"] += 1
                else:
                    counts["reg"] += c.depth
        return counts


def postorder(nets: Sequence[str], sources: Callable[[str], Sequence[str]],
              cycle: Callable[[str], Exception]) -> list[str]:
    """``nets`` and every net they read through ``sources``, each after
    the nets it reads.  One depth-first pass kept on a stack, as chains of
    cells run thousands deep.  A net that feeds back into itself raises
    ``cycle(net)``, naming the net the walk comes back to."""
    done: dict[str, None] = {}
    entered: set[str] = set()  # on the stack below its unfinished sources
    stack = list(nets)
    while stack:
        net = stack[-1]
        if net in done:
            stack.pop()
            continue
        if net not in entered:
            entered.add(net)
            todo = [n for n in sources(net) if n not in done]
            if todo:
                looped = [n for n in todo if n in entered]
                if looped:
                    raise cycle(looped[-1])
                stack.extend(todo)
                continue
        stack.pop()
        done[net] = None
    return list(done)


def feed(netlist: Netlist, net: str) -> tuple[Sequence[str], int]:
    """The nets that ``net``'s driver reads to drive it, and the enabled
    cycles between them.  A FIFO's flag follows its occupancy: it reads
    what the enables read, less the flags.  References come sorted, from
    the netlist's ``reads``, so walks visit nets in the same order on every
    run."""
    cell = netlist.drivers.get(net)
    if isinstance(cell, CombCell):
        return netlist.reads[net], 0
    if isinstance(cell, DelayCell):
        return (cell.inp,), (cell.depth if net == cell.out
                             else netlist.stage_delays[net])
    if isinstance(cell, FifoCell):
        if net == cell.out:
            return (cell.inp, cell.write_en, cell.read_en), cell.capacity + 1
        reads = netlist.reads
        # an enable that no combinational cell drives reads itself
        found = {*reads.get(cell.write_en, (cell.write_en,)),
                 *reads.get(cell.read_en, (cell.read_en,))}
        return sorted(found - {cell.full, cell.empty}), cell.capacity + 1
    if isinstance(cell, CounterCell):
        return (), cell.init
    return (), 0


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def lower(graph: SyncGraph, plan: HandshakePlan,
          policy: PrimitivePolicy | None = None) -> Netlist:
    """Lower a resolved graph plus handshake plan to a netlist.

    Step bodies become combinational cells over their source zone's nets;
    every nonzero-latency relation (step, merge compensation or resolved
    propagation) becomes the primitive chosen by select_primitive.  Under
    ready/valid, FIFO write/read enables are derived from the valid-chain
    taps at the source depth and one cycle before the sink depth, which is
    the synchronous equivalent of the upstream-valid / downstream-ready
    handshake terms under the global enable.
    """
    policy = policy or PrimitivePolicy()
    inputs: list[tuple[str, int]] = []
    outputs: list[tuple[str, int]] = []
    nets: dict[str, int] = {}
    cells: list[Cell] = []
    enable = None

    def alloc(base: str, width: int) -> str:
        name = base
        n = 2
        while name in nets:
            name = f"{base}__{n}"
            n += 1
        nets[name] = width
        return name

    depths = plan.depths
    rv = plan.protocol is Protocol.READY_VALID

    decls = graph.decls
    net_of: dict[tuple[str, str], str] = {}
    for sig in graph.zones[graph.input_zone].slots:
        alloc(sig, decls[sig].width)
        net_of[(graph.input_zone, sig)] = sig
        inputs.append((sig, decls[sig].width))
    for spec in graph.outputs:
        for port, src in spec.mapping:
            alloc(port, decls[src].width)
            outputs.append((port, decls[src].width))

    if graph.name in VERILOG_KEYWORDS:
        raise PipeforgeError(
            f"design name {graph.name!r} is reserved as a Verilog keyword")
    # only the design's ports are named so far; the emitter adds clk and rst
    reserved = dict.fromkeys(VERILOG_KEYWORDS, "as a Verilog keyword")
    reserved.update(dict.fromkeys(("clk", "rst"), "for the clock and reset"))
    if rv:
        reserved.update(dict.fromkeys(HANDSHAKE_INPUTS + HANDSHAKE_OUTPUTS,
                                      "for the ready/valid handshake"))
    for p in nets:
        if p in reserved:
            raise PipeforgeError(f"port {p!r} is reserved {reserved[p]}")
    taps: list[str] = []
    if rv:
        inputs += [(alloc(p, 1), 1) for p in HANDSHAKE_INPUTS]
        outputs += [(alloc(p, 1), 1) for p in HANDSHAKE_OUTPUTS]
        enable = alloc("enable", 1)
        cells.append(CombCell(enable, E.Ref("out_ready")))
        cells.append(CombCell("in_ready", E.Ref("out_ready")))
        taps = [alloc(f"valid_{d}", 1)
                for d in range(plan.total_latency + 1)]
        cells.append(CombCell(taps[0], E.Ref("in_valid")))
        if plan.total_latency:
            cells.append(DelayCell(taps[-1], taps[0], plan.total_latency,
                                   stages=tuple(taps[1:-1])))

    for z, zone in graph.zones.items():
        if z == graph.input_zone:
            continue
        for sig in zone.slots:
            net_of[(z, sig)] = alloc(f"{z}__{sig}", decls[sig].width)

    def transport(out: str, inp: str, latency: int, width: int,
                  sink_depth: int) -> None:
        style = select_primitive(latency, width, policy)
        if style == "wire":
            cells.append(CombCell(out, E.Ref(inp)))
        elif style == "fifo":
            _lower_fifo(out, inp, latency, sink_depth)
        else:
            stages = () if style == "srl" else tuple(
                alloc(f"{out}__d{i}", width) for i in range(1, latency))
            cells.append(DelayCell(out, inp, latency, style, stages))

    def _lower_fifo(out: str, inp: str, depth: int, sink_depth: int) -> None:
        full = alloc(f"{out}__full", 1)
        empty = alloc(f"{out}__empty", 1)
        we = alloc(f"{out}__we", 1)
        re = alloc(f"{out}__re", 1)
        if not rv:
            # the FIFO's read latency gives the last of its depth cycles
            init = depth - 1
            cnt = alloc(f"{out}__read_start", max(1, init.bit_length()))
            zero = alloc(f"{out}__read_start_zero", 1)
            cells.append(CounterCell(cnt, zero, init))
            cells.append(CombCell(we, E.Const(1, 1)))
            cells.append(CombCell(re, E.Ref(zero)))
        else:
            src_depth = sink_depth - depth
            cells.append(CombCell(
                we, E.BinOp("and", E.Ref(taps[src_depth]), E.Not(E.Ref(full)))))
            cells.append(CombCell(
                re, E.BinOp("and", E.Ref(taps[sink_depth - 1]),
                            E.Not(E.Ref(empty)))))
        cells.append(FifoCell(out, inp, depth, we, re, full, empty))

    for z, zone in graph.zones.items():
        if zone.kind is ZoneKind.INPUT:
            continue
        step = graph.steps.get(z)
        if step is not None:
            src = zone.inbound[0].source
            lat = step.latency
            mapping = {sig: net_of[(src, sig)] for sig in graph.zones[src].slots}
            for sig, width, body in step.defines:
                netexpr = E.map_refs(body, mapping)
                out = net_of[(z, sig)]
                if lat == 0:
                    cells.append(CombCell(out, netexpr))
                    mapping[sig] = out
                else:
                    cnet = alloc(f"{z}__{sig}__c", width)
                    cells.append(CombCell(cnet, netexpr))
                    transport(out, cnet, lat, width, depths[z])
        for slot in zone.slots.values():
            if slot.status is not SignalStatus.PROPAGATED:
                continue
            if slot.fed_from is None:
                raise PipeforgeError(
                    f"slot {z}:{slot.signal} resolved without a feed")
            src_zone, lat = slot.fed_from
            transport(net_of[(z, slot.signal)], net_of[(src_zone, slot.signal)],
                      lat, decls[slot.signal].width, depths[z])

    for spec in graph.outputs:
        for port, src in spec.mapping:
            cells.append(CombCell(port, E.Ref(net_of[(spec.zone, src)])))
    if rv:
        out_zone = graph.outputs[0].zone
        cells.append(CombCell("out_valid", E.Ref(taps[depths[out_zone]])))
    return Netlist(graph.name, inputs, outputs, nets, cells, plan.protocol,
                   enable)


def fifo_started(fifo: FifoCell, drivers: Mapping[str, Cell]) -> bool:
    """Whether ``fifo`` has the enables ``lower`` gives a raw FIFO: written
    on every cycle and read from the zero flag of a startup counter of
    ``capacity - 1``.  Such a FIFO delays its input by ``capacity`` cycles,
    shows zeros until then, and never overflows or runs empty."""
    write, read = drivers.get(fifo.write_en), drivers.get(fifo.read_en)
    if not (isinstance(write, CombCell) and write.expr == E.Const(1, 1)
            and isinstance(read, CombCell) and isinstance(read.expr, E.Ref)):
        return False
    counter = drivers.get(read.expr.name)
    return (isinstance(counter, CounterCell)
            and counter.zero == read.expr.name
            and counter.init == fifo.capacity - 1)


def fifo_taps(fifo: FifoCell,
              drivers: Mapping[str, Cell]) -> tuple[str, str] | None:
    """The nets ``tap_w`` and ``tap_r`` of a ready/valid FIFO whose enables
    have the form ``lower`` gives them, ``write_en = tap_w & ~full`` and
    ``read_en = tap_r & ~empty``; None for any other form."""
    taps = []
    for enable, flag in ((fifo.write_en, fifo.full),
                         (fifo.read_en, fifo.empty)):
        cell = drivers.get(enable)
        e = cell.expr if isinstance(cell, CombCell) else None
        # matched field by field, as building the pattern to compare costs
        # several times more, once per FIFO
        if not (isinstance(e, E.BinOp) and e.op == "and"
                and isinstance(e.lhs, E.Ref) and isinstance(e.rhs, E.Not)
                and isinstance(e.rhs.arg, E.Ref) and e.rhs.arg.name == flag):
            return None
        taps.append(e.lhs.name)
    return taps[0], taps[1]

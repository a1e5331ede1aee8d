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
from typing import Callable, Sequence

from . import expr as E
from .errors import PipeforgeError, WidthMismatchError
from .model import SignalStatus, SyncGraph, ZoneKind
from .protocol import HANDSHAKE_INPUTS, HANDSHAKE_OUTPUTS, HandshakePlan, Protocol
from .resolve import PrimitivePolicy, ShiftregMode


@dataclass
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


@dataclass
class DelayCell:
    """``out`` is ``inp`` delayed by ``depth`` enabled cycles.

    Register-style lines (register, no_extract) name their depth - 1
    intermediate nets in ``stages``, the kth being ``inp`` delayed k cycles;
    an srl line is one shift-register instance and has none.  Its width,
    like every cell's, is that of its nets in ``Netlist.nets``.
    """
    out: str
    inp: str
    depth: int
    style: str = "register"
    stages: tuple[str, ...] = ()

    def __post_init__(self):
        if self.style not in DELAY_STYLES:
            raise PipeforgeError(f"unknown delay style {self.style!r}")
        if self.depth < (2 if self.style == "srl" else 1):
            raise PipeforgeError(f"{self.style} delay lines are too short")
        if len(self.stages) != (0 if self.style == "srl" else self.depth - 1):
            raise PipeforgeError("delay line stage nets do not match its depth")


@dataclass
class FifoCell:
    out: str
    inp: str
    capacity: int
    write_en: str
    read_en: str
    full: str
    empty: str

    def __post_init__(self):
        if self.capacity < 2:
            raise PipeforgeError("FIFO cells have capacity >= 2")


@dataclass
class CounterCell:
    count: str  # current value, observable in traces
    zero: str   # 1-bit (count == 0)
    init: int

    def __post_init__(self):
        if self.init < 1:
            raise PipeforgeError("startup counters have init >= 1")


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


@dataclass
class Netlist:
    name: str
    inputs: list[tuple[str, int]] = field(default_factory=list)
    outputs: list[tuple[str, int]] = field(default_factory=list)
    nets: dict[str, int] = field(default_factory=dict)
    cells: list[Cell] = field(default_factory=list)
    protocol: Protocol = Protocol.RAW
    enable: str | None = None  # global clock-enable net (ready/valid only)

    def data_ports(self) -> tuple[list[tuple[str, int]], list[tuple[str, int]]]:
        """The input and output ports that carry data: every port under raw,
        all but the handshake ports under ready/valid."""
        if self.protocol is Protocol.RAW:
            return list(self.inputs), list(self.outputs)
        return ([p for p in self.inputs if p[0] not in HANDSHAKE_INPUTS],
                [p for p in self.outputs if p[0] not in HANDSHAKE_OUTPUTS])

    def cell_counts(self) -> dict[str, int]:
        counts = {"comb": 0, "reg": 0, "shiftreg": 0, "fifo": 0, "counter": 0}
        for c in self.cells:
            if isinstance(c, CombCell):
                counts["comb"] += 1
            elif isinstance(c, DelayCell):
                if c.style == "srl":
                    counts["shiftreg"] += 1
                else:
                    counts["reg"] += c.depth
            elif isinstance(c, FifoCell):
                counts["fifo"] += 1
            else:
                counts["counter"] += 1
        return counts

    def drivers(self) -> dict[str, Cell]:
        """Every net's driving cell, stage nets and FIFO and counter flags
        included, built afresh per call.  A net that two cells drive
        raises, named as a scan in cell order first meets it twice."""
        # counted, not looked up per net; a miscount rescans for the name
        out: dict[str, Cell] = {}
        entries = 0
        for c in self.cells:
            if isinstance(c, DelayCell):
                out[c.out] = c
                for n in c.stages:
                    out[n] = c
                entries += 1 + len(c.stages)
            elif isinstance(c, CombCell):
                out[c.out] = c
                entries += 1
            elif isinstance(c, FifoCell):
                out[c.out] = out[c.full] = out[c.empty] = c
                entries += 3
            else:
                out[c.count] = out[c.zero] = c
                entries += 2
        if len(out) != entries:
            seen: set[str] = set()
            for c in self.cells:
                for n in _driven(c):
                    if n in seen:
                        raise PipeforgeError(f"net {n!r} has multiple drivers")
                    seen.add(n)
        return out

    def check(self) -> tuple[dict[str, Cell], list[CombCell]]:
        """The one rule of a netlist: every net but an input port has one
        driver and an input port none, each port is as wide as its net, and
        the combinational cells form no cycle.  Widths live in ``nets`` only.
        Returns the driver index and the combinational cells in evaluation
        order (sequential outputs count as cycle-start constants), which
        the simulator compiles."""
        drivers = self.drivers()
        inputs = {n for n, _ in self.inputs}
        for net in self.nets:
            if net in inputs:
                if net in drivers:
                    raise PipeforgeError(f"input port {net!r} is driven internally")
            elif net not in drivers:
                raise PipeforgeError(f"net {net!r} has no driver")
        for name, w in self.inputs + self.outputs:
            if self.nets.get(name) != w:
                raise WidthMismatchError(f"port {name!r} width mismatch")
        combs = [c for c in self.cells if isinstance(c, CombCell)]
        # each cell's combinational sources, sorted; cells and sources go in
        # reversed, as ``postorder`` takes the last first, so the order is
        # the one a depth-first visit in cell and name order gives
        reads = {c.out: [r for r in sorted(c.expr.refs(), reverse=True)
                         if isinstance(drivers.get(r), CombCell)] for c in combs}
        order = postorder([c.out for c in reversed(combs)], reads.__getitem__,
                          lambda net: PipeforgeError(
                              f"combinational cycle through net {net!r}"))
        return drivers, [drivers[net] for net in order]


def _driven(c: Cell) -> tuple[str, ...]:
    """The nets ``c`` drives, in the order ``Netlist.drivers`` meets them."""
    if isinstance(c, DelayCell):
        return *c.stages, c.out
    if isinstance(c, FifoCell):
        return c.out, c.full, c.empty
    return (c.count, c.zero) if isinstance(c, CounterCell) else (c.out,)


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


def feed(drivers: dict[str, Cell], net: str) -> tuple[Sequence[str], int]:
    """The nets that ``net``'s driver reads to drive it, and the enabled
    cycles between them.  A FIFO's flag follows its occupancy: it reads
    what the enables read, less the flags.  References come sorted, so
    walks visit nets in the same order on every run."""
    cell = drivers.get(net)
    if isinstance(cell, CombCell):
        return sorted(cell.expr.refs()), 0
    if isinstance(cell, DelayCell):
        return (cell.inp,), (cell.depth if net == cell.out
                             else cell.stages.index(net) + 1)
    if isinstance(cell, FifoCell):
        if net == cell.out:
            return (cell.inp, cell.write_en, cell.read_en), cell.capacity + 1
        reads: set[str] = set()
        for enable in (cell.write_en, cell.read_en):
            c = drivers.get(enable)
            reads |= c.expr.refs() if isinstance(c, CombCell) else {enable}
        return sorted(reads - {cell.full, cell.empty}), cell.capacity + 1
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
    nl = Netlist(graph.name, protocol=plan.protocol)
    nets = nl.nets

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
        nl.inputs.append((sig, decls[sig].width))
    for spec in graph.outputs:
        for port, src in spec.mapping:
            alloc(port, decls[src].width)
            nl.outputs.append((port, decls[src].width))

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
        nl.inputs += [(alloc(p, 1), 1) for p in HANDSHAKE_INPUTS]
        nl.outputs += [(alloc(p, 1), 1) for p in HANDSHAKE_OUTPUTS]
        nl.enable = alloc("enable", 1)
        nl.cells.append(CombCell(nl.enable, E.Ref("out_ready")))
        nl.cells.append(CombCell("in_ready", E.Ref("out_ready")))
        taps = [alloc(f"valid_{d}", 1)
                for d in range(plan.total_latency + 1)]
        nl.cells.append(CombCell(taps[0], E.Ref("in_valid")))
        if plan.total_latency:
            nl.cells.append(DelayCell(taps[-1], taps[0], plan.total_latency,
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
            nl.cells.append(CombCell(out, E.Ref(inp)))
        elif style == "fifo":
            _lower_fifo(out, inp, latency, sink_depth)
        else:
            stages = () if style == "srl" else tuple(
                alloc(f"{out}__d{i}", width) for i in range(1, latency))
            nl.cells.append(DelayCell(out, inp, latency, style, stages))

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
            nl.cells.append(CounterCell(cnt, zero, init))
            nl.cells.append(CombCell(we, E.Const(1, 1)))
            nl.cells.append(CombCell(re, E.Ref(zero)))
        else:
            src_depth = sink_depth - depth
            nl.cells.append(CombCell(
                we, E.BinOp("and", E.Ref(taps[src_depth]), E.Not(E.Ref(full)))))
            nl.cells.append(CombCell(
                re, E.BinOp("and", E.Ref(taps[sink_depth - 1]),
                            E.Not(E.Ref(empty)))))
        nl.cells.append(FifoCell(out, inp, depth, we, re, full, empty))

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
                got = netexpr.width(nets)
                if got != width:
                    raise WidthMismatchError(
                        f"{z}:{sig} declared {width} bits but its expression "
                        f"has {got}")
                out = net_of[(z, sig)]
                if lat == 0:
                    nl.cells.append(CombCell(out, netexpr))
                    mapping[sig] = out
                else:
                    cnet = alloc(f"{z}__{sig}__c", width)
                    nl.cells.append(CombCell(cnet, netexpr))
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
            nl.cells.append(CombCell(port, E.Ref(net_of[(spec.zone, src)])))
    if rv:
        out_zone = graph.outputs[0].zone
        nl.cells.append(CombCell("out_valid", E.Ref(taps[depths[out_zone]])))

    nl.check()
    return nl


def fifo_started(fifo: FifoCell, drivers: dict[str, Cell]) -> bool:
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
              drivers: dict[str, Cell]) -> tuple[str, str] | None:
    """The nets ``tap_w`` and ``tap_r`` of a ready/valid FIFO whose enables
    have the form ``lower`` gives them, ``write_en = tap_w & ~full`` and
    ``read_en = tap_r & ~empty``; None for any other form."""
    taps = []
    for enable, flag in ((fifo.write_en, fifo.full),
                         (fifo.read_en, fifo.empty)):
        cell = drivers.get(enable)
        e = cell.expr if isinstance(cell, CombCell) else None
        if not (isinstance(e, E.BinOp) and isinstance(e.lhs, E.Ref)
                and e == E.BinOp("and", e.lhs, E.Not(E.Ref(flag)))):
            return None
        taps.append(e.lhs.name)
    return taps[0], taps[1]

"""Verilog-2001 emission from the netlist IR.

One self-contained module per circuit plus one helper module per distinct
shift-register or FIFO shape.  Output is deterministic: identical netlists
emit byte-identical text.  Vendor influence is limited to the
``shreg_extract`` attribute and the structural style of the helpers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import expr as E
from .netlist import CombCell, CounterCell, DelayCell, FifoCell, Netlist

NO_EXTRACT_ATTR = '(* shreg_extract = "no" *)'


class ShregAttr(enum.Enum):
    """Attribute on register-style delay lines.  ``NO_EXTRACT`` marks every
    such register ``shreg_extract = "no"``.  ``EXPLICIT_SRL`` emits the same
    bytes as ``NONE``: an srl line is always a ``pf_shiftreg_*`` instance
    whatever the option, and register lines carry no attribute."""
    NONE = "none"
    NO_EXTRACT = "no_extract"
    EXPLICIT_SRL = "explicit_srl"


@dataclass(frozen=True)
class EmitOptions:
    shreg_attr: ShregAttr = ShregAttr.NONE
    header: str = ""


_BINOPS = {"add": "+", "sub": "-", "mul": "*", "xor": "^", "and": "&",
           "or": "|"}


def _decl(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


class _ExprEmitter:
    """Flattens expressions to per-node temporaries so every intermediate
    value has an explicit width (Verilog's context-determined widths would
    otherwise diverge from the model's masking rules)."""

    def __init__(self, widths: dict[str, int]):
        self.widths = widths
        self.lines: list[str] = []
        self.n = 0

    def _temp(self, width: int, rhs: str) -> str:
        while f"_e{self.n}" in self.widths:  # a port may be named _eN
            self.n += 1
        name = f"_e{self.n}"
        self.n += 1
        self.lines.append(f"  wire {_decl(width)}{name} = {rhs};")
        return name

    def operand(self, e: E.Expr) -> tuple[str, int]:
        """The name that holds ``e``, a net or a new temporary, and its
        width."""
        if type(e) is E.Ref:
            return e.name, self.widths[e.name]
        rhs, width = self.rhs(e)
        return self._temp(width, rhs), width

    def rhs(self, e: E.Expr) -> tuple[str, int]:
        """The right-hand side that computes ``e`` from its operands'
        temporaries, and its width, carried up from its operands'."""
        t = type(e)
        if t is E.Ref:
            return e.name, self.widths[e.name]
        if t is E.BinOp:
            (a, wa), (b, wb) = self.operand(e.lhs), self.operand(e.rhs)
            return (f"{a} {_BINOPS[e.op]} {b}",
                    wa + wb if e.op == "mul" else max(wa, wb))
        if t is E.Slice:
            a, _ = self.operand(e.arg)
            return f"{a}[{e.hi}:{e.lo}]", e.hi - e.lo + 1
        if t is E.Const:
            return f"{e.const_width}'d{e.value}", e.const_width
        if t is E.Not:
            a, w = self.operand(e.arg)
            return f"~{a}", w
        if t is E.Shift:
            a, w = self.operand(e.arg)
            return f"{a} {'<<' if e.op == 'shl' else '>>'} {e.amount}", w
        if t is E.Mux:
            (s, _), (a, w), (b, _) = (self.operand(e.sel),
                                      self.operand(e.then),
                                      self.operand(e.other))
            return f"{s} ? {a} : {b}", w
        if t is E.Concat:
            parts = [self.operand(p) for p in e.parts]
            return ("{" + ", ".join(a for a, _ in parts) + "}",
                    sum(w for _, w in parts))
        raise TypeError(f"unknown expression node {e!r}")


def _shiftreg_module(width: int, depth: int) -> str:
    name = f"pf_shiftreg_w{width}_d{depth}"
    w = _decl(width)
    return f"""module {name}(
  input clk,
  input rst,
  input en,
  input {w}d,
  output {w}q
);
  reg {w}stage [0:{depth - 1}];
  integer i;
  always @(posedge clk) begin
    if (rst) begin
      for (i = 0; i < {depth}; i = i + 1) stage[i] <= {width}'d0;
    end else if (en) begin
      stage[0] <= d;
      for (i = 1; i < {depth}; i = i + 1) stage[i] <= stage[i - 1];
    end
  end
  assign q = stage[{depth - 1}];
endmodule
"""


def _fifo_module(width: int, capacity: int) -> str:
    name = f"pf_fifo_w{width}_d{capacity}"
    w = _decl(width)
    pw = max(1, (capacity - 1).bit_length())
    cw = pw + 1
    return f"""module {name}(
  input clk,
  input rst,
  input en,
  input wr,
  input rd,
  input {w}din,
  output {w}dout,
  output full,
  output empty
);
  reg {w}mem [0:{capacity - 1}];
  reg [{pw - 1}:0] rp, wp;
  reg [{cw - 1}:0] count;
  reg {w}dout_r;
  assign full = (count == {cw}'d{capacity});
  assign empty = (count == {cw}'d0);
  assign dout = dout_r;
  always @(posedge clk) begin
    if (rst) begin
      rp <= {pw}'d0;
      wp <= {pw}'d0;
      count <= {cw}'d0;
      dout_r <= {width}'d0;
    end else if (en) begin
      if (rd) begin
        dout_r <= mem[rp];
        rp <= (rp == {pw}'d{capacity - 1}) ? {pw}'d0 : rp + {pw}'d1;
      end
      if (wr) begin
        mem[wp] <= din;
        wp <= (wp == {pw}'d{capacity - 1}) ? {pw}'d0 : wp + {pw}'d1;
      end
      count <= count + (wr ? {cw}'d1 : {cw}'d0) - (rd ? {cw}'d1 : {cw}'d0);
    end
  end
endmodule
"""


def emit_verilog(netlist: Netlist, options: EmitOptions = EmitOptions()) -> str:
    out: list[str] = []
    if options.header:
        for line in options.header.splitlines():
            out.append(f"// {line}".rstrip())
        out.append("")

    nets = netlist.nets
    # each helper shape once, in the order the cells first use it
    for width, depth in dict.fromkeys(
            (nets[c.out], c.depth) for c in netlist.cells
            if isinstance(c, DelayCell) and c.style == "srl"):
        out.append(_shiftreg_module(width, depth))
    for width, cap in dict.fromkeys((nets[c.out], c.capacity)
                                    for c in netlist.fifos):
        out.append(_fifo_module(width, cap))

    in_ports = [n for n, _ in netlist.inputs]
    out_ports = [n for n, _ in netlist.outputs]
    ports = ["clk", "rst"] + in_ports + out_ports
    out.append(f"module {netlist.name}(")
    decls = ["  input clk", "  input rst"]
    decls += [f"  input {_decl(w)}{n}" for n, w in netlist.inputs]
    decls += [f"  output {_decl(w)}{n}" for n, w in netlist.outputs]
    out.append(",\n".join(decls))
    out.append(");")

    drivers = netlist.drivers
    port_set = set(ports)
    for net, width in nets.items():
        if net in port_set:
            continue
        drv = drivers[net]
        if isinstance(drv, DelayCell) and drv.style != "srl":
            attr = ""
            if (drv.style == "no_extract"
                    or options.shreg_attr is ShregAttr.NO_EXTRACT):
                attr = NO_EXTRACT_ATTR + " "
            out.append(f"  {attr}reg {_decl(width)}{net};")
        elif isinstance(drv, CounterCell) and net == drv.count:
            out.append(f"  reg {_decl(width)}{net};")
        else:
            out.append(f"  wire {_decl(width)}{net};")

    emitter = _ExprEmitter(nets)
    body: list[str] = []
    en = netlist.enable
    en_port = en or "1'b1"  # helper modules always take an enable
    for c in netlist.cells:
        if isinstance(c, CombCell):
            rhs, _ = emitter.rhs(c.expr)
            tgt = f"assign {c.out} = {rhs};"
            body.extend(emitter.lines)
            emitter.lines = []
            body.append(f"  {tgt}")
        elif isinstance(c, DelayCell) and c.style == "srl":
            body.append(
                f"  pf_shiftreg_w{nets[c.out]}_d{c.depth} u_{c.out}("
                f".clk(clk), .rst(rst), .en({en_port}), .d({c.inp}), "
                f".q({c.out}));")
        elif isinstance(c, DelayCell):
            chain = [c.inp, *c.stages, c.out]
            zero = f"{nets[c.out]}'d0"
            for prev, nxt in zip(chain, chain[1:]):
                body.append("  always @(posedge clk) begin")
                body.append(f"    if (rst) {nxt} <= {zero};")
                if en:
                    body.append(f"    else if ({en}) {nxt} <= {prev};")
                else:
                    body.append(f"    else {nxt} <= {prev};")
                body.append("  end")
        elif isinstance(c, FifoCell):
            body.append(
                f"  pf_fifo_w{nets[c.out]}_d{c.capacity} u_{c.out}("
                f".clk(clk), .rst(rst), .en({en_port}), .wr({c.write_en}), "
                f".rd({c.read_en}), .din({c.inp}), .dout({c.out}), "
                f".full({c.full}), .empty({c.empty}));")
        else:  # CounterCell
            cw = nets[c.count]
            body.append(f"  assign {c.zero} = ({c.count} == {cw}'d0);")
            body.append("  always @(posedge clk) begin")
            body.append(f"    if (rst) {c.count} <= {cw}'d{c.init};")
            guard = f"{en} && {c.count} != {cw}'d0" if en else f"{c.count} != {cw}'d0"
            body.append(f"    else if ({guard}) {c.count} <= {c.count} - {cw}'d1;")
            body.append("  end")
    out.extend(body)
    out.append("endmodule")
    return "\n".join(out) + "\n"

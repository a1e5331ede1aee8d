import json
import re

import pipeforge as pf
from pipeforge import expr as E
from pipeforge.netlist import CombCell
from pipeforge.verilog import NO_EXTRACT_ATTR

from conftest import build_running, data_path


def emit(xor_delay=0, with_e=False, policy=None, protocol=pf.Protocol.RAW,
         options=None):
    g = pf.resolve_direct_backward(
        pf.balance_merges(build_running(xor_delay, with_e)))
    nl = pf.lower(g, pf.apply_protocol(g, protocol), policy)
    return pf.emit_verilog(nl, options or pf.EmitOptions())


def test_module_interface_raw():
    v = emit(with_e=True)
    assert "module run" in v
    assert "input [7:0] x" in v
    assert "output [15:0] z_out" in v
    assert "in_valid" not in v


def test_module_interface_ready_valid():
    v = emit(xor_delay=2, protocol=pf.Protocol.READY_VALID)
    for port in ("input in_valid", "input out_ready",
                 "output out_valid", "output in_ready"):
        assert port in v
    assert "posedge clk" in v and "rst" in v


def test_emission_is_deterministic():
    assert emit(xor_delay=2, with_e=True, policy=pf.direct_fifo(3, 3)) == \
        emit(xor_delay=2, with_e=True, policy=pf.direct_fifo(3, 3))


def test_no_extract_attribute_literal():
    v = emit(with_e=True, policy=pf.direct_force_reg())
    assert NO_EXTRACT_ATTR in v
    assert NO_EXTRACT_ATTR == '(* shreg_extract = "no" *)'
    plain = emit(with_e=True)
    assert NO_EXTRACT_ATTR not in plain


def test_explicit_srl_emits_helper_module():
    v = emit(with_e=True, policy=pf.direct_force_srl(),
             options=pf.EmitOptions(shreg_attr=pf.ShregAttr.EXPLICIT_SRL))
    assert "module pf_shiftreg_w4_d2" in v
    # one helper definition per distinct shape, even if instantiated twice
    assert v.count("module pf_shiftreg_w4_d2") == 1
    # an srl line is always an instance, so the attribute adds nothing
    assert v == emit(with_e=True, policy=pf.direct_force_srl())


def test_fifo_emits_helper_module_once():
    v = emit(xor_delay=2, with_e=True, policy=pf.direct_fifo(3, 3))
    assert v.count("module pf_fifo_w4_d4") == 1
    assert "pf_fifo_w4_d4 " in v.replace("module pf_fifo_w4_d4", "", 1)


def test_header_option():
    v = emit(options=pf.EmitOptions(header="build 123"))
    assert v.startswith("// build 123")


def _operands(e: E.Expr) -> tuple:
    if isinstance(e, E.BinOp):
        return (e.lhs, e.rhs)
    if isinstance(e, E.Mux):
        return (e.sel, e.then, e.other)
    if isinstance(e, E.Concat):
        return e.parts
    if isinstance(e, (E.Not, E.Shift, E.Slice)):
        return (e.arg,)
    return ()


def _temp_widths(e: E.Expr, widths: dict, out: list) -> list:
    """The model's width of each operand that is not a plain net, innermost
    first, in the order the emitter declares their temporaries."""
    for sub in _operands(e):
        if not isinstance(sub, E.Ref):
            _temp_widths(sub, widths, out)
            out.append(sub.width(widths))
    return out


def test_nested_expression_temporaries():
    # every operator, const included, sits at least two levels deep
    g = pf.resolve_direct_backward(pf.balance_merges(pf.graph_from_spec(
        pf.load_spec(data_path("nested_expr.json")))))
    nl = pf.lower(g, pf.apply_protocol(g, pf.Protocol.RAW))
    v = pf.emit_verilog(nl)
    temps = re.findall(r"^  wire (?:\[(\d+):0\] )?_e(\d+) = .*;$", v, re.M)
    assert [int(n) for _, n in temps] == list(range(len(temps)))
    declared = [int(hi) + 1 if hi else 1 for hi, _ in temps]
    expected = []
    for c in nl.cells:
        if isinstance(c, CombCell):
            _temp_widths(c.expr, nl.nets, expected)
    assert declared == expected
    assert len(temps) == 28 and 1 in declared
    with open(data_path("golden_nested_expr.v"), encoding="utf-8") as fh:
        assert v == fh.read()


def _rename_refs(node, old, new):
    if node == old:
        return new
    if isinstance(node, list):
        return [_rename_refs(n, old, new) for n in node]
    return node


def test_temporaries_skip_port_names():
    # with its input named _e3, the emitter must not declare a temporary
    # _e3 as well
    with open(data_path("nested_expr.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["inputs"][0]["name"] = "_e3"
    for d in doc["steps"][0]["defines"]:
        d["expr"] = _rename_refs(d["expr"], "a", "_e3")
    g = pf.resolve_direct_backward(pf.balance_merges(pf.graph_from_spec(doc)))
    v = pf.emit_verilog(pf.lower(g, pf.apply_protocol(g, pf.Protocol.RAW)))
    module = v[v.index("module nested("):]
    declared = re.findall(
        r"^\s*(?:input|output|wire|reg)\s+(?:\[\d+:0\]\s+)?(\w+)", module, re.M)
    assert declared.count("_e3") == 1
    assert len(declared) == len(set(declared))
    assert "input [7:0] _e3" in module

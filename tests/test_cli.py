import json
import os
import random
import sys

import pytest

import pipeforge as pf
from pipeforge.cli import main
from pipeforge.expr import MAX_DEPTH

from conftest import data_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_build_summary(capsys):
    code, out, _ = run_cli(capsys, "build", data_path("running.json"))
    assert code == 0
    assert "run: 6 zones, 8 relations, 2 missing relations" in out
    assert "e: _init_ -> xor (depth 2, width 4)" in out


def test_build_writes_dot(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, _, _ = run_cli(capsys, "build", data_path("running.json"),
                         "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_generate_verilog_and_summary(capsys, tmp_path):
    v = tmp_path / "design.v"
    code, out, _ = run_cli(
        capsys, "generate", data_path("running_delay2.json"),
        "--strategy", "direct", "--depth-threshold", "3",
        "--width-threshold", "3", "--verilog", str(v))
    assert code == 0
    assert "latency 4" in out
    assert "'fifo': 1" in out
    assert "module run" in v.read_text()


RESOLVERS = {"direct": pf.resolve_direct_backward, "p2p": pf.resolve_p2p_backward,
             "exhaustive": pf.resolve_exhaustive_forward}


def _library(spec, strategy="direct", protocol="raw"):
    """The resolved graph, handshake plan and netlist the library gives
    for ``spec`` under the default policy."""
    graph = pf.balance_merges(pf.graph_from_spec(pf.load_spec(spec)))
    resolved = RESOLVERS[strategy](graph)
    plan = pf.apply_protocol(resolved, pf.Protocol(protocol))
    return resolved, plan, pf.lower(resolved, plan)


def _random_stimulus(netlist, seed=0, cycles=100, reset=1):
    """The stimulus ``pipeforge simulate`` draws without a stimulus file."""
    rng = random.Random(seed)
    inputs = [{n: rng.randrange(0, 1 << w) for n, w in netlist.data_ports()[0]}
              for _ in range(cycles)]
    ready = None
    if netlist.protocol is pf.Protocol.READY_VALID:
        ready = [1 if rng.random() < 0.5 else 0 for _ in range(cycles)]
    return pf.Stimulus(cycles, inputs, ready, reset)


@pytest.mark.parametrize("strategy", ["p2p", "exhaustive"])
def test_generate_writes_what_the_library_returns(capsys, tmp_path, strategy):
    spec = data_path("running_delay2.json")
    v, dot = tmp_path / "design.v", tmp_path / "graph.dot"
    code, out, err = run_cli(capsys, "generate", spec, "--strategy", strategy,
                             "--verilog", str(v), "--dot", str(dot))
    assert code == 0, err
    resolved, plan, netlist = _library(spec, strategy)
    assert v.read_text() == pf.emit_verilog(
        netlist, pf.EmitOptions(header="pipeline: run_delay2"))
    assert dot.read_text() == pf.emit_dot(resolved)
    assert out == (f"run_delay2: latency {plan.total_latency}, "
                   f"cells {netlist.cell_counts()}\n")


@pytest.mark.parametrize("strategy", ["p2p", "exhaustive"])
def test_simulate_writes_what_the_library_returns(capsys, tmp_path, strategy):
    spec = data_path("running_delay2.json")
    csv = tmp_path / "trace.csv"
    code, out, err = run_cli(capsys, "simulate", spec, "--strategy", strategy,
                             "--seed", "3", "--csv", str(csv))
    assert code == 0, err
    _, _, netlist = _library(spec, strategy)
    trace = pf.simulate(netlist, _random_stimulus(netlist, seed=3))
    assert csv.read_text() == trace.to_csv()
    assert out == f"latency: {pf.measured_latency(netlist, seed=3)}\n"


def test_ready_valid_simulate_writes_a_vcd_of_its_random_stimulus(
        capsys, tmp_path):
    spec = data_path("running_delay2.json")
    vcd = tmp_path / "trace.vcd"
    code, out, err = run_cli(capsys, "simulate", spec, "--protocol",
                             "ready_valid", "--cycles", "60", "--vcd", str(vcd))
    assert code == 0, err
    _, plan, netlist = _library(spec, protocol="ready_valid")
    trace = pf.simulate(netlist, _random_stimulus(netlist, cycles=60))
    assert vcd.read_text() == trace.to_vcd()
    assert trace.accepted_outputs
    assert out == (f"latency: {plan.total_latency}\n"
                   f"accepted: {len(trace.accepted_outputs)} transactions\n")


def test_policy_flags_require_direct_strategy(capsys):
    code, _, err = run_cli(
        capsys, "generate", data_path("running.json"),
        "--strategy", "p2p", "--depth-threshold", "3")
    assert code == 2
    assert "direct" in err


def test_schema_violation_exit_2(capsys):
    code, _, err = run_cli(capsys, "build", data_path("invalid_schema.json"))
    assert code == 2
    assert err.strip()


def test_unknown_signal_exit_3(capsys):
    code, _, err = run_cli(capsys, "build", data_path("unknown_signal.json"))
    assert code == 3
    assert "missing" in err and "s1" in err  # names both signal and zone


def test_report_tsv_and_min_depth(capsys):
    code, out, _ = run_cli(
        capsys, "report", data_path("running_delay2.json"), "--min-depth", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "depth\twidth\tpipeline\tcount\ttotal"
    assert len(lines) == 2 and lines[1].startswith("4\t4\t")


def test_report_alias_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "report", "a=" + data_path("running.json"),
        "b=" + data_path("running.json"), "--report-format", "json")
    assert code == 0
    doc = json.loads(out)
    assert {r["total"] for r in doc["rows"]} == {2}


def test_report_out_writes_what_the_library_returns(capsys, tmp_path):
    spec = data_path("running_delay2.json")
    tsv = tmp_path / "report.tsv"
    code, out, err = run_cli(capsys, "report", spec, "--out", str(tsv))
    assert code == 0 and out == "", err
    graph = pf.balance_merges(pf.graph_from_spec(pf.load_spec(spec)))
    assert tsv.read_text() == pf.report_distribution(
        [("run_delay2", graph)], min_depth=0).to_tsv()


def test_simulate_prints_latency(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", data_path("running_delay2.json"), "--cycles", "40")
    assert code == 0
    assert "latency: 4" in out


def test_simulate_huge_shift_amount(capsys, tmp_path):
    spec = tmp_path / "shift.json"
    spec.write_text(json.dumps({
        "name": "shift",
        "inputs": [{"name": "x", "width": 8}],
        "outputs": [{"name": "q_out", "from": "q"},
                    {"name": "gone_out", "from": "gone"}],
        "steps": [{"name": "s", "kind": "reg", "defines": [
            {"name": "q", "width": 8, "expr": "x"},
            {"name": "gone", "width": 8,
             "expr": ["shl", 1000000000000, "x"]}]}],
    }))
    code, out, _ = run_cli(capsys, "simulate", str(spec), "--cycles", "8")
    assert code == 0
    assert "latency: 1" in out


def _one_step(width=8, kind="reg", expr="x"):
    return {"name": "big", "inputs": [{"name": "x", "width": 8}],
            "outputs": [{"name": "q_out", "from": "q"}],
            "steps": [{"name": "s", "kind": kind, "defines": [
                {"name": "q", "width": width, "expr": expr}]}]}


@pytest.mark.parametrize("doc,where", [
    ({**_one_step(), "inputs": [{"name": "x", "width": 4097}]},
     "/inputs/0/width"),
    (_one_step(width=4097, expr=["cat", "x"]), "/steps/0/defines/0/width"),
    (_one_step(kind={"delay": 4097}), "/steps/0/kind"),
    (_one_step(expr=["slice", 7, 0, ["const", 1, 4097]]), "width 4097"),
])
def test_width_and_delay_bounds_exit_2(capsys, tmp_path, doc, where):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "simulate", str(spec), "--cycles", "8")
    assert code == 2
    assert where in err


def test_overlong_integer_exit_2(capsys, tmp_path):
    # Python reads integers of at most 4300 digits from text (3.10.7 and
    # later, unless the limit is turned off); without the limit the value
    # is out of range, also exit 2
    limited = getattr(sys, "get_int_max_str_digits", lambda: 0)() > 0
    digits = "9" * 5000
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_one_step()).replace('"width": 8', '"width": ' + digits))
    code, _, err = run_cli(capsys, "build", str(spec))
    assert code == 2 and ("digits" in err or not limited)
    stim = tmp_path / "stim.json"
    stim.write_text('{"inputs": [{"x": ' + digits + '}]}')
    code, _, err = run_cli(capsys, "simulate", data_path("running.json"),
                           "--stimulus", str(stim))
    assert code == 2 and ("digits" in err or not limited)


@pytest.mark.parametrize("depth,want", [(50, 0), (130, 2), (1200, 2)])
def test_simulate_deeply_nested_expression(capsys, tmp_path, depth, want):
    # built as text: json.dump recurses as deeply as the reader does
    expr = '["not", ' * depth + '"x"' + "]" * depth
    spec = tmp_path / "nested.json"
    spec.write_text(
        '{"name": "nested", "inputs": [{"name": "x", "width": 8}], '
        '"outputs": [{"name": "q_out", "from": "q"}], '
        '"steps": [{"name": "s", "kind": "reg", "defines": '
        '[{"name": "q", "width": 8, "expr": ' + expr + '}]}]}')
    code, _, err = run_cli(capsys, "simulate", str(spec), "--cycles", "8")
    assert code == want
    if want:
        assert str(spec) in err


def _nested_not(depth):
    expr = "x"
    for _ in range(depth):
        expr = ["not", expr]
    return expr


@pytest.mark.parametrize("expr", [
    pytest.param(["shl", 1.5, "x"], id="shift_float"),
    pytest.param(["shl", True, "x"], id="shift_bool"),
    pytest.param(["const", None, 8], id="const_null"),
    pytest.param(["shl", "2", "x"], id="shift_text"),
    pytest.param(["const", 3.0, 8], id="const_integral_float"),
    pytest.param(["ref", 5], id="ref_number"),
    pytest.param(["add", "x y", "y"], id="name_not_identifier"),
    pytest.param(["cat", {}], id="cat_object"),
    pytest.param(_nested_not(MAX_DEPTH + 1), id="too_deep"),
])
def test_malformed_expression_exit_2(capsys, tmp_path, expr):
    spec = tmp_path / "expr.json"
    spec.write_text(json.dumps(_one_step(expr=expr)))
    code, _, err = run_cli(capsys, "generate", str(spec))
    assert code == 2
    assert str(spec) in err and "step 's', define 'q'" in err


def test_expression_error_precedes_model_errors(capsys, tmp_path):
    # a duplicate input alone exits 3; the malformed expression is found first
    doc = _one_step(expr=["shl", 1.5, "x"])
    doc["inputs"].append({"name": "x", "width": 8})
    spec = tmp_path / "both.json"
    spec.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "build", str(spec))
    assert code == 2
    assert "shift amount" in err


def test_deepest_expression_deep_in_the_stack(capsys, tmp_path):
    # the nesting bound must not depend on the caller's stack depth
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps(_one_step(expr=_nested_not(MAX_DEPTH))))

    def call(frames):
        if frames:
            return call(frames - 1)
        return run_cli(capsys, "simulate", str(spec), "--cycles", "8")

    code, out, err = call(300)
    assert code == 0, err
    assert "latency: 1" in out


def test_merge_into_unknown_branch_exit_2(capsys, tmp_path):
    with open(data_path("running.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["merges"] = [{"branch": "mul", "into": "z", "at": 2}]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "build", str(spec))
    assert code == 2
    assert "into z@2" in err


def test_merge_waits_for_its_target_branch(capsys, tmp_path):
    # c is ready to merge before b, its target, is split off main
    def step(branch, name, sig, expr):
        return {"branch": branch, "name": name, "kind": "reg",
                "defines": [{"name": sig, "width": 8, "expr": expr}]}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "late",
        "inputs": [{"name": "x", "width": 8}],
        "outputs": [{"name": "o", "from": "q"}],
        "branches": [{"name": "b", "from": "main@1"},
                     {"name": "c", "from": "main@0"}],
        "steps": [step("c", "c1", "p", "x"), step("main", "m1", "q", "x"),
                  step("b", "b1", "r", "p")],
        "merges": [{"branch": "c", "into": "b", "at": 0},
                   {"branch": "b", "at": 1}],
    }))
    code, out, _ = run_cli(capsys, "build", str(spec))
    assert code == 0
    assert "late: 6 zones" in out


def test_step_named_like_a_merge_zone_exit_3(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "dup",
        "inputs": [{"name": "x", "width": 8}],
        "outputs": [{"name": "q_out", "from": "q"}],
        "branches": [{"name": "b", "from": "main@0"}],
        "steps": [
            {"branch": "b", "name": "s", "kind": "reg",
             "defines": [{"name": "p", "width": 8, "expr": "x"}]},
            {"name": "merged_b_s", "kind": "reg",
             "defines": [{"name": "q", "width": 8, "expr": "p"}]}],
        "merges": [{"branch": "b", "at": 0}],
    }))
    code, _, err = run_cli(capsys, "build", str(spec))
    assert code == 3
    assert "duplicate zone 'merged_b_s'" in err


def _set(*keys):
    # a mutation of running.json that ends the name at keys with a newline
    def mutate(doc):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] += "\n"
    return mutate


def _reads(doc):
    doc["steps"][1]["reads"] = ["x\n"]


def _merge_list(doc):
    doc["merges"][0]["branch"] = ["mul\n"]


@pytest.mark.parametrize("mutate,pointer", [
    pytest.param(_set("name"), "/name", id="document"),
    pytest.param(_set("inputs", 0, "name"), "/inputs/0/name", id="input"),
    pytest.param(_set("steps", 1, "name"), "/steps/1/name", id="step"),
    pytest.param(_set("steps", 1, "branch"), "/steps/1/branch",
                 id="step_branch"),
    pytest.param(_set("steps", 1, "defines", 0, "name"),
                 "/steps/1/defines/0/name", id="define"),
    pytest.param(_reads, "/steps/1/reads/0", id="reads"),
    pytest.param(_set("branches", 0, "name"), "/branches/0/name",
                 id="branch_name"),
    pytest.param(_set("branches", 0, "from"), "/branches/0/from",
                 id="branch_from"),
    pytest.param(_set("merges", 0, "branch"), "/merges/0/branch",
                 id="merge_branch"),
    pytest.param(_merge_list, "/merges/0/branch", id="merge_branch_list"),
    pytest.param(_set("merges", 0, "into"), "/merges/0/into", id="merge_into"),
    pytest.param(_set("outputs", 0, "name"), "/outputs/0/name",
                 id="output_name"),
    pytest.param(_set("outputs", 0, "from"), "/outputs/0/from",
                 id="output_from"),
])
def test_name_with_trailing_newline_exit_2(capsys, tmp_path, mutate, pointer):
    # a name is an identifier as a whole string, final newline included
    with open(data_path("running.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    mutate(doc)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "generate", str(spec))
    assert code == 2, err
    assert f"schema violation at {pointer}:" in err


@pytest.mark.parametrize("keys,literal,where", [
    pytest.param(("inputs", 0, "width"), "8.0",
                 "/inputs/0/width: 8.0 is not of type 'integer'",
                 id="input_width"),
    pytest.param(("steps", 1, "defines", 0, "width"), "8e0",
                 "/steps/1/defines/0/width: 8.0 is not of type 'integer'",
                 id="define_width"),
    # a kind is one of two shapes, so the violation is the kind's
    pytest.param(("steps", 3, "kind", "delay"), "2.0",
                 "/steps/3/kind: {'delay': 2.0} is not valid under any",
                 id="delay"),
    pytest.param(("merges", 0, "at"), "2.0",
                 "/merges/0/at: 2.0 is not of type 'integer'", id="merge_at"),
])
def test_integral_float_in_an_integer_field_exit_2(capsys, tmp_path, keys,
                                                   literal, where):
    # an integer field takes a JSON integer only, not a float equal to one
    with open(data_path("running_delay2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    node = doc
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = "FLOAT"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc).replace('"FLOAT"', literal))
    for cmd in ("generate", "simulate"):
        code, _, err = run_cli(capsys, cmd, str(spec))
        assert code == 2, err
        assert f"schema violation at {where}" in err


@pytest.mark.parametrize("stimulus,protocol,want", [
    pytest.param({"inputs": [{"x": 3, "y": 4}], "cycles": 10,
                  "watch": ["mul__mulXY"]}, "raw", 0, id="valid"),
    pytest.param({"cycles": 5, "sink_ready": [1, 0, 1, 1, 1]}, "ready_valid",
                 0, id="valid_ready"),
    pytest.param({"cycles": "abc"}, "raw", 2, id="cycles_text"),
    pytest.param({"inputs": 5}, "raw", 2, id="inputs_number"),
    pytest.param({"inputs": [1, 2], "cycles": 5}, "raw", 2,
                 id="inputs_of_numbers"),
    pytest.param({"inputs": [{"x": "a"}], "cycles": 3}, "raw", 2,
                 id="value_text"),
    pytest.param({"inputs": [{"x": -1}]}, "raw", 2, id="value_negative"),
    pytest.param({"inputs": [{"x": 256}]}, "raw", 2, id="value_too_wide"),
    pytest.param({"inputs": [{"q": 1}]}, "raw", 2, id="unknown_port"),
    pytest.param({"cycles": 3, "reset_cycles": "x"}, "raw", 2,
                 id="reset_text"),
    pytest.param({"cycles": 3, "watch": "x"}, "raw", 2, id="watch_text"),
    pytest.param([1, 2], "raw", 2, id="not_an_object"),
    pytest.param({"cycles": 5, "sink_ready": [1]}, "ready_valid", 2,
                 id="ready_too_short"),
    pytest.param({"cycles": 2, "sink_ready": [1, 2]}, "ready_valid", 2,
                 id="ready_not_a_bit"),
])
def test_simulate_stimulus_file(capsys, tmp_path, stimulus, protocol, want):
    stim = tmp_path / "stim.json"
    stim.write_text(json.dumps(stimulus))
    code, _, err = run_cli(
        capsys, "simulate", data_path("running.json"), "--stimulus", str(stim),
        "--protocol", protocol)
    assert code == want, err
    if want:
        assert "stimulus" in err


def test_simulate_cycle_check(capsys):
    code, _, _ = run_cli(
        capsys, "simulate", data_path("running.json"),
        "--cycles", "1", "--reset-cycles", "5")
    assert code == 2


@pytest.mark.parametrize("cycles,reset", [("-1", "-2"), ("4", "-3"),
                                          ("-1", "0")])
def test_simulate_negative_counts(capsys, cycles, reset):
    code, out, err = run_cli(
        capsys, "simulate", data_path("running.json"),
        "--cycles", cycles, "--reset-cycles", reset)
    assert code == 2 and out == ""
    assert "must be a count" in err


def test_sweep_variants(capsys, tmp_path):
    out_dir = tmp_path / "sweep"
    code, out, _ = run_cli(
        capsys, "sweep", data_path("running_delay2.json"),
        "--out-dir", str(out_dir))
    assert code == 0
    index = json.loads((out_dir / "index.json").read_text())
    names = [v["name"] for v in index["variants"]]
    # threshold candidates plus the two forced-implementation baselines
    assert "Dinf_Winf_auto" in names
    assert "D4_W4_auto" in names
    assert any(n.endswith("force_reg") for n in names)
    assert any(n.endswith("force_srl") for n in names)
    for name in names:
        vdir = out_dir / name
        assert (vdir / "design.v").exists()
        assert (vdir / "graph.dot").exists()
        manifest = json.loads((vdir / "manifest.json").read_text())
        assert manifest["name"] == name
    fifo_counts = {v["name"]: v["cell_counts"]["fifo"]
                   for v in index["variants"]}
    assert fifo_counts["D4_W4_auto"] == 1
    assert fifo_counts["Dinf_Winf_auto"] == 0


@pytest.mark.parametrize("argv", [
    ("generate", "--verilog", "{blocker}/x.v"),
    ("sweep", "--out-dir", "{blocker}/sweep"),
], ids=["generate_verilog", "sweep_out_dir"])
def test_output_under_a_regular_file_exit_2(capsys, tmp_path, argv):
    blocker = tmp_path / "plain.txt"
    blocker.write_text("not a directory\n")
    cmd, flag, target = argv
    code, _, err = run_cli(capsys, cmd, data_path("running.json"),
                           flag, target.format(blocker=blocker))
    assert code == 2
    assert "cannot write" in err
    assert blocker.read_text() == "not a directory\n"


def test_missing_spec_file_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "build", str(tmp_path / "nope.json"))
    assert code == 2


def _reads_in_valid(tmp_path):
    # a design whose data input is named like a handshake port
    spec = tmp_path / "in_valid.json"
    spec.write_text(json.dumps({
        "name": "hs", "inputs": [{"name": "in_valid", "width": 4}],
        "outputs": [{"name": "q_out", "from": "q"}],
        "steps": [{"name": "s", "kind": "wire", "defines": [
            {"name": "q", "width": 4, "expr": "in_valid"}]}]}))
    return str(spec)


def test_raw_input_named_like_a_handshake_port_is_data(capsys, tmp_path):
    stim = tmp_path / "stim.json"
    stim.write_text(json.dumps({"inputs": [{}, {"in_valid": 5}, {"in_valid": 7}]}))
    csv = tmp_path / "trace.csv"
    code, _, err = run_cli(capsys, "simulate", _reads_in_valid(tmp_path),
                           "--stimulus", str(stim), "--csv", str(csv))
    assert code == 0, err
    rows = [line.split(",") for line in csv.read_text().splitlines()]
    col = rows[0].index("q_out")
    assert [r[col] for r in rows[1:]] == ["0", "5", "7", "0"]


def test_ready_valid_design_with_a_handshake_port_exit_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "generate", _reads_in_valid(tmp_path),
                           "--protocol", "ready_valid")
    assert code == 3, err
    assert "port 'in_valid' is reserved" in err


def _one_register(tmp_path, design="ck", inp="x", out="q_out"):
    """A one-step spec file: ``out`` is ``inp`` one cycle late."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": design, "inputs": [{"name": inp, "width": 4}],
        "outputs": [{"name": out, "from": "q"}],
        "steps": [{"name": "s", "kind": "reg", "defines": [
            {"name": "q", "width": 4, "expr": inp}]}]}))
    return str(spec)


@pytest.mark.parametrize("port", ["clk", "rst"])
@pytest.mark.parametrize("protocol", ["raw", "ready_valid"])
@pytest.mark.parametrize("side", ["input", "output"])
def test_port_named_like_the_clock_or_reset_exit_3(capsys, tmp_path, port,
                                                   protocol, side):
    # the emitter declares clk and rst itself, so a design port may not
    spec = _one_register(tmp_path, **{("inp" if side == "input" else "out"): port})
    code, _, err = run_cli(capsys, "generate", spec, "--protocol", protocol)
    assert code == 3, err
    assert f"port {port!r} is reserved for the clock and reset" in err


@pytest.mark.parametrize("what, names", [
    ("design name", {"design": "module"}),
    ("port", {"inp": "begin"}),
    ("port", {"out": "end"}),
], ids=["design", "input", "output"])
def test_verilog_keyword_as_a_name_exit_3(capsys, tmp_path, what, names):
    spec = _one_register(tmp_path, **names)
    code, _, err = run_cli(capsys, "generate", spec)
    assert code == 3, err
    name, = names.values()
    assert f"{what} {name!r} is reserved as a Verilog keyword" in err


def _count_compiles(monkeypatch) -> list[str]:
    from pipeforge import sim
    built = []
    compile_netlist = sim._Compiled.__init__

    def counting(self, netlist, *args, **kwargs):
        built.append(netlist.name)
        compile_netlist(self, netlist, *args, **kwargs)

    monkeypatch.setattr(sim._Compiled, "__init__", counting)
    return built


def test_sweep_compiles_the_baseline_once(capsys, tmp_path, monkeypatch):
    # where the terms cannot decide, every variant is simulated against the
    # one compiled baseline
    from pipeforge import sim
    monkeypatch.setattr(sim, "output_terms", lambda netlist, cores: None)
    built = _count_compiles(monkeypatch)
    for protocol in ("raw", "ready_valid"):
        built.clear()
        out_dir = tmp_path / protocol
        code, _, err = run_cli(capsys, "sweep", data_path("running_delay2.json"),
                               "--protocol", protocol, "--out-dir", str(out_dir))
        assert code == 0, err
        variants = json.loads((out_dir / "index.json").read_text())["variants"]
        assert len(built) == len(variants) + 1


def test_sweep_lowers_each_variant_once(capsys, tmp_path, monkeypatch):
    # the Dinf_Winf_auto variant has the baseline's policy, so the
    # baseline's lowering serves it: one lower per variant
    from pipeforge import cli
    lowered = []
    lower = cli.lower

    def counting(graph, plan, policy):
        lowered.append(policy)
        return lower(graph, plan, policy)

    monkeypatch.setattr(cli, "lower", counting)
    for protocol in ("raw", "ready_valid"):
        lowered.clear()
        out_dir = tmp_path / protocol
        code, _, err = run_cli(capsys, "sweep", data_path("running_delay2.json"),
                               "--protocol", protocol, "--out-dir", str(out_dir))
        assert code == 0, err
        variants = json.loads((out_dir / "index.json").read_text())["variants"]
        assert "Dinf_Winf_auto" in [v["name"] for v in variants]
        assert len(lowered) == len(variants) == len(set(lowered))


def test_raw_sweep_decides_every_variant_from_terms(capsys, tmp_path,
                                                    monkeypatch):
    # every variant, FIFOs and shift registers included, has the baseline's
    # output terms, so nothing is compiled
    built = _count_compiles(monkeypatch)
    out_dir = tmp_path / "sweep"
    code, _, err = run_cli(capsys, "sweep", data_path("running_delay2.json"),
                           "--out-dir", str(out_dir))
    assert code == 0, err
    variants = json.loads((out_dir / "index.json").read_text())["variants"]
    assert len(variants) == 5 and built == []


def test_ready_valid_sweep_decides_every_variant_from_terms(capsys, tmp_path,
                                                            monkeypatch):
    # the FIFO variant's enables read the valid chain at its taps, so it
    # too has the baseline's output terms, and nothing is compiled
    built = _count_compiles(monkeypatch)
    out_dir = tmp_path / "sweep"
    code, _, err = run_cli(capsys, "sweep", data_path("running_delay2.json"),
                           "--protocol", "ready_valid", "--out-dir", str(out_dir))
    assert code == 0, err
    variants = json.loads((out_dir / "index.json").read_text())["variants"]
    assert len(variants) == 5 and built == []
    assert any(v["cell_counts"]["fifo"] for v in variants)


def test_every_command_applies_the_description_width_rule(capsys, tmp_path):
    # the builder checks each define's width, so no command takes a
    # description that ``generate`` would reject
    doc = json.loads(open(data_path("running.json")).read())
    doc["steps"][1]["defines"][0]["width"] = 4  # addA's sumXY
    spec = tmp_path / "narrow.json"
    spec.write_text(json.dumps(doc))
    for argv in (["build", str(spec)], ["report", str(spec)],
                 ["generate", str(spec)]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert ("addA:sumXY declared 4 bits but its expression has 8"
                in err), argv


def test_the_netlist_rule_runs_once_per_lowering(capsys, tmp_path,
                                                 monkeypatch):
    # the rule runs when a netlist is built; emitting, simulating, measuring
    # and comparing built netlists never run it again
    from pipeforge import cli
    from pipeforge.netlist import Netlist
    runs, lowered = [], []
    rule, lower = Netlist.__post_init__, cli.lower

    def counting_rule(self):
        runs.append(self.name)
        rule(self)

    def counting_lower(*args):
        lowered.append(args)
        return lower(*args)

    monkeypatch.setattr(Netlist, "__post_init__", counting_rule)
    monkeypatch.setattr(cli, "lower", counting_lower)
    spec = data_path("running_delay2.json")
    for argv in (["generate", spec, "--verilog", str(tmp_path / "d.v")],
                 ["simulate", spec, "--cycles", "20"],
                 ["simulate", spec, "--protocol", "ready_valid"],
                 ["sweep", spec, "--out-dir", str(tmp_path / "sweep")],
                 ["sweep", spec, "--protocol", "ready_valid", "--out-dir",
                  str(tmp_path / "rv")]):
        runs.clear()
        lowered.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert len(runs) == len(lowered) > 0, argv
    nl, other = (_library(spec, strategy)[2] for strategy in ("direct", "p2p"))
    runs.clear()
    pf.emit_verilog(nl)
    pf.simulate(nl, pf.Stimulus(cycles=20))
    pf.measured_latency(nl)
    assert pf.check_equivalence(nl, other).ok
    from pipeforge.sim import _Compiled, _equivalence, _stream_latency
    sim = _Compiled(nl)
    assert _equivalence(sim, _stream_latency(sim, 0), _Compiled(other),
                        1, 0, 80).ok
    assert runs == []

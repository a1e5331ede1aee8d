"""Command line front end.

Subcommands: build (summarize a description), generate (emit Verilog/DOT),
report (missing-relation distribution), sweep (threshold design-space
exploration with per-variant simulation checks), simulate (run the internal
simulator).  Exit codes: 0 success, 2 usage/config/schema error, 3 model or
validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .dot import emit_dot
from .errors import ConfigError, PipeforgeError
from .model import SyncGraph
from .netlist import Netlist, lower
from .protocol import Protocol, apply_protocol
from .resolve import (
    INFINITE,
    PrimitivePolicy,
    ShiftregMode,
    balance_merges,
    report_distribution,
    resolve_direct_backward,
    resolve_exhaustive_forward,
    resolve_p2p_backward,
    sweep_thresholds,
    validate,
)
from .sim import Stimulus, equivalence_to, measured_latency, simulate
from .specfile import graph_from_spec, load_spec
from .verilog import EmitOptions, ShregAttr, emit_verilog

_STRATEGIES = ("direct", "p2p", "exhaustive")


def _add_strategy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=_STRATEGIES, default="direct")
    p.add_argument("--depth-threshold", type=int, default=None)
    p.add_argument("--width-threshold", type=int, default=None)
    p.add_argument("--shiftreg", choices=[m.value for m in ShiftregMode],
                   default=None)
    p.add_argument("--protocol", choices=[p.value for p in Protocol],
                   default="raw")


def _policy(args) -> PrimitivePolicy:
    if args.strategy != "direct" and (
            args.depth_threshold is not None or args.width_threshold is not None
            or args.shiftreg is not None):
        raise ConfigError(
            "primitive policy flags only apply with --strategy direct")
    try:
        return PrimitivePolicy(
            args.depth_threshold if args.depth_threshold is not None else INFINITE,
            args.width_threshold if args.width_threshold is not None else INFINITE,
            ShiftregMode(args.shiftreg) if args.shiftreg else ShiftregMode.AUTO,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _emit_options(policy: PrimitivePolicy, name: str) -> EmitOptions:
    # EXPLICIT_SRL would emit the same bytes as NONE
    attr = (ShregAttr.NO_EXTRACT
            if policy.shiftreg_mode is ShiftregMode.FORCE_REG else ShregAttr.NONE)
    return EmitOptions(shreg_attr=attr, header=f"pipeline: {name}")


def _write(path: str, text: str) -> None:
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _read_spec(path: str) -> SyncGraph:
    """Load, schema-check and replay a description; a replay error names
    the file it came from."""
    doc = load_spec(path)
    try:
        return graph_from_spec(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _generate_netlist(balanced: SyncGraph, strategy: str,
                      policy: PrimitivePolicy, protocol: str):
    """Resolve, validate, plan the handshake and lower a balanced graph."""
    if strategy == "exhaustive":
        resolved = resolve_exhaustive_forward(balanced)
    elif strategy == "p2p":
        resolved = resolve_p2p_backward(balanced)
    else:
        resolved = resolve_direct_backward(balanced, policy)
    report = validate(resolved)
    if not report.ok:
        fails = "; ".join(f"{e.check}: {e.detail}" for e in report.failures())
        raise PipeforgeError(f"validation failed: {fails}")
    plan = apply_protocol(resolved, Protocol(protocol))
    return resolved, plan, lower(resolved, plan, policy)


# -- subcommands ------------------------------------------------------------


def cmd_build(args) -> int:
    graph = _read_spec(args.spec)
    balanced = balance_merges(graph)
    missing = balanced.missing_relations()
    print(f"{graph.name}: {len(graph.zones)} zones, "
          f"{len(graph.relations)} relations, "
          f"{len(missing)} missing relations")
    for mr in missing:
        print(f"  {mr.signal}: {mr.available_zone} -> {mr.needing_zone} "
              f"(depth {mr.depth}, width {mr.width})")
    if args.dot:
        _write(args.dot, emit_dot(balanced))
    return 0


def cmd_generate(args) -> int:
    graph = _read_spec(args.spec)
    policy = _policy(args)
    resolved, plan, netlist = _generate_netlist(
        balance_merges(graph), args.strategy, policy, args.protocol)
    if args.verilog:
        _write(args.verilog, emit_verilog(netlist, _emit_options(policy, graph.name)))
    if args.dot:
        _write(args.dot, emit_dot(resolved))
    print(f"{graph.name}: latency {plan.total_latency}, "
          f"cells {netlist.cell_counts()}")
    return 0


def cmd_report(args) -> int:
    graphs = []
    for spec in args.specs:
        if "=" in spec and not os.path.exists(spec):
            alias, path = spec.split("=", 1)
        else:
            alias, path = None, spec
        graph = balance_merges(_read_spec(path))
        graphs.append((alias or graph.name, graph))
    rep = report_distribution(graphs, min_depth=args.min_depth)
    text = rep.to_json() if args.report_format == "json" else rep.to_tsv()
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _fmt_thr(v) -> str:
    return "inf" if v == INFINITE else str(int(v))


def cmd_sweep(args) -> int:
    graph = _read_spec(args.spec)
    balanced = balance_merges(graph)
    candidates = sweep_thresholds(balanced)
    policies = [PrimitivePolicy(d, w) for d, w in candidates]
    policies += [PrimitivePolicy(shiftreg_mode=ShiftregMode.FORCE_REG),
                 PrimitivePolicy(shiftreg_mode=ShiftregMode.FORCE_SRL)]

    # direct resolution does not depend on the policy, so every variant
    # lowers the same resolved graph and shares its DOT; the variant with
    # the baseline's own policy is the baseline
    resolved, plan, baseline = _generate_netlist(
        balanced, "direct", PrimitivePolicy(), args.protocol)
    check = equivalence_to(baseline, args.seed)

    results = []
    for i, policy in enumerate(policies):
        netlist = (baseline if policy == PrimitivePolicy()
                   else lower(resolved, plan, policy))
        verdict = check(netlist, 2, args.seed + i, 200)
        depth, width = _fmt_thr(policy.depth_threshold), _fmt_thr(policy.width_threshold)
        name = f"D{depth}_W{width}_{policy.shiftreg_mode.value}"
        manifest = {
            "name": name,
            "policy": {
                "depth_threshold": depth,
                "width_threshold": width,
                "shiftreg": policy.shiftreg_mode.value,
            },
            "cell_counts": netlist.cell_counts(),
        }
        verilog = emit_verilog(netlist, _emit_options(policy, balanced.name))
        results.append((name, manifest, verilog, verdict))
    dot = emit_dot(resolved)

    index = []
    for name, manifest, vtext, verdict in results:
        if not verdict.ok:
            print(f"variant {name} diverges from baseline: {verdict.detail}",
                  file=sys.stderr)
            return 3
        vdir = os.path.join(args.out_dir, name)
        _write(os.path.join(vdir, "design.v"), vtext)
        _write(os.path.join(vdir, "graph.dot"), dot)
        _write(os.path.join(vdir, "manifest.json"),
               json.dumps(manifest, indent=2) + "\n")
        index.append(manifest)
    _write(os.path.join(args.out_dir, "index.json"),
           json.dumps({"pipeline": graph.name, "variants": index}, indent=2) + "\n")
    print(f"{len(index)} variants written to {args.out_dir}")
    return 0


def _count(value, what: str) -> int:
    if type(value) is not int or value < 0:
        raise ConfigError(f"{what} must be a count, got {value!r}")
    return value


def _read_stimulus(path: str, netlist: Netlist) -> Stimulus:
    """Read a stimulus file and check it against the netlist's input ports."""
    try:
        with open(path, encoding="utf-8") as fh:
            sdoc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read stimulus: {exc}") from exc
    if not isinstance(sdoc, dict):
        raise ConfigError("stimulus must be a JSON object")
    widths = dict(netlist.data_ports()[0])
    if netlist.protocol is Protocol.READY_VALID:  # a stimulus may drop valid
        widths["in_valid"] = 1
    inputs = sdoc.get("inputs", [])
    if not isinstance(inputs, list) or not all(isinstance(i, dict) for i in inputs):
        raise ConfigError("stimulus inputs must be a list of objects")
    for cycle, given in enumerate(inputs):
        for port, value in given.items():
            if port not in widths:
                raise ConfigError(
                    f"stimulus inputs[{cycle}] names no input port: {port!r}")
            if type(value) is not int or not 0 <= value < 1 << widths[port]:
                raise ConfigError(
                    f"stimulus inputs[{cycle}].{port} is not a "
                    f"{widths[port]}-bit value: {value!r}")
    reset = _count(sdoc.get("reset_cycles", 1), "stimulus reset_cycles")
    cycles = _count(sdoc.get("cycles", len(inputs) + reset), "stimulus cycles")
    if cycles < reset:
        raise ConfigError("cycles must cover the reset")
    ready = sdoc.get("sink_ready")
    if ready is not None and (
            not isinstance(ready, list) or len(ready) < cycles
            or any(type(r) is not int or r not in (0, 1) for r in ready)):
        raise ConfigError(
            f"stimulus sink_ready must list 0 or 1 for each of {cycles} cycles")
    watch = sdoc.get("watch", [])
    if not isinstance(watch, list) or not all(isinstance(w, str) for w in watch):
        raise ConfigError("stimulus watch must be a list of net names")
    return Stimulus(cycles, inputs, ready, reset, tuple(watch))


def cmd_simulate(args) -> int:
    graph = _read_spec(args.spec)
    _, plan, netlist = _generate_netlist(
        balance_merges(graph), args.strategy, _policy(args), args.protocol)
    if args.stimulus:
        stim = _read_stimulus(args.stimulus, netlist)
    else:
        if (_count(args.cycles, "--cycles")
                < _count(args.reset_cycles, "--reset-cycles")):
            raise ConfigError("cycles must cover the reset")
        rng = random.Random(args.seed)
        data_ports, _ = netlist.data_ports()
        inputs = [{n: rng.randrange(0, 1 << w) for n, w in data_ports}
                  for _ in range(args.cycles)]
        ready = None
        if netlist.protocol is Protocol.READY_VALID:
            ready = [1 if rng.random() < 0.5 else 0 for _ in range(args.cycles)]
        stim = Stimulus(args.cycles, inputs, ready, args.reset_cycles)
    trace = simulate(netlist, stim)
    if netlist.protocol is Protocol.RAW:
        print(f"latency: {measured_latency(netlist, seed=args.seed)}")
    else:
        print(f"latency: {plan.total_latency}")
        print(f"accepted: {len(trace.accepted_outputs)} transactions")
    if args.csv:
        _write(args.csv, trace.to_csv())
    if args.vcd:
        _write(args.vcd, trace.to_vcd())
    return 0


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pipeforge",
        description="Pipeline elaboration: graph resolution, Verilog/DOT "
                    "emission, simulation and threshold sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="summarize an elaborated pipeline")
    p.add_argument("spec")
    p.add_argument("--dot")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("generate", help="resolve and emit Verilog/DOT")
    p.add_argument("spec")
    _add_strategy_args(p)
    p.add_argument("--verilog")
    p.add_argument("--dot")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("report", help="missing-relation distribution report")
    p.add_argument("specs", nargs="+",
                   help="spec paths, optionally as alias=path")
    p.add_argument("--min-depth", type=int, default=0)
    p.add_argument("--report-format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="generate all threshold variants")
    p.add_argument("spec")
    p.add_argument("--protocol", choices=[x.value for x in Protocol],
                   default="raw")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="run the internal simulator")
    p.add_argument("spec")
    _add_strategy_args(p)
    p.add_argument("--stimulus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cycles", type=int, default=100)
    p.add_argument("--reset-cycles", type=int, default=1)
    p.add_argument("--csv")
    p.add_argument("--vcd")
    p.set_defaults(func=cmd_simulate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipeforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

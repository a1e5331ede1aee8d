"""Reference answers the benchmark computes without pipeforge.

* ``evaluate``: the spec's s-expressions, evaluated with width masking in
  declaration order (the JSON step order is chronological, so every operand
  is defined before it is read).
* ``spec_depth``: the pipeline's input-to-output latency, the longest path
  over step latencies with every merge balanced to its slowest inbound path.
* ``storage_bits``: flip-flop, shift-register and FIFO bits read off emitted
  Verilog text, so the count does not depend on the netlist IR.
"""

from __future__ import annotations

import re

_BINARY = ("add", "sub", "mul", "xor", "and", "or")


def _mask(width: int) -> int:
    return (1 << width) - 1


def expr_width(node, widths: dict[str, int]) -> int:
    if isinstance(node, str):
        return widths[node]
    head = node[0]
    if head == "ref":
        return widths[node[1]]
    if head == "const":
        return node[2]
    if head == "mul":
        return expr_width(node[1], widths) + expr_width(node[2], widths)
    if head in _BINARY:
        return max(expr_width(node[1], widths), expr_width(node[2], widths))
    if head == "not":
        return expr_width(node[1], widths)
    if head in ("shl", "shr"):
        return expr_width(node[2], widths)
    if head == "mux":
        return expr_width(node[2], widths)
    if head == "slice":
        return node[1] - node[2] + 1
    if head == "cat":
        return sum(expr_width(p, widths) for p in node[1:])
    raise ValueError(f"unknown operator {head!r}")


def _eval(node, env: dict[str, int], widths: dict[str, int]) -> int:
    if isinstance(node, str):
        return env[node]
    head = node[0]
    if head == "ref":
        return env[node[1]]
    if head == "const":
        return node[1]
    if head in _BINARY:
        a = _eval(node[1], env, widths)
        b = _eval(node[2], env, widths)
        w = expr_width(node, widths)
        if head == "add":
            return (a + b) & _mask(w)
        if head == "sub":
            return (a - b) & _mask(w)
        if head == "mul":
            return (a * b) & _mask(w)
        if head == "xor":
            return a ^ b
        if head == "and":
            return a & b
        return a | b
    if head == "not":
        return ~_eval(node[1], env, widths) & _mask(expr_width(node, widths))
    if head == "shl":
        w = expr_width(node, widths)
        return (_eval(node[2], env, widths) << node[1]) & _mask(w)
    if head == "shr":
        return _eval(node[2], env, widths) >> node[1]
    if head == "mux":
        pick = node[2] if _eval(node[1], env, widths) else node[3]
        return _eval(pick, env, widths)
    if head == "slice":
        hi, lo = node[1], node[2]
        return (_eval(node[3], env, widths) >> lo) & _mask(hi - lo + 1)
    if head == "cat":
        acc = 0
        for part in node[1:]:
            acc = (acc << expr_width(part, widths)) | _eval(part, env, widths)
        return acc
    raise ValueError(f"unknown operator {head!r}")


def evaluate(doc: dict, inputs: dict[str, int]) -> dict[str, int]:
    """Output-port values of the pipeline for one input transaction."""
    widths = {i["name"]: i["width"] for i in doc["inputs"]}
    env = dict(inputs)
    for step in doc["steps"]:
        for d in step["defines"]:
            widths[d["name"]] = d["width"]
            env[d["name"]] = _eval(d["expr"], env, widths)
    return {o["name"]: env[o["from"]] for o in doc["outputs"]}


def step_latency(kind) -> int:
    if kind == "wire":
        return 0
    if kind == "reg":
        return 1
    return kind["delay"]


def spec_depth(doc: dict) -> int:
    """Latency from the inputs to the outputs, which are driven from main.

    Splits are taken before a merge at the same position, as the loader
    replays them.
    """
    steps: dict[str, list[int]] = {}
    for s in doc["steps"]:
        steps.setdefault(s.get("branch", "main"), []).append(step_latency(s["kind"]))
    origin = {b["name"]: b["from"].split("@") for b in doc.get("branches", [])}
    merges: dict[str, dict[int, list[str]]] = {}
    for m in doc.get("merges", []):
        names = m["branch"] if isinstance(m["branch"], list) else [m["branch"]]
        at = merges.setdefault(m.get("into", "main"), {})
        at.setdefault(m["at"], []).extend(names)
    ends: dict[str, int] = {}

    def start(branch: str) -> int:
        if branch == "main":
            return 0
        parent, pos = origin[branch]
        return depth_at(parent, int(pos))

    def end(branch: str) -> int:
        if branch not in ends:
            ends[branch] = depth_at(branch, len(steps.get(branch, [])), True)
        return ends[branch]

    def depth_at(branch: str, pos: int, merge_last: bool = False) -> int:
        d = start(branch)
        lats = steps.get(branch, [])
        for i in range(pos + 1):
            if i < pos or merge_last:
                for other in merges.get(branch, {}).get(i, []):
                    d = max(d, end(other))
            if i < pos:
                d += lats[i]
        return d

    return end("main")


_REG = re.compile(r"^\s*(?:\(\*.*?\*\)\s*)?reg\s+(?:\[(\d+):0\]\s+)?\w+\s*;", re.M)
_SHIFTREG = re.compile(r"^\s*pf_shiftreg_w(\d+)_d(\d+)\s+u_", re.M)
_FIFO = re.compile(r"^\s*pf_fifo_w(\d+)_d(\d+)\s+u_", re.M)


def storage_bits(verilog: str) -> tuple[int, int, int]:
    """(flip-flop, shift-register, FIFO) storage bits of the top module.

    Helper modules are emitted before the top module, so only the text after
    the last ``module`` header is the top module; its ``reg`` declarations
    are flip-flops and its helper instances hold width x depth bits each.
    """
    top = verilog[verilog.rindex("\nmodule ") if "\nmodule " in verilog else 0:]
    reg = sum(int(hi) + 1 if hi else 1 for hi in _REG.findall(top))
    srl = sum(int(w) * int(d) for w, d in _SHIFTREG.findall(top))
    fifo = sum(int(w) * int(d) for w, d in _FIFO.findall(top))
    return reg, srl, fifo

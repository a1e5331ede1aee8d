"""The benchmark's workloads: the public pipeforge calls of one round, and
the independent checks made on the first round's outputs.

Each round repeats the same jobs on the same spec files, one after another
in this process (a closed loop with one caller).  Jobs mirror the command
line: ``build`` and ``generate`` load the spec file afresh as separate
``pipeforge`` invocations would, ``sweep`` follows ``pipeforge sweep``, and
the fixed-length simulation follows ``pipeforge simulate``.  Only names in
``pipeforge.__all__`` are used, so internal refactors leave this file alone.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable

import pipeforge as pf

import oracle
import specgen
from recorder import Recorder

RAW, RV = pf.Protocol.RAW, pf.Protocol.READY_VALID
HANDSHAKE = ("in_valid", "out_ready", "out_valid", "in_ready")
# check_equivalence arguments `pipeforge sweep` uses for every variant
EQUIVALENCE = {"trials": 2, "cycles": 200}
# transactions the golden evaluator checks per fixed-length simulation;
# sweep_corpus's designs are small, so it runs longer ones to time enough
GOLDEN_TRANSACTIONS = 200
SWEEP_TRANSACTIONS = 1000
# the one failure the benchmark expects at baseline (see README.md):
# check_equivalence under ready/valid runs out of accepted outputs
KNOWN_DIVERGENCE = "too few outputs"


@dataclass(frozen=True)
class Spec:
    doc: dict
    path: str
    depth: int  # oracle.spec_depth(doc)

    @property
    def name(self) -> str:
        return self.doc["name"]


class Outcome:
    """Correctness checks over a whole run.  A failed check or a raised
    exception is one failure; failures of the documented kind are known."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.known = 0

    def check(self, ok: bool, what: str, known: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"known: {what}" if known else what)
            self.known += known

    @property
    def correct(self) -> bool:
        return len(self.failures) == self.known


def policy_name(policy: pf.PrimitivePolicy) -> str:
    """The variant name `pipeforge sweep` gives a policy."""
    def thr(v):
        return "inf" if v == pf.INFINITE else str(int(v))
    return (f"D{thr(policy.depth_threshold)}_W{thr(policy.width_threshold)}_"
            f"{policy.shiftreg_mode.value}")


def emit_options(policy: pf.PrimitivePolicy, name: str) -> pf.EmitOptions:
    """The emission options `pipeforge generate` and `sweep` use."""
    attr = {pf.ShiftregMode.FORCE_REG: pf.ShregAttr.NO_EXTRACT,
            pf.ShiftregMode.FORCE_SRL: pf.ShregAttr.EXPLICIT_SRL,
            }.get(policy.shiftreg_mode, pf.ShregAttr.NONE)
    return pf.EmitOptions(shreg_attr=attr, header=f"pipeline: {name}")


class Round:
    """One pass over a workload's jobs.  Only the first round is checked and
    counted; every round records a digest of each emitted text."""

    def __init__(self, rec: Recorder, outcome: Outcome, seed: int,
                 checking: bool):
        self.rec = rec
        self.outcome = outcome
        self.seed = seed
        self.checking = checking
        self.counts: Counter = Counter()
        self.digests: list[str] = []
        self.call = rec.call

    def check(self, ok: bool, what: str, known: bool = False) -> None:
        if self.checking:
            self.outcome.check(ok, what, known)

    @contextmanager
    def unit(self, what: str):
        """Work on one spec; an exception fails it and the run goes on."""
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            traceback.print_exc(file=sys.stderr)
            self.outcome.check(False, f"{what}: raised {exc!r}")

    def text(self, job: str, what: str, text: str, again: Callable[[], str]):
        self.digests.append(hashlib.sha1(text.encode()).hexdigest())
        if self.checking:
            self.check(again() == text, f"{job}: {what} is repeatable")

    def design(self, job: str, netlist: pf.Netlist, verilog: str,
               policy: pf.PrimitivePolicy) -> None:
        self.text(job, "emit_verilog", verilog, lambda: pf.emit_verilog(
            netlist, emit_options(policy, netlist.name)))
        if self.checking:
            reg, srl, fifo = oracle.storage_bits(verilog)
            self.counts.update({"reg_bits": reg, "srl_bits": srl,
                                "fifo_bits": fifo, "designs": 1,
                                "netlist.cells": len(netlist.cells),
                                "verilog.bytes": len(verilog.encode())})


# -- jobs ---------------------------------------------------------------------


def build(r: Round, spec: Spec) -> None:
    """`pipeforge build`: the balanced graph and its missing relations."""
    with r.rec.job("generate", f"{spec.name}/build"):
        doc = r.call("specfile.load_spec", pf.load_spec, spec.path)
        graph = r.call("specfile.graph_from_spec", pf.graph_from_spec, doc)
        balanced = r.call("resolve.balance_merges", pf.balance_merges, graph)
        missing = r.call("model.missing_relations", balanced.missing_relations)
    r.counts.update({"model.zones": len(graph.zones),
                     "model.relations": len(graph.relations),
                     "model.missing_relations": len(missing)})


def _resolve(r: Round, strategy: str, balanced: pf.SyncGraph,
             policy: pf.PrimitivePolicy) -> pf.SyncGraph:
    if strategy == "direct":
        return r.call("resolve.resolve_direct", pf.resolve_direct_backward,
                      balanced, policy)
    if strategy == "p2p":
        return r.call("resolve.resolve_p2p", pf.resolve_p2p_backward, balanced)
    return r.call("resolve.resolve_exhaustive", pf.resolve_exhaustive_forward,
                  balanced)


def _lower_emit(r: Round, resolved: pf.SyncGraph, policy: pf.PrimitivePolicy,
                protocol: pf.Protocol):
    plan = r.call("protocol.apply_protocol", pf.apply_protocol, resolved,
                  protocol)
    netlist = r.call("netlist.lower", pf.lower, resolved, plan, policy)
    verilog = r.call("verilog.emit_verilog", pf.emit_verilog, netlist,
                     emit_options(policy, resolved.name))
    return netlist, verilog


def _resolved(r: Round, job: str, strategy: str, resolved: pf.SyncGraph,
              report, dot: str) -> None:
    r.check(report.ok, f"{job}: validate")
    r.text(job, "emit_dot", dot, lambda: pf.emit_dot(resolved))
    if r.checking:
        r.counts[f"resolve.propagated_slots_{strategy}"] += sum(
            s.status is pf.SignalStatus.PROPAGATED
            for z in resolved.zones.values() for s in z.slots.values())


def job_id(spec: Spec, strategy: str, policy: pf.PrimitivePolicy,
           protocol: pf.Protocol) -> str:
    return f"{spec.name}/{strategy}/{policy_name(policy)}/{protocol.value}"


def generate(r: Round, spec: Spec, strategy: str, policy: pf.PrimitivePolicy,
             protocol: pf.Protocol):
    """`pipeforge generate`: spec file to validated graph to Verilog + DOT."""
    job = job_id(spec, strategy, policy, protocol)
    with r.rec.job("generate", job):
        doc = r.call("specfile.load_spec", pf.load_spec, spec.path)
        graph = r.call("specfile.graph_from_spec", pf.graph_from_spec, doc)
        balanced = r.call("resolve.balance_merges", pf.balance_merges, graph)
        resolved = _resolve(r, strategy, balanced, policy)
        report = r.call("resolve.validate", pf.validate, resolved)
        netlist, verilog = _lower_emit(r, resolved, policy, protocol)
        dot = r.call("dot.emit_dot", pf.emit_dot, resolved)
    _resolved(r, job, strategy, resolved, report, dot)
    r.design(job, netlist, verilog, policy)
    return resolved, netlist


def lower(r: Round, spec: Spec, resolved: pf.SyncGraph,
          policy: pf.PrimitivePolicy, protocol: pf.Protocol) -> pf.Netlist:
    """Another lowering of an already generated graph."""
    job = job_id(spec, "direct", policy, protocol)
    with r.rec.job("generate", job):
        netlist, verilog = _lower_emit(r, resolved, policy, protocol)
    r.design(job, netlist, verilog, policy)
    return netlist


def contained(r: Round, spec: Spec, graphs: list[pf.SyncGraph]) -> None:
    """Per zone, direct slots within p2p slots within exhaustive slots."""
    ok = all(set(a.zones[z].slots) <= set(b.zones[z].slots)
             for a, b in itertools.pairwise(graphs) for z in a.zones)
    r.check(ok, f"{spec.name}: strategy containment")


def simulate(r: Round, spec: Spec, netlist: pf.Netlist, design: str,
             transactions: int = GOLDEN_TRANSACTIONS) -> None:
    """`pipeforge simulate`'s fixed-length run on random stimulus (sink ready
    half the time under ready/valid), compared with the golden evaluator."""
    job = f"{design}/simulate"
    rng = random.Random(f"{job}:{r.seed}")
    rv = netlist.protocol is RV
    ports = [(p, w) for p, w in netlist.inputs if p not in HANDSHAKE]
    cycles = (2 if rv else 1) * (spec.depth + transactions) + 1
    inputs = [{p: rng.randrange(1 << w) for p, w in ports}
              for _ in range(cycles)]
    ready = [int(rng.random() < 0.5) for _ in range(cycles)] if rv else None
    stim = pf.Stimulus(cycles, inputs, ready)
    with r.rec.job("verify", job):
        trace = r.call("sim.simulate", pf.simulate, netlist, stim)
    r.counts["sim.simulated_cycles"] += cycles
    if not r.checking:
        return
    outs = [o["name"] for o in spec.doc["outputs"]]
    if rv:
        pairs = list(zip(trace.accepted_inputs, trace.accepted_outputs))
    else:  # cycle 0 is the reset; an input shows `depth` cycles later
        pairs = [(inputs[c], trace.samples[c + spec.depth])
                 for c in range(1, cycles - spec.depth)]
    ok = bool(pairs) and all(
        {o: got[o] for o in outs} == oracle.evaluate(spec.doc, given)
        for given, got in pairs)
    r.check(ok, f"{job}: outputs equal the golden evaluator")


def latency(r: Round, spec: Spec, netlist: pf.Netlist, design: str) -> None:
    job = f"{design}/measured_latency"
    with r.rec.job("verify", job):
        got = r.call("sim.measured_latency", pf.measured_latency, netlist,
                     r.seed)
    r.check(got == spec.depth, f"{job}: {got} != spec depth {spec.depth}")


def equivalence(r: Round, job: str, a: pf.Netlist, b: pf.Netlist,
                seed: int) -> None:
    with r.rec.job("verify", f"{job}/check_equivalence"):
        verdict = r.call("sim.check_equivalence", pf.check_equivalence, a, b,
                         seed=seed, **EQUIVALENCE)
    r.counts["sim.equivalence_ok"] += verdict.ok
    known = (KNOWN_DIVERGENCE in verdict.detail
             and RV in (a.protocol, b.protocol))
    r.check(verdict.ok, f"{job}: check_equivalence: {verdict.detail}", known)


def sweep(r: Round, spec: Spec, protocol: pf.Protocol) -> None:
    """`pipeforge sweep`: every threshold variant plus force_reg and
    force_srl, each checked against the default-policy baseline."""
    with r.rec.job("generate", f"{spec.name}/sweep"):
        doc = r.call("specfile.load_spec", pf.load_spec, spec.path)
        graph = r.call("specfile.graph_from_spec", pf.graph_from_spec, doc)
        balanced = r.call("resolve.balance_merges", pf.balance_merges, graph)
        candidates = r.call("resolve.sweep_thresholds", pf.sweep_thresholds,
                            balanced)
        policies = [pf.PrimitivePolicy(d, w) for d, w in candidates]
        policies += [pf.direct_force_reg(), pf.direct_force_srl()]
        base = pf.direct_auto()
        resolved = _resolve(r, "direct", balanced, base)
        plan = r.call("protocol.apply_protocol", pf.apply_protocol, resolved,
                      protocol)
        baseline = r.call("netlist.lower", pf.lower, resolved, plan, base)
    distinct = set()
    for i, policy in enumerate(policies):
        job = f"{spec.name}/sweep/{policy_name(policy)}/{protocol.value}"
        with r.rec.job("generate", job):
            resolved = _resolve(r, "direct", balanced, policy)
            report = r.call("resolve.validate", pf.validate, resolved)
            netlist, verilog = _lower_emit(r, resolved, policy, protocol)
            dot = r.call("dot.emit_dot", pf.emit_dot, resolved)
        _resolved(r, job, "direct", resolved, report, dot)
        r.design(job, netlist, verilog, policy)
        distinct.add(hashlib.sha1(verilog.encode()).hexdigest())
        equivalence(r, job, baseline, netlist, r.seed + i)
    r.counts.update({"sweep.candidates": len(candidates),
                     "sweep.variants": len(policies),
                     "sweep.distinct_variants": len(distinct)})


def report(r: Round, specs: list[Spec]) -> None:
    """`pipeforge report` over the whole corpus."""
    with r.rec.job("generate", "corpus/report"):
        graphs = []
        for spec in specs:
            doc = r.call("specfile.load_spec", pf.load_spec, spec.path)
            graph = r.call("specfile.graph_from_spec", pf.graph_from_spec, doc)
            graphs.append((spec.name, r.call(
                "resolve.balance_merges", pf.balance_merges, graph)))
        r.call("resolve.report_distribution", pf.report_distribution, graphs)


# -- workloads ----------------------------------------------------------------

DEEP = specgen.Shape(steps=0, max_branches=5, lookback=40,
                     latency_mix=((0, 30), (1, 40), (2, 20), (3, 10)),
                     widths=(16,), segment=6)
LADDER = (36, 54, 72)
# direct runs one policy per ladder rung so all three storage kinds appear
DEEP_POLICIES = (pf.direct_force_srl(), pf.direct_fifo(4, 16), pf.direct_auto())

LONG = specgen.Shape(steps=36, max_branches=3, lookback=10,
                     latency_mix=((0, 25), (1, 25), (None, 50)),
                     delay_range=(2, 6), widths=(8, 16), segment=4)
VERIFY_POLICIES = (pf.direct_auto(), pf.direct_force_srl(), pf.direct_fifo(4, 8))

SMALL = specgen.Shape(steps=16, max_branches=3, lookback=2,
                      latency_mix=((0, 30), (1, 40), (None, 30)),
                      delay_range=(2, 5), widths=(1, 4, 8, 16, 32))
CORPUS = 4


def run_generate_deep(r: Round, specs: list[Spec]) -> None:
    for spec, policy in zip(specs, DEEP_POLICIES):
        with r.unit(spec.name):
            build(r, spec)
            direct, netlist = generate(r, spec, "direct", policy, RAW)
            p2p, _ = generate(r, spec, "p2p", pf.direct_auto(), RAW)
            contained(r, spec, [direct, p2p])
            simulate(r, spec, netlist, job_id(spec, "direct", policy, RAW))


def run_verify_deep(r: Round, specs: list[Spec]) -> None:
    auto = pf.direct_auto()
    for spec in specs:
        with r.unit(spec.name):
            build(r, spec)
            resolved, first = generate(r, spec, "direct", auto, RAW)
            designs = [(RAW, auto, first)] + [
                (protocol, policy, lower(r, spec, resolved, policy, protocol))
                for protocol, policy in itertools.product((RAW, RV),
                                                          VERIFY_POLICIES)
                if (protocol, policy) != (RAW, auto)]
            for i, (protocol, policy, netlist) in enumerate(designs):
                design = job_id(spec, "direct", policy, protocol)
                simulate(r, spec, netlist, design)
                if protocol is RAW:
                    latency(r, spec, netlist, design)
                if i:
                    equivalence(r, design, first, netlist, r.seed + i)


def run_sweep_corpus(r: Round, specs: list[Spec]) -> None:
    auto = pf.direct_auto()
    for i, spec in enumerate(specs):
        protocol = RV if i % 2 else RAW
        with r.unit(spec.name):
            build(r, spec)
            graphs, netlists = zip(*(
                generate(r, spec, s, auto, protocol)
                for s in ("direct", "p2p", "exhaustive")))
            contained(r, spec, list(graphs))
            design = job_id(spec, "direct", auto, protocol)
            simulate(r, spec, netlists[0], design, SWEEP_TRANSACTIONS)
            if protocol is RAW:
                latency(r, spec, netlists[0], design)
            sweep(r, spec, protocol)
    with r.unit("corpus report"):
        report(r, specs)


@dataclass(frozen=True)
class Workload:
    docs: Callable[[int], list[dict]]  # seed -> spec documents
    run: Callable[[Round, list[Spec]], None]


WORKLOADS = {
    "generate_deep": Workload(
        lambda seed: [specgen.generate(f"deep{n}", replace(DEEP, steps=n), seed)
                      for n in LADDER],
        run_generate_deep),
    "verify_deep": Workload(
        lambda seed: [specgen.generate("long", LONG, seed)],
        run_verify_deep),
    "sweep_corpus": Workload(
        lambda seed: [specgen.generate(f"small{i}", SMALL, seed)
                      for i in range(CORPUS)],
        run_sweep_corpus),
}

"""Per-stage time ladder over growing generate_deep-shaped pipelines.

    python3 scripts/stage_ladder.py --label change --out BENCH.json
    python3 scripts/stage_ladder.py --label parent --out BENCH.json --src ../parent/src

Generates one pipeline per size N in ``SIZES`` with the benchmark's
``generate_deep`` shape (``perfbench/workloads.DEEP``, seed 0), runs every
stage of ``pipeforge generate`` on it and records the best of three wall
times per stage (``load_spec`` reads and schema-checks the document from a
temporary file; ``copy`` is one ``SyncGraph.copy()`` of the built graph),
plus the zone, slot and cell counts and the storage bits
(``perfbench/oracle.storage_bits`` of the Verilog) of the direct-resolved
raw netlist under ``direct_auto()``, the policy of the ROADMAP baseline.
``lower_p2p`` and ``emit_verilog_p2p``, and ``lower_exhaustive`` and
``emit_verilog_exhaustive``, time the same two stages on the p2p- and the
exhaustive-resolved raw netlist under that policy, the latter the largest
netlist of the rung.  ``netlist_rule`` and ``netlist_rule_exhaustive`` time
re-constructing the direct and the exhaustive netlist from their fields
(``dataclasses.replace``), which applies the netlist's rule once; on a
checkout whose netlist is checked by a ``check()`` call instead, they time
a plain copy.  ``output_terms_exhaustive`` times one
``terms.output_terms`` of the exhaustive netlist into a fresh table, the
walk a description check of every generated netlist would add at scale.
``measured_latency`` times the direct
netlist, ``check_equivalence`` compares it with the p2p-resolved raw
netlist under the same policy,
``check_equivalence_exhaustive`` with the exhaustive-resolved one, and
``check_equivalence_ready_valid`` with the p2p-resolved one lowered
ready/valid.  ``simulate_fifo`` and ``simulate_fifo_ready_valid`` time one
``simulate`` of ``SIM_CYCLES`` cycles of the direct-resolved netlist
lowered under ``direct_fifo(2, 1)``, raw and ready/valid, on inputs seeded
by the rung (the sink ready half the time under ready/valid).
``simulate_ready_valid`` times the same of the direct-resolved netlist
lowered ready/valid under ``direct_auto()``, which has no FIFO, so the
cost of its stalled cycles shows apart from any FIFO's.
``simulate_corpus`` times one ``simulate`` of ``SIM_CYCLES`` cycles, on
the same inputs, of the direct-resolved raw netlist under ``direct_auto()``
of an N-step pipeline with ``sweep_corpus``'s shape
(``perfbench/workloads.SMALL``, seed 0), whose steps widen their operands
by ``cat`` of one part repeated.
Each run appends its rows to ``--out`` under ``--label``, so alternating
runs of two checkouts all land in one file, and rewrites the file's
``summary``: per label, size and stage, the median, min and max seconds
over that label's runs.  ``--src`` names the pipeforge
source tree to import (default: this checkout's ``src``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3
SIZES = (100, 200, 400, 800)
SIM_CYCLES = 200


def best_of(fn, *args):
    best = None
    for _ in range(REPEATS):
        out = None  # the last result is freed before the next run is timed
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return out, best


def stimulus(pf, netlist, n: int):
    """``SIM_CYCLES`` cycles of inputs seeded by ``n``."""
    rng = random.Random(n)
    ins, _ = netlist.data_ports()
    inputs = [{p: rng.randrange(1 << w) for p, w in ins}
              for _ in range(SIM_CYCLES)]
    ready = None
    if netlist.protocol is pf.Protocol.READY_VALID:
        ready = [int(rng.random() < 0.5) for _ in range(SIM_CYCLES)]
    return pf.Stimulus(SIM_CYCLES, inputs, ready)


def rung(pf, specgen, oracle, shape, corpus, n: int) -> dict:
    doc = specgen.generate(f"deep{n}", replace(shape, steps=n), 0)
    policy = pf.direct_auto()
    secs = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        _, secs["load_spec"] = best_of(pf.load_spec, path)
    g, secs["graph_from_spec"] = best_of(pf.graph_from_spec, doc)
    _, secs["copy"] = best_of(g.copy)
    b, secs["balance_merges"] = best_of(pf.balance_merges, g)
    _, secs["missing_relations"] = best_of(b.missing_relations)
    d, secs["resolve_direct"] = best_of(pf.resolve_direct_backward, b, policy)
    p, secs["resolve_p2p"] = best_of(pf.resolve_p2p_backward, b)
    x, secs["resolve_exhaustive"] = best_of(pf.resolve_exhaustive_forward, b)
    _, secs["validate"] = best_of(pf.validate, d)
    plan, secs["apply_protocol"] = best_of(pf.apply_protocol, d, pf.Protocol.RAW)
    nl, secs["lower"] = best_of(pf.lower, d, plan, policy)
    verilog, secs["emit_verilog"] = best_of(pf.emit_verilog, nl)
    p2p, secs["lower_p2p"] = best_of(
        pf.lower, p, pf.apply_protocol(p, pf.Protocol.RAW), policy)
    _, secs["emit_verilog_p2p"] = best_of(pf.emit_verilog, p2p)
    exhaustive, secs["lower_exhaustive"] = best_of(
        pf.lower, x, pf.apply_protocol(x, pf.Protocol.RAW), policy)
    _, secs["emit_verilog_exhaustive"] = best_of(pf.emit_verilog, exhaustive)
    _, secs["netlist_rule"] = best_of(replace, nl)
    _, secs["netlist_rule_exhaustive"] = best_of(replace, exhaustive)
    from pipeforge.terms import output_terms  # the checker's own, unexported
    terms, secs["output_terms_exhaustive"] = best_of(
        lambda: output_terms(exhaustive, {}))
    if terms is None:
        raise SystemExit(f"N={n}: the exhaustive netlist's terms do not decide")
    _, secs["emit_dot"] = best_of(pf.emit_dot, b)
    _, secs["measured_latency"] = best_of(pf.measured_latency, nl)
    verdict, secs["check_equivalence"] = best_of(pf.check_equivalence, nl, p2p)
    if not verdict.ok:
        raise SystemExit(f"N={n}: direct and p2p differ: {verdict.detail}")
    verdict, secs["check_equivalence_exhaustive"] = best_of(
        pf.check_equivalence, nl, exhaustive)
    if not verdict.ok:
        raise SystemExit(f"N={n}: direct and exhaustive differ: {verdict.detail}")
    rv = pf.lower(p, pf.apply_protocol(p, pf.Protocol.READY_VALID), policy)
    verdict, secs["check_equivalence_ready_valid"] = best_of(
        pf.check_equivalence, nl, rv)
    if not verdict.ok:
        raise SystemExit(f"N={n}: direct and ready/valid p2p differ: "
                         f"{verdict.detail}")
    for protocol, stage in ((pf.Protocol.RAW, "simulate_fifo"),
                            (pf.Protocol.READY_VALID,
                             "simulate_fifo_ready_valid")):
        fifo = pf.lower(d, pf.apply_protocol(d, protocol), pf.direct_fifo(2, 1))
        _, secs[stage] = best_of(pf.simulate, fifo, stimulus(pf, fifo, n))
    stalled = pf.lower(d, pf.apply_protocol(d, pf.Protocol.READY_VALID), policy)
    _, secs["simulate_ready_valid"] = best_of(pf.simulate, stalled,
                                              stimulus(pf, stalled, n))
    small = pf.resolve_direct_backward(pf.balance_merges(pf.graph_from_spec(
        specgen.generate(f"small{n}", replace(corpus, steps=n), 0))), policy)
    small = pf.lower(small, pf.apply_protocol(small, pf.Protocol.RAW), policy)
    _, secs["simulate_corpus"] = best_of(pf.simulate, small,
                                         stimulus(pf, small, n))
    counts = {
        "zones": len(d.zones),
        "slots": sum(len(z.slots) for z in d.zones.values()),
        "cells": len(nl.cells),
        **dict(zip(("reg_bits", "srl_bits", "fifo_bits"),
                   oracle.storage_bits(verilog))),
    }
    return {"n": n, "seconds": {k: round(v, 5) for k, v in secs.items()},
            "counts": counts}


def summary(rows: list[dict]) -> dict:
    """``{label: {n: {stage: {"median", "min", "max"}}}}`` over ``rows``."""
    runs: dict = {}
    for row in rows:
        for stage, secs in row["seconds"].items():
            runs.setdefault(row["label"], {}).setdefault(
                str(row["n"]), {}).setdefault(stage, []).append(secs)
    return {label: {n: {stage: {"median": statistics.median(secs),
                                "min": min(secs), "max": max(secs)}
                        for stage, secs in stages.items()}
                    for n, stages in sizes.items()}
            for label, sizes in runs.items()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    import pipeforge as pf
    import oracle
    import specgen
    from workloads import DEEP, SMALL

    rows = []
    for n in SIZES:
        row = {"label": args.label,
               **rung(pf, specgen, oracle, DEEP, SMALL, n)}
        print(json.dumps(row), flush=True)
        rows.append(row)

    bench = {"rows": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            bench = json.load(fh)
    bench["what"] = (f"best of {REPEATS} wall seconds per stage, seed-0 "
                     "generate_deep-shaped pipelines of N steps "
                     "(simulate_corpus: sweep_corpus-shaped)")
    bench["hardware"] = {"machine": platform.machine(),
                         "processor": cpu_model(),
                         "cpus": os.cpu_count(),
                         "python": platform.python_version()}
    bench["rows"] += rows
    bench["summary"] = summary(bench["rows"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""pipeforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a pipeforge checkout; pipeforge is imported from its
``src`` directory.  The run writes the workload's seeded spec files under
``.perfbench-work/``, then repeats rounds of the workload's jobs (see
workloads.py) until ``--seconds`` have passed.  The first round is a warm-up
whose outputs are checked.  The end-to-end times sum each job's median over
the later rounds, in reference-speed seconds (see recorder.py).  With
``--trace 1`` the later rounds alternate between untraced and traced, and
the metrics are per layer.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  README.md lists
the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import specgen
from recorder import LAYERS, Recorder, slowness, summarise

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
NAMES = ("generate_deep", "verify_deep", "sweep_corpus")
PHASES = ("generate", "verify")
# set-up runs in fresh processes, so that importing pipeforge is measured
SETUP_REPEATS = 7
WARMUP_ROUNDS = 1
MIN_TIMED_ROUNDS = 3

END_TO_END = {  # name -> unit
    "setup_s": "s", "generate_s": "s", "verify_s": "s",
    "sim_cycles_per_s": "cycles/s", "peak_rss_mb": "MB",
    "reg_bits": "bits", "srl_bits": "bits", "fifo_bits": "bits",
}
LAYER_TIMES = (  # functions every workload calls, so never zero
    "specfile.load_spec", "specfile.graph_from_spec", "model.missing_relations",
    "resolve.balance_merges", "resolve.resolve_direct", "resolve.validate",
    "protocol.apply_protocol", "netlist.lower", "verilog.emit_verilog",
    "dot.emit_dot", "sim.simulate")
LAYER_CALLS = (  # functions some workloads do not call: counted, not timed
    "resolve.validate", "resolve.resolve_p2p", "resolve.resolve_exhaustive",
    "resolve.sweep_thresholds", "sim.measured_latency", "sim.check_equivalence")
LAYER_COUNTS = (
    "model.zones", "model.relations", "model.missing_relations",
    "resolve.propagated_slots_direct", "resolve.propagated_slots_p2p",
    "resolve.propagated_slots_exhaustive", "netlist.cells", "verilog.bytes",
    "sim.simulated_cycles", "sim.equivalence_ok",
    "sweep.candidates", "sweep.variants", "sweep.distinct_variants")


def import_pipeforge():
    src = ROOT / "src"
    if not (src / "pipeforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pipeforge sources in {src}; "
                         "run from the root of a pipeforge checkout")
    sys.path.insert(0, str(src))
    import pipeforge
    if Path(pipeforge.__file__).resolve().parent != src / "pipeforge":
        raise SystemExit(f"perfbench: imported {pipeforge.__file__}, "
                         f"not the checkout's {src / 'pipeforge'}")


def write_specs(workload: str, seed: int):
    """Write the workload's spec files; with importing pipeforge, the set-up."""
    from workloads import WORKLOADS, Spec
    directory = WORK / f"{workload}-{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    return [Spec(doc, specgen.write(doc, str(directory)), oracle.spec_depth(doc))
            for doc in WORKLOADS[workload].docs(seed)]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes, in reference-speed seconds.  No
    timeout: waiting with one polls every 50 ms, which would round the
    times."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = slowness()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-only",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, check=True)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * 2 / (before + slowness()))
    return times


def run_rounds(workload: str, specs, seed: int, seconds: float, trace: bool):
    from workloads import WORKLOADS, Outcome, Round
    outcome = Outcome()
    rounds = []  # (Round, traced)
    reference = None
    start = time.perf_counter()
    while True:
        timed = len(rounds) - WARMUP_ROUNDS
        if timed >= MIN_TIMED_ROUNDS and time.perf_counter() - start >= seconds:
            break
        traced = trace and timed >= 0 and timed % 2 == 1
        gc.collect()
        r = Round(Recorder(spans=traced), outcome, seed, checking=not rounds)
        WORKLOADS[workload].run(r, specs)
        if reference is None:
            reference = r.digests
        elif r.digests != reference:
            outcome.check(False, f"round {len(rounds)}: outputs differ from "
                                 "the first round's")
        rounds.append((r, traced))
    return outcome, rounds


def median(values):
    return statistics.median(values) if values else 0.0


def median_sum(rounds, phase: str, suffix: str = "", field: str = "job_s"):
    """Sum over the phase's jobs (those whose id ends with ``suffix``) of
    each job's median time over the rounds."""
    times = [{k: v for k, v in getattr(r.rec, field).items()
              if k[0] == phase and k[1].endswith(suffix)} for r in rounds]
    keys = set().union(*times)
    return sum(median([t.get(k, 0.0) for t in times]) for k in keys)


def end_to_end(rounds, setup: list[float]) -> dict[str, float]:
    first = rounds[0][0]
    timed = [r for r, _ in rounds[WARMUP_ROUNDS:]]
    return {
        "setup_s": median(setup),
        "generate_s": median_sum(timed, "generate"),
        "verify_s": median_sum(timed, "verify"),
        "sim_cycles_per_s": first.counts["sim.simulated_cycles"]
        / median_sum(timed, "verify", "/simulate"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reg_bits": first.counts["reg_bits"],
        "srl_bits": first.counts["srl_bits"],
        "fifo_bits": first.counts["fifo_bits"],
    }


def per_layer(rounds) -> dict[str, float]:
    traced = [summarise(r.rec.spans) for r, t in rounds if t]
    keys = sorted({k for s in traced for k in s})
    layers = {k: median([s.get(k, 0) for s in traced]) for k in keys}
    untraced = [r for r, t in rounds[WARMUP_ROUNDS:] if not t]
    layers["trace.overhead_s"] = sum(
        median_sum([r for r, t in rounds if t], phase)
        - median_sum(untraced, phase) for phase in PHASES)
    layers["trace.spans"] = median([len(r.rec.spans) for r, t in rounds if t])
    counts = rounds[0][0].counts
    for k in LAYER_COUNTS:
        layers[k] = counts[k]
    return layers


def layer_metrics(layers: dict[str, float]) -> dict[str, dict]:
    out = {}
    for layer in LAYERS:
        for key, unit in (("busy_s", "s"), ("self_s", "s"), ("calls", "count")):
            out[f"{layer}.{key}"] = (layers.get(f"{layer}.{key}", 0), unit)
    for name in LAYER_TIMES:
        out[f"{name}_s"] = (layers.get(f"{name}_s", 0), "s")
    for name in LAYER_CALLS:
        out[f"{name}_calls"] = (layers.get(f"{name}_calls", 0), "count")
    for name in LAYER_COUNTS:
        out[name] = (layers[name], "count")
    out["trace.overhead_s"] = (layers["trace.overhead_s"], "s")
    out["trace.spans"] = (layers["trace.spans"], "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def phase_s(r, phase: str) -> float:
    return sum(v for (p, _), v in r.rec.raw_s.items() if p == phase)


def report(args, outcome, rounds, metrics, layers) -> None:
    first = rounds[0][0]
    timed = [r for r, _ in rounds[WARMUP_ROUNDS:]]
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds "
          f"({WARMUP_ROUNDS} warm-up), {first.counts['designs']} designs per "
          f"round")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for phase in PHASES:
        times = " ".join(f"{phase_s(r, phase):.3f}{'t' if t else ''}"
                         for r, t in rounds)
        print(f"  {phase} host seconds by round (t: traced): {times}; "
              "unscaled median sum "
              f"{median_sum(timed, phase, field='raw_s'):.4f}")
    failed = len(outcome.failures)
    print(f"  {'fail_ratio':<40} {failed}/{outcome.attempted} = "
          f"{failed / outcome.attempted:.4f} ({outcome.known} known "
          "ready/valid false divergences, see README.md)")
    for f in outcome.failures:
        print(f"    failed: {f}")
    if layers:
        print("  spans by layer and function (median over traced rounds):")
        for key in sorted(k for k in layers if k.endswith("_s")):
            print(f"    {key:<38} {layers[key]:>12.6f} s")


def run_all(args) -> int:
    status = 0
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, timeout=900)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="write the spec files and exit (set-up timing)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_pipeforge()
    if args.setup_only:
        write_specs(args.workload, args.seed)
        return 0
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    specs = write_specs(args.workload, args.seed)
    outcome, rounds = run_rounds(args.workload, specs, args.seed, args.seconds,
                                 bool(args.trace))
    layers = per_layer(rounds) if args.trace else {}
    if args.trace:
        metrics = layer_metrics(layers)
        spans = [s for r, t in rounds if t for s in r.rec.spans]
        out = WORK / f"spans-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps({"layers": layers, "spans": spans}) + "\n")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(rounds, setup).items()}
    report(args, outcome, rounds, metrics, layers)
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": len(outcome.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

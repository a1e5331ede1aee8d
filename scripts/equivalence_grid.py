"""Digests of the simulator and the equivalence checker over a grid of designs.

    python3 scripts/equivalence_grid.py
    python3 scripts/equivalence_grid.py --src ../parent/src

The grid is the four valid ``tests/data`` specs plus every benchmark
workload's spec documents (``perfbench/workloads.WORKLOADS``) at seeds 0, 1
and 7.  Each spec is resolved direct, p2p and exhaustive and lowered raw and
ready/valid under ``direct_auto``, ``direct_force_reg``,
``direct_force_srl``, ``direct_fifo(2, 1)`` and ``direct_fifo(4, 8)``: 30
designs per spec.  Four SHA-256 digests are printed:

- ``simulate``: every design's ``simulate`` trace (samples, accepted inputs
  and outputs) over twice its planned latency plus 40 cycles of a stimulus
  seeded by the design's name, with the sink ready half the time under
  ready/valid;
- ``watched``: the same trace with every FIFO's and startup counter's nets
  watched (data, enables, flags and counts), so flag values are pinned too;
- ``equivalence``: every design's ``check_equivalence`` verdict against its
  spec's direct raw ``direct_auto`` design, and ``measured_latency`` of
  every raw design;
- ``simulated``: every design's verdict from the simulated oracle of
  ``check_equivalence`` (``sim._equivalence``, 2 trials of 200 cycles at
  seed 0) against the same baseline, forced where the timed terms would
  decide and skip it.

An exception counts as the design's result, by its type and message, so two
checkouts that raise differently print different digests.  ``--show``
prints each design's records as well, for a ``diff`` of two runs.
``--src`` names the pipeforge source tree to import (default: this
checkout's ``src``).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_SPECS = ("nested_expr", "passthrough", "running", "running_delay2")
SEEDS = (0, 1, 7)


def outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - an error is a result too
        return f"{type(exc).__name__}: {exc}"


def specs(pf, workloads):
    """``(name, spec document)`` for every spec of the grid."""
    for name in DATA_SPECS:
        yield name, pf.load_spec(os.path.join(ROOT, "tests", "data",
                                              f"{name}.json"))
    for workload, w in workloads.WORKLOADS.items():
        for seed in SEEDS:
            for doc in w.docs(seed):
                yield f"{workload}/{seed}/{doc['name']}", doc


def trace_of(pf, netlist, latency: int, name: str, watch=()) -> str:
    """The SHA-1 of ``netlist``'s trace over ``2 * latency + 40`` cycles,
    with ``watch`` watched."""
    rng = random.Random(name)
    ins, _ = netlist.data_ports()
    cycles = 2 * latency + 40
    inputs = [{p: rng.randrange(1 << w) for p, w in ins} for _ in range(cycles)]
    ready = None
    if netlist.protocol is pf.Protocol.READY_VALID:
        ready = [int(rng.random() < 0.5) for _ in range(cycles)]
    trace = pf.simulate(netlist, pf.Stimulus(cycles, inputs, ready,
                                             watch=tuple(watch)))
    return hashlib.sha1(repr((trace.samples, trace.accepted_inputs,
                              trace.accepted_outputs)).encode()).hexdigest()


def state_nets(netlist):
    """Every net of every FIFO and startup counter, once each."""
    nets = [n for c in netlist.fifos
            for n in (c.inp, c.out, c.write_en, c.read_en, c.full, c.empty)]
    nets += [n for c in netlist.counters for n in (c.count, c.zero)]
    return dict.fromkeys(nets)


def simulated(pf, base, netlist):
    """The simulated verdict on ``netlist`` against ``base``, the compiled
    baseline and its stream latency."""
    return pf.sim._equivalence(*base, pf.sim._Compiled(netlist), 2, 0, 200)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--show", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    import pipeforge as pf
    import workloads

    policies = {"auto": pf.direct_auto(), "force_reg": pf.direct_force_reg(),
                "force_srl": pf.direct_force_srl(),
                "fifo_2_1": pf.direct_fifo(2, 1),
                "fifo_4_8": pf.direct_fifo(4, 8)}
    resolvers = {"direct": pf.resolve_direct_backward,
                 "p2p": pf.resolve_p2p_backward,
                 "exhaustive": pf.resolve_exhaustive_forward}
    digests = {kind: hashlib.sha256()
               for kind in ("simulate", "watched", "equivalence",
                            "simulated")}
    designs = 0
    for spec, doc in specs(pf, workloads):
        balanced = pf.balance_merges(pf.graph_from_spec(doc))
        base = oracle = None
        for strategy, resolver in resolvers.items():
            resolved = resolver(balanced)
            for protocol in pf.Protocol:
                plan = pf.apply_protocol(resolved, protocol)
                for policy_name, policy in policies.items():
                    name = f"{spec}/{strategy}/{protocol.value}/{policy_name}"
                    netlist = pf.lower(resolved, plan, policy)
                    if base is None:  # direct, raw, direct_auto
                        base = netlist
                        sim = pf.sim._Compiled(base)
                        oracle = sim, pf.sim._stream_latency(sim, 0)
                    records = {"simulate": outcome(
                        trace_of, pf, netlist, plan.total_latency, name)}
                    records["watched"] = outcome(
                        trace_of, pf, netlist, plan.total_latency, name,
                        state_nets(netlist))
                    records["equivalence"] = outcome(
                        pf.check_equivalence, base, netlist)
                    if protocol is pf.Protocol.RAW:
                        records["equivalence"] += " latency " + outcome(
                            pf.measured_latency, netlist)
                    records["simulated"] = outcome(
                        simulated, pf, oracle, netlist)
                    for kind, record in records.items():
                        digests[kind].update(f"{name}\t{record}\n".encode())
                        if args.show:
                            print(f"{kind}\t{name}\t{record}")
                    designs += 1
    print(f"designs: {designs}")
    for kind, digest in digests.items():
        print(f"{kind}: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end acceptance checks, one per guaranteed property.

Each test prints a single PASS/FAIL line on the real stdout so the verdicts
survive pytest's capture."""

import contextlib
import json
import sys
import time

import pipeforge as pf
from pipeforge.cli import main as cli_main
from pipeforge.expr import BinOp, Ref
from pipeforge.verilog import NO_EXTRACT_ATTR

from conftest import (
    brute_force_path_sums,
    build_running,
    data_path,
    implemented_latency,
)


@contextlib.contextmanager
def verdict(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:2d}] FAIL  {title}", file=sys.__stdout__)
        raise
    print(f"[acceptance {num:2d}] PASS  {title}", file=sys.__stdout__)


def _balanced(xor_delay=0, with_e=False):
    return pf.balance_merges(build_running(xor_delay, with_e))


def test_01_running_example_fidelity():
    with verdict(1, "running example order and total latency"):
        g = build_running()
        assert g.forward_order() == ["_init_", "mul", "addA", "addB",
                                     "merged_mul_mul", "xor"]
        wire = _balanced()
        assert wire.depths()["xor"] == 2
        delay = _balanced(xor_delay=2)
        assert delay.depths()["xor"] == 4


def test_02_direct_resolution_latency():
    with verdict(2, "direct resolution creates one latency-2 feed"):
        g = pf.resolve_direct_backward(_balanced(with_e=True))
        feeds = [(r.source, r.sink, r.latency) for r in g.relations
                 if r.kind is pf.RelationKind.DIRECT and "e" in r.signals]
        assert feeds == [("_init_", "xor", 2)]
        for z in ("addA", "addB", "merged_mul_mul"):
            assert "e" not in g.zones[z].slots


def test_03_algorithm_containment(random_corpus):
    with verdict(3, "direct <= peer-to-peer <= exhaustive on 200 pipelines"):
        assert len(random_corpus) >= 200
        for g in random_corpus:
            b = pf.balance_merges(g)
            ex = pf.resolve_exhaustive_forward(b)
            pp = pf.resolve_p2p_backward(b)
            dr = pf.resolve_direct_backward(b)
            for r in (ex, pp, dr):
                assert pf.validate(r).ok, (g.name, pf.validate(r).failures())
            for z in b.zones:
                direct = set(dr.zones[z].slots)
                p2p = set(pp.zones[z].slots)
                exhaustive = set(ex.zones[z].slots)
                assert direct <= p2p <= exhaustive, (g.name, z)


def test_04_latency_preservation(random_corpus):
    with verdict(4, "implemented latency equals equivalent latency"):
        for g in random_corpus:
            b = pf.balance_merges(g)
            depth = {z: (brute_force_path_sums(b, "_init_", z) or [0])[0]
                     for z in b.zones}
            for resolver in (pf.resolve_exhaustive_forward,
                             pf.resolve_p2p_backward,
                             pf.resolve_direct_backward):
                r = resolver(b)
                for z, zone in r.zones.items():
                    for sig, slot in zone.slots.items():
                        if slot.status is not pf.SignalStatus.PROPAGATED:
                            continue
                        decl = depth[r.decls[sig].declaring_zone]
                        got = decl + implemented_latency(r, z, sig)
                        assert got == depth[z], (g.name, z, sig)


def test_05_decision_table_conformance():
    with verdict(5, "select_primitive matches the decision table (< 10 s)"):
        t0 = time.time()
        INF = pf.INFINITE
        wrange = range(1, 513)
        for d_thr in list(range(2, 10)) + [INF]:
            for w_thr in list(range(1, 65)) + [INF]:
                pol = pf.PrimitivePolicy(d_thr, w_thr)
                wi = 513 if w_thr == INF else int(w_thr)
                for latency in range(0, 65):
                    if latency == 0:
                        exp = ["wire"] * 512
                    elif latency >= d_thr:  # every d_thr is >= 2
                        exp = ["register"] * (wi - 1) + ["fifo"] * (513 - wi)
                    else:
                        exp = ["register"] * 512
                    got = [pf.select_primitive(latency, w, pol)
                           for w in wrange]
                    assert got == exp, (d_thr, w_thr, latency)
        assert time.time() - t0 < 10


def test_06_strategy_equivalence_by_simulation():
    with verdict(6, "all strategy/policy/protocol lowerings are equivalent"):
        total_cycles = 0
        seed = 0
        for xor_delay in (0, 2):
            b = _balanced(xor_delay, with_e=True)
            base_r = pf.resolve_direct_backward(b)
            baseline = pf.lower(
                base_r, pf.apply_protocol(base_r, pf.Protocol.RAW))
            policies = [pf.PrimitivePolicy(d, w)
                        for d, w in pf.sweep_thresholds(b)]
            for resolver in (pf.resolve_exhaustive_forward,
                             pf.resolve_p2p_backward,
                             pf.resolve_direct_backward):
                r = resolver(b)
                for pol in policies:
                    for proto in (pf.Protocol.RAW, pf.Protocol.READY_VALID):
                        nl = pf.lower(r, pf.apply_protocol(r, proto), pol)
                        seed += 1
                        v = pf.check_equivalence(baseline, nl, trials=1,
                                                 seed=seed, cycles=300)
                        assert v.ok, (xor_delay, resolver.__name__,
                                      pol, proto, v.detail)
                        total_cycles += 300
        assert total_cycles >= 10_000


def test_07_fifo_constant_latency():
    with verdict(7, "FIFO delay is constant and counter-driven"):
        g = pf.resolve_direct_backward(_balanced(xor_delay=2, with_e=True))
        nl = pf.lower(g, pf.apply_protocol(g, pf.Protocol.RAW),
                      pf.direct_fifo(3, 3))
        assert nl.cell_counts()["fifo"] == 1
        assert pf.measured_latency(nl) == 4
        counter = next(n for n in nl.nets if n.endswith("__read_start"))
        trace = pf.simulate(nl, pf.Stimulus(cycles=10, watch=(counter,)))
        vals = [s[counter] for s in trace.samples]
        assert vals[1:5] == [3, 2, 1, 0]  # decremented each cycle to zero
        assert set(vals[5:]) == {0}


def _table_pipeline():
    """One missing relation per occurrence of the reference depth/width
    distribution: (4,64)x97 (5,1)x194 (6,1)x45 (6,12) (6,264) (8,6)x6
    (8,12)x90 (8,62)x96 (8,132)x6 (8,246)x51 (8,264)x45 (419,1)."""
    dist = [(4, [(64, 97)]),
            (5, [(1, 194)]),
            (6, [(1, 45), (12, 1), (264, 1)]),
            (8, [(6, 6), (12, 90), (62, 96), (132, 6), (246, 51), (264, 45)]),
            (419, [(1, 1)])]
    sigs = {d: [(f"g{d}_{w}_{i}", w) for w, cnt in rows for i in range(cnt)]
            for d, rows in dist}
    inputs = [("seed", 8)] + [s for d in sigs for s in sigs[d]]
    b = pf.pipe_new(inputs, "table")
    depths = [d for d, _ in dist]
    prev_sig, prev_depth = "seed", 0
    b.add_step(b.main, pf.StepBody.delay(
        "lead", depths[0], [("t0", 8, Ref(prev_sig))]))
    prev_sig = "t0"
    widths = dict(inputs)
    widths["t0"] = 8
    for i, d in enumerate(depths):
        # this step's reads resolve at the previous zone, whose depth is d
        # balanced fold keeps expression nesting logarithmic
        terms = [Ref(prev_sig)] + [Ref(name) for name, _ in sigs[d]]
        while len(terms) > 1:
            terms = [BinOp("xor", a, b) for a, b in zip(terms[::2], terms[1::2])] \
                + ([terms[-1]] if len(terms) % 2 else [])
        expr = terms[0]
        hop = depths[i + 1] - d if i + 1 < len(depths) else 0
        w = expr.width(widths)
        widths[f"t{i + 1}"] = w
        body = pf.StepBody(f"use{d}", hop, ((f"t{i + 1}", w, expr),))
        b.add_step(b.main, body)
        prev_sig = f"t{i + 1}"
    b.drive_output([("o", prev_sig)])
    return pf.balance_merges(b.build())


def test_08_sweep_cardinality():
    with verdict(8, "reference distribution yields 22 sweep candidates"):
        g = _table_pipeline()
        got = sorted(
            ((m.depth, m.width) for m in g.missing_relations()))
        expected = sorted(
            [(4, 64)] * 97 + [(5, 1)] * 194 + [(6, 1)] * 45 + [(6, 12)]
            + [(6, 264)] + [(8, 6)] * 6 + [(8, 12)] * 90 + [(8, 62)] * 96
            + [(8, 132)] * 6 + [(8, 246)] * 51 + [(8, 264)] * 45 + [(419, 1)])
        assert got == expected
        cands = pf.sweep_thresholds(g)
        assert cands[-1] == (pf.INFINITE, pf.INFINITE)
        assert len(cands) - 1 == 22


def test_09_emission_determinism_and_attribute(tmp_path):
    with verdict(9, "byte-identical emission, no-extract attribute present"):
        def emit(policy, attr=pf.ShregAttr.NONE, protocol=pf.Protocol.RAW):
            g = pf.resolve_direct_backward(_balanced(xor_delay=2, with_e=True))
            nl = pf.lower(g, pf.apply_protocol(g, protocol), policy)
            return pf.emit_verilog(nl, pf.EmitOptions(shreg_attr=attr))

        auto = emit(pf.direct_auto())
        assert auto == emit(pf.direct_auto())
        forced = emit(pf.direct_force_reg(), pf.ShregAttr.NO_EXTRACT)
        assert forced == emit(pf.direct_force_reg(), pf.ShregAttr.NO_EXTRACT)
        assert NO_EXTRACT_ATTR in forced
        assert '(* shreg_extract = "no" *)' in forced
        assert NO_EXTRACT_ATTR not in auto
        # together these pin the no-extract attribute, the SRL helper, the
        # FIFO startup counter and the ready/valid valid chain
        goldens = {
            "golden_direct_auto.v": auto,
            "golden_direct_force_reg_no_extract.v": forced,
            "golden_direct_force_srl_explicit.v": emit(
                pf.direct_force_srl(), pf.ShregAttr.EXPLICIT_SRL),
            "golden_direct_fifo_3_3.v": emit(pf.direct_fifo(3, 3)),
            "golden_direct_auto_ready_valid.v": emit(
                pf.direct_auto(), protocol=pf.Protocol.READY_VALID),
        }
        for name, text in goldens.items():
            with open(data_path(name), encoding="utf-8") as fh:
                assert text == fh.read(), name


def _enumerate_missing(graph):
    """Independent (depth, width) enumeration on a balanced graph.

    Rebuilds per-zone availability from first principles: the input zone
    holds the inputs, a step zone holds its defines, a merge zone carries
    the union of its inbound tips.  A by-name read (step body or output
    mapping) not satisfied where it resolves is missing, with depth equal
    to the structural-path distance from the deepest zone holding it."""
    order = graph.forward_order()
    preds = {z: [r.source for r in graph.relations
                 if r.structural and r.sink == z] for z in graph.zones}
    depth = {z: (brute_force_path_sums(graph, "_init_", z) or [0])[0]
             for z in graph.zones}
    ancestors = {"_init_": set()}
    for z in order[1:]:
        acc = set()
        for p in preds[z]:
            acc |= ancestors[p] | {p}
        ancestors[z] = acc
    held = {"_init_": set(graph.zones["_init_"].slots)}
    for z in order[1:]:
        step = graph.steps.get(z)
        if step is not None:
            held[z] = {sig for sig, _, _ in step.defines}
        else:
            held[z] = set().union(*(held[p] for p in preds[z]))

    groups = {}

    def record(sig, at_zone):
        if sig in held[at_zone]:
            return
        best = max((a for a in ancestors[at_zone] if sig in held[a]),
                   key=lambda a: depth[a])
        d = depth[at_zone] - depth[best]
        if d:
            key = (d, graph.decls[sig].width)
            groups[key] = groups.get(key, 0) + 1

    for z, step in graph.steps.items():
        (src,) = preds[z]
        for _, _, expr in step.defines:
            for ref in sorted(expr.refs()):
                record(ref, src)
    for spec in graph.outputs:
        for _, sig in spec.mapping:
            record(sig, spec.zone)
    return groups


def test_10_report_correctness(capsys):
    with verdict(10, "distribution report matches independent enumeration"):
        code = cli_main([
            "report", "a=" + data_path("running.json"),
            "b=" + data_path("running.json"),
            "c=" + data_path("running_delay2.json"),
            "--report-format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        got = {(r["depth"], r["width"]): r["counts"] for r in doc["rows"]}
        # instance multiplicity: the same pipeline passed under two aliases
        # contributes one occurrence per instance
        run = _enumerate_missing(pf.balance_merges(build_running(
            with_e=True)))
        d2 = _enumerate_missing(pf.balance_merges(build_running(
            xor_delay=2, with_e=True)))
        assert run == {(1, 8): 1, (2, 4): 1}
        assert d2 == {(1, 8): 1, (4, 4): 1}
        expected = {}
        for alias, groups in (("a", run), ("b", run), ("c", d2)):
            for key, n in groups.items():
                expected.setdefault(key, {})[alias] = n
        assert got == expected
        for row in doc["rows"]:
            assert row["total"] == sum(row["counts"].values())

"""The resolution properties and simulation equivalence on pipelines ten
and more times the size of the random corpus, generated by the benchmark's
spec generator and checked against its depth oracle."""

from dataclasses import replace

import oracle
import specgen
import workloads

import pipeforge as pf

from conftest import implemented_latency

STRUCTURAL = (pf.RelationKind.STEP, pf.RelationKind.MERGE)


def zone_depths(graph: pf.SyncGraph) -> dict[str, int]:
    """Input-to-zone latency of a balanced graph, read off its relations."""
    structural = [r for r in graph.relations if r.kind in STRUCTURAL]
    depth = {graph.input_zone: 0}
    for _ in graph.zones:  # as many sweeps as the longest path may need
        for r in structural:
            if r.source in depth:
                depth.setdefault(r.sink, depth[r.source] + r.latency)
    assert len(depth) == len(graph.zones)
    assert all(depth[r.sink] == depth[r.source] + r.latency for r in structural)
    return depth


DOC = specgen.generate("deep120", replace(workloads.DEEP, steps=120), 0)


def lowered(graph, protocol=pf.Protocol.RAW, policy=None):
    return pf.lower(graph, pf.apply_protocol(graph, protocol), policy)


def test_properties_on_a_120_step_pipeline():
    balanced = pf.balance_merges(pf.graph_from_spec(DOC))
    depth = zone_depths(balanced)
    assert max(depth[z] for z in balanced.output_zones) == oracle.spec_depth(DOC)

    resolved = [pf.resolve_direct_backward(balanced),
                pf.resolve_p2p_backward(balanced),
                pf.resolve_exhaustive_forward(balanced)]
    for r in resolved:
        assert pf.validate(r).ok, pf.validate(r).failures()
        for z, zone in r.zones.items():
            for sig, slot in zone.slots.items():
                if slot.status is pf.SignalStatus.PROPAGATED:
                    decl = depth[r.decls[sig].declaring_zone]
                    assert decl + implemented_latency(r, z, sig) == depth[z], (z, sig)
    direct, p2p, exhaustive = resolved
    for z in balanced.zones:
        assert (set(direct.zones[z].slots) <= set(p2p.zones[z].slots)
                <= set(exhaustive.zones[z].slots)), z


def test_simulation_equivalence_on_a_120_step_pipeline():
    balanced = pf.balance_merges(pf.graph_from_spec(DOC))
    direct = pf.resolve_direct_backward(balanced)
    base = lowered(direct)
    assert pf.measured_latency(base) == oracle.spec_depth(DOC) == 64
    others = [lowered(pf.resolve_p2p_backward(balanced)),
              lowered(pf.resolve_exhaustive_forward(balanced)),
              lowered(direct, pf.Protocol.READY_VALID),
              lowered(direct, pf.Protocol.READY_VALID, pf.direct_fifo(4, 16))]
    for other in others:
        verdict = pf.check_equivalence(base, other, trials=1, cycles=200)
        assert verdict.ok, (other.protocol, verdict.detail)


def test_direct_and_exhaustive_agree_on_a_400_step_pipeline(monkeypatch):
    # the exhaustive netlist has about 106,000 cells; the simulator compiles
    # only the few thousand that the outputs read, and equivalence compiles
    # nothing, since the terms of the two outputs' cones are equal
    doc = specgen.generate("deep400", replace(workloads.DEEP, steps=400), 0)
    balanced = pf.balance_merges(pf.graph_from_spec(doc))
    direct = lowered(pf.resolve_direct_backward(balanced))
    exhaustive = lowered(pf.resolve_exhaustive_forward(balanced))
    assert pf.measured_latency(exhaustive) == oracle.spec_depth(doc) == 216
    from pipeforge import sim
    monkeypatch.setattr(sim, "_Compiled", None)  # any compile fails
    verdict = pf.check_equivalence(direct, exhaustive)
    assert verdict.ok, verdict.detail


def test_ready_valid_direct_and_p2p_agree_on_a_400_step_pipeline(monkeypatch):
    # under ready/valid the terms decide too, FIFOs included, and so does a
    # raw netlist against a ready/valid one: nothing is compiled
    doc = specgen.generate("deep400", replace(workloads.DEEP, steps=400), 0)
    balanced = pf.balance_merges(pf.graph_from_spec(doc))
    direct = pf.resolve_direct_backward(balanced)
    p2p = pf.resolve_p2p_backward(balanced)
    rv = pf.Protocol.READY_VALID
    pairs = [(lowered(direct, rv), lowered(p2p, rv)),
             (lowered(direct, rv, pf.direct_fifo(4, 16)), lowered(p2p, rv)),
             (lowered(direct), lowered(p2p, rv, pf.direct_fifo(4, 16)))]
    from pipeforge import sim
    monkeypatch.setattr(sim, "_Compiled", None)  # any compile fails
    for a, b in pairs:
        verdict = pf.check_equivalence(a, b)
        assert verdict.ok, (a.protocol, b.protocol, verdict.detail)


def test_direct_and_p2p_agree_on_an_800_step_pipeline():
    doc = specgen.generate("deep800", replace(workloads.DEEP, steps=800), 0)
    balanced = pf.balance_merges(pf.graph_from_spec(doc))
    verdict = pf.check_equivalence(
        lowered(pf.resolve_direct_backward(balanced)),
        lowered(pf.resolve_p2p_backward(balanced)))
    assert verdict.ok, verdict.detail

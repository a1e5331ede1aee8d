"""Randomized cross-checks of the whole flow against independent oracles."""

import random
from collections import Counter

import oracle
import specgen
from hypothesis import given, settings
from hypothesis import strategies as st

import pipeforge as pf
from pipeforge.expr import BinOp, Const, Ref, from_sexpr
from pipeforge.specfile import compile_schema, schema
from pipeforge.terms import output_terms

from conftest import brute_force_path_sums, implemented_latency, pending_count


def _operators(sexpr) -> set[str]:
    if not isinstance(sexpr, list) or sexpr[0] in ("ref", "const"):
        return set()
    return {sexpr[0]}.union(*(_operators(arg) for arg in sexpr[1:]))


def coverage(graphs: list[pf.SyncGraph]) -> Counter:
    """What a corpus exercises, counted per pipeline or over all of it."""
    count: Counter = Counter()
    operators: set[str] = set()
    for g in graphs:
        merges = [z for z in g.zones.values() if z.kind is pf.ZoneKind.MERGE]
        reads = pf.balance_merges(g).missing_relations()
        latencies = [step.latency for step in g.steps.values()]
        inputs = g.zones[g.input_zone].slots
        count.update({
            "pipelines with a merge": bool(merges),
            # a merge zone reads main's tip and each merged branch's
            "pipelines merging >=2 branches at once":
                any(len(z.inbound) >= 3 for z in merges),
            "pipelines with a non-local read": bool(reads),
            "non-local reads": len(reads),
            "non-local reads of depth >=2": sum(r.depth >= 2 for r in reads),
            "multi-cycle steps": sum(lat >= 2 for lat in latencies),
            "pipelines with a multi-cycle step":
                any(lat >= 2 for lat in latencies),
            "pipelines with a wire step": 0 in latencies,
            "pipelines with a pass-through output":
                any(src in inputs for o in g.outputs for _, src in o.mapping)})
        count["max zones"] = max(count["max zones"], len(g.zones))
        for step in g.steps.values():
            for _, _, e in step.defines:
                operators |= _operators(e.to_sexpr())
    count["operators drawn"] = len(operators)
    return count


def test_corpus_keeps_its_coverage_floors(random_corpus):
    # the corpus comes from the benchmark's spec generator; a change there
    # must not shrink what these tests exercise.  The floors are the counts
    # of the generator this corpus replaced, whose 6 operators and 81
    # pass-through outputs fall short; its 71 single-input pipelines have
    # no floor, since specgen always makes three inputs
    floors = {"pipelines with a merge": 92,
              "pipelines merging >=2 branches at once": 25,
              "pipelines with a non-local read": 184, "non-local reads": 1320,
              "non-local reads of depth >=2": 575, "multi-cycle steps": 222,
              "pipelines with a multi-cycle step": 130,
              "pipelines with a wire step": 142,
              "pipelines with a pass-through output": 200, "max zones": 12,
              "operators drawn": 12}
    assert len(random_corpus) == 200
    got = coverage(random_corpus)
    assert {k: got[k] for k in floors if got[k] < floors[k]} == {}


def test_balancing_equalizes_all_paths(random_corpus):
    for g in random_corpus[:60]:
        b = pf.balance_merges(g)
        for z in b.zones:
            sums = brute_force_path_sums(b, "_init_", z)
            assert len(set(sums)) <= 1


def test_resolvers_clear_all_pending(random_corpus):
    for g in random_corpus[:40]:
        b = pf.balance_merges(g)
        for resolver in (pf.resolve_exhaustive_forward,
                         pf.resolve_p2p_backward,
                         pf.resolve_direct_backward):
            r = resolver(b)
            assert pending_count(r) == 0
            assert pf.validate(r).ok


def test_resolved_relations_list_each_signal_once(random_corpus):
    for g in random_corpus:
        b = pf.balance_merges(g)
        for resolver in (pf.resolve_exhaustive_forward,
                         pf.resolve_p2p_backward,
                         pf.resolve_direct_backward):
            for rel in resolver(b).relations:
                assert len(rel.signals) == len(set(rel.signals)), rel


def test_resolution_never_mutates_input(random_corpus):
    g = pf.balance_merges(random_corpus[0])
    before = pending_count(g)
    pf.resolve_direct_backward(g)
    assert pending_count(g) == before


def test_implemented_latency_matches_zone_depth(random_corpus):
    for g in random_corpus[:40]:
        r = pf.resolve_direct_backward(pf.balance_merges(g))
        depths = r.depths()
        for z, zone in r.zones.items():
            for sig, slot in zone.slots.items():
                if slot.status is pf.SignalStatus.PROPAGATED:
                    decl_depth = depths[r.decls[sig].declaring_zone]
                    assert decl_depth + implemented_latency(r, z, sig) \
                        == depths[z], (g.name, z, sig)


def test_simulated_outputs_match_the_oracle(random_specs, random_corpus):
    # oracle evaluates the JSON documents and never imports pipeforge
    rng = random.Random(99)
    for doc, g in zip(random_specs[:25], random_corpus):
        r = pf.resolve_direct_backward(pf.balance_merges(g))
        nl = pf.lower(r, pf.apply_protocol(r, pf.Protocol.RAW))
        inputs = {n: rng.randrange(0, 1 << w) for n, w in nl.inputs}
        lat = max(r.depths()[z] for z in g.output_zones)
        assert lat == oracle.spec_depth(doc), g.name
        trace = pf.simulate(nl, pf.Stimulus(
            cycles=lat + 3, inputs=[inputs] * (lat + 3)))
        expected = oracle.evaluate(doc, inputs)
        sample = trace.samples[-1]
        assert {port: sample[port] for port in expected} == expected, g.name


def test_strategy_equivalence_on_random_sample(random_corpus):
    rng = random.Random(5)
    for g in rng.sample(random_corpus, 8):
        b = pf.balance_merges(g)
        nls = []
        for resolver in (pf.resolve_exhaustive_forward,
                         pf.resolve_p2p_backward,
                         pf.resolve_direct_backward):
            r = resolver(b)
            nls.append(pf.lower(r, pf.apply_protocol(r, pf.Protocol.RAW)))
        for other in nls[1:]:
            assert pf.check_equivalence(nls[0], other, trials=1, cycles=80).ok


def test_sweep_candidates_are_finite_and_unique(random_corpus):
    for g in random_corpus[:40]:
        cands = pf.sweep_thresholds(pf.balance_merges(g))
        assert cands[-1] == (pf.INFINITE, pf.INFINITE)
        assert len(cands) == len(set(cands))


SHAPES = st.builds(
    specgen.Shape,
    steps=st.integers(1, 40), max_branches=st.integers(0, 3),
    lookback=st.integers(1, 16),
    latency_mix=st.lists(st.tuples(st.sampled_from((0, 1, None)),
                                   st.integers(1, 5)),
                         min_size=1, max_size=3,
                         unique_by=lambda pair: pair[0]).map(tuple),
    delay_range=st.integers(2, 5).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo, lo + 3))),
    widths=st.lists(st.integers(1, 16), min_size=1, max_size=3).map(tuple),
    segment=st.integers(1, 4))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(SHAPES, st.integers(0, 999), st.integers(0, 1 << 16))
def test_generated_descriptions_keep_the_guarantees(shape, name, seed):
    # every description specgen writes is in the schema, resolves and
    # validates under all three strategies, nests direct <= p2p <=
    # exhaustive, has the oracle's depth as its measured latency, and
    # lowers to three raw netlists with the same output terms
    doc = specgen.generate(f"f{name}", shape, seed)
    assert compile_schema(schema())(doc) is None
    balanced = pf.balance_merges(pf.graph_from_spec(doc))
    resolved = [resolver(balanced) for resolver in (
        pf.resolve_direct_backward, pf.resolve_p2p_backward,
        pf.resolve_exhaustive_forward)]
    for r in resolved:
        assert pf.validate(r).ok, pf.validate(r).failures()
    direct, p2p, exhaustive = resolved
    for z in balanced.zones:
        assert (set(direct.zones[z].slots) <= set(p2p.zones[z].slots)
                <= set(exhaustive.zones[z].slots)), z
    raw = [pf.lower(r, pf.apply_protocol(r, pf.Protocol.RAW)) for r in resolved]
    assert pf.measured_latency(raw[0]) == oracle.spec_depth(doc)
    cores = {}
    terms = [output_terms(nl, cores) for nl in raw]
    assert terms[0] is not None and terms[0] == terms[1] == terms[2]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_expr_eval_matches_python_semantics(a, b, c):
    w = {"a": 8, "b": 8, "c": 8}
    v = {"a": a, "b": b, "c": c}
    e = BinOp("xor", BinOp("add", Ref("a"), Ref("b")),
              BinOp("mul", Ref("c"), Const(3, 2)))
    assert oracle._eval(e.to_sexpr(), v, w) == (
        ((a + b) & 0xFF) ^ ((c * 3) & 0x3FF)) & 0x3FF


@settings(max_examples=40, deadline=None)
@given(st.recursive(
    st.sampled_from(["a", "b"]),
    lambda kids: st.tuples(st.sampled_from(["add", "xor", "and"]),
                           kids, kids).map(list),
    max_leaves=8))
def test_sexpr_round_trip_random(tree):
    e = from_sexpr(tree)
    assert from_sexpr(e.to_sexpr()) == e

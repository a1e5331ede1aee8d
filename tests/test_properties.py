"""Randomized cross-checks of the whole flow against independent oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipeforge as pf
from pipeforge.expr import BinOp, Const, Ref, from_sexpr

from conftest import (
    brute_force_path_sums,
    golden_eval,
    implemented_latency,
    random_pipeline,
)


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
            assert r.pending_count() == 0
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
    before = g.pending_count()
    pf.resolve_direct_backward(g)
    assert g.pending_count() == before


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


def test_simulated_outputs_match_golden_eval(random_corpus):
    rng = random.Random(99)
    for g in random_corpus[:25]:
        r = pf.resolve_direct_backward(pf.balance_merges(g))
        nl = pf.lower(r, pf.apply_protocol(r, pf.Protocol.RAW))
        inputs = {n: rng.randrange(0, 1 << w) for n, w in nl.inputs}
        lat = max(r.depths()[z] for z in g.output_zones)
        trace = pf.simulate(nl, pf.Stimulus(
            cycles=lat + 3, inputs=[inputs] * (lat + 3)))
        expected = golden_eval(g, inputs)
        sample = trace.samples[-1]
        for port, val in expected.items():
            assert sample[port] == val, (g.name, port)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_expr_eval_matches_python_semantics(a, b, c):
    w = {"a": 8, "b": 8, "c": 8}
    v = {"a": a, "b": b, "c": c}
    e = BinOp("xor", BinOp("add", Ref("a"), Ref("b")),
              BinOp("mul", Ref("c"), Const(3, 2)))
    assert e.eval(v, w) == (((a + b) & 0xFF) ^ ((c * 3) & 0x3FF)) & 0x3FF


@settings(max_examples=40, deadline=None)
@given(st.recursive(
    st.sampled_from(["a", "b"]),
    lambda kids: st.tuples(st.sampled_from(["add", "xor", "and"]),
                           kids, kids).map(list),
    max_leaves=8))
def test_sexpr_round_trip_random(tree):
    e = from_sexpr(tree)
    assert from_sexpr(e.to_sexpr()) == e

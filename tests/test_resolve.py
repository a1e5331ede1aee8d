import math
import random

import pytest

import pipeforge as pf
from pipeforge.expr import BinOp, Ref
from pipeforge.resolve import DistributionRow

from conftest import brute_force_path_sums, build_running, pending_count

INF = math.inf


# -- balancing --------------------------------------------------------------


def test_balance_running_example():
    g = pf.balance_merges(build_running())
    merge_in = g.zones["merged_mul_mul"].inbound
    assert {r.source: r.latency for r in merge_in} == {"mul": 1, "addB": 0}
    assert all(r.latency is not None for r in g.relations if r.structural)


def test_balance_equal_branches():
    b = pf.pipe_new([("x", 8)], "t")
    b1 = b.split("b1")
    b.add_step(b1, pf.StepBody.reg("s1", [("q1", 8, Ref("x"))]))
    b.add_step(b.main, pf.StepBody.reg("s2", [("q2", 8, Ref("x"))]))
    b.merge(b1)
    b.drive_output([("o", "q2")])
    g = pf.balance_merges(b.build())
    assert {r.latency for r in g.zones["merged_b1_s1"].inbound} == {0}


def test_balance_three_way():
    b = pf.pipe_new([("x", 8)], "t")
    b1 = b.split("b1")
    b2 = b.split("b2")
    b.add_step(b1, pf.StepBody.delay("s1", 3, [("q1", 8, Ref("x"))]))
    b.add_step(b2, pf.StepBody.delay("s2", 3, [
        ("q2", 8, BinOp("add", Ref("x"), Ref("x")))]))
    b.add_step(b2, pf.StepBody.delay("s3", 2, [("q3", 8, Ref("q2"))]))
    b.add_step(b.main, pf.StepBody.delay("s4", 3, [("q4", 8, Ref("x"))]))
    b.merge(b1, b2)
    b.drive_output([("o", "q4")])
    g = pf.balance_merges(b.build())
    # path sums {3, 5, 3} -> compensations {2, 0, 2}
    comp = {r.source: r.latency for r in g.zones[g.forward_order()[-1]].inbound}
    assert comp == {"s1": 2, "s3": 0, "s4": 2}


def test_balanced_paths_agree_everywhere():
    g = pf.balance_merges(build_running(xor_delay=2, with_e=True))
    sums = g.path_sums("_init_")
    assert set(sums) == set(g.zones)
    assert all(len(s) == 1 for s in sums.values())


# -- resolution algorithms --------------------------------------------------


@pytest.fixture
def balanced_e():
    return pf.balance_merges(build_running(with_e=True))


def test_exhaustive_propagates_everything(balanced_e):
    g = pf.resolve_exhaustive_forward(balanced_e)
    # every zone holds every signal declared in any ancestor
    assert set(g.zones["addA"].slots) == {"x", "y", "e", "sumXY"}
    assert set(g.zones["addB"].slots) == {"x", "y", "e", "sumXY", "sum2XY"}
    assert set(g.zones["xor"].slots) == set(g.decls)
    assert pending_count(g) == 0
    assert pf.validate(g).ok


def test_exhaustive_linear_chain_monotone():
    b = pf.pipe_new([("x", 8)], "t")
    prev = "x"
    for i in range(3):
        b.add_step(b.main, pf.StepBody.reg(f"s{i}", [(f"q{i}", 8, Ref(prev))]))
        prev = f"q{i}"
    b.drive_output([("o", prev)])
    g = pf.resolve_exhaustive_forward(pf.balance_merges(b.build()))
    counts = [len(g.zones[z].slots) for z in g.forward_order()]
    assert counts == sorted(counts)
    assert counts[-1] == len(g.decls)


def test_p2p_placeholder_path(balanced_e):
    g = pf.resolve_p2p_backward(balanced_e)
    has_e = [z for z in g.forward_order() if "e" in g.zones[z].slots]
    assert has_e == ["_init_", "addA", "addB", "merged_mul_mul", "xor"]
    assert "e" not in g.zones["mul"].slots  # only the designated path
    assert pending_count(g) == 0
    assert pf.validate(g).ok


def test_p2p_local_use_no_placeholders():
    b = pf.pipe_new([("x", 8)], "t")
    b.add_step(b.main, pf.StepBody.reg("a", [("q", 8, Ref("x"))]))
    b.drive_output([("o", "q")])
    g = pf.resolve_p2p_backward(pf.balance_merges(b.build()))
    assert all(s.status is not pf.SignalStatus.PROPAGATED
               for s in g.zones["a"].slots.values())


def test_p2p_placeholder_count_matches_path_length(balanced_e):
    g = pf.resolve_p2p_backward(balanced_e)
    placeholders = [z for z in g.zones
                    if "e" in g.zones[z].slots
                    and z not in ("_init_", "xor")]
    # zones strictly between availability and use on the designated path
    assert len(placeholders) == 3


def test_direct_single_relation(balanced_e):
    g = pf.resolve_direct_backward(balanced_e)
    direct = [r for r in g.relations if r.kind is pf.RelationKind.DIRECT]
    assert ("_init_", "xor", 2, ["e"]) in [
        (r.source, r.sink, r.latency, r.signals) for r in direct]
    for z in ("addA", "addB", "merged_mul_mul"):
        assert "e" not in g.zones[z].slots
    assert pf.validate(g).ok


def test_direct_adjacent_use_collapses_to_register():
    g = pf.resolve_direct_backward(pf.balance_merges(build_running()))
    x_feeds = [r for r in g.relations
               if r.kind is pf.RelationKind.DIRECT and "x" in r.signals]
    assert [(r.source, r.sink, r.latency) for r in x_feeds] == [
        ("_init_", "addA", 1)]


# -- select_primitive -------------------------------------------------------


def test_select_primitive_table_rows():
    pol = pf.direct_fifo(3, 3)
    assert pf.select_primitive(0, 64, pol) == "wire"
    assert pf.select_primitive(1, 64, pol) == "register"
    assert pf.select_primitive(4, 4, pol) == "fifo"
    assert pf.select_primitive(4, 2, pol) == "register"
    assert pf.select_primitive(2, 64, pol) == "register"


def test_select_primitive_modes():
    assert pf.select_primitive(3, 8, pf.direct_force_reg()) == "no_extract"
    assert pf.select_primitive(1, 8, pf.direct_force_reg()) == "register"
    assert pf.select_primitive(3, 8, pf.direct_force_srl()) == "srl"
    assert pf.select_primitive(1, 8, pf.direct_force_srl()) == "register"
    assert pf.select_primitive(3, 8, pf.direct_auto()) == "register"


def test_policy_threshold_validation():
    with pytest.raises(ValueError):
        pf.PrimitivePolicy(1, 1)
    with pytest.raises(ValueError):
        pf.PrimitivePolicy(2, 0)
    pf.PrimitivePolicy(2, 1)  # minimum legal finite thresholds


# -- validate ---------------------------------------------------------------


def test_validate_unresolved_graph_reports_missing(balanced_e):
    rep = pf.validate(balanced_e)
    assert not rep.ok
    assert any(e.check == "no_missing" for e in rep.failures())


def test_validate_corrupted_latency_names_relation(balanced_e):
    g = pf.resolve_direct_backward(balanced_e)
    for r in g.relations:
        if r.kind is pf.RelationKind.DIRECT and "e" in r.signals:
            r.latency = 1
            g.zones[r.sink].slots["e"].fed_from = (r.source, 1)
    rep = pf.validate(g)
    assert not rep.ok
    fail = [e for e in rep.failures() if e.check == "feed_latencies"]
    assert fail and "e" in fail[0].detail


def test_validate_unbalanced_merge_details(balanced_e):
    g = pf.resolve_direct_backward(balanced_e)
    (edge,) = [r for r in g.relations if r.kind is pf.RelationKind.MERGE
               and (r.source, r.sink) == ("mul", "merged_mul_mul")]
    edge.latency += 1
    details = {e.check: e.detail for e in pf.validate(g).failures()}
    assert details == {
        "balanced": "merged_mul_mul: [2, 3]; xor: [2, 3]",
        "feed_latencies": "merged_mul_mul:mulXY fed by 0 relations; "
                          "xor:e: paths '_init_' -> 'xor' disagree: [2, 3]",
    }


def _rejected_feeds(g: pf.SyncGraph) -> set[str]:
    """The zone:signal slots that validate's feed check rejects."""
    (entry,) = [e for e in pf.validate(g).entries
                if e.check == "feed_latencies"]
    return {item.split(" ", 1)[0].rstrip(":")
            for item in entry.detail.split("; ") if item}


def _brute_force_rejected_feeds(g: pf.SyncGraph) -> set[str]:
    bad = set()
    for z, zone in g.zones.items():
        for slot in zone.slots.values():
            if slot.status is not pf.SignalStatus.PROPAGATED:
                continue
            if slot.fed_from is None:
                bad.add(f"{z}:{slot.signal}")
                continue
            src, lat = slot.fed_from
            feeds = [r for r in g.relations if (r.source, r.sink) == (src, z)
                     and slot.signal in r.signals and r.latency == lat]
            if (len(feeds) != 1
                    or set(brute_force_path_sums(g, src, z)) != {lat}):
                bad.add(f"{z}:{slot.signal}")
    return bad


def _bump_feed(g: pf.SyncGraph, z: str, sig: str) -> pf.Relation:
    # one feed's relation and its slot's fed_from, both one cycle later
    slot = g.zones[z].slots[sig]
    src, lat = slot.fed_from
    (rel,) = [r for r in g.relations if (r.source, r.sink) == (src, z)
              and sig in r.signals and r.latency == lat]
    rel.latency += 1
    slot.fed_from = (src, lat + 1)
    return rel


def _stray_feed(g: pf.SyncGraph, z: str, sig: str, w: str) -> None:
    # a feed from w, which does not reach z, with the latency the two
    # zones' depths would give
    depths = g.depths()
    lat = depths[z] - depths[w]
    g.zones[z].slots[sig].fed_from = (w, lat)
    g.relations.append(pf.Relation(w, z, lat, pf.RelationKind.DIRECT, [sig]))


def test_validate_feeds_match_brute_force(random_corpus):
    rng = random.Random(9)
    kinds = set()
    strays = 0
    for g in random_corpus:
        balanced = pf.balance_merges(g)
        for resolve in (pf.resolve_direct_backward, pf.resolve_p2p_backward,
                        pf.resolve_exhaustive_forward):
            resolved = resolve(balanced)
            assert _rejected_feeds(resolved) == set()
            assert _brute_force_rejected_feeds(resolved) == set()
            fed = [(z.id, s.signal) for z in resolved.zones.values()
                   for s in z.slots.values()
                   if s.status is pf.SignalStatus.PROPAGATED]
            if not fed:
                continue
            z, sig = rng.choice(fed)
            bumped = resolved.copy()
            rel = _bump_feed(bumped, z, sig)
            kinds.add(rel.kind)
            got = _rejected_feeds(bumped)
            assert got == _brute_force_rejected_feeds(bumped), g.name
            if rel.structural:
                # a later merge edge moves every path through it and
                # unbalances the graph instead
                assert not pf.validate(bumped).ok
            else:
                assert f"{z}:{sig}" in got
            z, sig = rng.choice(fed)
            others = [w for w in resolved.zones if not resolved.reaches(w, z)]
            if others:
                stray = resolved.copy()
                _stray_feed(stray, z, sig, rng.choice(others))
                got = _rejected_feeds(stray)
                assert got == _brute_force_rejected_feeds(stray), g.name
                assert f"{z}:{sig}" in got
                strays += 1
    assert pf.RelationKind.MERGE in kinds and pf.RelationKind.DIRECT in kinds
    assert strays > 100


# -- distribution report and sweep ------------------------------------------


def test_report_distribution_rows():
    g = pf.balance_merges(build_running(with_e=True))
    rep = pf.report_distribution([("run", g)])
    assert [(r.depth, r.width, r.total) for r in rep.rows] == [
        (1, 8, 1), (2, 4, 1)]


def test_report_distribution_empty():
    b = pf.pipe_new([("x", 8)], "t")
    b.add_step(b.main, pf.StepBody.reg("a", [("q", 8, Ref("x"))]))
    b.drive_output([("o", "q")])
    g = pf.balance_merges(b.build())
    assert pf.report_distribution([("t", g)]).rows == []


def test_report_distribution_multiplicity():
    g = pf.balance_merges(build_running(with_e=True))
    rep = pf.report_distribution([("a", g), ("b", g)])
    for row in rep.rows:
        assert row.counts == {"a": 1, "b": 1}
        assert row.total == 2


def test_report_min_depth_filter():
    g = pf.balance_merges(build_running(with_e=True))
    rep = pf.report_distribution([("run", g)], min_depth=2)
    assert [(r.depth, r.width) for r in rep.rows] == [(2, 4)]


def test_report_serialization():
    rep = pf.DistributionReport(["p"], [DistributionRow(2, 4, {"p": 3})])
    assert "depth\twidth\tpipeline\tcount\ttotal" in rep.to_tsv()
    assert "2\t4\tp\t3\t3" in rep.to_tsv()
    assert '"total": 3' in rep.to_json()


def test_sweep_single_missing_relation():
    g = pf.balance_merges(build_running(xor_delay=2))
    # only e-free variant: x at depth 1 is below every threshold
    assert pf.sweep_thresholds(g) == [(INF, INF)]
    ge = pf.balance_merges(build_running(xor_delay=2, with_e=True))
    cands = pf.sweep_thresholds(ge)
    assert cands[-1] == (INF, INF)
    assert (4, 4) in cands


def test_sweep_dedup_by_partition():
    ge = pf.balance_merges(build_running(xor_delay=2, with_e=True))
    cands = [c for c in pf.sweep_thresholds(ge) if c != (INF, INF)]
    # distinct candidates must induce distinct FIFO selections
    mrs = ge.missing_relations()
    parts = set()
    for d_thr, w_thr in cands:
        part = frozenset(i for i, m in enumerate(mrs)
                         if m.depth >= d_thr and m.width >= w_thr)
        assert part not in parts
        parts.add(part)

import sys

import pytest

import pipeforge as pf
from pipeforge.expr import BinOp, Ref
from pipeforge.model import single_latency

from conftest import brute_force_path_sums, build_running


def test_pipe_new_creates_input_zone():
    b = pf.pipe_new([("x", 8), ("y", 8)], "t")
    g = _close(b)
    init = g.zones["_init_"]
    assert init.kind is pf.ZoneKind.INPUT
    assert set(init.slots) == {"x", "y"}
    assert all(s.status is pf.SignalStatus.CONNECTED_EXTERNAL
               for s in init.slots.values())


def _close(b):
    b.add_step(b.main, pf.StepBody.reg(
        "s", [("q", 8, BinOp("add", Ref("x"), Ref("y")))]))
    b.drive_output([("q_out", "q")])
    return b.build()


def test_pipe_new_rejects_duplicates_and_zero_width():
    with pytest.raises(pf.DuplicateSignalError):
        pf.pipe_new([("x", 8), ("x", 8)], "t")
    with pytest.raises(pf.ZeroWidthError):
        pf.pipe_new([("x", 0)], "t")


def test_add_step_ssa_violation():
    b = pf.pipe_new([("x", 8)], "t")
    b.add_step(b.main, pf.StepBody.reg("a", [("q", 8, Ref("x"))]))
    with pytest.raises(pf.DuplicateSignalError):
        b.add_step(b.main, pf.StepBody.reg("b", [("q", 8, Ref("x"))]))


def test_split_and_merge_guards():
    b = pf.pipe_new([("x", 8)], "t")
    b1 = b.split("b1")
    with pytest.raises(pf.SelfMergeError):
        b.merge(b.main)
    b.merge(b1)
    with pytest.raises(pf.BranchClosedError):
        b.add_step(b1, pf.StepBody.reg("a", [("q", 8, Ref("x"))]))
    with pytest.raises(pf.BranchClosedError):
        b.split("b2", from_branch=b1)


def test_two_splits_share_source_zone():
    b = pf.pipe_new([("x", 8)], "t")
    b1 = b.split("b1")
    b2 = b.split("b2")
    b.add_step(b1, pf.StepBody.reg("s1", [("q1", 8, Ref("x"))]))
    b.add_step(b2, pf.StepBody.reg("s2", [("q2", 8, Ref("x"))]))
    b.merge(b1, b2)
    b.drive_output([("o", "q1")])
    g = b.build()
    srcs = {r.source for r in g.relations
            if r.kind is pf.RelationKind.STEP and r.sink in ("s1", "s2")}
    assert srcs == {"_init_"}


def test_drive_output_unknown_signal():
    b = pf.pipe_new([("x", 8)], "t")
    with pytest.raises(pf.UnknownSignalError):
        b.drive_output([("q", "missing")])


def test_build_running_forward_order():
    g = build_running()
    assert g.forward_order() == ["_init_", "mul", "addA", "addB",
                                 "merged_mul_mul", "xor"]
    assert len(g.zones) == 6


def test_build_requires_closed_branches():
    b = pf.pipe_new([("x", 8)], "t")
    b.split("dangling")
    b.add_step(b.main, pf.StepBody.reg("a", [("q", 8, Ref("x"))]))
    b.drive_output([("o", "q")])
    with pytest.raises(pf.PipeforgeError):
        b.build()


def test_build_unknown_read_names_requiring_zone():
    b = pf.pipe_new([("x", 8)], "t")
    b.add_step(b.main, pf.StepBody.reg("a", [("q", 8, Ref("nope"))]))
    b.drive_output([("o", "q")])
    with pytest.raises(pf.UnknownSignalError) as err:
        b.build()
    assert err.value.signal == "nope"
    assert err.value.zone == "a"


def test_parallel_branch_signal_is_not_upstream():
    b = pf.pipe_new([("x", 8)], "t")
    b1 = b.split("b1")
    b.add_step(b1, pf.StepBody.reg("s1", [("q1", 8, Ref("x"))]))
    # main cannot see q1 before the merge
    b.add_step(b.main, pf.StepBody.reg("s2", [("q2", 8, Ref("q1"))]))
    b.merge(b1)
    b.drive_output([("o", "q2")])
    with pytest.raises(pf.UnknownSignalError):
        b.build()


def test_equivalent_latency_running():
    g = pf.balance_merges(build_running())
    assert g.depths()["xor"] == 2
    assert single_latency(g.path_sums("xor"), "xor", "xor") == 0
    g4 = pf.balance_merges(build_running(xor_delay=2))
    assert g4.depths()["xor"] == 4


def test_equivalent_latency_errors():
    g = pf.balance_merges(build_running())
    with pytest.raises(pf.NoPathError):
        single_latency(g.path_sums("xor"), "xor", "_init_")
    with pytest.raises(pf.MissingLatencyError):
        build_running().depths()


def test_equivalent_latency_additive():
    g = pf.balance_merges(build_running())
    depths = g.depths()
    assert depths["addB"] == depths["addA"] + single_latency(
        g.path_sums("addA"), "addA", "addB")


def test_missing_relations_running():
    g = pf.balance_merges(build_running(with_e=True))
    got = {(m.signal, m.available_zone, m.needing_zone, m.depth, m.width)
           for m in g.missing_relations()}
    # x is required by the step reading it at its source zone addA
    assert got == {("x", "_init_", "addA", 1, 8),
                   ("e", "_init_", "xor", 2, 4)}


def test_missing_relations_local_only_pipeline():
    b = pf.pipe_new([("x", 8)], "t")
    b.add_step(b.main, pf.StepBody.reg("a", [("q", 8, Ref("x"))]))
    b.add_step(b.main, pf.StepBody.reg("b2", [("r", 8, Ref("q"))]))
    b.drive_output([("o", "r")])
    g = pf.balance_merges(b.build())
    assert g.missing_relations() == []


def test_missing_relations_delay_variant_depth():
    g = pf.balance_merges(build_running(xor_delay=2, with_e=True))
    e = [m for m in g.missing_relations() if m.signal == "e"]
    assert len(e) == 1 and e[0].depth == 4


def test_missing_relation_nearest_prior_use():
    # e used at depth 2 and again at depth 4: the second hop sources from
    # the first use, not the declaration
    b = pf.pipe_new([("x", 8), ("e", 4)], "t")
    b.add_step(b.main, pf.StepBody.delay("a", 2, [("q", 8, Ref("x"))]))
    b.add_step(b.main, pf.StepBody.delay("b2", 2, [
        ("r", 8, BinOp("add", Ref("q"), Ref("e")))]))
    b.add_step(b.main, pf.StepBody.wire("c", [
        ("t", 8, BinOp("add", Ref("r"), Ref("e")))]))
    b.drive_output([("o", "t")])
    g = pf.balance_merges(b.build())
    entries = {m.signal: m for m in g.missing_relations()
               if m.needing_zone == "b2"}
    assert entries["e"].available_zone == "a"
    assert entries["e"].depth == 2
    first = [m for m in g.missing_relations() if m.needing_zone == "a"]
    assert [(m.signal, m.available_zone, m.depth) for m in first] == [
        ("e", "_init_", 2)]


def test_build_is_deterministic():
    a, b = build_running(with_e=True), build_running(with_e=True)
    assert a.forward_order() == b.forward_order()
    assert [(r.source, r.sink, r.latency, r.kind) for r in a.relations] == \
        [(r.source, r.sink, r.latency, r.kind) for r in b.relations]
    for z in a.zones:
        assert list(a.zones[z].slots) == list(b.zones[z].slots)


def test_forward_order_is_topological_on_random_graphs(random_corpus):
    for g in random_corpus:
        order = g.forward_order()
        pos = {z: k for k, z in enumerate(order)}
        assert sorted(order) == sorted(g.zones)
        for r in g.relations:
            if r.kind in (pf.RelationKind.STEP, pf.RelationKind.MERGE):
                assert pos[r.source] < pos[r.sink]


def test_path_sums_match_brute_force(random_corpus):
    graphs = [pf.balance_merges(g)
              for g in [build_running(with_e=True), *random_corpus]]
    for g in graphs:
        brute = {(src, dst): set(brute_force_path_sums(g, src, dst))
                 for src in g.zones for dst in g.zones}
        for src in g.zones:
            sums = g.path_sums(src)
            for dst in g.zones:
                assert sums.get(dst, set()) == brute[src, dst], (g.name, src, dst)
        assert {z: {d} for z, d in g.depths().items()} == {
            z: brute["_init_", z] for z in g.zones}, g.name
        for a in g.zones:
            for z in g.zones:
                assert g.reaches(a, z) == bool(brute[a, z]), (g.name, a, z)


def test_missing_only_from_reads_or_merges():
    g = build_running(with_e=True)
    for r in g.relations:
        if r.latency is None:
            assert r.kind in (pf.RelationKind.EQUIVALENT, pf.RelationKind.MERGE)


def _build_nested(n: int) -> pf.SyncGraph:
    # each branch splits from the one before and merges back into it
    b = pf.pipe_new([("x", 8)], "nest")
    branches = [b.main]
    for i in range(n):
        br = b.split(f"b{i}", from_branch=branches[-1])
        b.add_step(br, pf.StepBody.reg(f"s{i}", [(f"q{i}", 8, Ref("x"))]))
        branches.append(br)
    for inner, outer in zip(branches[:0:-1], branches[-2::-1]):
        b.merge(inner, into=outer)
    b.drive_output([("o", f"q{n - 1}")])
    return b.build()


def test_build_deeply_nested_branches():
    n = 1100
    g = _build_nested(n)
    assert len(g.zones) == 2 * n + 1
    assert g.outputs[0].zone == "merged_b0_s0"
    assert all(g.reaches(z, "merged_b0_s0") for z in g.zones)
    # the brute force adds latencies up, and any value serves for reaching
    for r in g.relations:
        if r.kind is pf.RelationKind.MERGE:
            r.latency = 0
    mid = n // 2
    # a search from these runs one way down the merges, so it is cheap
    cheap = [f"s{n - 1}", f"merged_b{n - 1}_s{n - 1}", f"merged_b{mid}_s{mid}",
             "merged_b1_s1", "merged_b0_s0"]
    pairs = [(a, z) for a in cheap for z in [*cheap, "_init_", f"s{mid}"]]
    pairs += [("_init_", "merged_b0_s0"), (f"s{mid}", f"merged_b{mid}_s{mid}")]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(3 * n + 100)  # a path runs through every zone
    try:
        for a, z in pairs:
            assert g.reaches(a, z) == bool(brute_force_path_sums(g, a, z)), (a, z)
    finally:
        sys.setrecursionlimit(limit)


def test_passthrough_appends_output_zone():
    b = pf.pipe_new([("x", 8)], "t")
    b.drive_output([("x_out", "x")])
    g = b.build()
    assert len(g.zones) == 2
    (rel,) = [r for z in g.zones.values() for r in z.inbound]
    assert rel.latency == 0
    assert g.zones[g.outputs[0].zone].kind is pf.ZoneKind.OUTPUT


def test_deeply_nested_branches_resolve_and_validate():
    g = pf.resolve_direct_backward(pf.balance_merges(_build_nested(1100)))
    assert pf.validate(g).ok


def _graph_digest(g: pf.SyncGraph) -> str:
    def rel(r):
        return (r.source, r.sink, r.latency, r.kind, list(r.signals))
    return repr((
        [(z.id, z.kind, z.upstream,
          [(s.signal, s.status, s.fed_from) for s in z.slots.values()],
          [rel(r) for r in z.inbound]) for z in g.zones.values()],
        [rel(r) for r in g.relations],
        [(o.zone, list(o.mapping)) for o in g.outputs],
        g.name, g.input_zone))


def test_copy_is_independent_of_the_original(random_corpus):
    for g in [build_running(with_e=True), *random_corpus[:40]]:
        balanced = pf.balance_merges(g)
        for orig in (g, balanced, pf.resolve_p2p_backward(balanced)):
            before = _graph_digest(orig)
            c = orig.copy()
            assert _graph_digest(c) == before
            assert c.steps is orig.steps and c.decls is orig.decls
            copied = {id(r) for r in c.relations}
            assert all(id(r) in copied
                       for z in c.zones.values() for r in z.inbound)
            for zone in c.zones.values():
                for slot in zone.slots.values():
                    slot.status = pf.SignalStatus.PENDING_LOCAL
                    slot.fed_from = ("elsewhere", -1)
                zone.slots["extra"] = pf.Slot(
                    "extra", pf.SignalStatus.PROPAGATED)
                zone.inbound.append(pf.Relation(
                    "elsewhere", zone.id, 0, pf.RelationKind.STEP))
            for r in c.relations:
                r.latency = (r.latency or 0) + 1
                r.signals.append("extra")
            c.relations.append(pf.Relation(
                "elsewhere", "_init_", 0, pf.RelationKind.DIRECT))
            for o in c.outputs:
                o.mapping.append(("extra_out", "extra"))
            assert _graph_digest(orig) == before, g.name


def test_copy_of_inbound_edge_missing_from_relations():
    # a hand-edited graph whose inbound edge is not listed still copies
    g = build_running()
    edge = g.zones["addA"].inbound[0]
    g.relations.remove(edge)
    c = g.copy()
    (copied,) = c.zones["addA"].inbound
    assert copied is not edge
    assert (copied.source, copied.sink, copied.latency, copied.signals) == (
        edge.source, edge.sink, edge.latency, edge.signals)
    assert all(r is not copied for r in c.relations)

import glob
import json
import os
import re

import pytest

import pipeforge as pf
from pipeforge.specfile import compile_schema, graph_from_spec, load_spec, schema

from conftest import build_running, data_path


def test_schema_loads():
    s = schema()
    assert s["$schema"].endswith("2020-12/schema")


def test_documented_json_blocks_are_valid():
    docs = glob.glob(os.path.join(os.path.dirname(__file__), "..", "docs", "*.md"))
    full = schema()
    step = {"$defs": full["$defs"], **full["properties"]["steps"]["items"]}
    blocks = 0
    for path in docs:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for block in re.findall(r"^```json\n(.*?)^```", text, re.M | re.S):
            doc = json.loads(block)
            whole = "steps" in doc
            assert compile_schema(full if whole else step)(doc) is None
            if whole:
                graph_from_spec(doc)
            blocks += 1
    assert blocks >= 2


def test_round_trip_matches_builder_graph():
    g = graph_from_spec(load_spec(data_path("running.json")))
    ref = build_running(with_e=True, name=g.name)
    assert g.forward_order() == ref.forward_order()
    assert [(r.source, r.sink, r.latency, r.kind) for r in g.relations] == \
        [(r.source, r.sink, r.latency, r.kind) for r in ref.relations]
    for z in g.zones:
        assert list(g.zones[z].slots) == list(ref.zones[z].slots)


def test_round_trip_delay_variant():
    g = pf.balance_merges(graph_from_spec(load_spec(
        data_path("running_delay2.json"))))
    assert g.depths()[g.outputs[0].zone] == 4
    got = {(m.signal, m.depth) for m in g.missing_relations()}
    assert got == {("x", 1), ("e", 4)}


def test_passthrough_spec():
    g = graph_from_spec(load_spec(data_path("passthrough.json")))
    assert len(g.zones) == 2
    assert g.zones[g.outputs[0].zone].kind is pf.ZoneKind.OUTPUT


def test_schema_violation_is_config_error():
    with pytest.raises(pf.ConfigError) as err:
        load_spec(data_path("invalid_schema.json"))
    assert "/" in str(err.value)  # names the offending JSON pointer


def test_unknown_signal_surfaces_from_build():
    with pytest.raises(pf.UnknownSignalError):
        graph_from_spec(load_spec(data_path("unknown_signal.json")))


def test_malformed_json_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(pf.ConfigError):
        load_spec(str(p))


def test_merge_requires_at(tmp_path):
    spec = json.loads(open(data_path("running.json")).read())
    del spec["merges"][0]["at"]
    p = tmp_path / "noat.json"
    p.write_text(json.dumps(spec))
    with pytest.raises(pf.ConfigError):
        load_spec(str(p))


def test_merge_at_waits_for_into_branch(tmp_path):
    # moving the merge later defers it past addB and changes the topology
    spec = json.loads(open(data_path("running.json")).read())
    spec["merges"][0]["at"] = 1
    p = tmp_path / "early.json"
    p.write_text(json.dumps(spec))
    g = graph_from_spec(load_spec(str(p)))
    order = g.forward_order()
    assert order.index("addB") > order.index("merged_mul_mul")


def _reg(name, sig, expr, branch="main"):
    return {"branch": branch, "name": name, "kind": "reg",
            "defines": [{"name": sig, "width": 8, "expr": expr}]}


def _doc(branches, steps, merges):
    return {"name": "t", "inputs": [{"name": "x", "width": 8}],
            "branches": branches, "steps": steps, "merges": merges,
            "outputs": [{"name": "y", "from": "o"}]}


REPLAY_CASES = {
    # a nested branch listed before its parent splits once the parent
    # reaches the position
    "nested_before_parent": (_doc(
        [{"name": "c", "from": "b@1"}, {"name": "b", "from": "main@0"}],
        [_reg("b1", "u", ["add", "x", "x"], "b"),
         _reg("c1", "v", ["add", "u", "x"], "c"),
         _reg("b2", "w", ["add", "u", "x"], "b"),
         _reg("m1", "o", ["xor", "v", "w"])],
        [{"branch": "c", "into": "b", "at": 2}, {"branch": "b", "at": 0}]),
        [("_init_", []), ("b1", ["_init_"]), ("c1", ["b1"]), ("b2", ["b1"]),
         ("merged_c_c1", ["c1", "b2"]), ("merged_b_b2", ["merged_c_c1", "_init_"]),
         ("m1", ["merged_b_b2"])]),
    # splits at a new branch's start: those listed after it first, then
    # those listed before it
    "siblings_around_parent": (_doc(
        [{"name": "d", "from": "b@0"}, {"name": "b", "from": "main@0"},
         {"name": "e", "from": "b@0"}],
        [_reg("d1", "p", ["add", "x", "x"], "d"),
         _reg("e1", "q", ["add", "x", "x"], "e"),
         _reg("b1", "u", ["add", "x", "x"], "b"),
         _reg("m1", "o", ["xor", "u", "x"])],
        [{"branch": ["d", "e"], "into": "b", "at": 0}, {"branch": "b", "at": 0}]),
        [("_init_", []), ("e1", ["_init_"]), ("d1", ["_init_"]),
         ("merged_d_d1", ["d1", "e1", "_init_"]), ("b1", ["merged_d_d1"]),
         ("merged_b_b1", ["b1", "_init_"]), ("m1", ["merged_b_b1"])]),
    "parent_never_created": (_doc(
        [{"name": "c", "from": "zz@0"}], [_reg("m1", "o", ["add", "x", "x"])], []),
        "branch 'c' could not be created at zz@0"),
    # two merges into main@1: the one whose branch finishes first goes first
    "merges_ready_in_reverse": (_doc(
        [{"name": "b", "from": "main@0"}, {"name": "c", "from": "main@0"}],
        [_reg("c1", "v", ["add", "x", "x"], "c"),
         _reg("b1", "u", ["add", "x", "x"], "b"),
         _reg("m1", "s", ["add", "x", "x"]),
         _reg("b2", "u2", ["add", "u", "x"], "b"),
         _reg("m2", "o", ["xor", "u2", "v"])],
        [{"branch": "b", "at": 1}, {"branch": "c", "at": 1}]),
        [("_init_", []), ("b1", ["_init_"]), ("b2", ["b1"]), ("c1", ["_init_"]),
         ("m1", ["_init_"]), ("merged_c_c1", ["c1", "m1"]),
         ("merged_b_b2", ["b2", "merged_c_c1"]), ("m2", ["merged_b_b2"])]),
    # at main@1 the split of c comes before the merge of b
    "split_and_merge_same_position": (_doc(
        [{"name": "b", "from": "main@0"}, {"name": "c", "from": "main@1"}],
        [_reg("b1", "u", ["add", "x", "x"], "b"),
         _reg("m1", "s", ["add", "x", "x"]),
         _reg("c1", "v", ["add", "s", "x"], "c"),
         _reg("m2", "o", ["xor", "u", "s"])],
        [{"branch": "b", "at": 1}, {"branch": "c", "at": 1}]),
        [("_init_", []), ("b1", ["_init_"]), ("m1", ["_init_"]), ("c1", ["m1"]),
         ("merged_b_b1", ["b1", "m1"]), ("merged_c_c1", ["c1", "merged_b_b1"]),
         ("m2", ["merged_c_c1"])]),
}


@pytest.mark.parametrize("case", REPLAY_CASES)
def test_replay_order(case):
    doc, expected = REPLAY_CASES[case]
    assert compile_schema(schema())(doc) is None
    if isinstance(expected, str):
        with pytest.raises(pf.ConfigError, match=re.escape(expected)):
            graph_from_spec(doc)
        return
    g = graph_from_spec(doc)
    assert [(z, [r.source for r in zone.inbound])
            for z, zone in g.zones.items()] == expected


def test_merge_past_the_target_end_is_config_error():
    # main has two steps, so a merge at 7 has no position to land on
    doc = _doc([{"name": "b", "from": "main@0"}],
               [_reg("b1", "u", ["add", "x", "x"], "b"),
                _reg("m1", "s", ["add", "x", "x"]),
                _reg("m2", "o", ["xor", "s", "x"])],
               [{"branch": "b", "into": "main", "at": 7}])
    with pytest.raises(pf.ConfigError, match=r"main@7: main has 2 steps"):
        graph_from_spec(doc)
    doc["merges"][0]["at"] = 2
    assert "merged_b_b1" in graph_from_spec(doc).zones

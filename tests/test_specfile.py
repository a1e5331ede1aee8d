import glob
import json
import os
import re

import jsonschema
import pytest

import pipeforge as pf
from pipeforge.specfile import graph_from_spec, load_spec, schema

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
            jsonschema.validate(doc, full if whole else step,
                                cls=jsonschema.Draft202012Validator)
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
    assert g.equivalent_latency("_init_", g.outputs[0].zone) == 4
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

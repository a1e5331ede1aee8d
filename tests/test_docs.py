"""The documents and the benchmark harness stay in step with the package:
the input-format examples pass the schema, the README's library example
runs, and every ``pf.<name>`` the benchmark reads is exported."""

import contextlib
import glob
import io
import json
import os
import re

import pipeforge as pf
from pipeforge.specfile import compile_schema, schema

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _blocks(doc: str, lang: str) -> list[str]:
    with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
        return re.findall(rf"^```{lang}\n(.*?)^```", fh.read(), re.M | re.S)


def test_format_examples_pass_the_schema(tmp_path):
    top, step = _blocks("docs/pipeline-format.md", "json")[:2]
    spec = tmp_path / "example.json"
    spec.write_text(top)
    g = pf.graph_from_spec(pf.load_spec(str(spec)))
    assert g.name == "run"
    s = schema()
    step_schema = {"$defs": s["$defs"], **s["properties"]["steps"]["items"]}
    assert compile_schema(step_schema)(json.loads(step)) is None


def test_readme_library_overview_runs():
    (code,) = _blocks("README.md", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-1] == "2"


def test_benchmark_reads_only_exported_names():
    used = set()
    for path in glob.glob(os.path.join(ROOT, "perfbench", "*.py")) + \
            glob.glob(os.path.join(ROOT, "scripts", "*.py")):
        with open(path, encoding="utf-8") as fh:
            used |= set(re.findall(r"\bpf\.(\w+)", fh.read()))
    assert used, "no pf.<name> found in the benchmark sources"
    assert sorted(used - set(pf.__all__)) == []

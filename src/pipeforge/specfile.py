"""JSON pipeline descriptions: schema validation and replay into the builder.

The ``steps`` array is chronological across branches.  Branch entries give
their split point as ``parent@position`` where position counts the parent's
steps recorded before the split; merge entries place themselves with ``at``,
the number of target-branch steps recorded before the merge.  When a split
and a merge land at the same position the split is applied first, so a
split cannot root directly at a merge zone through JSON; use the builder
API for that shape.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

import jsonschema

from .errors import ConfigError
from .expr import from_sexpr
from .model import PipeBuilder, StepBody, SyncGraph, pipe_new

_schema_cache: dict | None = None


def schema() -> dict:
    global _schema_cache
    if _schema_cache is None:
        text = (resources.files("pipeforge") / "pipeline_spec.schema.json").read_text()
        _schema_cache = json.loads(text)
    return _schema_cache


def _inline_refs(node, defs: dict):
    """A copy of a schema node with each ``#/$defs/...`` reference replaced
    by its target, so validation looks nothing up."""
    if isinstance(node, list):
        return [_inline_refs(v, defs) for v in node]
    if not isinstance(node, dict):
        return node
    ref = node.get("$ref", "")
    if ref.startswith("#/$defs/") and len(node) == 1:
        return _inline_refs(defs[ref[len("#/$defs/"):]], defs)
    return {k: _inline_refs(v, defs) for k, v in node.items()}


@functools.cache
def _spec_validator() -> jsonschema.Draft202012Validator:
    doc = schema()
    return jsonschema.Draft202012Validator(_inline_refs(doc, doc["$defs"]))


def load_spec(path: str) -> dict:
    """Read and schema-validate a pipeline description file."""
    validator = _spec_validator()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        errors = sorted(validator.iter_errors(doc),
                        key=lambda e: list(e.absolute_path))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer too long to read
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path} is nested too deeply") from exc
    if errors:
        e = errors[0]
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        raise ConfigError(f"{path}: schema violation at {pointer}: {e.message}")
    return doc


def _step_body(entry: dict) -> StepBody:
    kind = entry["kind"]
    defines = []
    for d in entry["defines"]:
        try:
            expr = from_sexpr(d["expr"])
        except ValueError as exc:
            raise ConfigError(
                f"step {entry['name']!r}, define {d['name']!r}: {exc}") from exc
        defines.append((d["name"], d["width"], expr))
    reads = tuple(entry.get("reads", ()))
    if kind == "wire":
        return StepBody.wire(entry["name"], defines, reads)
    if kind == "reg":
        return StepBody.reg(entry["name"], defines, reads)
    return StepBody.delay(entry["name"], kind["delay"], defines, reads)


def builder_from_spec(doc: dict) -> PipeBuilder:
    """Replay a validated description through the builder."""
    try:
        return _replay(doc)
    except ValueError as exc:  # a document that skipped the schema
        raise ConfigError(str(exc)) from exc


def _replay(doc: dict) -> PipeBuilder:
    # every expression is parsed before the model is touched, so a grammar
    # error is reported whatever else the description gets wrong
    bodies = [_step_body(s) for s in doc["steps"]]
    b = pipe_new([(i["name"], i["width"]) for i in doc["inputs"]], doc["name"])
    handles = {"main": b.main}
    steps = doc["steps"]
    remaining: dict[str, int] = {}
    for s in steps:
        br = s.get("branch", "main")
        remaining[br] = remaining.get(br, 0) + 1
    done_steps: dict[str, int] = {}

    pending_branches = list(doc.get("branches", []))
    pending_merges = []
    for m in doc.get("merges", []):
        names = m["branch"] if isinstance(m["branch"], list) else [m["branch"]]
        pending_merges.append((names, m.get("into", "main"), m["at"]))

    def create_ready_branches():
        progress = True
        while progress:
            progress = False
            for entry in list(pending_branches):
                parent, pos = entry["from"].split("@")
                if parent not in handles:
                    continue
                pos = int(pos)
                have = done_steps.get(parent, 0)
                if have == pos:
                    handles[entry["name"]] = b.split(
                        entry["name"], from_branch=handles[parent])
                    pending_branches.remove(entry)
                    progress = True
                elif have > pos:
                    raise ConfigError(
                        f"branch {entry['name']!r} splits at {entry['from']} "
                        f"but the parent already has {have} steps")

    def apply_ready_merges(stepping: str | None):
        # stepping is the branch about to receive a step, None at the end
        for entry in list(pending_merges):
            names, into, at = entry
            if stepping is not None and done_steps.get(into, 0) != at:
                continue
            if stepping is None and done_steps.get(into, 0) > at:
                raise ConfigError(
                    f"merge of {names} into {into}@{at}: position already "
                    f"passed")
            ready = (all(n in handles for n in names + [into])
                     and all(remaining.get(n, 0) == 0 for n in names))
            if not ready:
                if stepping == into or stepping is None:
                    raise ConfigError(
                        f"merge of {names} into {into}@{at}: a branch it "
                        f"names does not exist yet or a merging branch still "
                        f"has steps pending")
                continue
            b.merge(*[handles[n] for n in names], into=handles[into])
            pending_merges.remove(entry)

    create_ready_branches()
    for s, body in zip(steps, bodies):
        br = s.get("branch", "main")
        if br not in handles:
            raise ConfigError(f"step {s['name']!r} targets unknown branch {br!r}")
        apply_ready_merges(br)
        b.add_step(handles[br], body)
        done_steps[br] = done_steps.get(br, 0) + 1
        remaining[br] -= 1
        create_ready_branches()
    create_ready_branches()
    apply_ready_merges(None)
    if pending_branches:
        raise ConfigError(
            f"branch {pending_branches[0]['name']!r} could not be created at "
            f"{pending_branches[0]['from']}")
    b.drive_output([(o["name"], o["from"]) for o in doc["outputs"]])
    return b


def graph_from_spec(doc: dict) -> SyncGraph:
    return builder_from_spec(doc).build()

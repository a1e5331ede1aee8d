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
import heapq
import json
from collections import Counter
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


def graph_from_spec(doc: dict) -> SyncGraph:
    """Replay a validated description through the builder and build it."""
    try:
        b = _replay(doc)
    except ValueError as exc:  # a document that skipped the schema
        raise ConfigError(str(exc)) from exc
    return b.build()


def _replay(doc: dict) -> PipeBuilder:
    # every expression is parsed before the model is touched, so a grammar
    # error is reported whatever else the description gets wrong
    bodies = [_step_body(s) for s in doc["steps"]]
    b = pipe_new([(i["name"], i["width"]) for i in doc["inputs"]], doc["name"])
    steps = doc["steps"]
    remaining = Counter(s.get("branch", "main") for s in steps)
    merges = [(m["branch"] if isinstance(m["branch"], list) else [m["branch"]],
               m.get("into", "main"), m["at"]) for m in doc.get("merges", [])]
    # merges by (target, position) and splits by (parent, position), each
    # in document order
    landing: dict[tuple[str, int], list[int]] = {}
    for i, (_, into, at) in enumerate(merges):
        landing.setdefault((into, at), []).append(i)
    entries = doc.get("branches", [])
    starts: dict[tuple[str, int], list[int]] = {}
    for i, entry in enumerate(entries):
        parent, pos = entry["from"].split("@")
        starts.setdefault((parent, int(pos)), []).append(i)

    handles = {"main": b.main}
    done = {"main": 0}
    made = [False] * len(entries)
    pending = set(range(len(merges)))
    armed: list[int] = []  # merges whose target stands at their position

    def reach(name: str) -> None:
        # ``name`` has done[name] steps: split off the branches starting there
        # and at their own @0, in rounds over the branch list (a child listed
        # before its parent waits a round), and arm the merges landing on each
        heap = [(0, i, name) for i in starts.get((name, done[name]), ())]
        armed.extend(landing.get((name, done[name]), ()))
        while heap:
            rnd, i, parent = heapq.heappop(heap)
            child = entries[i]["name"]
            handles[child] = b.split(child, from_branch=handles[parent])
            made[i] = True
            done[child] = 0
            armed.extend(landing.get((child, 0), ()))
            for j in starts.get((child, 0), ()):
                heapq.heappush(heap, (rnd + (j < i), j, child))

    def apply(i: int, stepping: str | None) -> bool:
        names, into, at = merges[i]
        if stepping is None and into in done and done[into] < at:
            raise ConfigError(f"merge of {names} into {into}@{at}: {into} "
                              f"has {done[into]} steps")
        if not (all(n in handles for n in names + [into])
                and all(remaining[n] == 0 for n in names)):
            if stepping == into or stepping is None:
                raise ConfigError(
                    f"merge of {names} into {into}@{at}: a branch it names "
                    f"does not exist yet or a merging branch still has steps "
                    f"pending")
            return False
        b.merge(*[handles[n] for n in names], into=handles[into])
        pending.remove(i)
        return True

    reach("main")
    for s, body in zip(steps, bodies):
        br = s.get("branch", "main")
        if br not in handles:
            raise ConfigError(f"step {s['name']!r} targets unknown branch {br!r}")
        armed[:] = [i for i in sorted(armed) if not apply(i, br)]
        b.add_step(handles[br], body)
        done[br] += 1
        remaining[br] -= 1
        reach(br)
    for i in sorted(pending):
        apply(i, None)
    if not all(made):
        entry = entries[made.index(False)]
        raise ConfigError(
            f"branch {entry['name']!r} could not be created at {entry['from']}")
    b.drive_output([(o["name"], o["from"]) for o in doc["outputs"]])
    return b

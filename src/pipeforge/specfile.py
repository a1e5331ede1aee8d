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

import heapq
import json
import re
from collections import Counter
from importlib import resources

from .errors import ConfigError
from .expr import from_sexpr
from .model import PipeBuilder, StepBody, SyncGraph, pipe_new


def schema() -> dict:
    """A fresh copy of ``pipeline_spec.schema.json``."""
    return json.loads(
        (resources.files("pipeforge") / "pipeline_spec.schema.json").read_text())


# the JSON types the schema names; an integer is a JSON integer, not 8.0
_TYPES = {"object": dict, "array": list, "string": str, "integer": int}
_IGNORED = {"$schema", "$id", "title", "$defs"}
_spec_check = None


def _keyword(key: str, arg, node: dict, sub):
    """The check of one schema keyword: a function of a value that returns
    its violations as (path, message) pairs, or a false value.  Messages
    are worded as jsonschema words them."""
    if key == "type":
        names = arg if isinstance(arg, list) else [arg]
        ok, text = tuple(_TYPES[n] for n in names), ", ".join(map(repr, names))
        return lambda v: type(v) not in ok and [((), f"{v!r} is not of type {text}")]
    if key == "required":
        return lambda v: type(v) is dict and [
            ((), f"{k!r} is a required property") for k in arg if k not in v]
    if key == "additionalProperties" and arg is False:
        known = node.get("properties", {}).keys()
        return lambda v: type(v) is dict and not known >= v.keys() and [(
            (), "Additional properties are not allowed (%s %s unexpected)" % (
                ", ".join(map(repr, sorted(v.keys() - known, key=str))),
                "was" if len(v.keys() - known) == 1 else "were"))]
    if key == "properties":
        subs = [(k, sub(s)) for k, s in arg.items()]
        return lambda v: type(v) is dict and [
            ((k, *p), m) for k, c in subs if k in v for p, m in c(v[k]) or ()]
    if key == "items":
        c = sub(arg)
        return lambda v: type(v) is list and [
            ((i, *p), m) for i, x in enumerate(v) for p, m in c(x) or ()]
    if key == "minItems":
        text = "should be non-empty" if arg == 1 else "is too short"
        return lambda v: type(v) is list and len(v) < arg and [((), f"{v!r} {text}")]
    if key == "minimum":
        return lambda v: type(v) in (int, float) and v < arg and [
            ((), f"{v!r} is less than the minimum of {arg!r}")]
    if key == "maximum":
        return lambda v: type(v) in (int, float) and v > arg and [
            ((), f"{v!r} is greater than the maximum of {arg!r}")]
    if key == "pattern":
        search = re.compile(arg).search
        return lambda v: type(v) is str and not search(v) and [
            ((), f"{v!r} does not match {arg!r}")]
    if key == "enum" and all(type(x) is str for x in arg):
        return lambda v: v not in arg and [((), f"{v!r} is not one of {arg!r}")]
    if key == "oneOf":
        subs = [sub(s) for s in arg]

        def one_of(v):
            valid = sum(not c(v) for c in subs)
            how = "not valid under any" if valid == 0 else "valid under more than one"
            return valid != 1 and [((), f"{v!r} is {how} of the given schemas")]
        return one_of
    raise ValueError(f"schema keyword {key!r}: {arg!r} is not supported")


def compile_schema(doc: dict):
    """A checker for the JSON Schema subset that ``pipeline_spec.schema.json``
    uses: the keywords ``_keyword`` knows and ``$ref`` into ``$defs`` (not
    a recursive one).  Any other keyword raises ``ValueError`` here, so a
    schema edit is never silently ignored.  The checker returns the
    violation at the smallest path, as (JSON pointer, message), or None."""
    defs = doc.get("$defs", {})

    def sub(node: dict):
        checks = [sub(defs[arg.removeprefix("#/$defs/")]) if key == "$ref"
                  else _keyword(key, arg, node, sub)
                  for key, arg in node.items() if key not in _IGNORED]
        if len(checks) == 1:
            return checks[0]
        return lambda v: [e for c in checks for e in c(v) or ()]

    for node in defs.values():  # a $defs entry no $ref names is checked too
        sub(node)
    root = sub(doc)

    def check(value):
        errors = root(value)
        if not errors:
            return None
        path, message = min(errors, key=lambda e: e[0])
        return "/" + "/".join(map(str, path)), message
    return check


def load_spec(path: str) -> dict:
    """Read and schema-check a pipeline description file."""
    global _spec_check
    if _spec_check is None:
        _spec_check = compile_schema(schema())
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        violation = _spec_check(doc)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer too long to read
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path} is nested too deeply") from exc
    if violation:
        raise ConfigError(f"{path}: schema violation at {violation[0]}: "
                          f"{violation[1]}")
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

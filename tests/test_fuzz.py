"""Mutation fuzz of the running example's JSON description: whatever a
mutated file holds, or whatever expression tree one of its defines holds,
``pipeforge generate`` and ``pipeforge simulate`` end in exit 0, 2 or 3,
never in a traceback."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from pipeforge.cli import main
from pipeforge.expr import MAX_DEPTH

from conftest import data_path

with open(data_path("running.json"), encoding="utf-8") as fh:
    RUNNING = json.load(fh)

# names and fragments the description uses, so replacements often stay
# schema-valid and reach the replay and the model
NAMES = ["main", "mul", "z", "x", "y", "e", "addA", "addB", "xor", "mulXY",
         "sumXY", "merged_mul_mul", "_init_", "main@0", "mul@1", "main@5",
         "wire", "reg", "add", "not", "into", "branch", "reads"]
# integers stay small: the schema bounds widths and delays at 4096, and
# values near that bound make each example slow to lower and simulate
LEAVES = st.one_of(
    st.integers(-2, 40),
    st.sampled_from(NAMES),
    st.text(max_size=3),
    st.none(),
    st.booleans(),
)
VALUES = st.one_of(
    LEAVES,
    st.lists(LEAVES, max_size=3),
    st.dictionaries(st.sampled_from(NAMES + ["delay", "name", "from", "at"]),
                    LEAVES, max_size=2),
)


def paths(node, prefix=()):
    """Every position below ``node`` as a tuple of keys and indices."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def retype(value):
    """The same content under other JSON types: an integer also as its
    float, which an integer field rejects."""
    if isinstance(value, bool) or value is None:
        return [0]
    if isinstance(value, int):
        return [str(value), float(value)]
    if isinstance(value, float):
        return [str(value)]
    if isinstance(value, str):
        return [[value]]
    if isinstance(value, list):
        return [{str(i): v for i, v in enumerate(value)}]
    return [list(value.values())]


def replacement(old):
    """A value of the old one's type; retyping covers the other types."""
    if isinstance(old, str):
        return st.sampled_from(NAMES)
    if isinstance(old, int):
        return st.integers(-2, 40)
    return VALUES


@st.composite
def mutated_running(draw):
    doc = copy.deepcopy(RUNNING)
    for _ in range(draw(st.integers(1, 2))):
        # a section first, so the short ones (merges, branches) get as many
        # mutations as the long steps array
        section = draw(st.sampled_from(sorted(doc)))
        path = draw(st.sampled_from(
            list(paths(doc[section], (section,))) or [(section,)]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(
            ("replace", "replace", "duplicate", "delete", "retype")))
        if op == "replace":
            parent[key] = draw(replacement(parent[key]))
        elif op == "delete":
            del parent[key]
        elif op == "retype":
            parent[key] = draw(st.sampled_from(retype(parent[key])))
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[draw(st.sampled_from(NAMES))] = copy.deepcopy(parent[key])
    return doc


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mutated_running())
def test_mutated_descriptions_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["generate", spec], ["simulate", spec, "--cycles", "20"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3), (argv[0], code)


# expression leaves the grammar rejects (floats, bools, null, objects,
# non-identifier names, integers as text) next to ones it accepts
EXPR_LEAVES = st.one_of(
    st.sampled_from(["x", "y", "e", "sumXY", "x y", "2", "", "1x", "const",
                     None, True, False, {}, {"x": 1}, []]),
    st.integers(-2, 40),
    st.floats(-2, 40),
)
OPERATORS = ["add", "sub", "mul", "xor", "and", "or", "not", "shl", "shr",
             "mux", "slice", "cat", "const", "ref", "frob"]


def chain(depth, tree):
    for _ in range(depth):
        tree = ["not", tree]
    return tree


# operators take any number of arguments, so arity is often wrong
EXPR_TREES = st.recursive(
    EXPR_LEAVES,
    lambda kids: st.builds(lambda op, args: [op, *args],
                           st.sampled_from(OPERATORS),
                           st.lists(kids, max_size=4)),
    max_leaves=12)
EXPRESSIONS = st.one_of(
    EXPR_TREES,
    st.builds(chain, st.integers(MAX_DEPTH - 3, MAX_DEPTH + 2), EXPR_TREES))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data(), EXPRESSIONS)
def test_malformed_expressions_exit_cleanly(data, expr):
    doc = copy.deepcopy(RUNNING)
    step = data.draw(st.sampled_from(doc["steps"]))
    data.draw(st.sampled_from(step["defines"]))["expr"] = expr
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["generate", spec])
        assert code in (0, 2, 3), code

"""The loader's schema checker against jsonschema, the reference
implementation of JSON Schema.

Every leaf of the ``tests/data`` descriptions is replaced by each of a set
of bad values, or deleted; a seeded sample of those documents must get the
same verdict, pointer and message from ``compile_schema`` as from
jsonschema whose ``integer`` is a JSON integer, and the same as from stock
jsonschema except where the new value is an integral float (``2.0``),
which stock jsonschema takes for an integer."""

import copy
import glob
import json
import os
import random
import subprocess
import sys

import jsonschema
import pytest
from jsonschema import validators

import pipeforge
from pipeforge.specfile import compile_schema, schema

from conftest import DATA

BAD_VALUES = [None, True, False, -1, 0, 1, 4097, 2.5, 2.0, 8.0, "", "x\n",
              "1x", "a b", "wire", "main@0", [], ["x"], {}, {"delay": 2}]
DELETE = object()
SAMPLE = 1000


def _leaves(node, prefix=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else None)
    if items is None:
        yield prefix
        return
    for key, child in items:
        yield from _leaves(child, prefix + (key,))


def _mutations():
    for path in sorted(glob.glob(f"{DATA}/*.json")):
        with open(path, encoding="utf-8") as fh:
            base = json.load(fh)
        for leaf in _leaves(base):
            for value in BAD_VALUES + [DELETE]:
                yield base, leaf, value


def _apply(base, leaf, value):
    doc = copy.deepcopy(base)
    node = doc
    for key in leaf[:-1]:
        node = node[key]
    if value is DELETE:
        del node[leaf[-1]]
    else:
        node[leaf[-1]] = copy.deepcopy(value)
    return doc


def _first_error(validator, doc):
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    e = errors[0]
    return "/" + "/".join(str(p) for p in e.absolute_path), e.message


def test_checker_agrees_with_jsonschema():
    strict_types = jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, v: type(v) is int)
    strict = validators.extend(jsonschema.Draft202012Validator,
                               type_checker=strict_types)(schema())
    stock = jsonschema.Draft202012Validator(schema())
    check = compile_schema(schema())
    sample = random.Random(0).sample(list(_mutations()), SAMPLE)
    verdicts, floats = set(), 0
    for base, leaf, value in sample:
        doc = _apply(base, leaf, value)
        got = check(doc)
        assert got == _first_error(strict, doc), (leaf, value)
        verdicts.add(got is None)
        if got != _first_error(stock, doc):
            # stock jsonschema accepts 2.0 where an integer goes
            assert isinstance(value, float) and value.is_integer(), (leaf, value)
            # at its pointer, or at the kind whose oneOf it breaks
            where = "/" + "/".join(map(str, leaf))
            assert (where + "/").startswith(got[0] + "/"), (leaf, value)
            floats += 1
    assert verdicts == {True, False} and floats > 0


@pytest.mark.parametrize("where", ["root", "unused_def"])
def test_unsupported_keyword_raises(where):
    # also in a $defs entry no $ref names
    doc = copy.deepcopy(schema())
    if where == "root":
        doc["maxItems"] = 3
    else:
        doc["$defs"]["unused"] = {"type": "array", "maxItems": 3}
    with pytest.raises(ValueError, match="maxItems"):
        compile_schema(doc)


def test_import_loads_no_jsonschema():
    code = ("import sys, pipeforge; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('jsonschema', 'referencing')))")
    src = os.path.dirname(os.path.dirname(pipeforge.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"

"""Width-checked combinational expressions.

Expressions host the bodies of pipeline steps and, after lowering, the
combinational cells of the netlist.  Width rules are deterministic:

* add/sub/xor/and/or: max of operand widths, operands zero-extended
* mul: sum of operand widths
* shl/shr: operand width is preserved
* mux: both arms must have equal width, selector is 1 bit
* slice/concat: explicit truncation and aggregation
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .errors import WidthMismatchError

_BINOPS = ("add", "sub", "mul", "xor", "and", "or")
# widest constant the JSON format accepts, matching the schema's signal widths
MAX_WIDTH = 4096
# deepest operator nesting the JSON format accepts: parsing, lowering and
# simulation walk an expression recursively, one stack frame per level
MAX_DEPTH = 120
# the schema's identifier pattern, matched against the whole name
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").fullmatch


@dataclass(frozen=True)
class Expr:
    def refs(self) -> set[str]:
        raise NotImplementedError

    def width(self, widths: Mapping[str, int]) -> int:
        raise NotImplementedError

    def to_sexpr(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: int
    const_width: int

    def __post_init__(self):
        if self.const_width < 1:
            raise WidthMismatchError(f"constant width must be >= 1, got {self.const_width}")
        if self.value < 0 or self.value.bit_length() > self.const_width:
            raise WidthMismatchError(
                f"constant {self.value} does not fit in {self.const_width} bits")

    def refs(self):
        return set()

    def width(self, widths):
        return self.const_width

    def to_sexpr(self):
        return ["const", self.value, self.const_width]


@dataclass(frozen=True)
class Ref(Expr):
    name: str

    def refs(self):
        return {self.name}

    def width(self, widths):
        return widths[self.name]

    def to_sexpr(self):
        return ["ref", self.name]


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.op not in _BINOPS:
            raise ValueError(f"unknown operator {self.op!r}")

    def refs(self):
        return self.lhs.refs() | self.rhs.refs()

    def width(self, widths):
        wl, wr = self.lhs.width(widths), self.rhs.width(widths)
        if self.op == "mul":
            return wl + wr
        return max(wl, wr)

    def to_sexpr(self):
        return [self.op, self.lhs.to_sexpr(), self.rhs.to_sexpr()]


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr

    def refs(self):
        return self.arg.refs()

    def width(self, widths):
        return self.arg.width(widths)

    def to_sexpr(self):
        return ["not", self.arg.to_sexpr()]


@dataclass(frozen=True)
class Shift(Expr):
    op: str  # "shl" | "shr"
    amount: int
    arg: Expr

    def __post_init__(self):
        if self.op not in ("shl", "shr"):
            raise ValueError(f"unknown shift {self.op!r}")
        if self.amount < 0:
            raise ValueError("shift amount must be >= 0")

    def refs(self):
        return self.arg.refs()

    def width(self, widths):
        return self.arg.width(widths)

    def to_sexpr(self):
        return [self.op, self.amount, self.arg.to_sexpr()]


@dataclass(frozen=True)
class Mux(Expr):
    sel: Expr
    then: Expr
    other: Expr

    def refs(self):
        return self.sel.refs() | self.then.refs() | self.other.refs()

    def width(self, widths):
        if self.sel.width(widths) != 1:
            raise WidthMismatchError("mux selector must be 1 bit wide")
        wt, wo = self.then.width(widths), self.other.width(widths)
        if wt != wo:
            raise WidthMismatchError(f"mux arm widths differ: {wt} vs {wo}")
        return wt

    def to_sexpr(self):
        return ["mux", self.sel.to_sexpr(), self.then.to_sexpr(), self.other.to_sexpr()]


@dataclass(frozen=True)
class Slice(Expr):
    hi: int
    lo: int
    arg: Expr

    def refs(self):
        return self.arg.refs()

    def width(self, widths):
        if self.lo < 0 or self.hi < self.lo:
            raise WidthMismatchError(f"invalid slice [{self.hi}:{self.lo}]")
        if self.hi >= self.arg.width(widths):
            raise WidthMismatchError(
                f"slice [{self.hi}:{self.lo}] exceeds operand width {self.arg.width(widths)}")
        return self.hi - self.lo + 1

    def to_sexpr(self):
        return ["slice", self.hi, self.lo, self.arg.to_sexpr()]


@dataclass(frozen=True)
class Concat(Expr):
    parts: tuple[Expr, ...]  # parts[0] ends up in the most significant bits

    def __post_init__(self):
        if not self.parts:
            raise ValueError("concat needs at least one part")

    def refs(self):
        out: set[str] = set()
        for p in self.parts:
            out |= p.refs()
        return out

    def width(self, widths):
        return sum(p.width(widths) for p in self.parts)

    def to_sexpr(self):
        return ["cat"] + [p.to_sexpr() for p in self.parts]


def map_refs(expr: Expr, mapping: Mapping[str, str]) -> Expr:
    """Rebuild an expression with every Ref renamed through mapping."""
    if isinstance(expr, Ref):
        return Ref(mapping[expr.name])
    if isinstance(expr, (Const,)):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, map_refs(expr.lhs, mapping), map_refs(expr.rhs, mapping))
    if isinstance(expr, Not):
        return Not(map_refs(expr.arg, mapping))
    if isinstance(expr, Shift):
        return Shift(expr.op, expr.amount, map_refs(expr.arg, mapping))
    if isinstance(expr, Mux):
        return Mux(map_refs(expr.sel, mapping), map_refs(expr.then, mapping),
                   map_refs(expr.other, mapping))
    if isinstance(expr, Slice):
        return Slice(expr.hi, expr.lo, map_refs(expr.arg, mapping))
    if isinstance(expr, Concat):
        return Concat(tuple(map_refs(p, mapping) for p in expr.parts))
    raise TypeError(f"unknown expression node {expr!r}")


def from_sexpr(node) -> Expr:
    """Parse the prefix s-expression form used by the JSON pipeline format.

    This is the only check of the expression grammar: operator names and
    arity, integer fields that are JSON integers (not bool, float, string or
    null), names that are identifiers, and at most ``MAX_DEPTH`` nested
    operators.  A bare string is shorthand for a signal reference, a bare
    integer is not allowed (constants must carry an explicit width).
    """
    return _parse(node, 1)


def _parse(node, depth: int) -> Expr:
    if isinstance(node, str):
        return Ref(_name(node))
    if not isinstance(node, list) or not node:
        raise ValueError(f"malformed expression node: {node!r}")
    if depth > MAX_DEPTH:
        raise ValueError(f"expression nested deeper than {MAX_DEPTH} levels")
    head = node[0]
    depth += 1
    if head == "const":
        _expect_arity(node, 3)
        value, width = _int(node[1], "const value"), _int(node[2], "const width")
        if width > MAX_WIDTH:
            raise ValueError(f"constant width {width} exceeds {MAX_WIDTH}")
        return Const(value, width)
    if head == "ref":
        _expect_arity(node, 2)
        return Ref(_name(node[1]))
    if head in _BINOPS:
        _expect_arity(node, 3)
        return BinOp(head, _parse(node[1], depth), _parse(node[2], depth))
    if head == "not":
        _expect_arity(node, 2)
        return Not(_parse(node[1], depth))
    if head in ("shl", "shr"):
        _expect_arity(node, 3)
        return Shift(head, _int(node[1], "shift amount"), _parse(node[2], depth))
    if head == "mux":
        _expect_arity(node, 4)
        return Mux(_parse(node[1], depth), _parse(node[2], depth),
                   _parse(node[3], depth))
    if head == "slice":
        _expect_arity(node, 4)
        return Slice(_int(node[1], "slice bound"), _int(node[2], "slice bound"),
                     _parse(node[3], depth))
    if head == "cat":
        if len(node) < 2:
            raise ValueError("cat needs at least one part")
        return Concat(tuple(_parse(p, depth) for p in node[1:]))
    raise ValueError(f"unknown expression operator {head!r}")


def _expect_arity(node, n):
    if len(node) != n:
        raise ValueError(f"operator {node[0]!r} expects {n - 1} arguments, got {len(node) - 1}")


def _int(value, field: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _name(value) -> str:
    if not isinstance(value, str) or not _IDENT(value):
        raise ValueError(f"signal name must be an identifier, got {value!r}")
    return value

import oracle
import pytest

from pipeforge.errors import WidthMismatchError
from pipeforge.expr import (
    BinOp,
    Concat,
    Const,
    Mux,
    Not,
    Ref,
    Shift,
    Slice,
    from_sexpr,
    map_refs,
)

W = {"a": 8, "b": 4, "s": 1}


def test_width_rules():
    assert BinOp("add", Ref("a"), Ref("b")).width(W) == 8
    assert BinOp("mul", Ref("a"), Ref("b")).width(W) == 12
    assert BinOp("xor", Ref("a"), Ref("b")).width(W) == 8
    assert Shift("shl", 3, Ref("b")).width(W) == 4
    assert Not(Ref("b")).width(W) == 4
    assert Slice(5, 2, Ref("a")).width(W) == 4
    assert Concat((Ref("a"), Ref("b"))).width(W) == 12
    assert Mux(Ref("s"), Ref("b"), Ref("b")).width(W) == 4


def test_width_errors():
    with pytest.raises(WidthMismatchError):
        Mux(Ref("a"), Ref("b"), Ref("b")).width(W)  # selector not 1 bit
    with pytest.raises(WidthMismatchError):
        Mux(Ref("s"), Ref("a"), Ref("b")).width(W)
    with pytest.raises(WidthMismatchError):
        Slice(8, 0, Ref("a")).width(W)
    with pytest.raises(WidthMismatchError):
        Const(16, 4)


def test_eval_masks_to_result_width():
    # the benchmark's oracle, which never imports pipeforge, evaluates the
    # s-expressions; a shift past every bit is pinned in test_sim.py, as the
    # oracle builds the unmasked value first
    def ev(e, values):
        return oracle._eval(e.to_sexpr(), values, W)

    v = {"a": 0xFF, "b": 0xF}
    assert ev(BinOp("add", Ref("a"), Ref("b")), v) == (0xFF + 0xF) & 0xFF
    assert ev(BinOp("sub", Ref("b"), Ref("a")), v) == (0xF - 0xFF) & 0xFF
    assert ev(Shift("shl", 1, Ref("b")), v) == 0xE
    assert ev(Shift("shr", 2, Ref("a")), v) == 0x3F
    assert ev(Shift("shl", 8, Ref("a")), v) == 0
    assert ev(Shift("shr", 10**12, Ref("a")), v) == 0
    assert ev(Not(Ref("b")), v) == 0
    assert ev(Slice(3, 0, Ref("a")), v) == 0xF
    assert ev(Concat((Ref("b"), Ref("a"))), v) == 0xFFF
    assert ev(Mux(Ref("s"), Ref("a"), Not(Ref("a"))), {"s": 1, **v}) == 0xFF
    assert ev(Mux(Ref("s"), Ref("a"), Not(Ref("a"))), {"s": 0, **v}) == 0


def test_sexpr_round_trip():
    e = BinOp("xor", BinOp("add", Shift("shl", 1, Ref("x")), Ref("y")),
              BinOp("mul", Ref("x"), Ref("y")))
    assert from_sexpr(e.to_sexpr()) == e
    # bare strings are reference shorthand
    assert from_sexpr(["add", "x", "y"]) == BinOp("add", Ref("x"), Ref("y"))
    assert from_sexpr("x") == Ref("x")
    assert from_sexpr(["const", 5, 4]) == Const(5, 4)
    assert from_sexpr(["cat", "a", "b"]) == Concat((Ref("a"), Ref("b")))


def test_sexpr_malformed():
    with pytest.raises(ValueError):
        from_sexpr(["add", "x"])
    with pytest.raises(ValueError):
        from_sexpr(["frob", "x", "y"])
    with pytest.raises(ValueError):
        from_sexpr([])
    with pytest.raises(ValueError):
        from_sexpr(7)


def test_map_refs():
    e = BinOp("add", Ref("x"), Not(Ref("y")))
    assert map_refs(e, {"x": "zx", "y": "zy"}) == BinOp(
        "add", Ref("zx"), Not(Ref("zy")))

"""Shared fixtures: reference pipelines, a random corpus drawn from the
benchmark's spec generator (``perfbench/specgen.py``, whose ``oracle``
evaluates the documents without pipeforge) and an independent path oracle
(brute-force path enumeration)."""

from __future__ import annotations

import os
import random
import sys

import pytest

import pipeforge as pf
from pipeforge.expr import BinOp, Ref

DATA = os.path.join(os.path.dirname(__file__), "data")
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import specgen  # noqa: E402


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


# -- reference pipeline -----------------------------------------------------


def build_running(xor_delay: int = 0, with_e: bool = False,
                  name: str = "run") -> pf.SyncGraph:
    """z = (2x + y) xor (x * y), optionally with a pass-through signal e and
    a multi-cycle final stage."""
    inputs = [("x", 8), ("y", 8)] + ([("e", 4)] if with_e else [])
    b = pf.pipe_new(inputs, name)
    mul = b.split("mul")
    b.add_step(mul, pf.StepBody.reg(
        "mul", [("mulXY", 16, BinOp("mul", Ref("x"), Ref("y")))]))
    b.add_step(b.main, pf.StepBody.reg(
        "addA", [("sumXY", 8, BinOp("add", Ref("x"), Ref("y")))]))
    b.add_step(b.main, pf.StepBody.reg(
        "addB", [("sum2XY", 8, BinOp("add", Ref("sumXY"), Ref("x")))]))
    b.merge(mul)
    body = [("z", 16, BinOp("xor", Ref("sum2XY"), Ref("mulXY")))]
    if xor_delay:
        b.add_step(b.main, pf.StepBody.delay("xor", xor_delay, body))
    else:
        b.add_step(b.main, pf.StepBody.wire("xor", body))
    outs = [("z_out", "z")] + ([("e_out", "e")] if with_e else [])
    b.drive_output(outs)
    return b.build()


def golden_running(x: int, y: int) -> int:
    return ((2 * x + y) & 0xFF) ^ ((x * y) & 0xFFFF)


# -- independent oracles ----------------------------------------------------


def brute_force_path_sums(graph: pf.SyncGraph, src: str, dst: str) -> list[int]:
    """All structural-path latency sums src -> dst by naive DFS enumeration."""
    edges: dict[str, list[tuple[str, int]]] = {}
    for r in graph.relations:
        if r.kind in (pf.RelationKind.STEP, pf.RelationKind.MERGE):
            edges.setdefault(r.source, []).append((r.sink, r.latency))
    sums: list[int] = []

    def dfs(z: str, acc: int):
        if z == dst:
            sums.append(acc)
            return
        for nxt, lat in edges.get(z, []):
            dfs(nxt, acc + lat)

    dfs(src, 0)
    return sums


def implemented_latency(graph: pf.SyncGraph, zone: str, signal: str) -> int:
    """Latency from the declaration to the given slot along the implemented
    feed chain."""
    slot = graph.zones[zone].slots[signal]
    if slot.fed_from is None:
        return 0
    src, lat = slot.fed_from
    return lat + implemented_latency(graph, src, signal)


def pending_count(graph: pf.SyncGraph) -> int:
    """The slots still waiting for a resolution."""
    return sum(s.status is pf.SignalStatus.PENDING_LOCAL
               for z in graph.zones.values() for s in z.slots.values())


# -- random corpus ----------------------------------------------------------


@pytest.fixture(scope="session")
def random_specs() -> list[dict]:
    """The random corpus's JSON documents, for ``oracle``: 200 pipelines of
    up to 11 steps, up to three branches split off main at once, look-backs
    of up to 10 signals, wire, register and 2-4 cycle delay steps, and
    three widths of 1-12 bits.  Pipeline ``p{i}`` has the ith shape drawn
    from one seeded RNG and content seed ``i``."""
    rng = random.Random(20260826)
    docs = []
    for i in range(200):
        shape = specgen.Shape(
            steps=rng.randint(1, 11), max_branches=3,
            lookback=rng.randint(1, 10),
            latency_mix=((0, 30), (1, 45), (None, 25)), delay_range=(2, 4),
            widths=tuple(rng.sample(range(1, 13), 3)), segment=3)
        docs.append(specgen.generate(f"p{i}", shape, i))
    return docs


@pytest.fixture(scope="session")
def random_corpus(random_specs) -> list[pf.SyncGraph]:
    return [pf.graph_from_spec(doc) for doc in random_specs]

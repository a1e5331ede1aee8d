"""Seeded pipeline descriptions in pipeforge's JSON format.

A description is a main branch that from time to time splits into up to
``max_branches`` parallel branches, which all merge back into main a few
main steps later.  Each step defines one or two signals whose expressions
read signals among the last ``lookback`` visible to that step, so long
look-backs become deep missing relations.

Two random streams make a description.  The *skeleton* depends only on the
shape and the pipeline's name: where branches split and merge, each step's
latency, each signal's width and which earlier signals each step reads.
The *seed* draws the operations: operators, slice offsets and shift
amounts.  Seeds therefore change the function a pipeline computes, and the
values the simulator sees, but not the hardware's shape, so every seed
costs the same; the same name, shape and seed give the same document.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass

OPS = ("add", "sub", "xor", "and", "or", "mul", "not", "shl", "shr", "mux",
       "cat", "slice")
INPUTS = 3
SPLIT_CHANCE = 0.25  # per main step, of opening a split there


@dataclass(frozen=True)
class Shape:
    steps: int
    max_branches: int
    lookback: int
    # (latency, weight) pairs; latency None stands for a delay step, whose
    # latencies run evenly over delay_range
    latency_mix: tuple[tuple[int | None, int], ...]
    delay_range: tuple[int, int] = (2, 3)
    widths: tuple[int, ...] = (16,)
    segment: int = 4  # most steps a branch, or main, takes inside one split


def _latencies(rng: random.Random, shape: Shape) -> list[int]:
    """``shape.steps`` latencies in the exact proportions of the mix."""
    n, mix = shape.steps, shape.latency_mix
    total = sum(w for _, w in mix)
    counts = [n * w // total for _, w in mix]
    by_remainder = sorted(range(len(mix)), key=lambda i: -(n * mix[i][1] % total))
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    delays = itertools.cycle(range(shape.delay_range[0], shape.delay_range[1] + 1))
    out = [next(delays) if lat is None else lat
           for (lat, _), c in zip(mix, counts) for _ in range(c)]
    rng.shuffle(out)
    return out


def _skeleton(shape: Shape, rng: random.Random) -> list[tuple]:
    """Events in chronological order: ("split", names), ("step", branch,
    latency, defines) and ("merge", names)."""
    latencies = iter(_latencies(rng, shape))
    events: list[tuple] = []
    done, branches = 0, 0
    after_merge = False
    while done < shape.steps:
        left = shape.steps - done
        # a split at the position of the previous merge would be replayed
        # before that merge, so main takes a step in between
        if (shape.max_branches and not after_merge and left >= 2
                and rng.random() < SPLIT_CHANCE):
            k = rng.randint(1, min(shape.max_branches, left - 1))
            names = [f"b{branches + j}" for j in range(k)]
            branches += k
            counts = {nm: rng.randint(1, shape.segment) for nm in names}
            counts["main"] = rng.randint(0, shape.segment)
            while sum(counts.values()) > left:
                big = max(counts, key=lambda nm: counts[nm] - (nm != "main"))
                counts[big] -= 1
            plan = [nm for nm, n in counts.items() for _ in range(n)]
            rng.shuffle(plan)
            events.append(("split", names))
            for br in plan:
                events.append(("step", br, next(latencies),
                               1 + (rng.random() < 0.25)))
            events.append(("merge", names))
            done += len(plan)
            after_merge = True
        else:
            events.append(("step", "main", next(latencies),
                           1 + (rng.random() < 0.25)))
            done += 1
            after_merge = False
    return events


class _Content:
    """Step expressions: operands from the skeleton, operations from the
    seed.  Every expression draws exactly two operands, and a mux selects on
    the newest visible signal, so the skeleton's draws do not depend on the
    seed's."""

    def __init__(self, shape: Shape, skel: random.Random, rng: random.Random):
        self.shape = shape
        self.skel = skel
        self.rng = rng
        self.widths: dict[str, int] = {}
        self.distances: list[int] = []

    def operand(self, pool: list[str]) -> str:
        # look-back distances run through 1..lookback evenly
        if not self.distances:
            self.distances = list(range(1, self.shape.lookback + 1))
            self.skel.shuffle(self.distances)
        return pool[-min(self.distances.pop(), len(pool))]

    def fit(self, sig: str, width: int):
        """An expression over ``sig`` that is exactly ``width`` bits wide."""
        have = self.widths[sig]
        if have == width:
            return sig
        if have > width:
            lo = self.rng.randint(0, have - width)
            return ["slice", lo + width - 1, lo, sig]
        cat = ["cat"] + [sig] * math.ceil(width / have)
        return cat if width % have == 0 else ["slice", width - 1, 0, cat]

    def expr(self, pool: list[str], width: int):
        rng = self.rng
        a, b = self.operand(pool), self.operand(pool)
        op = rng.choice(OPS)
        if op in ("xor", "sub") and a == b:
            op = "add"  # x ^ x and x - x are constant
        ea, eb = self.fit(a, width), self.fit(b, width)
        if op in ("add", "sub", "xor", "and", "or"):
            return [op, ea, eb]
        if op == "mul":
            return ["slice", width - 1, 0, ["mul", ea, eb]]
        if op == "not":
            return ["add", ["not", ea], eb]
        if op in ("shl", "shr"):
            amount = rng.randint(1, width - 1) if width > 1 else 0
            return ["xor", [op, amount, ea], eb]
        if op == "mux":
            return ["mux", ["slice", 0, 0, pool[-1]], ea, eb]
        if op == "cat":
            wa = max(1, width // 2)
            if width == wa:
                return ea
            return ["cat", self.fit(a, wa), self.fit(b, width - wa)]
        return ["xor", ea, eb]  # "slice": fit() already slices the operands


def generate(name: str, shape: Shape, seed: int) -> dict:
    """One pipeline description: ``name`` and ``shape`` fix its skeleton,
    ``seed`` its content."""
    skel = random.Random(f"{name}:skeleton")
    events = _skeleton(shape, skel)
    n_defines = sum(e[3] for e in events if e[0] == "step")
    widths = [shape.widths[i % len(shape.widths)] for i in range(n_defines)]
    skel.shuffle(widths)

    rng = random.Random(f"{name}:{seed}")
    c = _Content(shape, skel, rng)
    inputs = [{"name": f"in{i}", "width": shape.widths[i % len(shape.widths)]}
              for i in range(INPUTS)]
    for i in inputs:
        c.widths[i["name"]] = i["width"]
    main = [i["name"] for i in inputs]
    visible = {"main": main}
    own: dict[str, list[str]] = {}
    doc = {"name": name, "inputs": inputs, "branches": [], "steps": [],
           "merges": []}
    main_pos = n_signals = 0
    for e in events:
        if e[0] == "split":
            for nm in e[1]:
                doc["branches"].append({"name": nm, "from": f"main@{main_pos}"})
                visible[nm], own[nm] = list(main), []
        elif e[0] == "merge":
            for nm in e[1]:
                del visible[nm]
                main += own.pop(nm)
            doc["merges"].append({"branch": e[1], "into": "main", "at": main_pos})
        else:
            _, br, latency, count = e
            pool = visible[br][-shape.lookback:]
            defines = []
            for _ in range(count):
                sig, width = f"v{n_signals}", widths.pop()
                n_signals += 1
                defines.append({"name": sig, "width": width,
                                "expr": c.expr(pool, width)})
                c.widths[sig] = width
            step = {"name": f"s{len(doc['steps'])}",
                    "kind": _kind(latency), "defines": defines}
            doc["steps"].append(step if br == "main" else {"branch": br, **step})
            names = [d["name"] for d in defines]
            visible[br] += names
            if br != "main":
                own[br] += names
            main_pos += br == "main"
    doc["outputs"] = [{"name": f"o{i}", "from": s}
                      for i, s in enumerate(_outputs(doc, main))]
    return doc


def _kind(latency: int):
    if latency == 0:
        return "wire"
    if latency == 1:
        return "reg"
    return {"delay": latency}


def _outputs(doc: dict, main: list[str]) -> list[str]:
    """The two newest signals on main, plus the first input passed straight
    through: the longest missing relation, and an output that always shows
    an impulse after exactly the pipeline's depth."""
    inputs = [i["name"] for i in doc["inputs"]]
    return [s for s in main if s not in inputs][-2:] + inputs[:1]


def write(doc: dict, directory: str) -> str:
    path = os.path.join(directory, f"{doc['name']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path

"""Cycle-accurate netlist interpreter used as the verification oracle.

Two-phase evaluation per cycle: combinational cells settle in topological
order (sequential outputs count as cycle-start constants), then sequential
state updates, gated by the global enable under ready/valid.  Two-valued
simulation; reset is synchronous and active-high, registers come up in
their reset state.  Each combinational cell is compiled once per simulation
into a closure with its widths and masks resolved, so a cycle only calls it.

``measured_latency`` warms a netlist up for as long as its own longest
sequential path into the outputs, found in one walk over the nets; a net
that feeds back into itself through sequential cells never settles, and is
reported as an error rather than measured.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .errors import NoResponseError, PortMismatchError, SimulationError
from .netlist import CombCell, CounterCell, DelayCell, FifoCell, Netlist, comb_order
from .protocol import Protocol


@dataclass
class Stimulus:
    cycles: int
    # per-cycle input values: list of dicts, or a callable cycle -> dict;
    # missing ports read as 0 (in_valid defaults to 1 under ready/valid)
    inputs: list[dict] | Callable[[int], dict] | None = None
    sink_ready: list[int] | Callable[[int], int] | None = None
    reset_cycles: int = 1
    watch: tuple[str, ...] = ()

    def __post_init__(self):
        if self.cycles < self.reset_cycles:
            raise SimulationError("stimulus shorter than its reset")

    def input_at(self, cycle: int) -> dict:
        if self.inputs is None:
            return {}
        if callable(self.inputs):
            return self.inputs(cycle)
        if cycle < len(self.inputs):
            return self.inputs[cycle]
        return {}

    def ready_at(self, cycle: int) -> int:
        if self.sink_ready is None:
            return 1
        if callable(self.sink_ready):
            return 1 if self.sink_ready(cycle) else 0
        return 1 if self.sink_ready[cycle] else 0


@dataclass
class Trace:
    ports: list[str]
    widths: dict[str, int]
    samples: list[dict] = field(default_factory=list)
    accepted_inputs: list[dict] = field(default_factory=list)
    accepted_outputs: list[dict] = field(default_factory=list)

    def to_csv(self) -> str:
        cols = ["cycle"] + self.ports
        lines = [",".join(cols)]
        for i, s in enumerate(self.samples):
            lines.append(",".join([str(i)] + [str(s.get(p, 0)) for p in cols[1:]]))
        return "\n".join(lines) + "\n"

    def to_vcd(self, timescale: str = "1ns") -> str:
        ids = {p: chr(33 + i) for i, p in enumerate(self.ports)}
        out = [f"$timescale {timescale} $end", "$scope module top $end"]
        for p in self.ports:
            out.append(f"$var wire {self.widths.get(p, 1)} {ids[p]} {p} $end")
        out += ["$upscope $end", "$enddefinitions $end"]
        prev: dict[str, int] = {}
        for i, s in enumerate(self.samples):
            out.append(f"#{i}")
            for p in self.ports:
                v = s.get(p, 0)
                if prev.get(p) != v:
                    out.append(f"b{v:b} {ids[p]}")
                    prev[p] = v
        return "\n".join(out) + "\n"


class _State:
    """Sequential state between cycles.

    Each delay line is a ring of ``depth`` values.  Every sequential cell
    shares the one global enable, so all rings advance together and one
    count ``t`` of enabled cycles indexes them all: slot ``t % depth`` holds
    the value written ``depth`` cycles ago, and is overwritten next.
    """

    def __init__(self, netlist: Netlist, watch: tuple[str, ...] = ()):
        self.netlist = netlist
        self.delays = [c for c in netlist.cells if isinstance(c, DelayCell)]
        self.fifos = [c for c in netlist.cells if isinstance(c, FifoCell)]
        self.counters = [c for c in netlist.cells if isinstance(c, CounterCell)]
        cells = comb_order(netlist)
        self.comb_order = [(c.out, c.expr.compile(netlist.nets)) for c in cells]
        # stage nets are only computed where something reads them
        read = set(watch)
        for c in cells:
            read |= c.expr.refs()
        for c in self.delays:
            read.add(c.inp)
        for c in self.fifos:
            read |= {c.inp, c.write_en, c.read_en}
        # (ring index, delay k, stage net)
        self.stage_taps = [(i, k, net) for i, c in enumerate(self.delays)
                           for k, net in enumerate(c.stages, 1) if net in read]
        self.reset()

    def reset(self):
        self.t = 0
        self.rings = [[0] * c.depth for c in self.delays]
        self.fifo_q: dict[str, deque] = {c.out: deque() for c in self.fifos}
        self.fifo_out = {c.out: 0 for c in self.fifos}
        self.cnt_v = {c.count: c.init for c in self.counters}

    def settle(self, inputs: dict) -> dict:
        values = dict(inputs)
        t = self.t
        for c, ring in zip(self.delays, self.rings):
            values[c.out] = ring[t % c.depth]
        for i, k, net in self.stage_taps:
            ring = self.rings[i]
            values[net] = ring[(t - k) % len(ring)]
        for c in self.fifos:
            q = self.fifo_q[c.out]
            values[c.out] = self.fifo_out[c.out]
            values[c.full] = 1 if len(q) >= c.capacity else 0
            values[c.empty] = 1 if not q else 0
        for c in self.counters:
            values[c.count] = self.cnt_v[c.count]
            values[c.zero] = 1 if self.cnt_v[c.count] == 0 else 0
        for out, fn in self.comb_order:
            values[out] = fn(values)
        return values

    def update(self, values: dict, in_reset: bool) -> None:
        if in_reset:
            self.reset()
            return
        if self.netlist.enable is not None and not values[self.netlist.enable]:
            return
        t = self.t
        for c, ring in zip(self.delays, self.rings):
            ring[t % c.depth] = values[c.inp]
        self.t = t + 1
        for c in self.fifos:
            q = self.fifo_q[c.out]
            if values[c.read_en]:
                if not q:
                    raise SimulationError(f"FIFO {c.out!r} read while empty")
                self.fifo_out[c.out] = q.popleft()
            if values[c.write_en]:
                if len(q) >= c.capacity:
                    raise SimulationError(f"FIFO {c.out!r} write while full")
                q.append(values[c.inp])
        for c in self.counters:
            if self.cnt_v[c.count] > 0:
                self.cnt_v[c.count] -= 1


def simulate(netlist: Netlist, stim: Stimulus) -> Trace:
    rv = netlist.protocol is Protocol.READY_VALID
    in_ports = [n for n, _ in netlist.inputs]
    out_ports = [n for n, _ in netlist.outputs]
    for p in stim.watch:
        if p not in netlist.nets:
            raise SimulationError(f"watched net {p!r} does not exist")
    ports = in_ports + out_ports + [p for p in stim.watch
                                    if p not in in_ports + out_ports]
    trace = Trace(ports, {p: netlist.nets[p] for p in ports})
    state = _State(netlist, stim.watch)
    data_ports = [p for p in in_ports if p not in ("in_valid", "out_ready")]
    for cycle in range(stim.cycles):
        given = stim.input_at(cycle)
        inputs = {p: given.get(p, 0) for p in data_ports}
        if rv:
            inputs["in_valid"] = given.get("in_valid", 1)
            inputs["out_ready"] = stim.ready_at(cycle)
        values = state.settle(inputs)
        trace.samples.append({p: values[p] for p in ports})
        in_reset = cycle < stim.reset_cycles
        if rv and not in_reset:
            if values["in_valid"] and values["in_ready"]:
                trace.accepted_inputs.append(
                    {p: values[p] for p in data_ports})
            if values["out_valid"] and values["out_ready"]:
                trace.accepted_outputs.append(
                    {p: values[p] for p in out_ports
                     if p not in ("out_valid", "in_ready")})
        state.update(values, in_reset)
    return trace


def _settle_time(netlist: Netlist, nets: list[str]) -> int:
    """Longest sequential path into ``nets``, in enabled cycles.

    Inputs and constants settle at 0, a combinational net at the latest of
    the nets it reads, a delay line's kth net k cycles after its input, a
    FIFO's nets ``capacity + 1`` cycles after the latest of its input and
    enables, and a startup counter's nets at its ``init``.  So once the
    inputs have held still this long after reset, ``nets`` hold still too.
    Walks only the nets that ``nets`` depend on, in one depth-first pass.
    """
    feeds: dict[str, tuple[tuple[str, ...], int]] = {}
    for c in netlist.cells:
        if isinstance(c, CombCell):
            feeds[c.out] = (tuple(c.expr.refs()), 0)
        elif isinstance(c, DelayCell):
            feeds[c.out] = ((c.inp,), c.depth)
            for k, net in enumerate(c.stages, 1):
                feeds[net] = ((c.inp,), k)
        elif isinstance(c, FifoCell):
            fifo = ((c.inp, c.write_en, c.read_en), c.capacity + 1)
            feeds[c.out] = feeds[c.full] = feeds[c.empty] = fifo
        else:
            feeds[c.count] = feeds[c.zero] = ((), c.init)
    settle: dict[str, int] = {}
    entered: set[str] = set()  # on the stack below its unsettled sources
    stack = list(nets)
    while stack:
        net = stack[-1]
        if net in settle:
            stack.pop()
            continue
        srcs, delay = feeds.get(net, ((), 0))
        if net not in entered:
            entered.add(net)
            todo = [n for n in srcs if n not in settle]
            if any(n in entered for n in todo):
                raise SimulationError(
                    f"net {net!r} feeds back into itself, so it never settles")
            if todo:
                stack.extend(todo)
                continue
        stack.pop()
        settle[net] = max((settle[n] for n in srcs), default=0) + delay
    return max((settle[n] for n in nets), default=0)


def measured_latency(netlist: Netlist, seed: int = 0) -> int:
    """Input-to-output delay of a raw netlist, measured with an impulse.

    Warms the pipeline with zeros, applies a one-cycle random stimulus and
    returns the delay until any output first deviates from its settled
    value; retries with fresh values if the function happens to be
    insensitive to the draw.  The warm-up is the netlist's own longest
    sequential path into the outputs, so it needs no planned latency.
    """
    if netlist.protocol is not Protocol.RAW:
        raise SimulationError("latency measurement applies to raw netlists")
    rng = random.Random(seed)
    out_ports = [n for n, _ in netlist.outputs]
    warm = _settle_time(netlist, out_ports) + 8
    for _ in range(20):
        impulse = {n: rng.randrange(1, 1 << w) for n, w in netlist.inputs}
        stim = Stimulus(
            cycles=2 * warm + 2,
            inputs=lambda c, imp=impulse: imp if c == warm else {},
        )
        trace = simulate(netlist, stim)
        settled = trace.samples[warm - 1]
        for c in range(warm, len(trace.samples)):
            if any(trace.samples[c][p] != settled[p] for p in out_ports):
                return c - warm
    raise NoResponseError("output never responded to any impulse")


@dataclass
class Verdict:
    ok: bool
    detail: str = ""


def _ready_schedule(rng: random.Random, cycles: int, duty: float,
                    ready_cycles: int) -> list[int]:
    """``cycles`` sink-ready bits drawn at ``duty``, then more drawn the same
    way until ``ready_cycles`` of them are set."""
    bits = [1 if rng.random() < duty else 0 for _ in range(cycles)]
    ready = sum(bits)
    while ready < ready_cycles:
        bits.append(1 if rng.random() < duty else 0)
        ready += bits[-1]
    return bits


def _stream_latency(netlist: Netlist, seed: int) -> int:
    """Enabled cycles from a transaction in to its result out: measured on
    a raw netlist, the depth of the valid chain under ready/valid."""
    if netlist.protocol is Protocol.RAW:
        return measured_latency(netlist, seed)
    return _settle_time(netlist, ["out_valid"])


def _stream_outputs(netlist: Netlist, data: list[dict], rng: random.Random,
                    cycles: int, latency: int) -> list[dict]:
    """Feed a transaction stream and return the output transaction stream.

    Raw netlists consume one transaction per cycle and outputs are aligned
    by ``latency``; ready/valid netlists get a randomly stalling sink (the
    kth value is presented until the kth enabled cycle accepts it), ready
    long enough for every transaction to come out ``latency`` enabled
    cycles after it went in.
    """
    out_ports = [n for n, _ in netlist.outputs
                 if n not in ("out_valid", "in_ready")]
    reset = 1
    if netlist.protocol is Protocol.RAW:
        stim = Stimulus(
            cycles=reset + len(data) + latency,
            inputs=[{}] * reset + data,
        )
        trace = simulate(netlist, stim)
        return [{p: trace.samples[reset + k + latency][p] for p in out_ports}
                for k in range(len(data))]
    duty = 0.1 + 0.8 * rng.random()
    ready = [0] * reset + _ready_schedule(rng, cycles, duty,
                                          len(data) + latency)
    # acceptance cycles are known upfront: in_ready mirrors out_ready
    per_cycle: list[dict] = []
    k = 0
    for c in range(len(ready)):
        per_cycle.append(data[k] if k < len(data) else {"in_valid": 0})
        if ready[c] and k < len(data):
            k += 1
    trace = simulate(netlist, Stimulus(
        cycles=len(ready), inputs=per_cycle, sink_ready=ready,
        reset_cycles=reset))
    return trace.accepted_outputs


def check_equivalence(a: Netlist, b: Netlist, trials: int = 4,
                      seed: int = 0, cycles: int = 400) -> Verdict:
    """Compare two lowerings of the same pipeline on matched random streams.

    Port interfaces must agree up to the handshake ports; transaction
    streams (aligned per netlist) must be identical.
    """
    def data_iface(n: Netlist):
        ins = [(p, w) for p, w in n.inputs if p not in ("in_valid", "out_ready")]
        outs = [(p, w) for p, w in n.outputs if p not in ("out_valid", "in_ready")]
        return ins, outs

    if data_iface(a) != data_iface(b):
        raise PortMismatchError(
            f"port interfaces differ: {data_iface(a)} vs {data_iface(b)}")
    ins, _ = data_iface(a)
    lat_a, lat_b = _stream_latency(a, seed), _stream_latency(b, seed)
    rng = random.Random(seed)
    for trial in range(trials):
        n = max(16, cycles // 4)
        data = [{p: rng.randrange(0, 1 << w) for p, w in ins} for _ in range(n)]
        out_a = _stream_outputs(a, data, random.Random(rng.randrange(1 << 30)),
                                cycles, lat_a)
        out_b = _stream_outputs(b, data, random.Random(rng.randrange(1 << 30)),
                                cycles, lat_b)
        m = min(len(out_a), len(out_b))
        if m < 4:
            return Verdict(False, f"trial {trial}: too few outputs ({m})")
        for k in range(m):
            if out_a[k] != out_b[k]:
                return Verdict(False,
                               f"trial {trial}: transaction {k} differs: "
                               f"{out_a[k]} vs {out_b[k]}")
    return Verdict(True)

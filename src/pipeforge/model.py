"""Synchronization model: pipeline builder and the TimeZone/Relation graph.

A pipeline is recorded as an explicitly scheduled list of steps on branches
(split/merge), then elaborated into a :class:`SyncGraph`: a DAG of TimeZones
(groups of mutually synchronized signals) connected by Relations carrying a
latency.  Downstream by-name reads of non-local signals become pending slots
with *missing* (unknown-latency) equivalent relations, which the resolution
algorithms in :mod:`pipeforge.resolve` implement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import (
    BranchClosedError,
    CycleDetectedError,
    DuplicateSignalError,
    MissingLatencyError,
    NoPathError,
    PipeforgeError,
    SelfMergeError,
    UnbalancedPathsError,
    UnknownSignalError,
    WidthMismatchError,
    ZeroWidthError,
)
from .expr import Expr

INIT_ZONE = "_init_"


class SignalStatus(enum.Enum):
    PENDING_LOCAL = "pending_local"
    DECLARED_LOCAL_USE = "declared_local_use"
    DECLARED_UNUSED = "declared_unused"
    PROPAGATED = "propagated"
    CONNECTED_EXTERNAL = "connected_external"


class ZoneKind(enum.Enum):
    INPUT = "input"
    STEP = "step"
    MERGE = "merge"
    OUTPUT = "output"


class RelationKind(enum.Enum):
    STEP = "step"          # structural edge created by a pipeline step
    MERGE = "merge"        # structural inbound edge of a merge zone
    EQUIVALENT = "equivalent"  # missing relation implied by a downstream read
    TRANSITIVE = "transitive"  # hop-by-hop implementation (p2p / exhaustive)
    DIRECT = "direct"      # single direct implementation

STRUCTURAL_KINDS = (RelationKind.STEP, RelationKind.MERGE)


@dataclass(frozen=True)
class SignalDecl:
    name: str
    width: int
    declaring_zone: str


@dataclass
class Slot:
    """A signal's place in a zone; its width is ``SyncGraph.decls``'s."""
    signal: str
    status: SignalStatus
    # (source zone, latency) for propagated/carried slots; latency is None for
    # merge-carried slots until balancing fixes the merge edge.
    fed_from: tuple[str, int | None] | None = None


@dataclass
class Relation:
    source: str
    sink: str
    latency: int | None
    kind: RelationKind
    signals: list[str] = field(default_factory=list)

    @property
    def structural(self) -> bool:
        return self.kind in STRUCTURAL_KINDS


@dataclass
class TimeZone:
    id: str
    kind: ZoneKind
    slots: dict[str, Slot] = field(default_factory=dict)
    # the zone's structural relations, created with it and also listed in
    # SyncGraph.relations; every source precedes the zone in forward order
    inbound: list[Relation] = field(default_factory=list)
    # bit i set for the ith zone created when that zone is this one or has
    # a structural path into it; set once, when the zone is added
    upstream: int = 0


@dataclass(frozen=True)
class StepBody:
    """One pipeline step: new signals in a sink zone, computed from the source zone.

    ``latency`` encodes the step kind: 0 for a combinational wire stage, 1 for
    a registered stage, n >= 2 for a multi-cycle delay stage.
    """

    name: str
    latency: int
    defines: tuple[tuple[str, int, Expr], ...]
    reads: tuple[str, ...] = ()

    @classmethod
    def wire(cls, name, defines, reads=()):
        return cls(name, 0, tuple(defines), tuple(reads))

    @classmethod
    def reg(cls, name, defines, reads=()):
        return cls(name, 1, tuple(defines), tuple(reads))

    @classmethod
    def delay(cls, name, cycles, defines, reads=()):
        if cycles < 2:
            raise ValueError("delay steps take >= 2 cycles; use wire/reg instead")
        return cls(name, cycles, tuple(defines), tuple(reads))


@dataclass(frozen=True)
class MissingRelation:
    signal: str
    available_zone: str
    needing_zone: str
    depth: int
    width: int


@dataclass
class OutputSpec:
    zone: str
    mapping: list[tuple[str, str]]  # (port name, source signal)


@dataclass
class SyncGraph:
    name: str
    zones: dict[str, TimeZone] = field(default_factory=dict)
    relations: list[Relation] = field(default_factory=list)
    input_zone: str = INIT_ZONE
    outputs: list[OutputSpec] = field(default_factory=list)
    steps: dict[str, StepBody] = field(default_factory=dict)
    decls: dict[str, SignalDecl] = field(default_factory=dict)

    # -- basic accessors ---------------------------------------------------

    @property
    def output_zones(self) -> list[str]:
        return [o.zone for o in self.outputs]

    def copy(self) -> "SyncGraph":
        """Copy zones, slots, relations and outputs field by field; steps,
        decls and ``fed_from`` tuples are immutable and shared."""
        rels: dict[int, Relation] = {}

        def rel(r: Relation) -> Relation:
            # one copy per relation, so each zone's inbound holds the very
            # relations listed in the copy's relations
            c = rels.get(id(r))
            if c is None:
                c = rels[id(r)] = Relation(r.source, r.sink, r.latency, r.kind,
                                           list(r.signals))
            return c

        relations = [rel(r) for r in self.relations]
        zones = {}
        for z, zone in self.zones.items():
            zones[z] = TimeZone(
                zone.id, zone.kind,
                {k: Slot(s.signal, s.status, s.fed_from)
                 for k, s in zone.slots.items()},
                [rel(r) for r in zone.inbound], zone.upstream)
        return SyncGraph(
            self.name, zones, relations, self.input_zone,
            [OutputSpec(o.zone, list(o.mapping)) for o in self.outputs],
            self.steps, self.decls)

    # -- ordering ----------------------------------------------------------

    def forward_order(self) -> list[str]:
        """Zone ids in elaboration order: a topological order that visits
        split-off branches before continuing the splitting branch."""
        order = list(self.zones)
        index = {z: i for i, z in enumerate(order)}
        for rel in self.relations:
            if rel.structural and index[rel.source] >= index[rel.sink]:
                raise CycleDetectedError(
                    f"relation {rel.source} -> {rel.sink} violates forward order")
        return order

    # -- latency arithmetic ------------------------------------------------

    def path_sums(self, src: str) -> dict[str, set[int]]:
        """All structural-path latency sums from src to every zone it reaches,
        in one pass over the zones in forward order."""
        if src not in self.zones:
            raise NoPathError(f"unknown zone {src!r}")
        sums: dict[str, set[int]] = {src: {0}}
        unset: list[Relation] = []
        for z, zone in self.zones.items():
            for rel in zone.inbound:
                if rel.source not in sums:
                    continue
                acc = sums.setdefault(z, set())
                if rel.latency is None:
                    unset.append(rel)
                else:
                    acc.update(s + rel.latency for s in sums[rel.source])
        if unset:  # the unset edge a walk in forward order meets first
            order = list(self.zones)
            rel = min(unset, key=lambda r: order.index(r.source))
            raise MissingLatencyError(
                f"relation {rel.source} -> {rel.sink} has no latency yet")
        return sums

    def depths(self) -> dict[str, int]:
        """Latency from the input zone to every zone (requires balanced merges)."""
        sums = self.path_sums(self.input_zone)
        return {z: single_latency(sums, self.input_zone, z) for z in self.zones}

    def reaches(self, a: str, b: str) -> bool:
        """Whether zone a is zone b or has a structural path into it."""
        return not self.zones[a].upstream & ~self.zones[b].upstream

    # -- missing relations -------------------------------------------------

    def missing_relations(self) -> list[MissingRelation]:
        """Characterize every pending slot as (signal, available, needing, depth).

        The available zone is the nearest upstream zone holding the signal,
        counting both the declaration and prior (pending or propagated) uses;
        ties break on forward-order position.  Requires balanced merges.
        """
        depths = self.depths()
        holders: dict[str, list[str]] = {}  # in forward order
        for z, zone in self.zones.items():
            for sig in zone.slots:
                holders.setdefault(sig, []).append(z)
        out: list[MissingRelation] = []
        for z, zone in self.zones.items():
            for slot in zone.slots.values():
                if slot.status is not SignalStatus.PENDING_LOCAL:
                    continue
                cands = [a for a in holders[slot.signal]
                         if a != z and self.reaches(a, z)]
                if not cands:
                    raise UnknownSignalError(slot.signal, z)
                # max keeps the first of equals: the latest in forward order
                best = max(reversed(cands), key=depths.__getitem__)
                out.append(MissingRelation(
                    signal=slot.signal,
                    available_zone=best,
                    needing_zone=z,
                    depth=depths[z] - depths[best],
                    width=self.decls[slot.signal].width,
                ))
        return out


def single_latency(sums: dict[str, set[int]], src: str, dst: str) -> int:
    """The one latency from src to dst given ``path_sums(src)``."""
    got = sums.get(dst)
    if not got:
        raise NoPathError(f"no path from {src!r} to {dst!r}")
    if len(got) > 1:
        raise UnbalancedPathsError(
            f"paths {src!r} -> {dst!r} disagree: {sorted(got)}")
    return next(iter(got))


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


@dataclass
class _Branch:
    name: str
    items: list = field(default_factory=list)
    closed: bool = False
    # set while the recorded program is replayed by build()
    tip: str | None = None

    def _check_open(self):
        if self.closed:
            raise BranchClosedError(f"branch {self.name!r} is closed")


class PipeBuilder:
    """Records a pipeline description; :meth:`build` elaborates the graph.

    The builder is single-owner and single-threaded; the built graph is
    immutable by convention and safe to share read-only.
    """

    def __init__(self, input_signals: list[tuple[str, int]], name: str):
        self.name = name
        self._declared: dict[str, int] = {}
        self._step_names: set[str] = set()
        for sig, width in input_signals:
            if sig in self._declared:
                raise DuplicateSignalError(f"duplicate input signal {sig!r}")
            if width < 1:
                raise ZeroWidthError(f"input signal {sig!r} has width {width}")
            self._declared[sig] = width
        self._inputs = list(self._declared.items())
        self.main = _Branch("main")
        self._branches: dict[str, _Branch] = {"main": self.main}
        self._built = False

    # -- recording ---------------------------------------------------------

    def add_step(self, branch: _Branch, body: StepBody) -> _Branch:
        branch._check_open()
        if body.name in self._step_names or body.name == INIT_ZONE:
            raise PipeforgeError(f"duplicate step name {body.name!r}")
        for sig, width, _ in body.defines:
            if sig in self._declared:
                raise DuplicateSignalError(f"signal {sig!r} already declared")
            if width < 1:
                raise ZeroWidthError(f"signal {sig!r} has width {width}")
            self._declared[sig] = width
        self._step_names.add(body.name)
        branch.items.append(("step", body))
        return branch

    def split(self, branch_name: str, from_branch: _Branch | None = None) -> _Branch:
        parent = from_branch or self.main
        parent._check_open()
        if branch_name in self._branches:
            raise PipeforgeError(f"branch {branch_name!r} already exists")
        child = _Branch(branch_name)
        self._branches[branch_name] = child
        parent.items.append(("split", child))
        return child

    def merge(self, *branches: _Branch, into: _Branch | None = None) -> _Branch:
        target = into or self.main
        target._check_open()
        if not branches:
            raise PipeforgeError("merge needs at least one branch")
        for b in branches:
            if b is target:
                raise SelfMergeError(f"cannot merge branch {b.name!r} into itself")
            b._check_open()
        for b in branches:
            b.closed = True
        target.items.append(("merge", list(branches)))
        return target

    def drive_output(self, mapping: list[tuple[str, str]],
                     branch: _Branch | None = None) -> None:
        target = branch or self.main
        target._check_open()
        seen = set()
        for port, src in mapping:
            if port in seen:
                raise DuplicateSignalError(f"duplicate output port {port!r}")
            seen.add(port)
            if src not in self._declared:
                raise UnknownSignalError(src, "<output>")
        target.items.append(("output", list(mapping)))
        target.closed = True

    # -- elaboration -------------------------------------------------------

    def build(self) -> SyncGraph:
        if self._built:
            raise PipeforgeError("build() may only be called once")
        self._built = True
        for b in self._branches.values():
            if not b.closed:
                raise PipeforgeError(
                    f"branch {b.name!r} is neither merged nor driven to an output")
        g = SyncGraph(name=self.name)
        init = _add_zone(g, TimeZone(INIT_ZONE, ZoneKind.INPUT))
        for sig, width in self._inputs:
            init.slots[sig] = Slot(sig, SignalStatus.CONNECTED_EXTERNAL)
            g.decls[sig] = SignalDecl(sig, width, INIT_ZONE)
        self._walk(g, self.main, INIT_ZONE)
        if not g.outputs:
            raise PipeforgeError("pipeline has no output")
        return g

    def _walk(self, g: SyncGraph, branch: _Branch, tip: str) -> None:
        # a split-off branch is walked to its end before its parent goes on;
        # the stack holds the branches still part-way through their items
        branch.tip = tip
        stack = [(branch, iter(branch.items))]
        while stack:
            branch, items = stack[-1]
            for kind, payload in items:
                if kind == "split":
                    payload.tip = branch.tip
                    stack.append((payload, iter(payload.items)))
                    break
                if kind == "step":
                    branch.tip = self._emit_step(g, branch.tip, payload)
                elif kind == "merge":
                    branch.tip = self._emit_merge(g, branch.tip, payload)
                elif kind == "output":
                    self._emit_output(g, branch.tip, payload)
            else:
                stack.pop()

    def _emit_step(self, g: SyncGraph, tip: str, body: StepBody) -> str:
        zone = _add_zone(g, TimeZone(body.name, ZoneKind.STEP, inbound=[
            Relation(tip, body.name, body.latency, RelationKind.STEP,
                     signals=[s for s, _, _ in body.defines])]))
        g.steps[body.name] = body
        for r in body.reads:
            self._resolve_read(g, tip, r, body.name)
        local: set[str] = set()
        for sig, width, expr in body.defines:
            for r in sorted(expr.refs() - local):
                self._resolve_read(g, tip, r, body.name)
            got = expr.width(self._declared)
            if got != width:
                raise WidthMismatchError(
                    f"{body.name}:{sig} declared {width} bits but its "
                    f"expression has {got}")
            if body.latency == 0:
                # chained combinational defines within one wire step may read
                # each other in definition order
                local.add(sig)
            zone.slots[sig] = Slot(sig, SignalStatus.DECLARED_UNUSED)
            g.decls[sig] = SignalDecl(sig, width, body.name)
        return body.name

    def _emit_merge(self, g: SyncGraph, tip: str, branches: list[_Branch]) -> str:
        first = branches[0]
        last_step = first.name
        for kind, payload in reversed(first.items):
            if kind == "step":
                last_step = payload.name
                break
        zid = f"merged_{first.name}_{last_step}"
        zone = TimeZone(zid, ZoneKind.MERGE)
        tips: list[str] = []
        for b in branches:
            if b.tip is None:
                raise PipeforgeError(f"branch {b.name!r} merged before being split")
            if b.tip not in tips:
                tips.append(b.tip)
        if tip not in tips:
            tips.append(tip)
        for t in tips:
            carried = [s.signal for s in g.zones[t].slots.values()
                       if s.status is not SignalStatus.PENDING_LOCAL
                       and s.signal not in zone.slots]
            zone.inbound.append(Relation(t, zid, None, RelationKind.MERGE,
                                         signals=carried))
            for sig in carried:
                zone.slots[sig] = Slot(sig, SignalStatus.PROPAGATED,
                                       fed_from=(t, None))
        _add_zone(g, zone)
        return zid

    def _emit_output(self, g: SyncGraph, tip: str, mapping: list[tuple[str, str]]):
        if g.zones[tip].kind is ZoneKind.INPUT:
            zid = "out"
            n = 2
            while zid in g.zones:
                zid = f"out{n}"
                n += 1
            srcs = []
            for _, src in mapping:
                self._resolve_read(g, tip, src, zid)
                if src not in srcs:
                    srcs.append(src)
            zone = _add_zone(g, TimeZone(zid, ZoneKind.OUTPUT, inbound=[
                Relation(tip, zid, 0, RelationKind.STEP, signals=srcs)]))
            for src in srcs:
                zone.slots[src] = Slot(src, SignalStatus.PROPAGATED,
                                       fed_from=(tip, 0))
            g.outputs.append(OutputSpec(zid, list(mapping)))
        else:
            for _, src in mapping:
                self._resolve_read(g, tip, src, tip)
            g.outputs.append(OutputSpec(tip, list(mapping)))

    def _resolve_read(self, g: SyncGraph, source_zone: str, name: str,
                      requiring_zone: str) -> None:
        zone = g.zones[source_zone]
        if name in zone.slots:
            slot = zone.slots[name]
            if slot.status is SignalStatus.DECLARED_UNUSED:
                slot.status = SignalStatus.DECLARED_LOCAL_USE
            return
        decl = g.decls.get(name)
        if decl is None or not g.reaches(decl.declaring_zone, source_zone):
            raise UnknownSignalError(name, requiring_zone)
        zone.slots[name] = Slot(name, SignalStatus.PENDING_LOCAL)
        g.relations.append(Relation(
            decl.declaring_zone, source_zone, None, RelationKind.EQUIVALENT,
            signals=[name]))


def _add_zone(g: SyncGraph, zone: TimeZone) -> TimeZone:
    """Record a new zone together with its inbound relations, and set its
    upstream mask from theirs."""
    if zone.id in g.zones:
        raise PipeforgeError(f"duplicate zone {zone.id!r}")
    zone.upstream = 1 << len(g.zones)
    for rel in zone.inbound:
        zone.upstream |= g.zones[rel.source].upstream
    g.zones[zone.id] = zone
    g.relations.extend(zone.inbound)
    return zone


def pipe_new(input_signals: list[tuple[str, int]], name: str) -> PipeBuilder:
    """Create a pipeline builder with an ``_init_`` input zone."""
    return PipeBuilder(input_signals, name)

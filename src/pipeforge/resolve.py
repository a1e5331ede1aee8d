"""Graph resolution: merge balancing, propagation algorithms, validation.

Three algorithms implement the missing relations of a built graph:

* exhaustive forward: every zone receives every upstream signal, used or not
* peer-to-peer backward: placeholders hop zone-by-zone upstream until found
* direct backward: one direct relation from the nearest availability

All three preserve per-signal end-to-end latencies; they differ in how many
intermediate slots (and therefore how much hardware) they create.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

from .errors import NoPathError, UnknownSignalError
from .model import (
    Relation,
    RelationKind,
    SignalStatus,
    Slot,
    SyncGraph,
    ZoneKind,
    single_latency,
)

INFINITE = math.inf


class ShiftregMode(enum.Enum):
    AUTO = "auto"
    FORCE_REG = "force_reg"
    FORCE_SRL = "force_srl"


@dataclass(frozen=True)
class PrimitivePolicy:
    depth_threshold: float = INFINITE  # finite values must be >= 2
    width_threshold: float = INFINITE  # finite values must be >= 1
    shiftreg_mode: ShiftregMode = ShiftregMode.AUTO

    def __post_init__(self):
        d, w = self.depth_threshold, self.width_threshold
        if d != INFINITE and (int(d) != d or d < 2):
            raise ValueError(f"depth threshold must be an integer >= 2, got {d}")
        if w != INFINITE and (int(w) != w or w < 1):
            raise ValueError(f"width threshold must be an integer >= 1, got {w}")


def direct_auto() -> PrimitivePolicy:
    return PrimitivePolicy()


def direct_force_reg() -> PrimitivePolicy:
    return PrimitivePolicy(shiftreg_mode=ShiftregMode.FORCE_REG)


def direct_force_srl() -> PrimitivePolicy:
    return PrimitivePolicy(shiftreg_mode=ShiftregMode.FORCE_SRL)


def direct_fifo(depth_threshold: int, width_threshold: int) -> PrimitivePolicy:
    return PrimitivePolicy(depth_threshold, width_threshold)


# -- balancing --------------------------------------------------------------


def balance_merges(graph: SyncGraph) -> SyncGraph:
    """Set every merge edge's latency so all input->zone path sums agree.

    Compensation goes on the inbound merge edge itself (latency bump), never
    as extra zones; the longest inbound branch gets latency 0.
    """
    g = graph.copy()
    depths: dict[str, int] = {g.input_zone: 0}
    for z, zone in g.zones.items():
        if z == g.input_zone:
            continue
        inbound = zone.inbound
        if zone.kind is ZoneKind.MERGE:
            longest = max(depths[r.source] for r in inbound)
            for r in inbound:
                r.latency = longest - depths[r.source]
                for sig in r.signals:
                    zone.slots[sig].fed_from = (r.source, r.latency)
            depths[z] = longest
        else:
            depths[z] = depths[inbound[0].source] + inbound[0].latency
    return g


# -- resolution algorithms --------------------------------------------------


def _feed_relation(g: SyncGraph, cache: dict, source: str, sink: str,
                   latency: int, kind: RelationKind, signal: str) -> None:
    # every resolver feeds a (sink, signal) pair at most once, so the signal
    # is new to the relation
    rel = cache.get((source, sink))
    if rel is None:
        rel = Relation(source, sink, latency, kind)
        g.relations.append(rel)
        cache[(source, sink)] = rel
    rel.signals.append(signal)


def _drop_equivalents(g: SyncGraph) -> None:
    g.relations = [r for r in g.relations if r.kind is not RelationKind.EQUIVALENT]


def resolve_exhaustive_forward(graph: SyncGraph) -> SyncGraph:
    """Forward pass propagating every upstream signal into every zone,
    regardless of downstream usage."""
    g = graph.copy()
    pos = {z: i for i, z in enumerate(g.zones)}
    cache: dict = {}
    for z, zone in g.zones.items():
        if zone.kind is ZoneKind.INPUT:
            continue
        # at merges each signal is pulled from the inbound tip latest in
        # forward order; concurrent declarations are forbidden upstream so
        # every inbound copy of a signal carries the same value
        inbound = sorted(zone.inbound, key=lambda r: pos[r.source])
        for rel in inbound:
            for sig in g.zones[rel.source].slots:
                have = zone.slots.get(sig)
                if have is not None and have.status is not SignalStatus.PENDING_LOCAL:
                    continue
                if have is None:
                    zone.slots[sig] = have = Slot(sig, SignalStatus.PROPAGATED)
                have.status = SignalStatus.PROPAGATED
                have.fed_from = (rel.source, rel.latency)
                _feed_relation(g, cache, rel.source, z, rel.latency,
                               RelationKind.TRANSITIVE, sig)
    _drop_equivalents(g)
    return g


def _designated_pred(g: SyncGraph, inbound: list[Relation],
                     pos: dict[str, int], sig: str) -> Relation:
    # hop-by-hop requests go to the inbound source latest in forward order,
    # restricted to predecessors able to supply the signal (it is held there
    # already, or its declaring zone is upstream of them); the unrestricted
    # fallback lets a hopeless request walk to the input zone and fail there
    decl = g.decls.get(sig)
    able = [r for r in inbound
            if sig in g.zones[r.source].slots
            or (decl is not None and g.reaches(decl.declaring_zone, r.source))]
    return max(able or inbound, key=lambda r: pos[r.source])


def resolve_p2p_backward(graph: SyncGraph) -> SyncGraph:
    """Backward pass creating placeholder slots hop-by-hop upstream until a
    zone holding the signal is reached; only used signals are propagated."""
    g = graph.copy()
    pos = {z: i for i, z in enumerate(g.zones)}
    needs: dict[str, list[str]] = {}
    for z, zone in g.zones.items():
        pend = [s.signal for s in zone.slots.values()
                if s.status is SignalStatus.PENDING_LOCAL]
        if pend:
            needs[z] = pend
    cache: dict = {}
    for z in reversed(g.zones):
        for sig in needs.get(z, []):
            rel = _designated_pred(g, g.zones[z].inbound, pos, sig)
            src = g.zones[rel.source]
            if sig not in src.slots:
                if src.kind is ZoneKind.INPUT:
                    # the hop-by-hop request loses the original use site;
                    # only the last zone where the signal went missing is known
                    raise UnknownSignalError(sig, rel.source)
                src.slots[sig] = Slot(sig, SignalStatus.PROPAGATED)
                needs.setdefault(rel.source, []).append(sig)
            slot = g.zones[z].slots[sig]
            slot.status = SignalStatus.PROPAGATED
            slot.fed_from = (rel.source, rel.latency)
            _feed_relation(g, cache, rel.source, z, rel.latency,
                           RelationKind.TRANSITIVE, sig)
    _drop_equivalents(g)
    return g


def resolve_direct_backward(graph: SyncGraph,
                            policy: PrimitivePolicy | None = None) -> SyncGraph:
    """Implement each missing relation as one direct relation from the nearest
    availability (declaration or prior use); intermediate zones gain no slots.

    The policy is accepted for interface symmetry; primitive selection is a
    lowering concern and applied uniformly there.
    """
    del policy
    g = graph.copy()
    cache: dict = {}
    for mr in g.missing_relations():
        slot = g.zones[mr.needing_zone].slots[mr.signal]
        slot.status = SignalStatus.PROPAGATED
        slot.fed_from = (mr.available_zone, mr.depth)
        _feed_relation(g, cache, mr.available_zone, mr.needing_zone, mr.depth,
                       RelationKind.DIRECT, mr.signal)
    _drop_equivalents(g)
    return g


# -- validation -------------------------------------------------------------


@dataclass
class ValidationEntry:
    check: str
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    entries: list[ValidationEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[ValidationEntry]:
        return [e for e in self.entries if not e.ok]


def validate(graph: SyncGraph) -> ValidationReport:
    """Consistency report on a resolved graph; failures are entries, never
    exceptions."""
    rep = ValidationReport()

    missing = [f"{r.source}->{r.sink}" for r in graph.relations
               if r.latency is None or r.kind is RelationKind.EQUIVALENT]
    pending = [f"{z.id}:{s.signal}" for z in graph.zones.values()
               for s in z.slots.values()
               if s.status is SignalStatus.PENDING_LOCAL]
    rep.entries.append(ValidationEntry(
        "no_missing", not missing and not pending,
        "; ".join(missing + pending)))

    try:
        graph.forward_order()
        rep.entries.append(ValidationEntry("acyclic", True))
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        rep.entries.append(ValidationEntry("acyclic", False, str(exc)))
        return rep

    # depth of each zone whose input paths agree: for two such zones, every
    # src -> z path extends through one input -> src path to an input -> z
    # path, so it sums to depth[z] - depth[src]; a feed touching any other
    # zone takes a pass from its source, which names the paths that disagree
    depth: dict[str, int] = {}
    try:
        unbalanced = []
        for z, sums in graph.path_sums(graph.input_zone).items():
            if len(sums) > 1:
                unbalanced.append(f"{z}: {sorted(sums)}")
            else:
                depth[z] = next(iter(sums))
        rep.entries.append(ValidationEntry(
            "balanced", not unbalanced, "; ".join(unbalanced)))
    except Exception as exc:  # noqa: BLE001
        rep.entries.append(ValidationEntry("balanced", False, str(exc)))

    # relations per (source, sink, signal, latency) they could feed
    feeds: dict[tuple, int] = {}
    for r in graph.relations:
        for sig in set(r.signals):
            key = (r.source, r.sink, sig, r.latency)
            feeds[key] = feeds.get(key, 0) + 1
    sums_from: dict[str, dict[str, set[int]]] = {}
    bad_feeds = []
    for z in graph.zones.values():
        for slot in z.slots.values():
            if slot.status is not SignalStatus.PROPAGATED:
                continue
            if slot.fed_from is None:
                bad_feeds.append(f"{z.id}:{slot.signal} has no feed")
                continue
            src, lat = slot.fed_from
            n = feeds.get((src, z.id, slot.signal, lat), 0)
            if n != 1:
                bad_feeds.append(f"{z.id}:{slot.signal} fed by {n} relations")
                continue
            try:
                if src in depth and z.id in depth:
                    if not graph.reaches(src, z.id):
                        raise NoPathError(f"no path from {src!r} to {z.id!r}")
                    want = depth[z.id] - depth[src]
                else:
                    if src not in sums_from:
                        sums_from[src] = graph.path_sums(src)
                    want = single_latency(sums_from[src], src, z.id)
            except Exception as exc:  # noqa: BLE001
                bad_feeds.append(f"{z.id}:{slot.signal}: {exc}")
                continue
            if lat != want:
                bad_feeds.append(
                    f"{z.id}:{slot.signal} latency {lat} != equivalent {want}")
    rep.entries.append(ValidationEntry(
        "feed_latencies", not bad_feeds, "; ".join(bad_feeds)))
    return rep


# -- distribution report and threshold sweep --------------------------------


@dataclass
class DistributionRow:
    depth: int
    width: int
    counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class DistributionReport:
    pipelines: list[str]
    rows: list[DistributionRow]

    def to_tsv(self) -> str:
        lines = ["depth\twidth\tpipeline\tcount\ttotal"]
        for row in self.rows:
            for name in self.pipelines:
                n = row.counts.get(name, 0)
                if n:
                    lines.append(f"{row.depth}\t{row.width}\t{name}\t{n}\t{row.total}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "pipelines": self.pipelines,
            "rows": [{"depth": r.depth, "width": r.width, "counts": r.counts,
                      "total": r.total} for r in self.rows],
        }, indent=2) + "\n"


def report_distribution(graphs: list[tuple[str, SyncGraph]],
                        min_depth: int = 0) -> DistributionReport:
    """Group missing relations of balanced graphs by (depth, width) with
    per-pipeline occurrence counts."""
    acc: dict[tuple[int, int], dict[str, int]] = {}
    names: list[str] = []
    for name, g in graphs:
        if name not in names:
            names.append(name)
        for mr in g.missing_relations():
            if mr.depth < min_depth:
                continue
            counts = acc.setdefault((mr.depth, mr.width), {})
            counts[name] = counts.get(name, 0) + 1
    rows = [DistributionRow(d, w, acc[(d, w)]) for d, w in sorted(acc)]
    return DistributionReport(names, rows)


def sweep_thresholds(graph: SyncGraph) -> list[tuple[float, float]]:
    """Candidate (depth, width) threshold pairs partitioning the missing
    relations differently, plus the (infinite, infinite) baseline.

    Candidates come from the cross product of observed depths >= 2 and
    observed widths, deduplicated by identical FIFO/register partitioning;
    the representative of each partition is its smallest (D, W) pair.  A
    candidate selecting nothing still counts: it differs from the baseline by
    intent, not by effect, and gets its own synthesis run.
    """
    mrs = graph.missing_relations()
    depths = sorted({m.depth for m in mrs if m.depth >= 2})
    widths = sorted({m.width for m in mrs})
    seen: dict[frozenset[int], tuple[float, float]] = {}
    for d_thr in depths:
        for w_thr in widths:
            part = frozenset(i for i, m in enumerate(mrs)
                             if m.depth >= d_thr and m.width >= w_thr)
            if part not in seen:
                seen[part] = (d_thr, w_thr)
    out = sorted(seen.values())
    out.append((INFINITE, INFINITE))
    return out

"""Graphviz DOT rendering of a synchronization graph at any stage.

Zones are table-shaped nodes listing their slots, colored by availability
status; edges show latency (or "?" while unresolved) and are styled by
relation kind.  Set PIPEFORGE_COLOR=0 to force a monochrome rendering
(styles are kept, colors dropped).
"""

from __future__ import annotations

import html
import os

from .model import RelationKind, SignalStatus, SyncGraph

STATUS_COLORS = {
    SignalStatus.PENDING_LOCAL: "red",
    SignalStatus.DECLARED_LOCAL_USE: "green4",
    SignalStatus.DECLARED_UNUSED: "gray40",
    SignalStatus.PROPAGATED: "blue",
    SignalStatus.CONNECTED_EXTERNAL: "black",
}

EDGE_STYLES = {
    RelationKind.STEP: ("solid", "black"),
    RelationKind.MERGE: ("solid", "black"),
    RelationKind.EQUIVALENT: ("dashed", "red"),
    RelationKind.TRANSITIVE: ("dotted", "blue"),
    RelationKind.DIRECT: ("solid", "purple"),
}


def color_enabled() -> bool:
    v = os.environ.get("PIPEFORGE_COLOR", "").strip().lower()
    return v not in ("0", "no", "never", "off", "false")


def emit_dot(graph: SyncGraph) -> str:
    use_color = color_enabled()
    out = [f'digraph "{graph.name}" {{', "  rankdir=LR;", "  node [shape=plain];"]
    for zone in graph.zones.values():
        rows = [f'<TR><TD BGCOLOR="lightgray"><B>{html.escape(zone.id)}'
                f"</B></TD></TR>"]
        for slot in zone.slots.values():
            color = STATUS_COLORS[slot.status] if use_color else "black"
            rows.append(
                f'<TR><TD ALIGN="LEFT"><FONT COLOR="{color}">'
                f"{html.escape(slot.signal)} [{graph.decls[slot.signal].width}]"
                "</FONT></TD></TR>")
        table = ('<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0">'
                 + "".join(rows) + "</TABLE>")
        out.append(f'  "{zone.id}" [label=<{table}>];')
    for rel in graph.relations:
        style, color = EDGE_STYLES[rel.kind]
        if not use_color:
            color = "black"
        label = "?" if rel.latency is None else str(rel.latency)
        out.append(
            f'  "{rel.source}" -> "{rel.sink}" '
            f'[label="[{label}]", style={style}, color={color}];')
    out.append("}")
    return "\n".join(out) + "\n"

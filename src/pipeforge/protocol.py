"""Protocol signaling plans: none (raw) or ready/valid with uniform backpressure.

Ready/valid adds a 1-bit valid chain clocked along the pipeline and a single
ready net driven by the output.  Backpressure is uniform: ready low freezes
every sequential element (data registers, valid registers, FIFO pointers and
startup counters) through one shared clock-enable, which is only sound
because merges are statically balanced and there is a single output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import MultiOutputBackpressureError
from .model import SyncGraph


# the ports ready/valid adds to a netlist, so a ready/valid design may not
# declare them; every port of a raw netlist carries data
HANDSHAKE_INPUTS = ("in_valid", "out_ready")
HANDSHAKE_OUTPUTS = ("out_valid", "in_ready")


class Protocol(enum.Enum):
    RAW = "raw"
    READY_VALID = "ready_valid"


@dataclass(frozen=True)
class HandshakePlan:
    protocol: Protocol
    # valid at a zone is the input valid delayed by that zone's depth
    depths: dict[str, int]
    total_latency: int


def apply_protocol(graph: SyncGraph, protocol: Protocol) -> HandshakePlan:
    """Plan protocol signaling for a resolved graph.

    Raw pipelines get no ports; their FIFOs rely on startup counters instead
    (see :func:`pipeforge.netlist.lower`).  Ready/valid requires exactly one
    output zone, since a single ready net cannot arbitrate several sinks.
    """
    depths = graph.depths()
    outs = graph.output_zones
    if protocol is Protocol.READY_VALID and len(outs) != 1:
        raise MultiOutputBackpressureError(
            f"ready/valid needs exactly one output zone, got {len(outs)}")
    total = max(depths[z] for z in outs)
    return HandshakePlan(protocol, depths, total)

"""Pipeline elaboration framework.

Record an explicitly scheduled pipeline with the builder API (or a JSON
description), elaborate it into a synchronization graph, resolve omitted
signal propagations under a configurable strategy, then lower to a netlist
for Verilog/DOT emission and cycle-accurate simulation.
"""

from .errors import (
    BranchClosedError,
    ConfigError,
    CycleDetectedError,
    DuplicateSignalError,
    MissingLatencyError,
    MultiOutputBackpressureError,
    NoPathError,
    NoResponseError,
    PipeforgeError,
    PortMismatchError,
    SelfMergeError,
    SimulationError,
    UnbalancedPathsError,
    UnknownSignalError,
    WidthMismatchError,
    ZeroWidthError,
)
from .expr import BinOp, Concat, Const, Expr, Mux, Not, Ref, Shift, Slice, from_sexpr
from .model import (
    MissingRelation,
    PipeBuilder,
    Relation,
    RelationKind,
    SignalStatus,
    Slot,
    StepBody,
    SyncGraph,
    TimeZone,
    ZoneKind,
    pipe_new,
)
from .netlist import Netlist, lower, select_primitive
from .protocol import HandshakePlan, Protocol, apply_protocol
from .resolve import (
    INFINITE,
    DistributionReport,
    PrimitivePolicy,
    ShiftregMode,
    balance_merges,
    direct_auto,
    direct_fifo,
    direct_force_reg,
    direct_force_srl,
    report_distribution,
    resolve_direct_backward,
    resolve_exhaustive_forward,
    resolve_p2p_backward,
    sweep_thresholds,
    validate,
)
from .sim import (Stimulus, Trace, check_equivalence, equivalence_to,
                  measured_latency, simulate)
from .specfile import graph_from_spec, load_spec
from .verilog import EmitOptions, ShregAttr, emit_verilog
from .dot import emit_dot

__version__ = "0.1.0"

# ``terms`` is the equivalence checker's own, imported by ``sim``
__all__ = [name for name in dir()
           if not name.startswith("_") and name != "terms"]

"""DisTA core: the paper's contribution.

Inter-node, byte-granular dynamic taint tracking for (simulated)
Java-based distributed systems: JNI-level wrappers (§III-C), the
Global-ID wire formats (§III-D), the Taint Map service (Fig. 9), the
attachable agent (§V-E), and user-facing configuration.
"""

from repro.core.agent import (
    INSTRUMENTED_METHODS,
    DisTAAgent,
    InstrumentedMethod,
    instrumented_method_count,
)
from repro.core.extensions import ExtensionPoint, WrapperType
from repro.core.ha import (
    FailoverTaintMapClient,
    ReplicatedTaintMapServer,
    StandbyTaintMapServer,
)
from repro.core.trace import Crossing, CrossingTrace
from repro.core.config import AgentOptions, DisTAConfig, TaintSpec
from repro.core.launch import LaunchScript, all_launch_scripts, average_changed_loc
from repro.core.taintmap import (
    TaintMapClient,
    TaintMapServer,
    TaintMapStats,
    deserialize_tags,
    serialize_tags,
)
from repro.core.wire import (
    CELL_WIDTH,
    GID_WIDTH,
    CellDecoder,
    decode_packet,
    encode_cells,
    encode_packet,
    envelope_length,
    is_enveloped,
    max_data_for_wire,
    wire_length,
)
from repro.core.wrappers import DisTARuntime

__all__ = [
    "AgentOptions",
    "Crossing",
    "CrossingTrace",
    "ExtensionPoint",
    "FailoverTaintMapClient",
    "ReplicatedTaintMapServer",
    "StandbyTaintMapServer",
    "WrapperType",
    "CELL_WIDTH",
    "CellDecoder",
    "DisTAAgent",
    "DisTAConfig",
    "DisTARuntime",
    "GID_WIDTH",
    "INSTRUMENTED_METHODS",
    "InstrumentedMethod",
    "LaunchScript",
    "TaintMapClient",
    "TaintMapServer",
    "TaintMapStats",
    "TaintSpec",
    "all_launch_scripts",
    "average_changed_loc",
    "decode_packet",
    "deserialize_tags",
    "encode_cells",
    "encode_packet",
    "envelope_length",
    "instrumented_method_count",
    "is_enveloped",
    "max_data_for_wire",
    "serialize_tags",
    "wire_length",
]

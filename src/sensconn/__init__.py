"""Subgraph connectivity under a single batch of vertex on/off changes.

Preprocess a graph whose vertices are split into active and inactive, apply
one batch flipping vertex states, answer connectivity queries restricted to
active vertices, then roll back. Ships an activation-only engine with
bit-array preprocessing, a fully dynamic engine over pluggable decremental
oracles, a brute-force reachability reference, and a verification workbench.
"""

from .connectivity_oracle import (
    DecrementalOracle,
    RebuildOracle,
    make_oracle,
    oracle_names,
    register_oracle,
)
from .errors import (
    CapacityError,
    ContractViolation,
    ParseError,
    PhaseError,
    QueryEndpointError,
    SensConnError,
)
from .fully_dynamic_sensitivity import (
    DoublingFamily,
    FullyDynamicStructure,
    build_doubling,
    build_fully_dynamic,
    fd_query,
    fd_rollback,
    fd_update,
)
from .graph_core import (
    Graph,
    StatePartition,
    UpdateBatch,
    dump_graph,
    load_graph,
    parse_query_text,
    parse_update_text,
    reachable,
)
from .incremental_sensitivity import (
    IncrementalIndex,
    SuperGraph,
    build_incremental,
    incremental_query,
    incremental_update,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ContractViolation",
    "DecrementalOracle",
    "DoublingFamily",
    "FullyDynamicStructure",
    "Graph",
    "IncrementalIndex",
    "ParseError",
    "PhaseError",
    "QueryEndpointError",
    "RebuildOracle",
    "SensConnError",
    "StatePartition",
    "SuperGraph",
    "UpdateBatch",
    "build_doubling",
    "build_fully_dynamic",
    "build_incremental",
    "dump_graph",
    "fd_query",
    "fd_rollback",
    "fd_update",
    "incremental_query",
    "incremental_update",
    "load_graph",
    "make_oracle",
    "oracle_names",
    "parse_query_text",
    "parse_update_text",
    "reachable",
    "register_oracle",
]

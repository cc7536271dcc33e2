"""Deterministic hypergraph maximal matching and everything built on it.

The core pipeline turns a greedy fractional matching into an integral
maximal matching through defective-coloring based rounding, with exact
rational arithmetic and per-round cost accounting.  On top of it sit
(2*max_degree - 1)- and list-edge-coloring, maximal independent sets and
vertex coloring in graphs of bounded neighborhood independence,
(1+eps)-approximate maximum matching, bounded out-degree orientation,
and pseudo-forest decomposition.  Brute-force oracles verify every
stated approximation factor at small scale.
"""

from .apps import (
    Orientation,
    OrientationBoundError,
    PathBudgetError,
    approx_max_graph_matching,
    low_outdegree_orientation,
    pseudo_forest_decomposition,
    validate_orientation,
    validate_path_set,
    validate_pseudo_forest,
)
from .audit import audit_locality, ball
from .coloring import (
    VertexColoring,
    defective_coloring,
    defective_radius,
    linial_coloring,
    reduction_schedule,
)
from .core import (
    FractionalAssignment,
    Graph,
    Hypergraph,
    Verdict,
    build_fractional_assignment,
    build_graph,
    build_hypergraph,
    line_graph,
    validate_edge_coloring,
    validate_fractional_matching,
    validate_independent_set,
    validate_matching,
    validate_vertex_coloring,
)
from .edge_coloring import (
    EdgeColoringResult,
    HPartition,
    ListEdgeInstance,
    PeelingStallError,
    arboricity_edge_color,
    build_list_edge_instance,
    edge_color,
    h_partition,
    list_edge_color,
    randomized_edge_color,
    reduce_hypergraph_list_edge_coloring,
    validate_h_partition,
)
from .ledger import (
    RecurrenceCheck,
    RoundLedger,
    check_recurrence_bound,
    halving_depth,
)
from .oracles import (
    OracleAnswer,
    OverBudgetError,
    arboricity,
    enumerate_maximal_matchings,
    max_independent_set,
    max_matching,
    neighborhood_independence,
)
from .packing import (
    approx_mis,
    basic_round_packing,
    initial_packing,
    maximal_independent_set,
    recursive_round_packing,
    verify_greedy_packing,
    vertex_color,
)
from .rounding import (
    almost_maximal_matching,
    approx_max_matching,
    basic_round,
    greedy_doubling_step,
    greedy_fractional_matching,
    maximal_matching,
    recursive_round,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

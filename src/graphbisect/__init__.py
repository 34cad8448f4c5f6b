"""Noisy binary search on graphs by multiplicative weight updates.

A hidden target vertex is located by repeatedly querying vertices; each
reply is either "you found it" or a neighbor on a shortest path toward the
target, and replies are wrong with probability p < 1/2. Queries go to exact
or sampled weighted medians, replies downweight inconsistent vertices, and
the answer is the vertex charged with the fewest lies.
"""

from .graph import (
    DisconnectedGraphError,
    GRAPH_KINDS,
    Graph,
    build_graph,
    consistent_mask,
    consistent_set,
    generate,
    load_edge_list,
    save_edge_list,
)
from .harness import (
    ExperimentSpec,
    ResultRow,
    bench_scaling,
    run_experiment,
    summarize,
    write_csv,
)
from .oracle import AdversarialOracle, NoisyOracle
from .potential import (
    branch_weights,
    exact_median,
    heavy_vertex,
    is_near_median,
    median_report,
    phi,
    phi_all,
    worst_branch_weight,
)
from .sampling import Sample
from .strategy import (
    POLICIES,
    SearchProtocolError,
    SearchTranscript,
    StrategyConfig,
    derive_config,
    local_search,
    run_search,
)
from .verify import run_verification
from .weights import WeightState

__version__ = "0.1.0"

__all__ = [
    "DisconnectedGraphError",
    "GRAPH_KINDS",
    "Graph",
    "build_graph",
    "consistent_mask",
    "consistent_set",
    "generate",
    "load_edge_list",
    "save_edge_list",
    "ExperimentSpec",
    "ResultRow",
    "bench_scaling",
    "run_experiment",
    "summarize",
    "write_csv",
    "AdversarialOracle",
    "NoisyOracle",
    "branch_weights",
    "exact_median",
    "heavy_vertex",
    "is_near_median",
    "median_report",
    "phi",
    "phi_all",
    "worst_branch_weight",
    "Sample",
    "POLICIES",
    "SearchProtocolError",
    "SearchTranscript",
    "StrategyConfig",
    "derive_config",
    "local_search",
    "run_search",
    "run_verification",
    "WeightState",
]

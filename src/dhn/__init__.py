"""Multidimensional Hopfield networks for graph clustering and embedding.

The core model is a recurrent network whose neurons carry d-dimensional state
rows.  With the one-hot classification activation its serial dynamics is
greedy multi-way cut descent (and, on modularity weights, the first phase of
the Louvain method); with the orthonormal-frame projection its parallel
dynamics generalizes power-method spectral bisection to d coupled directions;
with row normalization it reproduces neighbor-propagation graph embeddings.
"""

from .clustering import (
    Clustering,
    ExtendedGraph,
    InstanceTooLargeError,
    KappaPolicy,
    WeightedGraph,
    brute_force_min_dcut,
    build_extended_graph,
    canonical_extension,
    clustering_from_matrix,
    clustering_to_matrix,
    d_cut_value,
    d_cut_via_trace,
    kappa_policy,
    stable_states_census,
    validate_clustering_matrix,
)
from .core import (
    Activation,
    ConvergenceCriterion,
    DhnNetwork,
    Outcome,
    RunReport,
    WeightMatrix,
    classify_rows,
    energy,
    energy_delta,
    l2_normalize_rows,
    parallel_step,
    run_parallel,
    run_serial,
    serial_step,
    stiefel_project,
)
from .embedding import run_cleora, write_embedding
from .io import EdgeListParseError, RunConfig, load_edge_list, write_edge_list
from .modularity import (
    DegenerateGraphError,
    DegenerateSpectrumError,
    ModularityMatrix,
    build_lms_network,
    louvain_update,
    modularity_matrix,
    modularity_score,
    newman_bisect,
    power_method,
    run_lms,
    run_plms,
)
from .stiefel import run_gnm, run_gnm_plus_lms, run_sgnm

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "Clustering",
    "ConvergenceCriterion",
    "DegenerateGraphError",
    "DegenerateSpectrumError",
    "DhnNetwork",
    "EdgeListParseError",
    "ExtendedGraph",
    "InstanceTooLargeError",
    "KappaPolicy",
    "ModularityMatrix",
    "Outcome",
    "RunConfig",
    "RunReport",
    "WeightMatrix",
    "WeightedGraph",
    "brute_force_min_dcut",
    "build_extended_graph",
    "build_lms_network",
    "canonical_extension",
    "classify_rows",
    "clustering_from_matrix",
    "clustering_to_matrix",
    "d_cut_value",
    "d_cut_via_trace",
    "energy",
    "energy_delta",
    "kappa_policy",
    "l2_normalize_rows",
    "load_edge_list",
    "louvain_update",
    "modularity_matrix",
    "modularity_score",
    "newman_bisect",
    "parallel_step",
    "power_method",
    "run_cleora",
    "run_gnm",
    "run_gnm_plus_lms",
    "run_lms",
    "run_parallel",
    "run_plms",
    "run_serial",
    "run_sgnm",
    "serial_step",
    "stable_states_census",
    "stiefel_project",
    "validate_clustering_matrix",
    "write_edge_list",
    "write_embedding",
]

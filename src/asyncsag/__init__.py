"""Fully asynchronous distributed policy evaluation via saddle-point
averaged gradients, with an exact linear-system replay for verification."""

from __future__ import annotations

from .graph import (DirectedGraph, diameter, generate_topology,
                    is_strongly_connected, load_edge_list)
from .mdp import (Mdp, Transition, build_random_mdp, make_feature_map,
                  partition_samples, random_policy, sample_trajectory,
                  stationary_distribution)
from .mspbe import (ProblemSpec, SampleStats, SpectralConstants, aggregate,
                    saddle_gradient, solve_problem, solve_saddle,
                    spectral_constants)
from .protocol import (Message, NodeState, PayloadTable, SampleSelector,
                       activate, init_node, selector_rng)
from .simulator import (ActivationSchedule, AssumptionViolation, DelayModel,
                        EventTrace, estimate_rate, metrics, run_async,
                        verify_assumption1b, write_metrics_csv)
from .augmented import (AugmentedState, EventMatrices, RateConstants,
                        SparseMatrix, build_event_matrices, check_equivalence,
                        product_contraction, rate_constants, replay,
                        tracking_residual)

__version__ = "0.1.0"

__all__ = [
    "DirectedGraph", "diameter", "generate_topology", "is_strongly_connected",
    "load_edge_list",
    "Mdp", "Transition", "build_random_mdp", "make_feature_map",
    "partition_samples", "random_policy", "sample_trajectory",
    "stationary_distribution",
    "ProblemSpec", "SampleStats", "SpectralConstants", "aggregate",
    "saddle_gradient", "solve_problem", "solve_saddle", "spectral_constants",
    "Message", "NodeState", "PayloadTable", "SampleSelector", "activate",
    "init_node",
    "selector_rng",
    "ActivationSchedule", "AssumptionViolation", "DelayModel", "EventTrace",
    "estimate_rate", "metrics", "run_async", "verify_assumption1b",
    "write_metrics_csv",
    "AugmentedState", "EventMatrices", "RateConstants", "SparseMatrix",
    "build_event_matrices", "check_equivalence", "product_contraction",
    "rate_constants", "replay", "tracking_residual",
    "__version__",
]

"""Empirical testing of the spectral inequality lambda1^2 + lambda2^2 <=
2 e(G) (1 - 1/omega(G)) on named graphs and seeded G(n,p) samples, with the
supporting closed-form bounds, thresholds, and tail estimates."""

from .bounds import (
    BoundParams,
    ThresholdReport,
    admissible_p_max,
    clique_asymptote,
    envelope_sides,
    envelope_thresholds,
    fk_lambda2_bound,
    hoeffding_edge_tail,
    juhasz_expected_lambda1,
    theorem_lower_bound,
)
from .clique import CliqueResult, is_clique, max_clique
from .errors import CapacityError, ConvergenceError, ParseError, UncertifiedCliqueError
from .experiment import (
    EventTriple,
    InequalityCheck,
    MonteCarloConfig,
    MonteCarloReport,
    TrialRow,
    check_conjecture,
    check_proof_events,
    run_monte_carlo,
)
from .graph import (
    GnpParams,
    Graph,
    derive_trial_seed,
    read_edge_list,
    sample_gnp,
    write_edge_list,
)
from .spectral import SpectralSummary, adjacency_matrix, top_two

__version__ = "0.1.0"

__all__ = [
    "BoundParams",
    "CapacityError",
    "CliqueResult",
    "ConvergenceError",
    "EventTriple",
    "GnpParams",
    "Graph",
    "InequalityCheck",
    "MonteCarloConfig",
    "MonteCarloReport",
    "ParseError",
    "SpectralSummary",
    "ThresholdReport",
    "TrialRow",
    "UncertifiedCliqueError",
    "adjacency_matrix",
    "admissible_p_max",
    "check_conjecture",
    "check_proof_events",
    "clique_asymptote",
    "derive_trial_seed",
    "envelope_sides",
    "envelope_thresholds",
    "fk_lambda2_bound",
    "hoeffding_edge_tail",
    "is_clique",
    "juhasz_expected_lambda1",
    "max_clique",
    "read_edge_list",
    "run_monte_carlo",
    "sample_gnp",
    "theorem_lower_bound",
    "top_two",
    "write_edge_list",
]

"""Non-uniform hypergraph stochastic block models.

Sampling, recovery-threshold computation, two-stage community recovery
(agnostic and with known parameters), community counting, and a seeded
Monte Carlo experiment harness.
"""

from .compositions import (
    capacity,
    num_weak_compositions,
    weak_compositions,
)
from .divergence import (
    DivergenceReport,
    PairDivergence,
    chernoff_hellinger,
    classify_regime,
)
from .errors import ConvergenceError, DegenerateDegreeError, InsufficientSampleError
from .harness import (
    ExperimentConfig,
    GridPoint,
    LayerSpec,
    SweepSpec,
    TrialRecord,
    emit_csv,
    grid_points,
    parse_config,
    parse_csv,
    phase_sweep,
    read_config,
    run_trial,
)
from .model import (
    Hypergraph,
    ProbabilityTensors,
    adjacency_matrix,
    make_hypergraph,
    max_expected_degree,
    read_hypergraph,
    read_membership,
    sample_hypergraph,
    sample_membership,
    two_level_coefficients,
    validate_prior,
    write_hypergraph,
    write_membership,
)
from .pipeline import (
    CommunityCountEstimate,
    RecoveryReport,
    agnostic_partition,
    estimate_num_communities,
    mismatch_ratio,
    partition_with_prior,
)
from .refinement import (
    EstimatedTensors,
    Split,
    agnostic_refine,
    edge_type_count_matrix,
    estimate_tensors,
    map_correct,
    refine_step,
    split,
)
from .spectral import (
    LowRankApprox,
    default_radius,
    keep_by_degree_cap,
    keep_by_mean_degree,
    prior_degree_cap,
    radius_from_degree_scale,
    rank_k_approx,
    spectral_init,
    trim,
)

__version__ = "0.1.0"

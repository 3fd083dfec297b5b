"""Numerical laboratory for fractional moments of Green functions of
discretized random Schrodinger operators.

The pieces, roughly in dependency order: model assembly (grids, single
site potentials, disorder laws, background fields), residual-verified
shifted solves and block norms, Monte Carlo fractional-moment
estimation with common random numbers, the finite-volume localization
criterion with its decay cross-check, eigenfunction correlators, and a
validation layer of dense oracles.  The `fracmom` command line drives
configured experiments on top of these.
"""

from .config import ExperimentConfig, load_config, parse_config
from .criterion import (
    CriterionReport,
    DecayFit,
    ModifiedDistance,
    criterion_factor,
    estimate_raw_boundary_moment,
    fit_exponential_decay,
    verify_criterion_consistency,
)
from .errors import (
    ConfigError,
    DomainError,
    FracmomError,
    NumericalError,
    SolveError,
)
from .localization import (
    EigenWindow,
    eigenfunction_decay_rate,
    eigensolve_window,
    localization_center,
)
from .model import (
    BackgroundFields,
    DiscreteHamiltonian,
    GridSpec,
    LandauGauge,
    ModelConfig,
    SingleSiteProfile,
    disorder_law,
    ground_energy,
    indicator_set,
)
from .moments import (
    EpsilonSchedule,
    MomentEstimate,
    epsilon_scan,
    estimate_fractional_moment,
    holder_modulus,
    ladder_moments,
    sample_seed,
    scan_norms,
    scan_pair_norms,
)
from .records import ResultRecord, append_records, emit_plot_data, read_records
from .resolvent import (
    ShiftedSolver,
    SpectralShift,
    boundary_layer_indices,
)
from .validation import (
    DissipativeOperator,
    HSOperator,
    block_norm_oracle,
    oracle_compare,
    weak_l1_levelset_measure,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundFields",
    "ConfigError",
    "CriterionReport",
    "DecayFit",
    "DiscreteHamiltonian",
    "DissipativeOperator",
    "DomainError",
    "EigenWindow",
    "EpsilonSchedule",
    "ExperimentConfig",
    "FracmomError",
    "GridSpec",
    "HSOperator",
    "LandauGauge",
    "ModelConfig",
    "ModifiedDistance",
    "MomentEstimate",
    "NumericalError",
    "ResultRecord",
    "ShiftedSolver",
    "SingleSiteProfile",
    "SolveError",
    "SpectralShift",
    "append_records",
    "block_norm_oracle",
    "boundary_layer_indices",
    "criterion_factor",
    "disorder_law",
    "eigenfunction_decay_rate",
    "eigensolve_window",
    "emit_plot_data",
    "epsilon_scan",
    "estimate_fractional_moment",
    "estimate_raw_boundary_moment",
    "fit_exponential_decay",
    "ground_energy",
    "holder_modulus",
    "indicator_set",
    "ladder_moments",
    "load_config",
    "localization_center",
    "oracle_compare",
    "parse_config",
    "read_records",
    "sample_seed",
    "scan_norms",
    "scan_pair_norms",
    "verify_criterion_consistency",
    "weak_l1_levelset_measure",
]

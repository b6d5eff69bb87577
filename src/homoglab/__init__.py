"""homoglab: a numerical laboratory for stochastic homogenization.

Samples stationary random media, minimizes oscillatory convex energies,
computes effective integrands via representative-volume cell problems, and
runs convergence diagnostics (two-scale pairings, Young-measure clustering,
variance-regularization diagrams).
"""

from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .integrand import (
    FORM_DEGENERATE,
    FORM_P_DIRICHLET,
    GrowthReport,
    IntegrandSpec,
    MomentEstimate,
    density_gradient,
    evaluate_density,
    moment_estimate,
    verify_growth,
)
from .medium import (
    DiscreteValues,
    EnsembleSpec,
    ObservableSpec,
    Realization,
    UniformValues,
    birkhoff_average,
    eval_coefficient,
    observable_abs_moment,
    observable_expectation,
    periodize,
    sample_realization,
    shift,
)
from .meshing import DiscreteField, Mesh, build_mesh, lp_distance
from .solver import (
    CellResult,
    EffectiveValue,
    EnergyFunctional,
    MinimizeResult,
    assemble_energy,
    cell_problem,
    effective_integrand,
    minimize,
)
from .twoscale import (
    Dictionary,
    FieldRecipe,
    IsometryReport,
    PairingVector,
    YoungMeasureReport,
    build_dictionary,
    empirical_young_measure,
    limit_pairing,
    mean_pairing,
    metric_distance,
    quenched_pairing,
    sample_correctors,
    unfold_isometry_check,
)

__version__ = "0.1.0"

"""Ensemble data assimilation with a bridged Kalman/particle analysis step.

The update family is indexed by gamma in [0, 1]: gamma = 1 is a stochastic
ensemble Kalman filter update, gamma = 0 a bootstrap particle-filter update,
and intermediate values trade Gaussian bias against weight degeneracy.
Includes covariance tapering, adaptive gamma selection, two testbed models,
probabilistic scores, and a reproducible twin-experiment harness.
"""

from .bridge import UpdateDiagnostics, enkf_update, enkpf_update, pf_update
from .ensemble import (
    NO_TAPER,
    Ensemble,
    MomentEstimate,
    TaperSpec,
    gaspari_cohn,
    sample_moments,
    taper_matrix,
    tapered_covariance,
)
from .errors import DegenerateWeightsError, DivergenceError
from .gamma import (
    DEFAULT_GAMMA_GRID,
    GammaPolicy,
    select_gamma,
    weight_variance_asymptotic,
    weight_variance_exact,
)
from .mixture import (
    GaussianMixtureUpdate,
    PosteriorMixture,
    build_mixture,
    posterior_mixture,
    sample_update,
)
from .models import (
    KdVConfig,
    Lorenz96Config,
    kdv_initial,
    kdv_profile,
    kdv_propagate,
    kdv_truth,
    lorenz96_drift,
    lorenz96_initial,
    lorenz96_propagate,
)
from .observation import (
    LinearGaussianObservation,
    gaussian_innovation_loglik,
    kalman_gain,
    log_likelihood,
    scaled_gain,
)
from .resampling import balanced_resample, div, ess, normalized_weights, weights_from_log
from .rng import RngNode
from .scoring import crps, curvature, rmse
from .experiment import (
    CYCLES_HEADER,
    SUMMARY_HEADER,
    CycleRecord,
    ExperimentConfig,
    FilterSpec,
    ObservationScheme,
    StaticPriorConfig,
    SweepConfig,
    diversity_sweep,
    experiment_config_from_dict,
    load_experiment_config,
    load_sweep_config,
    read_cycles_csv,
    read_matrix_csv,
    run_experiment,
    static_prior_ensemble,
    static_prior_observation,
    summarize,
    write_matrix_csv,
    write_summary_csv,
    write_sweep_csv,
)

__version__ = "0.1.0"

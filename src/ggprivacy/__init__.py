"""Generalized Gaussian mechanisms with a sampled privacy-loss accountant.

The package covers the full loop: the noise family itself (`ggdist`), its
privacy-loss random variables (`prv`), a discretized Monte-Carlo accountant
with FFT composition and finite-sample error certificates (`accountant`),
calibration of noise scales to privacy targets (`calibrate`), ready-made
mechanisms including private argmax and clipped noisy SGD (`mechanisms`),
vote-histogram utility studies (`simulate`), and a CLI (`ggprivacy ...`).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .accountant import (DEFAULT_SEED, AccountantConfig, AccountResult,
                         CompositionLedger, DiscretePRV, ErrorBounds,
                         PrivacyCurve, account, compose, convolve_direct,
                         derive_rng, discretize_from_cdf,
                         discretize_from_samples, error_bounds)
from .calibrate import (FamilyPoint, FamilyResult, PrivacyTarget, SolveResult,
                        TailWeightPoint, TailWeightResult, equivalent_family,
                        family_from_csv, family_to_csv, solve_sigma,
                        tail_weight, tail_weights_to_csv)
from .errors import (AccountingInconsistencyError, BudgetExhaustedError,
                     ConfigError, ConstructionError, GGPrivacyError,
                     GridMismatchError, IngestionError, InputError,
                     ParameterError, RangeError, SolverError, TruncationError)
from .ggdist import (GGParams, absolute_moment, cdf, from_sigma_power, pdf,
                     quantile, sample, sample_inverse_cdf, sigma_power)
from .mechanisms import (LogisticModel, MLPModel, TrainConfig, TrainResult,
                         clip_rows, gg_mechanism, ggnmax, lbeta_clip,
                         load_dataset_csv, make_blobs, sgg_mechanism,
                         train_noisy_sgd)
from .prv import (LossDirection, MechanismSpec, directions_for,
                  gaussian_prv_cdf, laplace_prv_cdf, loss_function,
                  multidim_prv_sample, sample_prv, subsampled_loss_function)
from .simulate import (PateAccuracy, ResultRow, SimConfig, UtilityPoint,
                       VoteHistogram, auc_over_runner_up, build_histogram,
                       exact_two_class_utility, hardmax_utility,
                       histograms_from_csv, histograms_to_csv,
                       make_histograms, normalized_auc, pate_label_accuracy,
                       results_to_csv)

__all__ = [
    # accountant
    "DEFAULT_SEED", "AccountantConfig", "AccountResult", "CompositionLedger",
    "DiscretePRV", "ErrorBounds", "PrivacyCurve", "account", "compose",
    "convolve_direct", "derive_rng", "discretize_from_cdf",
    "discretize_from_samples", "error_bounds",
    # calibrate
    "FamilyPoint", "FamilyResult", "PrivacyTarget", "SolveResult",
    "TailWeightPoint", "TailWeightResult", "equivalent_family",
    "family_from_csv", "family_to_csv", "solve_sigma", "tail_weight",
    "tail_weights_to_csv",
    # errors
    "AccountingInconsistencyError", "BudgetExhaustedError", "ConfigError",
    "ConstructionError", "GGPrivacyError", "GridMismatchError",
    "IngestionError", "InputError", "ParameterError", "RangeError",
    "SolverError", "TruncationError",
    # ggdist
    "GGParams", "absolute_moment", "cdf", "from_sigma_power", "pdf",
    "quantile", "sample", "sample_inverse_cdf", "sigma_power",
    # mechanisms
    "LogisticModel", "MLPModel", "TrainConfig", "TrainResult", "clip_rows",
    "gg_mechanism", "ggnmax", "lbeta_clip", "load_dataset_csv", "make_blobs",
    "sgg_mechanism", "train_noisy_sgd",
    # prv
    "LossDirection", "MechanismSpec", "directions_for", "gaussian_prv_cdf",
    "laplace_prv_cdf", "loss_function", "multidim_prv_sample", "sample_prv",
    "subsampled_loss_function",
    # simulate
    "PateAccuracy", "ResultRow", "SimConfig", "UtilityPoint", "VoteHistogram",
    "auc_over_runner_up", "build_histogram", "exact_two_class_utility",
    "hardmax_utility", "histograms_from_csv", "histograms_to_csv",
    "make_histograms", "normalized_auc", "pate_label_accuracy",
    "results_to_csv",
]

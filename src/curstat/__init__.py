"""Nonparametric estimation from current status data.

Each observation is a pair (t, delta): an inspection time and the
indicator of whether the event had already happened by then.  The
package fits the event time distribution by the shape-constrained
maximum likelihood step estimator and derives smooth distribution,
density, and hazard estimates from it, with the matching bandwidth
theory and two data-driven bandwidth selectors.

Typical flow::

    sample = curstat.build_sample(records)        # (t, delta) rows
    mle = curstat.fit_mle(sample)                 # step distribution
    F = curstat.smle_F(mle, curstat.triweight(), h, t)

or through the ``curstat`` command-line tool.
"""

from .errors import (
    BadIndicator,
    CurstatError,
    DegenerateBias,
    DegenerateSupport,
    DensityFloorViolation,
    DomainError,
    EmptyGrid,
    EmptySample,
    GridTooCoarse,
    HazardDenominatorViolation,
    InputError,
    LengthMismatch,
    NegativeTime,
    NonpositiveBandwidth,
    NonpositiveWeight,
    OutOfDomain,
    PilotDegenerate,
    ZeroCensoringDensity,
)
from .kernels import (
    BoundaryKernelFamily,
    Kernel,
    boundary_family,
    triweight,
)
from .mle import (
    ObservedSample,
    StepDistribution,
    build_sample,
    fit_mle,
    pava_blocks,
)
from .smoothing import SmoothedMeasures, fit_smoothed
from .estimators import (
    F_CEILING,
    G_FLOOR,
    ConvexHullFit,
    fit_msle,
    msle_F,
    msle_f,
    msle_lambda,
    naive_F,
    naive_f,
    naive_lambda,
    smle_F,
    smle_f,
    smle_lambda,
)
from .bandwidth import (
    BandwidthPlan,
    BootstrapConfig,
    BootstrapSelection,
    MonteCarloSelection,
    amse,
    amse_optimal_c,
    bias_factor,
    bootstrap_bandwidth,
    mc_bandwidth,
    rate_exponent,
    variance_factor,
)
from .sim import (
    GeneratedSample,
    TruthSpec,
    sample_current_status,
    truth_gamma4_exp3,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CurstatError",
    "InputError",
    "DomainError",
    "NegativeTime",
    "BadIndicator",
    "EmptySample",
    "LengthMismatch",
    "NonpositiveWeight",
    "NonpositiveBandwidth",
    "GridTooCoarse",
    "EmptyGrid",
    "OutOfDomain",
    "DensityFloorViolation",
    "HazardDenominatorViolation",
    "DegenerateSupport",
    "DegenerateBias",
    "ZeroCensoringDensity",
    "PilotDegenerate",
    # kernels
    "Kernel",
    "BoundaryKernelFamily",
    "triweight",
    "boundary_family",
    # step MLE
    "ObservedSample",
    "StepDistribution",
    "build_sample",
    "fit_mle",
    "pava_blocks",
    # smoothed measures
    "SmoothedMeasures",
    "fit_smoothed",
    # estimators
    "G_FLOOR",
    "F_CEILING",
    "ConvexHullFit",
    "naive_F",
    "naive_f",
    "naive_lambda",
    "fit_msle",
    "msle_F",
    "msle_f",
    "msle_lambda",
    "smle_F",
    "smle_f",
    "smle_lambda",
    # bandwidth theory and selection
    "rate_exponent",
    "BandwidthPlan",
    "bias_factor",
    "variance_factor",
    "amse",
    "amse_optimal_c",
    "BootstrapConfig",
    "BootstrapSelection",
    "MonteCarloSelection",
    "bootstrap_bandwidth",
    "mc_bandwidth",
    # simulation truth
    "TruthSpec",
    "GeneratedSample",
    "truth_gamma4_exp3",
    "sample_current_status",
]

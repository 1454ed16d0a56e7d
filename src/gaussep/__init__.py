"""Separability of two-mode Gaussian states and the measurement schemes
that estimate it.

The core decides the Simon (PPT) criterion exactly from a covariance
matrix; the scheme modules simulate three ways of estimating the
ingredients from measurement statistics: five local observables, a
Stokes-like interferometric network with displaced squeezed thermal
references, and two-copy swap tests combined with one of three routes to
det C.
"""

from .core import (
    BlockDecomposition,
    GaussianState,
    SeparabilityReport,
    Verdict,
    block_decomposition,
    min_symplectic_eigenvalue,
    partial_trace,
    partial_transpose,
    project_to_valid,
    purity,
    simon_criterion,
    symplectic_eigenvalues,
    symplectic_form,
    tensor_product,
    validate,
    wigner_pdf,
)
from .exceptions import (
    AmbiguousRootError,
    ConditioningError,
    GaussepError,
    InsufficientShotsError,
    InvalidCovarianceError,
    InvalidStateError,
    SimonTypeMismatchError,
    UnsupportedModeCountError,
)
from .locc import CovarianceEstimate, EstimatedVerdict, FiveGroupPlan, run_scheme, verdict_from_estimate
from .sampling import MomentEstimate, ShotBatch, derive_rng, sample_wigner
from .states import (
    ReferenceMoments,
    ReferenceStateParams,
    displaced_squeezed_thermal,
    random_state,
    reference_moments,
    simon_form,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
)
from .stokes import (
    SingleModeNetwork,
    StokesConfig,
    StokesPipelineResult,
    TwoModeNetwork,
    expect_stokes,
    full_pipeline,
    propagated_expectations,
    sample_stokes,
)
from .transforms import (
    SymplecticTransform,
    apply_transform,
    beam_splitter_50_50,
    compose,
    displacement,
    embed,
    opa,
    phase_shifter,
    rotation_theta,
    single_mode_squeezer,
    two_mode_squeezer,
)
from .twocopy import (
    CMatrixEstimate,
    OpaParams,
    SwapTestResult,
    TwoCopyResult,
    assemble_verdict,
    method1_c,
    method2_det_c,
    method3_c,
    run_two_copy,
    swap_test,
)

__version__ = "0.1.0"

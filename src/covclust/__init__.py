"""covclust: thresholded covariance estimation and correlation-driven grouping.

The library covers a pipeline for high-dimensional time-series panels:
estimate a covariance or rank-correlation matrix, regularize it by hard
thresholding at a cross-validated level, screen predictors against a
response, pack the survivors into variable groups by a greedy sparsity-score
scan, and fit a groupwise index model with sign-constrained coefficients.
Simulation helpers generate sparse covariance targets and temporally
dependent panels for error-scaling studies.
"""

from .crossval import (
    CvConfig,
    CvResult,
    default_grid,
    draw_split,
    empirical_loss,
    select_threshold,
)
from .errors import (
    CovclustError,
    DataError,
    DegenerateColumnError,
    DegenerateResponseError,
    EmptyScreenError,
    InfeasibleDependenceError,
    InsufficientDataError,
    InternalConsistencyError,
    NotApplicableError,
    ParseError,
)
from .groupfit import (
    FitConfig,
    GroupwiseFit,
    explained_variation,
    fit,
    kernel_weight,
    predict,
)
from .ingest import apply_transform, ingest, write_panel_csv
from .matrices import (
    SymMatrix,
    UniformityParams,
    frobenius_norm,
    hard_threshold,
    min_eigenvalue,
    operator_norm,
    sym_to_csv,
    uniformity_diagnostics,
)
from .panel import TimeSeriesPanel, sample_covariance, spearman_matrix, standardize
from .pipeline import (
    ClusterResult,
    ModelSpec,
    ScreenResult,
    build_model_spec,
    cluster_backward,
    cluster_forward,
    nz_score,
    rank_by_degree,
    screen,
)
from .simulate import (
    DependenceSpec,
    RateReport,
    SparseCovModel,
    Structure,
    fractional_cover_size,
    gen_panel,
    make_sparse_cov,
    rate_experiment,
)

__version__ = "0.1.0"

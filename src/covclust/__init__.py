"""covclust: thresholded covariance estimation and correlation-driven grouping.

The library covers a pipeline for high-dimensional time-series panels:
estimate a covariance or rank-correlation matrix, regularize it by hard
thresholding at a cross-validated level, screen predictors against a
response, pack the survivors into variable groups by a greedy sparsity-score
scan, and fit a groupwise index model with sign-constrained coefficients.
Simulation helpers generate sparse covariance targets and temporally
dependent panels with a known truth.  Every name in a module's ``__all__``
can be imported from the package as well.
"""

from .crossval import *
from .errors import *
from .groupfit import *
from .ingest import *
from .matrices import *
from .panel import *
from .pipeline import *
from .simulate import *

__version__ = "0.1.0"

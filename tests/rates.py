"""Array-level norms and the error-rate experiment behind the acceptance criteria.

The rate experiment measures how far the cross-validated, hard-thresholded
sample covariance lies from its known target as the sample grows and the
rows grow dependent: the thresholding rate of Bickel & Levina, "Covariance
regularization by thresholding", Ann. Statist. 36 (2008), which the paper
extends to dependent panels.
"""

import numpy as np

from covclust.crossval import _SEED_MASK, CvConfig, _stream, select_threshold
from covclust.matrices import hard_threshold
from covclust.simulate import gen_panel


def operator_norm(a):
    """Spectral norm of a symmetric array: its largest absolute eigenvalue."""
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def min_eigenvalue(a):
    """Smallest (signed) eigenvalue of a symmetric array."""
    return float(np.linalg.eigvalsh(a)[0])


def frobenius_norm(a):
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(a))


def rate_medians(model, dep, t_list, n_reps, seed):
    """Median operator-norm error of the thresholded estimate, keyed by sample size.

    Repetition ``rep`` at the ``ti``-th size draws its panel, and the splits
    of its 20-split cross-validation, from one seed taken off the stream of
    ``(seed, ti, rep)``.
    """
    medians = {}
    for ti, t in enumerate(t_list):
        errors = []
        for rep in range(n_reps):
            panel_seed = int(_stream(seed, ti, rep).integers(_SEED_MASK))
            panel = gen_panel(model, dep, t, seed=panel_seed)
            res = select_threshold(panel, CvConfig(n_splits=20, seed=panel_seed), "covariance")
            estimate = hard_threshold(res.estimate, res.selected).entries
            errors.append(operator_norm(estimate - model.sigma.entries))
        medians[t] = float(np.median(errors))
    return medians

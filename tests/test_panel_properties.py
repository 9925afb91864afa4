"""Property tests of the panel estimators' exactness contracts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from covclust.errors import DegenerateColumnError
from covclust.panel import TimeSeriesPanel, sample_covariance, spearman_matrix


ESTIMATORS = (sample_covariance, spearman_matrix)


@st.composite
def panels_and_permutations(draw):
    # Shape, seed and tie level are drawn and the cells generated from the
    # seed, so a failure shrinks over four integers, not over every cell.
    # BLAS z.T @ z already loses bitwise equivariance at 40 x 8.
    t = draw(st.integers(2, 60))
    j = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(0, 4))
    if levels:
        vals = rng.integers(0, levels + 1, size=(t, j)).astype(float)
    else:
        vals = rng.normal(size=(t, j)) * 10.0 ** rng.uniform(-6, 6, size=j)
    perm = draw(st.permutations(range(j)))
    return vals, np.array(perm, dtype=int)


class TestEstimatorProperties:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(panels_and_permutations(), st.sampled_from(ESTIMATORS))
    def test_symmetric_and_permutation_equivariant_bitwise(self, case, estimator):
        vals, perm = case
        p = TimeSeriesPanel(vals, tuple(f"x{i + 1}" for i in range(vals.shape[1])))
        try:
            e = estimator(p).entries
        except DegenerateColumnError:
            return
        np.testing.assert_array_equal(e, e.T)
        q = TimeSeriesPanel(vals[:, perm], tuple(p.labels[i] for i in perm))
        np.testing.assert_array_equal(estimator(q).entries, e[np.ix_(perm, perm)])

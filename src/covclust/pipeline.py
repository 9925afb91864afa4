"""Screening against a response and score-driven grouping of the survivors.

Screening thresholds the full rank-correlation matrix (response included) at
a cross-validated level and keeps the predictors with a surviving response
correlation.  Grouping then packs the kept variables into index sets by a
greedy scan that never lets a set's averaged non-zero score drop: the score
of a set is the fraction of nonzero entries in its sub-block of the
regularized matrix, diagonal included.  The forward mode builds disjoint
sets; the backward mode additionally re-offers every previously assigned
variable to each new set, so sets may overlap while every variable keeps the
home set where it was first admitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .crossval import CvResult, CvTemplate, cv_result_to_json_obj, select_threshold
from .errors import EmptyScreenError, InternalConsistencyError
from .matrices import SymMatrix, hard_threshold
from .panel import TimeSeriesPanel, spearman_matrix

__all__ = [
    "ScreenResult",
    "ClusterResult",
    "ModelSpec",
    "screen",
    "nz_score",
    "rank_by_degree",
    "cluster_forward",
    "cluster_backward",
    "build_model_spec",
    "screen_to_json_obj",
    "clusters_to_json_obj",
    "clusters_to_text",
]


@dataclass(frozen=True)
class ScreenResult:
    """Outcome of thresholded-correlation screening.

    ``kept`` holds panel column indices ordered by decreasing magnitude of
    the regularized response correlation (ties by original index).
    ``regularized`` is the thresholded rank-correlation matrix restricted to
    the kept variables plus the response, in that order, so its last row and
    column belong to the response.
    """

    threshold: float
    kept: tuple[int, ...]
    regularized: SymMatrix
    response_signs: tuple[int, ...]
    response: int
    response_label: str
    cv: CvResult


@dataclass(frozen=True)
class ClusterResult:
    """Index sets produced by the greedy score scan.

    ``sets`` contains panel column indices in admission order (seed first).
    ``admissions`` mirrors ``sets`` with the score the set had immediately
    after each admission, which makes every greedy decision replayable.
    """

    sets: tuple[tuple[int, ...], ...]
    scores: tuple[float, ...]
    overlapping: bool
    admissions: tuple[tuple[tuple[int, float], ...], ...]


@dataclass(frozen=True)
class ModelSpec:
    """What the groupwise estimator needs: response, groups, sign constraints.

    ``groups`` holds panel column indices; ``sign_constraints`` maps a column
    index to -1/+1 (0, or absence, leaves the coefficient unconstrained).
    """

    response: int
    response_label: str
    groups: tuple[tuple[int, ...], ...]
    sign_constraints: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.groups or any(len(g) == 0 for g in self.groups):
            raise ValueError("groups must be nonempty")
        groups = tuple(tuple(int(v) for v in g) for g in self.groups)
        for g in groups:
            if self.response in g:
                raise ValueError("the response cannot appear in a group")
            if len(set(g)) != len(g):
                raise ValueError(f"duplicate variable within a group: {g}")
        signs = {int(k): int(v) for k, v in self.sign_constraints.items()}
        if any(v not in (-1, 0, 1) for v in signs.values()):
            raise ValueError("sign constraints must be -1, 0, or +1")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "sign_constraints", signs)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_coefficients(self) -> int:
        return sum(len(g) for g in self.groups)


def screen(
    panel: TimeSeriesPanel,
    response_label: str,
    template: CvTemplate = CvTemplate(),
) -> ScreenResult:
    """Threshold the panel's rank-correlation matrix and keep the response's neighbors.

    The full matrix is estimated once (the response is a column like any
    other), ``template`` spans its grid over it, and the cross-validated
    threshold cuts that matrix.
    Keeping no variable is an error carrying the selected threshold and the
    largest response correlation seen, so callers can tell "nothing is
    related" from "threshold too aggressive".
    """
    if response_label not in panel.labels:
        raise KeyError(f"unknown response label {response_label!r}")
    r_idx = panel.labels.index(response_label)
    if panel.n_series < 2:
        raise ValueError("screening needs at least one predictor besides the response")
    corr = spearman_matrix(panel)
    cv = select_threshold(panel, template.for_panel(panel, corr), "spearman")
    reg = hard_threshold(corr, cv.selected)
    resp_reg = reg.entries[:, r_idx]
    kept = [k for k in range(panel.n_series) if k != r_idx and resp_reg[k] != 0.0]
    if not kept:
        others = [k for k in range(panel.n_series) if k != r_idx]
        max_seen = float(np.max(np.abs(corr.entries[others, r_idx])))
        raise EmptyScreenError(cv.selected, max_seen)
    kept.sort(key=lambda k: (-abs(resp_reg[k]), k))
    order = kept + [r_idx]
    return ScreenResult(
        threshold=float(cv.selected),
        kept=tuple(kept),
        regularized=reg.submatrix(order),
        response_signs=tuple(1 if resp_reg[k] > 0 else -1 for k in kept),
        response=r_idx,
        response_label=response_label,
        cv=cv,
    )


def nz_score(index_set, regularized) -> float:
    """Averaged non-zero score of a set: nonzero entries over set size squared.

    ``index_set`` holds row/column positions into ``regularized`` (a
    :class:`SymMatrix` or a plain square array); the diagonal counts, so a
    fully dense block scores exactly 1.
    """
    idx = list(index_set)
    if not idx:
        raise ValueError("the score of an empty set is undefined")
    entries = regularized.entries if isinstance(regularized, SymMatrix) else np.asarray(regularized)
    block = entries[np.ix_(idx, idx)]
    return float(np.count_nonzero(block)) / float(len(idx) ** 2)


def rank_by_degree(kept, regularized) -> list[int]:
    """Sort positions by nonzero-degree over their own sub-block, descending.

    ``regularized`` is expected in the screened layout (kept variables first,
    response last): the degree of a position counts its nonzero links to the
    positions in ``kept`` (itself included), and ties fall back to the
    magnitude of the response correlation (last column), then to position
    order, which in the screened layout encodes original index order.
    """
    positions = list(kept)
    entries = regularized.entries if isinstance(regularized, SymMatrix) else np.asarray(regularized)
    sub = entries[np.ix_(positions, positions)]
    degrees = (sub != 0).sum(axis=1)
    resp = np.abs(entries[positions, -1])
    order = sorted(
        range(len(positions)),
        key=lambda i: (-int(degrees[i]), -float(resp[i]), positions[i]),
    )
    return [positions[i] for i in order]


def _greedy_sets(reg: SymMatrix, k: int, overlapping: bool):
    """Run the greedy score scan over positions ``0..k-1`` of ``reg``."""
    nz = reg.entries[:k, :k] != 0.0
    if not np.all(np.diag(nz)):
        raise InternalConsistencyError(
            "regularized matrix has a zero diagonal entry among kept variables"
        )
    def admit_test(count, size, cand_links):
        # S(A u {x}) >= S(A)  <=>  (count + 1 + 2*links) * size^2 >= count * (size + 1)^2
        # evaluated in exact integer arithmetic.
        return (count + 1 + 2 * cand_links) * size * size >= count * (size + 1) * (size + 1)

    initial_order = rank_by_degree(range(k), reg)
    unassigned = set(range(k))
    assigned: list[int] = []
    sets, scores, admissions = [], [], []
    while unassigned:
        order = rank_by_degree(sorted(unassigned), reg)
        seed = order[0]
        members = [seed]
        count = 1  # diagonal of the seed
        log = [(seed, 1.0)]
        candidates = []
        if overlapping:
            assigned_set = set(assigned)
            candidates.extend(p for p in initial_order if p in assigned_set)
        candidates.extend(order[1:])
        for x in candidates:
            links = int(sum(1 for a in members if nz[x, a]))
            size = len(members)
            if admit_test(count, size, links):
                members.append(x)
                count += 1 + 2 * links
                log.append((x, count / len(members) ** 2))
        sets.append(tuple(members))
        scores.append(count / len(members) ** 2)
        admissions.append(tuple(log))
        newly = [x for x in members if x in unassigned]
        unassigned.difference_update(newly)
        assigned.extend(newly)
    return sets, scores, admissions


def _cluster(screen_result: ScreenResult, overlapping: bool) -> ClusterResult:
    reg = screen_result.regularized
    k = len(screen_result.kept)
    sets, scores, admissions = _greedy_sets(reg, k, overlapping)
    to_orig = screen_result.kept
    return ClusterResult(
        sets=tuple(tuple(to_orig[p] for p in s) for s in sets),
        scores=tuple(float(v) for v in scores),
        overlapping=overlapping,
        admissions=tuple(
            tuple((to_orig[p], float(sc)) for p, sc in log) for log in admissions
        ),
    )


def cluster_forward(screen_result: ScreenResult) -> ClusterResult:
    """Partition the kept variables into disjoint sets by the greedy score scan.

    Each round ranks the not-yet-assigned variables by nonzero degree over
    their own sub-block, seeds a set with the top-ranked one, and admits each
    following variable exactly when the set's averaged non-zero score does
    not decrease.  Rounds repeat on the complement until every kept variable
    is assigned.
    """
    return _cluster(screen_result, overlapping=False)


def cluster_backward(screen_result: ScreenResult) -> ClusterResult:
    """Greedy score scan that also re-offers assigned variables to later sets.

    Rounds proceed as in :func:`cluster_forward`, but after seeding a new
    set, every variable assigned in earlier rounds is re-offered (in the
    initial full ranking order) and joins additionally when it does not lower
    the new set's score; the scan then continues over the unassigned
    variables.  First admissions still define a variable's home set, so the
    output covers the kept set and may overlap, never losing a membership.
    """
    return _cluster(screen_result, overlapping=True)


def build_model_spec(screen_result: ScreenResult, cluster: ClusterResult) -> ModelSpec:
    """Combine screening and grouping into the estimator's model description.

    Fails with :class:`InternalConsistencyError` when the grouping does not
    cover exactly the kept variables, which would indicate the two results
    came from different screens.
    """
    covered = set()
    for s in cluster.sets:
        covered.update(s)
    if covered != set(screen_result.kept):
        raise InternalConsistencyError(
            f"groups cover {sorted(covered)} but screening kept "
            f"{sorted(screen_result.kept)}"
        )
    signs = {
        k: s for k, s in zip(screen_result.kept, screen_result.response_signs)
    }
    return ModelSpec(
        response=screen_result.response,
        response_label=screen_result.response_label,
        groups=cluster.sets,
        sign_constraints=signs,
    )


def screen_to_json_obj(scr: ScreenResult, labels) -> dict:
    """JSON-ready summary: threshold, kept columns with their signs, and the CV run."""
    return {
        "threshold": float(scr.threshold),
        "response": scr.response_label,
        "kept_indices": [int(k) for k in scr.kept],
        "kept_labels": [labels[k] for k in scr.kept],
        "signs": [int(s) for s in scr.response_signs],
        "cv": cv_result_to_json_obj(scr.cv),
    }


def clusters_to_json_obj(clu: ClusterResult, labels) -> dict:
    """JSON-ready sets with their scores, and the score after every admission."""
    return {
        "mode": "backward" if clu.overlapping else "forward",
        "sets": [
            {
                "indices": [int(v) for v in s],
                "labels": [labels[v] for v in s],
                "score": float(score),
            }
            for s, score in zip(clu.sets, clu.scores)
        ],
        "admissions": [
            [{"label": labels[v], "score": float(sc)} for v, sc in log]
            for log in clu.admissions
        ],
    }


def clusters_to_text(clu: ClusterResult, labels) -> str:
    """One ``set i (score s): label ...`` line per set."""
    lines = []
    for i, (s, score) in enumerate(zip(clu.sets, clu.scores), start=1):
        names = " ".join(labels[v] for v in s)
        lines.append(f"set {i} (score {score:.4f}): {names}")
    return "\n".join(lines) + "\n"

"""Nonparametric comparison of classifiers over multiple datasets.

Implements the procedure of Demšar [3]: the Friedman rank test with
the chi-square approximation, higher scores ranked better, and the
Nemenyi post-hoc critical distance for all-pairs comparison at the
0.05 level.  Ranks are computed in numpy; the p-value comes from
``scipy.special``, imported on the first call of :func:`friedman` so
that no other command pays for scipy.

The embedded critical values ``q_0.05(k)`` for k = 2..10 are the
standard two-tailed Studentized-range quantiles at infinite degrees of
freedom divided by sqrt(2), as tabulated in the classical references
below.

References
----------
.. [1] M. Friedman, "The use of ranks to avoid the assumption of
       normality implicit in the analysis of variance", Journal of the
       American Statistical Association 32(200), 1937.
.. [2] P. Nemenyi, "Distribution-free multiple comparisons", PhD
       thesis, Princeton University, 1963.
.. [3] J. Demšar, "Statistical comparisons of classifiers over
       multiple data sets", Journal of Machine Learning Research 7,
       2006.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import _check_count, _is_integer

__all__ = _EXPORTS["ranking"].split()

#: q_0.05(k) for the Nemenyi test, k = 2..10, infinite df.
_Q_TABLE = (1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164)


@dataclass(frozen=True)
class ScoreTable:
    """A complete datasets-by-classifiers score matrix.

    Parameters
    ----------
    scores:
        ``(n_datasets, n_classifiers)`` array; every cell must be
        finite (the tests require a complete table).
    dataset_names, classifier_names:
        Row and column labels, matching the array shape.
    """

    scores: np.ndarray
    dataset_names: tuple[str, ...]
    classifier_names: tuple[str, ...]

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError(f"scores must be 2-D, got shape {scores.shape}")
        if not np.all(np.isfinite(scores)):
            raise ValueError("score table is incomplete: non-finite cells present")
        n, k = scores.shape
        if k < 2:
            raise ValueError(f"need at least 2 classifiers, got {k}")
        if n < 1:
            raise ValueError("need at least 1 dataset row")
        if len(self.dataset_names) != n or len(self.classifier_names) != k:
            raise ValueError("name tuples do not match the score shape")
        object.__setattr__(self, "scores", scores)


@dataclass(frozen=True)
class RankSummary:
    """Result of the Friedman test: the chi-square-form statistic and
    its chi-square p-value."""

    statistic: float
    p_value: float
    avg_ranks: np.ndarray
    classifier_names: tuple[str, ...]
    n_datasets: int

    @property
    def k(self) -> int:
        return len(self.classifier_names)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks along each row of a 2-D array, tied values sharing
    the mean of their positions (``scipy.stats.rankdata(values, axis=1)``).
    Each rank is a whole or half number, so it is exact."""
    n, k = values.shape
    order = np.argsort(values, axis=1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=1)
    run_starts = np.ones((n, k), dtype=bool)
    run_starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    starts = np.flatnonzero(run_starts)  # flat indices: every row starts a run
    run_ranks = 0.5 * (starts + np.append(starts[1:], n * k) + 1) - k * (starts // k)
    ranks = np.empty((n, k))
    np.put_along_axis(ranks, order, run_ranks[np.cumsum(run_starts).reshape(n, k) - 1], axis=1)
    return ranks


def friedman(table: ScoreTable) -> RankSummary:
    """Friedman rank test over a complete ``(N, k)`` score table.

    Rank 1 goes to the highest score of each row, and ties share
    average ranks.  The p-value is the chi-square tail at ``k - 1``
    degrees of freedom.  Identical scores in every row give statistic 0
    (no evidence of any difference).
    """
    from scipy.special import chdtrc

    n, k = table.scores.shape
    avg_ranks = _average_ranks(-table.scores).mean(axis=0)
    statistic = 12.0 * n / (k * (k + 1)) * (float((avg_ranks**2).sum()) - k * (k + 1) ** 2 / 4.0)
    statistic = max(statistic, 0.0)
    return RankSummary(
        statistic=statistic,
        p_value=float(chdtrc(k - 1, statistic)),
        avg_ranks=avg_ranks,
        classifier_names=table.classifier_names,
        n_datasets=n,
    )


def nemenyi_cd(k: int, n_datasets: int) -> float:
    """Nemenyi critical distance ``q_0.05(k) * sqrt(k * (k+1) / (6 * N))``.

    Two classifiers differ significantly at the 0.05 level when their
    average ranks differ by at least this much.  Supported: integers
    ``2 <= k <= 10`` (the embedded table) and ``n_datasets >= 2``.
    """
    if not _is_integer(k) or not 2 <= k <= 10:
        raise ValueError(f"k must be an integer between 2 and 10, got {k!r}")
    _check_count("n_datasets", n_datasets, 2)
    return _Q_TABLE[k - 2] * float(np.sqrt(k * (k + 1) / (6.0 * n_datasets)))


@dataclass(frozen=True)
class RankReport:
    """Average-rank diagram description: ranks, CD, groups, pair matrix.

    ``significant[i][j]`` is true when classifiers i and j differ by at
    least the critical distance (boundary inclusive); the relation is
    symmetric and irreflexive.  ``groups`` are the maximal rank-ordered
    runs of classifiers whose rank span stays below the CD (the bars of
    a critical-difference diagram).  :meth:`to_dict` also names the
    test's method, F statistic and level, which are fixed: chi-square,
    none and 0.05.
    """

    summary: RankSummary
    cd: float
    significant: np.ndarray
    groups: tuple[tuple[str, ...], ...]

    def to_dict(self) -> dict:
        order = np.argsort(self.summary.avg_ranks, kind="stable")
        return {
            "method": "chi2",
            "statistic": self.summary.statistic,
            "f_statistic": None,
            "p_value": self.summary.p_value,
            "n_datasets": self.summary.n_datasets,
            "level": 0.05,
            "cd": self.cd,
            "ranks": {
                self.summary.classifier_names[j]: float(self.summary.avg_ranks[j])
                for j in order
            },
            "groups": [list(group) for group in self.groups],
            "significant_pairs": [
                [self.summary.classifier_names[i], self.summary.classifier_names[j]]
                for i in range(self.summary.k)
                for j in range(i + 1, self.summary.k)
                if self.significant[i, j]
            ],
        }


def compare_ranks(summary: RankSummary) -> RankReport:
    """All-pairs Nemenyi comparison at the 0.05 level."""
    cd = nemenyi_cd(summary.k, summary.n_datasets)
    diffs = np.abs(summary.avg_ranks[:, None] - summary.avg_ranks[None, :])
    significant = diffs >= cd
    np.fill_diagonal(significant, False)

    order = np.argsort(summary.avg_ranks, kind="stable")
    ranks = summary.avg_ranks[order]
    names = [summary.classifier_names[j] for j in order]
    # the run within cd from each rank; ranks are sorted, so a run is in no other iff it is first or ends later
    ends = [max(e for e in range(s, len(names)) if ranks[e] - ranks[s] < cd) for s in range(len(names))]
    groups = tuple(tuple(names[s : e + 1]) for s, e in enumerate(ends) if s == 0 or e > ends[s - 1])
    return RankReport(summary=summary, cd=cd, significant=significant, groups=groups)

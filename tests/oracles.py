"""Independent reference evaluators used to freeze expected test values.

Everything here is deliberately written with plain Python loops (or a
generic scipy optimizer for the QP), not with the library's own
vectorized code paths, so tests compare two genuinely different routes
to the same number.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

LABELS = (-1, 0, 1)


def coincidence_brute(pairs):
    """3x3 nested-list coincidence counts, each pair entered twice."""
    counts = [[0.0, 0.0, 0.0] for _ in range(3)]
    for a, b in pairs:
        counts[a + 1][b + 1] += 1.0
        counts[b + 1][a + 1] += 1.0
    return counts


def alpha_brute(counts, metric):
    """Krippendorff-style alpha via explicit double loops.

    Returns None when undefined (expected disagreement zero or total
    mass not above one).
    """
    total = sum(sum(row) for row in counts)
    if total <= 1.0:
        return None
    marginals = [sum(row) for row in counts]

    def delta2(a, b):
        if metric == "nominal":
            return 0.0 if a == b else 1.0
        return float((a - b) ** 2)

    d_obs = 0.0
    d_exp = 0.0
    for i, a in enumerate(LABELS):
        for j, b in enumerate(LABELS):
            d_obs += counts[i][j] * delta2(a, b)
            d_exp += marginals[i] * marginals[j] * delta2(a, b)
    d_obs /= total
    d_exp /= total * (total - 1.0)
    if d_exp <= 0.0:
        return None
    return 1.0 - d_obs / d_exp


def accuracy_brute(counts):
    total = sum(sum(row) for row in counts)
    if total <= 0.0:
        return None
    return (counts[0][0] + counts[1][1] + counts[2][2]) / total


def acc_within_1_brute(counts):
    total = sum(sum(row) for row in counts)
    if total <= 0.0:
        return None
    return 1.0 - (counts[0][2] + counts[2][0]) / total


def f1_bar_brute(counts):
    n_neg = sum(counts[0])
    n_pos = sum(counts[2])
    if n_neg <= 0.0 or n_pos <= 0.0:
        return None
    return 0.5 * (counts[0][0] / n_neg + counts[2][2] / n_pos)


ALL_MEASURES = {
    "alpha_nominal": lambda c: alpha_brute(c, "nominal"),
    "alpha_interval": lambda c: alpha_brute(c, "interval"),
    "f1_bar": f1_bar_brute,
    "accuracy": accuracy_brute,
    "acc_within_1": acc_within_1_brute,
}



def bootstrap_reference(pairs, measure, n_samples=1000, level=0.95, seed=0, retry_cap=100):
    """Percentile bootstrap of one measure, one resample at a time.

    Each resample index opens its own substream ``default_rng((seed,
    index))`` and draws up to ``retry_cap + 1`` attempts from it; every
    attempt builds one validated coincidence matrix and evaluates the
    brute-force measure on it.  Returns the library's
    ``ConfidenceInterval`` so results compare with ``==``.
    """
    from sentagree.agreement import CoincidenceMatrix, ConfidenceInterval
    from sentagree.errors import UndefinedMeasureError

    brute = ALL_MEASURES[str(measure)]

    def measure_of(sample):
        return brute(CoincidenceMatrix(np.array(coincidence_brute(sample))).counts.tolist())

    point = measure_of(pairs)
    if point is None:
        raise UndefinedMeasureError("undefined point estimate")
    n = len(pairs)
    values = []
    undefined = 0
    for index in range(n_samples):
        rng = np.random.default_rng((seed, index))
        for _ in range(retry_cap + 1):
            value = measure_of([pairs[i] for i in rng.integers(0, n, n)])
            if value is not None:
                values.append(value)
                break
        else:
            undefined += 1
    if not values:
        raise UndefinedMeasureError("every resample undefined")
    tail = (1.0 - level) / 2.0
    low, high = np.quantile(values, [tail, 1.0 - tail])
    return ConfidenceInterval(
        point=point,
        low=min(float(low), point),
        high=max(float(high), point),
        level=level,
        samples=n_samples,
        undefined_resamples=undefined,
    )

def svm_dual_optimum(X, y, cost):
    """Optimal dual objective of the L1-hinge SVM with a regularized bias.

    Solves min over the box [0, C]^n of ``f(a) = 1/2 a'Qa - 1'a`` where
    ``Q = (y y') * (X X' + 1)`` (the +1 is the appended bias feature) and
    returns the dual objective ``-f`` at the optimum.  ``cost`` is one
    bound ``C`` for every example or an array of per-example bounds.

    A quasi-Newton run from several starting points only seeds the
    answer (L-BFGS-B can stall on heavily bound-constrained instances
    while reporting success); an accelerated projected-gradient polish
    then iterates until the first-order suboptimality certificate
    ``f(a) - f* <= -sum_i min(g_i * (0 - a_i), g_i * (C - a_i))``
    of the convex objective is below 1e-10, so the returned value is
    certified rather than trusted.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    cost = np.broadcast_to(np.asarray(cost, dtype=np.float64), (n,))
    signed = y[:, None] * np.hstack([X, np.ones((n, 1))])
    gram = signed @ signed.T

    def fun(a):
        return 0.5 * a @ gram @ a - a.sum()

    def jac(a):
        return gram @ a - 1.0

    def gap(a):
        g = jac(a)
        return -np.minimum(-g * a, g * (cost - a)).sum()

    best = None
    for fill in (0.0, 0.5, 1.0):
        result = minimize(
            fun,
            fill * cost,
            jac=jac,
            bounds=[(0.0, c) for c in cost],
            method="L-BFGS-B",
            options={"maxiter": 50000, "maxfun": 200000, "ftol": 1e-18, "gtol": 1e-14},
        )
        if best is None or result.fun < fun(best):
            best = np.clip(result.x, 0.0, cost)

    step = 1.0 / float(np.linalg.eigvalsh(gram)[-1])
    a = best
    momentum = a.copy()
    t_k = 1.0
    for _ in range(300000):
        if gap(a) <= 1e-10 * max(1.0, abs(fun(a))):
            break
        nxt = np.clip(momentum - step * jac(momentum), 0.0, cost)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
        momentum = nxt + ((t_k - 1.0) / t_next) * (nxt - a)
        if fun(nxt) > fun(a):  # momentum overshot: restart acceleration
            momentum = nxt.copy()
            t_next = 1.0
        a, t_k = nxt, t_next
    else:
        raise AssertionError("QP oracle failed to certify optimality")
    return -float(fun(a))


def _bin_index(value, edges, grid):
    if edges[0] == edges[-1]:  # degenerate axis: all training mass at one value
        if value < edges[0]:
            return 0
        return 1 if value == edges[0] else grid + 1
    if value < edges[-1]:
        return int(np.searchsorted(edges, value, side="right"))
    return grid if value == edges[-1] else grid + 1


def _majority(counts):
    return None if counts.sum() == 0 else int(np.argmax(counts)) - 1


def predict_row(model, x):
    """Label code and confidence (or None) of one row, with every
    variant's rule written out as scalar branches."""
    def d(name):
        plane = model.planes[name]
        return float(x.values @ plane.weights[x.indices]) + plane.bias

    variant = model.variant.value
    if variant == "NaiveBayes":
        nb = model.nb
        log_post = np.log(nb.doc_counts / nb.doc_counts.sum())
        totals = nb.term_counts.sum(axis=1)
        for c in range(3):
            theta = (nb.term_counts[c, x.indices] + 1.0) / (totals[c] + model.dim)
            log_post[c] += float(x.values @ np.log(theta))
        log_post -= log_post.max()
        probs = np.exp(log_post)
        probs = probs / probs.sum()
        code = int(np.argmax(probs)) - 1
        return code, float(probs[code + 1])
    if variant == "NeutralZoneSVM":
        value = d("polarity")
        if abs(value) <= (model.neutral_zone or 0.0):
            return 0, None
        return (1 if value > 0 else -1), None
    if variant == "CascadingSVM":
        if d("subjectivity") <= 0.0:
            return 0, None
        return (1 if d("polarity") >= 0.0 else -1), None
    if variant == "ThreePlaneSVM":
        v = [d(name) for name in ("neg_vs_neu", "neu_vs_pos", "neg_vs_pos")]
        code = _majority(model.subspaces.counts[(v[0] >= 0.0) * 4 + (v[1] >= 0.0) * 2 + (v[2] >= 0.0)])
        if code is not None:
            return code, None
        votes = {-1: [0, 0.0], 0: [0, 0.0], 1: [0, 0.0]}
        backing = ((0 if v[0] >= 0.0 else -1, v[0]), (1 if v[1] >= 0.0 else 0, v[1]),
                   (1 if v[2] >= 0.0 else -1, v[2]))
        for label, value in backing:
            votes[label][0] += 1
            votes[label][1] += abs(value)
        return max(votes, key=lambda c: (votes[c][0], votes[c][1], -c)), None
    d_a, d_b = d("neg_vs_rest"), d("rest_vs_pos")
    if variant == "TwoPlaneSVMbin":
        bins = model.bins
        cell = bins.counts[_bin_index(d_a, bins.edges_a, bins.grid), _bin_index(d_b, bins.edges_b, bins.grid)]
        code = _majority(cell)
        if code is not None:
            return code, float(cell.max() / cell.sum())
    if d_a < 0.0 and d_b > 0.0:
        return (-1 if abs(d_a) >= abs(d_b) else 1), None
    return (-1 if d_a < 0.0 else 1 if d_b > 0.0 else 0), None

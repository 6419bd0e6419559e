"""Independent reference evaluators used to freeze expected test values.

Everything here is deliberately written with plain Python loops (or a
generic scipy optimizer for the QP), not with the library's own
vectorized code paths, so tests compare two genuinely different routes
to the same number.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from itertools import combinations

import numpy as np
from scipy.optimize import minimize

from sentagree.features import EMOTICONS

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



def bootstrap_reference(pairs, measure, n_samples=1000, seed=0, retry_cap=100):
    """Percentile bootstrap 95% interval of one measure, one resample at a time.

    Draws as the library does: the first attempt of resample ``index``
    is row ``index`` of one multinomial draw of ``n_samples`` rows from
    ``default_rng((seed, n_samples))`` over the cells that hold a pair,
    and its retries draw one multinomial each from ``default_rng((seed,
    index))``, up to ``retry_cap`` of them.  Every attempt is rebuilt as
    a list of pairs, whose coincidence matrix is built by brute force and
    checked, and the brute-force measure is evaluated on it.  Returns the
    library's ``ConfidenceInterval`` so results compare with ``==``.
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
    by_cell = {}
    for a, b in pairs:
        by_cell[(a, b)] = by_cell.get((a, b), 0) + 1
    held = sorted(by_cell)  # cell order: first label, then second
    p = [by_cell[cell] / n for cell in held]

    def resample(drawn):
        return [cell for cell, times in zip(held, drawn) for _ in range(times)]

    first = np.random.default_rng((seed, n_samples)).multinomial(n, p, size=n_samples)
    values = []
    undefined = 0
    for index in range(n_samples):
        value = measure_of(resample(first[index]))
        rng = np.random.default_rng((seed, index))
        for _ in range(retry_cap):
            if value is not None:
                break
            value = measure_of(resample(rng.multinomial(n, p)))
        if value is None:
            undefined += 1
        else:
            values.append(value)
    if not values:
        raise UndefinedMeasureError("every resample undefined")
    tail = (1.0 - 0.95) / 2.0
    low, high = np.quantile(values, [tail, 1.0 - tail])
    return ConfidenceInterval(
        point=point,
        low=min(float(low), point),
        high=max(float(high), point),
        samples=n_samples,
        undefined_resamples=undefined,
    )


def neutral_zone_reference(values, gold):
    """The neutral-zone half-width of largest interval alpha, one candidate at a time.

    The candidates are zero and the decision magnitudes (201 quantiles of
    them when there are more than 200).  Each candidate labels the values
    by a Python loop, is scored by the library's single-matrix ``alpha``
    on the (prediction, gold) pairs, and is skipped where that is
    undefined; a strictly larger score wins, so the narrowest of equal
    zones is kept.  0.0 when no candidate is defined.
    """
    from sentagree.agreement import Measure, build_coincidence, compute_measure
    from sentagree.errors import UndefinedMeasureError

    candidates = np.unique(np.concatenate(([0.0], np.abs(values))))
    if candidates.size > 200:
        candidates = np.unique(np.quantile(candidates, np.linspace(0.0, 1.0, 201)))
    best_zone, best_score = 0.0, -math.inf
    for zone in candidates.tolist():
        pred = [0 if abs(v) <= zone else (1 if v > 0 else -1) for v in values.tolist()]
        try:
            score = compute_measure(build_coincidence(zip(pred, gold.tolist())), Measure.ALPHA_INTERVAL)
        except UndefinedMeasureError:
            continue
        if score > best_score:
            best_zone, best_score = zone, score
    return best_zone


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


def row_dot(x, dense):
    """``x . dense`` for a one-row ``x``, summed left to right over its
    stored entries."""
    total = 0.0
    for j, v in zip(x.indices.tolist(), x.values.tolist()):
        total += v * float(dense[j])
    return total


def predict_row(model, x):
    """Label code and confidence (or None) of one row, with every
    variant's rule written out as scalar branches."""
    def d(name):
        plane = model.planes[name]
        return row_dot(x, plane.weights) + plane.bias

    variant = model.variant.value
    if variant == "NaiveBayes":
        nb = model.nb
        log_post = np.log(nb.doc_counts / nb.doc_counts.sum())
        totals = nb.term_counts.sum(axis=1)
        for c in range(3):
            log_post[c] += row_dot(x, np.log((nb.term_counts[c] + 1.0) / (totals[c] + model.dim)))
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


def _ngram_terms(tokens, ngrams):
    """Every n-gram of ``tokens`` for each n in turn, multi-token terms joined on a space."""
    return [" ".join(tokens[i : i + n]) for n in ngrams for i in range(len(tokens) - n + 1)]


def vocabulary_brute(docs, min_df, ngrams):
    """Terms that at least ``min_df`` documents contain, sorted, and
    their document frequencies, counted from one set of n-grams per
    document (multi-token terms join on a space)."""
    doc_freq = {}
    for tokens in docs:
        for term in set(_ngram_terms(tokens, ngrams)):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    terms = tuple(sorted(term for term, freq in doc_freq.items() if freq >= min_df))
    return terms, [doc_freq[term] for term in terms]


def count_rows_brute(docs, terms, ngrams):
    """CSR arrays (``indptr``, ``indices``, ``values``) of the raw counts
    of each document's n-grams among ``terms``, column ``i`` for
    ``terms[i]``, from one counter per document: with
    :func:`vocabulary_brute`, the two-pass way of counting a corpus."""
    column = {term: i for i, term in enumerate(terms)}
    indptr, indices, values = [0], [], []
    for tokens in docs:
        counts = Counter(column[term] for term in _ngram_terms(tokens, ngrams) if term in column)
        indices += sorted(counts)
        values += [float(counts[i]) for i in sorted(counts)]
        indptr.append(len(indices))
    return np.array(indptr, dtype=np.intp), np.array(indices, dtype=np.intp), np.array(values, dtype=np.float64)


def rank_groups_reference(avg_ranks, names, cd):
    """The critical-difference groups by the pairwise rule: every run of
    sorted ranks whose span from its first stays below ``cd``, less each
    run that another contains, each kept once, best-ranked first."""
    order = np.argsort(avg_ranks, kind="stable")
    ranks = [float(avg_ranks[j]) for j in order]
    intervals = []
    for start in range(len(order)):
        end = start
        while end + 1 < len(order) and ranks[end + 1] - ranks[start] < cd:
            end += 1
        intervals.append((start, end))
    maximal = [
        (s, e) for s, e in intervals
        if not any((s2 <= s and e <= e2) and (s2, e2) != (s, e) for s2, e2 in intervals)
    ]
    return tuple(tuple(names[order[i]] for i in range(s, e + 1)) for s, e in dict.fromkeys(maximal))


def _records_by_post(records):
    """Each post's records sorted by ``seq``, posts in order of first appearance."""
    groups = {}
    for rec in records:
        groups.setdefault(rec.post_id, []).append(rec)
    return [sorted(group, key=lambda rec: rec.seq) for group in groups.values()]


def extract_pairs_reference(records):
    """All annotation pairs of each post, one ``(first, second, same,
    post_id)`` tuple at a time: the two label codes, whether one
    annotator gave both, and the post."""
    return [
        (int(a.label), int(b.label), a.annotator_id == b.annotator_id, a.post_id)
        for group in _records_by_post(records)
        for a, b in combinations(group, 2)
    ]


def merge_gold_reference(records):
    """One ``GoldPost`` per post: the sum of its distinct labels, its
    earliest date and first non-empty text, posts ordered by earliest
    date when every post has one, else by earliest ``seq``."""
    from sentagree.corpus import GoldPost, SentimentLabel, _check_offsets

    _check_offsets([r.post_id for r in records], [r.timestamp for r in records])
    merged = []
    for group in _records_by_post(records):
        earliest = min((r.timestamp for r in group if r.timestamp is not None), default=None)
        label = SentimentLabel(sum({r.label for r in group}))
        text = next((r.text for r in group if r.text), None)
        merged.append((earliest, group[0].seq, GoldPost(group[0].post_id, label, earliest, text, len(group))))
    timed = all(ts is not None for ts, _, _ in merged)
    merged.sort(key=lambda item: (item[0], item[1]) if timed else item[1])
    return [post for _, _, post in merged]


def save_gold_reference(gold, path, delimiter=","):
    """Write ``gold`` one ``GoldPost`` at a time, a row per post, as
    :func:`sentagree.corpus.save_gold` wrote it before it wrote columns."""
    import csv

    has_date = any(p.timestamp is not None for p in gold)
    has_text = any(p.text is not None for p in gold)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(["TweetID", "HandLabel"] + ["Date"] * has_date + ["Text"] * has_text + ["MergedFrom"])
        for post in gold:
            row = [post.post_id, post.label.to_string()]
            if has_date:
                row.append(post.timestamp.isoformat(sep=" ") if post.timestamp else "")
            if has_text:
                row.append(post.text if post.text is not None else "")
            row.append(str(post.merged_from))
            writer.writerow(row)


# --- the tokenizer as it stood before its regex was guarded -------------------

def _emoticon_piece(emo):
    piece = re.escape(emo)
    if emo[0].isalnum():
        piece = r"(?<!\w)" + piece
    if emo[-1].isalnum():
        piece = piece + r"(?!\w)"
    return piece


_EMOTICON_ALTERNATION = "|".join(
    _emoticon_piece(e) for e in sorted(EMOTICONS, key=len, reverse=True)
)

_TOKEN_RE = re.compile(
    r"""
    (?P<url>(?:https?://|www\.)\S+)
    | (?P<user>@\w+)
    | \#(?P<hashtag>\w+)
    | (?P<emoticon>%s)
    | (?P<word>\w+(?:'\w+)*)
    """ % _EMOTICON_ALTERNATION,
    re.VERBOSE,
)

_ELONG_RE = re.compile(r"([^\W\d_])\1{2,}")


def _word_tokens(word, stemmer):
    lowered = word.lower()
    collapsed = _ELONG_RE.sub(r"\1\1", lowered)
    elongated = collapsed != lowered
    if stemmer is not None:
        collapsed = stemmer(collapsed) or collapsed
    return [collapsed, "<elong>"] if elongated else [collapsed]


def normalize_reference(text, stemmer=None):
    """Version-1 tokens of ``text``: every word goes through the
    elongation rewrite, every position tries the whole emoticon table."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "url":
            tokens.append("<url>")
        elif kind == "user":
            tokens.append("<user>")
        elif kind == "hashtag":
            tokens.append("<hashtag>")
            tokens.extend(_word_tokens(match.group("hashtag"), stemmer))
        elif kind == "emoticon":
            tokens.append(EMOTICONS[match.group("emoticon")])
        else:
            tokens.extend(_word_tokens(match.group("word"), stemmer))
    return tokens

"""Evaluation statistics: error rates, per-class error (MPCE), macro f1,
cross-model rank aggregation, the exact/approximate Wilcoxon signed-rank
test, and critical-difference values for post-hoc rank comparison.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data_ucr import read_table


class UndefinedTestError(ValueError):
    """The statistic is undefined for the given sample (e.g. all-zero
    differences)."""


# ---------------------------------------------------------------------------
# Per-dataset classification metrics
# ---------------------------------------------------------------------------

def error_rate(predictions, truths) -> float:
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    if predictions.shape != truths.shape or predictions.size == 0:
        raise ValueError(
            f"need equal-length nonempty label vectors, got "
            f"{predictions.shape} and {truths.shape}"
        )
    return float(np.mean(predictions != truths))


def mpce(error_rates, class_counts) -> float:
    """Mean over datasets of error_rate / class_count."""
    error_rates = np.asarray(error_rates, dtype=np.float64)
    class_counts = np.asarray(class_counts, dtype=np.float64)
    if error_rates.shape != class_counts.shape or error_rates.size == 0:
        raise ValueError("error rates and class counts must be equal-length and nonempty")
    if np.any(class_counts < 2):
        raise ValueError("every dataset needs at least 2 classes")
    return float(np.mean(error_rates / class_counts))


@dataclass
class ConfusionCounts:
    tp: np.ndarray  # (C,)
    fp: np.ndarray
    fn: np.ndarray


def confusion_counts(predictions, truths, num_classes: int) -> ConfusionCounts:
    predictions = np.asarray(predictions, dtype=int)
    truths = np.asarray(truths, dtype=int)
    for labels in (predictions, truths):
        if np.any((labels < 0) | (labels >= num_classes)):
            raise ValueError(f"labels must lie in [0, {num_classes}), "
                             f"got {labels.min()}..{labels.max()}")
    hit = predictions == truths

    def count(labels):
        return np.bincount(labels, minlength=num_classes).astype(np.float64)

    return ConfusionCounts(count(truths[hit]), count(predictions[~hit]), count(truths[~hit]))


def f1_scores(confusion: ConfusionCounts) -> float:
    """Macro-averaged f1 = 2PR/(P+R); a class with P+R = 0 scores 0."""
    tp, fp, fn = confusion.tp, confusion.fp, confusion.fn
    precision = tp / np.maximum(tp + fp, 1)
    recall = tp / np.maximum(tp + fn, 1)
    f1 = 2 * precision * recall / np.maximum(precision + recall, 1e-300)
    return float(np.mean(f1))


# ---------------------------------------------------------------------------
# Cross-model error matrix and rank aggregation
# ---------------------------------------------------------------------------

@dataclass
class ErrorMatrix:
    models: list[str]
    datasets: list[str]
    errors: np.ndarray  # (D, M) with NaN for missing entries

    @classmethod
    def from_csv(cls, path) -> "ErrorMatrix":
        rows = read_table(path)
        header = next(rows)
        models = header[1:]
        if len(set(models)) < len(models):  # results go by model name
            repeated = sorted({m for m in models if models.count(m) > 1})
            raise ValueError(f"{path}: repeated model name(s) {', '.join(repeated)}")
        datasets, values = [], []
        for line, row in rows:
            if len(row) != len(header):
                raise ValueError(f"{path}:{line}: expected {len(header)} columns, "
                                 f"got {len(row)}")
            datasets.append(row[0])
            try:
                values.append([float(v) if v != "" else np.nan for v in row[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: bad value ({exc})") from exc
            if any(v < 0 or v == math.inf for v in values[-1]):  # NaN is a missing entry
                raise ValueError(f"{path}:{line}: error rates must be finite and >= 0")
        errors = np.asarray(values, dtype=np.float64).reshape(len(values), len(models))
        empty = [m for m, gone in zip(models, np.isnan(errors).all(axis=0)) if gone]
        if empty:
            raise ValueError(f"{path}: no error entries for model(s) {', '.join(empty)}")
        return cls(models, datasets, errors)

    def column(self, model: str) -> np.ndarray:
        return self.errors[:, self.models.index(model)]


def tie_average_ranks(values: np.ndarray) -> np.ndarray:
    """Ascending 1-based ranks with tied entries sharing the mean of their
    positions."""
    values = np.asarray(values, dtype=np.float64)
    if np.any(np.isnan(values)):
        raise ValueError("cannot rank NaN values")
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def rank_models(matrix: ErrorMatrix, missing_mode: str = "exclude"):
    """Per-model arithmetic mean rank and "no. best" count.

    missing_mode "exclude": absent entries are left out of that dataset's
    ranking and of the absent model's mean. "worst": absent entries rank as
    tied-worst, behind every present entry, and count into every mean.
    """
    if missing_mode not in ("exclude", "worst"):
        raise ValueError(f"missing_mode must be 'exclude' or 'worst', got {missing_mode!r}")
    if len(matrix.models) < 2:
        raise ValueError("ranking needs at least 2 models")
    errors = matrix.errors
    present = ~np.isnan(errors)
    ranked = present.sum(axis=1, keepdims=True) >= 2
    for d in np.flatnonzero(~ranked):
        warnings.warn(f"dataset {matrix.datasets[d]!r} has fewer than 2 entries; skipped")
    # sort every row at once; NaN sorts last, so absent entries come after
    # every present one, +inf included. A tie group is a run of equal
    # neighbours (all absent entries form one) and shares the mean of its
    # 1-based positions; ranks are half-integers, so the sums are exact. Work
    # is done in place where it can be: at 85x13 each (D, M) temporary is a
    # visible share of a compare call's allocation peak
    order = np.argsort(errors, axis=1)
    value = np.take_along_axis(errors, order, axis=1)
    no_best = ((errors == value[:, :1]) & ranked).sum(axis=0)
    n_models = errors.shape[1]
    starts = np.ones(errors.shape, dtype=bool)
    starts[:, 1:] = (value[:, 1:] != value[:, :-1]) & (
        np.arange(n_models - 1) < present.sum(axis=1, keepdims=True))
    group = np.cumsum(starts)
    group -= 1
    group_rank = np.bincount(group) + 1.0
    group_rank /= 2
    group_rank += np.flatnonzero(starts) % n_models
    counted = (present | (missing_mode == "worst")) & ranked
    # value becomes each sorted entry's rank, or 0 where it is not counted
    np.take(group_rank, group, out=value.reshape(-1))
    value *= np.take_along_axis(counted, order, axis=1)
    rank_sums = np.bincount(order.reshape(-1), value.reshape(-1), minlength=n_models)
    rank_counts = counted.sum(axis=0)
    unranked = [m for m, n in zip(matrix.models, rank_counts) if n == 0]
    if unranked:
        raise ValueError(f"no dataset ranks model(s) {', '.join(unranked)} against another")
    mean_ranks = {m: rank_sums[i] / rank_counts[i] for i, m in enumerate(matrix.models)}
    best_counts = {m: int(no_best[i]) for i, m in enumerate(matrix.models)}
    return mean_ranks, best_counts


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank test
# ---------------------------------------------------------------------------

@dataclass
class WilcoxonResult:
    statistic: float   # W = min(W+, W-)
    pvalue: float
    n: int             # pairs remaining after zero differences are dropped
    exact: bool


EXACT_LIMIT = 25


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided paired signed-rank test.

    Zero differences are dropped; |differences| are ranked with tie
    averaging. For n <= 25 the p-value is exact over all 2^n sign
    assignments; above that a tie-corrected normal approximation with
    continuity correction is used.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"paired samples differ in length: {a.shape} vs {b.shape}")
    d = a - b
    d = d[d != 0]
    n = len(d)
    if n == 0:
        raise UndefinedTestError("all paired differences are zero")
    ranks = tie_average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if n <= EXACT_LIMIT:
        p = _exact_pvalue(ranks, w)
        return WilcoxonResult(w, p, n, exact=True)
    mean = n * (n + 1) / 4
    _, tie_counts = np.unique(ranks, return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24 - float(np.sum(tie_counts**3 - tie_counts)) / 48
    z = (w - mean + 0.5) / math.sqrt(var)
    p = min(1.0, math.erfc(-z / math.sqrt(2)))
    return WilcoxonResult(w, p, n, exact=False)


def _exact_pvalue(ranks: np.ndarray, w: float) -> float:
    """min(1, 2 * P(W+ <= w)) over the exact null distribution of W+.

    Tie-averaged ranks are half-integers, so everything is doubled to keep
    integer arithmetic; counts are convolved one rank at a time, which
    enumerates all 2^n sign assignments without listing them. No count
    exceeds 2^n, so int64 is exact for n <= EXACT_LIMIT.
    """
    doubled = [round(2 * r) for r in ranks]
    counts = np.zeros(sum(doubled) + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        counts[r:] += counts[:-r].copy()
    le = int(counts[: round(2 * w) + 1].sum())
    return min(1.0, 2 * le / 2 ** len(ranks))


# ---------------------------------------------------------------------------
# Nemenyi critical difference
# ---------------------------------------------------------------------------

# Two-tailed Nemenyi q values (studentized range / sqrt(2), infinite df),
# indexed by the number of models compared.
NEMENYI_Q = {
    0.05: {2: 1.9600, 3: 2.3437, 4: 2.5690, 5: 2.7278, 6: 2.8497, 7: 2.9483,
           8: 3.0309, 9: 3.1017, 10: 3.1637, 11: 3.2187, 12: 3.2680,
           13: 3.3127, 14: 3.3536, 15: 3.3912, 16: 3.4260, 17: 3.4584,
           18: 3.4887, 19: 3.5171, 20: 3.5438},
    0.10: {2: 1.6449, 3: 2.0523, 4: 2.2913, 5: 2.4595, 6: 2.5885, 7: 2.6927,
           8: 2.7799, 9: 2.8546, 10: 2.9199, 11: 2.9778, 12: 3.0297,
           13: 3.0767, 14: 3.1197, 15: 3.1592, 16: 3.1957, 17: 3.2297,
           18: 3.2615, 19: 3.2912, 20: 3.3192},
}


def nemenyi_cd(num_models: int, num_datasets: int, alpha: float = 0.05) -> float:
    """CD = q_alpha(k) * sqrt(k(k+1) / (6N)); mean-rank gaps above this are
    significant."""
    if alpha not in NEMENYI_Q:
        raise ValueError(f"alpha must be one of {sorted(NEMENYI_Q)}, got {alpha}")
    table = NEMENYI_Q[alpha]
    if num_models not in table:
        raise ValueError(f"q table covers k in [2, {max(table)}], got {num_models}")
    if num_datasets < 1:
        raise ValueError(f"num_datasets must be >= 1, got {num_datasets}")
    return table[num_models] * math.sqrt(
        num_models * (num_models + 1) / (6 * num_datasets)
    )


def cd_diagram_svg(mean_ranks: dict[str, float], cd: float) -> str:
    """Standalone SVG: a mean-rank axis with labeled model positions and a
    bar showing the critical difference."""
    k = len(mean_ranks)
    lo = math.floor(min(mean_ranks.values()))
    hi = math.ceil(max(mean_ranks.values()))
    if hi == lo:
        hi = lo + 1
    width, margin = 720, 60
    axis_y = 60
    scale = (width - 2 * margin) / (hi - lo)

    def x_of(rank: float) -> float:
        return margin + (rank - lo) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{120 + 18 * k}" font-family="sans-serif" font-size="12">',
        f'<line x1="{margin}" y1="{axis_y}" x2="{width - margin}" y2="{axis_y}" '
        'stroke="black"/>',
    ]
    for tick in range(lo, hi + 1):
        x = x_of(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{axis_y - 5}" x2="{x:.1f}" '
                     f'y2="{axis_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{axis_y - 10}" '
                     f'text-anchor="middle">{tick}</text>')
    parts.append(
        f'<line x1="{margin}" y1="{axis_y - 35}" x2="{margin + cd * scale:.1f}" '
        f'y2="{axis_y - 35}" stroke="black" stroke-width="3"/>'
    )
    parts.append(f'<text x="{margin}" y="{axis_y - 42}">CD = {cd:.3f}</text>')
    for i, (name, rank) in enumerate(sorted(mean_ranks.items(), key=lambda kv: kv[1])):
        x = x_of(rank)
        y = axis_y + 30 + 18 * i
        parts.append(f'<line x1="{x:.1f}" y1="{axis_y}" x2="{x:.1f}" y2="{y - 4}" '
                     'stroke="gray" stroke-dasharray="2,2"/>')
        parts.append(f'<text x="{x:.1f}" y="{y}" text-anchor="middle">'
                     f'{name} ({rank:.3f})</text>')
    parts.append("</svg>")
    return "\n".join(parts)

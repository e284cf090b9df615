"""Aggregate analyses: SC partitions, metric offsets, descriptive statistics and
correlation of metric scores with human labels.

The offset of a metric on a partition is the absolute distance between the
metric's mean and the SC mean on that same partition; on the all-correct
partition that reduces to 1 - mean, on the all-wrong partition to the mean
itself. Correlations are Pearson's r and the tie-corrected Kendall tau-b;
degenerate cases are reported as explicit None ("undefined"), never dropped or
zeroed silently.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from ._record import Record
from .corpus import Corpus
from .errors import DataError
from .metrics import CANONICAL_METRICS


class Partition(Record):
    """A named subset of labeled sample ids."""

    _fields = ("kind", "ids")

    def __init__(self, kind: str, ids: tuple[str, ...]) -> None:
        self.__dict__.update(kind=kind, ids=ids)

    def __len__(self) -> int:
        return len(self.ids)


class OffsetRow(Record):
    _fields = ("metric", "mean_value", "offset")

    def __init__(self, metric: str, mean_value: float, offset: float) -> None:
        self.__dict__.update(metric=metric, mean_value=mean_value, offset=offset)


class CorrelationRow(Record):
    _fields = ("metric", "pearson_r", "kendall_tau", "n")

    def __init__(
        self, metric: str, pearson_r: float | None, kendall_tau: float | None, n: int
    ) -> None:
        self.__dict__.update(metric=metric, pearson_r=pearson_r, kendall_tau=kendall_tau, n=n)


class DescriptiveStats(Record):
    _fields = ("min", "q1", "median", "q3", "max", "mean", "std")

    def __init__(
        self, min: float, q1: float, median: float, q3: float, max: float, mean: float,
        std: float,
    ) -> None:
        self.__dict__.update(min=min, q1=q1, median=median, q3=q3, max=max, mean=mean, std=std)


def partition_by_sc(corpus: Corpus) -> tuple[Partition, Partition, Partition]:
    """Split labeled samples into whole / correct (sc=1) / wrong (sc=0).

    Unlabeled samples are excluded; their count is len(corpus) - len(whole).
    """
    labeled = [s for s in corpus if s.labeled]
    if not labeled:
        raise DataError("no labeled samples: every sample is missing the sc field")
    whole = tuple(s.id for s in labeled)
    correct = tuple(s.id for s in labeled if s.sc == 1)
    wrong = tuple(s.id for s in labeled if s.sc == 0)
    return (
        Partition("whole", whole),
        Partition("correct", correct),
        Partition("wrong", wrong),
    )


def _metric_order(scores: Mapping[str, Mapping[str, float]]) -> tuple[str, ...]:
    any_vector = next(iter(scores.values()))
    return tuple(m for m in CANONICAL_METRICS if m in any_vector)


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def offsets(
    corpus: Corpus, scores: Mapping[str, Mapping[str, float]], part: Partition
) -> list[OffsetRow]:
    """Per-metric mean over the partition and its offset from the SC mean."""
    if len(part) == 0:
        raise DataError(f"partition {part.kind!r} is empty")
    missing = [i for i in part.ids if i not in scores]
    if missing:
        raise DataError(f"no scores for sample id(s): {', '.join(missing[:5])}")
    target = sc_mean(corpus, part)
    rows = []
    for metric in _metric_order(scores):
        mean_value = _mean([scores[i][metric] for i in part.ids])
        rows.append(OffsetRow(metric, mean_value, abs(mean_value - target)))
    return rows


def sc_mean(corpus: Corpus, part: Partition) -> float:
    """Mean human label over a partition (the reference marker of the boxplot)."""
    sc_by_id = {s.id: s.sc for s in corpus if s.labeled}
    return _mean([float(sc_by_id[i]) for i in part.ids])


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks on a pre-sorted list."""
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    if lo + 1 >= len(ordered):
        return ordered[-1]
    return ordered[lo] + (h - lo) * (ordered[lo + 1] - ordered[lo])


def describe(values: Sequence[float]) -> DescriptiveStats:
    """Five-number summary plus mean and population standard deviation."""
    if not values:
        raise DataError("describe() needs at least one value")
    ordered = sorted(values)
    mean = _mean(ordered)
    variance = math.fsum((v - mean) ** 2 for v in ordered) / len(ordered)
    return DescriptiveStats(
        min=ordered[0],
        q1=_quantile(ordered, 0.25),
        median=_quantile(ordered, 0.5),
        q3=_quantile(ordered, 0.75),
        max=ordered[-1],
        mean=mean,
        std=math.sqrt(variance),
    )


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Pearson's r: covariance over the product of standard deviations.

    None when either variable is constant (undefined, not NaN).
    """
    if len(x) != len(y):
        raise DataError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise DataError("pearson needs at least 2 observations")
    if all(a == x[0] for a in x) or all(b == y[0] for b in y):
        return None
    y_devs, var_y = _centered(y)
    return _pearson_centered(x, y_devs, var_y)


def _centered(y: Sequence[float]) -> tuple[list[float], float]:
    """Deviations from the mean and the population variance."""
    my = _mean(y)
    devs = [b - my for b in y]
    return devs, math.fsum(d ** 2 for d in devs) / len(devs)


def _pearson_centered(x: Sequence[float], y_devs: Sequence[float], var_y: float) -> float | None:
    """Pearson's r of a non-constant x against y given as `_centered(y)`."""
    n = len(x)
    mx = _mean(x)
    x_devs = [a - mx for a in x]
    cov = math.fsum([a * b for a, b in zip(x_devs, y_devs)]) / n
    var_x = math.fsum([a ** 2 for a in x_devs]) / n
    if var_x == 0.0 or var_y == 0.0:
        return None
    r = cov / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


def _merge_count_inversions(seq: list[float]) -> int:
    """Number of (i, j) pairs with i < j and seq[i] > seq[j], by merge sort."""
    if len(seq) <= 1:
        return 0
    mid = len(seq) // 2
    left, right = seq[:mid], seq[mid:]
    inversions = _merge_count_inversions(left) + _merge_count_inversions(right)
    i = j = k = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            seq[k] = left[i]
            i += 1
        else:
            seq[k] = right[j]
            j += 1
            inversions += len(left) - i
        k += 1
    seq[k:] = left[i:] if i < len(left) else right[j:]
    return inversions


def _tie_pairs(values: Sequence) -> int:
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Tie-corrected Kendall rank correlation (tau-b).

    (C - D) / sqrt((C + D + Tx)(C + D + Ty)); None when all pairs are tied in
    either variable. Discordant pairs are counted via merge-sort inversions of
    y ordered by (x, y), so the whole computation is O(n log n).
    """
    if len(x) != len(y):
        raise DataError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise DataError("kendall_tau needs at least 2 observations")
    n0 = n * (n - 1) // 2
    x_ties = _tie_pairs(x)
    y_ties = _tie_pairs(y)
    if n0 == x_ties or n0 == y_ties:
        return None
    joint_ties = _tie_pairs(list(zip(x, y)))
    y_in_x_order = [yv for _, yv in sorted(zip(x, y))]
    discordant = _merge_count_inversions(y_in_x_order)
    con_minus_dis = n0 - x_ties - y_ties + joint_ties - 2 * discordant
    tau = con_minus_dis / math.sqrt(n0 - x_ties) / math.sqrt(n0 - y_ties)
    return max(-1.0, min(1.0, tau))


def _binary_concordance(x: Sequence[float], labels: Sequence[int]) -> tuple[int, int]:
    """(C - D, T_x) of tau-b between x and 0/1 labels, from one sort of x.

    Against a 0/1 variable, C - D is the sum of sign(x1 - x0) over every pair
    of an sc=1 score x1 and an sc=0 score x0 (Knight 1966). Walking the tie
    groups of x in ascending order, each 1 in a group is above every 0 of the
    groups before it, and each 0 below every 1 of them.
    """
    ordered = sorted(zip(x, labels))
    con_minus_dis = x_ties = ones_below = zeros_below = 0
    i = 0
    while i < len(ordered):
        value = ordered[i][0]
        j = i
        ones = 0
        while j < len(ordered) and ordered[j][0] == value:
            ones += ordered[j][1]
            j += 1
        size = j - i
        zeros = size - ones
        x_ties += size * (size - 1) // 2
        con_minus_dis += ones * zeros_below - zeros * ones_below
        ones_below += ones
        zeros_below += zeros
        i = j
    return con_minus_dis, x_ties


def correlate(
    corpus: Corpus, scores: Mapping[str, Mapping[str, float]]
) -> list[CorrelationRow]:
    """Pearson and Kendall correlation of each metric with the human labels,
    over individual labeled samples, in canonical metric order.

    The labels are 0/1, so the label side of both statistics is computed once
    and each metric's tau-b comes from one sort of its scores. Every value is
    bitwise equal to `pearson(values, sc)` and `kendall_tau(values, sc)`: the
    same integer tau-b terms and the same float sums in the same order.
    """
    labeled = [s for s in corpus if s.labeled]
    if len(labeled) < 2:
        raise DataError(f"correlation needs >= 2 labeled samples, have {len(labeled)}")
    missing = [s.id for s in labeled if s.id not in scores]
    if missing:
        raise DataError(f"no scores for sample id(s): {', '.join(missing[:5])}")
    n = len(labeled)
    labels = [int(s.sc) for s in labeled]
    ones = sum(labels)
    pairs = n * (n - 1) // 2
    label_ties = ones * (ones - 1) // 2 + (n - ones) * (n - ones - 1) // 2
    label_devs, var_y = _centered([float(v) for v in labels])
    rows = []
    for metric in _metric_order(scores):
        values = [scores[s.id][metric] for s in labeled]
        r = tau = None
        if label_ties < pairs:
            con_minus_dis, x_ties = _binary_concordance(values, labels)
            if x_ties < pairs:
                r = _pearson_centered(values, label_devs, var_y)
                tau = con_minus_dis / math.sqrt(pairs - x_ties) / math.sqrt(pairs - label_ties)
                tau = max(-1.0, min(1.0, tau))
        rows.append(CorrelationRow(metric=metric, pearson_r=r, kendall_tau=tau, n=n))
    return rows

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from evalkit import Corpus, DataError, correlate, describe, kendall_tau, offsets, partition_by_sc, pearson
from evalkit.stats import sc_mean

from conftest import make_sample
from oracles import kendall_pairwise, point_biserial, quantile_sorted


def labeled_corpus(labels):
    return Corpus(tuple(make_sample(i, sc=sc) for i, sc in enumerate(labels)))


class TestPartition:
    def test_by_definition(self):
        corpus = labeled_corpus([1, 0, 1])
        whole, correct, wrong = partition_by_sc(corpus)
        assert whole.ids == ("s0000", "s0001", "s0002")
        assert correct.ids == ("s0000", "s0002")
        assert wrong.ids == ("s0001",)

    def test_all_correct_leaves_wrong_empty(self):
        _, correct, wrong = partition_by_sc(labeled_corpus([1, 1]))
        assert len(wrong) == 0
        assert len(correct) == 2

    def test_unlabeled_excluded_and_countable(self):
        corpus = labeled_corpus([1, None, 0, None])
        whole, _, _ = partition_by_sc(corpus)
        assert whole.ids == ("s0000", "s0002")
        assert len(corpus) - len(whole) == 2

    def test_no_labels_is_an_error(self):
        with pytest.raises(DataError, match="no labeled"):
            partition_by_sc(labeled_corpus([None, None]))


class TestOffsets:
    def test_identity_corpus_whole(self):
        corpus = labeled_corpus([1, 1, 1])
        scores = {s.id: {"EM": 1.0} for s in corpus}
        whole, _, _ = partition_by_sc(corpus)
        (row,) = offsets(corpus, scores, whole)
        assert row.mean_value == 1.0 and row.offset == 0.0

    def test_wrong_partition_em_zero(self):
        corpus = labeled_corpus([0, 0, 1])
        scores = {s.id: {"EM": 0.0 if s.sc == 0 else 1.0} for s in corpus}
        _, _, wrong = partition_by_sc(corpus)
        (row,) = offsets(corpus, scores, wrong)
        assert row.mean_value == 0.0 and row.offset == 0.0

    def test_four_sample_hand_arithmetic(self):
        corpus = labeled_corpus([1, 0, 1, 0])
        em = {"s0000": 1.0, "s0001": 0.25, "s0002": 0.5, "s0003": 0.75}
        ed = {"s0000": 0.9, "s0001": 0.1, "s0002": 0.3, "s0003": 0.7}
        scores = {i: {"EM": em[i], "ED": ed[i]} for i in em}
        whole, correct, wrong = partition_by_sc(corpus)
        rows = {r.metric: r for r in offsets(corpus, scores, whole)}
        # hand arithmetic: means 2.5/4 and 2.0/4, SC mean 0.5
        assert rows["EM"].mean_value == pytest.approx(0.625)
        assert rows["EM"].offset == pytest.approx(0.125)
        assert rows["ED"].mean_value == pytest.approx(0.5)
        assert rows["ED"].offset == pytest.approx(0.0)
        rows_c = {r.metric: r for r in offsets(corpus, scores, correct)}
        assert rows_c["EM"].offset == pytest.approx(1 - rows_c["EM"].mean_value)
        rows_w = {r.metric: r for r in offsets(corpus, scores, wrong)}
        assert rows_w["EM"].offset == pytest.approx(rows_w["EM"].mean_value)

    def test_empty_partition_rejected(self):
        corpus = labeled_corpus([1, 1])
        _, _, wrong = partition_by_sc(corpus)
        with pytest.raises(DataError, match="empty"):
            offsets(corpus, {s.id: {"EM": 1.0} for s in corpus}, wrong)

    def test_missing_scores_rejected(self):
        corpus = labeled_corpus([1, 0])
        whole, _, _ = partition_by_sc(corpus)
        with pytest.raises(DataError, match="s0001"):
            offsets(corpus, {"s0000": {"EM": 1.0}}, whole)


class TestDescribe:
    def test_singleton(self):
        stats = describe([0.5])
        assert (stats.min, stats.q1, stats.median, stats.q3, stats.max) == (0.5,) * 5
        assert stats.mean == 0.5 and stats.std == 0.0

    def test_two_values(self):
        stats = describe([0.0, 1.0])
        assert stats.min == 0.0 and stats.max == 1.0
        assert stats.median == 0.5 and stats.mean == 0.5

    def test_against_numpy_linear_interpolation(self):
        rng = random.Random(23)
        for _ in range(50):
            values = [rng.random() for _ in range(rng.randint(1, 40))]
            stats = describe(values)
            assert stats.q1 == pytest.approx(np.percentile(values, 25))
            assert stats.median == pytest.approx(np.percentile(values, 50))
            assert stats.q3 == pytest.approx(np.percentile(values, 75))
            assert stats.std == pytest.approx(np.std(values))
            assert stats.q1 == pytest.approx(quantile_sorted(values, 0.25))

    def test_permutation_invariance(self):
        values = [0.3, 0.9, 0.1, 0.5, 0.5]
        shuffled = [0.5, 0.1, 0.9, 0.5, 0.3]
        assert describe(values) == describe(shuffled)

    def test_ordering_invariant(self):
        stats = describe([0.2, 0.8, 0.4, 0.6])
        assert stats.min <= stats.q1 <= stats.median <= stats.q3 <= stats.max

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            describe([])


# Published whole-test-set means of the 23 metrics on an assembly and a Python
# shellcode corpus; the expected distribution summaries are pinned below.
ASSEMBLY_MEANS = [0.87, 0.75, 0.71, 0.72, 0.55, 0.52, 0.53, 0.40, 0.38, 0.39,
                  0.18, 0.17, 0.17, 0.75, 0.71, 0.72, 0.69, 0.63, 0.60, 0.57,
                  0.41, 0.72, 0.79]
PYTHON_MEANS = [0.91, 0.63, 0.63, 0.63, 0.45, 0.45, 0.44, 0.26, 0.26, 0.26,
                0.05, 0.05, 0.05, 0.63, 0.63, 0.63, 0.58, 0.48, 0.37, 0.26,
                0.27, 0.74, 0.81]


class TestPublishedSummaries:
    def test_assembly_distribution(self):
        stats = describe(ASSEMBLY_MEANS)
        assert stats.min == pytest.approx(0.17)
        assert stats.median == pytest.approx(0.60)
        assert stats.mean == pytest.approx(0.56, abs=0.005)
        assert stats.std == pytest.approx(0.21, abs=0.01)
        assert stats.max == pytest.approx(0.87)

    def test_python_distribution(self):
        stats = describe(PYTHON_MEANS)
        assert stats.min == pytest.approx(0.05)
        assert stats.median == pytest.approx(0.45)
        assert stats.mean == pytest.approx(0.46, abs=0.005)
        assert stats.std == pytest.approx(0.24, abs=0.01)
        assert stats.max == pytest.approx(0.91)


class TestPearson:
    def test_perfect_linear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)

    def test_constant_is_undefined(self):
        assert pearson([1, 2, 3], [5, 5, 5]) is None
        assert pearson([5, 5, 5], [1, 2, 3]) is None

    def test_hand_computed_four_points(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8

    def test_sign_of_slope(self):
        x = [0.0, 0.5, 1.5, 4.0]
        assert pearson(x, [-3 * v + 2 for v in x]) == pytest.approx(-1.0)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            pearson([1, 2], [1])

    def test_one_observation_rejected(self):
        with pytest.raises(DataError) as info:
            pearson([0.5], [1.0])
        assert str(info.value) == "pearson needs at least 2 observations"

    def test_variance_that_underflows_is_undefined(self):
        # x is not constant, but its squared deviations underflow to 0
        assert pearson([1e-200, 0.0], [0.0, 1.0]) is None

    def test_matches_scipy(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(2, 30)
            x = [rng.random() for _ in range(n)]
            y = [rng.random() for _ in range(n)]
            expected = scipy.stats.pearsonr(x, y).statistic
            assert pearson(x, y) == pytest.approx(expected, abs=1e-12)

    def test_point_biserial_identity_for_binary_y(self):
        rng = random.Random(37)
        for _ in range(50):
            n = rng.randint(4, 40)
            x = [rng.random() for _ in range(n)]
            y = [rng.choice((0, 1)) for _ in range(n)]
            expected = point_biserial(x, y)
            got = pearson(x, [float(v) for v in y])
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)


class TestKendall:
    def test_identical_ranks(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_ranks(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_counted_concordances(self):
        # C = 5, D = 1, no ties: (5 - 1) / 6
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3, abs=1e-12)

    def test_length_mismatch_and_one_observation_rejected(self):
        with pytest.raises(DataError) as info:
            kendall_tau([1, 2], [1])
        assert str(info.value) == "length mismatch: 2 vs 1"
        with pytest.raises(DataError) as info:
            kendall_tau([1], [1])
        assert str(info.value) == "kendall_tau needs at least 2 observations"

    def test_all_tied_is_undefined(self):
        assert kendall_tau([1, 1, 1], [1, 2, 3]) is None
        assert kendall_tau([1, 2, 3], [7, 7, 7]) is None

    def test_matches_pairwise_oracle_and_scipy_with_ties(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(2, 25)
            x = [rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) for _ in range(n)]
            y = [float(rng.choice((0, 1))) for _ in range(n)]
            expected = kendall_pairwise(x, y)
            got = kendall_tau(x, y)
            if expected is None:
                assert got is None
                continue
            assert got == pytest.approx(expected, abs=1e-12)
            sp = scipy.stats.kendalltau(x, y, variant="b").statistic
            assert got == pytest.approx(sp, abs=1e-9)

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(43)
        x = [rng.random() for _ in range(30)]
        y = [rng.choice((0.0, 1.0)) for _ in range(30)]
        base = kendall_tau(x, y)
        for _ in range(100):
            # random strictly increasing piecewise-linear transform
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-3.0, 3.0)
            knee = rng.random()
            slope2 = rng.uniform(0.1, 5.0)
            fx = [a * v + b if v < knee else a * knee + b + slope2 * (v - knee) for v in x]
            assert kendall_tau(fx, y) == pytest.approx(base, abs=1e-12)

    def test_antisymmetry_without_ties(self):
        rng = random.Random(47)
        x = rng.sample(range(100), 20)
        y = [rng.random() for _ in range(20)]
        assert kendall_tau([-v for v in x], y) == pytest.approx(-kendall_tau(x, y), abs=1e-12)


class TestCorrelate:
    def test_metric_equal_to_sc_is_perfect(self):
        corpus = labeled_corpus([1, 0, 1, 0, 1])
        scores = {s.id: {"EM": float(s.sc), "ED": 0.5} for s in corpus}
        rows = {r.metric: r for r in correlate(corpus, scores)}
        assert rows["EM"].pearson_r == pytest.approx(1.0)
        assert rows["EM"].kendall_tau == pytest.approx(1.0)
        assert rows["EM"].n == 5

    def test_constant_metric_flagged_undefined(self):
        corpus = labeled_corpus([1, 0, 1])
        scores = {s.id: {"EM": 0.3 * i, "ED": 0.7} for i, s in enumerate(corpus)}
        rows = {r.metric: r for r in correlate(corpus, scores)}
        assert rows["ED"].pearson_r is None and rows["ED"].kendall_tau is None
        assert rows["EM"].pearson_r is not None and rows["EM"].kendall_tau is not None

    def test_constant_labels_flagged_undefined(self):
        for labels in ([1, 1, 1], [0, 0, 0, 0]):
            corpus = labeled_corpus(labels)
            scores = {s.id: {"EM": float(i % 2), "ED": random.Random(i).random()}
                      for i, s in enumerate(corpus)}
            for row in correlate(corpus, scores):
                assert row.pearson_r is None and row.kendall_tau is None

    def test_six_sample_hand_built(self):
        corpus = labeled_corpus([1, 1, 1, 0, 0, 0])
        ed = [0.9, 0.8, 0.6, 0.5, 0.3, 0.1]
        scores = {s.id: {"ED": ed[i]} for i, s in enumerate(corpus)}
        (row,) = correlate(corpus, scores)
        x, y = ed, [1, 1, 1, 0, 0, 0]
        assert row.pearson_r == pytest.approx(point_biserial(x, y), abs=1e-12)
        assert row.kendall_tau == pytest.approx(kendall_pairwise(x, y), abs=1e-12)

    def test_needs_two_labeled(self):
        corpus = labeled_corpus([1, None, None])
        with pytest.raises(DataError):
            correlate(corpus, {s.id: {"EM": 1.0} for s in corpus})

    def test_labeled_sample_without_scores_rejected(self):
        corpus = labeled_corpus([1, 0, None, 1])
        scores = {s.id: {"EM": 1.0} for s in corpus if s.id != "s0003"}
        with pytest.raises(DataError) as info:
            correlate(corpus, scores)
        assert str(info.value) == "no scores for sample id(s): s0003"

    def test_unlabeled_samples_skipped(self):
        corpus = labeled_corpus([1, None, 0, None, 1])
        scores = {s.id: {"EM": float(s.sc or 0)} for s in corpus}
        (row,) = correlate(corpus, scores)
        assert row.n == 3

    def test_rows_in_canonical_order(self):
        corpus = labeled_corpus([1, 0, 1])
        scores = {s.id: {"ED": 0.1 * i, "CA": float(i % 2), "EM": 0.0}
                  for i, s in enumerate(corpus)}
        rows = correlate(corpus, scores)
        assert [r.metric for r in rows] == ["CA", "EM", "ED"]

    # scores from a pool of a few values, so most of them tie, with six
    # decimals like the scores analyze reads from results.csv
    _tied_samples = st.lists(st.floats(0, 1).map(lambda v: round(v, 6)), max_size=3).flatmap(
        lambda extra: st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from([0.0, 0.25, 0.5, 1.0, *extra]),
                      st.sampled_from([0.0, 1.0, *extra])),
            min_size=2, max_size=60))

    @settings(max_examples=300, deadline=None)
    @given(samples=_tied_samples)
    def test_equals_general_functions_on_heavy_ties(self, samples):
        corpus = labeled_corpus([label for label, _, _ in samples])
        scores = {s.id: {"EM": em, "ED": ed} for s, (_, ed, em) in zip(corpus, samples)}
        sc = [float(label) for label, _, _ in samples]
        for row in correlate(corpus, scores):
            values = [scores[s.id][row.metric] for s in corpus]
            assert row.pearson_r == pearson(values, sc)
            assert row.kendall_tau == kendall_tau(values, sc)
            if len(set(values)) == 1 or len(set(sc)) == 1:
                assert row.pearson_r is None and row.kendall_tau is None
                continue
            # exact fractions keep the oracles' plain sums from rounding
            exact = [Fraction(v) for v in values]
            assert row.pearson_r == pytest.approx(point_biserial(exact, sc), abs=1e-12)
            assert row.kendall_tau == pytest.approx(kendall_pairwise(exact, sc), abs=1e-12)

    @pytest.mark.parametrize("values, expected", [
        ((0.7, 0.3), 1.0), ((0.3, 0.7), -1.0), ((0.5, 0.5), None)])
    def test_two_samples(self, values, expected):
        corpus = labeled_corpus([1, 0])
        scores = {s.id: {"ED": v} for s, v in zip(corpus, values)}
        (row,) = correlate(corpus, scores)
        assert row.pearson_r == row.kendall_tau == expected
        assert row.n == 2


def test_sc_mean_is_partition_mean():
    corpus = labeled_corpus([1, 0, 1, 1])
    whole, correct, wrong = partition_by_sc(corpus)
    assert sc_mean(corpus, whole) == pytest.approx(0.75)
    assert sc_mean(corpus, correct) == 1.0
    assert sc_mean(corpus, wrong) == 0.0

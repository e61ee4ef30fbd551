"""Frequency spectrum construction, proportion curves, and smoothing."""

import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hapaxprior import (
    SpectrumTable,
    TypeCount,
    UnseenFormError,
    backoff_prior,
    build_spectrum,
    class_proportions,
    form_mle,
    hapax_mle,
    hapaxes,
    running_median,
)

import oracles
from conftest import corpus_of, random_pairs


TOY = [
    ("lopen", 0),
    ("lopen", 1),
    ("werken", 0),
    ("fluiten", 1),
    ("lopen", 0),
    ("kijken", 0),
]


class TestTypeCount:
    def test_total_and_hapax_flag(self):
        tc = TypeCount("x", (1, 0))
        assert tc.total == 1
        assert TypeCount("y", (2, 1)).total == 3

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            TypeCount("x", (0, 0))
        with pytest.raises(ValueError):
            TypeCount("x", (2, -1))


class TestBuildSpectrum:
    def test_toy_counts(self, ab_spec):
        table = build_spectrum(corpus_of(ab_spec, TOY))
        assert table.types["lopen"].per_function == (2, 1)
        assert table.types["werken"].per_function == (1, 0)
        assert table.types["fluiten"].per_function == (0, 1)
        assert table.token_totals == (4, 2)
        assert table.hapax_totals == (2, 1)
        assert table.n_tokens == 6
        assert table.n_hapax_tokens == 3

    def test_empty_corpus(self, ab_spec):
        table = build_spectrum(corpus_of(ab_spec, []))
        assert table.types == {}
        assert table.token_totals == (0, 0)
        assert table.n_tokens == 0

    def test_hapaxes_in_first_occurrence_order(self, ab_spec):
        table = build_spectrum(corpus_of(ab_spec, TOY))
        assert [tc.form for tc in hapaxes(table)] == ["werken", "fluiten", "kijken"]

    def test_totals_are_consistent_sums(self, ab_spec):
        rng = random.Random(11)
        for _ in range(25):
            corpus = corpus_of(ab_spec, random_pairs(rng))
            table = build_spectrum(corpus)
            for f in range(2):
                assert table.token_totals[f] == sum(
                    tc.per_function[f] for tc in table.types.values()
                )
                assert table.hapax_totals[f] == sum(
                    tc.per_function[f] for tc in table.types.values() if tc.total == 1
                )
            assert table.n_tokens == len(corpus)

    def test_counts_match_the_oracle(self, ab_spec):
        rng = random.Random(5)
        for _ in range(25):
            pairs = random_pairs(rng)
            corpus = corpus_of(ab_spec, pairs)
            counts = build_spectrum(corpus).counts
            assert counts.dtype == np.int64 and not counts.flags.writeable
            assert [list(row) for row in counts] == [oracles.count_form(pairs, f, 2) for f in corpus.forms]

    def test_counts_are_column_major(self, ab_spec):
        # each function's column is contiguous, which keeps the row and column sums fast
        rng = random.Random(8)
        for _ in range(10):
            assert build_spectrum(corpus_of(ab_spec, random_pairs(rng))).counts.flags.f_contiguous

    def test_table_rejects_totals_of_wrong_arity(self, ab_spec):
        with pytest.raises(ValueError):
            SpectrumTable(spec=ab_spec, types={}, token_totals=(1,), hapax_totals=(0, 0))


class TestFromCounts:
    def table(self, ab_spec):
        # "x" has no tokens, as a form held out of a training fold
        return SpectrumTable.from_counts(ab_spec, ("x", "y", "z", "w"), [[0, 0], [1, 0], [2, 1], [0, 1]])

    def test_totals_and_views_skip_empty_rows(self, ab_spec):
        table = self.table(ab_spec)
        assert table.token_totals == (3, 2) and table.hapax_totals == (1, 1)
        assert list(table.type_totals) == [0, 1, 3, 1]
        assert list(table.types) == ["y", "z", "w"]
        assert table.types["z"] == TypeCount("z", (2, 1))
        assert [tc.form for tc in hapaxes(table)] == ["y", "w"]
        assert [(p.frequency, p.n_types) for p in class_proportions(table, "a")] == [(1, 2), (3, 1)]

    def test_empty_row_is_an_unseen_form(self, ab_spec):
        table = self.table(ab_spec)
        with pytest.raises(UnseenFormError):
            form_mle(table, "x")
        assert backoff_prior(table, "x").source == "backoff-hapax"
        assert form_mle(table, "z").support == 3

    def test_counts_are_a_read_only_copy(self, ab_spec):
        counts = np.array([[1, 0], [2, 2]])
        table = SpectrumTable.from_counts(ab_spec, ("y", "z"), counts)
        counts[0, 0] = 5
        assert table.counts.tolist() == [[1, 0], [2, 2]]
        with pytest.raises(ValueError):
            table.counts[0, 0] = 5
        with pytest.raises(TypeError):
            table.types["q"] = TypeCount("q", (1, 0))

    def test_rejects_bad_counts(self, ab_spec):
        for forms, counts in ((("y",), [[1, 0, 0]]), (("y", "z"), [[1, 0]]), (("y",), [[2, -1]])):
            with pytest.raises(ValueError):
                SpectrumTable.from_counts(ab_spec, forms, counts)

    def test_rejects_repeated_forms(self, ab_spec):
        # two "x" rows would count as two types, one of them a hapax, and rows would keep only the last
        with pytest.raises(ValueError, match="^forms must be distinct$"):
            SpectrumTable.from_counts(ab_spec, ["x", "x", "y"], [[1, 0], [0, 3], [0, 1]])


def outcome(estimator, *args):
    """The estimate, or the type of the error the estimator raised."""
    try:
        return estimator(*args)
    except ValueError as exc:
        return type(exc)


class TestHandBuiltTable:
    def test_matches_build_spectrum_on_random_corpora(self, ab_spec):
        rng = random.Random(17)
        for _ in range(50):
            pairs = random_pairs(rng)
            built = build_spectrum(corpus_of(ab_spec, pairs))
            hand = SpectrumTable(
                spec=ab_spec,
                types={form: TypeCount(form, oracles.count_form(pairs, form, 2))
                       for form in oracles.distinct_forms(pairs)},
                token_totals=oracles.function_totals(pairs, 2),
                hapax_totals=oracles.hapax_totals(pairs, 2),
            )
            assert hand.types == built.types
            assert hapaxes(hand) == hapaxes(built)
            for reference in ("a", "b"):
                assert class_proportions(hand, reference) == class_proportions(built, reference)
            for form in [*hand.types, "unseen"]:
                assert outcome(form_mle, hand, form) == outcome(form_mle, built, form)
                for threshold in (1, 2, 3):
                    assert outcome(backoff_prior, hand, form, threshold) == \
                        outcome(backoff_prior, built, form, threshold)

    def test_given_totals_are_trusted(self, ab_spec):
        hand = SpectrumTable(spec=ab_spec, types={"y": TypeCount("y", (1, 0))},
                             token_totals=(70, 30), hapax_totals=(4, 6))
        assert hand.token_totals == (70, 30) and hand.hapax_totals == (4, 6)
        assert hapax_mle(hand).probabilities == pytest.approx((0.4, 0.6))
        assert backoff_prior(hand, "y").source == "backoff-form"
        assert [tc.form for tc in hapaxes(hand)] == ["y"]

    def test_a_key_must_be_its_type_counts_form(self, ab_spec):
        with pytest.raises(ValueError, match="^types key 'x' is not its TypeCount's form$"):
            SpectrumTable(ab_spec, {"x": TypeCount("y", (1, 0))}, (1, 0), (1, 0))


class TestClassProportions:
    def test_toy_curve(self, ab_spec):
        # frequencies: 1 (werken, fluiten, kijken) and 3 (lopen)
        table = build_spectrum(corpus_of(ab_spec, TOY))
        points = class_proportions(table, "a")
        assert [(p.frequency, p.n_types) for p in points] == [(1, 3), (3, 1)]
        assert points[0].proportion == pytest.approx(2 / 3)
        assert points[1].proportion == pytest.approx(2 / 3)
        assert points[0].log_frequency == 0.0
        assert points[1].log_frequency == pytest.approx(math.log(3))

    def test_hapax_point_equals_hapax_share(self, ab_spec):
        table = build_spectrum(corpus_of(ab_spec, TOY))
        first = class_proportions(table, "b")[0]
        assert first.frequency == 1
        assert first.proportion == pytest.approx(
            table.hapax_totals[1] / table.n_hapax_tokens
        )

    def test_matches_naive_recount(self, ab_spec):
        rng = random.Random(23)
        for _ in range(25):
            pairs = random_pairs(rng)
            table = build_spectrum(corpus_of(ab_spec, pairs))
            got = [(p.frequency, p.n_types, p.proportion) for p in class_proportions(table, "a")]
            assert got == pytest.approx(oracles.class_proportion_rows(pairs, 2, 0))

    def test_unknown_reference_label(self, ab_spec):
        table = build_spectrum(corpus_of(ab_spec, TOY))
        with pytest.raises(KeyError):
            class_proportions(table, "zzz")


class TestRunningMedian:
    def test_window_three_hand_trace(self):
        assert running_median([5.0, 1.0, 4.0, 2.0, 3.0], window=3) == [5.0, 4.0, 2.0, 3.0, 3.0]

    def test_endpoints_copied_through(self):
        values = [9.0, 0.0, 0.0, 0.0, 7.0]
        out = running_median(values, window=5)
        assert out[0] == 9.0 and out[-1] == 7.0
        assert out[2] == 0.0

    def test_series_shorter_than_window_is_unchanged(self):
        assert running_median([1.0, 2.0], window=5) == [1.0, 2.0]

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            running_median([1.0, 2.0, 3.0], window=4)
        with pytest.raises(ValueError):
            running_median([1.0, 2.0, 3.0], window=1)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.sampled_from([3, 5, 7]),
    )
    def test_window_median_property(self, values, window):
        out = running_median(values, window)
        assert len(out) == len(values)
        half = window // 2
        for i, v in enumerate(out):
            if i < half or i >= len(values) - half:
                assert v == values[i]
            else:
                assert v == statistics.median(values[i - half : i + half + 1])

    def test_idempotent_on_monotone_series(self):
        values = [float(i) for i in range(10)]
        assert running_median(values, 5) == values

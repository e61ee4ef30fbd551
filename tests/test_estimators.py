"""Overall/hapax/per-form estimators, backoff routing, expected counts."""

import pytest
from hypothesis import given, strategies as st

from hapaxprior import (
    EstimationError,
    NoHapaxesError,
    PriorEstimate,
    SpectrumTable,
    UnseenFormError,
    backoff_prior,
    build_spectrum,
    expected_unseen_counts,
    form_mle,
    hapax_mle,
    overall_mle,
)

import oracles
from conftest import corpus_of


def totals_table(spec, token_totals, hapax_totals):
    """Totals-only table, as when working from published aggregates."""
    return SpectrumTable(
        spec=spec, types={}, token_totals=token_totals, hapax_totals=hapax_totals
    )


TOY = [
    ("lopen", 0),
    ("lopen", 1),
    ("werken", 0),
    ("fluiten", 1),
    ("lopen", 0),
    ("kijken", 0),
]


class TestOverallAndHapax:
    def test_toy_values(self, ab_spec):
        table = build_spectrum(corpus_of(ab_spec, TOY))
        o = overall_mle(table)
        assert o.probabilities == pytest.approx((4 / 6, 2 / 6))
        assert o.source == "overall" and o.support == 6
        h = hapax_mle(table)
        assert h.probabilities == pytest.approx((2 / 3, 1 / 3))
        assert h.source == "hapax" and h.support == 3

    def test_aggregate_totals(self, en_spec):
        # whole-corpus totals for the infinitive/plural class
        table = totals_table(en_spec, (21703, 9922), (1000, 200))
        assert overall_mle(table).probabilities[0] == pytest.approx(0.686, abs=5e-4)
        assert round(overall_mle(table).probabilities[0], 2) == 0.69

    def test_empty_table_errors(self, ab_spec):
        with pytest.raises(EstimationError):
            overall_mle(totals_table(ab_spec, (0, 0), (0, 0)))

    def test_no_hapaxes_errors(self, ab_spec):
        corpus = corpus_of(ab_spec, [("xx", 0), ("xx", 1), ("yy", 0), ("yy", 0)])
        table = build_spectrum(corpus)
        with pytest.raises(NoHapaxesError):
            hapax_mle(table)
        # the specific error is also the generic one
        with pytest.raises(EstimationError):
            hapax_mle(table)

    def test_no_hapaxes_message_names_the_counts(self, ab_spec):
        corpus = corpus_of(ab_spec, [("xx", 0)] * 6 + [("yy", 1)] * 6)
        with pytest.raises(NoHapaxesError) as info:
            hapax_mle(build_spectrum(corpus))
        assert str(info.value) == (
            "hapax-based estimator undefined: no form occurs exactly once among 12 tokens of 2 types"
        )


class TestFormMLE:
    def test_seen_form(self, ab_spec):
        table = build_spectrum(corpus_of(ab_spec, TOY))
        est = form_mle(table, "lopen")
        assert est.probabilities == pytest.approx((2 / 3, 1 / 3))
        assert est.source == "form" and est.support == 3

    def test_per_form_counts(self, en_spec):
        # 92 infinitive vs 43 plural tokens of one frequent form
        corpus = corpus_of(en_spec, [("lopen", 0)] * 92 + [("lopen", 1)] * 43)
        est = form_mle(build_spectrum(corpus), "lopen")
        assert est.probabilities[0] == pytest.approx(0.68, abs=5e-3)
        assert est.support == 135

    def test_unseen_form_raises_distinct_error(self, ab_spec):
        table = build_spectrum(corpus_of(ab_spec, TOY))
        with pytest.raises(UnseenFormError):
            form_mle(table, "zzz")

    def test_matches_naive_recount(self, ab_spec):
        table = build_spectrum(corpus_of(ab_spec, TOY))
        for form in ("lopen", "werken", "fluiten"):
            counts = oracles.count_form(TOY, form, 2)
            assert form_mle(table, form).probabilities == pytest.approx(
                oracles.proportions(counts)
            )


class TestBackoff:
    @pytest.fixture
    def table(self, ab_spec):
        return build_spectrum(corpus_of(ab_spec, TOY))

    def test_seen_form_uses_form_route(self, table):
        est = backoff_prior(table, "lopen", threshold=1)
        assert est.source == "backoff-form"
        assert est.probabilities == form_mle(table, "lopen").probabilities
        assert est.support == 3

    def test_unseen_form_backs_off_to_hapax(self, table):
        est = backoff_prior(table, "zzz", threshold=1)
        assert est.source == "backoff-hapax"
        assert est.probabilities == hapax_mle(table).probabilities
        assert est.support == 3

    def test_threshold_pushes_rare_forms_to_hapax(self, table):
        assert backoff_prior(table, "werken", threshold=1).source == "backoff-form"
        assert backoff_prior(table, "werken", threshold=2).source == "backoff-hapax"
        assert backoff_prior(table, "lopen", threshold=3).source == "backoff-form"
        assert backoff_prior(table, "lopen", threshold=4).source == "backoff-hapax"

    def test_threshold_must_be_positive(self, table):
        with pytest.raises(ValueError):
            backoff_prior(table, "lopen", threshold=0)

    def test_backoff_without_hapaxes_errors(self, ab_spec):
        table = build_spectrum(corpus_of(ab_spec, [("xx", 0), ("xx", 1)]))
        with pytest.raises(NoHapaxesError):
            backoff_prior(table, "zzz")


class TestExpectedCounts:
    def test_real_and_rounded(self):
        est = PriorEstimate(probabilities=(0.853, 0.147), source="hapax", support=1260)
        exp = expected_unseen_counts(est, 144)
        assert exp.real == pytest.approx((122.832, 21.168))
        assert exp.rounded == (123, 21)

    def test_halves_round_up(self):
        est = PriorEstimate(probabilities=(0.5, 0.5), source="overall", support=2)
        assert expected_unseen_counts(est, 1).rounded == (1, 1)
        assert expected_unseen_counts(est, 3).rounded == (2, 2)

    def test_zero_unseen(self):
        est = PriorEstimate(probabilities=(0.7, 0.3), source="overall", support=10)
        exp = expected_unseen_counts(est, 0)
        assert exp.real == (0.0, 0.0) and exp.rounded == (0, 0)

    def test_negative_count_rejected(self):
        est = PriorEstimate(probabilities=(1.0, 0.0), source="overall", support=1)
        with pytest.raises(ValueError):
            expected_unseen_counts(est, -1)

    @given(
        counts=st.lists(st.integers(0, 10_000), min_size=2, max_size=4).filter(
            lambda c: sum(c) > 0
        ),
        n=st.integers(0, 10_000),
    )
    def test_real_counts_sum_to_n(self, counts, n):
        total = sum(counts)
        est = PriorEstimate(
            probabilities=tuple(c / total for c in counts),
            source="overall",
            support=total,
        )
        exp = expected_unseen_counts(est, n)
        assert sum(exp.real) == pytest.approx(n)
        assert all(exp.rounded[i] == oracles.round_half_up(exp.real[i]) for i in range(len(counts)))


class TestPriorEstimate:
    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError):
            PriorEstimate(probabilities=(1.0, 0.0), source="magic", support=1)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            PriorEstimate(probabilities=(0.6, 0.6), source="overall", support=1)
        with pytest.raises(ValueError):
            PriorEstimate(probabilities=(1.5, -0.5), source="overall", support=1)

    def test_rejects_zero_support(self):
        with pytest.raises(ValueError):
            PriorEstimate(probabilities=(1.0, 0.0), source="overall", support=0)

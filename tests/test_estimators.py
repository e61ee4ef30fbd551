"""Overall/hapax/per-form estimators, backoff routing, expected counts."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hapaxprior import (
    ClassSpec,
    EstimationError,
    NoHapaxesError,
    PriorEstimate,
    SpectrumTable,
    UnseenFormError,
    backoff_prior,
    backoff_priors,
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


def reference_prior(table, form, threshold):
    """backoff_prior's rule in plain Python ints and true division: (source,
    support, probabilities), or the text of the NoHapaxesError it raises."""
    row = table.rows.get(form)
    if row is not None and table.type_totals[row] >= threshold:
        counts, source = table.counts[row].tolist(), "backoff-form"
    else:
        counts, source = list(table.hapax_totals), "backoff-hapax"
    support = sum(counts)
    if support == 0:
        with pytest.raises(NoHapaxesError) as info:
            hapax_mle(table)
        return str(info.value)
    return source, support, tuple(c / support for c in counts)


class TestBackoffPriors:
    """backoff_priors against backoff_prior of each form, and both against
    the plain-Python rule."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 4),
        rows=st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), max_size=8),
        no_hapaxes=st.booleans(),
        queries=st.lists(st.integers(0, 9).map("f{}".format) | st.sampled_from(["unseen", "F0", "", "f0 "]),
                         max_size=12),
    )
    @example(n=3, rows=[], no_hapaxes=False, queries=["f0", "f0"])  # the empty table
    @example(n=3, rows=[[2, 0, 1, 0], [0, 1, 0, 0]], no_hapaxes=True, queries=["f0", "f1", "f0"])
    def test_equals_backoff_prior_of_each_form(self, n, rows, no_hapaxes, queries):
        counts = [row[:n] for row in rows]
        if no_hapaxes:  # every form with one token gets a second
            counts = [[row[0] + (sum(row) == 1), *row[1:]] for row in counts]
        labels = ("a", "b", "c", "d")[:n]
        spec = ClassSpec("toy", labels, "", {label.upper(): label for label in labels})
        forms = [f"f{i}" for i in range(len(counts))]
        table = SpectrumTable.from_counts(spec, forms, np.array(counts, dtype=np.int64).reshape(-1, n))
        top = max(table.type_totals.tolist(), default=0) + 1
        for threshold in (*range(1, top + 1), 2**63 + 1):
            want = [reference_prior(table, form, threshold) for form in queries]
            errors = [w for w in want if isinstance(w, str)]
            try:
                hapax, support, probabilities = backoff_priors(table, queries, threshold)
            except NoHapaxesError as exc:
                # raised exactly when some query takes the hapax route, with its text
                assert errors and str(exc) == errors[0], (threshold, queries)
                for form, w in zip(queries, want):
                    if isinstance(w, str):
                        with pytest.raises(NoHapaxesError) as info:
                            backoff_prior(table, form, threshold)
                        assert str(info.value) == w
                    else:
                        assert backoff_prior(table, form, threshold).source == w[0]
                continue
            assert not errors, (threshold, queries)
            assert (hapax.dtype, support.dtype, probabilities.dtype) == (bool, np.int64, np.float64)
            assert probabilities.shape == (len(queries), n)
            got = [(("backoff-form", "backoff-hapax")[h], s, tuple(p))
                   for h, s, p in zip(hapax.tolist(), support.tolist(), probabilities.tolist())]
            each = [backoff_prior(table, form, threshold) for form in queries]
            assert got == [(e.source, e.support, e.probabilities) for e in each] == want
            # bit for bit, not just equal
            bits = np.array([w[2] for w in want], dtype=np.float64).reshape(-1, n)
            assert probabilities.tobytes() == bits.tobytes()

    def test_threshold_and_estimate_errors_are_backoff_priors(self, ab_spec):
        table = build_spectrum(corpus_of(ab_spec, TOY))
        for call in (lambda: backoff_prior(table, "lopen", 0), lambda: backoff_priors(table, ["lopen"], 0)):
            with pytest.raises(ValueError, match=r"^threshold must be >= 1, got 0$"):
                call()
        # published totals that no count table has are refused when the table is built
        for hapax_totals in ((-1, 3), (-2, 1), (1.5, "x"), (True, 1), (2.0, 1)):
            with pytest.raises(ValueError, match=r"^hapax_totals must be non-negative integers that sum below"
                                                 rf" 2\*\*63, got {re.escape(repr(hapax_totals))}$"):
                totals_table(ab_spec, (5, 5), hapax_totals)

    def test_hapax_totals_beyond_int64(self, ab_spec):
        """Published totals that sum to 2**63 or more are refused when the
        table is built; the largest sums below it fit backoff_priors' int64
        support column."""
        for name, token_totals, hapax_totals in (("token_totals", (2**64, 3), (1, 1)),
                                                 ("hapax_totals", (3, 3), (2**64, 1)),
                                                 ("hapax_totals", (3, 3), (2**62, 2**62))):
            with pytest.raises(ValueError, match=f"^{name} must be non-negative integers that sum below"):
                totals_table(ab_spec, token_totals, hapax_totals)
        big = totals_table(ab_spec, (2**63 - 2, 1), (2**63 - 2, 1))
        want = PriorEstimate(((2**63 - 2) / (2**63 - 1), 1 / (2**63 - 1)), "backoff-hapax", 2**63 - 1)
        assert backoff_prior(big, "x") == want
        hapax, support, probabilities = backoff_priors(big, ["x"])
        assert hapax.tolist() == [True] and support.tolist() == [want.support]
        assert tuple(probabilities[0].tolist()) == want.probabilities


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

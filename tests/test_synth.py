"""Synthetic corpus generator: allocation, mixing, truth sidecar."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hapaxprior import (
    SynthSpec,
    SynthTruth,
    build_spectrum,
    generate,
    hapax_mle,
    overall_mle,
    save_truth,
    zipf_token_counts,
)


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        good = dict(n_types=10, zipf_exponent=1.0, target_tokens=100,
                    p_high=0.5, p_low=0.5, seed=0)
        SynthSpec(**good)
        for bad in (
            dict(good, n_types=1),
            dict(good, zipf_exponent=0.0),
            dict(good, zipf_exponent=float("nan")),
            dict(good, target_tokens=9),
            dict(good, p_high=1.5),
            dict(good, p_low=-0.1),
            dict(good, functions=("a", "a")),
            dict(good, functions=("a",)),
            dict(good, functions=("a b", "c")),
            dict(good, functions=("a,b", "c")),
            dict(good, seed=-1),
        ):
            with pytest.raises(ValueError):
                SynthSpec(**bad)


class TestZipfAllocation:
    def test_exact_small_case(self):
        # shares 6, 3, 2 are integral already
        assert zipf_token_counts(3, 1.0, 11) == [6, 3, 2]

    def test_largest_remainder_case(self):
        # shares 4.8, 2.4, 1.6, 1.2: the .8 and .6 fractions win the two
        # leftover tokens
        assert zipf_token_counts(4, 1.0, 10) == [5, 2, 2, 1]

    def test_flat_tail_gets_singletons(self):
        counts = zipf_token_counts(50, 1.0, 80)
        assert sum(counts) == 80
        assert min(counts) == 1
        # allocation plus repair keeps the profile non-increasing within 1
        assert all(
            counts[i] >= counts[j] - 1
            for i in range(len(counts))
            for j in range(i + 1, len(counts))
        )

    @given(
        n_types=st.integers(2, 80),
        exponent=st.floats(0.1, 3.0),
        slack=st.integers(0, 2000),
    )
    @settings(max_examples=60)
    def test_totals_exact_and_every_rank_served(self, n_types, exponent, slack):
        counts = zipf_token_counts(n_types, exponent, n_types + slack)
        assert sum(counts) == n_types + slack
        assert len(counts) == n_types
        assert min(counts) >= 1


class TestGenerate:
    def test_token_total_and_type_inventory(self):
        spec = SynthSpec(n_types=40, zipf_exponent=1.2, target_tokens=500,
                         p_high=0.8, p_low=0.2, seed=5)
        corpus, truth = generate(spec)
        assert len(corpus) == 500
        table = build_spectrum(corpus)
        assert len(table.types) == 40
        assert {tc.form: tc.total for tc in table.types.values()} == dict(truth.token_counts)

    def test_deterministic_in_seed(self):
        spec = SynthSpec(n_types=30, zipf_exponent=1.0, target_tokens=200,
                         p_high=0.9, p_low=0.1, seed=42)
        c1, t1 = generate(spec)
        c2, t2 = generate(spec)
        assert c1.tokens == c2.tokens
        assert t1 == t2
        c3, _ = generate(SynthSpec(n_types=30, zipf_exponent=1.0, target_tokens=200,
                                   p_high=0.9, p_low=0.1, seed=43))
        assert c3.tokens != c1.tokens

    def test_interpolation_endpoints_and_midpoint(self):
        spec = SynthSpec(n_types=100, zipf_exponent=1.0, target_tokens=1000,
                         p_high=0.7, p_low=0.3, seed=1)
        _, truth = generate(spec)
        forms = sorted(truth.probabilities)
        assert truth.probabilities[forms[0]] == pytest.approx(0.7)
        assert truth.probabilities[forms[-1]] == pytest.approx(0.3)
        # rank 10 of 100: one log decade is half the log-rank span
        assert truth.probabilities[forms[9]] == pytest.approx(
            0.7 + (0.3 - 0.7) * math.log(10) / math.log(100)
        )

    def test_constant_one_makes_both_estimates_one(self):
        spec = SynthSpec(n_types=50, zipf_exponent=1.0, target_tokens=80,
                         p_high=1.0, p_low=1.0, seed=3)
        corpus, truth = generate(spec)
        table = build_spectrum(corpus)
        assert overall_mle(table).probabilities == (1.0, 0.0)
        assert hapax_mle(table).probabilities == (1.0, 0.0)
        assert set(truth.probabilities.values()) == {1.0}

    def test_homogeneous_mixing_estimates_agree(self):
        spec = SynthSpec(n_types=400, zipf_exponent=1.0, target_tokens=2000,
                         p_high=0.6, p_low=0.6, seed=9)
        corpus, _ = generate(spec)
        table = build_spectrum(corpus)
        assert overall_mle(table).probabilities[0] == pytest.approx(0.6, abs=0.05)
        assert hapax_mle(table).probabilities[0] == pytest.approx(0.6, abs=0.08)

    def test_high_count_types_converge_to_truth(self):
        spec = SynthSpec(n_types=20, zipf_exponent=1.2, target_tokens=30_000,
                         p_high=0.3, p_low=0.9, seed=17)
        corpus, truth = generate(spec)
        table = build_spectrum(corpus)
        checked = 0
        for tc in table.types.values():
            if tc.total >= 1000:
                empirical = tc.per_function[0] / tc.total
                assert empirical == pytest.approx(truth.probabilities[tc.form], abs=0.05)
                checked += 1
        assert checked >= 3

    def test_uses_given_function_labels(self):
        spec = SynthSpec(n_types=10, zipf_exponent=1.0, target_tokens=50,
                         p_high=0.5, p_low=0.5, seed=0, functions=("v", "n"))
        corpus, truth = generate(spec)
        assert corpus.spec.functions == ("v", "n")
        assert truth.reference == "v"


class TestTruth:
    def test_unseen_prior_is_token_weighted(self):
        truth = SynthTruth(
            reference="a",
            probabilities={"x": 1.0, "y": 0.0},
            token_counts={"x": 3, "y": 1},
        )
        assert truth.true_unseen_prior(["x", "y"]) == pytest.approx(0.75)
        assert truth.true_unseen_prior(["y"]) == 0.0

    def test_unseen_prior_requires_forms(self):
        truth = SynthTruth(reference="a", probabilities={}, token_counts={})
        with pytest.raises(ValueError):
            truth.true_unseen_prior([])

    def test_save_truth_roundtrips_values(self, tmp_path):
        spec = SynthSpec(n_types=5, zipf_exponent=1.0, target_tokens=20,
                         p_high=0.9, p_low=0.1, seed=2)
        _, truth = generate(spec)
        path = tmp_path / "truth.csv"
        save_truth(truth, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "form,true_p_reference"
        parsed = dict(line.split(",") for line in lines[1:])
        assert len(parsed) == 5
        for form, p in truth.probabilities.items():
            assert float(parsed[form]) == pytest.approx(p, abs=1e-9)

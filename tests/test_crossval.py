"""The seeded shuffle, fold planning, per-fold bookkeeping, and the ratio t-tests."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapaxprior import (
    ClassSpec,
    CrossValError,
    DegenerateTTestError,
    FoldPlan,
    NoHapaxesError,
    make_folds,
    paired_t,
    run_crossval,
    run_fold,
)
from hapaxprior import crossval as crossval_module
from hapaxprior.crossval import crossval_report, fold_counts, shuffled_order

import oracles
from conftest import corpus_of, random_pairs


def fold_cases(rng, count):
    """(n, k, seed) triples: k == 2, k == n and k in between, most with n % k != 0."""
    cases = []
    for _ in range(count):
        n = rng.randint(2, 90)
        cases.append((n, rng.choice([2, rng.randint(2, n), n]), rng.randrange(1000)))
    return cases


def hapax_rich_corpus(ab_spec, rng, n=60):
    """Corpus with two frequent types plus a fat tail of single-occurrence
    types whose functions alternate, so every fold sees unseen tokens of
    both functions."""
    pairs = []
    for _ in range(min(10, n // 6)):
        pairs.append(("common1", rng.randrange(2)))
        pairs.append(("common2", rng.randrange(2)))
    for i in range(n - len(pairs)):
        pairs.append((f"rare{i}", i % 2))
    rng.shuffle(pairs)
    return corpus_of(ab_spec, pairs)


class TestMakeFolds:
    def test_balanced_sizes_with_remainder(self, ab_spec):
        corpus = corpus_of(ab_spec, [(f"w{i}", 0) for i in range(23)])
        plan = make_folds(corpus, k=5, seed=1)
        # 23 = 5*4 + 3: remainder goes one-per-fold to the lowest folds
        assert plan.fold_sizes() == [5, 5, 5, 4, 4]

    def test_published_token_total_splits_evenly(self, ab_spec):
        # 21703 + 9922 tokens, ten folds
        corpus = corpus_of(ab_spec, [("xen", i % 2) for i in range(31625)])
        sizes = make_folds(corpus, k=10, seed=0).fold_sizes()
        assert sorted(sizes, reverse=True) == [3163] * 5 + [3162] * 5
        assert sizes == [3163] * 5 + [3162] * 5

    def test_singleton_folds(self, ab_spec):
        corpus = corpus_of(ab_spec, [(f"w{i}", 0) for i in range(10)])
        assert make_folds(corpus, k=10, seed=4).fold_sizes() == [1] * 10

    def test_every_position_assigned_once(self, ab_spec):
        corpus = corpus_of(ab_spec, [(f"w{i}", i % 2) for i in range(57)])
        plan = make_folds(corpus, k=7, seed=2)
        assert len(plan.assignments) == 57
        assert set(plan.assignments) == set(range(1, 8))
        assert max(plan.fold_sizes()) - min(plan.fold_sizes()) <= 1

    def test_deterministic(self, ab_spec):
        corpus = corpus_of(ab_spec, [(f"w{i}", 0) for i in range(40)])
        assert make_folds(corpus, 4, 9) == make_folds(corpus, 4, 9)
        assert make_folds(corpus, 4, 9) != make_folds(corpus, 4, 10)

    def test_equivalent_to_shuffle_then_slicing(self, ab_spec):
        corpus = corpus_of(ab_spec, [(f"w{i}", i % 2) for i in range(29)])
        seed, k = 13, 4
        plan = make_folds(corpus, k, seed)
        order = shuffled_order(len(corpus), seed)
        start = 0
        for fold, size in enumerate(plan.fold_sizes(), start=1):
            positions = {i for i, a in enumerate(plan.assignments) if a == fold}
            assert positions == set(order[start : start + size])
            start += size
        assert start == len(corpus)

    def test_rejects_bad_k(self, ab_spec):
        corpus = corpus_of(ab_spec, [("w", 0), ("x", 1), ("y", 0)])
        with pytest.raises(ValueError):
            make_folds(corpus, 1, 0)
        with pytest.raises(ValueError):
            make_folds(corpus, 4, 0)

    def test_plan_rejects_assignments_outside_1_to_k(self):
        for assignments in ((0, 1, 2, 2), (1, 2, 3), (-1, 1)):
            with pytest.raises(ValueError, match="1..2"):
                FoldPlan(k=2, seed=0, assignments=assignments)
        assert FoldPlan(k=2, seed=0, assignments=(2, 1, 2)).fold_sizes() == [1, 2]
        assert FoldPlan(k=3, seed=0, assignments=()).fold_sizes() == [0, 0, 0]

    def test_assignments_are_a_read_only_int64_array(self, ab_spec):
        corpus = corpus_of(ab_spec, [(f"w{i}", i % 2) for i in range(23)])
        for plan in (make_folds(corpus, k=5, seed=3), FoldPlan(k=2, seed=0, assignments=[2, 1, 2])):
            assert isinstance(plan.assignments, np.ndarray)
            assert plan.assignments.dtype == np.int64 and plan.assignments.ndim == 1
            with pytest.raises(ValueError):
                plan.assignments[0] = 1
            assert plan.fold_sizes() == [list(plan.assignments).count(f) for f in range(1, plan.k + 1)]
        given = np.array([1, 2, 2])
        plan = FoldPlan(k=2, seed=0, assignments=given)
        given[0] = 2  # the plan holds its own copy
        assert plan.assignments.tolist() == [1, 2, 2]
        assert plan == FoldPlan(k=2, seed=0, assignments=(1, 2, 2))
        assert plan != FoldPlan(k=2, seed=1, assignments=(1, 2, 2))
        assert plan != FoldPlan(k=2, seed=0, assignments=(1, 2, 1))
        with pytest.raises(ValueError, match="must lie in 1..2"):
            FoldPlan(k=2, seed=0, assignments=[[1, 2], [2, 1]])


class TestRunFold:
    def test_hand_traced_toy(self, ab_spec):
        corpus = corpus_of(
            ab_spec,
            [("w", 0), ("x", 1), ("w", 0), ("y", 0), ("z", 1), ("x", 1)],
        )
        plan = FoldPlan(k=2, seed=0, assignments=(1, 1, 1, 2, 2, 2))

        fr2 = run_fold(corpus, plan, fold=2)
        assert fr2.run == 2
        assert fr2.train_totals == (2, 1)
        assert fr2.hapax_totals == (0, 1)
        assert fr2.omle.probabilities == pytest.approx((2 / 3, 1 / 3))
        assert fr2.hmle.probabilities == (0.0, 1.0)
        assert fr2.unseen_observed == (1, 1)
        assert fr2.n_unseen == 2 and fr2.has_unseen
        assert fr2.expected_o.real == pytest.approx((4 / 3, 2 / 3))
        assert fr2.expected_o.rounded == (1, 1)
        assert fr2.expected_h.real == pytest.approx((0.0, 2.0))
        assert fr2.expected_h.rounded == (0, 2)

        fr1 = run_fold(corpus, plan, fold=1)
        assert fr1.train_totals == (1, 2)
        assert fr1.hapax_totals == (1, 2)
        assert fr1.unseen_observed == (2, 0)
        assert fr1.expected_o.rounded == (1, 1)

    def test_all_forms_seen_gives_zero_counts(self, ab_spec):
        # both folds contain every form; the hapax comes from "solo"
        corpus = corpus_of(
            ab_spec,
            [("w", 0), ("x", 1), ("solo", 0), ("w", 1), ("x", 0), ("w", 0)],
        )
        plan = FoldPlan(k=2, seed=0, assignments=(2, 2, 1, 1, 1, 2))
        fr = run_fold(corpus, plan, fold=2)
        assert fr.unseen_observed == (0, 0)
        assert not fr.has_unseen
        assert fr.expected_o.real == (0.0, 0.0)
        assert fr.expected_h.rounded == (0, 0)

    def test_no_training_hapaxes_errors(self, ab_spec):
        corpus = corpus_of(ab_spec, [("w", 0)] * 4 + [("x", 1)] * 4)
        plan = FoldPlan(k=2, seed=0, assignments=(1, 2, 1, 2, 1, 2, 1, 2))
        with pytest.raises(NoHapaxesError):
            run_fold(corpus, plan, fold=1)

    def test_fold_out_of_range(self, ab_spec):
        corpus = corpus_of(ab_spec, [("w", 0), ("x", 1)])
        plan = FoldPlan(k=2, seed=0, assignments=(1, 2))
        with pytest.raises(ValueError):
            run_fold(corpus, plan, fold=3)

    def test_plan_corpus_mismatch(self, ab_spec):
        corpus = corpus_of(ab_spec, [("w", 0), ("x", 1), ("y", 0)])
        plan = FoldPlan(k=2, seed=0, assignments=(1, 2))
        with pytest.raises(ValueError):
            run_fold(corpus, plan, fold=1)

    def test_matches_naive_recount(self, ab_spec):
        rng = random.Random(31)
        checked = 0
        while checked < 20:
            pairs = random_pairs(rng, max_tokens=40)
            corpus = corpus_of(ab_spec, pairs)
            k = rng.randint(2, min(4, len(pairs)))
            plan = make_folds(corpus, k, seed=rng.randrange(1000))
            for fold in range(1, k + 1):
                want = oracles.fold_bookkeeping(pairs, plan.assignments, fold, 2)
                if want is None:
                    with pytest.raises(NoHapaxesError):
                        run_fold(corpus, plan, fold)
                    continue
                fr = run_fold(corpus, plan, fold)
                assert fr.train_totals == tuple(want["train_totals"])
                assert fr.hapax_totals == tuple(want["hapax_totals"])
                assert fr.omle.probabilities == pytest.approx(want["omle"])
                assert fr.hmle.probabilities == pytest.approx(want["hmle"])
                assert fr.unseen_observed == tuple(want["unseen"])
                assert fr.expected_o.real == pytest.approx(want["expected_o"])
                assert fr.expected_h.rounded == tuple(want["rounded_h"])
                checked += 1

    def test_train_and_held_out_partition_corpus(self, ab_spec):
        rng = random.Random(5)
        corpus = hapax_rich_corpus(ab_spec, rng)
        plan = make_folds(corpus, 3, seed=8)
        for fold in range(1, 4):
            fr = run_fold(corpus, plan, fold)
            held = plan.fold_sizes()[fold - 1]
            assert sum(fr.train_totals) + held == len(corpus)


class TestRunCrossval:
    def test_report_shape_and_wiring(self, ab_spec):
        corpus = hapax_rich_corpus(ab_spec, random.Random(2), n=90)
        report = run_crossval(corpus, k=5, seed=3)
        assert report.k == 5 and report.seed == 3
        assert report.spec_name == "toy"
        assert report.ratio == ("a", "b")
        assert [fr.run for fr in report.folds] == [1, 2, 3, 4, 5]
        # the summary tests are exactly the paired t over the fold ratios
        obs = [fr.unseen_observed[0] / fr.unseen_observed[1] for fr in report.folds]
        eo = [fr.expected_o.real[0] / fr.expected_o.real[1] for fr in report.folds]
        eh = [fr.expected_h.real[0] / fr.expected_h.real[1] for fr in report.folds]
        assert report.ttest_o == paired_t(obs, eo)
        assert report.ttest_h == paired_t(obs, eh)
        assert report.ttest_o.df == 4

    @pytest.mark.parametrize("n, k, seed", [(60, 3, 11), (61, 7, 5), (12, 12, 3), (2, 2, 0)]
                             + fold_cases(random.Random(31), 16))
    def test_folds_match_run_fold(self, ab_spec, monkeypatch, n, k, seed):
        corpus = hapax_rich_corpus(ab_spec, random.Random(7), n=n)
        plan = make_folds(corpus, k, seed)
        want = [run_fold(corpus, plan, fold) for fold in range(1, k + 1)]
        # every fold run_crossval scores, also where a zero ratio denominator ends the run
        scored = []
        build = crossval_module._fold_result
        monkeypatch.setattr(crossval_module, "_fold_result",
                            lambda run, row: scored.append(build(run, row)) or scored[-1])
        try:
            report = run_crossval(corpus, k, seed)
        except CrossValError as exc:
            assert "zero denominator" in str(exc)
        else:
            assert list(report.folds) == want
        assert scored == want

    def test_every_training_table_is_column_major(self, ab_spec, monkeypatch):
        # a row-major table makes the folds' column sums several times slower
        tables = []
        cell_table = crossval_module._cell_table
        monkeypatch.setattr(crossval_module, "_cell_table",
                            lambda corpus, cells: tables.append(cell_table(corpus, cells)) or tables[-1])
        corpus = hapax_rich_corpus(ab_spec, random.Random(7), n=60)
        run_crossval(corpus, 5, 3)
        # the whole-corpus table, then each fold's held-out table; a training table is their difference
        full, *held = tables
        assert len(held) == 5 and all(table.flags.f_contiguous and not table.flags.c_contiguous for table in tables)
        assert all((full - table).flags.f_contiguous for table in held)

    @pytest.mark.parametrize("k, message", [
        (1, "cannot split into folds: k must be >= 2, got 1"),
        (0, "cannot split into folds: k must be >= 2, got 0"),
        (5, "cannot split into folds: k = 5 exceeds the token count 3"),
    ])
    def test_a_k_the_corpus_cannot_be_split_into(self, ab_spec, k, message):
        corpus = corpus_of(ab_spec, [("w", 0), ("x", 1), ("y", 0)])
        with pytest.raises(CrossValError) as exc_info:
            run_crossval(corpus, k, 0)
        assert exc_info.value.fold is None
        assert str(exc_info.value) == message

    def test_a_negative_seed_is_refused(self, ab_spec):
        # random.Random seeds with abs(seed): -5 would give seed 5's folds under another seed
        corpus = corpus_of(ab_spec, [(f"w{i}", i % 2) for i in range(12)])
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            make_folds(corpus, 2, -5)
        with pytest.raises(CrossValError) as exc_info:
            run_crossval(corpus, 2, -5)
        assert exc_info.value.fold is None
        assert str(exc_info.value) == "cannot split into folds: seed must be >= 0, got -5"

    def test_ratio_orientation_flips_t_direction(self, ab_spec):
        corpus = hapax_rich_corpus(ab_spec, random.Random(19), n=90)
        fwd = run_crossval(corpus, k=3, seed=1, ratio=("a", "b"))
        assert fwd.ratio == ("a", "b")
        rev = run_crossval(corpus, k=3, seed=1, ratio=("b", "a"))
        assert rev.ratio == ("b", "a")
        assert fwd.folds == rev.folds  # same bookkeeping, different summary

    def test_unknown_ratio_label(self, ab_spec):
        corpus = hapax_rich_corpus(ab_spec, random.Random(3))
        with pytest.raises(KeyError):
            run_crossval(corpus, k=2, seed=0, ratio=("a", "zzz"))

    def test_equal_ratio_labels(self, ab_spec):
        corpus = hapax_rich_corpus(ab_spec, random.Random(3))
        with pytest.raises(ValueError, match="'a'/'a'"):
            run_crossval(corpus, k=2, seed=0, ratio=("a", "a"))

    def test_deterministic(self, ab_spec):
        corpus = hapax_rich_corpus(ab_spec, random.Random(13), n=80)
        assert run_crossval(corpus, 4, 21) == run_crossval(corpus, 4, 21)

    def test_fold_error_carries_fold_index(self, ab_spec):
        # no training portion of this corpus has a hapax
        corpus = corpus_of(ab_spec, [("w", 0)] * 6 + [("x", 1)] * 6)
        with pytest.raises(CrossValError) as exc_info:
            run_crossval(corpus, k=2, seed=0)
        assert exc_info.value.fold == 1
        assert "fold 1" in str(exc_info.value)

    def test_zero_denominator_aborts(self, ab_spec):
        # every rare type is function a, so no fold can observe an unseen b
        pairs = [(f"r{i}", 0) for i in range(20)]
        pairs += [("F", 1)] * 10 + [("G", 1)] * 10
        corpus = corpus_of(ab_spec, pairs)
        with pytest.raises(CrossValError, match="zero denominator"):
            run_crossval(corpus, k=2, seed=1, ratio=("a", "b"))

    @pytest.mark.parametrize("rare_b", [1, 3])
    def test_every_zero_denominator_fold_is_listed(self, ab_spec, rare_b):
        # a fold without one of the rare b types observes no unseen b; the
        # fold holding the only rare b type has no b hapax in training, so
        # its hapax-expected b count is zero
        pairs = [(f"r{i}", 0) for i in range(20)] + [(f"s{i}", 1) for i in range(rare_b)]
        pairs += [("F", 1)] * 10 + [("G", 0)] * 10
        corpus = corpus_of(ab_spec, pairs)
        plan = make_folds(corpus, 5, 0)
        wants = [oracles.fold_bookkeeping(pairs, plan.assignments, fold, 2) for fold in range(1, 6)]
        zero_den = [
            fold for fold, want in enumerate(wants, start=1)
            if 0 in (want["unseen"][1], want["expected_o"][1], want["expected_h"][1])
        ]
        assert len(zero_den) >= 2
        with pytest.raises(CrossValError, match="zero denominator") as exc_info:
            run_crossval(corpus, 5, 0)
        message = str(exc_info.value)
        assert exc_info.value.fold == zero_den[0]
        assert "\n" not in message
        assert f"in {len(zero_den)} of 5 folds: " in message
        for fold, want in enumerate(wants, start=1):
            zero_expected = "".join(
                f" {name}_b=0" for name, key in (("e_o", "expected_o"), ("e_h", "expected_h"))
                if want[key][1] == 0
            )
            listed = f"fold {fold} (n0_a={want['unseen'][0]} n0_b={want['unseen'][1]}{zero_expected})"
            assert (listed in message) == (fold in zero_den), (fold, message)
        if rare_b == 1:
            assert "e_h_b=0" in message
        else:
            assert len(zero_den) < 5


class TestRunCrossvalMatchesOracle:
    """Every fold of run_crossval, whose training tables are the whole-corpus
    table minus the held-out counts, against a naive recount of that fold."""

    def outcome(self, ab_spec, pairs, k, seed):
        corpus = corpus_of(ab_spec, pairs)
        plan = make_folds(corpus, k, seed)
        wants = [oracles.fold_bookkeeping(pairs, plan.assignments, fold, 2) for fold in range(1, k + 1)]
        hapax_free = [fold for fold, want in enumerate(wants, start=1) if want is None]
        if hapax_free:
            with pytest.raises(CrossValError) as exc_info:
                run_crossval(corpus, k, seed)
            assert exc_info.value.fold == hapax_free[0]
            return wants, "hapax-free"
        zero_den = [
            fold for fold, want in enumerate(wants, start=1)
            if 0 in (want["unseen"][1], want["expected_o"][1], want["expected_h"][1])
        ]
        if zero_den:
            with pytest.raises(CrossValError, match="zero denominator") as exc_info:
                run_crossval(corpus, k, seed)
            assert exc_info.value.fold == zero_den[0]
            folds = [run_fold(corpus, plan, fold) for fold in range(1, k + 1)]
        else:
            folds = run_crossval(corpus, k, seed).folds
        for fr, want in zip(folds, wants):
            assert fr.train_totals == tuple(want["train_totals"])
            assert fr.hapax_totals == tuple(want["hapax_totals"])
            assert fr.omle.probabilities == tuple(want["omle"])
            assert fr.hmle.probabilities == tuple(want["hmle"])
            assert fr.unseen_observed == tuple(want["unseen"])
            assert fr.expected_o.real == tuple(want["expected_o"])
            assert fr.expected_h.real == tuple(want["expected_h"])
            assert fr.expected_o.rounded == tuple(want["rounded_o"])
            assert fr.expected_h.rounded == tuple(want["rounded_h"])
        return wants, "zero-denominator" if zero_den else "ok"

    def test_random_corpora(self, ab_spec):
        rng = random.Random(47)
        outcomes = {"ok": 0, "zero-denominator": 0, "hapax-free": 0}
        no_unseen = all_unseen = 0
        for seed in range(300):
            pairs = random_pairs(rng, max_tokens=60, max_forms=rng.choice([4, 12, 40, 80]))
            k = rng.randint(2, min(6, len(pairs)))
            wants, outcome = self.outcome(ab_spec, pairs, k, seed)
            outcomes[outcome] += 1
            if outcome != "hapax-free":
                held = [len(pairs) - sum(w["train_totals"]) for w in wants]
                no_unseen += sum(sum(w["unseen"]) == 0 for w in wants)
                all_unseen += sum(sum(w["unseen"]) == h for w, h in zip(wants, held))
        # every kind of fold occurs
        assert min(outcomes.values()) >= 10, outcomes
        assert no_unseen >= 10 and all_unseen >= 10, (no_unseen, all_unseen)

    def test_no_held_out_form_seen_in_training(self, ab_spec):
        # all types are hapaxes: every held-out token is unseen
        pairs = [(f"u{i}", i % 2) for i in range(40)]
        wants, outcome = self.outcome(ab_spec, pairs, 4, 1)
        assert outcome == "ok"
        assert [sum(w["unseen"]) for w in wants] == [10, 10, 10, 10]

    def test_no_unseen_tokens(self, ab_spec):
        # seed 18 splits the two tokens of p and of q across the folds: each
        # training part has hapaxes and every held-out form is seen
        pairs = [("w", i % 2) for i in range(12)] + [("x", 1)] * 12
        pairs += [("p", 0), ("p", 1), ("q", 0), ("q", 1)]
        wants, outcome = self.outcome(ab_spec, pairs, 2, 18)
        assert outcome == "zero-denominator"
        assert [w["unseen"] for w in wants] == [[0, 0], [0, 0]]

    def test_hapax_free_training_part(self, ab_spec):
        wants, outcome = self.outcome(ab_spec, [("w", 0)] * 6 + [("x", 1)] * 6, 2, 0)
        assert outcome == "hapax-free"
        assert wants == [None, None]


class TestFoldCounts:
    SPEC = ClassSpec(name="toy", functions=("a", "b"), suffix="", tag_map={"A": "a", "B": "b"})

    @staticmethod
    def outcome(build):
        """build()'s report, or the type, text and fold (None for a t-test's) of its error."""
        try:
            return build()
        except (CrossValError, DegenerateTTestError) as exc:
            return type(exc), str(exc), getattr(exc, "fold", None)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(tokens=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 1)), min_size=2, max_size=40),
           data=st.data())
    def test_each_row_is_the_oracles_recount_and_the_report_is_run_crossvals(self, tokens, data):
        pairs = [(f"f{form}", function) for form, function in tokens]
        k = data.draw(st.integers(2, len(pairs)), label="k")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        ratio = data.draw(st.sampled_from([None, ("b", "a")]), label="ratio")
        corpus = corpus_of(self.SPEC, pairs)
        counts = fold_counts(corpus, k, seed)
        assert counts.shape == (k, 7) and counts.dtype == np.int64 and not counts.flags.writeable
        assignments = make_folds(corpus, k, seed).assignments.tolist()
        for fold, row in enumerate(counts.tolist(), start=1):
            train = [pair for pair, assigned in zip(pairs, assignments) if assigned != fold]
            assert row[6] == len({form for form, _ in train})
            want = oracles.fold_bookkeeping(pairs, assignments, fold, 2)
            if want is None:  # no training hapax: the oracle stops before the unseen tokens
                assert row[:4] == oracles.function_totals(train, 2) + [0, 0]
            else:
                assert row[:6] == want["train_totals"] + want["hapax_totals"] + want["unseen"]
        report = self.outcome(lambda: crossval_report(self.SPEC, seed, counts, ratio))
        assert report == self.outcome(lambda: run_crossval(corpus, k, seed, ratio))
        # the rows a fold-count hit gives make the same report
        rows = [tuple(row) for row in counts.tolist()]
        assert self.outcome(lambda: crossval_report(self.SPEC, seed, rows, ratio)) == report


class TestShuffle:
    @given(n=st.integers(0, 200), seed=st.integers(0, 2**64 - 1))
    def test_shuffled_order_is_a_permutation(self, n, seed):
        assert sorted(shuffled_order(n, seed)) == list(range(n))

    def test_shuffled_order_is_the_stdlib_shuffle_as_a_read_only_array(self):
        # n = 0..3 and 2**j - 1, 2**j, 2**j + 1, where the bit length of the
        # range drawn from changes; seeds of every size and sign
        sizes = sorted({0, 1, 2, 3} | {2**j + d for j in range(1, 13) for d in (-1, 0, 1)})
        seeds = [0, 1, 2, 7, 42, -1, -12345, 2**31 - 1, 2**32, 2**63 + 5, 2**64 - 1, 3**50]
        pairs = [(n, seed) for n in sizes for seed in seeds]
        pairs += [(n, seed) for n in (2**16 - 1, 2**16 + 1, 2**17 + 1) for seed in seeds[:2]]
        # the benchmark's sizes with the CLI's crossval seed, whose draws
        # take up to 21 bits each
        pairs += [(2**20 + 1, 1), (1_000_000, 1)]
        for n, seed in pairs:
            want = list(range(n))
            random.Random(seed).shuffle(want)
            order = shuffled_order(n, seed)
            assert isinstance(order, np.ndarray) and order.dtype == np.int64 and order.shape == (n,)
            assert not order.flags.writeable
            assert order.tolist() == want, (n, seed)
        assert len(pairs) > 400

    def test_shuffled_order_peaks_at_most_2_5_times_its_result(self):
        shuffled_order(10, 1)  # so nothing a first call allocates counts
        tracemalloc.start()
        try:
            order = shuffled_order(1_000_000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * order.nbytes, peak / order.nbytes

    def test_shuffled_order_refuses_n_of_2_to_the_31(self):
        # refused before anything is allocated; never shuffle near this size
        with pytest.raises(ValueError, match="2147483648"):
            shuffled_order(2**31, 0)

"""Token-level k-fold cross-validation comparing the overall and hapax-based
estimators on the tokens of held-out types unseen in training."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corpus import TaggedCorpus, shuffled_order
from .estimators import ExpectedCounts, PriorEstimate, expected_unseen_counts, hapax_mle, overall_mle
from .spectrum import SpectrumTable, count_table
from .stats import TTestResult, paired_t


class CrossValError(RuntimeError):
    """A cross-validation failure, carrying the 1-based fold index, or None
    when the corpus cannot be split into the requested folds at all."""

    def __init__(self, fold: int | None, message: str):
        super().__init__(message if fold is None else f"fold {fold}: {message}")
        self.fold = fold


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Fold index (1..k) per token position, as a read-only 1-D int64 array.

    make_folds seeds a shuffle and slices the shuffled positions into k
    contiguous parts whose sizes differ by at most one; remainder tokens go
    one per fold to the lowest-indexed folds.
    """

    k: int
    seed: int
    assignments: np.ndarray

    def __post_init__(self) -> None:
        assignments = np.array(self.assignments, dtype=np.int64)
        if assignments.ndim != 1 or len(assignments) and not 1 <= assignments.min() <= assignments.max() <= self.k:
            raise ValueError(f"fold assignments must lie in 1..{self.k}")
        assignments.flags.writeable = False
        object.__setattr__(self, "assignments", assignments)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FoldPlan):
            return NotImplemented
        return (self.k, self.seed) == (other.k, other.seed) and np.array_equal(self.assignments, other.assignments)

    def fold_sizes(self) -> list[int]:
        return np.bincount(self.assignments - 1, minlength=self.k).tolist()


@dataclass(frozen=True)
class FoldResult:
    """One cross-validation run: training totals, both estimates, and the
    observed vs. expected counts for held-out tokens of unseen types."""

    run: int
    train_totals: tuple[int, ...]
    hapax_totals: tuple[int, ...]
    omle: PriorEstimate
    hmle: PriorEstimate
    unseen_observed: tuple[int, ...]
    expected_o: ExpectedCounts
    expected_h: ExpectedCounts

    @property
    def n_unseen(self) -> int:
        return sum(self.unseen_observed)

    @property
    def has_unseen(self) -> bool:
        return self.n_unseen > 0


@dataclass(frozen=True)
class CrossValReport:
    spec_name: str
    k: int
    seed: int
    ratio: tuple[str, str]
    folds: tuple[FoldResult, ...]
    ttest_o: TTestResult
    ttest_h: TTestResult


def make_folds(corpus: TaggedCorpus, k: int, seed: int) -> FoldPlan:
    """Partition token positions into k near-equal folds, seeded.

    The plan equals shuffling with shuffle_tokens(corpus, seed) and slicing
    the result contiguously; its assignments are a read-only int64 array.
    The shuffle is random.Random(seed).shuffle's, computed in numpy by
    shuffled_order.
    """
    n = len(corpus)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"k = {k} exceeds the token count {n}")
    base, extra = divmod(n, k)
    sizes = [base + (1 if fold <= extra else 0) for fold in range(1, k + 1)]
    assignments = np.empty(n, dtype=np.int64)
    assignments[shuffled_order(n, seed)] = np.repeat(np.arange(1, k + 1), sizes)
    return FoldPlan(k=k, seed=seed, assignments=assignments)


def _fold_scorer(corpus: TaggedCorpus, plan: FoldPlan) -> Callable[[int], FoldResult]:
    """The fold computation shared by run_fold and run_crossval.

    The whole-corpus form-by-function table is counted once; a fold's
    training table is that table minus the counts of its held-out tokens
    (deleted estimation), so no fold rebuilds a spectrum.
    """
    if len(plan.assignments) != len(corpus):
        raise ValueError("plan does not cover this corpus")
    full = count_table(corpus)

    def score(fold: int) -> FoldResult:
        held = count_table(corpus, np.flatnonzero(plan.assignments == fold))
        train = SpectrumTable.from_counts(corpus.spec, corpus.forms, full - held)
        omle = overall_mle(train)
        hmle = hapax_mle(train)
        # N0: the held-out tokens of forms with no training token
        unseen = (train.type_totals == 0) @ held
        n_unseen = int(unseen.sum())
        return FoldResult(
            run=fold,
            train_totals=train.token_totals,
            hapax_totals=train.hapax_totals,
            omle=omle,
            hmle=hmle,
            unseen_observed=tuple(unseen.tolist()),
            expected_o=expected_unseen_counts(omle, n_unseen),
            expected_h=expected_unseen_counts(hmle, n_unseen),
        )

    return score


def run_fold(corpus: TaggedCorpus, plan: FoldPlan, fold: int) -> FoldResult:
    """Train both estimators outside `fold` and score the held-out tokens.

    unseen_observed counts held-out tokens per function whose form never
    occurs in the training portion; both expected-count vectors spread that
    total according to the corresponding estimate.  Raises NoHapaxesError if
    the training portion has no hapaxes.  Zero unseen tokens is a valid
    result (has_unseen is False) with all-zero counts.
    """
    if not 1 <= fold <= plan.k:
        raise ValueError(f"fold must be in 1..{plan.k}, got {fold}")
    return _fold_scorer(corpus, plan)(fold)


def run_crossval(
    corpus: TaggedCorpus,
    k: int,
    seed: int,
    ratio: tuple[str, str] | None = None,
) -> CrossValReport:
    """Run all k folds and the paired ratio t-tests for both estimators.

    Per fold, the observed ratio is unseen_observed[num]/unseen_observed[den]
    and each expected ratio uses the unrounded expected counts.  A fold error
    raises CrossValError naming the fold; zero ratio denominators raise one
    that lists every such fold with its counts and names the first.  A k the
    corpus cannot be split into raises CrossValError with fold None; equal
    ratio labels raise ValueError.
    """
    spec = corpus.spec
    if ratio is None:
        ratio = (spec.functions[0], spec.functions[1])
    num = spec.function_index(ratio[0])
    den = spec.function_index(ratio[1])
    if num == den:
        raise ValueError(f"ratio needs two different labels, got {ratio[0]!r}/{ratio[1]!r}")

    try:
        plan = make_folds(corpus, k, seed)
    except ValueError as exc:
        raise CrossValError(None, f"cannot split into folds: {exc}") from exc
    score = _fold_scorer(corpus, plan)
    folds: list[FoldResult] = []
    for fold in range(1, k + 1):
        try:
            folds.append(score(fold))
        except (ValueError, ArithmeticError) as exc:
            raise CrossValError(fold, str(exc)) from exc

    # every fold with a zero ratio denominator, with the counts behind it
    degenerate: dict[int, str] = {}
    for fr in folds:
        unseen = [f"n0_{f}={c}" for f, c in zip(spec.functions, fr.unseen_observed)]
        expected = [f"{name}_{ratio[1]}=0" for name, e in (("e_o", fr.expected_o), ("e_h", fr.expected_h))
                    if e.real[den] == 0]
        if fr.unseen_observed[den] == 0 or expected:
            degenerate[fr.run] = " ".join(unseen + expected)
    if degenerate:
        raise CrossValError(
            min(degenerate),
            f"zero denominator in ratio {ratio[0]}/{ratio[1]} in {len(degenerate)} of {k} folds: "
            + ", ".join(f"fold {run} ({counts})" for run, counts in degenerate.items()),
        )
    observed = [fr.unseen_observed[num] / fr.unseen_observed[den] for fr in folds]
    ratios_o = [fr.expected_o.real[num] / fr.expected_o.real[den] for fr in folds]
    ratios_h = [fr.expected_h.real[num] / fr.expected_h.real[den] for fr in folds]

    return CrossValReport(
        spec_name=spec.name,
        k=k,
        seed=seed,
        ratio=ratio,
        folds=tuple(folds),
        ttest_o=paired_t(observed, ratios_o),
        ttest_h=paired_t(observed, ratios_h),
    )

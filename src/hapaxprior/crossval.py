"""Token-level k-fold cross-validation comparing the overall and hapax-based
estimators on the tokens of held-out types unseen in training."""

from __future__ import annotations

import os
import random
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _cache
from .corpus import TaggedCorpus, int64_array
from .estimators import ExpectedCounts, PriorEstimate, expected_unseen_counts, hapax_mle, overall_mle
from .spectrum import SpectrumTable, _cell_table
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
        assignments = int64_array(self.assignments, "assignments")
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


def shuffled_order(n: int, seed: int) -> np.ndarray:
    """The permutation random.Random(seed).shuffle(list(range(n))) leaves,
    as a read-only int64 array: position i of a shuffled corpus holds token
    shuffled_order(n, seed)[i].  It is that stdlib shuffle, run over int32
    positions, so n must be below 2**31 (ValueError otherwise)."""
    if n >= 2**31:
        raise ValueError(f"cannot shuffle {n} items: n must be below 2**31")
    positions = array("i", range(n))
    random.Random(seed).shuffle(positions)
    permutation = np.frombuffer(positions, np.int32).astype(np.int64)
    permutation.flags.writeable = False
    return permutation


def check_fold_args(k: int, seed: int) -> None:
    """ValueError unless k >= 2 and seed >= 0, as every fold plan needs."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if seed < 0:  # random.Random seeds with abs(seed), so -5 would give the folds of 5
        raise ValueError(f"seed must be >= 0, got {seed}")


def _folds(n: int, k: int, seed: int, cache_dir: str | os.PathLike | None = None) -> tuple[np.ndarray, list[int]]:
    """(order, bounds), the folds of make_folds and run_crossval: fold f is
    order[bounds[f - 1]:bounds[f]] of order = shuffled_order(n, seed), k
    slices whose sizes differ by at most one, the remainder one each to the
    lowest folds.  With a cache_dir the order is read from its entry there,
    or shuffled and stored (see _cache.ordered).  ValueError for k < 2,
    k > n, seed < 0 or n >= 2**31."""
    check_fold_args(k, seed)
    if k > n:
        raise ValueError(f"k = {k} exceeds the token count {n}")
    base, extra = divmod(n, k)
    bounds = [fold * base + min(fold, extra) for fold in range(k + 1)]
    return _cache.ordered(n, seed, cache_dir, shuffled_order), bounds


def make_folds(corpus: TaggedCorpus, k: int, seed: int) -> FoldPlan:
    """Partition token positions into k near-equal folds, seeded.

    Fold f holds the positions of _folds' f-th slice, the fold run_crossval
    scores as f; the assignments are a read-only int64 array.
    """
    n = len(corpus)
    order, bounds = _folds(n, k, seed)
    assignments = np.empty(n, dtype=np.int64)
    assignments[order] = np.repeat(np.arange(1, k + 1), np.diff(bounds))
    return FoldPlan(k=k, seed=seed, assignments=assignments)


def _fold_scorer(corpus: TaggedCorpus) -> Callable[[int, np.ndarray], FoldResult]:
    """The fold computation shared by run_fold and run_crossval:
    score(fold, positions) scores the fold whose tokens are at positions.

    The whole-corpus form-by-function table is counted once from
    corpus.cells; a fold's training table is that table minus the counts of
    its held-out tokens' cells (deleted estimation), so no fold rebuilds a
    spectrum, and it is non-negative by construction.  Both tables are
    column-major, and so is their difference.
    """
    full = _cell_table(corpus, corpus.cells)

    def score(fold: int, positions: np.ndarray) -> FoldResult:
        held = _cell_table(corpus, corpus.cells[positions])
        train = SpectrumTable._of_valid_counts(corpus.spec, corpus.forms, full - held)
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
    if len(plan.assignments) != len(corpus):
        raise ValueError("plan does not cover this corpus")
    return _fold_scorer(corpus)(fold, np.flatnonzero(plan.assignments == fold))


def run_crossval(
    corpus: TaggedCorpus,
    k: int,
    seed: int,
    ratio: tuple[str, str] | None = None,
    *,
    cache_dir: str | os.PathLike | None = None,
) -> CrossValReport:
    """Run all k folds and the paired ratio t-tests for both estimators.

    Per fold, the observed ratio is unseen_observed[num]/unseen_observed[den]
    and each expected ratio uses the unrounded expected counts.  A fold error
    raises CrossValError naming the fold; zero ratio denominators raise one
    that lists every such fold with its counts and names the first.  A k the
    corpus cannot be split into raises CrossValError with fold None; equal
    ratio labels raise ValueError.  With a cache_dir, the fold order is read
    from its entry there, or shuffled and stored, as load_corpus's
    cache_dir does for the corpus; the report is the same either way.
    """
    spec = corpus.spec
    if ratio is None:
        ratio = (spec.functions[0], spec.functions[1])
    num = spec.function_index(ratio[0])
    den = spec.function_index(ratio[1])
    if num == den:
        raise ValueError(f"ratio needs two different labels, got {ratio[0]!r}/{ratio[1]!r}")

    # the folds of make_folds(corpus, k, seed), as slices of the shuffle
    try:
        order, bounds = _folds(len(corpus), k, seed, cache_dir)
    except ValueError as exc:
        raise CrossValError(None, f"cannot split into folds: {exc}") from exc
    score = _fold_scorer(corpus)
    folds: list[FoldResult] = []
    for fold in range(1, k + 1):
        try:
            folds.append(score(fold, order[bounds[fold - 1]:bounds[fold]]))
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

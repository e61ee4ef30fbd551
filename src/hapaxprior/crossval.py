"""Token-level k-fold cross-validation comparing the overall and hapax-based
estimators on the tokens of held-out types unseen in training."""

from __future__ import annotations

import os
import random
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from . import _cache
from .corpus import ClassSpec, TaggedCorpus, _read, int64_array
from .estimators import ExpectedCounts, PriorEstimate, _empty_table, _no_hapaxes, _relative, expected_unseen_counts
from .spectrum import _cell_table
from .stats import TTestResult, paired_t

if TYPE_CHECKING:
    import numpy as np


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
        import numpy as np

        if not isinstance(other, FoldPlan):
            return NotImplemented
        return (self.k, self.seed) == (other.k, other.seed) and np.array_equal(self.assignments, other.assignments)

    def fold_sizes(self) -> list[int]:
        import numpy as np

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
    import numpy as np

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
    import numpy as np

    n = len(corpus)
    order, bounds = _folds(n, k, seed)
    assignments = np.empty(n, dtype=np.int64)
    assignments[order] = np.repeat(np.arange(1, k + 1), np.diff(bounds))
    return FoldPlan(k=k, seed=seed, assignments=assignments)


def _fold_counter(corpus: TaggedCorpus) -> Callable[[np.ndarray], np.ndarray]:
    """The fold counting shared by run_fold and fold_counts: count(positions)
    is the fold_counts row of the fold whose held-out tokens are at
    positions.

    The whole-corpus form-by-function table is counted once from
    corpus.cells; a fold's training table is that table minus the counts of
    its held-out tokens' cells (deleted estimation), so no fold rebuilds a
    spectrum, and it is non-negative by construction.  Both tables are
    column-major, and so is their difference.
    """
    import numpy as np

    full = _cell_table(corpus, corpus.cells)

    def count(positions: np.ndarray) -> np.ndarray:
        held = _cell_table(corpus, corpus.cells[positions])
        train = full - held
        types = train.sum(axis=1)
        # N0: the held-out tokens of forms with no training token
        return np.concatenate((train.sum(axis=0), (types == 1) @ train, (types == 0) @ held,
                               [np.count_nonzero(types)]))

    return count


def fold_counts(corpus: TaggedCorpus, k: int, seed: int, cache_dir: str | os.PathLike | None = None) -> np.ndarray:
    """What each of the k folds of run_crossval is estimated from, as a
    read-only (k, 3n + 1) int64 array, n = corpus.spec.n_functions.  Row
    f - 1 holds fold f's training token totals per function, its training
    hapax totals per function and its held-out tokens of forms unseen in
    training per function, then its number of training types.

    The folds are make_folds': with a cache_dir their order is read from its
    entry there, or shuffled and stored (see _cache.ordered).  A k the
    corpus cannot be split into, and a negative seed, raise CrossValError
    with fold None.
    """
    import numpy as np

    try:
        order, bounds = _folds(len(corpus), k, seed, cache_dir)
    except ValueError as exc:
        raise CrossValError(None, f"cannot split into folds: {exc}") from exc
    count = _fold_counter(corpus)
    counts = np.array([count(order[start:end]) for start, end in zip(bounds, bounds[1:])])
    counts.flags.writeable = False
    return counts


def _load_fold_counts(path: str | os.PathLike, spec: ClassSpec, fold_case: bool, k: int, seed: int,
                      cache_dir: str | os.PathLike | None, loaded: Callable[[], object]) -> Sequence[Sequence[int]]:
    """fold_counts(load_corpus(path, spec, fold_case), k, seed, cache_dir),
    with loaded() called between the load and the counting.  With a
    cache_dir the counts are read from their entry there when they are
    cached, as k tuples, so that no corpus is loaded and no numpy imported,
    or counted and stored (see _cache.fold_counted); unlike the corpus and
    order entries, only the command line keeps them."""
    def count(cells: np.ndarray, forms: tuple[str, ...], dropped: int) -> np.ndarray:
        loaded()
        return fold_counts(TaggedCorpus._of_valid_cells(spec, forms, cells, dropped), k, seed, cache_dir)

    return _read(path, spec, fold_case,
                 lambda fh, path, job: _cache.fold_counted(fh, path, job, k, seed, cache_dir, count))


def _fold_result(run: int, row: list[int]) -> FoldResult:
    """Fold run's FoldResult from its fold_counts row: both estimates and the
    expected counts of its unseen tokens.  A training part without tokens
    raises EstimationError, and one without hapaxes NoHapaxesError."""
    n = len(row) // 3
    train, hapax, unseen, (types,) = row[:n], row[n:2 * n], row[2 * n:3 * n], row[3 * n:]
    omle = _relative(train, "overall", _empty_table)
    hmle = _relative(hapax, "hapax", lambda: _no_hapaxes(sum(train), types))
    n_unseen = sum(unseen)
    return FoldResult(
        run=run,
        train_totals=tuple(train),
        hapax_totals=tuple(hapax),
        omle=omle,
        hmle=hmle,
        unseen_observed=tuple(unseen),
        expected_o=expected_unseen_counts(omle, n_unseen),
        expected_h=expected_unseen_counts(hmle, n_unseen),
    )


def run_fold(corpus: TaggedCorpus, plan: FoldPlan, fold: int) -> FoldResult:
    """Train both estimators outside `fold` and score the held-out tokens.

    unseen_observed counts held-out tokens per function whose form never
    occurs in the training portion; both expected-count vectors spread that
    total according to the corresponding estimate.  Raises NoHapaxesError if
    the training portion has no hapaxes.  Zero unseen tokens is a valid
    result (has_unseen is False) with all-zero counts.
    """
    import numpy as np

    if not 1 <= fold <= plan.k:
        raise ValueError(f"fold must be in 1..{plan.k}, got {fold}")
    if len(plan.assignments) != len(corpus):
        raise ValueError("plan does not cover this corpus")
    return _fold_result(fold, _fold_counter(corpus)(np.flatnonzero(plan.assignments == fold)).tolist())


def _ratio(spec: ClassSpec, ratio: tuple[str, str] | None) -> tuple[tuple[str, str], int, int]:
    """(ratio, the index of its numerator, of its denominator); None means
    the first two functions.  An unknown label raises KeyError, two equal
    labels ValueError."""
    if ratio is None:
        ratio = (spec.functions[0], spec.functions[1])
    num = spec.function_index(ratio[0])
    den = spec.function_index(ratio[1])
    if num == den:
        raise ValueError(f"ratio needs two different labels, got {ratio[0]!r}/{ratio[1]!r}")
    return ratio, num, den


def crossval_report(spec: ClassSpec, seed: int, counts: Sequence[Sequence[int]],
                    ratio: tuple[str, str] | None = None) -> CrossValReport:
    """The CrossValReport of the folds whose fold_counts are counts, a corpus
    of spec split under seed: each fold's estimates and expected counts, and
    the paired ratio t-tests for both estimators.  counts is any sequence of
    k rows of 3n + 1 integers, such as the read-only array fold_counts
    returns or a list of tuples; each row is read as Python ints.

    Per fold, the observed ratio is unseen_observed[num]/unseen_observed[den]
    and each expected ratio uses the unrounded expected counts.  A fold error
    raises CrossValError naming the fold; zero ratio denominators raise one
    that lists every such fold with its counts and names the first.  Ratio
    labels are checked as run_crossval checks them.
    """
    ratio, num, den = _ratio(spec, ratio)
    folds: list[FoldResult] = []
    for fold, row in enumerate(counts, start=1):
        row = list(map(int, row))
        try:
            folds.append(_fold_result(fold, row))
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
            f"zero denominator in ratio {ratio[0]}/{ratio[1]} in {len(degenerate)} of {len(folds)} folds: "
            + ", ".join(f"fold {run} ({listed})" for run, listed in degenerate.items()),
        )
    observed = [fr.unseen_observed[num] / fr.unseen_observed[den] for fr in folds]
    ratios_o = [fr.expected_o.real[num] / fr.expected_o.real[den] for fr in folds]
    ratios_h = [fr.expected_h.real[num] / fr.expected_h.real[den] for fr in folds]

    return CrossValReport(
        spec_name=spec.name,
        k=len(folds),
        seed=seed,
        ratio=ratio,
        folds=tuple(folds),
        ttest_o=paired_t(observed, ratios_o),
        ttest_h=paired_t(observed, ratios_h),
    )


def run_crossval(
    corpus: TaggedCorpus,
    k: int,
    seed: int,
    ratio: tuple[str, str] | None = None,
    *,
    cache_dir: str | os.PathLike | None = None,
) -> CrossValReport:
    """Run all k folds and the paired ratio t-tests for both estimators:
    crossval_report of fold_counts.

    Equal ratio labels raise ValueError and an unknown one KeyError, before
    any fold is counted; a k the corpus cannot be split into raises
    CrossValError with fold None (see fold_counts), and a fold error or a
    zero ratio denominator one naming its fold (see crossval_report).  With
    a cache_dir, the fold order is read from its entry there, or shuffled
    and stored, as load_corpus's cache_dir does for the corpus; the report
    is the same either way.
    """
    _ratio(corpus.spec, ratio)
    return crossval_report(corpus.spec, seed, fold_counts(corpus, k, seed, cache_dir), ratio)

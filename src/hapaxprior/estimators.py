"""The three lexical-prior estimators and the frequency-threshold backoff rule.

All estimators return raw relative frequencies; no smoothing is applied,
since the point of the overall-vs-hapax comparison is the unadjusted counts.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .spectrum import SpectrumTable

SOURCES = frozenset({"overall", "hapax", "form", "backoff-form", "backoff-hapax"})
# the source of a backoff estimate, indexed by whether it took the hapax route
BACKOFF_SOURCES = ("backoff-form", "backoff-hapax")

_SUM_TOL = 1e-12


class EstimationError(ValueError):
    """An estimator was asked for a prior it cannot compute."""


class NoHapaxesError(EstimationError):
    """The hapax-based estimator is undefined: the table has no hapaxes."""


class UnseenFormError(EstimationError):
    """form_mle was asked about a form absent from the table.

    Distinct so callers can catch it and back off to the hapax estimator.
    """


@dataclass(frozen=True)
class PriorEstimate:
    """A probability vector over the function labels of an ambiguity class.

    support is the number of tokens the estimate was computed from.
    """

    probabilities: tuple[float, ...]
    source: str
    support: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities", tuple(self.probabilities))
        if self.source not in SOURCES:
            raise ValueError(f"unknown estimate source {self.source!r}")
        if self.support < 1:
            raise ValueError(f"support must be >= 1, got {self.support}")
        if any(not 0.0 <= p <= 1.0 for p in self.probabilities):
            raise ValueError(f"probabilities outside [0,1]: {self.probabilities}")
        if abs(sum(self.probabilities) - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {sum(self.probabilities)!r}, not 1")


@dataclass(frozen=True)
class ExpectedCounts:
    """Expected per-function token counts: unrounded and nearest-integer."""

    real: tuple[float, ...]
    rounded: tuple[int, ...]


def _relative(counts: Sequence[int], source: str, empty: Callable[[], Exception]) -> PriorEstimate:
    """The relative frequencies of counts, as an estimate of source; raises
    empty() when they sum to 0."""
    support = sum(counts)
    if support == 0:
        raise empty()
    return PriorEstimate(tuple(c / support for c in counts), source, support)


def _empty_table() -> EstimationError:
    return EstimationError("cannot estimate a prior from an empty table")


def overall_mle(table: SpectrumTable) -> PriorEstimate:
    """Relative function frequencies over all tokens of the class."""
    return _relative(table.token_totals, "overall", _empty_table)


def _no_hapaxes(n_tokens: int, n_types: int) -> NoHapaxesError:
    return NoHapaxesError(
        f"hapax-based estimator undefined: no form occurs exactly once among {n_tokens} tokens of {n_types} types"
    )


def _no_table_hapaxes(table: SpectrumTable) -> NoHapaxesError:
    return _no_hapaxes(table.n_tokens, (table.type_totals > 0).sum())


def hapax_mle(table: SpectrumTable) -> PriorEstimate:
    """Relative function frequencies among the hapax legomena only."""
    return _relative(table.hapax_totals, "hapax", lambda: _no_table_hapaxes(table))


def form_mle(table: SpectrumTable, form: str) -> PriorEstimate:
    """Relative function frequencies of one seen form."""
    row = table.rows.get(form)
    return _relative(() if row is None else table.counts[row].tolist(), "form",
                     lambda: UnseenFormError(f"form {form!r} not in table"))


def _backoff(
    table: SpectrumTable, forms: Sequence[str], threshold: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, PriorEstimate | None]:
    """Whether each form takes the hapax route, the support and probabilities
    of the form-route rows (the hapax-route rows are left 0), and the hapax
    route's estimate (None when no form takes it)."""
    import numpy as np

    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    get = table.rows.get
    rows = np.array([get(form, -1) for form in forms], dtype=np.int64)  # -1: an unseen form
    hapax = rows < 0
    hapax[~hapax] = table.type_totals[rows[~hapax]] < threshold
    fallback = _relative(table.hapax_totals, "backoff-hapax", lambda: _no_table_hapaxes(table)) if hapax.any() else None
    counts = table.counts[rows[~hapax]]
    support = np.zeros(len(rows), dtype=np.int64)
    probabilities = np.zeros((len(rows), table.spec.n_functions))
    support[~hapax] = counts.sum(axis=1)
    probabilities[~hapax] = counts / support[~hapax, None]
    return hapax, support, probabilities, fallback


def backoff_priors(
    table: SpectrumTable, forms: Sequence[str], threshold: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """backoff_prior of every form in forms, as three columns: hapax (bool,
    True where the form took the hapax route), support (int64) and
    probabilities (float64, one row per form, one column per function).

    One pass over the queries: each is routed by one comparison of its
    type total with the threshold, the counts of the form-route rows are
    gathered and divided by their sums at once.  Below 2**53 numpy's
    division of the counts is correctly rounded, as Python's is, so each
    row equals backoff_prior's probabilities bit for bit.  The hapax-route
    rows are the one hapax estimate, built and checked once; it raises
    NoHapaxesError when some form takes the hapax route of a table without
    hapaxes.  A form-route row needs no check: its counts are non-negative
    and sum to at least threshold >= 1.
    """
    hapax, support, probabilities, fallback = _backoff(table, forms, threshold)
    if fallback is not None:
        support[hapax] = fallback.support
        probabilities[hapax] = fallback.probabilities
    return hapax, support, probabilities


def backoff_prior(table: SpectrumTable, form: str, threshold: int = 1) -> PriorEstimate:
    """Per-form estimate when the form has >= threshold tokens, else hapax-based.

    The hapax route is also taken for seen forms below the threshold; a
    zero-hapax table makes the fallback raise NoHapaxesError.  This is
    backoff_priors of one form.
    """
    (hapax,), (support,), (probabilities,), fallback = _backoff(table, [form], threshold)
    return fallback if hapax else PriorEstimate(tuple(probabilities.tolist()), "backoff-form", int(support))


def expected_unseen_counts(estimate: PriorEstimate, n_unseen_tokens: int) -> ExpectedCounts:
    """Spread n unseen tokens over functions according to the estimate.

    Rounding is to the nearest integer with halves up, matching how the
    published cross-validation tables print expected counts.
    """
    if n_unseen_tokens < 0:
        raise ValueError(f"n_unseen_tokens must be >= 0, got {n_unseen_tokens}")
    real = tuple(p * n_unseen_tokens for p in estimate.probabilities)
    rounded = tuple(math.floor(x + 0.5) for x in real)
    return ExpectedCounts(real=real, rounded=rounded)

"""The three lexical-prior estimators and the frequency-threshold backoff rule.

All estimators return raw relative frequencies; no smoothing is applied,
since the point of the overall-vs-hapax comparison is the unadjusted counts.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .spectrum import SpectrumTable

SOURCES = frozenset({"overall", "hapax", "form", "backoff-form", "backoff-hapax"})

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


def overall_mle(table: SpectrumTable) -> PriorEstimate:
    """Relative function frequencies over all tokens of the class."""
    return _relative(table.token_totals, "overall",
                     lambda: EstimationError("cannot estimate a prior from an empty table"))


def _no_hapaxes(table: SpectrumTable) -> NoHapaxesError:
    return NoHapaxesError(
        "hapax-based estimator undefined: no form occurs exactly once among"
        f" {table.n_tokens} tokens of {(table.type_totals > 0).sum()} types"
    )


def hapax_mle(table: SpectrumTable) -> PriorEstimate:
    """Relative function frequencies among the hapax legomena only."""
    return _relative(table.hapax_totals, "hapax", lambda: _no_hapaxes(table))


def form_mle(table: SpectrumTable, form: str) -> PriorEstimate:
    """Relative function frequencies of one seen form."""
    row = table.rows.get(form)
    return _relative(() if row is None else table.counts[row].tolist(), "form",
                     lambda: UnseenFormError(f"form {form!r} not in table"))


def backoff_prior(table: SpectrumTable, form: str, threshold: int = 1) -> PriorEstimate:
    """Per-form estimate when the form has >= threshold tokens, else hapax-based.

    The hapax route is also taken for seen forms below the threshold; a
    zero-hapax table makes the fallback raise NoHapaxesError.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    row = table.rows.get(form)
    if row is not None and table.type_totals[row] >= threshold:
        counts, source = table.counts[row].tolist(), "backoff-form"
    else:
        counts, source = table.hapax_totals, "backoff-hapax"
    return _relative(counts, source, lambda: _no_hapaxes(table))  # a counted form's counts never sum to 0


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

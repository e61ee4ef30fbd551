"""Frequency-spectrum bookkeeping: per-type counts, hapax extraction, and
per-frequency-class proportion curves with running-median smoothing."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import ClassSpec, TaggedCorpus


@dataclass(frozen=True)
class TypeCount:
    """Token counts of one surface form, split by function."""

    form: str
    per_function: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_function", tuple(self.per_function))
        if any(c < 0 for c in self.per_function):
            raise ValueError(f"negative count for {self.form!r}")
        if self.total < 1:
            raise ValueError(f"type {self.form!r} has no tokens")

    @property
    def total(self) -> int:
        return sum(self.per_function)

    @property
    def is_hapax(self) -> bool:
        return self.total == 1


@dataclass(frozen=True)
class SpectrumTable:
    """Per-type counts plus the aggregate and hapax-only token totals.

    token_totals[f] sums per-function counts over all types; hapax_totals[f]
    sums them over types with exactly one token.  build_spectrum guarantees
    those sums; hand-built tables (e.g. from published totals) are trusted.
    """

    spec: ClassSpec
    types: Mapping[str, TypeCount]
    token_totals: tuple[int, ...]
    hapax_totals: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "token_totals", tuple(self.token_totals))
        object.__setattr__(self, "hapax_totals", tuple(self.hapax_totals))
        n = self.spec.n_functions
        if len(self.token_totals) != n or len(self.hapax_totals) != n:
            raise ValueError("totals length must match the number of functions")

    @property
    def n_tokens(self) -> int:
        return sum(self.token_totals)

    @property
    def n_hapax_tokens(self) -> int:
        return sum(self.hapax_totals)


@dataclass(frozen=True)
class ClassProportionPoint:
    """Token share of the reference function within one frequency class."""

    frequency: int
    n_types: int
    proportion: float

    @property
    def log_frequency(self) -> float:
        return math.log(self.frequency)


def build_spectrum(corpus: TaggedCorpus) -> SpectrumTable:
    """Aggregate a corpus into per-type counts and per-function totals."""
    n = corpus.spec.n_functions
    counts = np.bincount(
        corpus.form_ids * n + corpus.functions, minlength=len(corpus.forms) * n
    ).reshape(-1, n)
    hapax = counts.sum(axis=1) == 1
    return SpectrumTable(
        spec=corpus.spec,
        types={form: TypeCount(form, per) for form, per in zip(corpus.forms, counts.tolist())},
        token_totals=tuple(counts.sum(axis=0).tolist()),
        hapax_totals=tuple(counts[hapax].sum(axis=0).tolist()),
    )


def hapaxes(table: SpectrumTable) -> list[TypeCount]:
    """The types occurring exactly once, in first-occurrence order."""
    return [tc for tc in table.types.values() if tc.is_hapax]


def class_proportions(table: SpectrumTable, reference: str) -> list[ClassProportionPoint]:
    """Token-weighted share of `reference` per exact frequency class.

    One point per distinct type frequency f, sorted ascending; the share is
    (reference tokens at f) / (f * number of types at f), so the f=1 point
    equals the hapax-based estimate of the reference function.
    """
    ref = table.spec.function_index(reference)
    by_freq: dict[int, list[int]] = {}  # f -> [n_types, reference tokens]
    for tc in table.types.values():
        acc = by_freq.setdefault(tc.total, [0, 0])
        acc[0] += 1
        acc[1] += tc.per_function[ref]
    return [
        ClassProportionPoint(frequency=f, n_types=n_types, proportion=ref_tokens / (f * n_types))
        for f, (n_types, ref_tokens) in sorted(by_freq.items())
    ]


def running_median(values: Sequence[float], window: int = 5) -> list[float]:
    """Smooth a series by centered-window medians.

    The first and last (window-1)//2 elements are copied through unchanged,
    which keeps the endpoints (notably a leading f=1 class) unsmoothed.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be an odd integer >= 3, got {window}")
    half = window // 2
    out = list(values)
    for i in range(half, len(values) - half):
        out[i] = statistics.median(values[i - half : i + half + 1])
    return out

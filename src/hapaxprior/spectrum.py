"""Frequency-spectrum bookkeeping: per-type counts, hapax extraction, and
per-frequency-class proportion curves with running-median smoothing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
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


@dataclass(frozen=True, init=False, eq=False)
class SpectrumTable:
    """Token counts per form (rows of `counts`, in `forms` order; a row of
    zeros is a form without tokens) and function (columns), with their row
    sums (type_totals) and the aggregate and hapax-only token totals.

    from_counts derives the totals; a table built from `types` (e.g. from
    published totals) trusts the totals given.  types is a read-only view of
    the forms with tokens as TypeCounts, built on first access.
    """

    spec: ClassSpec
    forms: tuple[str, ...]
    counts: np.ndarray
    type_totals: np.ndarray
    token_totals: tuple[int, ...]
    hapax_totals: tuple[int, ...]

    def __init__(self, spec: ClassSpec, types: Mapping[str, TypeCount], token_totals, hapax_totals) -> None:
        totals = tuple(token_totals), tuple(hapax_totals)
        if any(len(t) != spec.n_functions for t in totals):
            raise ValueError("totals length must match the number of functions")
        per_type = np.array([tc.per_function for tc in types.values()], dtype=np.int64)
        self._set(spec, tuple(types), per_type.reshape(-1, spec.n_functions), totals)

    @classmethod
    def from_counts(cls, spec: ClassSpec, forms: Sequence[str], counts: np.ndarray) -> SpectrumTable:
        """A table of (a copy of) `counts`, with its token and hapax totals derived."""
        table = cls.__new__(cls)
        table._set(spec, tuple(forms), counts)
        return table

    def _set(self, spec: ClassSpec, forms: tuple[str, ...], counts, totals=None) -> None:
        counts = np.array(counts, dtype=np.int64)
        if counts.shape != (len(forms), spec.n_functions) or (counts < 0).any():
            raise ValueError(f"counts must be a non-negative {len(forms)} x {spec.n_functions} array")
        type_totals = counts.sum(axis=1)
        if totals is None:  # hapax_totals sums the rows of the forms with exactly one token
            totals = counts.sum(axis=0).tolist(), ((type_totals == 1) @ counts).tolist()
        counts.flags.writeable = type_totals.flags.writeable = False
        for name, value in (("spec", spec), ("forms", forms), ("counts", counts), ("type_totals", type_totals),
                            ("token_totals", tuple(totals[0])), ("hapax_totals", tuple(totals[1]))):
            object.__setattr__(self, name, value)

    @cached_property
    def types(self) -> Mapping[str, TypeCount]:
        rows = np.flatnonzero(self.type_totals).tolist()
        return MappingProxyType({self.forms[i]: TypeCount(self.forms[i], per)
                                 for i, per in zip(rows, self.counts[rows].tolist())})

    @cached_property
    def rows(self) -> Mapping[str, int]:
        """The row of each form in counts."""
        return MappingProxyType({form: i for i, form in enumerate(self.forms)})

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


def count_table(corpus: TaggedCorpus, select: np.ndarray | slice = slice(None)) -> np.ndarray:
    """Tokens per form (rows, in corpus.forms order) and function (columns)
    among the tokens at `select` (positions or a mask; default all), read-only."""
    n, n_forms = corpus.spec.n_functions, len(corpus.forms)
    cells = corpus.functions[select] * n_forms + corpus.form_ids[select]
    # column-major: each function's column is contiguous, which keeps row and column sums fast
    counts = np.bincount(cells, minlength=n * n_forms).reshape(n, n_forms).T
    counts.flags.writeable = False
    return counts


def build_spectrum(corpus: TaggedCorpus) -> SpectrumTable:
    """Aggregate a corpus into per-type counts and per-function totals."""
    return SpectrumTable.from_counts(corpus.spec, corpus.forms, count_table(corpus))


def hapaxes(table: SpectrumTable) -> list[TypeCount]:
    """The types occurring exactly once, in first-occurrence order."""
    rows = np.flatnonzero(table.type_totals == 1).tolist()
    return [TypeCount(table.forms[i], per) for i, per in zip(rows, table.counts[rows].tolist())]


def class_proportions(table: SpectrumTable, reference: str) -> list[ClassProportionPoint]:
    """Token-weighted share of `reference` per exact frequency class.

    One point per distinct type frequency f, sorted ascending; the share is
    (reference tokens at f) / (f * number of types at f), so the f=1 point
    equals the hapax-based estimate of the reference function.
    """
    ref = table.spec.function_index(reference)
    n_types = np.bincount(table.type_totals)
    ref_tokens = np.bincount(table.type_totals, weights=table.counts[:, ref])  # exact below 2**53
    freqs = np.flatnonzero(n_types[1:]) + 1
    return [
        ClassProportionPoint(frequency=f, n_types=n, proportion=r / (f * n))
        for f, n, r in zip(freqs.tolist(), n_types[freqs].tolist(), ref_tokens[freqs].tolist())
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
        out[i] = sorted(values[i - half : i + half + 1])[half]
    return out

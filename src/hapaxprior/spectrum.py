"""Frequency-spectrum bookkeeping: per-type counts, hapax extraction, and
per-frequency-class proportion curves with running-median smoothing."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from .corpus import ClassSpec, TaggedCorpus, int64_array

if TYPE_CHECKING:
    import numpy as np


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


@dataclass(frozen=True, init=False, eq=False)
class SpectrumTable:
    """Token counts per form (rows of `counts`, in `forms` order; a row of
    zeros is a form without tokens) and function (columns), with their row
    sums (type_totals) and the aggregate and hapax-only token totals.

    from_counts derives the totals; a table built from `types` (e.g. from
    published totals) trusts the totals given when each is a non-negative
    integer and each kind sums below 2**63, and refuses a key that is not
    its TypeCount's form.  types is a read-only view of the forms with
    tokens as TypeCounts, built on first access.
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
        for name, given in zip(("token_totals", "hapax_totals"), totals):
            if (not all(isinstance(t, numbers.Integral) and not isinstance(t, bool) and t >= 0 for t in given)
                    or sum(map(int, given)) >= 1 << 63):
                raise ValueError(f"{name} must be non-negative integers that sum below 2**63, got {given!r}")
        forms = tuple(types)
        if mislabelled := [form for form, tc in types.items() if tc.form != form]:
            raise ValueError(f"types key {mislabelled[0]!r} is not its TypeCount's form")
        per_type = int64_array([tc.per_function for tc in types.values()], "per_function")
        self._set(spec, forms, _valid_counts(spec, forms, per_type.reshape(-1, spec.n_functions)), totals)

    @classmethod
    def from_counts(cls, spec: ClassSpec, forms: Sequence[str], counts: np.ndarray) -> SpectrumTable:
        """A table of (a copy of) `counts` of distinct forms, with its token and hapax totals derived."""
        forms = tuple(forms)
        return cls._of_valid_counts(spec, forms, _valid_counts(spec, forms, counts))

    @classmethod
    def _of_valid_counts(cls, spec: ClassSpec, forms: tuple[str, ...], counts: np.ndarray) -> SpectrumTable:
        """from_counts of an int64 array that passes its checks, unchecked; it
        takes the array over and makes it read-only."""
        table = cls.__new__(cls)
        table._set(spec, forms, counts)
        return table

    def _set(self, spec: ClassSpec, forms: tuple[str, ...], counts: np.ndarray, totals=None) -> None:
        type_totals = counts.sum(axis=1)
        if totals is None:  # hapax_totals sums the rows of the forms with exactly one token
            totals = counts.sum(axis=0).tolist(), ((type_totals == 1) @ counts).tolist()
        counts.flags.writeable = type_totals.flags.writeable = False
        for name, value in (("spec", spec), ("forms", forms), ("counts", counts), ("type_totals", type_totals),
                            ("token_totals", tuple(totals[0])), ("hapax_totals", tuple(totals[1]))):
            object.__setattr__(self, name, value)

    @cached_property
    def types(self) -> Mapping[str, TypeCount]:
        import numpy as np

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


def _valid_counts(spec: ClassSpec, forms: tuple[str, ...], counts) -> np.ndarray:
    """An int64 copy of counts; ValueError unless forms are distinct and it
    is a non-negative len(forms) x spec.n_functions array of integers."""
    if len(set(forms)) != len(forms):
        raise ValueError("forms must be distinct")
    counts = int64_array(counts, "counts")
    if counts.shape != (len(forms), spec.n_functions) or (counts < 0).any():
        raise ValueError(f"counts must be a non-negative {len(forms)} x {spec.n_functions} array")
    return counts


def _cell_table(corpus: TaggedCorpus, cells: np.ndarray) -> np.ndarray:
    """Tokens per form (rows, in corpus.forms order) and function (columns)
    among the tokens whose corpus.cells are `cells`, as a new int64 array.
    The cells number a row-major table; it is copied to column-major order,
    where each function's column is contiguous, which keeps row and column
    sums fast."""
    import numpy as np

    n = corpus.spec.n_functions
    return np.asfortranarray(np.bincount(cells, minlength=len(corpus.forms) * n).reshape(len(corpus.forms), n))


def build_spectrum(corpus: TaggedCorpus) -> SpectrumTable:
    """Aggregate a corpus into per-type counts and per-function totals."""
    return SpectrumTable._of_valid_counts(corpus.spec, corpus.forms, _cell_table(corpus, corpus.cells))


def hapaxes(table: SpectrumTable) -> list[TypeCount]:
    """The types occurring exactly once, in first-occurrence order."""
    import numpy as np

    rows = np.flatnonzero(table.type_totals == 1).tolist()
    return [TypeCount(table.forms[i], per) for i, per in zip(rows, table.counts[rows].tolist())]


def class_proportions(table: SpectrumTable, reference: str) -> list[ClassProportionPoint]:
    """Token-weighted share of `reference` per exact frequency class.

    One point per distinct type frequency f, sorted ascending; the share is
    (reference tokens at f) / (f * number of types at f), so the f=1 point
    equals the hapax-based estimate of the reference function.
    """
    import numpy as np

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

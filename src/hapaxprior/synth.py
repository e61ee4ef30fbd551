"""Seeded generator of two-way ambiguous corpora with frequency-dependent
function mixing.

Type frequencies follow a truncated Zipf profile; each type's probability of
the reference function (the first label) is interpolated linearly in
log-rank between p_high at rank 1 and p_low at the rarest rank.  This makes
"high-frequency types behave differently from the productive tail" a
controllable property, so the overall-vs-hapax comparison can be tested
against known ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ._writer import write_text
from .corpus import ClassSpec, TaggedCorpus


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic corpus."""

    n_types: int
    zipf_exponent: float
    target_tokens: int
    p_high: float
    p_low: float
    seed: int
    functions: tuple[str, str] = ("a", "b")

    def __post_init__(self) -> None:
        if self.n_types < 2:
            raise ValueError(f"n_types must be >= 2, got {self.n_types}")
        if not self.zipf_exponent > 0:
            raise ValueError(f"zipf_exponent must be > 0, got {self.zipf_exponent}")
        if self.target_tokens < self.n_types:
            raise ValueError(
                f"infeasible: target_tokens ({self.target_tokens}) < n_types ({self.n_types}),"
                " every type needs at least one token"
            )
        for name in ("p_high", "p_low"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {p}")
        if len(self.functions) != 2 or self.functions[0] == self.functions[1]:
            raise ValueError(f"functions must be 2 distinct labels, got {self.functions}")
        if any(label.split() != [label] or "," in label for label in self.functions):
            raise ValueError(f"function labels must hold no whitespace or comma, got {self.functions}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SynthTruth:
    """Ground truth of a generated corpus: per-type reference probability
    and token count, keyed by surface form."""

    reference: str
    probabilities: Mapping[str, float]
    token_counts: Mapping[str, int]

    def true_unseen_prior(self, forms: Iterable[str]) -> float:
        """Token-weighted reference probability over the given (unseen) types."""
        num = den = 0.0
        for form in forms:
            c = self.token_counts[form]
            num += c * self.probabilities[form]
            den += c
        if den == 0:
            raise ValueError("no types given: the unseen prior is undefined")
        return num / den


def zipf_token_counts(n_types: int, exponent: float, target_tokens: int) -> list[int]:
    """Allocate target_tokens over ranks 1..n_types proportionally to
    rank^-exponent, by largest-remainder rounding.

    Totals are exact.  If rounding starves a rank, single tokens are moved
    from the currently largest rank until every rank has at least one
    (deterministic; requires target_tokens >= n_types).
    """
    weights = np.arange(1, n_types + 1, dtype=float) ** -exponent
    shares = target_tokens * weights / weights.sum()
    counts = np.floor(shares).astype(np.int64)
    remainder = target_tokens - int(counts.sum())
    by_fraction = np.argsort(-(shares - counts), kind="stable")
    counts[by_fraction[:remainder]] += 1

    for rank in np.flatnonzero(counts == 0):
        counts[int(np.argmax(counts))] -= 1
        counts[rank] = 1
    return counts.tolist()


def _form_name(rank: int) -> str:
    return f"w{rank:06d}"


def generate(spec: SynthSpec) -> tuple[TaggedCorpus, SynthTruth]:
    """Generate a corpus and its ground truth, deterministically in the seed.

    Tokens are emitted in rank order; downstream consumers shuffle with
    their own seed.
    """
    counts = zipf_token_counts(spec.n_types, spec.zipf_exponent, spec.target_tokens)
    log_span = math.log(spec.n_types)
    ranks = range(1, spec.n_types + 1)
    forms = tuple(_form_name(rank) for rank in ranks)
    p_ref = [spec.p_high + (spec.p_low - spec.p_high) * math.log(rank) / log_span for rank in ranks]
    token_p_ref = np.repeat(p_ref, counts)
    # one draw per token in rank order: the same stream as one draw per rank
    is_ref = np.random.default_rng(spec.seed).random(len(token_p_ref)) < token_p_ref

    class_spec = ClassSpec(
        name="synth",
        functions=spec.functions,
        suffix="",
        tag_map={label: label for label in spec.functions},
    )
    corpus = TaggedCorpus.from_columns(
        class_spec, forms, np.repeat(np.arange(spec.n_types), counts), np.where(is_ref, 0, 1)
    )
    truth = SynthTruth(
        reference=spec.functions[0],
        probabilities=dict(zip(forms, p_ref)),
        token_counts=dict(zip(forms, counts)),
    )
    return corpus, truth


def save_truth(truth: SynthTruth, path: str | Path) -> None:
    """Write the truth sidecar, whole or not at all: one
    ``form,true_p_reference`` row per type."""
    rows = (f"{form},{p:.10g}\n" for form, p in truth.probabilities.items())
    write_text(path, chain(["form,true_p_reference\n"], rows))

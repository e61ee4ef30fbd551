"""Per-layer tracing for the benchmark's in-process runs.

Spans are recorded from the benchmark's side only: the public functions of
each hapaxprior module are wrapped at the names their callers bind (for
example ``hapaxprior.crossval.build_spectrum``), for the duration of one
traced op.  Each span records its name, start, end, parent span and op id;
spans stay in memory until the run writes them out.

The layers are the package's modules.  A name that a later version of the
package no longer binds is skipped, so its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

# Counter hooks run after their span closes and get
# (counters, the span's parent name, args, result).


def _count_load(c: Counter, parent: str | None, args: tuple, result) -> None:
    kept, dropped = len(result), getattr(result, "dropped", 0)
    c["corpus.tokens_kept"] += kept
    c["corpus.tokens_dropped"] += dropped
    c["corpus.lines_read"] += kept + dropped


def _count_save(c: Counter, parent: str | None, args: tuple, result) -> None:
    c["corpus.bytes_written"] += os.path.getsize(args[1])


def _count_build(c: Counter, parent: str | None, args: tuple, result) -> None:
    c["spectrum.build_calls"] += 1
    c["spectrum.types_built"] += len(result.types)
    if parent == "crossval.run_fold":
        c["crossval.train_tokens"] += sum(result.token_totals)


def _count_fold(c: Counter, parent: str | None, args: tuple, result) -> None:
    c["crossval.folds"] += 1
    c["crossval.unseen_tokens"] += sum(result.unseen_observed)


def _count_backoff(c: Counter, parent: str | None, args: tuple, result) -> None:
    c["estimators.backoff_calls"] += 1
    c["estimators.backoff_hapax"] += result.source == "backoff-hapax"


def _count_ttest(c: Counter, parent: str | None, args: tuple, result) -> None:
    c["stats.ttest_calls"] += 1


def _count_generate(c: Counter, parent: str | None, args: tuple, result) -> None:
    c["synth.tokens"] += len(result[0])


# (caller module, bound name, span name, counter hook)
WRAPPED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("hapaxprior.cli", "load_class_spec", "corpus.load_class_spec", None),
    ("hapaxprior.cli", "load_corpus", "corpus.load_corpus", _count_load),
    ("hapaxprior.cli", "save_corpus", "corpus.save_corpus", _count_save),
    ("hapaxprior.cli", "save_class_spec", "corpus.save_class_spec", _count_save),
    ("hapaxprior.cli", "build_spectrum", "spectrum.build_spectrum", _count_build),
    ("hapaxprior.cli", "class_proportions", "spectrum.class_proportions", None),
    ("hapaxprior.cli", "running_median", "spectrum.running_median", None),
    ("hapaxprior.cli", "backoff_prior", "estimators.backoff_prior", _count_backoff),
    ("hapaxprior.cli", "run_crossval", "crossval.run_crossval", None),
    ("hapaxprior.cli", "generate", "synth.generate", _count_generate),
    ("hapaxprior.cli", "save_truth", "synth.save_truth", None),
    ("hapaxprior.crossval", "make_folds", "crossval.make_folds", None),
    ("hapaxprior.crossval", "shuffled_order", "corpus.shuffled_order", None),
    ("hapaxprior.crossval", "run_fold", "crossval.run_fold", _count_fold),
    ("hapaxprior.crossval", "build_spectrum", "spectrum.build_spectrum", _count_build),
    ("hapaxprior.crossval", "paired_t", "stats.paired_t", _count_ttest),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


@dataclass
class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    op: int = 0
    _stack: list[int] = field(default_factory=list)

    def span(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid].start, self.spans[sid].end = start, end
            if hook is not None:
                hook(self.counters, None if parent is None else self.spans[parent].name, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every bound name in WRAPPED; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, hook in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.span(name, original, hook))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - c
        return totals

    def durations(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + s.end - s.start
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics from the spans and counters, per round of ops."""
    dur = tracer.durations()
    own = tracer.self_times()
    c = tracer.counters

    def d(*names: str) -> float:
        return sum(dur.get(n, 0.0) for n in names)

    def s(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names)

    per_round = {
        "corpus.load_s": d("corpus.load_corpus", "corpus.load_class_spec"),
        "corpus.lines_read": c["corpus.lines_read"],
        "corpus.tokens_kept": c["corpus.tokens_kept"],
        "corpus.tokens_dropped": c["corpus.tokens_dropped"],
        "corpus.save_s": d("corpus.save_corpus", "corpus.save_class_spec"),
        "corpus.bytes_written": c["corpus.bytes_written"],
        "corpus.permute_s": d("corpus.shuffled_order"),
        "spectrum.build_s": d("spectrum.build_spectrum"),
        "spectrum.build_calls": c["spectrum.build_calls"],
        "spectrum.types_built": c["spectrum.types_built"],
        "spectrum.proportions_s": d("spectrum.class_proportions"),
        "spectrum.median_s": d("spectrum.running_median"),
        "crossval.plan_s": s("crossval.make_folds"),
        "crossval.fold_s": s("crossval.run_fold"),
        "crossval.folds": c["crossval.folds"],
        "crossval.train_tokens": c["crossval.train_tokens"],
        "crossval.unseen_tokens": c["crossval.unseen_tokens"],
        "estimators.backoff_s": d("estimators.backoff_prior"),
        "estimators.backoff_calls": c["estimators.backoff_calls"],
        "stats.ttest_s": d("stats.paired_t"),
        "stats.ttest_calls": c["stats.ttest_calls"],
        "synth.generate_s": d("synth.generate"),
        "synth.tokens": c["synth.tokens"],
        "synth.truth_save_s": d("synth.save_truth"),
        "cli.self_s": s("cli.main"),
        "cli.bytes_out": c["cli.bytes_out"],
    }
    metrics = {name: value / rounds for name, value in per_round.items()}
    calls = c["estimators.backoff_calls"]
    metrics["estimators.backoff_hapax_share"] = c["estimators.backoff_hapax"] / calls if calls else 0.0
    return metrics

"""Seeded input generators for the hapaxprior benchmark (numpy and stdlib only).

Every input is a pure function of (size, workload, variant), so one seed
always yields byte-identical files and the pinned output digests apply.
The generators never call ``hapaxprior synth``: a declared change to synth
must not change the input of another workload.

All corpora belong to one ambiguity class in the shape of the Dutch -en
studies (suffix ``en``; functions ``inf`` and ``pl``).  Token types are
drawn from a Zipf(1.0) population, so the hapax tail comes from sampling.
Each type's probability of ``inf`` rises linearly in log-rank from 0.3 at
rank 1 to 0.7 at the rarest rank: frequent types lean to ``pl``, the tail
to ``inf``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEC_TEXT = (
    "name=dutch-en\n"
    "suffix=en\n"
    "functions=inf,pl\n"
    "map V(inf) inf\n"
    "map V(pl) pl\n"
    "map V(pl,past) pl\n"
)
FUNCTIONS = ("inf", "pl")
P_HIGH, P_LOW = 0.3, 0.7
UNMAPPED_TAGS = ("N(pl)", "Adj", "V(part)", "Adv")
OTHER_SUFFIXES = ("ed", "er", "ing", "s", "t")
# Line kinds of the filter-read corpus: kept, dropped for an unmapped tag,
# dropped by the suffix filter.
FILTER_KIND_SHARES = (0.15, 0.42, 0.43)
PRIORS_THRESHOLD = 5
CROSSVAL_K = 10
CROSSVAL_SEED = 1

# Input sizes per benchmark size.  "tiny" exists for the benchmark's own
# tests and runs every workload in seconds.
SIZES = {
    "full": {
        "crossval-1m": {"tokens": 1_000_000, "population": 1_000_000},
        "filter-read": {"lines": 2_000_000, "population": 200_000, "forms": 20_000},
        "cli-50k": {"tokens": 50_000, "population": 25_000, "forms": 1_000,
                    "synth_types": 10_000, "synth_tokens": 50_000},
    },
    "tiny": {
        "crossval-1m": {"tokens": 20_000, "population": 20_000},
        "filter-read": {"lines": 40_000, "population": 8_000, "forms": 400},
        "cli-50k": {"tokens": 5_000, "population": 2_500, "forms": 100,
                    "synth_types": 1_000, "synth_tokens": 5_000},
    },
}
WORKLOADS = tuple(SIZES["full"])


@dataclass
class ClassCounts:
    """What a correct ``spectrum`` op must report, recounted with numpy."""

    types: int
    hapax_types: int
    tokens: tuple[int, int]
    hapax_tokens: tuple[int, int]
    dropped: int


@dataclass
class Inputs:
    """What is known about the written inputs of one workload."""

    expected: ClassCounts
    properties: dict
    type_ids: np.ndarray  # per class token, for the fold check
    functions: np.ndarray


def _rng(workload: str, variant: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), variant])


def _zipf_ranks(rng: np.random.Generator, population: int, n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, population + 1)
    return rng.choice(population, size=n, p=weights / weights.sum())


def _class_functions(rng: np.random.Generator, ranks: np.ndarray, population: int) -> np.ndarray:
    p_inf = P_HIGH + (P_LOW - P_HIGH) * np.log1p(ranks) / np.log(population)
    return (rng.random(len(ranks)) >= p_inf).astype(np.int64)  # 0 = inf, 1 = pl


def _mapped_tags(rng: np.random.Generator, functions: np.ndarray) -> np.ndarray:
    """Tag strings for class tokens; plurals split over V(pl) and V(pl,past)."""
    tags = np.array(["V(inf)", "V(pl)", "V(pl,past)"], dtype=object)
    past = rng.random(len(functions)) < 0.5
    return tags[functions + (functions == 1) * past]


def _en_forms(ranks: np.ndarray) -> np.ndarray:
    uniq, inv = np.unique(ranks, return_inverse=True)
    return np.array([f"w{r:07d}en" for r in uniq.tolist()], dtype=object)[inv]


def _write_lines(path: Path, forms: np.ndarray, tags: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join((forms + "\t" + tags + "\n").tolist()))


def count_class(ranks: np.ndarray, functions: np.ndarray, dropped: int) -> tuple[ClassCounts, np.ndarray]:
    """Recount a class's spectrum totals; also returns compact type ids."""
    _, type_ids = np.unique(ranks, return_inverse=True)
    per_type = np.bincount(type_ids)
    hapax_token = per_type[type_ids] == 1
    counts = ClassCounts(
        types=len(per_type),
        hapax_types=int((per_type == 1).sum()),
        tokens=tuple(int(c) for c in np.bincount(functions, minlength=2)),
        hapax_tokens=tuple(int(c) for c in np.bincount(functions[hapax_token], minlength=2)),
        dropped=dropped,
    )
    return counts, type_ids


def _forms_file(rng: np.random.Generator, path: Path, ranks: np.ndarray, n_forms: int) -> dict:
    """Write forms for ``priors``: frequent, rare and unseen in equal-ish parts."""
    per_rank = np.bincount(ranks)
    seen = np.flatnonzero(per_rank)
    frequent = seen[per_rank[seen] >= PRIORS_THRESHOLD]
    rare = seen[per_rank[seen] < PRIORS_THRESHOLD]
    n_freq = min(len(frequent), n_forms // 4)
    n_rare = min(len(rare), n_forms // 2)
    n_unseen = n_forms - n_freq - n_rare
    chosen_freq = frequent[np.argsort(-per_rank[frequent], kind="stable")[:n_freq]]
    chosen_rare = rng.choice(rare, size=n_rare, replace=False)
    forms = [f"w{r:07d}en" for r in np.concatenate([chosen_freq, chosen_rare]).tolist()]
    forms += [f"u{i:07d}en" for i in range(n_unseen)]
    order = rng.permutation(len(forms))
    path.write_text("".join(forms[i] + "\n" for i in order.tolist()), encoding="utf-8")
    return {"forms": len(forms), "frequent": n_freq, "rare": n_rare, "unseen": n_unseen}


def generate(size: str, workload: str, variant: int, workdir: Path) -> Inputs:
    """Write the inputs of one workload into `workdir` and describe them."""
    params = SIZES[size][workload]
    rng = _rng(workload, variant)
    files = {"corpus": workdir / "corpus.tsv", "spec": workdir / "class.spec"}
    files["spec"].write_text(SPEC_TEXT, encoding="utf-8")
    properties: dict = {}

    if workload == "filter-read":
        n, population = params["lines"], params["population"]
        kind = rng.choice(3, size=n, p=FILTER_KIND_SHARES)
        kept = kind == 0
        en_ranks = _zipf_ranks(rng, population, n)
        other_ranks = _zipf_ranks(rng, population, n)
        functions = _class_functions(rng, en_ranks[kept], population)
        forms = _en_forms(en_ranks)
        other = kind == 2
        suffixes = np.array(OTHER_SUFFIXES, dtype=object)[other_ranks[other] % len(OTHER_SUFFIXES)]
        forms[other] = np.array(
            [f"w{r:07d}" for r in other_ranks[other].tolist()], dtype=object) + suffixes
        tags = np.empty(n, dtype=object)
        tags[kept] = _mapped_tags(rng, functions)
        tags[kind == 1] = np.array(UNMAPPED_TAGS, dtype=object)[
            rng.integers(0, len(UNMAPPED_TAGS), size=int((kind == 1).sum()))]
        tags[other] = _mapped_tags(rng, rng.integers(0, 2, size=int(other.sum())))
        _write_lines(files["corpus"], forms, tags)
        class_ranks = en_ranks[kept]
        properties["dropped_share"] = {
            "unmapped_tag": float((kind == 1).mean()),
            "suffix": float((kind == 2).mean()),
        }
    else:
        n, population = params["tokens"], params["population"]
        class_ranks = _zipf_ranks(rng, population, n)
        functions = _class_functions(rng, class_ranks, population)
        _write_lines(files["corpus"], _en_forms(class_ranks), _mapped_tags(rng, functions))
        properties["dropped_share"] = {"unmapped_tag": 0.0, "suffix": 0.0}

    data_lines = {"corpus": n}
    if "forms" in params:
        files["forms"] = workdir / "forms.txt"
        properties["forms_file"] = _forms_file(rng, files["forms"], class_ranks, params["forms"])
        data_lines["forms"] = params["forms"]

    expected, type_ids = count_class(class_ranks, functions, dropped=n - len(class_ranks))
    properties.update(
        class_tokens=int(len(class_ranks)),
        types=expected.types,
        hapax_types=expected.hapax_types,
        files={name: {"lines": data_lines.get(name, SPEC_TEXT.count("\n")),
                      "bytes": path.stat().st_size} for name, path in files.items()},
    )
    return Inputs(expected=expected, properties=properties, type_ids=type_ids, functions=functions)


def fold_check(type_ids: np.ndarray, functions: np.ndarray, k: int, seed: int) -> dict:
    """Whether every training fold has hapaxes and unseen tokens of both functions.

    Rebuilds the program's fold plan from its documented rule (a
    ``random.Random(seed).shuffle`` of token positions, sliced into k
    contiguous parts, remainder to the lowest folds) and recounts each
    fold with numpy.
    """
    n = len(type_ids)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    base, extra = divmod(n, k)
    sizes = [base + (1 if f < extra else 0) for f in range(k)]
    assignment = np.empty(n, dtype=np.int64)
    assignment[np.asarray(order)] = np.repeat(np.arange(k), sizes)

    n_types = int(type_ids.max()) + 1
    cell = type_ids * 2 + functions
    total = np.bincount(cell, minlength=2 * n_types).reshape(n_types, 2)
    folds = []
    for f in range(k):
        held = assignment == f
        train = total - np.bincount(cell[held], minlength=2 * n_types).reshape(n_types, 2)
        train_per_type = train.sum(axis=1)
        hapax = train[train_per_type == 1].sum(axis=0)
        unseen = np.bincount(functions[held & (train_per_type[type_ids] == 0)], minlength=2)
        folds.append({"hapax": hapax.tolist(), "unseen": unseen.tolist()})
    ok = all(min(fd["hapax"]) > 0 and min(fd["unseen"]) > 0 for fd in folds)
    return {"k": k, "seed": seed, "all_folds_have_both_functions": ok, "folds": folds}

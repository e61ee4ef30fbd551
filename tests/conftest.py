"""Shared fixtures: a toy two-function class, corpus builders, a cache
directory of the session's own for every CLI run, and the environment of a
child interpreter."""

import os
import random
from pathlib import Path

import pytest

import hapaxprior
from hapaxprior import ClassSpec, TaggedCorpus, TokenRecord


@pytest.fixture(scope="session", autouse=True)
def cache_dir(tmp_path_factory):
    """The corpus cache of every CLI run in the session, child processes
    included: a temporary directory, never the user's."""
    with pytest.MonkeyPatch.context() as patch:
        directory = tmp_path_factory.mktemp("cache")
        patch.setenv("HAPAXPRIOR_CACHE_DIR", str(directory))
        yield directory


def child_env(**extra: str) -> dict[str, str]:
    """os.environ with extra added, for a child interpreter that imports the
    package these tests import: the directory holding hapaxprior.__file__'s
    package (the checkout's src, or site-packages for an installed package)
    comes first on PYTHONPATH."""
    src = str(Path(hapaxprior.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **extra}


@pytest.fixture
def ab_spec():
    """Two-function class with no suffix filter; tags A/B map to a/b."""
    return ClassSpec(
        name="toy",
        functions=("a", "b"),
        suffix="",
        tag_map={"A": "a", "B": "b"},
    )


@pytest.fixture
def en_spec():
    """Suffix-filtered class in the shape of the Dutch -en studies."""
    return ClassSpec(
        name="dutch-en",
        functions=("inf", "pl"),
        suffix="en",
        tag_map={"V(inf)": "inf", "V(pl)": "pl"},
    )


def corpus_of(spec, pairs):
    """TaggedCorpus from (form, function index) pairs."""
    return TaggedCorpus(
        spec=spec,
        tokens=tuple(TokenRecord(form=form, function=fn) for form, fn in pairs),
    )


def random_pairs(rng: random.Random, max_tokens=50, max_forms=12, n_functions=2):
    """Random (form, function) token list for oracle comparisons.

    Forms are drawn from a small pool so that repeats, hapaxes, and unseen
    held-out types all occur regularly.
    """
    n = rng.randint(2, max_tokens)
    pool = [f"f{i}" for i in range(1, rng.randint(2, max_forms) + 1)]
    return [
        (rng.choice(pool), rng.randrange(n_functions))
        for _ in range(n)
    ]

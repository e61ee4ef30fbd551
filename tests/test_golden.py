"""Byte-for-byte comparison of CLI output with outputs pinned in tests/golden/.

The pinned files were generated once by this module's CASES and must only
change with a declared output change.  Two synthetic corpora come from
`synth` (its corpus, truth sidecar and class spec are pinned too) and one
hand-made corpus exercises comments, blank lines, padded fields, suffix
misses, unmapped tags and --fold-case.  Every fold of every crossval case
has training hapaxes and unseen held-out tokens of both functions.

Regenerate (only for a declared output change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hapaxprior import _cache
from hapaxprior.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SYNTH = {
    "synth_a": ["--n-types", "1500", "--zipf-exponent", "1.0", "--target-tokens", "4000",
                "--p-high", "0.3", "--p-low", "0.8", "--seed", "3"],
    "synth_b": ["--n-types", "800", "--zipf-exponent", "1.2", "--target-tokens", "2500",
                "--p-high", "0.7", "--p-low", "0.2", "--functions", "v,n", "--seed", "11"],
}
SYNTH_FILES = ("{}.tsv", "{}.tsv.truth.csv", "{}.spec")


def _corpus(name, *extra):
    return ["--corpus", f"{name}.tsv", "--class-spec", f"{name}.spec", *extra]


# name -> argv, run with the golden directory as working directory
CASES = {
    "synth_a.spectrum": ["spectrum", *_corpus("synth_a")],
    "synth_a.priors": ["priors", *_corpus("synth_a"), "--form", "w000001", "--form", "w000400",
                       "--form", "w001500", "--form", "w999999", "--threshold", "3"],
    "synth_a.priors_every_form": ["priors", *_corpus("synth_a"), "--forms-file", "synth_a.every.forms",
                                  "--threshold", "3"],
    "synth_a.crossval": ["crossval", *_corpus("synth_a"), "--k", "10", "--seed", "5"],
    "synth_a.report": ["report", *_corpus("synth_a"), "--k", "10", "--seed", "5"],
    "synth_a.figure": ["figure", *_corpus("synth_a")],
    "synth_b.spectrum": ["spectrum", *_corpus("synth_b")],
    "synth_b.priors": ["priors", *_corpus("synth_b"), "--form", "w000002", "--form", "w000800",
                       "--form", "nope"],
    "synth_b.crossval": ["crossval", *_corpus("synth_b"), "--k", "10", "--seed", "5",
                         "--ratio", "n/v"],
    "synth_b.report": ["report", *_corpus("synth_b"), "--k", "7", "--seed", "2"],
    "synth_b.figure": ["figure", *_corpus("synth_b"), "--ratio", "n/v", "--smooth-window", "3"],
    "hand.spectrum": ["spectrum", *_corpus("hand")],
    "hand.spectrum_fold_case": ["spectrum", *_corpus("hand", "--fold-case")],
    "hand.priors": ["priors", *_corpus("hand", "--fold-case"), "--forms-file", "hand.forms",
                    "--form", "kunnen", "--threshold", "2"],
    "hand.crossval": ["crossval", *_corpus("hand", "--fold-case"), "--k", "5", "--seed", "3"],
    "hand.report": ["report", *_corpus("hand", "--fold-case"), "--k", "5", "--seed", "3"],
    "hand.figure": ["figure", *_corpus("hand", "--fold-case"), "--smooth-window", "3"],
}


def run_case(argv):
    """Run one CLI case in the golden directory; return (exit code, stdout)."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def run_synth(name, directory):
    directory = Path(directory)
    argv = ["synth", *SYNTH[name], "--out", str(directory / f"{name}.tsv"),
            "--spec-out", str(directory / f"{name}.spec")]
    with redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("name", sorted(SYNTH))
def test_synth_matches_golden(name, tmp_path):
    assert run_synth(name, tmp_path) == 0
    for pattern in SYNTH_FILES:
        file = pattern.format(name)
        assert (tmp_path / file).read_bytes() == (GOLDEN / file).read_bytes(), file


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    code, out = run_case(CASES[name])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def test_output_is_the_same_with_the_cache_off_cold_and_warm(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    code_file = _cache._code

    def counted(*args):
        coded.append(args[0].name)
        return code_file(*args)

    monkeypatch.setattr(_cache, "_code", counted)
    outputs = {}
    for run in ("off", "cold", "warm"):
        monkeypatch.setenv("HAPAXPRIOR_CACHE_DIR", "" if run == "off" else str(cache))
        coded = []
        for name, argv in CASES.items():
            out = tmp_path / f"{run}.{name}.out"
            outputs[run, name] = run_case(argv), run_case([*argv, "--out", str(out)]), out.read_bytes()
        # the cases read four corpora under distinct options, each coded once when cold
        assert (len(coded), len(list(cache.glob("*.cells"))) if cache.exists() else 0) == {
            "off": (2 * len(CASES), 0), "cold": (4, 4), "warm": (0, 4)}[run]
    for name in CASES:
        golden = (GOLDEN / f"{name}.out").read_bytes()
        for run in ("off", "cold", "warm"):
            (code, stdout), (out_code, out_stdout), out = outputs[run, name]
            assert (code, out_code, out_stdout) == (0, 0, "") and stdout.encode("utf-8") == out == golden, (run, name)


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith(".crossval")))
def test_every_golden_fold_has_hapaxes_and_unseen_of_both_functions(name):
    lines = (GOLDEN / f"{name}.out").read_text().splitlines()
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    wanted = [i for i, col in enumerate(header) if col.startswith(("n1_", "n0_"))]
    assert len(wanted) == 4 and rows
    for row in rows:
        assert all(int(row[i]) > 0 for i in wanted), row


if __name__ == "__main__":
    for name in SYNTH:
        if run_synth(name, GOLDEN) != 0:
            sys.exit(f"synth {name} failed")
    for name, argv in CASES.items():
        code, out = run_case(argv)
        if code != 0:
            sys.exit(f"{name} exited {code}")
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")

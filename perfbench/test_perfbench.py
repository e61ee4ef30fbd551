"""Tests of the benchmark itself, on tiny inputs (about a minute in all):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
NAMED_END_TO_END = {
    "op_p50_s": "s", "lines_per_s": "1/s", "peak_rss_mb": "MB", "fail_ratio": "ratio", "setup_s": "s",
}


def bench(workload: str, trace: int, script: Path = run.BENCH / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )


def parse(stdout: str) -> tuple[dict, dict]:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def test_benchmark_covers_every_workload():
    assert WORKLOAD_NAMES == list(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    detail, result = parse(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in NAMED_END_TO_END.items():
        assert detail["end_to_end"][name]["unit"] == unit
    assert detail["end_to_end"]["fail_ratio"]["value"] == 0
    assert {"nproc", "cpu", "python", "numpy", "scipy"} <= set(detail["environment"])
    assert all({"lines", "bytes"} <= set(f) for f in detail["inputs"]["files"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    detail, result = parse(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["cli.import_s"] > 0 and value["stats.import_s"] > 0 and value["cli.self_s"] > 0
    assert len(detail["trace"]["overhead_s_per_op"]) == result["attempted"] // 2
    assert (run.ROOT / detail["trace"]["spans_file"]).is_file()
    ran = {op["label"] for op in detail["ops"]}
    assert (value["crossval.folds"] > 0) == ("crossval" in ran)
    assert (value["estimators.backoff_calls"] > 0) == ("priors" in ran)
    assert (value["synth.tokens"] > 0) == ("synth" in ran)
    assert value["corpus.lines_read"] == value["corpus.tokens_kept"] + value["corpus.tokens_dropped"] > 0


def test_corrupted_output_counts_in_fail_ratio(monkeypatch, capsys):
    original = run._read_output

    def corrupt_priors(path: Path) -> bytes:
        data = original(path)
        return data + b"corrupted" if path.name == "priors.out" else data

    monkeypatch.setattr(run, "_read_output", corrupt_priors)
    argv = ["--workload", "filter-read", "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny"]
    assert run.main(argv) == 0
    detail, result = parse(capsys.readouterr().out)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert detail["end_to_end"]["fail_ratio"]["value"] == pytest.approx(1 / 3)
    assert detail["failures"][0]["op"] == "priors"


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("cli-50k", 0, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    got = run.tail([float(v) for v in range(1, 21)])
    assert (got["value"], got["percentile"], got["samples"]) == (10.0, 50.0, 20)


def test_inputs_are_a_function_of_the_variant(tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    inputs.generate("tiny", "filter-read", 5, tmp_path / "a")
    inputs.generate("tiny", "filter-read", 5, tmp_path / "b")
    inputs.generate("tiny", "filter-read", 6, tmp_path / "c")
    files = [[(tmp_path / d / f).read_bytes() for f in ("corpus.tsv", "forms.txt")] for d in ("a", "b", "c")]
    assert files[0] == files[1] != files[2]


def test_fold_check_matches_the_program(tmp_path):
    sys.path.insert(0, str(run.SRC))
    try:
        from hapaxprior import load_class_spec, load_corpus, run_crossval
    finally:
        sys.path.remove(str(run.SRC))
    generated = inputs.generate("tiny", "crossval-1m", 2, tmp_path)
    folds = inputs.fold_check(generated.type_ids, generated.functions, inputs.CROSSVAL_K, inputs.CROSSVAL_SEED)
    corpus = load_corpus(tmp_path / "corpus.tsv", load_class_spec(tmp_path / "class.spec"))
    report = run_crossval(corpus, inputs.CROSSVAL_K, inputs.CROSSVAL_SEED)
    assert [(list(f.hapax_totals), list(f.unseen_observed)) for f in report.folds] == [
        (fd["hapax"], fd["unseen"]) for fd in folds["folds"]]
    assert folds["all_folds_have_both_functions"]

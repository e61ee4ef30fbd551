"""End-to-end benchmark of the hapaxprior CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload crossval-1m --seed 0 --seconds 30 --trace 0

One client runs a closed loop, one op at a time.  An op is one CLI
invocation in its own process (``python -c`` calling the console entry
point with ``src/`` on the path), timed from spawn to exit, so interpreter
and import start-up count.  Ops run in rounds; a round is the workload's
op list once, and the loop only starts a round it expects to finish within
``--seconds`` (it always runs at least one).  Every op's output is checked:
its exit code, the digest of its data output against ``pinned.json``, and
for ``spectrum`` ops the per-function totals recounted with numpy from the
generated input.  Any mismatch is a failed op.

Workloads (inputs come from ``inputs.py``, seeded by ``--seed``; the input
variant is ``seed % 8`` and the outputs of every variant are pinned):

* ``crossval-1m``: ``crossval --k 10`` on 1M class tokens over about 200k
  Zipf(1.0) types.  The paper's measurement at full size; per-fold spectrum
  rebuilds dominate.
* ``filter-read``: ``spectrum``, ``figure`` and ``priors --forms-file`` on
  2M lines of which about 85% are dropped by the suffix filter or an
  unmapped tag; the forms file holds 20k frequent, rare and unseen forms.
  Parsing and filtering dominate and cross-validation never runs.
* ``cli-50k``: one round of all six subcommands at 50k tokens over about
  10k types.  Start-up dominates, and ``synth`` exercises the write path.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
ops in process through ``hapaxprior.cli.main`` instead, each once untraced
and once with the spans of ``tracing.py``; it reports per-layer metrics per
round plus the tracing overhead.  Before the last line, a JSON record gives
the environment, the input sizes and properties, every end-to-end metric
with its unit (including ``op_tail_s`` where a run has enough ops, and
``fail_ratio``), and per-op timings.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = BENCH / "pinned.json"

VARIANTS = 8
SETUP_REPEATS = 5
IMPORT_SAMPLES = 3
OP_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
ENTRY = "import sys; from hapaxprior.cli import console_main; sys.argv[0] = 'hapaxprior'; console_main()"

# The end-to-end metrics of the result line, which BENCHMARK.json bounds.
# The record line adds op_p50_s, op_tail_s and fail_ratio, which cannot be
# bounded: on a shared host the median of a run's short ops jumps between
# fast and slow phases by more than the largest allowed bound, op_tail_s
# needs at least 11 ops per run (crossval-1m runs one), and fail_ratio is 0
# when every op is correct.
END_TO_END = {"lines_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "corpus.load_s": "s", "corpus.lines_read": "count", "corpus.tokens_kept": "count",
    "corpus.tokens_dropped": "count", "corpus.save_s": "s", "corpus.bytes_written": "B",
    "corpus.permute_s": "s",
    "spectrum.build_s": "s", "spectrum.build_calls": "count", "spectrum.types_built": "count",
    "spectrum.proportions_s": "s", "spectrum.median_s": "s",
    "crossval.plan_s": "s", "crossval.fold_s": "s", "crossval.folds": "count",
    "crossval.train_tokens": "count", "crossval.unseen_tokens": "count",
    "estimators.backoff_s": "s", "estimators.backoff_calls": "count",
    "estimators.backoff_hapax_share": "ratio",
    "stats.ttest_s": "s", "stats.ttest_calls": "count", "stats.import_s": "s",
    "synth.generate_s": "s", "synth.tokens": "count", "synth.truth_save_s": "s",
    "cli.import_s": "s", "cli.self_s": "s", "cli.bytes_out": "B",
    "trace.overhead_s": "s",
}


@dataclass
class Op:
    """One CLI invocation of a workload round."""

    label: str
    argv: list[str]
    lines: int  # data lines it reads plus corpus lines it writes
    outputs: tuple[str, ...] = ()  # data files it writes; () means stdout
    recount: bool = False


def workload_ops(size: str, workload: str, variant: int) -> list[Op]:
    params = inputs.SIZES[size][workload]
    corpus = ["--corpus", "corpus.tsv", "--class-spec", "class.spec"]
    crossval_args = ["--k", str(inputs.CROSSVAL_K), "--seed", str(inputs.CROSSVAL_SEED)]
    if workload == "crossval-1m":
        return [Op("crossval", ["crossval", *corpus, *crossval_args], params["tokens"])]
    priors = ["priors", *corpus, "--forms-file", "forms.txt", "--threshold", str(inputs.PRIORS_THRESHOLD)]
    if workload == "filter-read":
        n = params["lines"]
        return [
            Op("spectrum", ["spectrum", *corpus], n, recount=True),
            Op("figure", ["figure", *corpus, "--smooth-window", "5"], n),
            Op("priors", priors, n + params["forms"]),
        ]
    n = params["tokens"]
    synth = [
        "synth", "--n-types", str(params["synth_types"]), "--target-tokens", str(params["synth_tokens"]),
        "--zipf-exponent", "1.0", "--p-high", "0.3", "--p-low", "0.6", "--seed", str(variant),
        "--out", "synth.tsv", "--spec-out", "synth.spec",
    ]
    return [
        Op("synth", synth, params["synth_tokens"], outputs=("synth.tsv", "synth.tsv.truth.csv", "synth.spec")),
        Op("spectrum", ["spectrum", *corpus], n, recount=True),
        Op("priors", priors, n + params["forms"]),
        Op("crossval", ["crossval", *corpus, *crossval_args], n),
        Op("report", ["report", *corpus, *crossval_args], n),
        Op("figure", ["figure", *corpus], n),
    ]


def op_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env.update((var, "1") for var in THREAD_VARS)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], cwd: Path, stdout, stderr) -> tuple[int, float, float]:
    """Run a child to exit; return (exit code, wall seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=op_env(), stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        if proc.returncode is None and proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _read_output(path: Path) -> bytes:
    return path.read_bytes()


def output_bytes(op: Op, workdir: Path, stdout: bytes) -> bytes:
    """The op's data output: its stdout, or the data files it writes."""
    if not op.outputs:
        return stdout
    parts = []
    for name in op.outputs:
        path = workdir / name
        parts.append(name.encode() + b"\0" + (_read_output(path) if path.exists() else b"<missing>") + b"\0")
    return b"".join(parts)


def recount_error(data: bytes, expected: inputs.ClassCounts) -> str | None:
    """Compare a spectrum op's totals with the numpy recount of its input."""
    lines = data.decode("utf-8").splitlines()
    header = dict((k, int(v)) for k, v in re.findall(r"(\w+)=(\d+)", lines[1])) if len(lines) > 1 else {}
    rows = {row.split(",")[0]: row.split(",")[1:] for row in lines[3:]}
    got = (
        header.get("types"), header.get("hapax_types"), header.get("dropped"), header.get("tokens"),
        tuple(tuple(int(x) for x in rows.get(f, ("-1", "-1"))) for f in inputs.FUNCTIONS),
    )
    want = (
        expected.types, expected.hapax_types, expected.dropped, sum(expected.tokens),
        tuple(zip(expected.tokens, expected.hapax_tokens)),
    )
    return None if got == want else f"recount mismatch: got {got}, want {want}"


@dataclass
class Checker:
    """Decides whether one op's result is correct."""

    expected_digests: dict[str, str]
    expected_counts: inputs.ClassCounts

    def error(self, op: Op, code: int, data: bytes) -> str | None:
        if code != 0:
            return f"exit code {code}"
        pinned = self.expected_digests.get(op.label)
        if pinned is None:
            return "no pinned digest for this op"
        if hashlib.sha256(data).hexdigest() != pinned:
            return "output digest differs from the pinned digest"
        if op.recount:
            return recount_error(data, self.expected_counts)
        return None


def clear_outputs(op: Op, workdir: Path) -> None:
    for name in op.outputs:
        (workdir / name).unlink(missing_ok=True)


def run_subprocess_op(op: Op, workdir: Path) -> tuple[int, float, float, bytes]:
    clear_outputs(op, workdir)
    stdout_path = workdir / "out" / f"{op.label}.out"
    with open(stdout_path, "wb") as out, open(workdir / "out" / f"{op.label}.err", "wb") as err:
        code, wall, rss = spawn([sys.executable, "-c", ENTRY, *op.argv], workdir, out, err)
    return code, wall, rss, output_bytes(op, workdir, _read_output(stdout_path))


def run_inprocess_op(op: Op, workdir: Path, tracer: tracing.Tracer | None) -> tuple[int, float, bytes]:
    """Run one op through hapaxprior.cli.main in this process (cwd = workdir)."""
    from hapaxprior import cli

    clear_outputs(op, workdir)
    out, err = io.StringIO(), io.StringIO()
    stack = contextlib.ExitStack()
    main = cli.main
    if tracer is not None:
        stack.enter_context(tracer.installed())
        main = tracer.span("cli.main", cli.main, None)
    with stack, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(op.argv)
        except Exception:  # a crashing op is a failed op, not a crashed benchmark
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    stdout = out.getvalue().encode("utf-8")
    if tracer is not None:
        tracer.counters["cli.bytes_out"] += len(stdout)
    return code, wall, output_bytes(op, workdir, stdout)


def closed_loop(seconds: float, run_round) -> tuple[int, float]:
    """Run whole rounds while the next one is expected to end in time."""
    start = time.perf_counter()
    rounds = 0
    while True:
        run_round(rounds)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return rounds, elapsed


def tail(values: list[float]) -> dict | None:
    """Highest nearest-rank percentile with at least 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    idx = n - 11
    return {"value": sorted(values)[idx], "unit": "s", "percentile": 100.0 * (idx + 1) / n, "samples": n}


def import_child(extra: list[str]) -> tuple[float, bytes]:
    """Time a child that only imports hapaxprior.cli; return (wall, stderr)."""
    with open(WORK / "import.err", "wb+") as err:
        code, wall, _ = spawn([sys.executable, *extra, "-c", "import hapaxprior.cli"], ROOT, subprocess.DEVNULL, err)
        err.seek(0)
        text = err.read()
    if code != 0:
        raise RuntimeError(f"importing hapaxprior.cli failed: {text.decode(errors='replace')[-500:]}")
    return wall, text


def scipy_special_import_s() -> float:
    """Cumulative import time of scipy.special under ``-X importtime`` (0 if not imported)."""
    _, text = import_child(["-X", "importtime"])
    for line in text.decode(errors="replace").splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.special":
            return int(parts[1]) / 1e6
    return 0.0


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "thread_env": {v: "1" for v in THREAD_VARS}, "pythonhashseed": "0",
    }


def setup(size: str, workload: str, variant: int, workdir: Path) -> tuple[inputs.Inputs, list[float]]:
    """Write the inputs and warm the bytecode cache, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir / "out").mkdir(parents=True)
        generated = inputs.generate(size, workload, variant, workdir)
        # Flush the inputs now, so that their writeback does not run during the timed ops.
        for path in workdir.iterdir():
            if path.is_file():
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        import_child([])
        times.append(time.perf_counter() - start)
    return generated, times


def measure(ops: list[Op], workdir: Path, checker: Checker, seconds: float) -> tuple[list[dict], int, float]:
    """The untraced closed loop: every op in its own process."""
    records: list[dict] = []

    def run_round(r: int) -> None:
        for op in ops:
            code, wall, rss, data = run_subprocess_op(op, workdir)
            records.append({"op": op.label, "round": r, "wall_s": wall, "rss_mb": rss,
                            "lines": op.lines, "error": checker.error(op, code, data)})

    rounds, elapsed = closed_loop(seconds, run_round)
    return records, rounds, elapsed


def end_to_end(records: list[dict], elapsed: float, setup_times: list[float]) -> dict:
    walls = [r["wall_s"] for r in records]
    failed = sum(r["error"] is not None for r in records)
    lines = sum(r["lines"] for r in records)
    e2e = {
        "op_p50_s": {"value": statistics.median(walls), "unit": "s", "samples": len(walls), "walls_s": walls},
        "lines_per_s": {"value": lines / elapsed, "unit": "1/s", "lines": lines, "wall_s": elapsed},
        "peak_rss_mb": {"value": max(r["rss_mb"] for r in records), "unit": "MB"},
        "fail_ratio": {"value": failed / len(records), "unit": "ratio", "failed": failed, "attempted": len(records)},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s", "samples": setup_times},
    }
    op_tail = tail(walls)
    if op_tail is not None:
        e2e["op_tail_s"] = op_tail
    return e2e


def measure_traced(ops: list[Op], workdir: Path, checker: Checker, seconds: float) -> tuple[list[dict], int, dict, dict]:
    """The traced closed loop: every op in process, once untraced and once traced.

    Returns the op records, the rounds run, the per-layer metrics and a
    summary of the trace.
    """
    sys.path.insert(0, str(SRC))
    import hapaxprior.cli  # noqa: F401  (import cost is measured by cli.import_s)

    tracer = tracing.Tracer()
    records: list[dict] = []
    overheads: list[float] = []

    def run_round(r: int) -> None:
        for op in ops:
            walls = {}
            # Alternate which side runs first, round by round.
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                tracer.op = len(records)
                code, wall, data = run_inprocess_op(op, workdir, tracer if traced else None)
                walls[traced] = wall
                records.append({"op": op.label, "round": r, "traced": traced, "wall_s": wall,
                                "error": checker.error(op, code, data)})
                gc.collect()
            overheads.append(walls[True] - walls[False])

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        rounds, elapsed = closed_loop(seconds, run_round)
    finally:
        os.chdir(cwd)
    spans_file = workdir / "spans.jsonl"
    tracer.write(spans_file)
    layers = tracing.layer_metrics(tracer, rounds)
    layers["cli.import_s"] = statistics.median(import_child([])[0] for _ in range(IMPORT_SAMPLES))
    layers["stats.import_s"] = statistics.median(scipy_special_import_s() for _ in range(IMPORT_SAMPLES))
    layers["trace.overhead_s"] = statistics.median(overheads)
    summary = {"rounds": rounds, "wall_s": elapsed, "overhead_s_per_op": overheads,
               "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT))}
    return records, rounds, layers, summary


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, dict]:
    """Run one benchmark run; return (detail record, result)."""
    variant = seed % VARIANTS
    workdir = WORK / workload
    generated, setup_times = setup(size, workload, variant, workdir)
    ops = workload_ops(size, workload, variant)
    properties = dict(generated.properties)
    if any(op.label == "crossval" for op in ops):
        properties["folds"] = inputs.fold_check(
            generated.type_ids, generated.functions, inputs.CROSSVAL_K, inputs.CROSSVAL_SEED)
        if not properties["folds"]["all_folds_have_both_functions"]:
            print("perfbench: a training fold lacks hapaxes or unseen tokens of a function", file=sys.stderr)
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    checker = Checker(pinned.get(f"{size}/{workload}/{variant}", {}), generated.expected)
    del generated
    gc.collect()

    detail = {
        "workload": workload, "seed": seed, "variant": variant, "size": size, "trace": int(trace),
        "environment": environment(), "inputs": properties,
        "ops": [{"label": op.label, "argv": op.argv, "lines": op.lines} for op in ops],
    }
    if trace:
        records, rounds, layers, detail["trace"] = measure_traced(ops, workdir, checker, seconds)
        detail["setup_s"] = {"value": statistics.median(setup_times), "unit": "s", "samples": setup_times}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        records, rounds, elapsed = measure(ops, workdir, checker, seconds)
        detail["end_to_end"] = e2e = end_to_end(records, elapsed, setup_times)
        metrics = {name: {"value": e2e[name]["value"], "unit": unit} for name, unit in END_TO_END.items()}

    failed = sum(r["error"] is not None for r in records)
    detail["rounds"] = rounds
    walls_by_op: dict[str, list[float]] = {}
    for r in records:
        walls_by_op.setdefault(r["op"], []).append(r["wall_s"])
    detail["by_op"] = {label: {"count": len(w), "p50_s": statistics.median(w)} for label, w in walls_by_op.items()}
    detail["failures"] = [r for r in records if r["error"] is not None][:20]
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "hapaxprior" / "cli.py").is_file():
        print(f"perfbench: no hapaxprior sources under {SRC}", file=sys.stderr)
        return 2
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: spectrum, priors, crossval, figure, synth, report.  All data
goes to --out (default stdout), all diagnostics to stderr.  Exit codes:
0 success, 1 usage error, 2 data error.  Every output starts with a '#'
header echoing the arguments (including the seed) that produced it.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Sequence

from .corpus import (
    ClassSpec,
    CorpusFormatError,
    TaggedCorpus,
    load_class_spec,
    load_corpus,
    save_class_spec,
    save_corpus,
)
from .crossval import CrossValError, CrossValReport, run_crossval
from .estimators import EstimationError, backoff_prior
from .spectrum import build_spectrum, class_proportions, hapaxes, running_median
from .stats import DegenerateTTestError, TTestResult
from .synth import SynthSpec, generate, save_truth


class UsageError(Exception):
    """Bad command line; main() turns this into exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


@contextmanager
def _out_stream(path: str) -> Iterator[IO[str]]:
    """Collect a subcommand's output; write it only once the body succeeded,
    so a failed run never creates or truncates --out."""
    buffer = io.StringIO()
    yield buffer
    if path == "-":
        sys.stdout.write(buffer.getvalue())
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(buffer.getvalue())


def _header(command: str, args: argparse.Namespace, pairs: Sequence[tuple[str, object]]) -> str:
    body = " ".join(f"{k}={v}" for k, v in pairs)
    return f"# hapaxprior {command} {body} seed={args.seed}\n"


def _parse_ratio(spec: ClassSpec, ratio: str | None) -> tuple[str, str]:
    if ratio is None:
        return spec.functions[0], spec.functions[1]
    parts = ratio.split("/")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise UsageError(f"--ratio must look like NUM/DEN, got {ratio!r}")
    for label in parts:
        if label not in spec.functions:
            raise UsageError(f"--ratio label {label!r} is not a function of class {spec.name!r}")
    return parts[0], parts[1]


def _load(args: argparse.Namespace) -> TaggedCorpus:
    spec = load_class_spec(args.class_spec)
    return load_corpus(args.corpus, spec, fold_case=args.fold_case)


# ---------------------------------------------------------------- spectrum

def cmd_spectrum(args: argparse.Namespace) -> int:
    corpus = _load(args)
    table = build_spectrum(corpus)
    hapax_types = hapaxes(table)
    with _out_stream(args.out) as out:
        out.write(_header("spectrum", args, [
            ("corpus", args.corpus), ("class_spec", args.class_spec), ("fold_case", args.fold_case),
        ]))
        out.write(
            f"# types={len(table.types)} tokens={table.n_tokens}"
            f" hapax_types={len(hapax_types)} dropped={corpus.dropped}\n"
        )
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["function", "tokens", "hapax_tokens"])
        for f, label in enumerate(table.spec.functions):
            writer.writerow([label, table.token_totals[f], table.hapax_totals[f]])
    return 0


# ------------------------------------------------------------------ priors

def _gather_forms(args: argparse.Namespace) -> list[str]:
    forms = list(args.form or [])
    if args.forms_file:
        try:
            raw = Path(args.forms_file).read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise CorpusFormatError(f"cannot read forms file {args.forms_file}: {exc}") from exc
        forms.extend(
            line.strip() for line in raw.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        )
    if not forms:
        raise UsageError("priors needs at least one --form or a --forms-file")
    return forms


def cmd_priors(args: argparse.Namespace) -> int:
    if args.threshold < 1:
        raise UsageError(f"--threshold must be >= 1, got {args.threshold}")
    forms = _gather_forms(args)
    corpus = _load(args)
    table = build_spectrum(corpus)
    with _out_stream(args.out) as out:
        out.write(_header("priors", args, [
            ("corpus", args.corpus), ("class_spec", args.class_spec),
            ("fold_case", args.fold_case), ("threshold", args.threshold),
        ]))
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["form", "source", "support", *table.spec.functions])
        for form in forms:
            est = backoff_prior(table, form, args.threshold)
            writer.writerow([form, est.source, est.support, *(f"{p:.6f}" for p in est.probabilities)])
    return 0


# ---------------------------------------------------------------- crossval

def _fold_labels(functions: Sequence[str]) -> list[str]:
    return (
        [f"n_{f}" for f in functions]
        + ["omle"]
        + [f"n1_{f}" for f in functions]
        + ["hmle"]
        + [f"n0_{f}" for f in functions]
        + [f"e_o_{f}" for f in functions]
        + [f"e_h_{f}" for f in functions]
    )


def _fold_cells(report: CrossValReport, run: int, num: int) -> list[str]:
    """One fold's values, formatted; shared by the CSV and text renderers."""
    fr = report.folds[run - 1]
    return (
        [str(c) for c in fr.train_totals]
        + [f"{fr.omle.probabilities[num]:.6f}"]
        + [str(c) for c in fr.hapax_totals]
        + [f"{fr.hmle.probabilities[num]:.6f}"]
        + [str(c) for c in fr.unseen_observed]
        + [str(c) for c in fr.expected_o.rounded]
        + [str(c) for c in fr.expected_h.rounded]
    )


def _ttest_lines(report: CrossValReport) -> list[str]:
    def fmt(name: str, r: TTestResult) -> str:
        return f"# ttest {name} t={r.t:.6g} df={r.df} p={r.p_two_sided:.6g}\n"

    return [fmt("overall", report.ttest_o), fmt("hapax", report.ttest_h)]


def _run_report(args: argparse.Namespace) -> tuple[CrossValReport, int, tuple[str, ...]]:
    if args.k < 2:
        raise UsageError(f"--k must be >= 2, got {args.k}")
    corpus = _load(args)
    ratio = _parse_ratio(corpus.spec, args.ratio)
    report = run_crossval(corpus, args.k, args.seed, ratio)
    return report, corpus.spec.function_index(ratio[0]), corpus.spec.functions


def cmd_crossval(args: argparse.Namespace) -> int:
    report, num, functions = _run_report(args)
    with _out_stream(args.out) as out:
        out.write(_header("crossval", args, [
            ("corpus", args.corpus), ("class_spec", args.class_spec), ("fold_case", args.fold_case),
            ("k", args.k), ("ratio", "/".join(report.ratio)),
        ]))
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["run", *_fold_labels(functions)])
        for run in range(1, report.k + 1):
            writer.writerow([run, *_fold_cells(report, run, num)])
        for line in _ttest_lines(report):
            out.write(line)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    report, num, functions = _run_report(args)
    row_labels = (
        [f"N({f})" for f in functions]
        + ["OMLE"]
        + [f"N1({f})" for f in functions]
        + ["HMLE"]
        + [f"N0({f})" for f in functions]
        + [f"Eo({f})" for f in functions]
        + [f"Eh({f})" for f in functions]
    )
    columns = [_fold_cells(report, run, num) for run in range(1, report.k + 1)]
    label_w = max(len(s) for s in ["Run", *row_labels])
    col_ws = [
        max(len(str(run + 1)), max(len(cell) for cell in col))
        for run, col in enumerate(columns)
    ]
    with _out_stream(args.out) as out:
        out.write(_header("report", args, [
            ("corpus", args.corpus), ("class_spec", args.class_spec), ("fold_case", args.fold_case),
            ("k", args.k), ("ratio", "/".join(report.ratio)),
        ]))
        cells = ["Run".ljust(label_w)] + [str(r + 1).rjust(col_ws[r]) for r in range(report.k)]
        out.write("  ".join(cells) + "\n")
        for i, label in enumerate(row_labels):
            cells = [label.ljust(label_w)] + [columns[r][i].rjust(col_ws[r]) for r in range(report.k)]
            out.write("  ".join(cells) + "\n")
        for line in _ttest_lines(report):
            out.write(line)
    return 0


# ------------------------------------------------------------------ figure

def cmd_figure(args: argparse.Namespace) -> int:
    if args.smooth_window < 3 or args.smooth_window % 2 == 0:
        raise UsageError(f"--smooth-window must be an odd integer >= 3, got {args.smooth_window}")
    corpus = _load(args)
    reference = _parse_ratio(corpus.spec, args.ratio)[0]
    table = build_spectrum(corpus)
    points = class_proportions(table, reference)
    smoothed = running_median([p.proportion for p in points], args.smooth_window)
    with _out_stream(args.out) as out:
        out.write(_header("figure", args, [
            ("corpus", args.corpus), ("class_spec", args.class_spec), ("fold_case", args.fold_case),
            ("reference", reference), ("smooth_window", args.smooth_window),
        ]))
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["frequency", "log_frequency", "n_types", "proportion", "smoothed"])
        for point, s in zip(points, smoothed):
            writer.writerow([
                point.frequency,
                f"{point.log_frequency:.6f}",
                point.n_types,
                f"{point.proportion:.6f}",
                f"{s:.6f}",
            ])
    return 0


# ------------------------------------------------------------------- synth

def cmd_synth(args: argparse.Namespace) -> int:
    if args.out == "-":
        raise UsageError("synth writes a corpus file plus a truth sidecar; --out must be a path")
    labels = tuple(f.strip() for f in args.functions.split(",") if f.strip())
    try:
        spec = SynthSpec(
            n_types=args.n_types,
            zipf_exponent=args.zipf_exponent,
            target_tokens=args.target_tokens,
            p_high=args.p_high,
            p_low=args.p_low,
            seed=args.seed,
            functions=labels,  # type: ignore[arg-type]
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    corpus, truth = generate(spec)
    header = _header("synth", args, [
        ("n_types", spec.n_types), ("zipf_exponent", spec.zipf_exponent),
        ("target_tokens", spec.target_tokens), ("p_high", spec.p_high),
        ("p_low", spec.p_low), ("functions", ",".join(spec.functions)),
    ]).strip("#\n ")
    save_corpus(corpus, args.out, header=header)
    truth_out = args.truth_out or f"{args.out}.truth.csv"
    save_truth(truth, truth_out)
    if args.spec_out:
        save_class_spec(corpus.spec, args.spec_out)
    print(
        f"wrote {len(corpus)} tokens over {spec.n_types} types to {args.out};"
        f" truth sidecar: {truth_out}",
        file=sys.stderr,
    )
    return 0


# -------------------------------------------------------------------- main

def _add_corpus_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="token file, one form<TAB>tag per line")
    p.add_argument("--class-spec", required=True, help="ambiguity-class file")
    p.add_argument("--fold-case", action="store_true", help="lowercase forms before matching")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hapaxprior", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, handler, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--seed", type=int, default=0, help="random seed (echoed in output)")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        return p

    p = add("spectrum", cmd_spectrum, "type/token/hapax summary of a corpus")
    _add_corpus_opts(p)

    p = add("priors", cmd_priors, "backoff prior estimates for given forms")
    _add_corpus_opts(p)
    p.add_argument("--form", action="append", help="form to estimate (repeatable)")
    p.add_argument("--forms-file", help="file with one form per line")
    p.add_argument("--threshold", type=int, default=1,
                   help="minimum token count for the per-form route (default 1)")

    p = add("crossval", cmd_crossval, "k-fold cross-validation of both estimators (CSV)")
    _add_corpus_opts(p)
    p.add_argument("--k", type=int, default=10, help="fold count (default 10)")
    p.add_argument("--ratio", help="ratio orientation NUM/DEN (default: first/second function)")

    p = add("figure", cmd_figure, "per-frequency-class proportions with running-median smoothing")
    _add_corpus_opts(p)
    p.add_argument("--ratio", help="reference function as NUM/DEN (default: first/second)")
    p.add_argument("--smooth-window", type=int, default=5, help="odd window width (default 5)")

    p = add("synth", cmd_synth, "generate a synthetic ambiguous corpus plus truth sidecar")
    p.add_argument("--n-types", type=int, required=True)
    p.add_argument("--zipf-exponent", type=float, default=1.0)
    p.add_argument("--target-tokens", type=int, required=True)
    p.add_argument("--p-high", type=float, default=0.5,
                   help="reference probability at the most frequent rank")
    p.add_argument("--p-low", type=float, default=0.5,
                   help="reference probability at the rarest rank")
    p.add_argument("--functions", default="a,b", help="two labels, comma-separated")
    p.add_argument("--truth-out", help="truth sidecar path (default: <out>.truth.csv)")
    p.add_argument("--spec-out", help="also write the matching ambiguity-class file")

    p = add("report", cmd_report, "cross-validation rendered as a runs-by-rows text table")
    _add_corpus_opts(p)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--ratio", help="ratio orientation NUM/DEN (default: first/second function)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"hapaxprior: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"hapaxprior: {exc}", file=sys.stderr)
        return 1
    except (CorpusFormatError, EstimationError, CrossValError, DegenerateTTestError, OSError) as exc:
        print(f"hapaxprior: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

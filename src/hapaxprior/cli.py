"""Command-line front end.

Subcommands: spectrum, priors, crossval, report, figure, synth.  All data
goes to --out (default stdout), all diagnostics to stderr.  Exit codes:
0 success, 1 usage error, 2 data error.  Every output starts with a '#'
header echoing the arguments (including the seed) that produced it.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import IO, Callable, Sequence

from ._writer import output
from .corpus import (
    ClassSpec,
    CorpusFormatError,
    TaggedCorpus,
    load_class_spec,
    load_corpus,
    read_line_list,
    save_class_spec,
    save_corpus,
)
from .crossval import CrossValError, FoldResult, _load_fold_counts, check_fold_args, crossval_report
from .estimators import BACKOFF_SOURCES, EstimationError, backoff_priors
from .spectrum import build_spectrum, class_proportions, running_median
from .stats import DegenerateTTestError
from .synth import SynthSpec, generate, save_truth


class UsageError(Exception):
    """Bad command line; main() turns this into exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


def _one_line(text: str) -> str:
    """text, or its repr() when it holds a line break, so that it prints as one line."""
    return text if "".join(text.splitlines()) == text else repr(text)


def _header(args: argparse.Namespace, pairs: Sequence[tuple[str, object]] = ()) -> str:
    """The '#' line echoing a command's arguments; a command that reads a
    corpus names its input first."""
    if "corpus" in vars(args):
        pairs = [(key, getattr(args, key)) for key in ("corpus", "class_spec", "fold_case")] + list(pairs)
    body = " ".join(f"{k}={_one_line(str(v))}" for k, v in pairs)
    return f"# hapaxprior {args.command} {body} seed={args.seed}\n"


def _parse_ratio(spec: ClassSpec, ratio: str | None) -> tuple[str, str]:
    if ratio is None:
        return spec.functions[0], spec.functions[1]
    parts = ratio.split("/")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise UsageError(f"--ratio must look like NUM/DEN, got {ratio!r}")
    if parts[0] == parts[1]:
        raise UsageError(f"--ratio needs two different labels, got {ratio!r}")
    for label in parts:
        if label not in spec.functions:
            raise UsageError(f"--ratio label {label!r} is not a function of class {spec.name!r}")
    return parts[0], parts[1]


def _cache_dir() -> str | None:
    """Where coded corpora, fold orders and fold counts are cached: $HAPAXPRIOR_CACHE_DIR
    when it is set (empty: nowhere), else $XDG_CACHE_HOME/hapaxprior, else
    ~/.cache/hapaxprior; nowhere when there is no home directory."""
    directory = os.environ.get("HAPAXPRIOR_CACHE_DIR")
    if directory is not None:
        return directory or None
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, or relative, which the XDG spec says to ignore
        home = os.path.expanduser("~")
        if not os.path.isabs(home):
            return None
        base = os.path.join(home, ".cache")
    return os.path.join(base, "hapaxprior")


def _load(args: argparse.Namespace) -> TaggedCorpus:
    spec = load_class_spec(args.class_spec)
    return load_corpus(args.corpus, spec, fold_case=args.fold_case, cache_dir=_cache_dir())


# ---------------------------------------------------------------- spectrum

def cmd_spectrum(args: argparse.Namespace) -> int:
    corpus = _load(args)
    table = build_spectrum(corpus)
    with output(args.out) as out:
        out.write(_header(args))
        out.write(
            f"# types={(table.type_totals > 0).sum()} tokens={table.n_tokens}"
            f" hapax_types={(table.type_totals == 1).sum()} dropped={corpus.dropped}\n"
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
        forms.extend(line for _, line in read_line_list(args.forms_file, "forms file"))
    if not forms:
        raise UsageError("priors needs at least one --form or a --forms-file")
    return forms


def cmd_priors(args: argparse.Namespace) -> int:
    if args.threshold < 1:
        raise UsageError(f"--threshold must be >= 1, got {args.threshold}")
    forms = _gather_forms(args)
    corpus = _load(args)
    table = build_spectrum(corpus)
    queries = list(map(str.lower, forms)) if args.fold_case else forms
    hapax, support, probabilities = backoff_priors(table, queries, args.threshold)
    # one column at a time: no per-row Python code runs before the csv writer
    sources = map(BACKOFF_SOURCES.__getitem__, hapax.tolist())
    columns = [map("{:.6f}".format, column) for column in probabilities.T.tolist()]
    with output(args.out) as out:
        out.write(_header(args, [("threshold", args.threshold)]))
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["form", "source", "support", *table.spec.functions])
        writer.writerows(zip(forms, sources, support.tolist(), *columns))
    return 0


# ------------------------------------------------------- crossval, report

# The seven row groups of a run: CSV label, text-table label (a label with
# "{}" is one row per function) and the run's values in those rows.
_ROW_GROUPS: tuple[tuple[str, str, Callable[[FoldResult, int], Sequence[object]]], ...] = (
    ("n_{}", "N({})", lambda fr, num: fr.train_totals),
    ("omle", "OMLE", lambda fr, num: [f"{fr.omle.probabilities[num]:.6f}"]),
    ("n1_{}", "N1({})", lambda fr, num: fr.hapax_totals),
    ("hmle", "HMLE", lambda fr, num: [f"{fr.hmle.probabilities[num]:.6f}"]),
    ("n0_{}", "N0({})", lambda fr, num: fr.unseen_observed),
    ("e_o_{}", "Eo({})", lambda fr, num: fr.expected_o.rounded),
    ("e_h_{}", "Eh({})", lambda fr, num: fr.expected_h.rounded),
)


def _row_labels(functions: Sequence[str], table: bool) -> list[str]:
    labels: list[str] = []
    for group in _ROW_GROUPS:
        label = group[1 if table else 0]
        labels += [label.format(f) for f in functions] if "{}" in label else [label]
    return labels


def _fold_cells(fr: FoldResult, num: int) -> list[str]:
    """One fold's values, formatted, in the row order of _ROW_GROUPS."""
    return [str(value) for _, _, values in _ROW_GROUPS for value in values(fr, num)]


def _render_csv(out: IO[str], functions: Sequence[str], runs: list[list[str]]) -> None:
    """One CSV row per run."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["run", *_row_labels(functions, table=False)])
    for run, cells in enumerate(runs, start=1):
        writer.writerow([run, *cells])


def _render_table(out: IO[str], functions: Sequence[str], runs: list[list[str]]) -> None:
    """One right-aligned column per run, one labelled line per row."""
    labels = _row_labels(functions, table=True)
    rows = [["Run", *(str(run) for run in range(1, len(runs) + 1))]]
    rows += [[label, *(cells[i] for cells in runs)] for i, label in enumerate(labels)]
    label_w = max(len(row[0]) for row in rows)
    col_ws = [max(len(row[c]) for row in rows) for c in range(1, len(runs) + 1)]
    for row in rows:
        cells = [row[0].ljust(label_w)] + [cell.rjust(w) for cell, w in zip(row[1:], col_ws)]
        out.write("  ".join(cells) + "\n")


def cmd_crossval(args: argparse.Namespace) -> int:
    """Serves both `crossval` (CSV) and `report` (text table): one
    computation, two renderers."""
    try:
        check_fold_args(args.k, args.seed)
    except ValueError as exc:
        raise UsageError(f"--{exc}") from None
    spec = load_class_spec(args.class_spec)
    # the counts of an earlier run on the same bytes, or counted after a load:
    # a bad corpus is reported before a bad --ratio, and that before a k the
    # corpus cannot be split into
    counts = _load_fold_counts(args.corpus, spec, args.fold_case, args.k, args.seed, _cache_dir(),
                               loaded=lambda: _parse_ratio(spec, args.ratio))
    ratio = _parse_ratio(spec, args.ratio)
    report = crossval_report(spec, args.seed, counts, ratio)
    num = spec.function_index(ratio[0])
    runs = [_fold_cells(fr, num) for fr in report.folds]
    render = _render_csv if args.command == "crossval" else _render_table
    with output(args.out) as out:
        out.write(_header(args, [("k", args.k), ("ratio", "/".join(report.ratio))]))
        render(out, spec.functions, runs)
        for name, r in (("overall", report.ttest_o), ("hapax", report.ttest_h)):
            out.write(f"# ttest {name} t={r.t:.6g} df={r.df} p={r.p_two_sided:.6g}\n")
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
    with output(args.out) as out:
        out.write(_header(args, [("reference", reference), ("smooth_window", args.smooth_window)]))
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
    if args.out == "-" or os.path.basename(args.out) in ("", ".", ".."):
        # no file: the truth sidecar, <out>.truth.csv, would be written before the corpus write fails
        raise UsageError(f"synth writes a corpus file plus a truth sidecar; --out must name a file, got {args.out!r}")
    truth_out = args.truth_out or f"{args.out}.truth.csv"
    seen: dict[Path, str] = {}
    for option, path in (("--out", args.out), ("--truth-out", truth_out), ("--spec-out", args.spec_out)):
        if path:
            other = seen.setdefault(Path(path).resolve(), option)
            if other != option:
                raise UsageError(f"{other} and {option} name the same file {path!r}")
    labels = tuple(f.strip() for f in args.functions.split(",") if f.strip())
    # every SynthSpec field, in field order; the options carry the same names
    params = {f.name: getattr(args, f.name) for f in fields(SynthSpec)} | {"functions": labels}
    try:
        spec = SynthSpec(**params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    corpus, truth = generate(spec)
    header = _header(args, [
        (name, ",".join(value) if name == "functions" else value)
        for name, value in params.items() if name != "seed"
    ]).strip("#\n ")
    # --out last, so a failed sidecar write leaves no --out behind
    save_truth(truth, truth_out)
    if args.spec_out:
        save_class_spec(corpus.spec, args.spec_out)
    save_corpus(corpus, args.out, header=header)
    print(
        f"wrote {len(corpus)} tokens over {spec.n_types} types to {args.out};"
        f" truth sidecar: {truth_out}",
        file=sys.stderr,
    )
    return 0


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hapaxprior", description=__doc__.splitlines()[0],
                     epilog="Cache of coded corpora, fold orders and fold counts: $HAPAXPRIOR_CACHE_DIR"
                            " (default $XDG_CACHE_HOME/hapaxprior, else ~/.cache/hapaxprior; empty: off)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, handler, help_: str, corpus: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--seed", type=int, default=0, help="random seed (echoed in output)")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        if corpus:
            p.add_argument("--corpus", required=True, help="token file, one form<TAB>tag per line")
            p.add_argument("--class-spec", required=True, help="ambiguity-class file")
            p.add_argument("--fold-case", action="store_true", help="lowercase forms and queries before matching")
        return p

    add("spectrum", cmd_spectrum, "type/token/hapax summary of a corpus")

    p = add("priors", cmd_priors, "backoff prior estimates for given forms")
    p.add_argument("--form", action="append", help="form to estimate (repeatable)")
    p.add_argument("--forms-file", help="file with one form per line")
    p.add_argument("--threshold", type=int, default=1,
                   help="minimum token count for the per-form route (default 1)")

    for name, help_ in (
        ("crossval", "k-fold cross-validation of both estimators (CSV)"),
        ("report", "cross-validation rendered as a runs-by-rows text table"),
    ):
        p = add(name, cmd_crossval, help_)
        p.add_argument("--k", type=int, default=10, help="fold count (default 10)")
        p.add_argument("--ratio", help="ratio orientation NUM/DEN (default: first/second function)")

    p = add("figure", cmd_figure, "per-frequency-class proportions with running-median smoothing")
    p.add_argument("--ratio", help="reference function as NUM/DEN (default: first/second)")
    p.add_argument("--smooth-window", type=int, default=5, help="odd window width (default 5)")

    p = add("synth", cmd_synth, "generate a synthetic ambiguous corpus plus truth sidecar", corpus=False)
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

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"hapaxprior: {exc}", file=sys.stderr)
        return 1
    except (CorpusFormatError, EstimationError, CrossValError, DegenerateTTestError, OSError, MemoryError) as exc:
        print(f"hapaxprior: {_one_line(str(exc) or type(exc).__name__)}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

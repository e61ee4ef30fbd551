"""Generated corpora and command lines through the command line: every run
ends in exit 0, or in exit 1 or 2 with one diagnosis and no file changed.
A corpus gives the same result with the corpus cache off, cold and warm,
and what spectrum counts is what the loader oracle counts."""

import io
import os
import shutil
import tempfile
from pathlib import Path
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from hapaxprior import ClassSpec
from hapaxprior.cli import main

import oracles

SPEC = ClassSpec("dutch-en", ("inf", "pl"), "en", {"V(inf)": "inf", "V(pl)": "pl"})
SPEC_TEXT = "name=dutch-en\nsuffix=en\nfunctions=inf,pl\nmap V(inf) inf\nmap V(pl) pl\n"
# with and without the suffix, padded, cased, non-ASCII, and one that makes a comment line
FORMS = ["lopen", "werken", "Lopen", "huis", " eten ", "#en", "lopéen"]
TAGS = ["V(inf)", "V(pl)", " V(pl) ", "N", ""]  # mapped, padded, unmapped, empty
ENDS = ["\n", "\r\n", "\r", "\x85", "\x1c"]
TRUNCATED = ["é".encode()[:1], "€".encode()[:2]]


@st.composite
def lines(draw) -> str:
    """A comment or blank line, or a data line: rarely one with an empty
    form, or with 0, 2 or 3 tabs, so that most corpora load."""
    kind = draw(st.integers(0, 39))
    if kind < 4:
        return draw(st.sampled_from(["# note", "", "   ", "\t"]))
    form = "" if kind == 4 else draw(st.sampled_from(FORMS))
    n_tags = draw(st.sampled_from([0, 2, 3])) if kind == 5 else 1
    return "\t".join([form, *draw(st.lists(st.sampled_from(TAGS), min_size=n_tags, max_size=n_tags))])


@st.composite
def corpora(draw) -> bytes:
    text = "".join(line + end for line, end in draw(st.lists(st.tuples(lines(), st.sampled_from(ENDS)), max_size=12)))
    if text and draw(st.booleans()):
        text = text[:-1]  # the last line unended, or a "\r\n" cut to "\r"
    data = ("\ufeff" * draw(st.booleans()) + text).encode()
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(TRUNCATED)) + data[at:]
    return data


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def spectrum_lines(want: dict) -> list[str]:
    """The lines after the header that spectrum prints for oracles.load_lines' result."""
    per_type = Counter(want["form_ids"])
    lines = [f"# types={len(per_type)} tokens={len(want['form_ids'])}"
             f" hapax_types={sum(c == 1 for c in per_type.values())} dropped={want['dropped']}",
             "function,tokens,hapax_tokens"]
    for f, label in enumerate(SPEC.functions):
        tokens = [form for form, function in zip(want["form_ids"], want["functions"]) if function == f]
        lines.append(f"{label},{len(tokens)},{sum(per_type[form] == 1 for form in tokens)}")
    return lines


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "class.spec").write_text(SPEC_TEXT, encoding="utf-8")
    return path


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=corpora(), fold_case=st.booleans())
def test_a_generated_corpus_gives_one_result_with_the_cache_off_cold_and_warm(workdir, data, fold_case):
    corpus, cache = workdir / "corpus.tsv", workdir / "cache"
    corpus.write_bytes(data)
    argv = ["--corpus", str(corpus), "--class-spec", str(workdir / "class.spec"), *["--fold-case"] * fold_case]
    try:
        want = oracles.load_lines(data.decode("utf-8"), SPEC, fold_case)
    except UnicodeDecodeError:
        want = None
    for command in (["spectrum"], ["crossval", "--k", "2"]):
        results = []
        shutil.rmtree(cache, ignore_errors=True)
        for cache_dir in ("", cache, cache):  # off, cold, warm
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("HAPAXPRIOR_CACHE_DIR", str(cache_dir))
                code, out, err = run([*command, *argv])
            assert code in (0, 2), (command, err)
            assert "Traceback" not in err
            if code:
                assert err.startswith("hapaxprior: ") and err.count("\n") == 1 and err.endswith("\n"), err
            results.append((code, out.encode("utf-8", "surrogateescape")))
        assert results[0] == results[1] == results[2], command
        code, out = results[0]
        if want is None or "error" in want:
            assert code == 2, command
        elif command == ["spectrum"]:
            assert code == 0 and out.decode().splitlines()[1:] == spectrum_lines(want), data
    if want and "error" in want:
        assert err == f"hapaxprior: {corpus}:{want['line']}: {want['error']}\n"


# a corpus that every subcommand can cross-validate: two frequent types and
# a hapax tail whose functions alternate
ARGV_CORPUS = "".join(f"{form}\t{'V(inf)' if i % 2 else 'V(pl)'}\n"
                      for i, form in enumerate(["lopen", "werken"] * 15 + [f"rare{i}en" for i in range(90)]))
ODD = "\udcff"  # how Python holds the argument byte 0xff
# each option's values: (valid ones, refused ones drawn now and then)
CORPORA = (["corpus.tsv", f"c{ODD}.tsv"], ["absent.tsv", "class.spec"])
SPECS = (["class.spec", f"s{ODD}.spec"], ["absent.spec", "corpus.tsv"])
FORMS_FILES = (["forms.txt", f"f{ODD}.txt"], ["absent.txt"])
FORM_VALUES = ["lopen", "rare3en", "Lopen", f"lop{ODD}en", "", "neverseen"]
RATIOS = (["inf/pl", "pl/inf"], ["inf/inf", "inf", "x/pl", f"inf/p{ODD}"])
# missing, existing, in a missing directory, empty, a trailing "/", ".." after a
# symlink (link leads to a/b), and a name holding a non-UTF-8 byte; FIFOs are
# tested on their own, since opening one without a reader blocks
OUTS = ["fresh.csv", "existing.csv", "nodir/out.csv", "", "fresh.csv/", "existing.csv/",
        "link/..", "link/../out.csv", f"o{ODD}.csv"]
SIDECARS = (["t.csv", "", f"t{ODD}.csv"], ["existing.csv", "nodir/t.csv"])


@st.composite
def command_lines(draw) -> tuple[list[str], str | None, bool]:
    """argv without --out, over every subcommand and flag, the --out value,
    if any, and whether to give it as an absolute path."""
    command = draw(st.sampled_from(["spectrum", "priors", "crossval", "report", "figure", "synth"]))
    argv = [command]

    def option(flag, values, required=False):
        good, bad = values
        if draw(st.integers(0, 9)) < (9 if required else 5):
            argv.extend([flag, draw(st.sampled_from(bad if bad and draw(st.integers(0, 9)) == 9 else good))])

    if command == "synth":
        option("--n-types", (["5", "30"], ["0"]), required=True)
        option("--target-tokens", (["60", "200"], ["3"]), required=True)
        option("--zipf-exponent", (["1.0", "1.3"], ["-1"]))
        option("--p-high", (["0.5", "0.9"], ["1.5"]))
        option("--p-low", (["0.5", "0.2"], ["x"]))
        option("--functions", (["a,b", "inf,pl"], [f"a{ODD},b", "a"]))
        option("--truth-out", SIDECARS)
        option("--spec-out", SIDECARS)
    else:
        option("--corpus", CORPORA, required=True)
        option("--class-spec", SPECS, required=True)
        argv += ["--fold-case"] * draw(st.booleans())
    if command == "priors":
        for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
            argv += ["--form", draw(st.sampled_from(FORM_VALUES))]
        option("--forms-file", FORMS_FILES)
        option("--threshold", (["1", "3"], ["0", "x"]))
    if command in ("crossval", "report"):
        option("--k", (["2", "3", "5"], ["1", "500", "x"]))
        option("--ratio", RATIOS)
    if command == "figure":
        option("--ratio", RATIOS)
        option("--smooth-window", (["3", "5"], ["4", "1"]))
    option("--seed", (["0", "1", "7"], ["-5", "x"]))
    argv += ["--bogus"] * (draw(st.integers(0, 19)) == 19)
    out = draw(st.sampled_from(OUTS)) if draw(st.integers(0, 3)) < 3 else None
    return argv, out, draw(st.booleans())


def snapshot(root) -> dict[str, object]:
    """Every path under root with what it holds: a file's bytes, a link's
    target, or None for a directory."""
    tree = {}
    for directory, names, files in os.walk(root):
        for name in names + files:
            path = os.path.join(directory, name)
            tree[os.path.relpath(path, root)] = (os.readlink(path) if os.path.islink(path) else
                                                 None if os.path.isdir(path) else Path(path).read_bytes())
    return tree


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=command_lines(), cache=st.booleans())
def test_a_generated_command_line_ends_in_one_result_and_a_failure_changes_no_file(workdir, case, cache):
    argv, out, absolute = case
    root = tempfile.mkdtemp(dir=workdir)  # the --out directory's parent
    work = os.path.join(root, "work")
    os.makedirs(os.path.join(work, "a", "b"))
    os.symlink(os.path.join("a", "b"), os.path.join(work, "link"))
    for name, text in (("corpus.tsv", ARGV_CORPUS), (f"c{ODD}.tsv", ARGV_CORPUS), ("class.spec", SPEC_TEXT),
                       (f"s{ODD}.spec", SPEC_TEXT), ("forms.txt", "lopen\nrare5en\nnieuwen\n"),
                       (f"f{ODD}.txt", "werken\n"), ("existing.csv", "earlier output\n")):
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    if out is not None and absolute:
        out = f"{work}/{out}"
    before = snapshot(root)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        mp.setenv("HAPAXPRIOR_CACHE_DIR", str(workdir / "cache") if cache else "")
        code, stdout, err = run(argv + ([] if out is None else ["--out", out]))
        assert code in (0, 1, 2), (argv, out, err)
        assert "Traceback" not in err
        after = snapshot(root)
        assert not [path for path in after if path.endswith(".tmp")], (argv, out)
        if code:
            # one diagnosis, naming the file asked for, never a temporary one;
            # argparse follows its line with the usage
            assert err.startswith("hapaxprior: ") and err.count("hapaxprior: ") == 1, err
            assert code == 1 or err.count("\n") == 1, err
            assert stdout == "" and ".tmp" not in err, err
            changed = {path for path in before.keys() | after.keys() if before.get(path) != after.get(path)}
            if argv[0] == "synth" and code == 2:
                # synth writes the truth sidecar, then --spec-out, then --out, each whole, and a
                # failure stops there (see the README): only the sidecars may be new
                synth_args = dict(zip(argv[1::2], argv[2::2]))
                sidecars = {synth_args.get("--truth-out") or f"{out}.truth.csv", synth_args.get("--spec-out")}
                changed -= {os.path.relpath(os.path.realpath(p), root) for p in sidecars if p}
            assert not changed, (argv, out, err, changed)
        elif out is not None and argv[0] != "synth":
            assert stdout == ""
            with open(out, "rb") as fh:
                written = fh.read()
            code, stdout, _ = run(argv)
            assert code == 0 and written == stdout.encode("utf-8", "surrogateescape"), (argv, out)
    shutil.rmtree(root)

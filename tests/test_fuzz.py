"""Generated corpora through the command line: every run ends in exit 0 or
one line and exit 2, the same with the corpus cache off, cold and warm,
and what spectrum counts is what the loader oracle counts."""

import io
import shutil
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

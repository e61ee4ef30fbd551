"""Class-spec and corpus file handling."""

import ast
import codecs
import errno
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
import unicodedata
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hapaxprior import (
    ClassSpec,
    CorpusFormatError,
    TaggedCorpus,
    TokenRecord,
    load_class_spec,
    load_corpus,
    save_class_spec,
    save_corpus,
)
from hapaxprior import _cache, _lines, cli, corpus as corpus_module, crossval as crossval_module
from hapaxprior.crossval import CrossValError, FoldPlan, run_crossval
from hapaxprior.spectrum import SpectrumTable, TypeCount

import oracles
from conftest import corpus_of


SPEC_TEXT = """\
# Dutch -en: infinitive vs finite plural
name=dutch-en
suffix=en
functions=inf,pl

map V(inf) inf
map V(pl) pl
map V(pl,past) pl
"""

CORPUS_TEXT = """\
# toy corpus
lopen\tV(inf)
lopen\tV(pl)
werken\tV(inf)

fluiten\tV(pl,past)
huis\tN(sg)
kijken\tX
lopen\tV(inf)
"""


class TestClassSpec:
    def test_loads_fields_and_tag_map(self, tmp_path):
        path = tmp_path / "class.spec"
        path.write_text(SPEC_TEXT)
        spec = load_class_spec(path)
        assert spec.name == "dutch-en"
        assert spec.suffix == "en"
        assert spec.functions == ("inf", "pl")
        assert spec.tag_map == {"V(inf)": "inf", "V(pl)": "pl", "V(pl,past)": "pl"}
        assert spec.n_functions == 2
        assert spec.function_index("pl") == 1

    def test_function_index_rejects_unknown_label(self, en_spec):
        with pytest.raises(KeyError):
            en_spec.function_index("nope")

    def test_requires_two_distinct_functions(self):
        with pytest.raises(ValueError):
            ClassSpec(name="x", functions=("a",), suffix="", tag_map={"A": "a"})
        with pytest.raises(ValueError):
            ClassSpec(name="x", functions=("a", "a"), suffix="", tag_map={"A": "a"})

    def test_rejects_unmapped_function(self):
        with pytest.raises(ValueError):
            ClassSpec(name="x", functions=("a", "b"), suffix="", tag_map={"A": "a"})

    def test_rejects_tag_mapping_to_unknown_label(self):
        with pytest.raises(ValueError):
            ClassSpec(
                name="x", functions=("a", "b"), suffix="",
                tag_map={"A": "a", "B": "b", "C": "c"},
            )

    def test_malformed_file_reports_line(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("name=x\nsuffix=\nfunctions=a,b\nmap A a\nbogus line\n")
        with pytest.raises(CorpusFormatError, match=r"bad\.spec:5"):
            load_class_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            load_class_spec(tmp_path / "absent.spec")

    def test_roundtrip(self, tmp_path, en_spec):
        path = tmp_path / "out.spec"
        save_class_spec(en_spec, path)
        assert load_class_spec(path) == en_spec

    @pytest.mark.parametrize("field, value, spec", [
        ("tag", "A B", ClassSpec("x", ("a", "b"), "", {"A B": "a", "B": "b"})),
        ("tag", " A", ClassSpec("x", ("a", "b"), "", {" A": "a", "B": "b"})),
        ("function label", "a b", ClassSpec("x", ("a b", "b"), "", {"A": "a b", "B": "b"})),
        ("function label", "a,c", ClassSpec("x", ("a,c", "b"), "", {"A": "a,c", "B": "b"})),
        ("class name", "x\ny", ClassSpec("x\ny", ("a", "b"), "", {"A": "a", "B": "b"})),
        ("class suffix", "en ", ClassSpec("x", ("a", "b"), "en ", {"A": "a", "B": "b"})),
        # a lone surrogate is written as the byte it stands for, which a reload cannot decode
        ("tag", "A\udcff", ClassSpec("x", ("a", "b"), "", {"A\udcff": "a", "B": "b"})),
        ("function label", "a\udcff", ClassSpec("x", ("a\udcff", "b"), "", {"A": "a\udcff", "B": "b"})),
        ("class name", "x\udcff", ClassSpec("x\udcff", ("a", "b"), "", {"A": "a", "B": "b"})),
        ("class suffix", "en\ud800", ClassSpec("x", ("a", "b"), "en\ud800", {"A": "a", "B": "b"})),
    ])
    def test_save_refuses_a_field_it_cannot_write(self, tmp_path, field, value, spec):
        out = tmp_path / "out.spec"
        with pytest.raises(ValueError, match=re.escape(f"{field} {value!r}")):
            save_class_spec(spec, out)
        assert not out.exists()


class TestLoadCorpus:
    @pytest.fixture
    def spec(self, tmp_path):
        path = tmp_path / "class.spec"
        path.write_text(SPEC_TEXT)
        return load_class_spec(path)

    def test_keeps_matching_tokens_in_order(self, tmp_path, spec):
        path = tmp_path / "corpus.tsv"
        path.write_text(CORPUS_TEXT)
        corpus = load_corpus(path, spec)
        assert [(t.form, t.function) for t in corpus.tokens] == [
            ("lopen", 0),
            ("lopen", 1),
            ("werken", 0),
            ("fluiten", 1),
            ("lopen", 0),
        ]
        # huis fails the suffix filter, kijken has an unmapped tag
        assert corpus.dropped == 2

    def test_counts_suffix_mismatch_with_mapped_tag_as_dropped(self, tmp_path, spec):
        path = tmp_path / "corpus.tsv"
        path.write_text("loopt\tV(inf)\n")
        corpus = load_corpus(path, spec)
        assert len(corpus) == 0
        assert corpus.dropped == 1

    def test_wrong_field_count_reports_line(self, tmp_path, spec):
        path = tmp_path / "corpus.tsv"
        path.write_text("lopen\tV(inf)\nno tab here\n")
        with pytest.raises(CorpusFormatError, match=r"corpus\.tsv:2"):
            load_corpus(path, spec)

    def test_fold_case_lowercases_before_filtering(self, tmp_path, spec):
        path = tmp_path / "corpus.tsv"
        path.write_text("Lopen\tV(inf)\nLOPEN\tV(pl)\n")
        unfolded = load_corpus(path, spec)
        assert [(t.form, t.function) for t in unfolded.tokens] == [("Lopen", 0)]
        assert unfolded.dropped == 1  # "LOPEN" fails suffix=en
        folded = load_corpus(path, spec, fold_case=True)
        assert [(t.form, t.function) for t in folded.tokens] == [("lopen", 0), ("lopen", 1)]

    def test_empty_result_is_not_an_error(self, tmp_path, spec):
        path = tmp_path / "corpus.tsv"
        path.write_text("# only comments\n\n")
        corpus = load_corpus(path, spec)
        assert len(corpus) == 0 and corpus.dropped == 0

    def test_save_then_load_reproduces_tokens(self, tmp_path, spec):
        src = tmp_path / "corpus.tsv"
        src.write_text(CORPUS_TEXT)
        corpus = load_corpus(src, spec)
        out = tmp_path / "copy.tsv"
        save_corpus(corpus, out)
        again = load_corpus(out, spec)
        assert again.tokens == corpus.tokens

    @pytest.mark.parametrize("form", [
        " x", "x ", "#x", "x\ty", "x\u2028y", "x\x0by", "x\r\ny", "x\n", "x\x85", "\ufeffx", "x\udcff", "x\ud800",
    ])
    def test_save_refuses_a_form_it_cannot_write(self, tmp_path, ab_spec, form):
        corpus = TaggedCorpus.from_columns(ab_spec, ("a", form), [0, 1], [0, 1])
        out = tmp_path / "out.tsv"
        with pytest.raises(ValueError, match=re.escape(repr(form))):
            save_corpus(corpus, out)
        assert not out.exists()

    @pytest.mark.parametrize("tag", [" A", "A ", "A\tB", "A\nB", "A\u2028B", "A\udcff"])
    def test_save_refuses_a_tag_it_cannot_write(self, tmp_path, tag):
        spec = ClassSpec(name="x", functions=("a", "b"), suffix="", tag_map={tag: "a", "B": "b"})
        corpus = TaggedCorpus.from_columns(spec, ("x", "y"), [0, 1], [0, 1])
        out = tmp_path / "out.tsv"
        with pytest.raises(ValueError, match=re.escape(f"tag {tag!r}")):
            save_corpus(corpus, out)
        assert not out.exists()

    @pytest.mark.parametrize("header", ["made from s\udcff.tsv", "made\nfrom\tA", "made\x85from"])
    def test_save_refuses_a_header_it_cannot_write(self, tmp_path, ab_spec, header):
        corpus = TaggedCorpus.from_columns(ab_spec, ("x",), [0], [0])
        out = tmp_path / "out.tsv"
        with pytest.raises(ValueError, match=re.escape(f"header {header!r}")):
            save_corpus(corpus, out, header=header)
        assert not out.exists()

    def test_save_then_load_keeps_unusual_tags(self, tmp_path):
        spec = ClassSpec(name="x", functions=("a", "b", "c"), suffix="", tag_map={"A B": "a", "#B": "b", "": "c"})
        corpus = TaggedCorpus.from_columns(spec, ("x", "y"), [0, 1, 0], [0, 1, 2])
        out = tmp_path / "out.tsv"
        save_corpus(corpus, out)
        assert load_corpus(out, spec) == corpus

    def test_save_then_load_keeps_unusual_forms(self, tmp_path, ab_spec):
        forms = ("x y", "x#", "\u00e9", "x\x00y", "x\u00a0y", "\u200bx")
        corpus = TaggedCorpus.from_columns(ab_spec, forms, range(6), [0, 1] * 3)
        out = tmp_path / "out.tsv"
        save_corpus(corpus, out)
        assert load_corpus(out, ab_spec) == corpus


class TestRecords:
    def test_token_record_validates(self):
        with pytest.raises(ValueError):
            TokenRecord(form="  ", function=0)
        with pytest.raises(ValueError):
            TokenRecord(form="x", function=-1)

    def test_corpus_rejects_out_of_range_function(self, ab_spec):
        with pytest.raises(ValueError):
            TaggedCorpus(spec=ab_spec, tokens=(TokenRecord("x", 2),))

    def test_corpus_rejects_suffix_violation(self, en_spec):
        with pytest.raises(ValueError):
            TaggedCorpus(spec=en_spec, tokens=(TokenRecord("huis", 0),))


class TestColumns:
    def test_load_interns_forms_in_first_occurrence_order(self, tmp_path, en_spec):
        path = tmp_path / "corpus.tsv"
        path.write_text("werken\tV(inf)\nlopen\tV(pl)\nhuis\tN\nwerken\tV(pl)\nlopen\tV(inf)\n")
        corpus = load_corpus(path, en_spec)
        assert corpus.forms == ("werken", "lopen")
        assert (corpus.cells // 2).tolist() == [0, 1, 0, 1]
        assert (corpus.cells % 2).tolist() == [0, 1, 1, 0]
        assert corpus.dropped == 1 and len(corpus) == 4
        assert corpus.tokens == corpus_of(en_spec, [("werken", 0), ("lopen", 1), ("werken", 1), ("lopen", 0)]).tokens

    def test_first_bad_line_is_reported(self, tmp_path, en_spec):
        path = tmp_path / "corpus.tsv"
        path.write_text("lopen\tV(inf)\nlopen\tV(inf)\n\tV(pl)\nbad\nbad\n")
        with pytest.raises(CorpusFormatError, match=r"corpus\.tsv:3: empty form"):
            load_corpus(path, en_spec)
        path.write_text("lopen\tV(inf)\nbad\nlopen\tV(pl)\nbad\n")
        with pytest.raises(CorpusFormatError, match=r"corpus\.tsv:2: expected"):
            load_corpus(path, en_spec)

    # one-line pieces of a random corpus file; the bad ones are drawn rarely
    GOOD_LINES = [
        "lopen\tV(inf)", "lopen\tV(pl)", "Lopen\tV(inf)", "LOPEN\tV(pl)", "werken\tV(pl)",
        " werken \t V(inf) ", "\u00a0eten\tV(pl)\u00a0", "huis\tV(inf)", "lopen\tX", "eten\tV(pl) x",
        "", "   ", "\u00a0", "# comment", "  # indented\tcomment", "#lopen\tV(inf)",
    ]
    BAD_LINES = ["\tV(inf)", "  \tV(pl)", "no tab here", "a\tb\tc", "lopen\tV(inf)\t"]
    BREAKS = ["\n", "\r\n", "\r", "\v", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    def random_corpus_text(self, rng):
        lines = [rng.choice(self.GOOD_LINES) for _ in range(rng.randint(0, 30))]
        for _ in range(rng.choice([0, 0, 1, 2])):
            bad = rng.choice(self.BAD_LINES)
            for _ in range(rng.randint(1, 2)):
                lines.insert(rng.randint(0, len(lines)), bad)
        text = "".join(line + rng.choice(self.BREAKS) for line in lines)
        if rng.random() < 0.5:
            text = text[:-1]
        return ("\ufeff" if rng.random() < 0.3 else "") + text

    def check_against_the_oracle(self, path, en_spec, monkeypatch, n_corpora):
        """Load n_corpora random corpora per block size and compare each with
        oracles.load_lines; return how many of them were malformed."""
        errors = 0
        # blocks of 1 and 7 bytes put a block edge inside every break and bad line
        for block_bytes in (1, 7, _lines.BLOCK_BYTES):
            monkeypatch.setattr(_lines, "BLOCK_BYTES", block_bytes)
            rng = random.Random(20)
            for _ in range(n_corpora):
                text = self.random_corpus_text(rng)
                fold_case = rng.random() < 0.5
                path.write_bytes(text.encode("utf-8"))
                want = oracles.load_lines(text, en_spec, fold_case)
                if "error" in want:
                    errors += 1
                    with pytest.raises(CorpusFormatError) as exc_info:
                        load_corpus(path, en_spec, fold_case=fold_case)
                    assert str(exc_info.value) == f"{path}:{want['line']}: {want['error']}", repr(text)
                    continue
                corpus = load_corpus(path, en_spec, fold_case=fold_case)
                got = {"forms": list(corpus.forms), "form_ids": (corpus.cells // 2).tolist(),
                       "functions": (corpus.cells % 2).tolist(), "dropped": corpus.dropped}
                assert got == want, (block_bytes, repr(text))
                # the loader skips from_columns' checks; its columns pass them
                assert corpus == TaggedCorpus.from_columns(
                    en_spec, corpus.forms, corpus.cells // 2, corpus.cells % 2, corpus.dropped)
        return errors

    def test_load_matches_a_line_by_line_oracle(self, tmp_path, en_spec, monkeypatch):
        errors = self.check_against_the_oracle(tmp_path / "corpus.tsv", en_spec, monkeypatch, 300)
        assert 150 < errors < 750

    def test_from_columns_matches_tokens_and_is_read_only(self, ab_spec):
        corpus = TaggedCorpus.from_columns(ab_spec, ("x", "y"), [0, 1, 0], [1, 0, 0], dropped=2)
        assert corpus.tokens == (TokenRecord("x", 1), TokenRecord("y", 0), TokenRecord("x", 0))
        assert corpus == TaggedCorpus(ab_spec, corpus.tokens, dropped=2)
        with pytest.raises(ValueError):
            corpus.cells[0] = 1

    @pytest.mark.parametrize("forms, form_ids, functions", [
        (("x", "y"), [1, 0], [0, 0]),      # not in first-occurrence order
        (("x", "y"), [0, 0], [0, 0]),      # a form without tokens
        (("x", "x"), [0, 1], [0, 0]),      # duplicate form
        (("x",), [0, -1], [0, 0]),         # negative id
        (("x",), [0, 0], [0, 2]),          # function out of range
        (("x",), [0, 0], [0]),             # columns of different length
        ((" ",), [0], [0]),                # empty form
    ])
    def test_from_columns_rejects_inconsistent_columns(self, ab_spec, forms, form_ids, functions):
        with pytest.raises(ValueError):
            TaggedCorpus.from_columns(ab_spec, forms, form_ids, functions)

    @pytest.mark.parametrize("name, build", [
        ("form_ids", lambda spec: TaggedCorpus.from_columns(spec, ("p", "q"), [0.0, 1.9], [0, 1])),
        ("functions", lambda spec: TaggedCorpus.from_columns(spec, ("p", "q"), [0, 1], [0, 1.7])),
        ("form_ids", lambda spec: TaggedCorpus.from_columns(spec, ("p", "q"), ["0", "1"], [0, 1])),
        ("assignments", lambda spec: FoldPlan(k=2, seed=0, assignments=[1.5, 2.9])),
        ("assignments", lambda spec: FoldPlan(k=2, seed=0, assignments=["1", "2"])),
        ("counts", lambda spec: SpectrumTable.from_counts(spec, ("p",), [[1.9, 0.2]])),
        ("counts", lambda spec: SpectrumTable.from_counts(spec, ("p",), [[True, False]])),
        ("per_function", lambda spec: SpectrumTable(spec, {"p": TypeCount("p", (1.9, 0.2))}, (1, 0), (1, 0))),
        ("dropped", lambda spec: TaggedCorpus.from_columns(spec, ("p",), [0], [0], dropped=1.5)),
        ("dropped", lambda spec: TaggedCorpus.from_columns(spec, ("p",), [0], [0], dropped=-1)),
    ])
    def test_column_constructors_refuse_non_integers(self, ab_spec, name, build):
        with pytest.raises(ValueError, match=f"^{name} must "):
            build(ab_spec)
        # empty columns stay valid
        assert len(TaggedCorpus.from_columns(ab_spec, (), [], [])) == 0
        assert FoldPlan(k=2, seed=0, assignments=[]).fold_sizes() == [0, 0]

    def test_from_columns_checks_the_suffix_per_form(self, en_spec):
        with pytest.raises(ValueError, match="huis"):
            TaggedCorpus.from_columns(en_spec, ("lopen", "huis"), [0, 1], [0, 0])


@pytest.fixture
def split(monkeypatch):
    """Make load_corpus cut every regular file into up to 3 parts; record
    the number of parts of each load, each helper started and the number
    of helper results merged."""
    monkeypatch.setattr(_cache, "_PART_BYTES", 1)
    monkeypatch.setattr(_cache, "_usable_cpus", lambda: 3)
    parts, helper_result = _cache._parts, _cache._helper_result

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            record.started.append(self)

    def counted_parts(*args):
        result = parts(*args)
        record.parts.append(len(result))
        return result

    def counted_result(*args):
        result = helper_result(*args)
        record.merged += result is not None
        return result

    record = SimpleNamespace(parts=[], started=[], merged=0, Popen=Recorded)
    monkeypatch.setattr(subprocess, "Popen", Recorded)
    monkeypatch.setattr(_cache, "_parts", counted_parts)
    monkeypatch.setattr(_cache, "_helper_result", counted_result)
    return record


def serial_load(monkeypatch, *args, **kwargs):
    """load_corpus as a one-CPU host runs it: what a split load must equal."""
    with monkeypatch.context() as m:
        m.setattr(_cache, "_usable_cpus", lambda: 1)
        return load_corpus(*args, **kwargs)


def serial_error(monkeypatch, *args) -> str:
    with pytest.raises(CorpusFormatError) as exc_info:
        serial_load(monkeypatch, *args)
    return str(exc_info.value)


def repeating_helper(repeat: str) -> str:
    """A helper that runs the real one and appends to its result the forms
    that `repeat`, a bytes expression over that result `out`, joins."""
    return (
        f"import struct, subprocess, sys; header = struct.Struct({_lines.HEADER.format!r});"
        " out = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE).stdout;"
        f" n_lines, n_forms, n_joined = header.unpack_from(out); repeat = {repeat};"
        " sys.stdout.buffer.write(header.pack(n_lines, n_forms + repeat.count(b'\\n') + 1, n_joined + 1 + len(repeat))"
        " + out[header.size:] + b'\\n' + repeat)"
    )


def renaming_helper(renames: dict[bytes, bytes]) -> str:
    """A helper that runs the real one and renames the forms of its result
    that `renames` holds, so that a form can repeat while every form is used."""
    return (
        f"import struct, subprocess, sys; header = struct.Struct({_lines.HEADER.format!r});"
        " out = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE).stdout;"
        " n_lines, n_forms, n_joined = header.unpack_from(out); head = out[header.size:len(out) - n_joined];"
        f" joined = b'\\n'.join({renames!r}.get(form, form) for form in out[len(out) - n_joined:].split(b'\\n'));"
        " sys.stdout.buffer.write(header.pack(n_lines, n_forms, len(joined)) + head + joined)"
    )


class TestSplitLoad:
    LINE = "lopen\tV(inf)\n"  # 13 bytes, as every line of the hand-made files

    def part_starts(self, path):
        with open(path, "rb") as fh:
            return [start for start, _, _ in _cache._parts(fh)]

    def three_part_file(self, path, monkeypatch, lines):
        """Write lines in 3 parts, cut at line breaks in 1-byte blocks;
        return the line number each part starts with."""
        monkeypatch.setattr(_lines, "BLOCK_BYTES", 1)
        path.write_text("".join(lines), encoding="utf-8")
        starts = self.part_starts(path)
        assert len(starts) == 3 and all(len(line.encode()) == len(self.LINE) for line in lines)
        return [start // len(self.LINE) + 1 for start in starts]

    def test_split_load_matches_the_oracle(self, tmp_path, en_spec, monkeypatch, split):
        errors = TestColumns().check_against_the_oracle(tmp_path / "corpus.tsv", en_spec, monkeypatch, 40)
        assert 0 < errors < 3 * 40
        assert {1, 2, 3} <= set(split.parts)
        assert split.merged > 0

    def test_parts_follow_the_cut_rule(self, tmp_path, en_spec, monkeypatch, split):
        rng = random.Random(11)
        path = tmp_path / "corpus.tsv"
        for _ in range(60):
            cpus, part_bytes, block_bytes = rng.randint(1, 4), rng.choice([1, 20, 60]), rng.choice([1, 5, 64])
            monkeypatch.setattr(_cache, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr(_cache, "_PART_BYTES", part_bytes)
            monkeypatch.setattr(_lines, "BLOCK_BYTES", block_bytes)
            # short lines, lines longer than a block, breaks other than b"\n",
            # and often a long last line after the last b"\n", past some shares
            lines = [rng.choice(["lopen\tV(inf)", "werken\tV(pl)", "", "# x"]) if rng.random() < 0.8
                     else "l" * rng.randint(1, 3 * block_bytes) + "en\tV(pl)" for _ in range(rng.randint(0, 25))]
            text = "".join(line + rng.choice(["\n", "\n", "\r\n", "\r", "\x85"]) for line in lines)
            if rng.random() < 0.5:
                text += "w" * rng.randint(0, len(text)) + "en\tV(inf)"
            data = (codecs.BOM_UTF8 if rng.random() < 0.3 else b"") + text.encode("utf-8")
            path.write_bytes(data)
            with open(path, "rb") as fh:
                parts = _cache._parts(fh)
                assert fh.tell() == 0
            size, mark = len(data), 3 * data.startswith(codecs.BOM_UTF8)
            n_parts = min(cpus, size // part_bytes)
            starts = [start for start, _, _ in parts]
            if n_parts < 2:
                assert parts == [(0, None, 0)]
            else:
                assert [end for _, end, _ in parts] == starts[1:] + [size]
                assert [offset for _, _, offset in parts] == [start and start - mark for start in starts]
            # strictly increasing; each inner bound right after the first b"\n"
            # at or after its share minus one byte
            assert starts == sorted(set(starts)) and starts[0] == 0 and len(parts) <= max(1, n_parts)
            shares = [size * i // n_parts for i in range(1, n_parts)]
            cuts = {data.find(b"\n", share - 1) + 1 for share in shares}
            assert starts[1:] == sorted(cut for cut in cuts if 0 < cut < size), (shares, data)
            assert all(data[start - 1:start] == b"\n" for start in starts[1:])
            corpus = load_corpus(path, en_spec)
            assert corpus == serial_load(monkeypatch, path, en_spec), data
        assert max(split.parts) == 4 and split.merged > 30

    def test_helpers_code_the_later_parts(self, tmp_path, en_spec, monkeypatch, split):
        monkeypatch.setattr(_lines, "BLOCK_BYTES", 7)
        path = tmp_path / "corpus.tsv"
        lines = [self.LINE, "werken\tV(pl)\n", "huis\tV(pl)\n", "eten\tX\n", "# note\n", "\n"] * 40
        path.write_text("".join(lines) + "lopen\tV(pl)", encoding="utf-8")  # no final line break
        corpus = load_corpus(path, en_spec)
        assert [p.returncode for p in split.started] == [0, 0] and split.merged == 2
        assert corpus == serial_load(monkeypatch, path, en_spec)
        assert corpus.cells[-1] % 2 == 1 and corpus.dropped == 80

    @pytest.mark.parametrize("bad_parts", [(1, 2), (2,), (0, 1, 2)])
    def test_the_first_bad_line_wins(self, tmp_path, en_spec, monkeypatch, split, bad_parts):
        path = tmp_path / "corpus.tsv"
        lines = [self.LINE] * 12
        starts = self.three_part_file(path, monkeypatch, lines)
        for part in bad_parts:
            lines[starts[part]] = "lope\tV(inf)\t\n"  # the second line of the part
        starts_before = self.part_starts(path)
        path.write_text("".join(lines), encoding="utf-8")
        assert self.part_starts(path) == starts_before
        with pytest.raises(CorpusFormatError) as exc_info:
            load_corpus(path, en_spec)
        assert str(exc_info.value) == f"{path}:{starts[bad_parts[0]] + 1}: expected 'form<TAB>tag', got 3 fields"
        assert str(exc_info.value) == serial_error(monkeypatch, path, en_spec)
        assert len(split.started) == 2

    @pytest.mark.parametrize("first", ["line", "byte"])
    def test_the_first_bad_line_or_byte_of_the_file_wins(self, tmp_path, en_spec, monkeypatch, split, first):
        path = tmp_path / "corpus.tsv"
        lines = [self.LINE.encode()] * 12
        one_piece = _lines.BLOCK_BYTES
        starts = self.three_part_file(path, monkeypatch, [self.LINE] * 12)
        bad_line, bad_byte = (starts[1], starts[1] + 2) if first == "line" else (starts[1] + 2, starts[1])
        lines[bad_line] = b"lope\tV(inf)\t\n"
        lines[bad_byte] = b"lop\xffn\tV(inf)\n"
        path.write_bytes(b"".join(lines))
        want = (f"{path}:{bad_line + 1}: expected 'form<TAB>tag', got 3 fields" if first == "line" else
                f"cannot read corpus {path}: 'utf-8' codec can't decode byte 0xff in position "
                f"{bad_byte * len(self.LINE) + 3}: invalid start byte")
        # in one piece, in pieces cut between the two, and in pieces cut inside each
        for block_bytes in (one_piece, 2 * len(self.LINE), 1):
            monkeypatch.setattr(_lines, "BLOCK_BYTES", block_bytes)
            with pytest.raises(CorpusFormatError) as exc_info:
                load_corpus(path, en_spec)
            assert str(exc_info.value) == want
            assert serial_error(monkeypatch, path, en_spec) == want
        assert len(split.started) == 2 * 3

    def test_a_decode_error_past_a_cut_counts_bytes_after_the_mark(self, tmp_path, en_spec, monkeypatch, split):
        path = tmp_path / "corpus.tsv"
        self.three_part_file(path, monkeypatch, [self.LINE] * 12)
        data = codecs.BOM_UTF8 + path.read_bytes()
        at = len(data) - 5  # in the last line
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        assert self.part_starts(path)[2] < at
        with pytest.raises(CorpusFormatError) as exc_info:
            load_corpus(path, en_spec)
        assert str(exc_info.value) == (
            f"cannot read corpus {path}: 'utf-8' codec can't decode byte 0xff in position {at - 3}: invalid start byte")
        assert str(exc_info.value) == serial_error(monkeypatch, path, en_spec)
        assert len(split.started) == 2

    def test_a_byte_order_mark_after_a_cut_starts_a_form(self, tmp_path, en_spec, monkeypatch, split):
        path = tmp_path / "corpus.tsv"
        lines = [self.LINE] * 12
        starts = self.three_part_file(path, monkeypatch, lines)
        lines[starts[1] - 1] = "\ufeffen\tV(inf)\n"  # the first line of the second part
        assert self.three_part_file(path, monkeypatch, lines) == starts
        corpus = load_corpus(path, en_spec)
        assert split.merged == 2
        assert corpus.forms == ("lopen", "\ufeffen") and len(corpus) == 12
        assert corpus == serial_load(monkeypatch, path, en_spec)

    @pytest.mark.parametrize("helper", [
        "import sys; sys.exit(3)",
        # the real helper's result cut short, with a clean exit
        "import subprocess, sys; out = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE).stdout;"
        " sys.stdout.buffer.write(out[:len(out) // 2])",
        # the real helper's result with a form of the first part repeated, or a new form twice
        repeating_helper("out[len(out) - n_joined:].split(b'\\n')[0]"),
        repeating_helper("b'nieuwen\\nnieuwen'"),
        # a new form that no line uses
        repeating_helper("b'nieuwen'"),
        # every form used, one of them twice: a form of the first part, or a new one
        renaming_helper({b"werken": b"lopen"}),
        renaming_helper({b"werken": b"nieuwen", b"wetten": b"nieuwen"}),
    ])
    def test_a_failed_helper_is_replaced_by_coding_its_part(self, tmp_path, en_spec, monkeypatch, split, helper):
        path = tmp_path / "corpus.tsv"
        self.three_part_file(path, monkeypatch, [self.LINE, "werken\tV(pl)\n", "wetten\tV(pl)\n"] * 4)
        monkeypatch.setattr(subprocess, "Popen", lambda args, **kwargs: split.Popen(
            [sys.executable, "-c", helper, *args], **kwargs))
        corpus = load_corpus(path, en_spec)
        assert len(split.started) == 2 and split.merged == 0
        assert corpus == serial_load(monkeypatch, path, en_spec)

    def test_a_missing_interpreter_means_a_serial_load(self, tmp_path, en_spec, monkeypatch, split):
        path = tmp_path / "corpus.tsv"
        self.three_part_file(path, monkeypatch, [self.LINE, "werken\tV(pl)\n"] * 6)
        with monkeypatch.context() as m:
            m.setattr(sys, "executable", str(tmp_path / "no-such-python"))
            corpus = load_corpus(path, en_spec)
        assert split.parts == [3, 3] and split.started == []
        assert corpus == serial_load(monkeypatch, path, en_spec)

    def test_helpers_are_reaped_before_an_error_leaves(self, tmp_path, en_spec, monkeypatch, split):
        path = tmp_path / "corpus.tsv"
        self.three_part_file(path, monkeypatch, ["lope\tV(inf)\t\n"] + [self.LINE] * 11)
        with pytest.raises(CorpusFormatError, match=r"corpus\.tsv:1: expected"):
            try:
                load_corpus(path, en_spec)
            finally:
                assert len(split.started) == 2
                assert all(p.returncode is not None and p.stdout.closed for p in split.started)

    def test_a_fifo_loads_serially(self, tmp_path, en_spec, monkeypatch, split):
        path = tmp_path / "corpus.tsv"
        self.three_part_file(path, monkeypatch, [self.LINE, "werken\tV(pl)\n"] * 6)
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        corpus = load_corpus(fifo, en_spec)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert split.parts[-1] == 1 and split.started == []
        assert corpus == load_corpus(path, en_spec) and split.merged == 2

    def test_the_helper_imports_neither_numpy_nor_the_package(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("lopen\tV(inf)\nhuis\tV(pl)\n\nwerken\tV(pl)\nlopen\tV(pl)\n", encoding="utf-8")
        job = json.dumps([str(path), 0, path.stat().st_size, 7, {"V(inf)": 0, "V(pl)": 1}, 2, "en", False])
        run = ("import runpy, sys; sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__');"
               " sys.stderr.write(repr(sorted(sys.modules)))")
        done = subprocess.run([sys.executable, "-I", "-S", "-c", run, _lines.__file__, job],
                              capture_output=True, cwd=tmp_path, check=True)
        assert not [m for m in ast.literal_eval(done.stderr.decode()) if m.split(".")[0] in ("numpy", "hapaxprior")]
        n_lines, n_forms, n_joined = _lines.HEADER.unpack_from(done.stdout)
        assert np.frombuffer(done.stdout, np.int64, n_lines, _lines.HEADER.size).tolist() == [
            0, _lines.DROPPED, _lines.SKIPPED, 3, 1]
        assert done.stdout[len(done.stdout) - n_joined:].decode().split("\n") == ["lopen", "werken"]
        assert n_forms == 2


def cache_entries(cache):
    return sorted(cache.glob("*" + _cache.SUFFIX)) if cache.exists() else []


@pytest.fixture
def coded(monkeypatch):
    """Count the loads that code their file (cache misses and uncached
    loads); set coded.forbid to make coding fail, so a load must hit."""
    code = _cache._code
    record = SimpleNamespace(count=0, forbid=False)

    def counted(*args):
        assert not record.forbid, "coded a file that the cache holds"
        record.count += 1
        return code(*args)

    monkeypatch.setattr(_cache, "_code", counted)
    return record


class TestCache:
    def write(self, tmp_path, text=CORPUS_TEXT, name="corpus.tsv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def check_hit(self, path, spec, cache, coded, **options):
        """Load path from the cache and return the result, failing if it codes the file."""
        coded.forbid = True
        try:
            return load_corpus(path, spec, cache_dir=cache, **options)
        finally:
            coded.forbid = False

    @pytest.mark.parametrize("cut", ["one pass", "split"])
    def test_a_hit_equals_the_miss_and_an_uncached_load(self, tmp_path, en_spec, request, coded, cut):
        if cut == "split":
            split = request.getfixturevalue("split")
        path, cache = tmp_path / "corpus.tsv", tmp_path / "cache"
        rng = random.Random(3)
        cached, errors = set(), 0
        for _ in range(80):
            text = TestColumns().random_corpus_text(rng)
            fold_case = rng.random() < 0.5
            path.write_bytes(text.encode("utf-8"))
            want = oracles.load_lines(text, en_spec, fold_case)
            if "error" in want:
                errors += 1
                with pytest.raises(CorpusFormatError, match=re.escape(f"{path}:{want['line']}: {want['error']}")):
                    load_corpus(path, en_spec, fold_case=fold_case, cache_dir=cache)
                continue
            uncached = load_corpus(path, en_spec, fold_case=fold_case)
            miss = load_corpus(path, en_spec, fold_case=fold_case, cache_dir=cache)
            hit = self.check_hit(path, en_spec, cache, coded, fold_case=fold_case)
            assert uncached == miss == hit, repr(text)
            assert hit.cells.dtype == np.int64 and not hit.cells.flags.writeable
            cached.add((text, fold_case))
            assert len(cache_entries(cache)) == len(cached)
        assert 0 < errors < 80 and len(cached) > 30
        if cut == "split":
            assert 3 in split.parts and split.merged > 0

    @pytest.mark.parametrize("n_forms, itemsize", [(1, 1), (128, 1), (129, 2), (32768, 2), (32769, 4)])
    def test_cells_take_the_smallest_unsigned_type(self, tmp_path, en_spec, coded, n_forms, itemsize):
        # the largest cell is form id n_forms - 1 times 2 plus function 1
        text = "".join(f"w{i}en\tV(inf)\n" for i in range(n_forms - 1)) + f"w{n_forms - 1}en\tV(pl)\nhuis\tX\n"
        path, cache = self.write(tmp_path, text), tmp_path / "cache"
        want = load_corpus(path, en_spec)
        assert load_corpus(path, en_spec, cache_dir=cache) == want
        [entry] = cache_entries(cache)
        assert _cache.FIELDS.unpack_from(entry.read_bytes(), _cache.DIGEST_BYTES) == (itemsize, n_forms, 1)
        assert self.check_hit(path, en_spec, cache, coded) == want

    def test_a_hit_starts_no_helper(self, tmp_path, en_spec, split):
        path, cache = self.write(tmp_path, CORPUS_TEXT * 3), tmp_path / "cache"
        miss = load_corpus(path, en_spec, cache_dir=cache)
        assert len(split.started) == 2 and split.parts == [3]
        assert load_corpus(path, en_spec, cache_dir=cache) == miss
        assert len(split.started) == 2 and split.parts == [3]

    def test_other_bytes_or_options_miss(self, tmp_path, en_spec, coded, monkeypatch):
        path, cache = self.write(tmp_path), tmp_path / "cache"
        first = load_corpus(path, en_spec, cache_dir=cache)
        assert coded.count == 1 and len(cache_entries(cache)) == 1
        tag_map = dict(en_spec.tag_map, **{"V(pl,past)": "inf"})
        version = unicodedata.unidata_version
        variants = [
            ("bytes", CORPUS_TEXT + "eten\tV(pl)\n", en_spec, False, version),
            ("a tag", CORPUS_TEXT, ClassSpec("dutch-en", ("inf", "pl"), "en", tag_map), False, version),
            ("function order", CORPUS_TEXT, ClassSpec("dutch-en", ("pl", "inf"), "en", dict(en_spec.tag_map)), False,
             version),
            ("functions", CORPUS_TEXT, ClassSpec("dutch-en", ("inf", "pl", "x"), "en",
                                                 dict(en_spec.tag_map, X="x")), False, version),
            ("suffix", CORPUS_TEXT, ClassSpec("dutch-en", ("inf", "pl"), "n", dict(en_spec.tag_map)), False, version),
            ("fold_case", CORPUS_TEXT, en_spec, True, version),
            # str.strip and str.lower follow the interpreter's Unicode database
            ("the Unicode database", CORPUS_TEXT, en_spec, True, "0.0.0"),
        ]
        for i, (what, text, spec, fold_case, unidata_version) in enumerate(variants, 2):
            monkeypatch.setattr(unicodedata, "unidata_version", unidata_version)
            path.write_text(text, encoding="utf-8")
            want = load_corpus(path, spec, fold_case=fold_case)
            before = coded.count
            assert load_corpus(path, spec, fold_case=fold_case, cache_dir=cache) == want, what
            assert coded.count == before + 1 and len(cache_entries(cache)) == i, what
            assert self.check_hit(path, spec, cache, coded, fold_case=fold_case) == want, what
        # the class name is not a coding option: a spec that codes alike hits
        monkeypatch.setattr(unicodedata, "unidata_version", version)
        path.write_text(CORPUS_TEXT, encoding="utf-8")
        renamed = ClassSpec("renamed", en_spec.functions, en_spec.suffix, dict(en_spec.tag_map))
        hit = self.check_hit(path, renamed, cache, coded)
        assert hit.spec is renamed and hit == TaggedCorpus.from_columns(
            renamed, first.forms, first.cells // 2, first.cells % 2, first.dropped)

    @staticmethod
    def redigested(entry: bytes, forms=None, **fields) -> bytes:
        """entry with other FIELDS values, or its forms changed by forms(list),
        and the digest that matches them."""
        start = _cache.DIGEST_BYTES + _cache.FIELDS.size
        names = ("itemsize", "cells", "dropped")
        values = dict(zip(names, _cache.FIELDS.unpack_from(entry, _cache.DIGEST_BYTES)), **fields)
        payload = entry[start:]
        if forms:
            end = start + values["itemsize"] * values["cells"]
            payload = entry[start:end] + b"\n".join(forms(entry[end:].split(b"\n")))
        rest = _cache.FIELDS.pack(*values.values()) + payload
        return hashlib.sha256(rest).digest() + rest

    @staticmethod
    def flipped(entry: bytes, at: int) -> bytes:
        return entry[:at] + bytes([entry[at] ^ 4]) + entry[at + 1:]

    @pytest.mark.parametrize("damage", [
        lambda entry: entry[:-1],
        lambda entry: entry[:_cache.DIGEST_BYTES + 3],
        lambda entry: b"",
        lambda entry: entry + b"\0",
        lambda entry: TestCache.flipped(entry, 0),
        lambda entry: TestCache.flipped(entry, 40),
        lambda entry: TestCache.flipped(entry, 48),
        lambda entry: TestCache.flipped(entry, 56),
        lambda entry: TestCache.flipped(entry, len(entry) - 3),
        lambda entry: TestCache.redigested(entry, itemsize=3),
        lambda entry: TestCache.redigested(entry, cells=10**6),
        lambda entry: TestCache.redigested(entry, forms=lambda forms: [*forms[:-1], b"\xff" + forms[-1]]),
        lambda entry: TestCache.redigested(entry, forms=lambda forms: forms[:-1]),
        lambda entry: TestCache.redigested(entry, forms=lambda forms: [*forms, b"eten"]),
    ], ids=["truncated", "short", "empty", "longer", "digest bit", "cell count bit", "dropped bit", "cell bit",
            "form bit", "itemsize 3", "cells past the end", "a form not UTF-8", "a form short",
            "a form unused"])
    def test_a_bad_entry_misses_and_is_rewritten(self, tmp_path, en_spec, coded, damage):
        path, cache = self.write(tmp_path), tmp_path / "cache"
        want = load_corpus(path, en_spec, cache_dir=cache)
        [entry] = cache_entries(cache)
        good = entry.read_bytes()
        entry.write_bytes(damage(good))
        assert load_corpus(path, en_spec, cache_dir=cache) == want
        assert coded.count == 2 and cache_entries(cache) == [entry]
        assert entry.read_bytes() == good
        assert self.check_hit(path, en_spec, cache, coded) == want

    def test_an_edit_to_the_coder_misses(self, tmp_path, en_spec, coded, monkeypatch):
        path, cache = self.write(tmp_path), tmp_path / "cache"
        want = load_corpus(path, en_spec, cache_dir=cache)
        source = tmp_path / "source"
        source.mkdir()
        for module in Path(_cache.__file__).parent.glob("*.py"):
            (source / module.name).write_bytes(module.read_bytes())
        monkeypatch.setattr(_cache, "__file__", str(source / "_cache.py"))
        monkeypatch.setattr(_cache, "_source_digest", _cache._source_digest.__wrapped__)
        assert self.check_hit(path, en_spec, cache, coded) == want  # the same source
        # the public model, the readers, the savers and the replay decide nothing an entry holds
        for name in ("corpus.py", "crossval.py", "spectrum.py"):
            with open(source / name, "a", encoding="utf-8") as fh:
                fh.write("# edited\n")
            assert self.check_hit(path, en_spec, cache, coded) == want, name
        for i, name in enumerate(_cache.SOURCES, 2):
            with open(source / name, "a", encoding="utf-8") as fh:
                fh.write("# edited\n")
            assert load_corpus(path, en_spec, cache_dir=cache) == want
            assert coded.count == i and len(cache_entries(cache)) == i, name
            assert self.check_hit(path, en_spec, cache, coded) == want
        # without its source the coder keys nothing: it loads uncached
        (source / _cache.SOURCES[0]).unlink()
        assert load_corpus(path, en_spec, cache_dir=cache) == want
        assert coded.count == len(_cache.SOURCES) + 2 and len(cache_entries(cache)) == len(_cache.SOURCES) + 1

    @staticmethod
    def package_imports(path: Path) -> set[str]:
        """The modules of the package that the source at path imports, at
        any depth: "" for the package itself."""
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[2] for alias in node.names
                             if alias.name.partition(".")[0] == "hapaxprior")
            elif isinstance(node, ast.ImportFrom) and (node.level or node.module.partition(".")[0] == "hapaxprior"):
                module = node.module or ""
                module = module if node.level else module.partition(".")[2]
                found.update([module] if module else [alias.name for alias in node.names])
        return found

    @pytest.mark.parametrize("source, imports", [
        ("from . import _lines, corpus", {"_lines", "corpus"}), ("from .corpus import x", {"corpus"}),
        ("def f():\n    from .spectrum import x", {"spectrum"}), ("import hapaxprior", {""}),
        ("import hapaxprior.corpus as c", {"corpus"}), ("from hapaxprior import cli", {"cli"}),
        ("from hapaxprior.corpus import x", {"corpus"}), ("import numpy, os.path\nfrom os import sep", set()),
    ])
    def test_package_imports_finds_every_import_of_the_package(self, tmp_path, source, imports):
        (tmp_path / "m.py").write_text(source, encoding="utf-8")
        assert self.package_imports(tmp_path / "m.py") == imports

    def test_the_key_covers_every_module_that_decides_an_entry(self):
        # the sources the key hashes import no other module of the package
        # but _writer, which writes an entry's bytes and decides none of them
        package = Path(_cache.__file__).parent
        for name in _cache.SOURCES:
            assert self.package_imports(package / name) <= {"_cache", "_lines", "_writer"}, name

    def test_one_function_reads_and_one_writes_every_entry(self):
        # corpus and order entries share one framing: only _payload reads an
        # entry file, and only _write digests and writes one; _payload's
        # digest is the check of what _write digested
        callers = {"reads an entry": set(), "digest": set(), "writing": set()}
        tree = ast.parse(Path(_cache.__file__).read_text(encoding="utf-8"))
        for function in tree.body:
            for node in ast.walk(function) if isinstance(function, ast.FunctionDef) else ():
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "attr", getattr(node.func, "id", None))
                    names = {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}
                    if called in ("open", "read_bytes", "read_text", "fromfile", "memmap") and "entry" in names:
                        called = "reads an entry"
                    callers.get(called, set()).add(function.name)
        assert callers == {"reads an entry": {"_payload"}, "digest": {"_payload", "_write"}, "writing": {"_write"}}

    def test_a_cache_that_cannot_be_written_loads_normally(self, tmp_path, en_spec, coded, monkeypatch):
        path = self.write(tmp_path)
        want = load_corpus(path, en_spec)
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        for cache in (blocker, blocker / "cache"):  # a file, and a directory under a file
            assert load_corpus(path, en_spec, cache_dir=cache) == want
        assert blocker.read_bytes() == b""
        # a write that fails half-way (here at the rename) leaves nothing behind
        cache = tmp_path / "cache"

        def no_space(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(_cache.os, "replace", no_space)
        assert load_corpus(path, en_spec, cache_dir=cache) == want
        assert list(cache.iterdir()) == []
        assert coded.count == 4

    def test_a_fifo_writes_no_entry(self, tmp_path, en_spec):
        path, cache = self.write(tmp_path), tmp_path / "cache"
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        corpus = load_corpus(fifo, en_spec, cache_dir=cache)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert corpus == load_corpus(path, en_spec) and not cache.exists()

    @pytest.mark.parametrize("text", ["lopen\tV(inf)\nno tab here\n", "lopen\tV(inf)\nlop\udcffen\tV(pl)\n"])
    def test_a_bad_corpus_writes_no_entry_and_keeps_its_message(self, tmp_path, en_spec, text):
        path, cache = tmp_path / "corpus.tsv", tmp_path / "cache"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(CorpusFormatError) as uncached:
            load_corpus(path, en_spec)
        with pytest.raises(CorpusFormatError) as cached:
            load_corpus(path, en_spec, cache_dir=cache)
        assert str(cached.value) == str(uncached.value) and cache_entries(cache) == []

    def test_an_error_while_hashing_keeps_the_message(self, tmp_path, en_spec, monkeypatch):
        path, cache = self.write(tmp_path), tmp_path / "cache"

        class Failing(io.BufferedReader):
            def readinto(self, buffer):
                raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(corpus_module, "open", lambda name, mode: Failing(io.FileIO(name, mode)), raising=False)
        with pytest.raises(CorpusFormatError) as exc_info:
            load_corpus(path, en_spec, cache_dir=cache)
        assert str(exc_info.value) == f"cannot read corpus {path}: [Errno {errno.EIO}] {os.strerror(errno.EIO)}"
        assert not cache.exists()

    @pytest.mark.parametrize("rewrite", ["appended", "same size", "replaced", "replaced unseen"])
    def test_a_file_rewritten_during_the_load_writes_no_entry(self, tmp_path, en_spec, monkeypatch, rewrite):
        path, cache = self.write(tmp_path), tmp_path / "cache"
        code = _cache._code
        text = CORPUS_TEXT.replace("werken", "wetten")

        def rewriting(*args):
            # after the hash, before the coding
            if rewrite == "appended":
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write("eten\tV(pl)\n")
            elif rewrite == "same size":
                info = path.stat()
                path.write_text(text, encoding="utf-8")
                # as on a file system whose clock tick is coarser than the write
                os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns + 1))
            else:
                fresh = tmp_path / "fresh.tsv"
                fresh.write_text(text, encoding="utf-8")
                if rewrite == "replaced unseen":  # as if the old file's status did not change
                    unchanged = os.fstat(args[1].fileno())
                    monkeypatch.setattr(os, "fstat", lambda fd: unchanged)
                os.replace(fresh, path)
            return code(*args)

        monkeypatch.setattr(_cache, "_code", rewriting)
        load_corpus(path, en_spec, cache_dir=cache)
        assert cache_entries(cache) == []
        monkeypatch.undo()
        assert load_corpus(path, en_spec, cache_dir=cache) == load_corpus(path, en_spec)
        assert len(cache_entries(cache)) == 1

    def test_pruning_keeps_the_newest_entries_under_the_bound(self, tmp_path, en_spec, coded, monkeypatch):
        cache = tmp_path / "cache"
        paths = [self.write(tmp_path, CORPUS_TEXT + f"w{i}en\tV(pl)\n" * i, f"c{i}.tsv") for i in range(6)]
        entries = []
        for i, path in enumerate(paths[:5]):
            load_corpus(path, en_spec, cache_dir=cache)
            [entry] = set(cache_entries(cache)) - set(entries)
            os.utime(entry, ns=(0, (i + 1) * 10**9))  # entries[0] is the least recently used
            entries.append(entry)
        # a hit makes entries[1] the most recently used
        self.check_hit(paths[1], en_spec, cache, coded)
        assert entries[1].stat().st_mtime_ns > entries[4].stat().st_mtime_ns > entries[3].stat().st_mtime_ns
        load_corpus(paths[5], en_spec, cache_dir=tmp_path / "probe")
        [probe] = cache_entries(tmp_path / "probe")
        # room for c5's entry and the two most recently used others
        bound = probe.stat().st_size + entries[1].stat().st_size + entries[4].stat().st_size
        monkeypatch.setattr(_cache, "LIMIT_BYTES", bound)
        load_corpus(paths[5], en_spec, cache_dir=cache)
        assert cache_entries(cache) == sorted([cache / probe.name, entries[1], entries[4]])
        assert sum(e.stat().st_size for e in cache_entries(cache)) == bound
        # the entry just written stays, even alone over the bound
        monkeypatch.setattr(_cache, "LIMIT_BYTES", 1)
        load_corpus(paths[0], en_spec, cache_dir=cache)
        assert cache_entries(cache) == [entries[0]]


def order_entries(cache):
    return sorted(cache.glob("*" + _cache.ORDER_SUFFIX)) if cache.exists() else []


@pytest.fixture
def replayed(monkeypatch):
    """Count the fold orders crossval shuffles; set replayed.forbid to make
    a shuffle fail, so the order must come from the cache."""
    shuffle = crossval_module.shuffled_order
    record = SimpleNamespace(count=0, forbid=False)

    def counted(n, seed):
        assert not record.forbid, "shuffled an order that the cache holds"
        record.count += 1
        return shuffle(n, seed)

    monkeypatch.setattr(crossval_module, "shuffled_order", counted)
    return record


def hapax_tail_corpus(spec, rng, n):
    """n tokens: a few frequent forms and a tail of mostly single tokens,
    so that most folds see unseen tokens of both functions."""
    pairs = [(rng.choice(["hebben", "kunnen", "lopen"]), rng.randrange(2)) for _ in range(n // 4)]
    pairs += [(f"rare{rng.randrange(2 * n)}", rng.randrange(2)) for _ in range(n - len(pairs))]
    rng.shuffle(pairs)
    return corpus_of(spec, pairs)


def crossval_outcome(*args, **options):
    """run_crossval's report, or the type and text of its error."""
    try:
        return run_crossval(*args, **options)
    except (CrossValError, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


class TestOrderCache:
    def check_hit(self, replayed, *args, call=crossval_outcome, **options):
        """call's result (by default run_crossval's outcome), failing if it
        shuffles the order."""
        replayed.forbid = True
        try:
            return call(*args, **options)
        finally:
            replayed.forbid = False

    def test_a_hit_equals_the_miss_and_an_uncached_report(self, tmp_path, ab_spec, replayed):
        cache = tmp_path / "cache"
        rng = random.Random(5)
        keys, reports = set(), 0
        for _ in range(60):
            n = rng.randint(2, 120)
            corpus = hapax_tail_corpus(ab_spec, rng, n)
            k, seed = rng.choice([2, rng.randint(2, n), n]), rng.randrange(1000)
            uncached = crossval_outcome(corpus, k, seed)
            before = replayed.count
            miss = crossval_outcome(corpus, k, seed, cache_dir=cache)
            assert replayed.count == before + ((n, seed) not in keys)
            hit = self.check_hit(replayed, corpus, k, seed, cache_dir=cache)
            assert uncached == miss == hit, (n, k, seed)
            keys.add((n, seed))
            reports += not isinstance(hit, tuple)
            assert len(order_entries(cache)) == len(keys)
        assert reports > 20 and len(keys) > 50
        # an entry's order is the shuffle's, read back as int32
        order = self.check_hit(replayed, n, seed, cache, crossval_module.shuffled_order, call=_cache.ordered)
        assert order.dtype == np.int32 and not order.flags.writeable
        assert np.array_equal(order, crossval_module.shuffled_order(n, seed))

    def test_crossval_and_report_share_one_entry(self, tmp_path, ab_spec, replayed, monkeypatch):
        spec, cache = tmp_path / "class.spec", tmp_path / "cache"
        save_class_spec(ab_spec, spec)
        monkeypatch.setenv("HAPAXPRIOR_CACHE_DIR", str(cache))
        rng = random.Random(8)
        outputs = {}
        for name in ("first", "second"):  # two corpora of 200 tokens
            path = tmp_path / f"{name}.tsv"
            save_corpus(hapax_tail_corpus(ab_spec, rng, 200), path)
            for command in ("crossval", "report"):
                out = tmp_path / f"{name}.{command}"
                argv = [command, "--corpus", str(path), "--class-spec", str(spec), "--k", "5", "--seed", "3"]
                assert cli.main([*argv, "--out", str(out)]) == 0
                outputs[name, command] = out.read_bytes()
                [entry] = order_entries(cache)
                assert replayed.count == 1, (name, command)
                replayed.forbid = True
        assert len(cache_entries(cache)) == 2
        # the cache off: every run shuffles, and what it prints is the same
        replayed.forbid = False
        monkeypatch.setenv("HAPAXPRIOR_CACHE_DIR", "")
        for (name, command), want in outputs.items():
            out = tmp_path / "off"
            assert cli.main([command, "--corpus", str(tmp_path / f"{name}.tsv"), "--class-spec", str(spec),
                             "--k", "5", "--seed", "3", "--out", str(out)]) == 0
            assert out.read_bytes() == want, (name, command)
        assert replayed.count == 5 and order_entries(cache) == [entry]

    def test_another_seed_or_token_count_adds_an_entry(self, tmp_path, ab_spec, replayed, monkeypatch):
        cache = tmp_path / "cache"
        rng = random.Random(2)
        corpora = {n: hapax_tail_corpus(ab_spec, rng, n) for n in (60, 61)}
        keys = [(60, 1), (60, 2), (61, 1), (61, 2)]
        for i, (n, seed) in enumerate(keys, 1):
            want = crossval_outcome(corpora[n], 3, seed)
            assert crossval_outcome(corpora[n], 3, seed, cache_dir=cache) == want
            assert len(order_entries(cache)) == i and replayed.count == 2 * i
        for k in (2, 4, 60):  # any k slices the same order
            for n, seed in keys[:2]:
                assert self.check_hit(replayed, corpora[n], k, seed, cache_dir=cache) == crossval_outcome(
                    corpora[n], k, seed)
        # the Unicode database decides nothing an order holds
        monkeypatch.setattr(unicodedata, "unidata_version", "0.0.0")
        assert self.check_hit(replayed, corpora[60], 3, 1, cache_dir=cache) == crossval_outcome(corpora[60], 3, 1)
        # fewer than two tokens have one order, and no entry
        for n in (0, 1):
            assert _cache.ordered(n, 1, cache, crossval_module.shuffled_order).tolist() == list(range(n))
        assert len(order_entries(cache)) == len(keys)

    def test_an_edit_to_the_replay_misses(self, tmp_path, ab_spec, replayed, monkeypatch):
        cache = tmp_path / "cache"
        corpus = hapax_tail_corpus(ab_spec, random.Random(4), 80)
        want = crossval_outcome(corpus, 4, 7, cache_dir=cache)
        source = tmp_path / "source"
        source.mkdir()
        for module in Path(_cache.__file__).parent.glob("*.py"):
            (source / module.name).write_bytes(module.read_bytes())
        monkeypatch.setattr(_cache, "__file__", str(source / "_cache.py"))
        monkeypatch.setattr(_cache, "_source_digest", _cache._source_digest.__wrapped__)
        assert self.check_hit(replayed, corpus, 4, 7, cache_dir=cache) == want  # the same source
        for name in ("corpus.py", "spectrum.py"):
            with open(source / name, "a", encoding="utf-8") as fh:
                fh.write("# edited\n")
            assert self.check_hit(replayed, corpus, 4, 7, cache_dir=cache) == want, name
        for i, name in enumerate([_cache.ORDER_SOURCE, *_cache.SOURCES], 2):
            with open(source / name, "a", encoding="utf-8") as fh:
                fh.write("# edited\n")
            assert crossval_outcome(corpus, 4, 7, cache_dir=cache) == want
            assert replayed.count == i and len(order_entries(cache)) == i, name
            assert self.check_hit(replayed, corpus, 4, 7, cache_dir=cache) == want
        # without its source the shuffle keys nothing: it runs uncached
        (source / _cache.ORDER_SOURCE).unlink()
        assert crossval_outcome(corpus, 4, 7, cache_dir=cache) == want
        assert replayed.count == 5 and len(order_entries(cache)) == 4

    def test_another_interpreter_version_misses(self, tmp_path, en_spec, ab_spec, replayed, coded, monkeypatch):
        # random.shuffle's results are not promised across Python versions,
        # so the order key names the interpreter's; a corpus key does not
        cache = tmp_path / "cache"
        path = TestCache().write(tmp_path)
        loaded = load_corpus(path, en_spec, cache_dir=cache)
        corpus = hapax_tail_corpus(ab_spec, random.Random(3), 75)
        want = crossval_outcome(corpus, 5, 1, cache_dir=cache)
        [entry] = order_entries(cache)
        with monkeypatch.context() as patch:
            patch.setattr(sys, "version_info", (sys.version_info[0], sys.version_info[1] + 1, 0, "final", 0))
            assert crossval_outcome(corpus, 5, 1, cache_dir=cache) == want
            assert replayed.count == 2 and len(order_entries(cache)) == 2
            assert self.check_hit(replayed, corpus, 5, 1, cache_dir=cache) == want
            assert TestCache().check_hit(path, en_spec, cache, coded) == loaded
        assert coded.count == 1 and len(cache_entries(cache)) == 1
        assert self.check_hit(replayed, corpus, 5, 1, cache_dir=cache) == want
        assert entry in order_entries(cache)

    @staticmethod
    def redigested(positions: bytes) -> bytes:
        return hashlib.sha256(positions).digest() + positions

    @pytest.mark.parametrize("damage", [
        lambda entry: entry[:-1],
        lambda entry: entry[:-4],
        lambda entry: entry[:_cache.DIGEST_BYTES],
        lambda entry: b"",
        lambda entry: entry + b"\0",
        lambda entry: TestCache.flipped(entry, 0),
        lambda entry: TestCache.flipped(entry, _cache.DIGEST_BYTES),
        lambda entry: TestCache.flipped(entry, len(entry) - 1),
        lambda entry: TestOrderCache.redigested(entry[_cache.DIGEST_BYTES:-4]),
        lambda entry: TestOrderCache.redigested(entry[_cache.DIGEST_BYTES:] + entry[-4:]),
    ], ids=["truncated", "one position short", "digest only", "empty", "longer", "digest bit", "first position bit",
            "last position bit", "n - 1 positions", "n + 1 positions"])
    def test_a_bad_entry_misses_and_is_rewritten(self, tmp_path, ab_spec, replayed, damage):
        cache = tmp_path / "cache"
        corpus = hapax_tail_corpus(ab_spec, random.Random(6), 70)
        want = crossval_outcome(corpus, 5, 2, cache_dir=cache)
        [entry] = order_entries(cache)
        good = entry.read_bytes()
        assert len(good) == _cache.DIGEST_BYTES + 4 * 70
        entry.write_bytes(damage(good))
        assert crossval_outcome(corpus, 5, 2, cache_dir=cache) == want
        assert replayed.count == 2 and order_entries(cache) == [entry]
        assert entry.read_bytes() == good
        assert self.check_hit(replayed, corpus, 5, 2, cache_dir=cache) == want

    def test_a_cache_that_cannot_be_written_gives_the_same_report(self, tmp_path, ab_spec, replayed, monkeypatch):
        corpus = hapax_tail_corpus(ab_spec, random.Random(9), 90)
        want = crossval_outcome(corpus, 6, 4)
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        for cache in (blocker, blocker / "cache"):  # a file, and a directory under a file
            assert crossval_outcome(corpus, 6, 4, cache_dir=cache) == want
        assert blocker.read_bytes() == b""
        # a write that fails half-way (here at the rename) leaves nothing behind
        cache = tmp_path / "cache"

        def no_space(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(_cache.os, "replace", no_space)
        assert crossval_outcome(corpus, 6, 4, cache_dir=cache) == want
        assert list(cache.iterdir()) == []
        assert replayed.count == 4

    def test_pruning_counts_both_kinds_and_keeps_the_newest(self, tmp_path, en_spec, ab_spec, monkeypatch):
        cache = tmp_path / "cache"
        paths = [TestCache().write(tmp_path, CORPUS_TEXT + f"w{i}en\tV(pl)\n" * i, f"c{i}.tsv") for i in range(3)]
        corpus = hapax_tail_corpus(ab_spec, random.Random(1), 50)
        # oldest first: cells c0, order of seed 2, cells c1, order of seed 1
        made = []
        for i, make in enumerate([lambda: load_corpus(paths[0], en_spec, cache_dir=cache),
                                  lambda: crossval_outcome(corpus, 2, 2, cache_dir=cache),
                                  lambda: load_corpus(paths[1], en_spec, cache_dir=cache),
                                  lambda: crossval_outcome(corpus, 2, 1, cache_dir=cache)]):
            make()
            [entry] = set(cache_entries(cache) + order_entries(cache)) - set(made)
            os.utime(entry, ns=(0, (i + 1) * 10**9))
            made.append(entry)
        cells0, order2, cells1, order1 = made
        # a hit makes order1 the most recently used
        crossval_outcome(corpus, 2, 1, cache_dir=cache)
        assert order1.stat().st_mtime_ns > 10**18
        # room for the order of seed 3 (as large as the others), order1 and cells1
        bound = 2 * order1.stat().st_size + cells1.stat().st_size
        monkeypatch.setattr(_cache, "LIMIT_BYTES", bound)
        crossval_outcome(corpus, 2, 3, cache_dir=cache)
        [order3] = set(order_entries(cache)) - {order1, order2}
        assert cache_entries(cache) == [cells1] and order_entries(cache) == sorted([order1, order3])
        # a corpus written over the bound removes the orders, and stays alone
        monkeypatch.setattr(_cache, "LIMIT_BYTES", 1)
        load_corpus(paths[2], en_spec, cache_dir=cache)
        [cells2] = cache_entries(cache)
        assert cells2 not in made and sorted(cache.iterdir()) == [cells2]

    def test_the_order_key_covers_the_replay(self):
        # the order's key hashes crossval.py, where shuffled_order and
        # everything it calls live: none of them reads another package module
        tree = ast.parse(Path(crossval_module.__file__).read_text(encoding="utf-8"))
        package = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.level or node.module.partition(".")[0] == "hapaxprior") for alias in node.names}
        package |= {alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names
                    if alias.name.partition(".")[0] == "hapaxprior"}
        assert {"_cache", "TaggedCorpus", "paired_t"} <= package
        top = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    top.update({name.id: node for name in ast.walk(target) if isinstance(name, ast.Name)})
        reached, todo = set(), ["shuffled_order"]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                used = {node.id for node in ast.walk(top[name]) if isinstance(node, ast.Name)}
                assert not used & package, (name, used & package)
                todo += sorted(used & top.keys())
        assert reached == {"shuffled_order"}


def folds_entries(cache):
    return sorted(cache.glob("*" + _cache.FOLDS_SUFFIX)) if cache.exists() else []


@pytest.fixture
def counted(monkeypatch):
    """Count the corpora whose folds crossval counts; set counted.forbid to
    make counting fail, so the counts must come from the cache."""
    counter = crossval_module._fold_counter
    record = SimpleNamespace(count=0, forbid=False)

    def counting(corpus):
        assert not record.forbid, "counted folds that the cache holds"
        record.count += 1
        return counter(corpus)

    monkeypatch.setattr(crossval_module, "_fold_counter", counting)
    return record


class TestFoldsCache:
    K, SEED = 5, 3
    ROW_BYTES = 8 * (3 * 2 + 1)  # two functions

    @pytest.fixture
    def files(self, tmp_path, ab_spec, monkeypatch):
        """A corpus of 200 tokens, its class file, and the cache of every run."""
        files = SimpleNamespace(spec=tmp_path / "class.spec", corpus=tmp_path / "corpus.tsv", cache=tmp_path / "cache")
        save_class_spec(ab_spec, files.spec)
        save_corpus(hapax_tail_corpus(ab_spec, random.Random(8), 200), files.corpus)
        monkeypatch.setenv("HAPAXPRIOR_CACHE_DIR", str(files.cache))
        return files

    def run(self, capsys, files, *options, command="crossval", off=False):
        """(exit code, stdout, stderr) of command on files, --k K and --seed SEED unless options say otherwise;
        with off, the cache is off."""
        argv = [command, "--corpus", str(files.corpus), "--class-spec", str(files.spec),
                "--k", str(self.K), "--seed", str(self.SEED), *options]
        with pytest.MonkeyPatch.context() as patch:
            if off:
                patch.setenv("HAPAXPRIOR_CACHE_DIR", "")
            code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_crossval_and_report_share_one_entry_that_a_hit_reads_alone(self, capsys, files, ab_spec, coded,
                                                                         counted):
        off = {command: self.run(capsys, files, command=command, off=True) for command in ("crossval", "report")}
        assert counted.count == 2 and not files.cache.exists()
        assert self.run(capsys, files) == off["crossval"]
        [entry] = folds_entries(files.cache)
        # the payload is fold_counts, row by row, as little-endian int64
        counts = crossval_module.fold_counts(load_corpus(files.corpus, ab_spec), self.K, self.SEED)
        assert entry.read_bytes()[_cache.DIGEST_BYTES:] == counts.astype("<i8").tobytes()
        coded.forbid = counted.forbid = True
        for command in ("crossval", "report"):
            assert self.run(capsys, files, command=command) == off[command]
        assert folds_entries(files.cache) == [entry]

    def test_a_warm_run_reads_only_its_counts(self, capsys, files, coded):
        cold = {command: self.run(capsys, files, command=command) for command in ("crossval", "report")}
        for entry in cache_entries(files.cache) + order_entries(files.cache):
            entry.unlink()
        [entry] = folds_entries(files.cache)
        assert sorted(files.cache.iterdir()) == [entry]
        coded.count = 0
        for command in ("crossval", "report"):
            assert self.run(capsys, files, command=command) == cold[command]
        # nothing coded, and neither a corpus nor an order entry made again
        assert coded.count == 0 and sorted(files.cache.iterdir()) == [entry]

    def test_a_miss_hashes_the_corpus_bytes_once(self, capsys, files, monkeypatch):
        mark = b"# hashed once\n"  # a comment: in the corpus bytes, in no entry's payload
        files.corpus.write_bytes(mark + files.corpus.read_bytes())
        sha256, fed = hashlib.sha256, []

        class Recording:
            def __init__(self, data=b""):
                self.hash, self.data = sha256(data), bytearray(data)
                fed.append(self.data)

            def update(self, data):
                self.data += memoryview(data).tobytes()
                self.hash.update(data)

            def digest(self):
                return self.hash.digest()

            def hexdigest(self):
                return self.hash.hexdigest()

        monkeypatch.setattr(hashlib, "sha256", Recording)
        for run in ("miss", "hit"):
            fed.clear()
            assert self.run(capsys, files)[0] == 0
            assert sum(mark in data for data in fed) == 1, run
        assert len(folds_entries(files.cache)) == 1

    @staticmethod
    def redigested(payload: bytes) -> bytes:
        return hashlib.sha256(payload).digest() + payload

    @pytest.mark.parametrize("damage", [
        lambda entry: entry[:-1],
        lambda entry: TestFoldsCache.redigested(entry[_cache.DIGEST_BYTES:-TestFoldsCache.ROW_BYTES]),
        lambda entry: TestFoldsCache.redigested(entry[_cache.DIGEST_BYTES:] + entry[-TestFoldsCache.ROW_BYTES:]),
        lambda entry: b"",
        lambda entry: TestCache.flipped(entry, 0),
        lambda entry: TestCache.flipped(entry, len(entry) - 9),
    ], ids=["truncated", "a row short", "a row long", "empty", "digest bit", "payload bit"])
    def test_a_bad_entry_misses_and_is_rewritten(self, capsys, files, counted, damage):
        want = self.run(capsys, files)
        [entry] = folds_entries(files.cache)
        good = entry.read_bytes()
        assert len(good) == _cache.DIGEST_BYTES + self.K * self.ROW_BYTES
        entry.write_bytes(damage(good))
        assert self.run(capsys, files) == want
        assert counted.count == 2 and folds_entries(files.cache) == [entry]
        assert entry.read_bytes() == good
        counted.forbid = True
        assert self.run(capsys, files) == want

    @pytest.mark.parametrize("k", [2, 200], ids=["k=2", "k=n"])
    def test_a_hit_gives_exactly_the_rows_a_miss_stored(self, files, ab_spec, k):
        # counts no corpus gives, at and above 2**32, near 2**62 and 2**63 and
        # negative: a hit read with another itemsize, sign or byte order
        # gives other rows, or misses and counts again
        pool = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**62 - 1, 2**62, 2**62 + 3, 2**63 - 1, -1, -(2**62) - 5]
        rng = random.Random(k)
        crafted = np.array([[rng.choice(pool) for _ in range(3 * 2 + 1)] for _ in range(k)], dtype=np.int64)
        counts = []

        def count(cells, forms, dropped):
            counts.append(len(cells))
            return crafted

        def counted():
            return corpus_module._read(files.corpus, ab_spec, False, lambda fh, path, job: _cache.fold_counted(
                fh, path, job, k, self.SEED, files.cache, count))

        assert counted() is crafted and counts == [200]
        hit = counted()
        assert counts == [200] and len(folds_entries(files.cache)) == 1
        assert [list(row) for row in hit] == crafted.tolist()
        assert {type(value) for row in hit for value in row} == {int}

    def test_a_cache_that_cannot_be_written_gives_the_same_output(self, capsys, files, tmp_path, monkeypatch):
        want = self.run(capsys, files, off=True)
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        for cache in (blocker, blocker / "cache"):  # a file, and a directory under a file
            monkeypatch.setenv("HAPAXPRIOR_CACHE_DIR", str(cache))
            assert self.run(capsys, files) == want
        assert blocker.read_bytes() == b""
        # a write that fails half-way (here at the rename) leaves nothing behind
        monkeypatch.setenv("HAPAXPRIOR_CACHE_DIR", str(files.cache))

        def no_space(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(_cache.os, "replace", no_space)
        assert self.run(capsys, files) == want
        assert list(files.cache.iterdir()) == []

    @pytest.mark.parametrize("rewrite", ["appended", "replaced"])
    def test_a_corpus_rewritten_after_its_hash_stores_no_counts(self, capsys, files, tmp_path, monkeypatch, rewrite):
        code = _cache._code
        added = "rare9999\tA\n"

        def rewriting(path, fh, job):  # after the hash, before the coding
            if rewrite == "appended":
                with open(path, "a", encoding="utf-8") as out:
                    out.write(added)
            else:
                fresh = tmp_path / "fresh.tsv"
                fresh.write_text(path.read_text(encoding="utf-8") + added, encoding="utf-8")
                os.replace(fresh, path)
            return code(path, fh, job)

        monkeypatch.setattr(_cache, "_code", rewriting)
        assert self.run(capsys, files)[0] == 0
        assert folds_entries(files.cache) == [] and cache_entries(files.cache) == []
        monkeypatch.setattr(_cache, "_code", code)
        want = self.run(capsys, files, off=True)
        assert self.run(capsys, files) == want and len(folds_entries(files.cache)) == 1

    def test_k_seed_fold_case_and_the_tag_map_each_key_an_entry(self, capsys, files, tmp_path, counted):
        swapped, renamed = tmp_path / "swapped.spec", tmp_path / "renamed.spec"
        save_class_spec(ClassSpec("toy", ("a", "b"), "", {"A": "b", "B": "a"}), swapped)
        save_class_spec(ClassSpec("renamed", ("a", "b"), "", {"A": "a", "B": "b"}), renamed)
        variants = [[], ["--k", "4"], ["--seed", "4"], ["--fold-case"], ["--class-spec", str(swapped)]]
        wants = []
        for i, options in enumerate(variants, 1):
            wants.append(self.run(capsys, files, *options, off=True))
            assert wants[-1][0] == 0 and self.run(capsys, files, *options) == wants[-1]
            assert len(folds_entries(files.cache)) == i, options
        counted.forbid = True
        for options, want in zip(variants, wants):
            assert self.run(capsys, files, *options) == want
        # neither the ratio nor the class name is counted: they share the entry
        for options in (["--ratio", "b/a"], ["--class-spec", str(renamed)]):
            counted.forbid = False
            want = self.run(capsys, files, *options, off=True)
            counted.forbid = True
            assert want[0] == 0 and self.run(capsys, files, *options) == want, options
        assert len(folds_entries(files.cache)) == len(variants)

    def test_a_bad_corpus_is_reported_before_a_bad_ratio_and_that_before_a_bad_k(self, capsys, files, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("rare1\tA\nno tab here\n", encoding="utf-8")
        want = self.run(capsys, files, "--corpus", str(bad), "--ratio", "a/zzz", off=True)
        assert want[:2] == (2, "") and want[2].startswith(f"hapaxprior: {bad}:2: ")
        assert self.run(capsys, files, "--corpus", str(bad), "--ratio", "a/zzz") == want
        # a good corpus: the ratio, where k exceeds the token count (a miss) and where the counts are cached
        assert self.run(capsys, files)[0] == 0
        for k in ("500", str(self.K)):
            want = self.run(capsys, files, "--k", k, "--ratio", "a/zzz", off=True)
            assert want[0] == 1 and "--ratio label 'zzz'" in want[2]
            assert self.run(capsys, files, "--k", k, "--ratio", "a/zzz") == want, k
        assert self.run(capsys, files, "--k", "500") == (
            2, "", "hapaxprior: cannot split into folds: k = 500 exceeds the token count 200\n")

    @pytest.mark.parametrize("pairs, seed, message", [
        ([("w", 0)] * 6 + [("x", 1)] * 6, 0, "fold 1: hapax-based estimator undefined: no form occurs exactly once"),
        ([(f"r{i}", 0) for i in range(20)] + [("F", 1)] * 10 + [("G", 1)] * 10, 1, "zero denominator in ratio a/b"),
    ], ids=["hapax-free", "zero denominator"])
    def test_a_failed_fold_prints_the_same_line_on_a_hit(self, capsys, files, ab_spec, counted, pairs, seed, message):
        save_corpus(corpus_of(ab_spec, pairs), files.corpus)
        options = ["--k", "2", "--seed", str(seed)]
        want = self.run(capsys, files, *options, off=True)
        assert want[:2] == (2, "") and message in want[2] and want[2].count("\n") == 1
        # the counts are stored before their estimates fail
        assert self.run(capsys, files, *options) == want and len(folds_entries(files.cache)) == 1
        counted.forbid = True
        for command in ("crossval", "report"):
            assert self.run(capsys, files, *options, command=command) == want

    def test_another_interpreter_version_misses(self, capsys, files, coded, counted, monkeypatch):
        # the fold order is random.shuffle's, which is not promised across Python versions
        want = self.run(capsys, files)
        [entry] = folds_entries(files.cache)
        coded.forbid = True  # a corpus entry does not name the version
        with monkeypatch.context() as patch:
            patch.setattr(sys, "version_info", (sys.version_info[0], sys.version_info[1] + 1, 0, "final", 0))
            assert self.run(capsys, files) == want
            assert counted.count == 2 and len(folds_entries(files.cache)) == 2
        counted.forbid = True
        assert self.run(capsys, files) == want and entry in folds_entries(files.cache)

    def test_pruning_counts_the_counts_with_the_other_kinds(self, capsys, files, tmp_path, en_spec, monkeypatch):
        assert self.run(capsys, files)[0] == 0
        [entry] = folds_entries(files.cache)
        os.utime(entry, ns=(0, 10**9))  # the least recently used
        bound = sum(path.stat().st_size for path in files.cache.iterdir())
        path = TestCache().write(tmp_path, name="other.tsv")
        monkeypatch.setattr(_cache, "LIMIT_BYTES", bound)
        load_corpus(path, en_spec, cache_dir=files.cache)
        assert folds_entries(files.cache) == [] and len(list(files.cache.iterdir())) == 3

    @staticmethod
    def reached(module: str, start: str) -> dict[str, str]:
        """The package names that start, a top-level function of module (a
        file of the package), and every top-level name it reaches use,
        each with the file it is imported from; annotations do not count."""
        tree = ast.parse((Path(_cache.__file__).parent / module).read_text(encoding="utf-8"))
        imported, top = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                imported.update((alias.asname or alias.name, f"{node.module or alias.name}.py") for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    top.update({name.id: node for name in ast.walk(target) if isinstance(name, ast.Name)})
        for node in ast.walk(tree):
            if isinstance(node, ast.arg):
                node.annotation = None
            elif isinstance(node, ast.FunctionDef):
                node.returns = None
            elif isinstance(node, ast.AnnAssign):
                node.annotation = ast.Constant(None)
        used, reached, todo = {}, set(), [start]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                names = {node.id for node in ast.walk(top[name]) if isinstance(node, ast.Name)}
                used.update((name, imported[name]) for name in names & imported.keys())
                todo += sorted(names & top.keys())
        return used

    def test_the_folds_key_covers_the_counting(self):
        # the key hashes FOLDS_SOURCES: fold_counts, and all it reaches, use no other module of the package
        used = self.reached("crossval.py", "fold_counts")
        assert used == {"_cache": "_cache.py", "_cell_table": "spectrum.py"}
        assert self.reached("spectrum.py", "_cell_table") == {}
        assert set(used.values()) <= set(_cache.FOLDS_SOURCES) and set(_cache.SOURCES) <= set(_cache.FOLDS_SOURCES)
        # the check sees what the estimates use: the report builder reaches estimators and stats
        assert {"estimators.py", "stats.py"} <= set(self.reached("crossval.py", "crossval_report").values())

"""Class-spec and corpus file handling, plus the seeded shuffle."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hapaxprior import (
    ClassSpec,
    CorpusFormatError,
    TaggedCorpus,
    TokenRecord,
    load_class_spec,
    load_corpus,
    save_class_spec,
    save_corpus,
    shuffle_tokens,
)
from hapaxprior import corpus as corpus_module
from hapaxprior.corpus import shuffled_order

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
        " x", "x ", "#x", "x\ty", "x\u2028y", "x\x0by", "x\r\ny", "x\n", "x\x85", "\ufeffx",
    ])
    def test_save_refuses_a_form_it_cannot_write(self, tmp_path, ab_spec, form):
        corpus = TaggedCorpus.from_columns(ab_spec, ("a", form), [0, 1], [0, 1])
        out = tmp_path / "out.tsv"
        with pytest.raises(ValueError, match=re.escape(repr(form))):
            save_corpus(corpus, out)
        assert not out.exists()

    @pytest.mark.parametrize("tag", [" A", "A ", "A\tB", "A\nB", "A\u2028B"])
    def test_save_refuses_a_tag_it_cannot_write(self, tmp_path, tag):
        spec = ClassSpec(name="x", functions=("a", "b"), suffix="", tag_map={tag: "a", "B": "b"})
        corpus = TaggedCorpus.from_columns(spec, ("x", "y"), [0, 1], [0, 1])
        out = tmp_path / "out.tsv"
        with pytest.raises(ValueError, match=re.escape(f"tag {tag!r}")):
            save_corpus(corpus, out)
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
        assert corpus.form_ids.tolist() == [0, 1, 0, 1]
        assert corpus.functions.tolist() == [0, 1, 1, 0]
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

    def test_load_matches_a_line_by_line_oracle(self, tmp_path, en_spec, monkeypatch):
        path = tmp_path / "corpus.tsv"
        # blocks of 1 and 7 bytes put a block edge inside every break and bad line
        for block_bytes in (1, 7, corpus_module._BLOCK_BYTES):
            monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", block_bytes)
            rng = random.Random(20)
            errors = 0
            for _ in range(300):
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
                got = {"forms": list(corpus.forms), "form_ids": corpus.form_ids.tolist(),
                       "functions": corpus.functions.tolist(), "dropped": corpus.dropped}
                assert got == want, (block_bytes, repr(text))
                # the loader skips from_columns' checks; its columns pass them
                assert corpus == TaggedCorpus.from_columns(
                    en_spec, corpus.forms, corpus.form_ids, corpus.functions, corpus.dropped)
            assert 50 < errors < 250

    def test_from_columns_matches_tokens_and_is_read_only(self, ab_spec):
        corpus = TaggedCorpus.from_columns(ab_spec, ("x", "y"), [0, 1, 0], [1, 0, 0], dropped=2)
        assert corpus.tokens == (TokenRecord("x", 1), TokenRecord("y", 0), TokenRecord("x", 0))
        assert corpus == TaggedCorpus(ab_spec, corpus.tokens, dropped=2)
        with pytest.raises(ValueError):
            corpus.form_ids[0] = 1

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

    def test_from_columns_checks_the_suffix_per_form(self, en_spec):
        with pytest.raises(ValueError, match="huis"):
            TaggedCorpus.from_columns(en_spec, ("lopen", "huis"), [0, 1], [0, 0])


class TestShuffle:
    def test_same_seed_same_order(self, ab_spec):
        corpus = corpus_of(ab_spec, [(f"w{i}", i % 2) for i in range(30)])
        assert shuffle_tokens(corpus, 5).tokens == shuffle_tokens(corpus, 5).tokens

    def test_different_seed_usually_differs(self, ab_spec):
        corpus = corpus_of(ab_spec, [(f"w{i}", i % 2) for i in range(30)])
        assert shuffle_tokens(corpus, 1).tokens != shuffle_tokens(corpus, 2).tokens

    def test_matches_shuffled_order_helper(self, ab_spec):
        corpus = corpus_of(ab_spec, [(f"w{i}", 0) for i in range(12)])
        order = shuffled_order(12, seed=9)
        assert shuffle_tokens(corpus, 9).tokens == tuple(corpus.tokens[i] for i in order)

    @given(n=st.integers(0, 200), seed=st.integers(0, 2**64 - 1))
    def test_shuffled_order_is_a_permutation(self, n, seed):
        assert sorted(shuffled_order(n, seed)) == list(range(n))

    def test_shuffled_order_is_the_stdlib_shuffle_as_a_read_only_array(self):
        # n = 0..3 and 2**j - 1, 2**j, 2**j + 1, where the bit length of the
        # range drawn from changes; seeds of every size and sign
        sizes = sorted({0, 1, 2, 3} | {2**j + d for j in range(1, 13) for d in (-1, 0, 1)})
        seeds = [0, 1, 2, 7, 42, -1, -12345, 2**31 - 1, 2**32, 2**63 + 5, 2**64 - 1, 3**50]
        pairs = [(n, seed) for n in sizes for seed in seeds]
        pairs += [(n, seed) for n in (2**16 - 1, 2**16 + 1, 2**17 + 1) for seed in seeds[:2]]
        # the benchmark's sizes with the CLI's crossval seed cross every block
        # and bit-length boundary of the replay
        pairs += [(2**20 + 1, 1), (1_000_000, 1)]
        for n, seed in pairs:
            want = list(range(n))
            random.Random(seed).shuffle(want)
            order = shuffled_order(n, seed)
            assert isinstance(order, np.ndarray) and order.dtype == np.int64 and order.shape == (n,)
            assert not order.flags.writeable
            assert order.tolist() == want, (n, seed)
        assert len(pairs) > 400

    def test_shuffled_order_refuses_n_of_2_to_the_31(self):
        # refused before anything is allocated; never replay near this size
        with pytest.raises(ValueError, match="2147483648"):
            shuffled_order(2**31, 0)

    def test_preserves_multiset(self, ab_spec):
        rng = random.Random(3)
        corpus = corpus_of(ab_spec, [(f"w{rng.randint(1, 5)}", rng.randrange(2)) for _ in range(40)])
        shuffled = shuffle_tokens(corpus, 7)
        assert sorted((t.form, t.function) for t in shuffled.tokens) == sorted(
            (t.form, t.function) for t in corpus.tokens
        )
        assert shuffled.spec is corpus.spec

"""Command-line behavior: exit codes, output formats, determinism."""

import errno
import os
import random
import re
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import hapaxprior
from hapaxprior import cli
from hapaxprior.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


SPEC_TEXT = """\
name=dutch-en
suffix=en
functions=inf,pl
map V(inf) inf
map V(pl) pl
"""


def write_spec(tmp_path):
    path = tmp_path / "class.spec"
    path.write_text(SPEC_TEXT)
    return str(path)


def write_corpus(tmp_path, pairs, name="corpus.tsv"):
    tags = {0: "V(inf)", 1: "V(pl)"}
    path = tmp_path / name
    path.write_text("".join(f"{form}\t{tags[fn]}\n" for form, fn in pairs))
    return str(path)


def crossval_pairs(n=120, seed=1):
    """Frequent types plus an alternating-function hapax tail."""
    rng = random.Random(seed)
    pairs = [("hebben", rng.randrange(2)) for _ in range(15)]
    pairs += [("kunnen", rng.randrange(2)) for _ in range(15)]
    pairs += [(f"rare{i}en", i % 2) for i in range(n - 30)]
    rng.shuffle(pairs)
    return pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


class TestExitCodes:
    def test_usage_errors_exit_1(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, [("lopen", 0), ("eten", 1)])
        cases = [
            ["nosuchcommand"],
            ["spectrum", "--corpus", corpus],  # missing --class-spec
            ["crossval", "--corpus", corpus, "--class-spec", spec, "--k", "1"],
            ["crossval", "--corpus", corpus, "--class-spec", spec, "--ratio", "inf"],
            ["crossval", "--corpus", corpus, "--class-spec", spec, "--ratio", "inf/xx"],
            ["figure", "--corpus", corpus, "--class-spec", spec, "--smooth-window", "4"],
            ["priors", "--corpus", corpus, "--class-spec", spec],  # no forms
            ["priors", "--corpus", corpus, "--class-spec", spec,
             "--form", "lopen", "--threshold", "0"],
            ["synth", "--n-types", "10", "--target-tokens", "5", "--out",
             str(tmp_path / "s.tsv")],  # infeasible
            ["synth", "--n-types", "10", "--target-tokens", "20"],  # out is stdout
            ["synth", "--n-types", "10", "--target-tokens", "20", "--seed", "-1", "--out",
             str(tmp_path / "s.tsv")],
            ["crossval", "--corpus", corpus, "--class-spec", spec, "--ratio", "inf/inf"],
            # random.Random(-5) seeds as Random(5): a negative seed would alias
            ["crossval", "--corpus", corpus, "--class-spec", spec, "--seed", "-5"],
            ["report", "--corpus", corpus, "--class-spec", spec, "--seed", "-5"],
            ["synth", "--n-types", "10", "--target-tokens", "20", "--zipf-exponent", "nan",
             "--out", str(tmp_path / "s.tsv")],
            # a label no class-spec map line could name
            ["synth", "--n-types", "3", "--target-tokens", "10", "--functions", "a b,c",
             "--out", str(tmp_path / "s.tsv"), "--spec-out", str(tmp_path / "s.spec")],
            # two outputs in one file: the corpus would overwrite its sidecar
            ["synth", "--n-types", "10", "--target-tokens", "20", "--out", str(tmp_path / "s.tsv"),
             "--truth-out", str(tmp_path / "s.tsv")],
            ["synth", "--n-types", "10", "--target-tokens", "20", "--out", str(tmp_path / "s.tsv"),
             "--spec-out", str(tmp_path / "x" / ".." / "s.tsv")],
            ["synth", "--n-types", "10", "--target-tokens", "20", "--out", str(tmp_path / "s.tsv"),
             "--spec-out", str(tmp_path / "s.tsv.truth.csv")],
        ]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == 1, argv
            assert err.strip(), argv
        assert len(err.strip().splitlines()) == 1 and "name the same file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["class.spec", "corpus.tsv"]

    def test_data_errors_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        bad = tmp_path / "bad.tsv"
        bad.write_text("only one field\n")
        nohapax = write_corpus(
            tmp_path, [("lopen", 0)] * 6 + [("eten", 1)] * 6, name="nohapax.tsv"
        )
        latin1 = tmp_path / "latin1.tsv"
        latin1.write_bytes(b"lop\xffen\tV(inf)\n")
        latin1_spec = tmp_path / "latin1.spec"
        latin1_spec.write_bytes(SPEC_TEXT.encode() + b"map V(\xff) inf\n")
        latin1_forms = tmp_path / "latin1.txt"
        latin1_forms.write_bytes(b"lop\xffen\n")
        cases = [
            ["spectrum", "--corpus", str(tmp_path / "absent.tsv"), "--class-spec", spec],
            ["spectrum", "--corpus", str(bad), "--class-spec", spec],
            ["crossval", "--corpus", nohapax, "--class-spec", spec, "--k", "2"],
            ["spectrum", "--corpus", str(latin1), "--class-spec", spec],
            ["spectrum", "--corpus", nohapax, "--class-spec", str(latin1_spec)],
            ["priors", "--corpus", nohapax, "--class-spec", spec, "--forms-file", str(latin1_forms)],
        ]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert err.strip(), argv
        map_lines = "map V(inf) inf\nmap V(pl) pl\n"
        for name, text in (
            ("short.spec", "name=x\nsuffix=en\nfunctions=inf,pl\n"),
            ("order.spec", "suffix=en\nname=x\nfunctions=inf,pl\n" + map_lines),
            ("dup.spec", SPEC_TEXT + "map V(inf) pl\n"),
            ("unmapped.spec", "name=x\nsuffix=en\nfunctions=inf,pl,ger\n" + map_lines),
        ):
            bad_spec = tmp_path / name
            bad_spec.write_text(text)
            code, out, err = run(capsys, "spectrum", "--corpus", nohapax, "--class-spec", str(bad_spec))
            assert code == 2 and out == "", name
            assert len(err.splitlines()) == 1 and str(bad_spec) in err, name

    def test_memory_error_is_a_one_line_data_error(self, tmp_path, capsys, monkeypatch):
        argv = ["synth", "--n-types", "10", "--target-tokens", "20", "--out", str(tmp_path / "o.tsv")]
        # numpy's allocation failure names the size; the interpreter's own carries no message
        for error, line in ((MemoryError("Unable to allocate 745. GiB"), "Unable to allocate 745. GiB"),
                            (MemoryError(), "MemoryError")):
            def generate(spec, error=error):
                raise error

            monkeypatch.setattr("hapaxprior.cli.generate", generate)
            assert run(capsys, *argv) == (2, "", f"hapaxprior: {line}\n")
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "crossval", "--help")[0] == 0


class TestSpectrum:
    def test_summary_and_rows(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        corpus = write_corpus(
            tmp_path,
            [("lopen", 0), ("lopen", 1), ("eten", 0), ("kijken", 1), ("lopen", 0)],
        )
        code, out, err = run(capsys, "spectrum", "--corpus", corpus, "--class-spec", spec)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# hapaxprior spectrum ") and "seed=0" in lines[0]
        assert lines[1] == "# types=3 tokens=5 hapax_types=2 dropped=0"
        assert data_lines(out) == [
            "function,tokens,hapax_tokens",
            "inf,3,1",
            "pl,2,1",
        ]

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, crossval_pairs())
        code, out, _ = run(capsys, "spectrum", "--corpus", corpus, "--class-spec", spec)
        assert code == 0
        target = tmp_path / "out.csv"
        assert main(["spectrum", "--corpus", corpus, "--class-spec", spec,
                     "--out", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text() == out


class TestPriors:
    def test_frequent_form_first_function(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        pairs = [("lopen", 0)] * 92 + [("lopen", 1)] * 43
        pairs += [(f"zeldzaam{i}en", i % 2) for i in range(10)]
        corpus = write_corpus(tmp_path, pairs)
        code, out, _ = run(capsys, "priors", "--corpus", corpus, "--class-spec", spec,
                           "--form", "lopen")
        assert code == 0
        header, row = data_lines(out)
        assert header == "form,source,support,inf,pl"
        form, source, support, p_inf, p_pl = row.split(",")
        assert (form, source, support) == ("lopen", "backoff-form", "135")
        assert round(float(p_inf), 2) == 0.68
        assert float(p_inf) == pytest.approx(92 / 135, abs=1e-6)

    def test_unseen_form_uses_hapax_route(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        pairs = [("lopen", 0)] * 5 + [(f"r{i}en", i % 2) for i in range(4)]
        corpus = write_corpus(tmp_path, pairs)
        _, out, _ = run(capsys, "priors", "--corpus", corpus, "--class-spec", spec,
                        "--form", "nieuwen")
        row = data_lines(out)[1].split(",")
        assert row[1] == "backoff-hapax"
        assert float(row[3]) == pytest.approx(0.5)

    def test_fold_case_folds_the_query_and_prints_it_as_given(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        pairs = [("Lopen", 0), ("lopen", 1), ("lopen", 0)] + [(f"r{i}en", i % 2) for i in range(4)]
        corpus = write_corpus(tmp_path, pairs)
        _, out, _ = run(capsys, "priors", "--corpus", corpus, "--class-spec", spec, "--fold-case",
                        "--form", "Lopen", "--form", "lopen")
        assert data_lines(out)[1:] == [
            "Lopen,backoff-form,3,0.666667,0.333333",
            "lopen,backoff-form,3,0.666667,0.333333",
        ]

    def test_forms_file_and_repeated_flags(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, [("lopen", 0), ("eten", 1), ("praten", 0)])
        forms_file = tmp_path / "forms.txt"
        forms_file.write_text("# comment\neten\npraten\n")
        _, out, _ = run(capsys, "priors", "--corpus", corpus, "--class-spec", spec,
                        "--form", "lopen", "--forms-file", str(forms_file))
        rows = data_lines(out)[1:]
        assert [r.split(",")[0] for r in rows] == ["lopen", "eten", "praten"]


class TestCrossvalAndReport:
    def test_csv_shape(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, crossval_pairs())
        code, out, _ = run(capsys, "crossval", "--corpus", corpus, "--class-spec", spec,
                           "--k", "5", "--seed", "3")
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == ("run,n_inf,n_pl,omle,n1_inf,n1_pl,hmle,"
                            "n0_inf,n0_pl,e_o_inf,e_o_pl,e_h_inf,e_h_pl")
        assert len(lines) == 6
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3", "4", "5"]
        ttests = [l for l in out.splitlines() if l.startswith("# ttest ")]
        assert len(ttests) == 2
        assert ttests[0].startswith("# ttest overall t=")
        assert ttests[1].startswith("# ttest hapax t=")
        assert " df=4 " in ttests[0]

    def test_report_equals_crossval_numbers(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, crossval_pairs())
        args = ["--corpus", corpus, "--class-spec", spec, "--k", "4", "--seed", "9"]
        _, csv_out, _ = run(capsys, "crossval", *args)
        _, table_out, _ = run(capsys, "report", *args)

        csv_rows = [line.split(",")[1:] for line in data_lines(csv_out)[1:]]
        csv_columns = {str(i + 1): row for i, row in enumerate(csv_rows)}

        table_lines = [l for l in table_out.splitlines() if not l.startswith("#")]
        runs = table_lines[0].split()[1:]
        assert runs == ["1", "2", "3", "4"]
        for i, line in enumerate(table_lines[1:]):
            cells = line.split()[1:]
            for run_id, cell in zip(runs, cells):
                assert cell == csv_columns[run_id][i]

        assert [l for l in csv_out.splitlines() if l.startswith("# ttest")] == [
            l for l in table_out.splitlines() if l.startswith("# ttest")
        ]

    def test_ratio_flag_changes_orientation(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, crossval_pairs())
        _, fwd, _ = run(capsys, "crossval", "--corpus", corpus, "--class-spec", spec,
                        "--k", "3", "--ratio", "inf/pl")
        _, rev, _ = run(capsys, "crossval", "--corpus", corpus, "--class-spec", spec,
                        "--k", "3", "--ratio", "pl/inf")
        assert "ratio=inf/pl" in fwd.splitlines()[0]
        assert "ratio=pl/inf" in rev.splitlines()[0]
        # omle column flips to the other function's share
        o_fwd = float(data_lines(fwd)[1].split(",")[3])
        o_rev = float(data_lines(rev)[1].split(",")[3])
        assert o_fwd + o_rev == pytest.approx(1.0)


class TestFigure:
    def test_tiny_corpus_hand_trace(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, [("eten", 0), ("eten", 1), ("lopen", 0)])
        code, out, _ = run(capsys, "figure", "--corpus", corpus, "--class-spec", spec,
                           "--smooth-window", "3")
        assert code == 0
        assert data_lines(out) == [
            "frequency,log_frequency,n_types,proportion,smoothed",
            "1,0.000000,1,1.000000,1.000000",
            "2,0.693147,1,0.500000,0.500000",
        ]

    def test_smoothed_column_is_running_median(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        pairs = []
        # frequencies 1..6 with controlled per-class proportions
        for f in range(1, 7):
            for t in range(3):
                form = f"w{f}x{t}en"
                pairs += [(form, 0 if (f + t) % 2 else 1)] * f
        corpus = write_corpus(tmp_path, pairs)
        _, out, _ = run(capsys, "figure", "--corpus", corpus, "--class-spec", spec,
                        "--smooth-window", "3")
        rows = [line.split(",") for line in data_lines(out)[1:]]
        props = [float(r[3]) for r in rows]
        smoothed = [float(r[4]) for r in rows]
        assert smoothed[0] == props[0] and smoothed[-1] == props[-1]
        for i in range(1, len(props) - 1):
            assert smoothed[i] == pytest.approx(sorted(props[i - 1 : i + 2])[1])


class TestSynth:
    def test_writes_corpus_truth_and_spec(self, tmp_path, capsys):
        out = tmp_path / "gen.tsv"
        spec_out = tmp_path / "gen.spec"
        code, _, err = run(
            capsys, "synth", "--n-types", "30", "--target-tokens", "120",
            "--p-high", "0.9", "--p-low", "0.2", "--seed", "6",
            "--out", str(out), "--spec-out", str(spec_out),
        )
        assert code == 0
        assert "120 tokens" in err
        assert (tmp_path / "gen.tsv.truth.csv").exists()
        body = out.read_text().splitlines()
        assert body[0].startswith("# hapaxprior synth ") and "seed=6" in body[0]
        assert len(body) == 121

        # the generated pair loads straight back into the pipeline
        code, out2, _ = run(capsys, "spectrum", "--corpus", str(out),
                            "--class-spec", str(spec_out))
        assert code == 0
        assert "# types=30 tokens=120" in out2

    def test_truth_out_flag(self, tmp_path, capsys):
        truth = tmp_path / "custom_truth.csv"
        code, _, _ = run(
            capsys, "synth", "--n-types", "5", "--target-tokens", "20",
            "--out", str(tmp_path / "g.tsv"), "--truth-out", str(truth),
        )
        assert code == 0
        assert truth.read_text().startswith("form,true_p_reference\n")


class TestDeterminismAndNonMutation:
    def test_repeat_invocations_byte_identical(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, crossval_pairs())
        for argv in (
            ["crossval", "--corpus", corpus, "--class-spec", spec, "--k", "5", "--seed", "11"],
            ["figure", "--corpus", corpus, "--class-spec", spec],
            ["report", "--corpus", corpus, "--class-spec", spec, "--k", "3", "--seed", "2"],
        ):
            a = tmp_path / "a.out"
            b = tmp_path / "b.out"
            assert main([*argv, "--out", str(a)]) == 0
            assert main([*argv, "--out", str(b)]) == 0
            capsys.readouterr()
            assert a.read_bytes() == b.read_bytes()

        synth_argv = ["synth", "--n-types", "25", "--target-tokens", "100",
                      "--p-high", "0.8", "--p-low", "0.3", "--seed", "5"]
        outs = []
        for name in ("s1.tsv", "s2.tsv"):
            path = tmp_path / name
            assert main([*synth_argv, "--out", str(path),
                         "--truth-out", str(tmp_path / (name + ".t"))]) == 0
            capsys.readouterr()
            outs.append((path.read_bytes(), (tmp_path / (name + ".t")).read_bytes()))
        assert outs[0] == outs[1]

    def test_inputs_not_mutated(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, crossval_pairs())
        before = (Path(corpus).read_bytes(), Path(spec).read_bytes())
        for argv in (
            ["spectrum", "--corpus", corpus, "--class-spec", spec],
            ["priors", "--corpus", corpus, "--class-spec", spec, "--form", "hebben"],
            ["crossval", "--corpus", corpus, "--class-spec", spec, "--k", "3"],
            ["figure", "--corpus", corpus, "--class-spec", spec],
            ["report", "--corpus", corpus, "--class-spec", spec, "--k", "3"],
        ):
            assert main([*argv, "--out", str(tmp_path / "scratch.out")]) == 0
            capsys.readouterr()
        assert (Path(corpus).read_bytes(), Path(spec).read_bytes()) == before


class TestFailedRuns:
    def test_k_above_token_count_is_a_one_line_data_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, [("lopen", 0), ("eten", 1), ("zitten", 0)])
        for command in ("crossval", "report"):
            code, out, err = run(capsys, command, "--corpus", corpus, "--class-spec", spec, "--k", "5")
            assert code == 2, command
            assert out == ""
            assert err.count("\n") == 1 and "k = 5 exceeds the token count 3" in err

    def test_failed_run_leaves_out_file_alone(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        nohapax = write_corpus(tmp_path, [("lopen", 0)] * 6 + [("eten", 1)] * 6)
        failing = [
            ["priors", "--corpus", nohapax, "--class-spec", spec, "--form", "zen"],
            ["crossval", "--corpus", nohapax, "--class-spec", spec, "--k", "2"],
            ["report", "--corpus", nohapax, "--class-spec", spec, "--k", "2"],
        ]
        for argv in failing:
            fresh = tmp_path / "fresh.csv"
            assert main([*argv, "--out", str(fresh)]) == 2
            assert not fresh.exists(), argv
            existing = tmp_path / "existing.csv"
            existing.write_bytes(b"earlier output\n")
            assert main([*argv, "--out", str(existing)]) == 2
            assert existing.read_bytes() == b"earlier output\n", argv
        capsys.readouterr()

    def test_unreadable_spec_or_forms_file_is_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, [("lopen", 0), ("eten", 1)])
        code, _, err = run(capsys, "spectrum", "--corpus", corpus, "--class-spec", "./absent.spec")
        assert code == 2 and err.startswith("hapaxprior: cannot read class spec absent.spec: ")
        code, _, err = run(capsys, "priors", "--corpus", corpus, "--class-spec", spec,
                           "--forms-file", "./absent.txt")
        assert code == 2 and err.startswith("hapaxprior: cannot read forms file ./absent.txt: ")

    def test_non_utf8_file_is_a_one_line_data_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, [("lopen", 0), ("eten", 1)])
        # the position counts bytes after a byte-order mark, across the read blocks
        filler = b"lopen\tV(inf)\n" * 100_000  # more than one block
        for name, data, message in (
            ("latin1.txt", b"lop\xffen\tV(inf)\n", "can't decode byte 0xff in position 3: invalid start byte"),
            ("far.txt", b"\xef\xbb\xbf" + filler + b"lop\xffen\tV(inf)\n",
             "can't decode byte 0xff in position 1300003: invalid start byte"),
            ("cut.txt", filler + b"lop\xe2\x82\n",
             "can't decode bytes in position 1300003-1300004: invalid continuation byte"),
        ):
            latin1 = tmp_path / name
            latin1.write_bytes(data)
            for argv, what in (
                (["spectrum", "--corpus", str(latin1), "--class-spec", spec], "corpus"),
                (["spectrum", "--corpus", corpus, "--class-spec", str(latin1)], "class spec"),
                (["priors", "--corpus", corpus, "--class-spec", spec, "--forms-file", str(latin1)], "forms file"),
            ):
                code, out, err = run(capsys, *argv)
                assert code == 2 and out == "", (name, what)
                assert err == f"hapaxprior: cannot read {what} {latin1}: 'utf-8' codec {message}\n", (name, what)

    def test_no_hapaxes_fold_line_names_the_counts(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        nohapax = write_corpus(tmp_path, [("lopen", 0)] * 6 + [("eten", 1)] * 6)
        code, out, err = run(capsys, "crossval", "--corpus", nohapax, "--class-spec", spec, "--k", "2")
        assert code == 2 and out == ""
        assert err == (
            "hapaxprior: fold 1: hapax-based estimator undefined:"
            " no form occurs exactly once among 6 tokens of 2 types\n"
        )

    def test_failed_synth_sidecar_leaves_out_file_alone(self, tmp_path, capsys):
        missing_dir = tmp_path / "absent"
        for flag, target in (("--truth-out", "t.csv"), ("--spec-out", "s.spec")):
            argv = ["synth", "--n-types", "50", "--target-tokens", "200", flag, str(missing_dir / target)]
            fresh = tmp_path / "fresh.tsv"
            code, _, err = run(capsys, *argv, "--out", str(fresh))
            assert code == 2 and err.strip(), flag
            assert not fresh.exists(), flag
            existing = tmp_path / "existing.tsv"
            existing.write_bytes(b"earlier corpus\n")
            assert run(capsys, *argv, "--out", str(existing))[0] == 2
            assert existing.read_bytes() == b"earlier corpus\n", flag


class TestOutFile:
    def spectrum(self, tmp_path, capsys):
        """argv of a spectrum run without --out, and its output."""
        argv = ["spectrum", "--corpus", write_corpus(tmp_path, crossval_pairs()), "--class-spec", write_spec(tmp_path)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return argv, out

    def run_child(self, argv, limit=None, env=(), **options):
        """Run main(argv) in a child process, with env added to its
        environment, whose files may not grow past limit bytes if one is
        given."""
        script = ("import resource, sys\nfrom hapaxprior.cli import main\n"
                  f"if {limit}: resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(hapaxprior.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **dict(env)}
        options = {"capture_output": True, "text": True, **options}
        return subprocess.run([sys.executable, "-c", script, *argv], env=env, timeout=120, **options)

    def test_a_failed_write_leaves_the_old_out_file_and_no_temporary_file(self, tmp_path, capsys):
        argv, out = self.spectrum(tmp_path, capsys)
        directory = tmp_path / "out"
        directory.mkdir()
        existing = directory / "existing.csv"
        existing.write_bytes(b"earlier output\n")
        assert 100 < len(out.encode())
        for target in (existing, directory / "fresh.csv"):
            done = self.run_child([*argv, "--out", str(target)], 100)
            assert (done.returncode, done.stdout) == (2, "")
            assert done.stderr == f"hapaxprior: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
        assert list(directory.iterdir()) == [existing]
        assert existing.read_bytes() == b"earlier output\n"
        # the limit is what failed: above the output, the same run writes it
        assert self.run_child([*argv, "--out", str(existing)], 1 << 20).returncode == 0
        assert existing.read_text() == out and list(directory.iterdir()) == [existing]

    def test_a_failed_synth_leaves_each_file_whole_or_as_it_was(self, tmp_path):
        argv = ["synth", "--n-types", "20", "--target-tokens", "2000", "--out", "s.tsv", "--spec-out", "s.spec"]
        names = ["s.spec", "s.tsv", "s.tsv.truth.csv"]
        whole = tmp_path / "whole"
        whole.mkdir()
        assert self.run_child(argv, cwd=whole).returncode == 0
        new = {name: (whole / name).read_bytes() for name in names}
        assert sorted(p.name for p in whole.iterdir()) == names
        assert len(new["s.tsv"]) > max(len(new["s.spec"]), len(new["s.tsv.truth.csv"]))
        # first: the truth sidecar, written first, fails; last: both sidecars fit, and the corpus fails
        first, last = len(new["s.spec"]) // 2, max(len(new["s.spec"]), len(new["s.tsv.truth.csv"]))
        for limit, committed in ((first, []), (last, ["s.spec", "s.tsv.truth.csv"])):
            for existing in (False, True):
                directory = tmp_path / f"{limit}-{existing}"
                directory.mkdir()
                old = {name: f"old {name}\n".encode() for name in names} if existing else {}
                for name, data in old.items():
                    (directory / name).write_bytes(data)
                done = self.run_child(argv, limit, cwd=directory)
                assert (done.returncode, done.stdout) == (2, "")
                assert done.stderr == f"hapaxprior: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
                got = {p.name: p.read_bytes() for p in directory.iterdir()}
                want = {name: new[name] if name in committed else old.get(name) for name in names}
                assert got == {name: data for name, data in want.items() if data is not None}, (limit, existing)

    def test_text_that_is_not_utf8_is_written_as_the_bytes_stdout_gives(self, tmp_path, capsys):
        argv, _ = self.spectrum(tmp_path, capsys)
        odd = tmp_path / "s\udcff.tsv"  # a name holding the byte 0xff, as Python holds it
        odd.write_bytes(Path(argv[2]).read_bytes())
        c_locale = {"LC_ALL": "C", "PYTHONIOENCODING": "", "PYTHONUTF8": ""}
        strict = {**c_locale, "PYTHONIOENCODING": "utf-8:strict"}
        out = tmp_path / "case.out"
        for case in (["priors", *argv[1:], "--form", "lop\udcffen"], ["spectrum", "--corpus", str(odd), *argv[3:]]):
            assert run(capsys, *case, "--out", str(out)) == (0, "", "")
            written = out.read_bytes()
            assert b"\xff" in written
            done = self.run_child(case, env=c_locale, text=False)
            assert (done.returncode, done.stdout, done.stderr) == (0, written, b"")
            # a stdout that cannot encode the byte gets nothing, and the run one line
            done = self.run_child(case, env=strict)
            assert (done.returncode, done.stdout) == (2, "")
            assert re.fullmatch(r"hapaxprior: \[Errno \d+\] stdout \(utf-8\) cannot encode '\\udcff'.*\n",
                                done.stderr)
            # while --out does not depend on stdout
            out.unlink()
            assert self.run_child([*case, "--out", str(out)], env=strict).returncode == 0
            assert out.read_bytes() == written

    def test_the_out_file_gets_the_mode_a_plain_open_gives(self, tmp_path, capsys):
        argv, out = self.spectrum(tmp_path, capsys)
        existing, fresh = tmp_path / "existing.csv", tmp_path / "fresh.csv"
        existing.write_bytes(b"earlier output\n")
        existing.chmod(0o604)
        umask = os.umask(0o027)
        try:
            assert main([*argv, "--out", str(existing)]) == main([*argv, "--out", str(fresh)]) == 0
        finally:
            os.umask(umask)
        assert existing.read_text() == fresh.read_text() == out
        assert stat.S_IMODE(existing.stat().st_mode) == 0o604
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o640

    def test_an_out_file_that_may_not_be_written_is_refused(self, tmp_path, capsys, monkeypatch):
        argv, _ = self.spectrum(tmp_path, capsys)
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"earlier output\n")
        monkeypatch.setattr(os, "access", lambda path, mode: False)  # as for a read-only file, not as root
        assert run(capsys, *argv, "--out", str(existing)) == (
            2, "", f"hapaxprior: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{existing}'\n")
        assert existing.read_bytes() == b"earlier output\n"

    def test_a_symlink_is_followed(self, tmp_path, capsys):
        argv, out = self.spectrum(tmp_path, capsys)
        directory = tmp_path / "out"
        directory.mkdir()
        target, link, dangling = directory / "target.csv", directory / "link.csv", directory / "dangling.csv"
        target.write_bytes(b"earlier output\n")
        link.symlink_to(target)
        dangling.symlink_to(directory / "absent.csv")
        assert main([*argv, "--out", str(link)]) == main([*argv, "--out", str(dangling)]) == 0
        assert link.is_symlink() and dangling.is_symlink()
        assert target.read_text() == (directory / "absent.csv").read_text() == out
        assert sorted(p.name for p in directory.iterdir()) == ["absent.csv", "dangling.csv", "link.csv", "target.csv"]
        # links in a loop are refused, as open refuses them
        loop = directory / "loop.csv"
        loop.symlink_to(loop.name)
        assert run(capsys, *argv, "--out", str(loop)) == (
            2, "", f"hapaxprior: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: '{loop}'\n")
        assert loop.is_symlink() and len(list(directory.iterdir())) == 5

    def test_a_fifo_is_written_directly(self, tmp_path, capsys):
        argv, out = self.spectrum(tmp_path, capsys)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main([*argv, "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive() and got == [out.encode()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)


    def test_an_open_file_named_through_proc_is_written_not_replaced(self, tmp_path, capsys):
        argv, out = self.spectrum(tmp_path, capsys)
        # /dev/fd/N on a pipe
        read_end, write_end = os.pipe()
        try:
            done = self.run_child([*argv, "--out", f"/dev/fd/{write_end}"], pass_fds=[write_end])
            os.close(write_end)
            with open(read_end, "rb", closefd=False) as fh:
                got = fh.read()
        finally:
            os.close(read_end)
        assert (done.returncode, done.stderr, got) == (0, "", out.encode())
        # /dev/stdout on a pipe, directly and through a symlink
        link = tmp_path / "stdout"
        link.symlink_to("/dev/stdout")
        for target in ("/dev/stdout", str(link)):
            done = self.run_child([*argv, "--out", target])
            assert (done.returncode, done.stdout, done.stderr) == (0, out, "")
        # /dev/stdout and /dev/fd/N on a file that the caller redirected them to: the same file, not one
        # renamed over it, written at the offset the caller left, as a shell's { echo; ...; echo; } > f leaves it
        redirected = tmp_path / "redirected.csv"
        for target in ("/dev/stdout", "/dev/fd/{}"):
            with open(redirected, "wb") as fh:
                fh.write(b"header\n")
                fh.flush()
                done = self.run_child([*argv, "--out", target.format(fh.fileno())], capture_output=False,
                                      stdout=fh, stderr=subprocess.PIPE, pass_fds=[fh.fileno()])
                assert os.fstat(fh.fileno()).st_ino == redirected.stat().st_ino
                fh.write(b"trailer\n")
            assert (done.returncode, done.stderr) == (0, "")
            assert redirected.read_bytes() == b"header\n" + out.encode() + b"trailer\n", target
        assert sorted(p.name for p in tmp_path.iterdir()) == ["class.spec", "corpus.tsv", "redirected.csv", "stdout"]

    def test_a_file_that_a_rename_would_change_is_written_in_place(self, tmp_path, capsys, monkeypatch):
        argv, out = self.spectrum(tmp_path, capsys)
        directory = tmp_path / "out"
        directory.mkdir()
        linked, other = directory / "linked.csv", directory / "other.csv"
        linked.write_bytes(b"earlier output\n")
        os.link(linked, other)
        inode = linked.stat().st_ino
        assert main([*argv, "--out", str(linked)]) == 0
        assert linked.stat().st_ino == other.stat().st_ino == inode and other.read_text() == out
        other.unlink()
        if os.geteuid() == 0:  # only root can give a file away
            os.chown(linked, 65534, 65534)
            linked.write_bytes(b"earlier output\n")
            assert main([*argv, "--out", str(linked)]) == 0
            info = linked.stat()
            assert (info.st_ino, info.st_uid, info.st_gid, linked.read_text()) == (inode, 65534, 65534, out)
        # a directory that this process may not create files in (as for anyone but root)
        open_file = os.open

        def closed_directory(path, *args):
            if os.path.basename(path).startswith("."):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open_file(path, *args)

        kept, fresh = directory / "kept.csv", directory / "fresh.csv"
        kept.write_bytes(b"earlier output\n")
        inode = kept.stat().st_ino
        monkeypatch.setattr(os, "open", closed_directory)
        assert main([*argv, "--out", str(kept)]) == 0
        assert kept.stat().st_ino == inode and kept.read_text() == out
        assert run(capsys, *argv, "--out", str(fresh)) == (
            2, "", f"hapaxprior: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{fresh}'\n")
        assert sorted(p.name for p in directory.iterdir()) == ["kept.csv", "linked.csv"]


class TestCacheDir:
    @pytest.mark.parametrize("env, want", [
        ({"HAPAXPRIOR_CACHE_DIR": "/c", "XDG_CACHE_HOME": "/x"}, "/c"),
        ({"HAPAXPRIOR_CACHE_DIR": "c"}, "c"),
        ({"HAPAXPRIOR_CACHE_DIR": "", "XDG_CACHE_HOME": "/x"}, None),
        ({"XDG_CACHE_HOME": "/x"}, "/x/hapaxprior"),
        ({"XDG_CACHE_HOME": "x"}, "/h/.cache/hapaxprior"),  # relative: ignored
        ({"XDG_CACHE_HOME": ""}, "/h/.cache/hapaxprior"),
        ({}, "/h/.cache/hapaxprior"),
    ])
    def test_where_coded_corpora_are_cached(self, monkeypatch, env, want):
        monkeypatch.delenv("HAPAXPRIOR_CACHE_DIR")
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", "/h")
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert cli._cache_dir() == want

    def test_a_run_caches_in_the_home_directory_and_without_one_nowhere(self, tmp_path, capsys, monkeypatch):
        argv = ["spectrum", "--corpus", write_corpus(tmp_path, crossval_pairs()), "--class-spec", write_spec(tmp_path)]
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("HAPAXPRIOR_CACHE_DIR")
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(list((tmp_path / "home" / ".cache" / "hapaxprior").iterdir())) == 1
        # no HOME and no password entry: expanduser leaves "~" as it is
        monkeypatch.delenv("HOME")
        monkeypatch.setattr(os.path, "expanduser", lambda path: path)
        assert run(capsys, *argv) == (0, out, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["class.spec", "corpus.tsv", "home"]


class TestByteOrderMark:
    def test_bom_is_not_part_of_the_first_form_spec_or_forms_file(self, tmp_path, capsys):
        spec = tmp_path / "class.spec"
        spec.write_bytes("\ufeff".encode() + SPEC_TEXT.encode())
        corpus = tmp_path / "corpus.tsv"
        corpus.write_bytes("\ufeffxen\tV(inf)\nxen\tV(pl)\nyen\tV(pl)\n".encode())
        forms = tmp_path / "forms.txt"
        forms.write_bytes("\ufeffxen\n".encode())
        code, out, _ = run(capsys, "priors", "--corpus", str(corpus), "--class-spec", str(spec),
                           "--forms-file", str(forms))
        assert code == 0
        assert data_lines(out)[1] == "xen,backoff-form,2,0.500000,0.500000"


class TestColumnarPipeline:
    @pytest.fixture
    def built(self, monkeypatch):
        """Every TokenRecord and TypeCount constructed while the test runs."""
        from hapaxprior import TokenRecord, TypeCount

        built = []

        def counted(post_init):
            def wrapper(self):
                built.append(self)
                post_init(self)
            return wrapper

        for cls in (TokenRecord, TypeCount):
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__post_init__))
        return built

    def test_crossval_builds_no_per_token_or_per_type_objects(self, tmp_path, capsys, built):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, crossval_pairs())
        for command in ("crossval", "report"):
            code, _, _ = run(capsys, command, "--corpus", corpus, "--class-spec", spec, "--k", "5")
            assert code == 0
        assert built == []
        # the patch is live: the tokens view does build records
        from hapaxprior import load_class_spec, load_corpus
        load_corpus(corpus, load_class_spec(spec)).tokens
        assert built

    def test_spectrum_figure_priors_build_no_per_token_or_per_type_objects(self, tmp_path, capsys, built):
        from hapaxprior import build_spectrum, load_class_spec, load_corpus

        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, crossval_pairs())
        for argv in (
            ["spectrum"],
            ["figure", "--smooth-window", "3"],
            ["priors", "--form", "hebben", "--form", "rare3en", "--form", "neverseen",
             "--threshold", "2"],
        ):
            code, _, err = run(capsys, *argv, "--corpus", corpus, "--class-spec", spec)
            assert code == 0, (argv, err)
        assert built == []
        # the patch is live: the types view does build TypeCounts
        assert build_spectrum(load_corpus(corpus, load_class_spec(spec))).types
        assert built


class TestNoScipy:
    def test_crossval_and_report_import_no_scipy(self, tmp_path):
        spec = write_spec(tmp_path)
        corpus = write_corpus(tmp_path, crossval_pairs())
        script = (
            "import sys\n"
            "from hapaxprior.cli import main\n"
            "for argv in (['crossval', '--k', '5'], ['report', '--k', '5'], ['figure']):\n"
            f"    assert main([*argv, '--corpus', {corpus!r}, '--class-spec', {spec!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('numpy.random' in sys.modules)\n"
            "print([m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules])\n"
        )
        src = str(Path(hapaxprior.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        # numpy.random and statistics (with fractions and decimal) cost start-up
        # on every run; neither the fold shuffle nor the running median needs them
        assert done.stdout.splitlines()[-3:] == ["[]", "False", "[]"]


class TestReadme:
    def readme_commands(self):
        """Every `hapaxprior` command of the README's command-line example."""
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        block = next(b for b in blocks if "hapaxprior synth" in b)
        lines = block.replace("\\\n", " ").splitlines()
        return [shlex.split(line) for line in lines if line.startswith("hapaxprior ")]

    def test_every_readme_command_exits_0(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        commands = self.readme_commands()
        assert [argv[1] for argv in commands] == [
            "synth", "spectrum", "priors", "crossval", "report", "figure",
        ]
        for argv in commands:
            code, _, err = run(capsys, *argv[1:])
            assert code == 0, (argv, err)

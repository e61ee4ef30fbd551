"""Every file the package writes goes through _writer: whole or not at all."""

import ast
import errno
import subprocess
import sys
from pathlib import Path

import pytest

import hapaxprior

from conftest import child_env

PACKAGE = Path(hapaxprior.__file__).resolve().parent
WRITE_MODE = set("wax+")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def argument(call: ast.Call, position: int, keyword: str) -> ast.expr | None:
    if len(call.args) > position:
        return call.args[position]
    return next((kw.value for kw in call.keywords if kw.arg == keyword), None)


def opens_for_writing(call: ast.Call) -> bool:
    """Whether call opens a file for writing, or may: a mode or flags that
    the source does not spell out count as writing."""
    func = call.func
    if not isinstance(func, (ast.Name, ast.Attribute)):
        return False
    name = func.id if isinstance(func, ast.Name) else func.attr
    module = getattr(getattr(func, "value", None), "id", None)
    method = isinstance(func, ast.Attribute) and module not in ("os", "io", "codecs")  # a path's
    if method and name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    if module == "os":
        flags = argument(call, 1, "flags")
        names = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(flags) if isinstance(node, (ast.Attribute, ast.Name))}
        return bool(names & WRITE_FLAGS) or not all(n == "os" or n.startswith("O_") for n in names)
    # open(file, mode), io.open and codecs.open alike; a path's own open(mode) takes no file
    mode = argument(call, 0, "mode") if method else argument(call, 1, "mode")
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or not isinstance(mode.value, str) or bool(WRITE_MODE & set(mode.value))


def write_opens(path: Path) -> list[int]:
    """The lines of path's calls that open a file for writing."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and opens_for_writing(node)]


@pytest.mark.parametrize("source, writes", [
    ('open(p, "w")', True), ('open(p, mode="a")', True), ('open(p, "r+b")', True), ("open(p, m)", True),
    ('io.open(p, "x")', True), ('Path(p).open("w")', True), ("p.write_text(s)", True),
    ("os.open(p, os.O_WRONLY | os.O_CREAT)", True), ("os.open(p, flags)", True),
    ("open(p)", False), ('open(p, "rb")', False), ('Path(p).open("rb")', False), ("os.open(p, os.O_RDONLY)", False),
    ("fh.write(s)", False), ("write_text(p, texts)", False),
])
def test_the_guard_sees_what_opens_a_file_for_writing(source, writes):
    assert opens_for_writing(ast.parse(source).body[0].value) is writes


def test_only_the_writer_opens_a_file_for_writing():
    found = {path.name: write_opens(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("_writer.py"), "the writer opens its files itself"
    assert {name: lines for name, lines in found.items() if lines} == {}


# save_corpus, save_class_spec or save_truth (argv[1]) writes a synthetic
# corpus's file to argv[2], which may not grow past argv[3] bytes unless that
# is 0; an OSError exits with its errno
CHILD = """\
import resource, sys
from hapaxprior import SynthSpec, generate, save_class_spec, save_corpus, save_truth
corpus, truth = generate(SynthSpec(n_types=20, zipf_exponent=1.0, target_tokens=2000, p_high=0.3, p_low=0.9, seed=1))
writers = {"save_corpus": lambda path: save_corpus(corpus, path, header="synthetic"),
           "save_class_spec": lambda path: save_class_spec(corpus.spec, path),
           "save_truth": lambda path: save_truth(truth, path)}
limit = int(sys.argv[3])
if limit:
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
try:
    writers[sys.argv[1]](sys.argv[2])
except OSError as exc:
    sys.exit(exc.errno)
"""


def write_in_child(writer: str, path: Path, limit: int = 0) -> int:
    done = subprocess.run([sys.executable, "-c", CHILD, writer, str(path), str(limit)], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.stderr == ""
    return done.returncode


@pytest.mark.parametrize("writer", ["save_corpus", "save_class_spec", "save_truth"])
def test_a_library_writer_that_fails_leaves_the_file_as_it_was(tmp_path, writer):
    assert write_in_child(writer, tmp_path / "whole") == 0
    whole = (tmp_path / "whole").read_bytes()
    directory = tmp_path / "out"
    directory.mkdir()
    existing = directory / "existing"
    existing.write_bytes(b"earlier bytes\n")
    for target in (existing, directory / "fresh"):
        assert write_in_child(writer, target, len(whole) // 2) == errno.EFBIG
    assert list(directory.iterdir()) == [existing]
    assert existing.read_bytes() == b"earlier bytes\n"
    # the limit is what failed: above the file, the same write replaces it
    assert write_in_child(writer, existing, len(whole)) == 0
    assert existing.read_bytes() == whole and list(directory.iterdir()) == [existing]

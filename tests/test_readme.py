"""The README's "Library" examples run as written and show what they return."""

import re
import shlex
from pathlib import Path

import numpy as np

import hapaxprior
from hapaxprior.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def section(text, title):
    """The text of the README section headed `## title`, up to the next one."""
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_examples_run_and_show_their_values(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HAPAXPRIOR_CACHE_DIR", "")
    # the demo corpus, from the README's own synth line
    synth = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "hapaxprior synth" in b)
    line = next(line for line in synth.replace("\\\n", " ").splitlines() if line.startswith("hapaxprior synth"))
    assert main(shlex.split(line)[1:]) == 0

    blocks = re.findall(r"```python\n(.*?)```", section(text, "Library"), re.S)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)

    scope = {"array": np.array, **{name: getattr(hapaxprior, name) for name in hapaxprior.__all__}}
    checked = []
    for block in blocks:
        for line in block.splitlines():
            expr, _, comment = line.partition("  # ")
            try:
                want = eval(comment, scope)
            except (SyntaxError, NameError):  # prose, not a value
                continue
            got = eval(expr, namespace)
            same = np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want
            assert same, (expr.strip(), got, want)
            checked.append(expr.strip())
    assert len(checked) == 10, checked

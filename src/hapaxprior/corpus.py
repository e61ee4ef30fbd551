"""Tagged-corpus loading and projection onto an ambiguity class.

The corpus format is one token per line, ``form<TAB>tag``; lines starting
with ``#`` are comments and blank lines are ignored.  An ambiguity class
declares which surface forms and tags take part (e.g. Dutch forms in -en
that are either infinitives or finite plurals) and maps corpus tags onto a
small set of function labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class CorpusFormatError(ValueError):
    """Malformed corpus or class-spec file (carries the offending line number)."""


@dataclass(frozen=True)
class ClassSpec:
    """An ambiguity class: a surface filter plus a tag-to-function mapping.

    functions is the ordered list of function labels; tokens carry an index
    into it.  suffix is a literal suffix filter ("" matches every form).
    Every function label must be reachable from at least one corpus tag.
    """

    name: str
    functions: tuple[str, ...]
    suffix: str
    tag_map: dict[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "functions", tuple(self.functions))
        if len(self.functions) < 2:
            raise ValueError(f"class {self.name!r} needs >=2 function labels")
        if len(set(self.functions)) != len(self.functions):
            raise ValueError(f"class {self.name!r} has duplicate function labels")
        unknown = set(self.tag_map.values()) - set(self.functions)
        if unknown:
            raise ValueError(f"tag_map targets unknown labels: {sorted(unknown)}")
        unmapped = set(self.functions) - set(self.tag_map.values())
        if unmapped:
            raise ValueError(f"no corpus tag maps to: {sorted(unmapped)}")

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    def function_index(self, label: str) -> int:
        try:
            return self.functions.index(label)
        except ValueError:
            raise KeyError(f"unknown function label {label!r} for class {self.name!r}") from None

    def tag_for(self, function: int) -> str:
        """First corpus tag mapping to the given function (for serialization)."""
        label = self.functions[function]
        for tag, target in self.tag_map.items():
            if target == label:
                return tag
        raise KeyError(label)  # unreachable: __post_init__ guarantees coverage


@dataclass(frozen=True)
class TokenRecord:
    """One corpus token: surface form plus function index."""

    form: str
    function: int

    def __post_init__(self) -> None:
        if not self.form.strip():
            raise ValueError("token form is empty")
        if self.function < 0:
            raise ValueError(f"negative function index {self.function}")


@dataclass(frozen=True, init=False, eq=False)
class TaggedCorpus:
    """Tokens of one ambiguity class, in input order, held as columns.

    forms lists the distinct surface forms in first-occurrence order; token
    i has form forms[form_ids[i]] and function index functions[i] (both
    read-only int64 arrays).  tokens is a read-only view of the same tokens
    as TokenRecords, built on first access.  dropped counts input lines
    excluded by the suffix filter or an unmapped tag, so len(corpus) +
    dropped equals the number of data lines read.
    """

    spec: ClassSpec
    forms: tuple[str, ...]
    form_ids: np.ndarray
    functions: np.ndarray
    dropped: int

    def __init__(self, spec: ClassSpec, tokens: Iterable[TokenRecord] = (), dropped: int = 0) -> None:
        tokens = tuple(tokens)
        index: dict[str, int] = {}
        form_ids = [index.setdefault(tok.form, len(index)) for tok in tokens]
        self._set_columns(spec, tuple(index), form_ids, [tok.function for tok in tokens], dropped)
        self.__dict__["tokens"] = tokens

    @classmethod
    def from_columns(
        cls,
        spec: ClassSpec,
        forms: Sequence[str],
        form_ids: Sequence[int] | np.ndarray,
        functions: Sequence[int] | np.ndarray,
        dropped: int = 0,
    ) -> TaggedCorpus:
        """A corpus from interned columns, validated once per form and per array."""
        corpus = cls.__new__(cls)
        corpus._set_columns(spec, tuple(forms), form_ids, functions, dropped)
        return corpus

    def _set_columns(self, spec: ClassSpec, forms: tuple[str, ...], form_ids, functions, dropped: int) -> None:
        form_ids = np.array(form_ids, dtype=np.int64)
        functions = np.array(functions, dtype=np.int64)
        if form_ids.ndim != 1 or form_ids.shape != functions.shape:
            raise ValueError("form_ids and functions must be 1-D arrays of equal length")
        if len(set(forms)) != len(forms):
            raise ValueError("forms must be distinct")
        for form in forms:
            if not form.strip():
                raise ValueError("token form is empty")
            if not form.endswith(spec.suffix):
                raise ValueError(f"token {form!r} does not end with {spec.suffix!r}")
        if len(form_ids):
            # each id is at most one above every id before it: forms are
            # numbered in first-occurrence order and every form occurs
            bound = np.concatenate(([0], np.maximum.accumulate(form_ids)[:-1] + 1))
            numbered = form_ids.min() >= 0 and (form_ids <= bound).all() and form_ids.max() == len(forms) - 1
        else:
            numbered = not forms
        if not numbered:
            raise ValueError("form_ids must number every form in first-occurrence order")
        n = spec.n_functions
        bad = np.flatnonzero((functions < 0) | (functions >= n))
        if len(bad):
            i = bad[0]
            raise ValueError(f"token {forms[form_ids[i]]!r} has function index {functions[i]} outside 0..{n - 1}")
        form_ids.flags.writeable = False
        functions.flags.writeable = False
        for name, value in (("spec", spec), ("forms", forms), ("form_ids", form_ids),
                            ("functions", functions), ("dropped", dropped)):
            object.__setattr__(self, name, value)

    @cached_property
    def tokens(self) -> tuple[TokenRecord, ...]:
        # one shared record per distinct (form, function) pair
        n = self.spec.n_functions
        cells, inverse = np.unique(self.form_ids * n + self.functions, return_inverse=True)
        records = [TokenRecord(self.forms[cell // n], cell % n) for cell in cells.tolist()]
        return tuple(map(records.__getitem__, inverse.tolist()))

    def __len__(self) -> int:
        return len(self.form_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaggedCorpus):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.dropped == other.dropped
            and self.forms == other.forms
            and np.array_equal(self.form_ids, other.form_ids)
            and np.array_equal(self.functions, other.functions)
        )


def read_line_list(path: str | Path, what: str) -> list[tuple[int, str]]:
    """The numbered, stripped lines of a text file except blank and '#' lines;
    an unreadable file raises CorpusFormatError("cannot read <what> <path>: ...")."""
    try:
        raw = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise CorpusFormatError(f"cannot read {what} {path}: {exc}") from exc
    return [
        (no, line.strip())
        for no, line in enumerate(raw.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]


def load_class_spec(path: str | Path) -> ClassSpec:
    """Read an ambiguity-class file.

    Expected layout (blank and '#' lines ignored)::

        name=<id>
        suffix=<string>
        functions=<label>,<label>,...
        map <TAG> <label>
        ...
    """
    path = Path(path)
    lines = read_line_list(path, "class spec")
    if len(lines) < 4:
        raise CorpusFormatError(f"{path}: expected name=, suffix=, functions= and map lines")

    def keyval(idx: int, key: str) -> str:
        no, line = lines[idx]
        prefix = key + "="
        if not line.startswith(prefix):
            raise CorpusFormatError(f"{path}:{no}: expected '{prefix}...', got {line!r}")
        return line[len(prefix):].strip()

    name = keyval(0, "name")
    suffix = keyval(1, "suffix")
    functions = tuple(f.strip() for f in keyval(2, "functions").split(",") if f.strip())

    tag_map: dict[str, str] = {}
    for no, line in lines[3:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "map":
            raise CorpusFormatError(f"{path}:{no}: expected 'map <TAG> <label>', got {line!r}")
        _, tag, label = parts
        if tag in tag_map:
            raise CorpusFormatError(f"{path}:{no}: duplicate mapping for tag {tag!r}")
        tag_map[tag] = label

    try:
        return ClassSpec(name=name, functions=functions, suffix=suffix, tag_map=tag_map)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


_SKIPPED = -2  # blank or comment line
_DROPPED = -1  # suffix miss or unmapped tag


def load_corpus(path: str | Path, spec: ClassSpec, fold_case: bool = False) -> TaggedCorpus:
    """Load a ``form<TAB>tag`` file and project it onto `spec`.

    Tokens are kept iff the form ends with spec.suffix and the tag is mapped;
    everything else is counted in `dropped`.  A data line without exactly two
    tab-separated fields raises CorpusFormatError naming the line number.
    An empty result is not an error.  A leading UTF-8 byte-order mark is
    ignored.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8-sig").splitlines()
    except OSError as exc:
        raise CorpusFormatError(f"cannot read corpus {path}: {exc}") from exc

    n = spec.n_functions
    function_of = {tag: spec.function_index(label) for tag, label in spec.tag_map.items()}
    index: dict[str, int] = {}
    # A line's code is its cell form_id * n + function if kept, else
    # _DROPPED or _SKIPPED.  Each distinct line is parsed once; repeats of a
    # line reuse its code.
    codes: dict[str, int] = {}
    per_line: list[int] = []
    for line in lines:
        code = codes.get(line)
        if code is None:
            head = line.lstrip()
            if not head or head[0] == "#":
                code = _SKIPPED
            else:
                fields = line.split("\t")
                form = fields[0].strip()
                if len(fields) != 2 or not form:
                    # the first bad line: an earlier copy would have failed first
                    no = lines.index(line) + 1
                    if len(fields) != 2:
                        raise CorpusFormatError(
                            f"{path}:{no}: expected 'form<TAB>tag', got {len(fields)} fields"
                        )
                    raise CorpusFormatError(f"{path}:{no}: empty form")
                if fold_case:
                    form = form.lower()
                function = function_of.get(fields[1].strip())
                if function is None or not form.endswith(spec.suffix):
                    code = _DROPPED
                else:
                    code = index.setdefault(form, len(index)) * n + function
            codes[line] = code
        per_line.append(code)
    cells = np.array(per_line, dtype=np.int64)
    form_ids, functions = np.divmod(cells[cells >= 0], n)
    return TaggedCorpus.from_columns(
        spec, tuple(index), form_ids, functions, dropped=int(np.count_nonzero(cells == _DROPPED))
    )


def save_corpus(corpus: TaggedCorpus, path: str | Path, header: str | None = None) -> None:
    """Write a corpus back out in the ``form<TAB>tag`` format.

    Each function is serialized via its first mapped tag, so a reload under
    the same spec reproduces the token sequence.  `header`, if given, is
    written first as a '#' comment line.
    """
    tags = [corpus.spec.tag_for(i) for i in range(corpus.spec.n_functions)]
    forms = corpus.forms
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(f"# {header}\n")
        fh.writelines(
            f"{forms[i]}\t{tags[function]}\n"
            for i, function in zip(corpus.form_ids.tolist(), corpus.functions.tolist())
        )


def save_class_spec(spec: ClassSpec, path: str | Path) -> None:
    """Write an ambiguity-class file readable by load_class_spec."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"name={spec.name}\n")
        fh.write(f"suffix={spec.suffix}\n")
        fh.write(f"functions={','.join(spec.functions)}\n")
        for tag, label in spec.tag_map.items():
            fh.write(f"map {tag} {label}\n")


def shuffled_order(n: int, seed: int) -> list[int]:
    """The seeded permutation of range(n) that shuffle_tokens applies."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def shuffle_tokens(corpus: TaggedCorpus, seed: int) -> TaggedCorpus:
    """Return a seeded permutation of the corpus (same token multiset)."""
    tokens = corpus.tokens
    order = shuffled_order(len(tokens), seed)
    return TaggedCorpus(corpus.spec, (tokens[i] for i in order), corpus.dropped)

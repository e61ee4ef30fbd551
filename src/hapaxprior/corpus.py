"""Tagged-corpus loading and projection onto an ambiguity class.

The corpus format is one ``form<TAB>tag`` token per ``str.splitlines()`` line;
blank lines and lines whose first non-blank character is ``#`` are ignored.
An ambiguity class declares which surface forms and tags take part (e.g.
Dutch forms in -en that are either infinitives or finite plurals) and maps
corpus tags onto a small set of function labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Sequence, TypeVar

from . import _cache, _lines
from ._writer import write_text

if TYPE_CHECKING:
    import numpy as np

T = TypeVar("T")


class CorpusFormatError(ValueError):
    """Malformed corpus or class-spec file (carries the offending line number)."""


def int64_array(values, name: str) -> np.ndarray:
    """A new int64 array of values; ValueError naming `name` unless every
    value is an integer (floats, strings and booleans are refused, not cut).
    An empty sequence gives an empty array."""
    import numpy as np

    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, not {array.dtype} values")
    return np.array(array, dtype=np.int64)


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
    """Tokens of one ambiguity class, in input order, held as one column.

    forms lists the distinct surface forms in first-occurrence order; token
    i is the cell cells[i] = form_id * n + function (n = spec.n_functions)
    of a read-only int64 array: its form index is cells[i] // n and its
    function index cells[i] % n.  tokens, the same tokens as TokenRecords,
    is derived on first read.  dropped counts input lines excluded by the
    suffix filter or an unmapped tag, so len(corpus) + dropped equals the
    number of data lines read.
    """

    spec: ClassSpec
    forms: tuple[str, ...]
    cells: np.ndarray
    dropped: int

    def __init__(self, spec: ClassSpec, tokens: Iterable[TokenRecord] = (), dropped: int = 0) -> None:
        tokens = tuple(tokens)
        index: dict[str, int] = {}
        form_ids = [index.setdefault(tok.form, len(index)) for tok in tokens]
        checked = TaggedCorpus.from_columns(spec, tuple(index), form_ids, [tok.function for tok in tokens], dropped)
        self.__dict__.update(vars(checked), tokens=tokens)

    @classmethod
    def from_columns(
        cls,
        spec: ClassSpec,
        forms: Sequence[str],
        form_ids: Sequence[int] | np.ndarray,
        functions: Sequence[int] | np.ndarray,
        dropped: int = 0,
    ) -> TaggedCorpus:
        """A corpus of the cells of interned columns, validated once per form and per array."""
        import numpy as np

        forms = tuple(forms)
        if isinstance(dropped, bool) or not isinstance(dropped, (int, np.integer)) or dropped < 0:
            raise ValueError(f"dropped must be a non-negative integer, not {dropped!r}")
        form_ids = int64_array(form_ids, "form_ids")
        functions = int64_array(functions, "functions")
        if form_ids.ndim != 1 or form_ids.shape != functions.shape:
            raise ValueError("form_ids and functions must be 1-D arrays of equal length")
        if len(set(forms)) != len(forms):
            raise ValueError("forms must be distinct")
        for form in forms:
            if not form.strip():
                raise ValueError("token form is empty")
            if not form.endswith(spec.suffix):
                raise ValueError(f"token {form!r} does not end with {spec.suffix!r}")
        if not _cache._numbers_in_order(form_ids, len(forms)):
            raise ValueError("form_ids must number every form in first-occurrence order")
        n = spec.n_functions
        bad = np.flatnonzero((functions < 0) | (functions >= n))
        if len(bad):
            i = bad[0]
            raise ValueError(f"token {forms[form_ids[i]]!r} has function index {functions[i]} outside 0..{n - 1}")
        return cls._of_valid_cells(spec, forms, form_ids * n + functions, int(dropped))

    @classmethod
    def _of_valid_cells(cls, spec: ClassSpec, forms: tuple[str, ...], cells: np.ndarray, dropped: int) -> TaggedCorpus:
        """A corpus of the cells of columns that pass from_columns' checks,
        unchecked; it takes the int64 array over and makes it read-only."""
        corpus = cls.__new__(cls)
        cells.flags.writeable = False
        for name, value in (("spec", spec), ("forms", forms), ("cells", cells), ("dropped", dropped)):
            object.__setattr__(corpus, name, value)
        return corpus

    @cached_property
    def tokens(self) -> tuple[TokenRecord, ...]:
        import numpy as np

        # one shared record per distinct (form, function) pair
        n = self.spec.n_functions
        distinct, inverse = np.unique(self.cells, return_inverse=True)
        records = [TokenRecord(self.forms[cell // n], cell % n) for cell in distinct.tolist()]
        return tuple(map(records.__getitem__, inverse.tolist()))

    def __len__(self) -> int:
        return len(self.cells)

    def __eq__(self, other: object) -> bool:
        import numpy as np

        if not isinstance(other, TaggedCorpus):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.dropped == other.dropped
            and self.forms == other.forms
            and np.array_equal(self.cells, other.cells)
        )


def _is_text(value: str) -> bool:
    """Whether value holds no lone surrogate.  One stands for a byte that was
    not UTF-8, and is written back as that byte, which a reload cannot decode."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _unreadable(what: str, path: str | Path, exc: _lines.BadBytes) -> CorpusFormatError:
    """CorpusFormatError("cannot read <what> <path>: ...") with the codec's
    message for exc, its position counted in bytes after a leading
    byte-order mark, as decoding the whole file with utf-8-sig counts it."""
    error, before = exc.args
    if error.end - error.start == 1:
        where = f"byte 0x{error.object[error.start]:02x} in position {error.start + before}"
    else:
        where = f"bytes in position {error.start + before}-{error.end - 1 + before}"
    return CorpusFormatError(f"cannot read {what} {path}: '{error.encoding}' codec can't decode {where}: {error.reason}")


def read_line_list(path: str | Path, what: str) -> list[tuple[int, str]]:
    """The numbered, stripped lines of a UTF-8 text file except blank and '#'
    lines, a leading byte-order mark dropped; an unreadable file raises
    CorpusFormatError("cannot read <what> <path>: ...")."""
    try:
        with open(path, "rb") as fh:
            lines = map(str.strip, chain.from_iterable(_lines.line_lists(fh, 0, None, _lines.BLOCK_BYTES)))
            return [(no, line) for no, line in enumerate(lines, 1) if line and line[0] != "#"]
    except _lines.BadBytes as exc:
        raise _unreadable(what, path, exc) from None
    except OSError as exc:
        raise CorpusFormatError(f"cannot read {what} {path}: {exc}") from exc


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


def load_corpus(path: str | Path, spec: ClassSpec, fold_case: bool = False, *,
                cache_dir: str | Path | None = None) -> TaggedCorpus:
    """Load a ``form<TAB>tag`` file and project it onto `spec`.

    Tokens are kept iff the form ends with spec.suffix and the tag is mapped;
    everything else is counted in `dropped`.  A data line without exactly two
    tab-separated fields raises CorpusFormatError naming the line number.
    An empty result is not an error.  A leading UTF-8 byte-order mark is
    ignored.  The file is read in pieces, so the whole text is never held.

    _cache.coded codes the lines, a large regular file in parts on helper
    interpreters.  With a cache_dir it keeps a regular file's result there,
    keyed by the sha256 of its bytes, the coding options and the source of
    _lines and _cache, for later loads of the same bytes; the result and the
    first error are the ones a one-pass, uncached load gives.
    """
    cells, forms, dropped = _read(path, spec, fold_case, lambda fh, path, job: _cache.coded(fh, path, job, cache_dir))
    # the cells hold by construction what from_columns would check
    return TaggedCorpus._of_valid_cells(spec, forms, cells, dropped)


def _read(path: str | Path, spec: ClassSpec, fold_case: bool, read: Callable[[BinaryIO, Path, tuple], T]) -> T:
    """read(fh, path, job) of the corpus file at path, opened at its start,
    where job is the coding of spec and fold_case (_cache.coded's); a bad
    line, bytes that are not UTF-8 and a failed read raise
    CorpusFormatError as load_corpus documents."""
    path = Path(path)
    function_of = {tag: spec.function_index(label) for tag, label in spec.tag_map.items()}
    job = (_lines.BLOCK_BYTES, function_of, spec.n_functions, spec.suffix, fold_case)  # code_part's after end
    try:
        with open(path, "rb") as fh:
            return read(fh, path, job)
    except _lines.BadLine as exc:
        at, reason = exc.args
        raise CorpusFormatError(f"{path}:{at + 1}: {reason}") from None
    except _lines.BadBytes as exc:
        raise _unreadable("corpus", path, exc) from None
    except OSError as exc:
        raise CorpusFormatError(f"cannot read corpus {path}: {exc}") from exc


def save_corpus(corpus: TaggedCorpus, path: str | Path, header: str | None = None) -> None:
    """Write a corpus back out in the ``form<TAB>tag`` format.

    Each function is serialized via its first mapped tag, so a reload under
    the same spec reproduces the token sequence.  `header`, if given, is
    written first as a '#' comment line.  A form that would not read back as
    itself (empty, padded, starting with '#' or a byte-order mark, holding a
    tab, a line break or a lone surrogate), such a tag (padded, holding a
    tab, a line break or a lone surrogate), or a header holding a line
    break or a lone surrogate, raises ValueError before the file is opened.  The file is
    written whole or not at all, as every file the package writes.
    """
    forms = corpus.forms
    for form in forms:
        if (form.strip().splitlines() != [form] or form.startswith(("#", "\ufeff")) or "\t" in form
                or not _is_text(form)):
            raise ValueError(f"cannot save form {form!r}: a reload would not read it back")
    tag_map = corpus.spec.tag_map
    tags = [next(tag for tag, target in tag_map.items() if target == label) for label in corpus.spec.functions]
    for tag in tags:
        if tag.strip() != tag or len(tag.splitlines()) > 1 or "\t" in tag or not _is_text(tag):
            raise ValueError(f"cannot save tag {tag!r}: a reload would not read it back")
    if header is not None and (len(header.splitlines()) > 1 or not _is_text(header)):
        raise ValueError(f"cannot save header {header!r}: a reload would not read it back")
    n = corpus.spec.n_functions
    lines = (f"{forms[cell // n]}\t{tags[cell % n]}\n" for cell in corpus.cells.tolist())
    write_text(path, lines if header is None else chain([f"# {header}\n"], lines))


def save_class_spec(spec: ClassSpec, path: str | Path) -> None:
    """Write an ambiguity-class file that load_class_spec reads back as spec.

    A padded name or suffix, or one holding a line break, a function label
    holding whitespace or a comma, a tag holding whitespace, and any of them
    holding a lone surrogate raise ValueError before the file is opened.
    The file is written whole or not at all.
    """
    for what, value in (("name", spec.name), ("suffix", spec.suffix)):
        if value.strip() != value or len(value.splitlines()) > 1 or not _is_text(value):
            raise ValueError(f"cannot save class {what} {value!r}: a reload would not read it back")
    for label in spec.functions:
        if label.split() != [label] or "," in label or not _is_text(label):
            raise ValueError(f"cannot save function label {label!r}: a reload would not read it back")
    for tag in spec.tag_map:
        if tag.split() != [tag] or not _is_text(tag):
            raise ValueError(f"cannot save tag {tag!r}: a reload would not read it back")
    write_text(path, [
        f"name={spec.name}\n",
        f"suffix={spec.suffix}\n",
        f"functions={','.join(spec.functions)}\n",
        *(f"map {tag} {label}\n" for tag, label in spec.tag_map.items()),
    ])

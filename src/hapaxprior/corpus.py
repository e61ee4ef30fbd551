"""Tagged-corpus loading and projection onto an ambiguity class.

The corpus format is one ``form<TAB>tag`` token per ``str.splitlines()`` line;
blank lines and lines whose first non-blank character is ``#`` are ignored.
An ambiguity class declares which surface forms and tags take part (e.g.
Dutch forms in -en that are either infinitives or finite plurals) and maps
corpus tags onto a small set of function labels.
"""

from __future__ import annotations

import codecs
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

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
        """A corpus from interned columns, validated once per form and per array."""
        forms = tuple(forms)
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
        # each id is at most one above every id before it: forms are numbered
        # in first-occurrence order and every form occurs
        running = np.maximum.accumulate(np.concatenate(([-1], form_ids)))
        if form_ids.min(initial=0) < 0 or (np.diff(running) > 1).any() or running[-1] != len(forms) - 1:
            raise ValueError("form_ids must number every form in first-occurrence order")
        n = spec.n_functions
        bad = np.flatnonzero((functions < 0) | (functions >= n))
        if len(bad):
            i = bad[0]
            raise ValueError(f"token {forms[form_ids[i]]!r} has function index {functions[i]} outside 0..{n - 1}")
        return cls._of_valid_columns(spec, forms, form_ids, functions, dropped)

    @classmethod
    def _of_valid_columns(
        cls, spec: ClassSpec, forms: tuple[str, ...], form_ids: np.ndarray, functions: np.ndarray, dropped: int
    ) -> TaggedCorpus:
        """A corpus of columns that pass from_columns' checks, unchecked; it
        takes the int64 arrays over and makes them read-only."""
        corpus = cls.__new__(cls)
        form_ids.flags.writeable = False
        functions.flags.writeable = False
        for name, value in (("spec", spec), ("forms", forms), ("form_ids", form_ids),
                            ("functions", functions), ("dropped", dropped)):
            object.__setattr__(corpus, name, value)
        return corpus

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


# bytes per read; a piece handed to the decoder runs to the last b"\n" of a block
_BLOCK_BYTES = 1 << 20


def _line_pieces(fh: BinaryIO) -> Iterator[bytes]:
    """The bytes of fh after a leading UTF-8 byte-order mark, in pieces that
    each end after the last b"\n" of a block, the last one at the end of the
    file.  A file shorter than the mark and a prefix of it has no bytes, as
    under the utf-8-sig codec."""
    head = fh.read(3)
    pending = [] if codecs.BOM_UTF8.startswith(head) else [head]  # since the last b"\n"
    while block := fh.read(_BLOCK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            pending.append(block[:cut])
            yield b"".join(pending)
            pending = [block[cut:]]
        else:
            # joined once when a line ends, not rest + block per block
            pending.append(block)
    if rest := b"".join(pending):
        yield rest


def _decode_error(exc: UnicodeDecodeError, offset: int) -> str:
    """The codec's message for exc, its position counted offset bytes on."""
    start = exc.start + offset
    if exc.end - exc.start == 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{exc.end - 1 + offset}"
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


def _read_lines(path: str | Path, what: str) -> Iterator[list[str]]:
    """The str.splitlines() lines of a UTF-8 file, a leading byte-order mark
    dropped, as one list per piece of _line_pieces; an unreadable file raises
    CorpusFormatError("cannot read <what> <path>: ...").

    A cut after b"\n" is always a splitlines() boundary (b"\r\n" stays
    whole) and b"\n" never occurs inside a UTF-8 sequence, so each piece
    decodes and splits on its own as the whole text would.  A decode error
    counts its position in bytes after the mark, as decoding the whole file
    with utf-8-sig does.
    """
    try:
        with open(path, "rb") as fh:
            offset = 0  # bytes before this piece, after the mark
            for piece in _line_pieces(fh):
                try:
                    text = piece.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CorpusFormatError(f"cannot read {what} {path}: {_decode_error(exc, offset)}") from exc
                yield text.splitlines()
                offset += len(piece)
    except OSError as exc:
        raise CorpusFormatError(f"cannot read {what} {path}: {exc}") from exc


def read_line_list(path: str | Path, what: str) -> list[tuple[int, str]]:
    """The numbered, stripped lines of a text file except blank and '#' lines."""
    return [
        (no, line.strip())
        for no, line in enumerate(chain.from_iterable(_read_lines(path, what)), start=1)
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
    ignored.  The file is read in pieces, so the whole text is never held.
    """
    path = Path(path)
    n = spec.n_functions
    function_of = {tag: spec.function_index(label) for tag, label in spec.tag_map.items()}
    index: dict[str, int] = {}
    lines: list[str] = []  # the piece being coded
    done = 0  # lines before it

    class Codes(dict):
        """Line -> cell form_id * n + function if kept, else _DROPPED or
        _SKIPPED.  A line seen before is a lookup in C; each new distinct
        line is parsed once, in __missing__.  Kept across pieces: a per-piece
        memo would parse each piece's repeated lines again."""

        def __missing__(self, line: str) -> int:
            head = line.lstrip()
            if not head or head[0] == "#":
                self[line] = _SKIPPED
                return _SKIPPED
            fields = line.split("\t")
            form = fields[0].strip()
            if len(fields) != 2 or not form:
                # the first bad line: an earlier copy would have failed first
                no = done + lines.index(line) + 1
                if len(fields) != 2:
                    raise CorpusFormatError(f"{path}:{no}: expected 'form<TAB>tag', got {len(fields)} fields")
                raise CorpusFormatError(f"{path}:{no}: empty form")
            if fold_case:
                form = form.lower()
            function = function_of.get(fields[1].strip())
            if function is None or not form.endswith(spec.suffix):
                code = _DROPPED
            else:
                code = index.setdefault(form, len(index)) * n + function
            self[line] = code
            return code

    code = Codes().__getitem__
    kept = [np.empty(0, np.int64)]
    dropped = 0
    for lines in _read_lines(path, "corpus"):
        cells = np.fromiter(map(code, lines), np.int64, len(lines))
        kept.append(cells[cells >= 0])
        dropped += int(np.count_nonzero(cells == _DROPPED))
        done += len(lines)
    form_ids, functions = np.divmod(np.concatenate(kept), n)
    # the columns hold by construction what from_columns would check
    return TaggedCorpus._of_valid_columns(spec, tuple(index), form_ids, functions, dropped)


def save_corpus(corpus: TaggedCorpus, path: str | Path, header: str | None = None) -> None:
    """Write a corpus back out in the ``form<TAB>tag`` format.

    Each function is serialized via its first mapped tag, so a reload under
    the same spec reproduces the token sequence.  `header`, if given, is
    written first as a '#' comment line.  A form that would not read back as
    itself (empty, padded, starting with '#' or a byte-order mark, holding a
    tab or a line break), or such a tag (padded, holding a tab or a line
    break), raises ValueError before the file is opened.
    """
    forms = corpus.forms
    for form in forms:
        if form.strip().splitlines() != [form] or form.startswith(("#", "\ufeff")) or "\t" in form:
            raise ValueError(f"cannot save form {form!r}: a reload would not read it back")
    tag_map = corpus.spec.tag_map
    tags = [next(tag for tag, target in tag_map.items() if target == label) for label in corpus.spec.functions]
    for tag in tags:
        if tag.strip() != tag or len(tag.splitlines()) > 1 or "\t" in tag:
            raise ValueError(f"cannot save tag {tag!r}: a reload would not read it back")
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(f"# {header}\n")
        fh.writelines(
            f"{forms[i]}\t{tags[function]}\n"
            for i, function in zip(corpus.form_ids.tolist(), corpus.functions.tolist())
        )


def save_class_spec(spec: ClassSpec, path: str | Path) -> None:
    """Write an ambiguity-class file that load_class_spec reads back as spec.

    A padded name or suffix, or one holding a line break, a function label
    holding whitespace or a comma, and a tag holding whitespace raise
    ValueError before the file is opened.
    """
    for what, value in (("name", spec.name), ("suffix", spec.suffix)):
        if value.strip() != value or len(value.splitlines()) > 1:
            raise ValueError(f"cannot save class {what} {value!r}: a reload would not read it back")
    for label in spec.functions:
        if label.split() != [label] or "," in label:
            raise ValueError(f"cannot save function label {label!r}: a reload would not read it back")
    for tag in spec.tag_map:
        if tag.split() != [tag]:
            raise ValueError(f"cannot save tag {tag!r}: a reload would not read it back")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"name={spec.name}\n")
        fh.write(f"suffix={spec.suffix}\n")
        fh.write(f"functions={','.join(spec.functions)}\n")
        for tag, label in spec.tag_map.items():
            fh.write(f"map {tag} {label}\n")


def _swap_targets(rng: random.Random, n: int) -> np.ndarray:
    """targets[i] = rng._randbelow(i + 1) for i = n-1 .. 1, drawn in that
    order from rng's words as random.shuffle draws them (targets[0] is 0).

    A draw for modulus m takes the top k = m.bit_length() bits of a word
    and rejects them while >= m.  Within a run of equal k the words are
    decided in blocks of at most b acceptances: before the block's b-th
    acceptance the modulus is above m - b, so a value <= m - b is surely
    accepted and one >= m surely rejected; only the values in between are
    decided one by one.
    """
    targets = np.zeros(n, np.int32)
    words = np.empty(0, np.uint32)  # drawn, not yet used
    m = n  # the modulus of the next draw, i + 1
    while m >= 2:
        k = m.bit_length()
        low = 1 << (k - 1)
        block = 8 << (k // 2)
        while m >= low:
            b = min(block, m - low + 1)
            want = b * (1 << k) // (m - b + 1) + 16
            if want > len(words):
                more = max(want, min(m + m // 2, 1 << 20))
                fresh = np.frombuffer(rng.getrandbits(32 * more).to_bytes(4 * more, "little"), "<u4")
                words = np.concatenate((words, fresh))
            r = words[:want] >> (32 - k)
            accept = r <= m - b
            between = np.flatnonzero((r > m - b) & (r < m))
            decided = 0  # acceptances among the in-between values so far
            for t, before, value in zip(between.tolist(), np.cumsum(accept)[between].tolist(),
                                        r[between].tolist()):
                if before + decided >= b:
                    break
                if value < m - before - decided:
                    accept[t] = True
                    decided += 1
            taken = np.flatnonzero(accept)[:b]
            targets[m - len(taken):m][::-1] = r[taken]
            used = taken[-1] + 1 if len(taken) == b else want
            words = words[used:]
            m -= len(taken)
    return targets


def shuffled_order(n: int, seed: int) -> np.ndarray:
    """The permutation random.Random(seed).shuffle(list(range(n))) leaves,
    as a read-only int64 array; shuffle_tokens applies it.  n must be below
    2**31 (ValueError otherwise): the replay indexes positions as int32.

    That stdlib shuffle defines the permutation.  It is computed by
    replaying the words of the same generator in numpy: step s (n-1 down to
    1) swaps positions s and j_s <= s, after which position s is final.  So
    position s ends with the value position j_s held before step s: V(t)
    for the nearest earlier step t > s with j_t = j_s, else j_s itself.
    V(t), the value position t holds before step t, is V(f(t)) for the
    first step f(t) > t with j = t, else t; the chains resolve by pointer
    doubling.  Position 0 ends with V(0).
    """
    if n >= 2**31:
        raise ValueError(f"cannot replay a shuffle of {n} items: n must be below 2**31")
    permutation = np.arange(n, dtype=np.int64)
    if n >= 2:
        bits = np.uint64((n - 1).bit_length())
        # steps sorted by (target, step) in one sort of packed keys
        keys = _swap_targets(random.Random(seed), n)[1:].astype(np.uint64) << bits
        keys |= np.arange(1, n, dtype=np.uint64)
        keys.sort()
        target = (keys >> bits).astype(np.int32)
        keys &= (np.uint64(1) << bits) - np.uint64(1)
        step = keys.astype(np.int32)
        del keys
        same = target[1:] == target[:-1]
        later = np.full(n - 1, -1, np.int32)  # the next step with the same target, else -1
        later[:-1][same] = step[1:][same]
        heads = np.flatnonzero(np.concatenate(([True], ~same)))
        # f(p): a group's first step, or the next one where the first is step p itself
        first = np.where(step[heads] == target[heads], later[heads], step[heads])
        found = first >= 0
        chain = np.arange(n, dtype=np.int32)
        chain[target[heads][found]] = first[found]
        del same, heads, first, found
        todo = np.flatnonzero(chain[chain] != chain)
        while len(todo):
            chain[todo] = chain[chain[todo]]
            todo = todo[chain[chain[todo]] != chain[todo]]
        permutation[step] = np.where(later >= 0, chain[later], target)
        permutation[0] = chain[0]
    permutation.flags.writeable = False
    return permutation


def shuffle_tokens(corpus: TaggedCorpus, seed: int) -> TaggedCorpus:
    """Return a seeded permutation of the corpus (same token multiset)."""
    tokens = corpus.tokens
    order = shuffled_order(len(tokens), seed)
    return TaggedCorpus(corpus.spec, (tokens[i] for i in order), corpus.dropped)

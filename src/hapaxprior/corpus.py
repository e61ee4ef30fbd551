"""Tagged-corpus loading and projection onto an ambiguity class.

The corpus format is one ``form<TAB>tag`` token per ``str.splitlines()`` line;
blank lines and lines whose first non-blank character is ``#`` are ignored.
An ambiguity class declares which surface forms and tags take part (e.g.
Dutch forms in -en that are either infinitives or finite plurals) and maps
corpus tags onto a small set of function labels.
"""

from __future__ import annotations

import codecs
import os
import random
import stat
import struct
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from pathlib import Path
from typing import BinaryIO, Collection, Iterable, Sequence

import numpy as np

from . import _cache, _lines
from ._writer import write_text


class CorpusFormatError(ValueError):
    """Malformed corpus or class-spec file (carries the offending line number)."""


def int64_array(values, name: str) -> np.ndarray:
    """A new int64 array of values; ValueError naming `name` unless every
    value is an integer (floats, strings and booleans are refused, not cut).
    An empty sequence gives an empty array."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, not {array.dtype} values")
    return np.array(array, dtype=np.int64)


def _numbers_in_order(form_ids: np.ndarray, n_forms: int) -> bool:
    """Whether form_ids number n_forms forms in first-occurrence order, each
    of them used: every id is at most one above every id before it, and the
    largest is n_forms - 1."""
    running = np.maximum.accumulate(np.concatenate(([-1], form_ids)))
    return form_ids.min(initial=0) >= 0 and not (np.diff(running) > 1).any() and running[-1] == n_forms - 1


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
        if not _numbers_in_order(form_ids, len(forms)):
            raise ValueError("form_ids must number every form in first-occurrence order")
        n = spec.n_functions
        bad = np.flatnonzero((functions < 0) | (functions >= n))
        if len(bad):
            i = bad[0]
            raise ValueError(f"token {forms[form_ids[i]]!r} has function index {functions[i]} outside 0..{n - 1}")
        return cls._of_valid_columns(spec, forms, form_ids, functions, int(dropped))

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


def _unreadable(what: str, path: str | Path, exc: _lines.BadBytes, offset: int = 0) -> CorpusFormatError:
    """CorpusFormatError("cannot read <what> <path>: ...") with the codec's
    message for exc, its position counted in bytes after a leading
    byte-order mark, as decoding the whole file with utf-8-sig counts it;
    offset is the number of those bytes before the part exc was raised in."""
    error, before = exc.args
    offset += before
    if error.end - error.start == 1:
        where = f"byte 0x{error.object[error.start]:02x} in position {error.start + offset}"
    else:
        where = f"bytes in position {error.start + offset}-{error.end - 1 + offset}"
    return CorpusFormatError(f"cannot read {what} {path}: '{error.encoding}' codec can't decode {where}: {error.reason}")


def read_line_list(path: str | Path, what: str) -> list[tuple[int, str]]:
    """The numbered, stripped lines of a UTF-8 text file except blank and '#'
    lines, a leading byte-order mark dropped; an unreadable file raises
    CorpusFormatError("cannot read <what> <path>: ...")."""
    try:
        with open(path, "rb") as fh:
            return [
                (no, line.strip())
                for no, line in enumerate(chain.from_iterable(_lines.line_lists(fh, 0, None, _lines.BLOCK_BYTES)), 1)
                if line.strip() and not line.lstrip().startswith("#")
            ]
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


# the least bytes a helper codes: a smaller part costs more to start and merge than it saves
_PART_BYTES = 2 << 20


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _parts(fh: BinaryIO) -> list[tuple[int, int | None, int]]:
    """(start, end, offset) of each part load_corpus codes on its own: end
    None reads to the end of the stream, and offset counts the bytes before
    start that follow a leading byte-order mark.

    One part, the whole stream, unless fh is a regular file of at least two
    parts of _PART_BYTES and the process may use 2 or more CPUs; then at most
    one part per usable CPU and per _PART_BYTES.  Each inner bound lies right
    after the first b"\n" at or after its share of the file minus one byte;
    a share whose bound would not lie past the one before it gets none.
    """
    info = os.fstat(fh.fileno())
    size = info.st_size
    n_parts = min(_usable_cpus(), size // _PART_BYTES) if stat.S_ISREG(info.st_mode) and sys.executable else 1
    if n_parts < 2:
        return [(0, None, 0)]
    bounds = [0]
    for i in range(1, n_parts):
        fh.seek(size * i // n_parts - 1)
        while (line := fh.readline(_lines.BLOCK_BYTES)) and not line.endswith(b"\n"):
            pass
        if (at := fh.tell()) >= size:
            break
        if at > bounds[-1]:
            bounds.append(at)
    bounds.append(size)
    fh.seek(0)
    mark = len(codecs.BOM_UTF8) if fh.read(3) == codecs.BOM_UTF8 else 0
    fh.seek(0)
    return [(start, end, start and start - mark) for start, end in zip(bounds, bounds[1:])]


def _start_helpers(path: Path, parts: list[tuple[int, int | None, int]], job: tuple) -> list:
    """One helper interpreter per part, each running _lines as a script on
    its byte range and job, the arguments of _lines.code_part after end; None
    for a part whose helper could not be started."""
    if not parts:
        return []
    import json
    import subprocess

    helpers = []
    for start, end, _ in parts:
        try:
            helpers.append(subprocess.Popen(
                [sys.executable, "-I", "-S", _lines.__file__, json.dumps([os.fspath(path), start, end, *job])],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL))
        except OSError:
            helpers.append(None)
    return helpers


def _stop_helpers(helpers: list) -> None:
    """Kill (when still running) and reap every helper."""
    for proc in helpers:
        if proc is not None:
            proc.kill()  # a no-op for one already reaped
            proc.wait()
            proc.stdout.close()


def _helper_result(proc, n: int, max_lines: int) -> tuple[np.ndarray, list[str]] | None:
    """(codes, forms) a helper wrote, as _lines.code_part returns them (forms
    as a list); None if it failed or wrote a malformed result: one with more
    than max_lines lines, a code out of range, forms that are not all used in
    first-occurrence order, or a repeated form (which the merge would number
    twice if new, and give one id if not)."""
    out = proc.stdout
    try:
        n_lines, n_forms, n_joined = _lines.HEADER.unpack(out.read(_lines.HEADER.size))
        if n_lines > max_lines:
            return None
        codes = np.empty(n_lines, np.int64)
        if out.readinto(codes) != codes.nbytes:
            return None
        joined = out.read()
        if proc.wait() or len(joined) != n_joined:
            return None
        forms = joined.decode("utf-8").split("\n") if n_forms else []
    except (OSError, ValueError, struct.error):
        return None
    if (len(forms) != n_forms or codes.min(initial=0) < _lines.SKIPPED
            or not _numbers_in_order(codes[codes >= 0] // n, n_forms) or len(set(forms)) < n_forms):
        return None
    return codes, forms


def _merge_forms(index: dict[str, int], forms: Collection[str], n: int, last: bool) -> tuple[np.ndarray, list[str]]:
    """(cell_map, unindexed) for a part whose distinct forms, in its own
    numbering, are forms: per cell of that numbering the cell under index's
    numbering, where the forms index lacks are numbered after index's, in
    the part's order.  Those forms enter index, unless the part is the last:
    no later part looks them up, so they are returned as unindexed, to
    follow index's forms."""
    ids = np.fromiter(map(index.get, forms, repeat(-1)), np.int64, len(forms))  # one lookup per form
    new = ids < 0
    ids[new] = np.arange(len(index), len(index) + np.count_nonzero(new))
    unindexed = list(compress(forms, new.tolist()))
    if not last:
        index.update(zip(unindexed, ids[new].tolist()))
        unindexed = []
    return (ids[:, None] * n + np.arange(n)).ravel(), unindexed


def _code(path: Path, fh: BinaryIO, job: tuple) -> tuple[np.ndarray, tuple[str, ...], int]:
    """(cells, forms, dropped) of the corpus file fh, opened at path at its
    start, coded with job, the arguments of _lines.code_part after end:
    the form_id * n + function of each kept line as a new int64 array, the
    forms in first-occurrence order and the number of dropped lines."""
    n = job[2]  # code_part's
    kept = []
    dropped = done = 0  # done: lines before the part being coded
    parts = _parts(fh)
    helpers = _start_helpers(path, parts[1:], job)
    try:
        for i, ((start, end, offset), helper) in enumerate(zip(parts, [None, *helpers])):
            try:
                codes, forms = (helper and _helper_result(helper, n, end - start)
                                or _lines.code_part(fh, start, end, *job))
            except _lines.BadLine as exc:
                at, reason = exc.args
                raise CorpusFormatError(f"{path}:{done + at + 1}: {reason}") from None
            except _lines.BadBytes as exc:
                raise _unreadable("corpus", path, exc, offset) from None
            codes = np.frombuffer(codes, np.int64)
            cells = codes[codes >= 0]
            if i:
                cell_map, unindexed = _merge_forms(index, forms, n, i == len(parts) - 1)
                cells = cell_map[cells]
            else:  # the first part numbers its forms as the columns do
                index, unindexed = forms, []
            kept.append(cells)
            dropped += int(np.count_nonzero(codes == _lines.DROPPED))
            done += len(codes)
    finally:
        _stop_helpers(helpers)
    del codes, cells  # the last part's, before the columns take memory
    return np.concatenate(kept), tuple(chain(index, unindexed)), dropped


def load_corpus(path: str | Path, spec: ClassSpec, fold_case: bool = False, *,
                cache_dir: str | Path | None = None) -> TaggedCorpus:
    """Load a ``form<TAB>tag`` file and project it onto `spec`.

    Tokens are kept iff the form ends with spec.suffix and the tag is mapped;
    everything else is counted in `dropped`.  A data line without exactly two
    tab-separated fields raises CorpusFormatError naming the line number.
    An empty result is not an error.  A leading UTF-8 byte-order mark is
    ignored.  The file is read in pieces, so the whole text is never held.

    A large regular file is cut into parts (see _parts) and coded in
    parallel: this process codes the first part with _lines.code_part while
    stdlib-only helper interpreters (``python -I -S``) run it on the later
    ones.  A part whose helper fails for any reason is coded here instead.
    The first part's forms are the index that each later part's forms are
    merged into, in file order, so the result and the first error are the
    ones a single pass gives.

    With a cache_dir, the coded result of a regular file is cached there,
    keyed by the sha256 of the file's bytes, the coding options and the
    coder's source (see _cache.Slot), and a later load of the same bytes
    reads it instead of coding them.  A missing entry, a bad one and one
    whose cells do not number its forms are misses, which write it anew;
    an entry that cannot be written is skipped.  The result is the same.
    """
    path = Path(path)
    n = spec.n_functions
    function_of = {tag: spec.function_index(label) for tag, label in spec.tag_map.items()}
    job = (_lines.BLOCK_BYTES, function_of, n, spec.suffix, fold_case)  # code_part's arguments after end
    try:
        with open(path, "rb") as fh:
            slot = cache_dir is not None and _cache.Slot.of(fh, os.fspath(path), cache_dir, job[1:])
            coded = slot and slot.read()
            if coded and not _numbers_in_order(coded[0] // n, len(coded[1])):
                coded = None  # an entry that the coder cannot have written
            if not coded:
                coded = _code(path, fh, job)
                if slot:
                    slot.write(fh, *coded)
    except OSError as exc:
        raise CorpusFormatError(f"cannot read corpus {path}: {exc}") from exc
    form_ids, forms, dropped = coded
    functions = form_ids % n
    form_ids //= n  # in place: at 10M tokens each column takes 80 MB
    # the columns hold by construction what from_columns would check
    return TaggedCorpus._of_valid_columns(spec, forms, form_ids, functions, dropped)


def save_corpus(corpus: TaggedCorpus, path: str | Path, header: str | None = None) -> None:
    """Write a corpus back out in the ``form<TAB>tag`` format.

    Each function is serialized via its first mapped tag, so a reload under
    the same spec reproduces the token sequence.  `header`, if given, is
    written first as a '#' comment line.  A form that would not read back as
    itself (empty, padded, starting with '#' or a byte-order mark, holding a
    tab or a line break), or such a tag (padded, holding a tab or a line
    break), raises ValueError before the file is opened.  The file is
    written whole or not at all, as every file the package writes.
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
    lines = (
        f"{forms[i]}\t{tags[function]}\n"
        for i, function in zip(corpus.form_ids.tolist(), corpus.functions.tolist())
    )
    write_text(path, lines if header is None else chain([f"# {header}\n"], lines))


def save_class_spec(spec: ClassSpec, path: str | Path) -> None:
    """Write an ambiguity-class file that load_class_spec reads back as spec.

    A padded name or suffix, or one holding a line break, a function label
    holding whitespace or a comma, and a tag holding whitespace raise
    ValueError before the file is opened.  The file is written whole or not
    at all.
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
    write_text(path, [
        f"name={spec.name}\n",
        f"suffix={spec.suffix}\n",
        f"functions={','.join(spec.functions)}\n",
        *(f"map {tag} {label}\n" for tag, label in spec.tag_map.items()),
    ])


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
    as a read-only int64 array: position i of a shuffled corpus holds token
    shuffled_order(n, seed)[i].  n must be below
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

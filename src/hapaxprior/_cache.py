"""Corpus coding and the content-keyed cache of its results, of fold
orders and of fold counts.

coded() gives a corpus file's cells from the cache entry of its bytes
under one set of coding options, or codes the file and stores them.
ordered() gives the fold order of n tokens under a seed from its entry,
or shuffles and stores it.  fold_counted() gives the fold counts of a
corpus file from their entry, or codes the file (through the corpus
entry), counts and stores them.  Every kind is named by _entry_path, read
and checked by _payload, and written whole or not at all by _write.
hashlib and json are imported only when something is cached, and numpy
only when something is coded, counted, shuffled or read as an array: a
fold-count hit imports no numpy.
"""

from __future__ import annotations

import codecs
import functools
import os
import stat
import struct
import sys
from contextlib import suppress
from itertools import chain, compress, repeat
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Collection, Sequence

from . import _lines
from ._writer import writing

if TYPE_CHECKING:
    import numpy as np

# The sha256 of SOURCES is in every key and is every entry's only version:
# an edit to the coder or to the entry layout re-keys, so an edited coder
# never reads what an older one wrote.
SOURCES = ("_lines.py", "_cache.py")
# Every entry is the sha256 of the rest of it and its payload.  A corpus
# entry's payload is FIELDS (the cells' itemsize, the number of cells,
# dropped), the cells, and the forms in first-occurrence order, UTF-8,
# joined by "\n".
DIGEST_BYTES = 32
FIELDS = struct.Struct("<3Q")
SUFFIX = ".cells"
# A fold order's key also hashes ORDER_SOURCE, the module that shuffles;
# it is read by path, never imported.  An order entry's payload is the
# order, one little-endian int32 position per token.
ORDER_SOURCE = "crossval.py"
ORDER_SUFFIX = ".order"
# A fold-count entry's key hashes FOLDS_SOURCES, every module the counts
# come from.  Its payload is the counts, k rows of 3n + 1 little-endian
# int64s (see crossval.fold_counts).
FOLDS_SOURCES = (*SOURCES, ORDER_SOURCE, "spectrum.py")
FOLDS_SUFFIX = ".folds"
# After each write the least recently used entries are removed down to this many bytes.
LIMIT_BYTES = 1 << 30
HASH_BLOCK = 1 << 20
# the least bytes a helper codes: a smaller part costs more to start and merge than it saves
_PART_BYTES = 2 << 20


def _numbers_in_order(form_ids: np.ndarray, n_forms: int) -> bool:
    """Whether form_ids number n_forms forms in first-occurrence order, each
    of them used: every id is at most one above every id before it, and the
    largest is n_forms - 1."""
    import numpy as np

    running = np.maximum.accumulate(np.concatenate(([-1], form_ids)))
    return form_ids.min(initial=0) >= 0 and not (np.diff(running) > 1).any() and running[-1] == n_forms - 1


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _parts(fh: BinaryIO) -> list[tuple[int, int | None, int]]:
    """(start, end, offset) of each part _code codes on its own: end None
    reads to the end of the stream, and offset counts the bytes before start
    that follow a leading byte-order mark.

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
    import numpy as np

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
    import numpy as np

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
    start, coded with job: the form_id * n + function of each kept line as
    a new int64 array, the forms in first-occurrence order and the number
    of dropped lines.  This process codes the first part (see _parts) with
    _lines.code_part while stdlib-only helper interpreters (python -I -S)
    code the later ones, or this process when a helper fails.  Each part's
    forms merge into the index of those before it, in file order, so the
    result and the first error (see coded) are the ones one pass gives.
    """
    import numpy as np

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
                raise _lines.BadLine(done + at, reason) from None
            except _lines.BadBytes as exc:
                error, before = exc.args
                raise _lines.BadBytes(error, offset + before) from None
            codes = np.frombuffer(codes, np.int64)
            cells = codes[codes >= 0]
            if i:
                cell_map, unindexed = _merge_forms(index, forms, n, i == len(parts) - 1)
                cells = cell_map[cells]
            else:  # the first part numbers its forms as the result does
                index, unindexed = forms, []
            kept.append(cells)
            dropped += int(np.count_nonzero(codes == _lines.DROPPED))
            done += len(codes)
    finally:
        _stop_helpers(helpers)
    del codes, cells  # the last part's, before the joined cells take memory
    return np.concatenate(kept), tuple(chain(index, unindexed)), dropped


def _signature(info: os.stat_result) -> tuple[int, ...]:
    """What changes when a file is rewritten, in place or by a rename."""
    return info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns, info.st_ctime_ns


@functools.cache
def _source_digest(names: tuple[str, ...]) -> str:
    """The sha256 of the source of the modules in names, in hex."""
    import hashlib

    digest = hashlib.sha256()
    for name in names:
        digest.update(Path(__file__).with_name(name).read_bytes())
    return digest.hexdigest()


def _entry_path(cache_dir: str | os.PathLike, suffix: str, sources: tuple[str, ...], parts: Collection) -> str | None:
    """The path in cache_dir of the entry named by the sha256 of a JSON text
    of suffix, the digest of sources and parts; None when sources cannot be
    read."""
    try:
        source = _source_digest(sources)
    except OSError:  # an install without its source: nothing to key by
        return None
    import hashlib
    import json

    digest = hashlib.sha256(json.dumps([suffix, source, *parts], sort_keys=True).encode())
    return os.path.join(cache_dir, digest.hexdigest() + suffix)


def _hashed(fh: BinaryIO, cache_dir: str | os.PathLike | None) -> tuple[os.stat_result, str | None]:
    """The status of fh, opened at its start (and left there), and, given a
    cache_dir and a regular file, the sha256 of its bytes in hex, which is
    in the key of every entry of those bytes; else None."""
    info = os.fstat(fh.fileno())
    if cache_dir is None or not stat.S_ISREG(info.st_mode):
        return info, None
    import hashlib

    digest = hashlib.sha256()
    block = bytearray(HASH_BLOCK)
    view = memoryview(block)
    while size := fh.readinto(block):
        digest.update(view[:size])
    fh.seek(0)
    return info, digest.hexdigest()


def _corpus_parts(job: tuple, content: str) -> list:
    """The parts of the key of a corpus entry of the bytes whose sha256 is
    content, coded with job: the coding options and the interpreter's
    Unicode database, which code_part's str.strip and str.lower follow."""
    import unicodedata

    return [*job[1:], unicodedata.unidata_version, content]


def _payload(entry: str) -> memoryview | None:
    """What follows the digest in the entry at path entry, refreshing its
    mtime; None for a missing entry and one whose digest does not match the
    rest of it (truncated or corrupt)."""
    import hashlib

    try:
        data = Path(entry).read_bytes()
    except OSError:
        return None
    payload = memoryview(data)[DIGEST_BYTES:]
    if hashlib.sha256(payload).digest() != data[:DIGEST_BYTES]:
        return None
    with suppress(OSError):
        os.utime(entry)  # recently used: pruned last
    return payload


def _cells(payload: memoryview, n: int) -> tuple[np.ndarray, tuple[str, ...], int] | None:
    """coded()'s result from the payload of a corpus entry; None for one
    whose fields do not fit its length, whose forms are not UTF-8 or whose
    cells' form ids (cells // n) do not number them in first-occurrence
    order.  Which forms they are, its writer is trusted with; its layout is
    the one this module writes, as the key says."""
    import numpy as np

    if len(payload) < FIELDS.size:
        return None
    itemsize, n_cells, dropped = FIELDS.unpack_from(payload)
    end = FIELDS.size + itemsize * n_cells
    if itemsize not in (1, 2, 4, 8) or len(payload) < end:
        return None
    try:
        forms = tuple(str(payload[end:], "utf-8").split("\n")) if len(payload) > end else ()  # a form is never empty
    except UnicodeDecodeError:
        return None
    cells = np.frombuffer(payload, f"<u{itemsize}", n_cells, FIELDS.size).astype(np.int64)
    return (cells, forms, dropped) if _numbers_in_order(cells // n, len(forms)) else None


def _write(entry: str, chunks: tuple) -> None:
    """Write the entry at path entry whole, the sha256 of chunks and then
    chunks, creating its directory, then prune that directory; a write that
    fails is skipped."""
    import hashlib

    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    directory = os.path.dirname(entry)
    with suppress(OSError):
        os.makedirs(directory, exist_ok=True)
        with writing(entry) as out:
            out.write(digest.digest())
            out.writelines(chunks)
        prune(directory, os.path.basename(entry))


def _coded(fh: BinaryIO, path: Path, job: tuple, cache_dir: str | os.PathLike | None, info: os.stat_result,
           content: str | None) -> tuple[tuple[np.ndarray, tuple[str, ...], int], bool]:
    """(coded()'s result, whether it is the coding of the bytes whose sha256
    is content): given content (see _hashed), a hit, or a miss of a file
    whose signature after the coding is still info's.  Only such a result
    is stored."""
    import numpy as np

    n = job[2]  # code_part's
    entry = content and _entry_path(cache_dir, SUFFIX, SOURCES, _corpus_parts(job, content))
    if entry and (payload := _payload(entry)) is not None and (hit := _cells(payload, n)):
        return hit, True
    cells, forms, dropped = _code(path, fh, job)
    named = False
    if content:
        with suppress(OSError):  # a file that cannot be stat'ed now is not named by its hash
            named = _signature(os.fstat(fh.fileno())) == _signature(info) == _signature(os.stat(path))
    if entry and named:
        packed = cells.astype(f"<u{np.min_scalar_type(cells.max(initial=0)).itemsize}")
        joined = "\n".join(forms).encode("utf-8")  # a form never holds a line break
        _write(entry, (FIELDS.pack(packed.itemsize, len(packed), dropped), packed, joined))
    return (cells, forms, dropped), named


def coded(fh: BinaryIO, path: Path, job: tuple,
          cache_dir: str | os.PathLike | None) -> tuple[np.ndarray, tuple[str, ...], int]:
    """(cells, forms, dropped) of the corpus file fh, opened at path at its
    start, coded with job, the arguments of _lines.code_part after end: the
    form_id * n + function of each kept line as a new int64 array (the
    cells of a TaggedCorpus), the forms in first-occurrence order and the
    number of dropped lines.  With a cache_dir, a regular file's result
    is read from its entry there when that is sound (see _payload and
    _cells), else coded and stored, unless the file changed since it was
    hashed (fh's or path's signature is no longer the one it had before).
    The key also names the interpreter's Unicode database.
    A bad line raises _lines.BadLine with its index in the file, bytes that
    are not UTF-8 _lines.BadBytes counting the bytes before their piece
    after a leading byte-order mark, and a failed read OSError.
    """
    return _coded(fh, path, job, cache_dir, *_hashed(fh, cache_dir))[0]


def fold_counted(fh: BinaryIO, path: Path, job: tuple, k: int, seed: int, cache_dir: str | os.PathLike | None,
                 count: Callable[[np.ndarray, tuple[str, ...], int], np.ndarray]) -> Sequence[Sequence[int]]:
    """The k-fold counts under seed of the corpus file fh, opened at path at
    its start and coded with job, as k rows of 3n + 1 ints: count(*coded(...)),
    a (k, 3n + 1) int64 array.  With a cache_dir, a regular file's counts
    are read from their entry there when its payload holds exactly that many
    (see _payload), as a list of k tuples, so a hit codes nothing, reads no
    corpus entry and imports no numpy; else they are counted and stored when
    the corpus counted is the coding of the bytes hashed (see _coded).  The
    key holds the corpus key's parts, k, seed, and the interpreter's
    major.minor version, since the fold order is random.shuffle's.
    coded()'s errors are raised as it raises them.
    """
    info, content = _hashed(fh, cache_dir)
    width = 3 * job[2] + 1
    entry = content and _entry_path(cache_dir, FOLDS_SUFFIX, FOLDS_SOURCES,
                                    [*_corpus_parts(job, content), k, seed, sys.version_info[:2]])
    if entry and (payload := _payload(entry)) is not None and len(payload) == 8 * k * width:
        return list(struct.iter_unpack(f"<{width}q", payload))
    corpus, named = _coded(fh, path, job, cache_dir, info, content)
    counts = count(*corpus)
    if entry and named:
        _write(entry, (counts.astype("<i8"),))
    return counts


def ordered(n: int, seed: int, cache_dir: str | os.PathLike | None,
            shuffle: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """The fold order of n tokens under seed, shuffle(n, seed), a read-only
    array of positions.  With a cache_dir and n >= 2 it is read from its
    entry there when its payload holds n positions (see _payload), else
    shuffled and stored.  The key holds no corpus bytes and no fold count:
    every corpus of n tokens shares the order.  It names the interpreter's
    major.minor version, since random.shuffle's results may differ between
    versions."""
    import numpy as np

    entry = (cache_dir is not None and n >= 2
             and _entry_path(cache_dir, ORDER_SUFFIX, (*SOURCES, ORDER_SOURCE), [n, seed, sys.version_info[:2]]))
    if entry and (payload := _payload(entry)) is not None and len(payload) == 4 * n:
        return np.frombuffer(payload, "<i4")
    order = shuffle(n, seed)
    if entry:
        _write(entry, (order.astype("<i4"),))
    return order


def prune(directory: str, keep: str) -> None:
    """Remove the least recently modified entries of directory, of every
    kind alike, until they take at most LIMIT_BYTES, never the entry named
    keep."""
    entries = []
    total = 0
    with os.scandir(directory) as scan:
        for entry in scan:
            if entry.name.endswith((SUFFIX, ORDER_SUFFIX, FOLDS_SUFFIX)):
                with suppress(OSError):  # removed meanwhile
                    info = entry.stat(follow_symlinks=False)
                    total += info.st_size
                    if entry.name != keep:
                        entries.append((info.st_mtime_ns, info.st_size, entry.path))
    for _, size, path in sorted(entries):
        if total <= LIMIT_BYTES:
            break
        with suppress(OSError):
            os.unlink(path)
        total -= size

"""Whole-or-nothing file writes, and the content-keyed cache of coded corpora.

replace_file writes a file through a temporary file and os.replace, so a
failed write leaves the old file as it was.  A Slot is the cache entry of
one corpus file's bytes under one set of coding options: load_corpus reads
the coded columns from it instead of coding the file again.  hashlib and
json are imported only when a corpus is cached.
"""

from __future__ import annotations

import errno
import functools
import os
import stat
import struct
from contextlib import suppress
from pathlib import Path
from typing import BinaryIO, Iterable

import numpy as np

# The number of the entry layout, held in each entry.  What an entry holds
# for given bytes is decided by the source of SOURCES, whose sha256 is part
# of every key: an edited coder never reads what an older one wrote.
FORMAT = 1
SOURCES = ("_lines.py", "corpus.py", "_cache.py")
# An entry is the sha256 of the rest of it, FIELDS (FORMAT, the cells'
# itemsize, the number of cells, dropped), the cells, and the forms in
# first-occurrence order, UTF-8, joined by "\n".
DIGEST_BYTES = 32
FIELDS = struct.Struct("<4Q")
SUFFIX = ".cells"
# After each write the least recently used entries are removed down to this many bytes.
LIMIT_BYTES = 1 << 30
HASH_BLOCK = 1 << 20


def _file_path(path: str | os.PathLike) -> str | None:
    """The absolute path, symlinks resolved, of the file that path names;
    None when a link on the way leads into /proc, as /dev/stdout and
    /dev/fd/N do: such a path names an open file (a pipe, or the file a
    shell redirected to), which must be written, not replaced.  None too
    for links in a loop, which only an open can report."""
    target = os.path.abspath(path)
    for _ in range(40):  # the links the kernel follows before ELOOP
        directory, name = os.path.split(target)
        directory = os.path.realpath(directory)
        if directory == "/proc" or directory.startswith("/proc/"):
            return None
        target = os.path.join(directory, name)
        if not os.path.islink(target):
            return target
        target = os.path.join(directory, os.readlink(target))
    return None


def replace_file(path: str | os.PathLike, chunks: Iterable[bytes]) -> None:
    """Write the concatenated chunks to path, whole or not at all.

    They go to a new temporary file in the target's directory, which then
    replaces the target (os.replace); on any failure the temporary file is
    removed and the target is left as it was.  A symlink is followed: the
    file it names is replaced.  An existing target keeps its mode and a new
    one gets the mode a plain open gives (0666 less the umask); an existing
    target that this process may not write is refused, as open refuses it.

    The target is written in place, as a plain open writes it, when
    replacing it would lose what open keeps: when it is not a regular file
    (a FIFO, a device), when path names an open file through /proc
    (/dev/stdout, /dev/fd/N), when it has other hard links or another
    owner, and when its directory does not let this process create the
    temporary file.  A write in place that fails can leave it partial.
    """
    target = _file_path(path)
    try:
        info = os.stat(path)  # through every link, /proc's too
    except OSError:  # none yet, or unreachable: creating the temporary file says why
        info = None
    if target is None or info is not None and (
            not stat.S_ISREG(info.st_mode) or info.st_nlink > 1 or info.st_uid != os.geteuid()):
        return _write_in_place(path, chunks)
    if info is not None and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        if isinstance(exc, PermissionError) and info is not None:  # a directory closed to this process
            return _write_in_place(path, chunks)
        exc.filename = os.fspath(path)  # name the file asked for, as open would
        raise
    try:
        with open(fd, "wb") as fh:
            if info is not None:
                os.chmod(temp, stat.S_IMODE(info.st_mode))
            fh.writelines(chunks)
        os.replace(temp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise


def _write_in_place(path: str | os.PathLike, chunks: Iterable[bytes]) -> None:
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def _signature(info: os.stat_result) -> tuple[int, ...]:
    """What changes when a file is rewritten, in place or by a rename."""
    return info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns, info.st_ctime_ns


class Slot:
    """The cache entry of a corpus file's bytes, as they were hashed, under
    one set of coding options (see of)."""

    def __init__(self, corpus: str, path: str, signature: tuple[int, ...]) -> None:
        self.corpus = corpus  # the corpus file's path
        self.path = path  # the entry's
        self.signature = signature  # the corpus file's when it was hashed

    @classmethod
    def of(cls, fh: BinaryIO, corpus: str, cache_dir: str | os.PathLike, options: tuple) -> Slot | None:
        """The slot of fh, the corpus file opened at its start, under
        options, the arguments of _lines.code_part after block_bytes; None
        unless fh is a regular file and the source of SOURCES can be read.
        The entry is named by the sha256 of that source's digest, the
        options and the file's bytes, which are read here; fh is left at
        its start.  An OSError while reading fh is raised."""
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            return None
        try:
            source = _source_digest()
        except OSError:  # an install without its source: nothing to key by
            return None
        import hashlib
        import json

        # a JSON text holds no raw line break, so the options end at the first b"\n"
        digest = hashlib.sha256(json.dumps([source, *options], sort_keys=True).encode() + b"\n")
        block = bytearray(HASH_BLOCK)
        view = memoryview(block)
        while size := fh.readinto(block):
            digest.update(view[:size])
        fh.seek(0)
        return cls(corpus, os.path.join(cache_dir, digest.hexdigest() + SUFFIX), _signature(info))

    def read(self) -> tuple[np.ndarray, tuple[str, ...], int] | None:
        """(cells, forms, dropped) of a sound entry, with cells a new int64
        array, refreshing the entry's mtime; None for a missing entry, one
        whose digest does not match (truncated or corrupt), one of another
        FORMAT, and one whose fields do not fit its length or whose forms
        are not UTF-8.  Whether the cells number the forms is left to the
        caller; which forms they are, an entry's writer is trusted with."""
        import hashlib

        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        start = DIGEST_BYTES + FIELDS.size
        if len(data) < start or hashlib.sha256(memoryview(data)[DIGEST_BYTES:]).digest() != data[:DIGEST_BYTES]:
            return None
        version, itemsize, n_cells, dropped = FIELDS.unpack_from(data, DIGEST_BYTES)
        if version != FORMAT or itemsize not in (1, 2, 4, 8) or len(data) < start + itemsize * n_cells:
            return None
        cells = np.frombuffer(data, f"<u{itemsize}", n_cells, start).astype(np.int64)
        joined = data[start + itemsize * n_cells:]
        try:
            forms = tuple(joined.decode("utf-8").split("\n")) if joined else ()  # a form is never empty
        except UnicodeDecodeError:
            return None
        with suppress(OSError):
            os.utime(self.path)  # recently used: pruned last
        return cells, forms, dropped

    def write(self, fh: BinaryIO, cells: np.ndarray, forms: tuple[str, ...], dropped: int) -> None:
        """Store what the corpus coded to, unless its file changed since it
        was hashed (fh's or the path's signature differs), then prune the
        cache; a write that fails is skipped."""
        import hashlib

        try:
            if (_signature(os.fstat(fh.fileno())) != self.signature
                    or _signature(os.stat(self.corpus)) != self.signature):
                return
            packed = cells.astype(f"<u{np.min_scalar_type(cells.max(initial=0)).itemsize}")
            joined = "\n".join(forms).encode("utf-8")  # a form never holds a line break
            fields = FIELDS.pack(FORMAT, packed.itemsize, len(packed), dropped)
            digest = hashlib.sha256(fields)
            digest.update(packed)
            digest.update(joined)
            directory = os.path.dirname(self.path)
            os.makedirs(directory, exist_ok=True)
            replace_file(self.path, (digest.digest(), fields, packed, joined))
            prune(directory, os.path.basename(self.path))
        except OSError:
            pass


@functools.cache
def _source_digest() -> str:
    """The sha256 of the source of SOURCES, in hex."""
    import hashlib

    digest = hashlib.sha256()
    for name in SOURCES:
        digest.update(Path(__file__).with_name(name).read_bytes())
    return digest.hexdigest()


def prune(directory: str, keep: str) -> None:
    """Remove the least recently modified entries of directory until the
    entries take at most LIMIT_BYTES, never the entry named keep."""
    entries = []
    total = 0
    with os.scandir(directory) as scan:
        for entry in scan:
            if entry.name.endswith(SUFFIX):
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

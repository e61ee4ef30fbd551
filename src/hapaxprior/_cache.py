"""The content-keyed cache of coded corpora.

A Slot is the cache entry of one corpus file's bytes under one set of
coding options: load_corpus reads the coded columns from it instead of
coding the file again.  An entry is written whole or not at all (see
_writer).  hashlib and json are imported only when a corpus is cached.
"""

from __future__ import annotations

import functools
import os
import stat
import struct
from contextlib import suppress
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ._writer import writing

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
            with writing(self.path) as entry:
                entry.writelines((digest.digest(), fields, packed, joined))
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

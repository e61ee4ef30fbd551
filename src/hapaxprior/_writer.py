"""Every file the package writes, written whole or not at all.

This is the only module that opens a file for writing.  What the body of
writing(path) writes replaces path once the body has succeeded; write_text
encodes text into it, and output hands a command's output to --out or to
stdout once the command has succeeded.  Text is UTF-8 with surrogateescape:
a byte that was not UTF-8 in an argument, a path or a file, which Python
holds as a lone surrogate, is written back as that byte, as stdout writes
it under a C or C.UTF-8 locale.
"""

from __future__ import annotations

import errno
import io
import os
import stat
import sys
from contextlib import contextmanager, suppress
from typing import IO, BinaryIO, Iterable, Iterator


def _target(path: str | os.PathLike) -> str | int | None:
    """The absolute path, symlinks resolved, of the file that path names.

    A link on the way that leads into /proc names an open file (a pipe, or
    the file a shell redirected to), which must be written, not replaced:
    for /proc/<this process>/fd/N, where /dev/stdout and /dev/fd/N lead,
    the result is the descriptor N, and for the rest of /proc None.  None
    too for links in a loop, which only an open can report."""
    own_fds = f"/proc/{os.getpid()}/fd"
    target = os.path.abspath(path)
    for _ in range(40):  # the links the kernel follows before ELOOP
        directory, name = os.path.split(target)
        directory = os.path.realpath(directory)
        if directory == own_fds and name.isdecimal():
            return int(name)
        if directory == "/proc" or directory.startswith("/proc/"):
            return None
        target = os.path.join(directory, name)
        if not os.path.islink(target):
            return target
        target = os.path.join(directory, os.readlink(target))
    return None


@contextmanager
def writing(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """A binary file for what path is to hold, committed whole when the
    body ends without an exception, else not at all.

    It is a new temporary file beside the target, which then replaces it
    (os.replace).  A symlink is followed.  An existing target keeps its
    mode and a new one gets the mode a plain open gives (0666 less the
    umask); an existing target that this process may not write is refused,
    as open refuses it.

    Where a rename would lose what open keeps, the target is written in
    place, and a failed write can leave it partial.  This process's own
    descriptor N, named through /proc (/dev/stdout, /dev/fd/N), is written
    at the offset it has.  A plain open writes the rest: a target that is
    not a regular file (a FIFO, a device), one reached through the rest of
    /proc, one with other hard links or another owner, and one whose
    directory is closed to the temporary file.
    """
    target = _target(path)
    try:
        info = os.stat(path)  # through every link, /proc's too
    except OSError:  # none yet, or unreachable: creating the temporary file says why
        info = None
    if isinstance(target, int) and info is not None:
        with open(target, "wb", closefd=False) as fh:
            yield fh
        return
    fd = None
    if isinstance(target, str) and (info is None or stat.S_ISREG(info.st_mode) and info.st_nlink == 1
                                    and info.st_uid == os.geteuid()):
        if info is not None and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
        directory, name = os.path.split(target)
        temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:
            if not isinstance(exc, PermissionError) or info is None:  # not a directory closed to this process
                exc.filename = os.fspath(path)  # name the file asked for, as open would
                raise
    if fd is None:
        with open(path, "wb") as fh:
            yield fh
        return
    try:
        with open(fd, "wb") as fh:
            if info is not None:
                os.chmod(temp, stat.S_IMODE(info.st_mode))
            yield fh
        os.replace(temp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise


def write_text(path: str | os.PathLike, texts: Iterable[str]) -> None:
    """Write the concatenated texts to path through writing, UTF-8 with
    surrogateescape; the texts are encoded as they come, never joined."""
    with writing(path) as fh, io.TextIOWrapper(fh, "utf-8", "surrogateescape", newline="") as text:
        text.writelines(texts)


@contextmanager
def output(path: str) -> Iterator[IO[str]]:
    """Collect a command's output, and write it only once the body has
    succeeded: to path with write_text, or to stdout for "-".  A stdout
    that cannot encode all of it (a strict UTF-8 locale) is given none of
    it, and an OSError is raised instead, so a failed run writes nothing."""
    buffer = io.StringIO()
    yield buffer
    text = buffer.getvalue()
    if path != "-":
        write_text(path, [text])
        return
    if sys.stdout.encoding:  # a text stream in memory, as a caller may put there, encodes nothing
        try:
            text.encode(sys.stdout.encoding, sys.stdout.errors or "strict")
        except UnicodeEncodeError as exc:
            raise OSError(errno.EILSEQ, f"stdout ({exc.encoding}) cannot encode"
                          f" {exc.object[exc.start:exc.end]!r}: {exc.reason}; use --out") from None
    sys.stdout.write(text)

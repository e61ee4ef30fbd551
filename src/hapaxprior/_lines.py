"""Line coding of ``form<TAB>tag`` files, with the standard library only.

code_part() codes the lines of one byte range of a corpus; it is the only
line coder.  _cache._code runs it on a corpus's first part, and on any part
whose helper failed.  Run as a script, this module runs it on one byte
range in a helper interpreter::

    python -I -S _lines.py JOB

JOB is a JSON list [path, start, end, block_bytes, function_of, n, suffix,
fold_case].  The helper writes to stdout HEADER (lines, forms, bytes of the
joined forms), then the code of every line as native int64, then its forms
in first-occurrence order, UTF-8, joined by "\\n" (a form never holds a
line break).  A bad line, a bad byte or any other failure ends it with a
non-zero exit and nothing complete on stdout.  The module imports neither
numpy nor hapaxprior, so a helper starts in milliseconds.
"""

from __future__ import annotations

import codecs
import struct
import sys
from array import array
from collections.abc import Iterator
from io import BufferedReader

# bytes per read; a piece handed to the decoder runs to the last b"\n" of a block
BLOCK_BYTES = 1 << 20

SKIPPED = -2  # blank or comment line
DROPPED = -1  # suffix miss or unmapped tag

HEADER = struct.Struct("<3Q")


class BadLine(ValueError):
    """A data line that is not ``form<TAB>tag``; args are the line's index,
    in code_part's part or (from _cache) in the file, and the reason."""


class BadBytes(ValueError):
    """Bytes that are not UTF-8; args are the UnicodeDecodeError and the bytes
    before the piece it was raised on, of its part or (from _cache) the file."""


def pieces(fh: BufferedReader, start: int, end: int | None, block_bytes: int) -> Iterator[bytes]:
    """The bytes of fh from start, where fh stands, to end (None: to the end
    of the file), in block_bytes reads joined into pieces that each end after
    the last b"\\n" of a read, the last one at end.  At start 0 a leading
    UTF-8 byte-order mark is dropped; a file shorter than the mark and a
    prefix of it has no bytes, as under the utf-8-sig codec.
    """
    pending: list[bytes] = []  # since the last b"\n"
    pos = start
    if start == 0:
        head = fh.read(3 if end is None else min(3, end))
        if not codecs.BOM_UTF8.startswith(head):
            pending.append(head)
        pos = len(head)
    while end is None or pos < end:
        block = fh.read(block_bytes if end is None else min(block_bytes, end - pos))
        if not block:
            break
        pos += len(block)
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


def line_lists(fh: BufferedReader, start: int, end: int | None, block_bytes: int) -> Iterator[list[str]]:
    """The str.splitlines() lines of each of pieces(fh, start, end, block_bytes).

    A cut after b"\\n" is always a splitlines() boundary (b"\\r\\n" stays
    whole) and b"\\n" never occurs inside a UTF-8 sequence, so each piece
    decodes and splits as the whole text would.  A piece that is not UTF-8
    yields the lines before its bad byte's line, then raises BadBytes: the
    first bad line or bad byte of a file is met first wherever pieces end.
    """
    before = 0
    for piece in pieces(fh, start, end, block_bytes):
        try:
            text = piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            # "x" ends the bad byte's line, so that it is always the one dropped
            yield (piece[:exc.start].decode("utf-8") + "x").splitlines()[:-1]
            raise BadBytes(exc, before) from None
        yield text.splitlines()
        before += len(piece)


def code_part(fh: BufferedReader, start: int, end: int | None, block_bytes: int, function_of: dict[str, int],
              n: int, suffix: str, fold_case: bool) -> tuple[array, dict[str, int]]:
    """(codes, forms) of the lines of bytes start..end of fh, read from start
    (where fh stands when start is 0, so it may be a pipe).

    codes holds form_id * n + function for a kept line, DROPPED for a suffix
    miss or an unmapped tag and SKIPPED for a blank or '#' line; forms maps
    each kept form to its id, in first-occurrence order.  A malformed data
    line raises BadLine, bytes that are not UTF-8 BadBytes (see line_lists).
    """
    forms: dict[str, int] = {}

    class Codes(dict):
        """Line -> code.  A line seen before is a lookup in C; each new
        distinct line is parsed once, in __missing__."""

        def __missing__(self, line: str) -> int:
            head = line.lstrip()
            if not head or head[0] == "#":
                self[line] = SKIPPED
                return SKIPPED
            fields = line.split("\t")
            form = fields[0].strip()
            if len(fields) != 2:
                raise BadLine(line, f"expected 'form<TAB>tag', got {len(fields)} fields")
            if not form:
                raise BadLine(line, "empty form")
            if fold_case:
                form = form.lower()
            function = function_of.get(fields[1].strip())
            if function is None or not form.endswith(suffix):
                code = DROPPED
            else:
                code = forms.setdefault(form, len(forms)) * n + function
            self[line] = code
            return code

    code = Codes().__getitem__
    codes = array("q")
    if start:
        fh.seek(start)
    for lines in line_lists(fh, start, end, block_bytes):
        try:
            codes.fromlist(list(map(code, lines)))  # faster than extend(map(...))
        except BadLine as exc:
            line, reason = exc.args
            # the line's first copy failed: a line once coded is never bad
            raise BadLine(len(codes) + lines.index(line), reason) from None
    return codes, forms


def main(job: str) -> None:
    """Code the byte range JOB names and write the result to stdout."""
    import json

    path, start, *rest = json.loads(job)
    with open(path, "rb") as fh:
        codes, forms = code_part(fh, start, *rest)
    joined = "\n".join(forms).encode("utf-8")
    out = sys.stdout.buffer
    out.write(HEADER.pack(len(codes), len(forms), len(joined)))
    out.write(codes)
    out.write(joined)
    out.flush()


if __name__ == "__main__":
    main(sys.argv[1])

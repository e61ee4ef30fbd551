"""Line coding of ``form<TAB>tag`` files, with the standard library only.

load_corpus reads a corpus through pieces() and codes its lines through
coder().  Run as a script, this module codes one byte range of a corpus in
a helper interpreter::

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


def pieces(fh: BufferedReader, start: int, end: int | None, block_bytes: int) -> Iterator[bytes]:
    """The bytes of fh from start, where fh stands, to end (None: to the end
    of the file), in pieces that each end after the last b"\\n" of a block,
    the last one at end.

    Blocks lie where a read of the whole file puts them: 3 bytes, then
    block_bytes each.  So a range that starts and ends where such a read's
    pieces end yields that read's pieces.  At start 0 a leading UTF-8
    byte-order mark is dropped; a file shorter than the mark and a prefix of
    it has no bytes, as under the utf-8-sig codec.
    """
    pending: list[bytes] = []  # since the last b"\n"
    pos = start
    if start == 0:
        head = fh.read(3 if end is None else min(3, end))
        if not codecs.BOM_UTF8.startswith(head):
            pending.append(head)
        pos = len(head)
    while end is None or pos < end:
        size = block_bytes - (pos - 3) % block_bytes
        block = fh.read(size if end is None else min(size, end - pos))
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


class BadLine(ValueError):
    """A data line that is not ``form<TAB>tag``; args are the line and the reason."""


def coder(function_of: dict[str, int], n: int, suffix: str, fold_case: bool) -> tuple[dict[str, int], dict[str, int]]:
    """(memo, forms) for one load.

    memo[line] is form_id * n + function for a kept line, DROPPED for a
    suffix miss or an unmapped tag and SKIPPED for a blank or '#' line; a
    malformed data line raises BadLine.  memo keeps every distinct line it
    has coded; clearing it only makes the next lines slower to code.  forms
    maps each kept form to its id; memo numbers new forms len(forms),
    len(forms) + 1, ... as it meets them, so forms added by the caller
    between lines keep their ids.
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

    return Codes(), forms


def main(job: str) -> None:
    """Code the byte range JOB names and write the result to stdout."""
    import json

    path, start, end, block_bytes, function_of, n, suffix, fold_case = json.loads(job)
    memo, forms = coder(function_of, n, suffix, fold_case)
    codes = array("q")
    with open(path, "rb") as fh:
        fh.seek(start)
        for piece in pieces(fh, start, end, block_bytes):
            codes.extend(map(memo.__getitem__, piece.decode("utf-8").splitlines()))
    memo.clear()
    joined = "\n".join(forms).encode("utf-8")
    out = sys.stdout.buffer
    out.write(HEADER.pack(len(codes), len(forms), len(joined)))
    out.write(codes)
    out.write(joined)
    out.flush()


if __name__ == "__main__":
    main(sys.argv[1])

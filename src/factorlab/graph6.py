"""graph6 encoding and decoding (one undirected simple graph per ASCII line).

Follows the de-facto format: a vertex-count header (one byte for n <= 62,
'~' plus three bytes for n <= 258047), then the upper triangle of the
adjacency matrix in column-major order packed into 6-bit groups, each group
offset by 63.  Padding bits must be zero.

One decoder reads every line: ``read_graph6`` cuts a document into runs of
consecutive lines of one header and one length, each checked and decoded at
once, in document order, so that the first malformed line raises, with its
number.  ``from_graph6`` decodes a one-line run.
"""

from __future__ import annotations

import re
from typing import Iterator

import numpy as np

from .errors import Graph6Error
from .graph import MAX_VERTICES, Graph

HEADER = ">>graph6<<"
BLOCK_CHARS = 1 << 12  # characters per decoded run, lines times line length: bounds the numpy temporaries
_OUTSIDE = re.compile("[^?-~]")  # a character outside graph6's range 63..126


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 line (no trailing newline)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0))
    bits = 0
    nbits = 0
    chunks: list[str] = []
    for col in range(1, n):
        colbits = g.adj[col] & ((1 << col) - 1)
        for row in range(col):
            bits = (bits << 1) | (colbits >> row & 1)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(bits + 63))
                bits = nbits = 0
    if nbits:
        chunks.append(chr((bits << (6 - nbits)) + 63))
    return head + "".join(chunks)


def from_graph6(line: str) -> Graph:
    """Decode one graph6 line into a Graph."""
    return _decode([line.rstrip("\n")])[0]


def read_graph6(text: str) -> list[Graph]:
    """Parse a graph6 document: one graph per line, optional format header;
    the first malformed line raises, its message prefixed with ``line N:``."""
    return [g for run, numbers in _runs(text) for g in _decode(run, numbers)]


def _runs(text: str) -> Iterator[tuple[list[str], list[int]]]:
    """A document's non-blank lines and their numbers, in runs of consecutive lines
    of one header and one length, at most ``BLOCK_CHARS`` characters (or one line)."""
    run, numbers = [], []
    lines = text.splitlines()
    lines.reverse()  # popped as read: a decoded line is not held to the end of the document
    for lineno in range(1, len(lines) + 1):
        line = lines.pop().strip()
        if line.startswith(HEADER):
            line = line[len(HEADER):]
        if not line:
            continue
        if run and (len(line) != width or not line.startswith(prefix) or len(run) == most):
            yield run, numbers
            run, numbers = [], []
        if not run:
            width, prefix = len(line), line[:4] if line[0] == "~" else line[0]
            most = max(1, BLOCK_CHARS // width)
        run.append(line)
        numbers.append(lineno)
    if run:
        yield run, numbers


def _decode(lines: list[str], numbers: list[int] | None = None) -> list[Graph]:
    """Decode lines of one header and one length as one numpy block.  The first
    malformed line raises, prefixed with ``line N:`` when ``numbers`` gives N."""
    first, count, width = lines[0], len(lines), len(lines[0])
    text = "".join(lines)
    outside = _OUTSIDE.search(text)
    good = count if outside is None else outside.start() // width  # lines before the first with a bad byte
    bad_byte = outside and f"byte {ord(outside[0])!r} outside graph6 range 63..126"
    if good == 0:
        raise _error(numbers, 0, bad_byte)
    if not width:
        raise _error(numbers, 0, "empty graph6 line")
    if first[0] == "~":
        if width < 4:
            raise _error(numbers, 0, "truncated extended vertex count")
        if first[1] == "~":
            raise _error(numbers, 0, "8-byte vertex counts exceed the supported range")
        n, skip = (ord(first[1]) - 63) << 12 | (ord(first[2]) - 63) << 6 | ord(first[3]) - 63, 4
    else:
        n, skip = ord(first[0]) - 63, 1
    if n > MAX_VERTICES:
        raise _error(numbers, 0, f"vertex count {n} exceeds supported maximum {MAX_VERTICES}")
    tri = n * (n - 1) // 2
    need = (tri + 5) // 6
    if width - skip != need:
        raise _error(numbers, 0, f"expected {need} payload bytes for n={n}, got {width - skip}")
    codes = np.frombuffer(text[: good * width].encode("ascii"), np.uint8).reshape(good, width)
    # each payload byte's six low bits, in order: bits 2..7 of its unpacked eight
    bits = np.unpackbits(codes[:, skip:] - 63, axis=1).reshape(good, need, 8)[:, :, 2:].reshape(good, 6 * need)
    padded = bits[:, tri:].any(axis=1)
    if padded.any():
        raise _error(numbers, int(padded.argmax()), "nonzero padding bits")
    if outside is not None:
        raise _error(numbers, good, bad_byte)
    # the upper triangle column by column is the lower one row by row: fill both halves
    adj = np.zeros((count, n, n), np.uint8)
    lower = np.tri(n, k=-1, dtype=bool)
    adj[:, lower] = adj.transpose(0, 2, 1)[:, lower] = bits[:, :tri]
    packed = np.packbits(adj, axis=2, bitorder="little")  # row v of a graph: bit u is edge {u, v}
    if n <= 64:  # a row fits one uint64: one tolist for the block
        rows = (packed @ (1 << np.arange(0, 8 * packed.shape[2], 8, dtype=np.uint64))).tolist()
    else:
        rows = [[int.from_bytes(row, "little") for row in graph] for graph in packed]
    return [Graph(n, row) for row in rows]


def _error(numbers: list[int] | None, row: int, message: str) -> Graph6Error:
    return Graph6Error(message if numbers is None else f"line {numbers[row]}: {message}")


def read_graph6_file(path) -> list[Graph]:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise Graph6Error(f"{path}: non-ASCII byte") from None
    return read_graph6(text)

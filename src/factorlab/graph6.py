"""graph6 encoding and decoding (one undirected simple graph per ASCII line).

Follows the de-facto format: a vertex-count header (one byte for n <= 62,
'~' plus three bytes for n <= 258047), then the upper triangle of the
adjacency matrix in column-major order packed into 6-bit groups, each group
offset by 63.  Padding bits must be zero.
"""

from __future__ import annotations

from .errors import Graph6Error
from .graph import MAX_VERTICES, Graph

HEADER = ">>graph6<<"


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
    s = line.rstrip("\n")
    if not s:
        raise Graph6Error("empty graph6 line")
    vals = []
    for ch in s:
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(f"byte {code!r} outside graph6 range 63..126")
        vals.append(code - 63)
    if s[0] == "~":
        if len(vals) < 4:
            raise Graph6Error("truncated extended vertex count")
        if s[1] == "~":
            raise Graph6Error("8-byte vertex counts exceed the supported range")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds supported maximum {MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"expected {need} payload bytes for n={n}, got {len(body)}")
    rows = [0] * n
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if body[idx // 6] >> (5 - idx % 6) & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            idx += 1
    # padding bits beyond the triangle must be zero
    total = 6 * need
    for j in range(idx, total):
        if body[j // 6] >> (5 - j % 6) & 1:
            raise Graph6Error("nonzero padding bits")
    return Graph(n, rows)


def read_graph6(text: str) -> list[Graph]:
    """Parse a graph6 document: one graph per line, optional format header."""
    graphs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(HEADER):
            line = line[len(HEADER):]
            if not line:
                continue
        try:
            graphs.append(from_graph6(line))
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}") from None
    return graphs


def read_graph6_file(path) -> list[Graph]:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise Graph6Error(f"{path}: non-ASCII byte") from None
    return read_graph6(text)


def write_graph6_file(path, graphs) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(to_graph6(g) + "\n")

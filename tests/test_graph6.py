"""graph6 codec: frozen encodings, round-trips, strict error handling, and the
block decoder against the per-line reference it replaced."""

import random
import tracemalloc
from importlib import resources

import pytest

from factorlab import (
    Graph,
    Graph6Error,
    book_family,
    bundled_connected_graphs,
    complete,
    cycle,
    from_edges,
    from_graph6,
    g_na,
    path,
    read_graph6,
    read_graph6_file,
    star,
    to_graph6,
)
from factorlab.graph import MAX_VERTICES
from factorlab.graph6 import BLOCK_CHARS, HEADER

try:
    import networkx as nx
except ImportError:  # cross-check is optional
    nx = None


# Hand-computed from the format definition: header byte = n + 63, then the
# column-major upper triangle packed into 6-bit groups offset by 63.
FROZEN = {
    "@": Graph(1, (0,)),
    "A_": complete(2),
    "A?": Graph(2, (0, 0)),
    "Bw": complete(3),
    "Bg": path(3),
    "C~": complete(4),
    "Cs": star(4),
    "Cl": cycle(4),
}


class TestFrozenEncodings:
    def test_emit(self):
        for text, g in FROZEN.items():
            assert to_graph6(g) == text

    def test_parse(self):
        for text, g in FROZEN.items():
            assert from_graph6(text) == g


class TestRoundTrip:
    def test_constructions(self):
        graphs = [
            g_na(12, 2).graph,
            g_na(15, 3).graph,
            from_graph6("K~~~}B?oE?[?"),  # book_family(12, 2, 4) plus the edge {2, 11}
            book_family(12, 1, 3).graph,
            book_family(20, 2, 5).graph,
            cycle(9),
            star(30),
        ]
        for g in graphs:
            assert from_graph6(to_graph6(g)) == g

    def test_random(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randrange(1, 30)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            g = from_edges(n, edges)
            assert from_graph6(to_graph6(g)) == g

    def test_extended_header_boundary(self):
        for n in (62, 63, 64, 100):
            g = cycle(n)
            line = to_graph6(g)
            assert from_graph6(line) == g
            if n > 62:
                assert line.startswith("~")

    def test_file(self, tmp_path):
        # one graph6 line per graph; cycle(63) takes the extended "~" header
        graphs = [g for n in range(1, 6) for g in bundled_connected_graphs(n)] + [cycle(63)]
        path = tmp_path / "corpus.g6"
        path.write_text("".join(to_graph6(g) + "\n" for g in graphs), encoding="ascii")
        assert path.read_text().splitlines()[-1].startswith("~")
        assert read_graph6_file(path) == graphs


@pytest.mark.skipif(nx is None, reason="networkx unavailable")
class TestAgainstNetworkx:
    def test_emit_matches_reference(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randrange(1, 20)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
            g = from_edges(n, edges)
            ref = nx.Graph()
            ref.add_nodes_from(range(n))
            ref.add_edges_from(edges)
            expected = nx.to_graph6_bytes(ref, header=False).decode().strip()
            assert to_graph6(g) == expected

    def test_parse_matches_reference(self):
        rng = random.Random(98)
        for _ in range(40):
            ref = nx.gnp_random_graph(rng.randrange(2, 18), 0.4, seed=rng.randrange(10**6))
            line = nx.to_graph6_bytes(ref, header=False).decode().strip()
            g = from_graph6(line)
            assert g.n == ref.number_of_nodes()
            assert sorted(g.edges()) == sorted(tuple(sorted(e)) for e in ref.edges())


class TestErrors:
    def test_empty_line(self):
        with pytest.raises(Graph6Error):
            from_graph6("")

    def test_byte_out_of_range(self):
        with pytest.raises(Graph6Error):
            from_graph6("B" + chr(40))

    def test_truncated_payload(self):
        with pytest.raises(Graph6Error):
            from_graph6("D")  # n=5 needs payload bytes

    def test_overlong_payload(self):
        with pytest.raises(Graph6Error):
            from_graph6("A__")

    def test_nonzero_padding(self):
        # K_2 is "A_": payload 100000; flip a padding bit -> invalid
        bad = "A" + chr(63 + 0b110000)
        with pytest.raises(Graph6Error):
            from_graph6(bad)

    def test_line_number_in_message(self):
        with pytest.raises(Graph6Error, match="line 2"):
            read_graph6("A_\nA_X\n")

    def test_header_stripped(self):
        graphs = read_graph6(">>graph6<<A_\nBw\n")
        assert [g.n for g in graphs] == [2, 3]


# ---------------------------------------------------------------------------
# the per-line, per-bit decoder that the block decoder replaced: the reference


def reference_from_graph6(line: str) -> Graph:
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


def reference_read_graph6(text: str) -> list[Graph]:
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
            graphs.append(reference_from_graph6(line))
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}") from None
    return graphs


def _triples(graphs):
    return [(g.n, g.adj, g.m) for g in graphs]


def _corpus_text(n: int) -> str:
    return resources.files("factorlab").joinpath(f"data/connected_{n}.g6").read_text()


def _message(decode, text) -> str:
    with pytest.raises(Graph6Error) as info:
        decode(text)
    return str(info.value)


def _mixed_document(seed: int) -> str:
    """Orders 1..100 in a seeded order, '~' headers from 63 up, blank lines,
    header lines, and a stretch of order-8 lines longer than one block."""
    rng = random.Random(seed)
    lines = []
    for n in rng.sample(range(1, 101), 100) + [8] * (BLOCK_CHARS // 6 + 40) + [63, 63, 1, 2]:
        p = rng.random()
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        line = to_graph6(g)
        roll = rng.random()
        if roll < 0.05:
            lines.append(rng.choice(["", "   ", HEADER]))
        elif roll < 0.1:
            line = HEADER + line
        lines.append(f"  {line}\t" if roll > 0.95 else line)
    return "\n".join(lines) + "\n"


class TestBlockDecoder:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bundled_corpus(self, n):
        text = _corpus_text(n)
        assert _triples(read_graph6(text)) == _triples(reference_read_graph6(text))

    def test_mixed_document(self):
        text = _mixed_document(24)
        assert len(text) > 2 * BLOCK_CHARS and "~" in text and HEADER in text and "\n\n" in text
        graphs = read_graph6(text)
        assert {g.n for g in graphs} == set(range(1, 101))
        assert _triples(graphs) == _triples(reference_read_graph6(text))

    def test_one_line(self):
        for n in (0, 1, 2, 8, 62, 63, 64, 65, 100):
            line = to_graph6(from_edges(n, [(v, (3 * v + 1) % n) for v in range(n) if (3 * v + 1) % n != v]))
            assert _triples([from_graph6(line)]) == _triples([reference_from_graph6(line)])

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("B(\n", id="byte-below-range"),
            pytest.param("A\x7f\n", id="byte-above-range"),
            pytest.param("A\u00e9\n", id="non-ascii"),
            pytest.param("Bw\nA _\n", id="inner-space"),
            pytest.param("~A\n", id="truncated-extended"),
            pytest.param("~~???\n", id="eight-byte-count"),
            pytest.param("~@?@\n", id="over-max-vertices"),
            pytest.param("D\n", id="short-payload"),
            pytest.param("A__\n", id="long-payload"),
            pytest.param("~??~" + "?" * 325 + "\n", id="extended-short-payload"),
            pytest.param("A_\n~??@\n~??A\n", id="extended-header-no-payload"),
            pytest.param("Bw\nA" + chr(63 + 0b110000) + "\n", id="padding"),
            pytest.param("\n>>graph6<<\n  \nA_\n>>graph6<<A~\n", id="line-numbers-count-blanks-and-headers"),
            # in-order runs: line 2 raises before the later bad line of another order
            pytest.param("Bw\nA~\nBw\nBx\n", id="bad-line-before-bad-line-of-another-order"),
            # inside one run: a padding fault before a bad byte, and a bad byte before a padding fault
            pytest.param("Bw\nBx\nBw\nB>\n", id="padding-before-byte"),
            pytest.param("Bw\nB>\nBw\nBx\n", id="byte-before-padding"),
            pytest.param("Bw\n" * (BLOCK_CHARS // 2 + 10) + "Bx\nA~\n", id="padding-past-first-block"),
            pytest.param("Bw\n" * (BLOCK_CHARS // 2 + 10) + "B>\nA~\n", id="byte-past-first-block"),
            pytest.param("Bw\n" * (BLOCK_CHARS // 2 + 10) + "Bww\n", id="length-past-first-block"),
        ],
    )
    def test_malformed_document(self, text):
        assert _message(read_graph6, text) == _message(reference_read_graph6, text)
        first_bad = _message(reference_read_graph6, text).split(":")[0]
        line = text.splitlines()[int(first_bad.removeprefix("line ")) - 1].strip().removeprefix(HEADER)
        assert _message(from_graph6, line) == _message(reference_from_graph6, line)

    def test_empty_line(self):
        assert _message(from_graph6, "\n") == _message(reference_from_graph6, "\n") == "empty graph6 line"

    def test_memory_peak_is_no_higher_than_the_reference(self):
        # the runs' numpy temporaries must not cost more than the per-line decoder held
        text = _corpus_text(8)
        peaks = []
        for decode in (reference_read_graph6, read_graph6):
            tracemalloc.start()
            try:
                decode(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0], peaks

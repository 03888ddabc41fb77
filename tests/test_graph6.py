"""graph6 codec: frozen encodings, round-trips, and strict error handling."""

import random

import pytest

from factorlab import (
    Graph6Error,
    book_family,
    bundled_connected_graphs,
    complete,
    cycle,
    edgeless,
    from_edges,
    from_graph6,
    g_na,
    path,
    read_graph6,
    read_graph6_file,
    star,
    to_graph6,
    write_graph6_file,
)

try:
    import networkx as nx
except ImportError:  # cross-check is optional
    nx = None


# Hand-computed from the format definition: header byte = n + 63, then the
# column-major upper triangle packed into 6-bit groups offset by 63.
FROZEN = {
    "@": edgeless(1),
    "A_": complete(2),
    "A?": edgeless(2),
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
        write_graph6_file(path, graphs)
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

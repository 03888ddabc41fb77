"""Extremal family constructors: degree profiles, edge counts, blocks."""

import re
from itertools import product

import pytest

from factorlab import (
    BadParamsError,
    ParityParams,
    Graph,
    book_family,
    clique_join,
    complete,
    components,
    delete_set,
    disjoint_union,
    edges_between,
    eta,
    from_edges,
    g_na,
    join,
    min_degree,
    quotient,
    vertices_of,
)
from factorlab.graph import MAX_VERTICES
from factorlab.harness import _partitions_exact
from factorlab.spectral import QuotientMatrix
from graph_checks import validate


def block_degrees(cons, name):
    g = cons.graph
    return {g.degree(v) for v in vertices_of(cons.blocks[name])}


class TestGna:
    def test_block_sizes_partition(self):
        for n, a in [(8, 2), (12, 2), (13, 3), (20, 5)]:
            cons = g_na(n, a)
            sizes = {name: mask.bit_count() for name, mask in cons.blocks.items()}
            assert sizes == {"clique_small": a - 1, "clique_big": n - 2 * a - 1,
                             "indep": a + 1, "w": 1}
            union = 0
            for mask in cons.blocks.values():
                assert union & mask == 0
                union |= mask
            assert union == cons.graph.full_mask
            validate(cons.graph)

    def test_degree_profile(self):
        for n, a in [(8, 2), (14, 2), (15, 3), (18, 4)]:
            cons = g_na(n, a)
            assert block_degrees(cons, "indep") == {a}
            assert block_degrees(cons, "w") == {a + 1}
            assert block_degrees(cons, "clique_small") == {n - 2}
            assert block_degrees(cons, "clique_big") == {n - a - 3}
            assert min_degree(cons.graph) == a

    def test_edge_count_formula(self):
        for n, a in [(8, 2), (11, 2), (13, 3), (20, 5), (40, 4)]:
            cons = g_na(n, a)
            assert cons.graph.m == (n - a - 2) * (n - a - 3) // 2 + a * a + a

    def test_join_base_matches_figure(self):
        # without w, the graph is exactly the join of the small clique with
        # the big clique plus isolated vertices
        n, a = 12, 2
        cons = g_na(n, a)
        base, _ = delete_set(cons.graph, cons.blocks["w"])
        expected = join(complete(a - 1), disjoint_union(complete(n - 2 * a - 1),
                                                        from_edges(a + 1, [])))
        assert base == expected

    def test_delete_indep_leaves_clique_and_w(self):
        n, a = 12, 2
        cons = g_na(n, a)
        rest = cons.graph.full_mask ^ cons.blocks["indep"]
        parts = components(cons.graph, rest)
        assert sorted(p.bit_count() for p in parts) == [1, n - a - 2]
        assert max(parts, key=lambda p: p.bit_count()) == (
            cons.blocks["clique_small"] | cons.blocks["clique_big"]
        )

    def test_equitable_four_blocks(self):
        for n, a in [(9, 2), (13, 3), (16, 4)]:
            cons = g_na(n, a)
            qm = quotient(cons.graph, cons.parts())
            assert isinstance(qm, QuotientMatrix)
            assert qm.entries == (
                (a - 2, n - 2 * a - 1, a + 1, 0),
                (a - 1, n - 2 * a - 2, 0, 0),
                (a - 1, 0, 0, 1),
                (0, 0, a + 1, 0),
            )

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            g_na(10, 1)
        with pytest.raises(BadParamsError):
            g_na(6, 2)  # needs n >= 7


class TestBookFamily:
    def test_indep_degree_is_s(self):
        for n, s, b in [(20, 1, 4), (25, 3, 6), (40, 5, 9)]:
            cons = book_family(n, s, b)
            assert block_degrees(cons, "indep") == {s}
            assert block_degrees(cons, "clique_small") == {n - 1}
            assert min_degree(cons.graph) == s
            validate(cons.graph)

    def test_s1_degrees(self):
        n, b = 12, 3
        cons = book_family(n, 1, b)
        assert block_degrees(cons, "indep") == {1}
        assert block_degrees(cons, "clique_small") == {n - 1}
        assert min_degree(cons.graph) == 1

    def test_no_odd_factor_witness(self):
        # at s = 1, S = the small clique and T = the independent block violate the criterion for (1, b)
        for n, b in [(12, 3), (16, 5), (20, 3)]:
            cons = book_family(n, 1, b)
            value = eta(cons.graph, cons.blocks["clique_small"], cons.blocks["indep"],
                        ParityParams(1, b))
            assert value == -2

    def test_hypothesis_recorded_not_enforced(self):
        cons = book_family(12, 2, 5)  # below n_min = (b+1)s+1 = 13: allowed, recorded
        assert cons.hypothesis["n_min"] == 13

    def test_quotient_rows_match_closed_form(self):
        for n, s, b in [(20, 1, 4), (26, 2, 5), (50, 4, 8)]:
            cons = book_family(n, s, b)
            qm = quotient(cons.graph, cons.parts())
            assert isinstance(qm, QuotientMatrix)
            assert qm.entries == (
                (s - 1, n - b - s - 1, b + 1),
                (s, n - b - s - 2, 0),
                (s, 0, 0),
            )

    def test_edges_between_blocks(self):
        n, s, b = 20, 2, 5
        cons = book_family(n, s, b)
        assert edges_between(cons.graph, cons.blocks["clique_small"], cons.blocks["indep"]) == s * (b + 1)
        assert edges_between(cons.graph, cons.blocks["clique_big"], cons.blocks["indep"]) == 0

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            book_family(7, 2, 4)
        with pytest.raises(BadParamsError):
            book_family(10, 0, 4)

    def test_s1_bad_params(self):
        with pytest.raises(BadParamsError):
            book_family(5, 1, 3)


# ---------------------------------------------------------------------------
# clique_join against the chained graph.py builders


def chained_join(s, sizes):
    """K_s joined to the union of K_c, c in sizes, as the families once built it."""
    inner = complete(sizes[0])
    for c in sizes[1:]:
        inner = disjoint_union(inner, complete(c))
    return join(complete(s), inner)


def chained_gna(n, a):
    core = join(complete(a - 1), disjoint_union(complete(n - 2 * a - 1), from_edges(a + 1, [])))
    rows = list(core.adj) + [sum(1 << v for v in range(n - a - 2, n - 1))]
    for v in range(n - a - 2, n - 1):
        rows[v] |= 1 << (n - 1)
    return Graph(n, rows)


def chained_book(n, s, b):
    return join(complete(s), disjoint_union(complete(n - b - s - 1), from_edges(b + 1, [])))


class TestCliqueJoin:
    def test_families_match_chained_builders(self):
        checked = 0
        for n in range(4, 33):
            for a in range(2, (n - 3) // 2 + 1):
                assert g_na(n, a).graph == chained_gna(n, a), (n, a)
                checked += 1
            for b in range(1, n - 2):
                for s in range(1, n - b - 1):
                    assert book_family(n, s, b).graph == chained_book(n, s, b), (n, s, b)
                    checked += 1
        assert checked == 182 + 4495  # g_na, then book_family

    def test_lemma26_compositions_match(self):
        count = 0
        for s in range(1, 4):
            for q in range(1, 5):
                for n in range(s + q, 15):
                    for sizes in _partitions_exact(n - s, q):
                        assert Graph(n, clique_join(s, sizes)) == chained_join(s, sizes), (s, sizes)
                        count += 1
        assert count == 467  # the lemma2.6 grid at its defaults

    def test_labels(self):
        # K_2 first, then a triangle on 2..4, then isolated vertices 5 and 6
        rows = clique_join(2, (3, 1, 1))
        assert rows[0] == 0b1111110 and rows[1] == 0b1111101
        assert rows[2:5] == [0b11011, 0b10111, 0b01111]
        assert rows[5:] == [0b11, 0b11]
        assert clique_join(0, (2,)) == [0b10, 0b01] and clique_join(3, ()) == list(complete(3).adj)

    def test_bad_input(self):
        for s, sizes in [(-1, (2,)), (1, (0,)), (1, (3, -1)), (1, (MAX_VERTICES,))]:
            with pytest.raises(BadParamsError):
                clique_join(s, sizes)

    def test_order_above_limit_rejected_naming_n(self):
        # rejected before any row or clique-size tuple is built
        for n in (MAX_VERTICES + 1, 10**9):
            for build, args in [(g_na, (2,)), (book_family, (2, 5)), (book_family, (1, n - 5))]:
                with pytest.raises(BadParamsError, match=str(n)):
                    build(n, *args)
        assert g_na(MAX_VERTICES, 2).graph.n == MAX_VERTICES

    @pytest.mark.parametrize(
        "build, args, named",
        [
            pytest.param(g_na, (12, 10**9), "g_na's a", id="g_na-a-huge"),
            pytest.param(g_na, (8, 3), "g_na's a", id="g_na-a-above-what-n-leaves"),
            pytest.param(book_family, (12, 1, 10**9), "book_family's b", id="book_family-b-huge"),
            pytest.param(book_family, (12, 10**9, 3), "book_family's s", id="book_family-s-huge"),
            pytest.param(book_family, (10**9, 1, 10**9 - 5), "book_family's n", id="book_family-n-huge"),
        ],
    )
    def test_refusal_names_the_parameter_out_of_range(self, build, args, named):
        # n is checked first, then each shape parameter against what n leaves
        with pytest.raises(BadParamsError, match=f"^{named} must be in"):
            build(*args)

    def test_no_refusal_prints_an_empty_range(self, monkeypatch):
        class Accepted(Exception):
            pass

        def accept(*args):
            raise Accepted

        monkeypatch.setattr("factorlab.families.clique_join", accept)  # every check runs before the rows
        values = (-1, 0, 1, 2, 3, 4, 7, 12, MAX_VERTICES, MAX_VERTICES + 1, 10**9)
        refused = 0
        for build, arity in ((g_na, 2), (book_family, 3)):
            for args in product(values, repeat=arity):
                try:
                    build(*args)
                except Accepted:
                    continue
                except BadParamsError as exc:
                    refused += 1
                    low, high = map(int, re.search(r" in (-?\d+)\.\.(-?\d+),", str(exc)).groups())
                    assert low <= high, (build.__name__, args, str(exc))
        assert refused > 1000

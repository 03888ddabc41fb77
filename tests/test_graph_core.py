"""Core graph type: builders, set operations, and their invariants."""

import pickle
import random

import numpy as np
import pytest

from factorlab import (
    BadParamsError,
    CriterionWitness,
    FactorLabError,
    ParityParams,
    book_charpoly,
    book_family,
    clique_join,
    complement,
    complete,
    components,
    cycle,
    delete_set,
    disjoint_union,
    edge_rotation,
    edges_between,
    eta,
    f_monotone_check,
    from_edges,
    g_na,
    hong_nikiforov_bound,
    is_connected,
    join,
    mask_of,
    min_degree,
    path,
    quotient,
    recognize_gna,
    relabel,
    spectral_radius,
    star,
    survey_theorem,
    verify_witness,
    vertices_of,
)
from factorlab.graph import MAX_VERTICES, Graph
from graph_checks import validate


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


class TestComplete:
    def test_single_vertex(self):
        g = complete(1)
        assert g.n == 1 and g.m == 0

    def test_k4(self):
        g = complete(4)
        assert g.m == 6
        assert g.degrees() == [3, 3, 3, 3]

    def test_k10_regular(self):
        assert complete(10).degrees() == [9] * 10

    def test_empty_rejected(self):
        with pytest.raises(BadParamsError, match="vertex count must be in 1..4096, got 0"):
            complete(0)


class TestUnionJoin:
    def test_union_of_singletons(self):
        g = disjoint_union(complete(1), complete(1))
        assert g.n == 2 and g.m == 0

    def test_union_additivity(self):
        g = disjoint_union(complete(3), complete(2))
        assert g.m == 4

    def test_repeated_singletons_edgeless(self):
        a = 3
        g = complete(1)
        for _ in range(a):
            g = disjoint_union(g, complete(1))
        assert g.n == a + 1 and g.m == 0
        assert g == from_edges(a + 1, [])

    def test_join_star(self):
        n = 7
        g = join(complete(1), from_edges(n - 1, []))
        assert g.degree(0) == n - 1
        assert g == star(n)

    def test_join_of_cliques(self):
        assert join(complete(2), complete(3)) == complete(5)

    def test_join_edge_count_random(self):
        rng = random.Random(7)
        for _ in range(50):
            g1 = random_graph(rng.randrange(1, 8), rng.random(), rng)
            g2 = random_graph(rng.randrange(1, 8), rng.random(), rng)
            j = join(g1, g2)
            assert j.m == g1.m + g2.m + g1.n * g2.n
            validate(j)


class TestComplement:
    def test_complete_to_edgeless(self):
        assert complement(complete(6)) == from_edges(6, [])

    def test_edgeless_to_complete(self):
        assert complement(from_edges(5, [])) == complete(5)

    def test_c4_complement_is_perfect_matching(self):
        g = complement(cycle(4))
        assert g.m == 2
        assert sorted(c.bit_count() for c in components(g)) == [2, 2]

    def test_involution_and_size(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng.randrange(1, 12), rng.random(), rng)
            cg = complement(g)
            assert g.m + cg.m == g.n * (g.n - 1) // 2
            assert complement(cg) == g


class TestDeleteSet:
    def test_delete_one_from_k5(self):
        h, labels = delete_set(complete(5), {0})
        assert h == complete(4)
        assert labels == [1, 2, 3, 4]

    def test_delete_nothing(self):
        g = cycle(6)
        h, labels = delete_set(g, 0)
        assert h == g and labels == list(range(6))

    def test_delete_indep_block_of_gna(self):
        # removing the independent block leaves a clique plus the added vertex
        n, a = 13, 3
        cons = g_na(n, a)
        h, labels = delete_set(cons.graph, cons.blocks["indep"])
        parts = components(h)
        assert sorted(p.bit_count() for p in parts) == [1, n - a - 2]
        big = max(parts, key=lambda p: p.bit_count())
        sub, _ = delete_set(h, h.full_mask ^ big)
        assert sub == complete(n - a - 2)
        assert len(set(labels)) == len(labels)  # injective


class TestComponents:
    def test_connected_clique(self):
        parts = components(complete(5))
        assert len(parts) == 1 and parts[0].bit_count() == 5

    def test_clique_plus_isolated(self):
        g = disjoint_union(complete(3), from_edges(2, []))
        assert sorted(p.bit_count() for p in components(g)) == [1, 1, 3]

    def test_parts_connected_and_non_adjacent(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(10, 0.15, rng)
            parts = components(g)
            assert sum(p.bit_count() for p in parts) == g.n
            for i, p in enumerate(parts):
                sub, _ = delete_set(g, g.full_mask ^ p)
                assert is_connected(sub)
                for q in parts[i + 1:]:
                    assert edges_between(g, p, q) == 0


class TestEdgesBetween:
    def test_k4_split(self):
        assert edges_between(complete(4), {0, 1}, {2, 3}) == 4

    def test_empty_side(self):
        assert edges_between(cycle(5), {0, 1}, 0) == 0

    def test_w_to_indep_in_gna(self):
        n, a = 12, 2
        cons = g_na(n, a)
        assert edges_between(cons.graph, cons.blocks["w"], cons.blocks["indep"]) == a + 1

    def test_overlap_rejected(self):
        with pytest.raises(BadParamsError, match="edges_between requires disjoint sets"):
            edges_between(complete(4), {0, 1}, {1, 2})


class TestDegreeConnectivity:
    def test_min_degree_complete(self):
        assert min_degree(complete(9)) == 8

    def test_two_singletons_disconnected(self):
        assert not is_connected(from_edges(2, []))

    def test_min_degree_gna_grid(self):
        for a in (2, 3, 4):
            for n in range(2 * a + 3, 2 * a + 9):
                assert min_degree(g_na(n, a).graph) == a


class TestMasks:
    def test_mask_roundtrip(self):
        assert vertices_of(mask_of([5, 1, 3])) == [1, 3, 5]
        assert mask_of(0b1010) == 0b1010
        # numpy integers become Python ints: no int64 overflow from vertex 63 on
        assert mask_of(np.array([1, 70])) == 1 << 1 | 1 << 70 and mask_of(np.int64(6)) == 6
        assert from_edges(71, [tuple(np.array([0, 70]))]) == from_edges(71, [(0, 70)])

    def test_relabel_preserves_structure(self):
        rng = random.Random(5)
        g = random_graph(8, 0.4, rng)
        perm = list(range(8))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert h.m == g.m
        assert sorted(h.degrees()) == sorted(g.degrees())
        back = [0] * 8
        for old, new in enumerate(perm):
            back[new] = old
        assert relabel(h, back) == g

    @pytest.mark.parametrize(
        "call, match",
        [
            pytest.param(lambda k4: components(k4, 1 << 20), "component set references vertices outside",
                         id="components-outside-V"),
            pytest.param(lambda k4: components(k4, [-1]), "vertex label -1 is not", id="components-negative-label"),
            pytest.param(lambda k4: edges_between(k4, [9], [0]), "edges_between set references vertices outside",
                         id="edges_between-outside-V"),
            pytest.param(lambda k4: edges_between(k4, -1, 0), "vertex mask -1 is negative",
                         id="edges_between-negative-mask"),
            pytest.param(lambda k4: edge_rotation(k4, 9, 0, [1]), "vi and vj must be vertices of the graph",
                         id="edge_rotation-vi-outside-V"),
            pytest.param(lambda k4: edge_rotation(k4, -1, 0, [3]), "vi and vj must be vertices of the graph",
                         id="edge_rotation-negative-vi"),
            pytest.param(lambda k4: eta(k4, [-1], [], ParityParams(1, 1)), "^vertex label -1 is not a nonnegative integer$",
                         id="eta-negative-label"),
            pytest.param(lambda k4: quotient(k4, [[0, 1], [2, 3, -1]]), "vertex label -1 is not",
                         id="quotient-negative-label"),
            pytest.param(lambda k4: delete_set(k4, [-1]), "vertex label -1 is not", id="delete_set-negative-label"),
            pytest.param(lambda k4: mask_of([0, 1.5]), "vertex label 1.5 is not", id="mask_of-non-integer-label"),
            pytest.param(lambda k4: vertices_of(-1), "vertex mask -1 is negative", id="vertices_of-negative-mask"),
            pytest.param(lambda k4: components(k4, 1.5), "vertex label 1.5 is not", id="components-float-set"),
            pytest.param(lambda k4: delete_set(k4, None), "vertex label None is not", id="delete_set-none-set"),
            pytest.param(lambda k4: eta(k4, 1.5, 0, ParityParams(1, 1)), "vertex label 1.5 is not", id="eta-float-set"),
            pytest.param(lambda k4: edges_between(k4, 1.5, 2), "vertex label 1.5 is not", id="edges_between-float-set"),
            pytest.param(lambda k4: from_edges(3, [(0, 1.5)]), "is not a pair of integer labels",
                         id="from_edges-float-label"),
            pytest.param(lambda k4: from_edges(3, [(0, 1, 2)]), "is not a pair of integer labels",
                         id="from_edges-triple"),
            pytest.param(lambda k4: relabel(k4, [0, 1, 2, 3.0]), "relabel map entries must be integers",
                         id="relabel-float-label"),
            pytest.param(lambda k4: edge_rotation(k4, 0.5, 1, [2]), "vi and vj must be integers",
                         id="edge_rotation-float-vi"),
        ],
    )
    def test_bad_vertex_set_is_refused(self, call, match):
        # each once raised IndexError, ValueError or TypeError, returned 0, or (vertices_of(-1)) never returned
        with pytest.raises(BadParamsError, match=match):
            call(complete(4))

    def test_negative_witness_mask_is_not_verified(self):
        for s_set in (-1, 1.5):
            witness = CriterionWitness(s_set=s_set, t_set=0, eta=-2, q=0, deg_sum=0)
            assert not verify_witness(complete(4), witness, ParityParams(1, 1))


class TestIntegerParams:
    @pytest.mark.parametrize(
        "call, match",
        [
            pytest.param(lambda: ParityParams(1.5, 3.5), "a and b must be integers", id="ParityParams"),
            pytest.param(lambda: ParityParams(True, 3), "a and b must be integers", id="ParityParams-bool"),
            pytest.param(lambda: relabel(complete(2), [True, False]), "relabel map entries must be integers",
                         id="relabel-bool"),
            pytest.param(lambda: g_na(12.0, 2), "g_na's n must be an integer", id="g_na"),
            pytest.param(lambda: book_family(20, 2.0, 5), "book_family's s must be an integer", id="book_family"),
            pytest.param(lambda: clique_join(1, (2.5,)), "clique_join's sizes must be integers", id="clique_join"),
            pytest.param(lambda: survey_theorem(12.0, 2, 4, samples=1), "n must be an integer", id="survey_theorem"),
            pytest.param(lambda: spectral_radius(complete(4), tol="x"), "tol must be a number", id="spectral_radius-tol"),
            pytest.param(lambda: spectral_radius(complete(4), max_iter=1.5), "max_iter must be an integer",
                         id="spectral_radius-max_iter"),
            pytest.param(lambda: spectral_radius(complete(4), max_iter=2.5), r"^max_iter must be an integer, got 2\.5$",
                         id="spectral_radius-max_iter-message"),
            pytest.param(lambda: survey_theorem(12, 2, 4, samples=2.5), r"^samples must be an integer, got 2\.5$",
                         id="survey_theorem-samples-message"),
            pytest.param(lambda: survey_theorem(None, 2, 4, samples=1), "n must be an integer, got None",
                         id="survey_theorem-none"),
            pytest.param(lambda: f_monotone_check(None, 30, [0.0, 1.0]), "f_monotone_check's n and m must be integers",
                         id="f_monotone_check-none"),
            pytest.param(lambda: book_charpoly(20.5, 2, 5), "book_charpoly's n, s and b must be integers",
                         id="book_charpoly-fraction"),
            pytest.param(lambda: recognize_gna(complete(7), None), "recognize_gna's a must be an integer, got None",
                         id="recognize_gna-none"),
            pytest.param(lambda: hong_nikiforov_bound(12, 30, None), "delta must be an integer, got None",
                         id="hong_nikiforov_bound-none"),
            pytest.param(lambda: vertices_of(4.0), "vertex label 4.0 is not", id="vertices_of-float"),
        ],
    )
    def test_non_integer_is_refused(self, monkeypatch, call, match):
        # each once was accepted or raised TypeError; a family refuses before it builds a row
        monkeypatch.setattr("factorlab.families.clique_join", lambda *args: pytest.fail("rows were built"))
        with pytest.raises(BadParamsError, match=match):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda n: complete(n), id="complete"),
            pytest.param(lambda n: from_edges(n, []), id="from_edges"),
            pytest.param(lambda n: cycle(n), id="cycle"),
            pytest.param(lambda n: path(n), id="path"),
            pytest.param(lambda n: star(n), id="star"),
        ],
    )
    @pytest.mark.parametrize("n", [4.0, 2.5, None, True, -1, MAX_VERTICES + 1],
                             ids=["float", "fraction", "none", "bool", "negative", "over-limit"])
    def test_builder_order_is_refused_before_rows(self, monkeypatch, call, n):
        # each once raised TypeError, was accepted (True gave an order of True), or built every row first
        monkeypatch.setattr("factorlab.graph.Graph", lambda *args: pytest.fail("rows were built"))
        monkeypatch.setattr("factorlab.graph.from_edges", lambda *args: pytest.fail("an edge list was built"))
        with pytest.raises(BadParamsError, match="vertex count"):
            call(n)

    def test_numpy_integers_are_accepted(self):
        n, two, four, five = map(np.int64, (80, 2, 4, 5))
        assert g_na(n, two).graph == g_na(80, 2).graph
        assert book_family(n, two, five).graph == book_family(80, 2, 5).graph
        assert ParityParams(two, four) == ParityParams(2, 4)
        assert spectral_radius(complete(4), tol=np.float64(1e-9), max_iter=np.int64(100)).rho == pytest.approx(3)


def _k4():
    return complete(4)


@pytest.mark.parametrize(
    "call, match",
    [
        # no vertex: each graph constructor and degree query, beside cycle and spectral_radius
        pytest.param(lambda: complete(0), "vertex count must be in 1..4096, got 0", id="complete-0"),
        pytest.param(lambda: path(0), "vertex count must be in 1..4096, got 0", id="path-0"),
        pytest.param(lambda: star(0), "vertex count must be in 1..4096, got 0", id="star-0"),
        pytest.param(lambda: min_degree(Graph(0, [])), "min_degree of the empty graph", id="min_degree-empty"),
        pytest.param(lambda: is_connected(Graph(0, [])), "connectivity of the empty graph", id="is_connected-empty"),
        pytest.param(lambda: cycle(0), "vertex count must be in 3..", id="cycle-0"),
        pytest.param(lambda: spectral_radius(Graph(0, [])), "spectral radius of the empty graph", id="spectral_radius-empty"),
        # S and T: eta, beside edges_between and components
        pytest.param(lambda: eta(_k4(), [7], [], ParityParams(1, 1)), "S or T references vertices outside",
                     id="eta-outside-V"),
        pytest.param(lambda: eta(_k4(), [-1], [], ParityParams(1, 1)), "^vertex label -1 is not a nonnegative integer$",
                     id="eta-negative-label"),
        pytest.param(lambda: eta(_k4(), [0, 1], [1], ParityParams(1, 1)), "S and T must be disjoint", id="eta-overlap"),
        pytest.param(lambda: edges_between(_k4(), [7], [1]), "edges_between set references vertices outside",
                     id="edges_between-outside-V"),
        pytest.param(lambda: edges_between(_k4(), [0, 1], [1]), "edges_between requires disjoint sets",
                     id="edges_between-overlap"),
        pytest.param(lambda: components(_k4(), [7]), "component set references vertices outside",
                     id="components-outside-V"),
        pytest.param(lambda: delete_set(complete(3), [5]), "deleted set references vertices outside the graph",
                     id="delete_set-outside-V"),
        pytest.param(lambda: relabel(complete(3), [0, 0, 1]), "relabel map is not a permutation",
                     id="relabel-not-a-permutation"),
        # a partition that is not one
        pytest.param(lambda: quotient(_k4(), [[0, 1], [2, 3], []]), "empty part", id="quotient-empty-part"),
        pytest.param(lambda: quotient(_k4(), [[0, 1], [1, 2, 3]]), "parts overlap", id="quotient-overlap"),
        pytest.param(lambda: quotient(_k4(), [[0, 1], [2]]), "parts do not cover V", id="quotient-not-covering"),
        # the four refusals of edge_rotation
        pytest.param(lambda: edge_rotation(_k4(), 9, 0, [1]), "vi and vj must be vertices", id="edge_rotation-outside-V"),
        pytest.param(lambda: edge_rotation(path(5), 4, 0, 0), "moved set must be nonempty", id="edge_rotation-empty"),
        pytest.param(lambda: edge_rotation(path(3), 0, 1, [0]), "moved set must not contain vi",
                     id="edge_rotation-contains-vi"),
        pytest.param(lambda: edge_rotation(_k4(), 0, 1, [2]), "moved set must lie in", id="edge_rotation-common"),
        # degree windows
        pytest.param(lambda: ParityParams(1.5, 3.5), "a and b must be integers", id="ParityParams-float"),
    ],
)
def test_every_argument_refusal_is_a_bad_params_error(call, match):
    # an argument that breaks a stated condition raises the one class, whichever condition it is
    with pytest.raises(BadParamsError, match=match):
        call()


class TestGraphType:
    def test_immutable(self):
        g = complete(3)
        with pytest.raises(AttributeError):
            g.n = 5

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_stays_immutable(self, protocol):
        # a jobs > 1 oracle pool unpickles its workers' graphs: a copy that cannot be
        # rebuilt hangs the pool instead of failing, so the round trip is checked here
        g = from_edges(5, [(0, 1), (1, 2), (3, 4)])
        copy = pickle.loads(pickle.dumps(g, protocol))
        assert (copy.n, copy.adj, copy.m) == (g.n, g.adj, g.m)
        for name in ("n", "adj", "m"):
            with pytest.raises(AttributeError):
                setattr(copy, name, getattr(g, name))

    def test_rejects_self_loop_rows(self):
        with pytest.raises(BadParamsError):
            Graph(2, (0b01, 0b10))

    def test_rejects_out_of_range(self):
        with pytest.raises(BadParamsError):
            Graph(2, (0b100, 0))

    def test_rejects_bad_order_and_row_count(self):
        for n, rows in [(-1, ()), (MAX_VERTICES + 1, ()), (2, (0,)), (1, (0, 0))]:
            with pytest.raises(BadParamsError):
                Graph(n, rows)

    def test_from_edges_rejects_label_outside_order(self):
        for edge in [(0, 3), (-1, 2)]:
            with pytest.raises(BadParamsError, match="outside 0..2"):
                from_edges(3, [edge])

    def test_cycle_needs_three_vertices(self):
        for n in (0, 1, 2):
            with pytest.raises(BadParamsError, match="vertex count"):
                cycle(n)

    def test_from_edges_rejects_loop(self):
        with pytest.raises(BadParamsError):
            from_edges(3, [(1, 1)])

    def test_validate_rejects_asymmetric_rows(self):
        with pytest.raises(FactorLabError, match="asymmetric"):
            validate(Graph(2, (0b10, 0)))

    def test_random_builders_validate(self):
        rng = random.Random(1)
        for _ in range(30):
            g = random_graph(rng.randrange(1, 15), rng.random(), rng)
            validate(g)

"""Factor engine: eta, the two deciders, certificates, witnesses, oracles.

The naive oracle below recomputes eta from scratch with dict-of-sets
adjacency and recursive DFS, sharing no code with the bitmask route.
"""

import hashlib
import random

import numpy as np
import pytest

from factorlab import (
    CriterionWitness,
    FactorCertificate,
    BadParamsError,
    ParityPreconditionError,
    ParityParams,
    SizeLimitError,
    Verdict,
    bundled_connected_graphs,
    complete,
    components,
    criterion_scan,
    criterion_witness,
    cycle,
    decide_by_criterion,
    decide_by_matching,
    decide_by_search,
    disjoint_union,
    eta,
    from_edges,
    from_graph6,
    g_na,
    has_perfect_matching,
    mask_of,
    path,
    sample_connected_min_degree,
    search_scan,
    star,
    to_graph6,
    verify_certificate,
    verify_witness,
    vertices_of,
)
from factorlab import factors
from factorlab.errors import FactorLabError
from factorlab.matching import max_matching

try:
    import networkx as nx
except ImportError:  # cross-check is optional
    nx = None

PAIRS = [ParityParams(*ab) for ab in ((1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5))]
# with a > n + 1 or b > n on small graphs: the R filters clamp a and b
CLAMP_PAIRS = PAIRS + [ParityParams(2, 60), ParityParams(1, 61), ParityParams(9, 11), ParityParams(10, 10)]


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def random_connected(n, p, rng):
    from factorlab import is_connected

    while True:
        g = random_graph(n, p, rng)
        if is_connected(g):
            return g


# ---------------------------------------------------------------------------
# naive recomputation oracle (independent implementation)


def naive_adj(g):
    return {v: set(vertices_of(g.adj[v])) for v in range(g.n)}


def naive_components(adj, rest):
    seen = set()
    comps = []
    for v in sorted(rest):
        if v in seen:
            continue
        stack = [v]
        comp = set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(w for w in adj[u] if w in rest and w not in comp)
        seen |= comp
        comps.append(comp)
    return comps


def naive_eta(g, s, t, a, b):
    adj = naive_adj(g)
    s, t = set(s), set(t)
    rest = set(range(g.n)) - s - t
    deg_sum = sum(len(adj[x] - s) for x in t)
    q = 0
    for comp in naive_components(adj, rest):
        e_qt = sum(1 for v in comp for u in adj[v] if u in t)
        if (a * len(comp) + e_qt) % 2 == 1:
            q += 1
    return b * len(s) - a * len(t) + deg_sum - q


def naive_a_odd(g, s, t, a):
    adj = naive_adj(g)
    s, t = set(s), set(t)
    rest = set(range(g.n)) - s - t
    count = 0
    for comp in naive_components(adj, rest):
        e_qt = sum(1 for v in comp for u in adj[v] if u in t)
        if (a * len(comp) + e_qt) % 2 == 1:
            count += 1
    return count


def random_disjoint_sets(n, rng):
    s, t = [], []
    for v in range(n):
        lot = rng.randrange(3)
        if lot == 0:
            s.append(v)
        elif lot == 1:
            t.append(v)
    return s, t


# ---------------------------------------------------------------------------


class TestAOddCount:
    # q, the number of components Q of G-S-T with a|V(Q)| + e(Q,T) odd, depends on a alone
    def test_gna_indep_block(self):
        for n, a in [(12, 2), (13, 3), (16, 4)]:
            cons = g_na(n, a)
            if (n * a) % 2:
                continue
            assert criterion_witness(cons.graph, 0, cons.blocks["indep"], ParityParams(a, a)).q == 2

    def test_even_a_empty_sets(self):
        g = cycle(7)
        assert criterion_witness(g, 0, 0, ParityParams(2, 2)).q == 0

    def test_matches_naive_recount(self):
        rng = random.Random(42)
        for _ in range(200):
            g = random_graph(10, 0.3, rng)
            s, t = random_disjoint_sets(10, rng)
            assert criterion_witness(g, s, t, ParityParams(3, 3)).q == naive_a_odd(g, s, t, 3)

    def test_disjointness_enforced(self):
        with pytest.raises(BadParamsError, match="S and T must be disjoint"):
            criterion_witness(complete(4), {0}, {0, 1}, ParityParams(2, 2))


class TestEta:
    def test_gna_value_is_minus_two(self):
        for a in (2, 3, 4, 5):
            for b in (a + 2, a + 4):
                for n in range(2 * a + 4, 2 * a + 12):
                    if (n * a) % 2:
                        continue
                    cons = g_na(n, a)
                    assert eta(cons.graph, 0, cons.blocks["indep"], ParityParams(a, b)) == -2

    def test_trivial_even_a_empty_sets(self):
        g = random_connected(9, 0.4, random.Random(3))
        assert eta(g, 0, 0, ParityParams(2, 2)) == 0

    def test_matches_naive(self):
        rng = random.Random(17)
        pairs = [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)]
        for _ in range(300):
            n = rng.randrange(4, 12)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng)
            valid = [(a, b) for a, b in pairs if (n * a) % 2 == 0]
            a, b = rng.choice(valid)
            s, t = random_disjoint_sets(n, rng)
            assert eta(g, s, t, ParityParams(a, b)) == naive_eta(g, s, t, a, b)

    def test_always_even(self):
        rng = random.Random(23)
        pairs = [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (4, 6)]
        for _ in range(2000):
            n = rng.randrange(4, 12)
            g = random_graph(n, rng.random() * 0.7 + 0.1, rng)
            valid = [(a, b) for a, b in pairs if (n * a) % 2 == 0]
            a, b = rng.choice(valid)
            s, t = random_disjoint_sets(n, rng)
            assert eta(g, s, t, ParityParams(a, b)) % 2 == 0

    def test_parity_preconditions(self):
        with pytest.raises(ParityPreconditionError):
            ParityParams(2, 3)
        with pytest.raises(ParityPreconditionError):
            ParityParams(0, 2)
        with pytest.raises(ParityPreconditionError):
            eta(complete(5), 0, 0, ParityParams(1, 3))  # n*a odd

    def test_disjointness(self):
        with pytest.raises(BadParamsError, match="S and T must be disjoint"):
            eta(complete(4), {1}, {1}, ParityParams(2, 2))


class TestCriterionWitness:
    def test_cells_match_eta_and_deficiency(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randrange(4, 12)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng)
            params = rng.choice([p for p in PAIRS if p.admits(n)])
            s, t = random_disjoint_sets(n, rng)
            w = criterion_witness(g, s, t, params)
            assert w.eta == eta(g, s, t, params)
            s_mask, t_mask = mask_of(s), mask_of(t)
            cells = factors._deficiency(g, s_mask, t_mask, params.a, params.b)
            assert w == CriterionWitness(s_mask, t_mask, *cells)

    @pytest.mark.parametrize(
        "s, t, params, error, match",
        [
            pytest.param({1}, {1, 2}, ParityParams(2, 2), BadParamsError, "must be disjoint", id="overlapping"),
            pytest.param({5}, {1}, ParityParams(2, 2), BadParamsError, "outside the graph", id="outside-V"),
            pytest.param(0, 1 << 7, ParityParams(2, 2), BadParamsError, "outside the graph", id="mask-outside-V"),
            pytest.param(0, 0, ParityParams(1, 3), ParityPreconditionError, r"n\*a must be even", id="n-times-a-odd"),
        ],
    )
    def test_raises_where_eta_does(self, s, t, params, error, match):
        g = complete(5)
        for fn in (eta, criterion_witness):
            with pytest.raises(error, match=match):
                fn(g, s, t, params)

    def test_admits_is_the_order_rule(self):
        assert [ParityParams(1, 3).admits(n) for n in range(1, 6)] == [False, True, False, True, False]
        assert all(ParityParams(2, 4).admits(n) for n in range(1, 6))


class TestVerifyWitness:
    def test_scan_witnesses_verify(self):
        for n in range(2, 7):
            params = [p for p in PAIRS if p.admits(n)]
            for g in bundled_connected_graphs(n):
                for p, v in zip(params, criterion_scan(g, params)):
                    assert v.exists or verify_witness(g, v.witness, p)

    def test_gna_block_witness_and_rejections(self):
        cons = g_na(12, 2)
        params = ParityParams(2, 4)
        w = criterion_witness(cons.graph, 0, cons.blocks["indep"], params)
        assert verify_witness(cons.graph, w, params)
        for bad in (
            CriterionWitness(w.t_set, w.t_set, w.eta, w.q, w.deg_sum),  # S and T overlap
            CriterionWitness(w.s_set, w.t_set | 1 << 12, w.eta, w.q, w.deg_sum),  # T leaves V
            CriterionWitness(w.s_set, w.t_set, w.eta - 2, w.q, w.deg_sum),  # cells that are not T's
            CriterionWitness(w.s_set, w.t_set, w.eta, w.q + 2, w.deg_sum),
            criterion_witness(cons.graph, 0, 0, params),  # right cells, eta = 0 violates nothing
        ):
            assert not verify_witness(cons.graph, bad, params)


class TestDecideByCriterion:
    def test_cycle_is_its_own_two_factor(self):
        assert decide_by_criterion(cycle(4), ParityParams(2, 2)).exists

    def test_gna_has_no_parity_factor(self):
        v = decide_by_criterion(g_na(12, 2).graph, ParityParams(2, 4))
        assert not v.exists
        assert v.witness.eta <= -2

    def test_witness_fields_consistent(self):
        rng = random.Random(31)
        found = 0
        for _ in range(200):
            n = rng.randrange(5, 10)
            g = random_graph(n, 0.3, rng)
            pairs = [(a, b) for a, b in [(1, 1), (2, 2), (2, 4), (3, 3)] if (n * a) % 2 == 0]
            a, b = rng.choice(pairs)
            v = decide_by_criterion(g, ParityParams(a, b))
            if v.exists:
                continue
            found += 1
            w = v.witness
            assert w.s_set & w.t_set == 0
            assert w.eta <= -2
            # recompute every field from the masks
            assert eta(g, w.s_set, w.t_set, ParityParams(a, b)) == w.eta
            assert naive_a_odd(g, vertices_of(w.s_set), vertices_of(w.t_set), a) == w.q
            assert (
                b * w.s_set.bit_count() - a * w.t_set.bit_count() + w.deg_sum - w.q == w.eta
            )
        assert found > 20  # the sample must actually exercise witnesses

    def test_matches_matching_oracle_on_small_graphs(self):
        rng = random.Random(77)
        for _ in range(150):
            n = rng.choice([4, 6, 8])
            g = random_connected(n, rng.choice([0.3, 0.5]), rng)
            v = decide_by_criterion(g, ParityParams(1, 1))
            assert v.exists == has_perfect_matching(g)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            decide_by_criterion(path(19), ParityParams(2, 2))

    def test_size_limit_force(self, monkeypatch):
        import factorlab.factors as factors

        monkeypatch.setattr(factors, "CRITERION_VERTEX_LIMIT", 5)
        g = path(6)
        with pytest.raises(SizeLimitError):
            decide_by_criterion(g, ParityParams(1, 1))
        v = decide_by_criterion(g, ParityParams(1, 1), force=True)
        assert v.exists  # P_6 has a perfect matching

    def test_table_ceiling_refuses_force(self, monkeypatch):
        import factorlab.factors as factors

        monkeypatch.setattr(factors, "CRITERION_VERTEX_LIMIT", 4)
        monkeypatch.setattr(factors, "CRITERION_TABLE_LIMIT", 5)
        assert decide_by_criterion(cycle(5), ParityParams(2, 2), force=True).exists

        def no_tables(*args):
            raise AssertionError("tables allocated above the ceiling")

        monkeypatch.setattr(factors, "_component_forest", no_tables)
        with pytest.raises(SizeLimitError):
            decide_by_criterion(path(6), ParityParams(1, 1), force=True)

    def test_batched_scan_equals_single(self):
        rng = random.Random(9)
        params = [ParityParams(2, 2), ParityParams(2, 4), ParityParams(4, 4)]
        for _ in range(40):
            g = random_graph(8, 0.45, rng)
            batched = criterion_scan(g, params)
            for p, vb in zip(params, batched):
                vs = decide_by_criterion(g, p)
                assert vb.exists == vs.exists
                assert vb.witness == vs.witness

    def test_exact_table_equals_bound_route(self, monkeypatch):
        # the exact R table and the bound prefilter must give the same
        # verdicts and the same witness bytes
        cases = [(g, n) for n in range(1, 8) for g in bundled_connected_graphs(n)]
        rng = random.Random(808)
        cases += [(random_connected(n, p, rng), n) for n in (9, 10) for p in (0.3, 0.5, 0.7)]
        cases += [(g_na(10, 2).graph, 10), (g_na(9, 2).graph, 9)]
        for g, n in cases:
            valid = [p for p in PAIRS if (n * p.a) % 2 == 0]
            table = criterion_scan(g, valid)
            monkeypatch.setattr(factors, "CRITERION_EXACT_LIMIT", 0)
            bound = criterion_scan(g, valid)
            monkeypatch.undo()
            assert table == bound, to_graph6(g)

    def test_exact_table_is_exact(self):
        # keep[i, R] against a brute force over every T inside V - R with the
        # public eta; the large pairs exercise the clamping of a and b (P3 + K1
        # has two odd components, so at R = V the parity of a decides)
        rng = random.Random(606)
        graphs = [from_edges(4, [(0, 1), (1, 2)])]
        graphs += [random_graph(rng.randrange(1, 7), rng.choice([0.2, 0.4, 0.7]), rng) for _ in range(24)]
        for g in graphs:
            n = g.n
            valid = [p for p in CLAMP_PAIRS if (n * p.a) % 2 == 0]
            first, ncomp = factors._component_forest([g.adj], n)
            keep = factors._exact_keep([g.adj], n, first, ncomp, valid)[0]
            full = (1 << n) - 1
            for i, p in enumerate(valid):
                for r_mask in range(1 << n):
                    w_mask = full ^ r_mask
                    subsets = (t for t in range(1 << n) if t & w_mask == t)
                    expected = any(eta(g, w_mask ^ t, t, p) <= -2 for t in subsets)
                    assert bool(keep[i, r_mask]) == expected, (to_graph6(g), p, r_mask)

    def test_component_forest_matches_components(self, monkeypatch):
        # first[R] and ncomp[R] against graph.components on every R; P_12
        # needs the most closure rounds, and a small FOREST_BLOCK splits the
        # larger graphs into many blocks without changing a table entry
        rng = random.Random(1414)
        graphs = [g for n in range(1, 8) for g in bundled_connected_graphs(n)]
        graphs += [path(12), from_edges(10, []), disjoint_union(cycle(5), path(6))]
        graphs += [random_graph(14, p, rng) for p in (0.15, 0.3)]
        for g in graphs:
            (first,), (ncomp,) = factors._component_forest([g.adj], g.n)
            assert first.dtype == np.uint32 and ncomp.dtype == np.uint8
            assert len(first) == len(ncomp) == 1 << g.n
            for r_mask in range(1 << g.n):
                comps = components(g, r_mask)
                assert ncomp[r_mask] == len(comps), (to_graph6(g), r_mask)
                assert first[r_mask] == (comps[0] if comps else 0), (to_graph6(g), r_mask)
            if g.n >= 10:
                monkeypatch.setattr(factors, "FOREST_BLOCK", 1 << 5)
                (blocked_first,), (blocked_ncomp,) = factors._component_forest([g.adj], g.n)
                monkeypatch.undo()
                assert np.array_equal(blocked_first, first) and np.array_equal(blocked_ncomp, ncomp)

    def test_factor_bearing_pairs_walk_no_r(self, monkeypatch):
        # K_8 has a factor for all six pairs: the exact table keeps no R for
        # any of them, so no T is ever searched
        def no_walk(*args):
            raise AssertionError("R walked for a pair with a factor")

        monkeypatch.setattr(factors, "_violating_t", no_walk)
        assert criterion_scan(complete(8), PAIRS) == [Verdict(exists=True)] * len(PAIRS)
        monkeypatch.undo()
        # mixed verdicts, on the exact table (n = 8) and the bound route (n = 12)
        for g in (g_na(8, 2).graph, g_na(12, 2).graph):
            batched = criterion_scan(g, PAIRS)
            assert {v.exists for v in batched} == {True, False}
            assert batched == [decide_by_criterion(g, p) for p in PAIRS]

    def test_exact_table_off_above_limit(self, monkeypatch):
        # the survey's orders (12-14) stay on the bound route: the 3^n pair
        # arrays are never built there
        def no_pairs(n):
            raise AssertionError("3^n pair arrays built above CRITERION_EXACT_LIMIT")

        monkeypatch.setattr(factors, "_pair_masks", no_pairs)
        (v,) = criterion_scan(g_na(12, 2).graph, [ParityParams(2, 4)])
        assert v.witness == CriterionWitness(s_set=0, t_set=1792, eta=-2, q=2, deg_sum=6)

    def test_matches_naive_full_enumeration(self):
        # direct oracle: try every (S, T) pair with the naive eta and compare
        # the existence verdicts (shares nothing with the pruned sweep)
        rng = random.Random(101)
        pairs = [(1, 1), (2, 2), (2, 4), (3, 3)]
        for _ in range(30):
            n = 6
            g = random_graph(n, rng.choice([0.25, 0.45, 0.65]), rng)
            valid = [(a, b) for a, b in pairs if (n * a) % 2 == 0]
            a, b = rng.choice(valid)
            violated = False
            for s_mask in range(1 << n):
                for t_mask in range(1 << n):
                    if s_mask & t_mask:
                        continue
                    s = [v for v in range(n) if s_mask >> v & 1]
                    t = [v for v in range(n) if t_mask >> v & 1]
                    if naive_eta(g, s, t, a, b) <= -2:
                        violated = True
                        break
                if violated:
                    break
            verdict = decide_by_criterion(g, ParityParams(a, b))
            assert verdict.exists == (not violated)


def test_violating_t_takes_the_empty_t():
    # R = V of K_3 + K_3 at (1,1): W and T are empty, and the two odd components give
    # eta(0, 0) = -2, which no corpus graph reaches as its first violation
    g = disjoint_union(complete(3), complete(3))
    t_mask = factors._violating_t(g.adj, xs=[], vs=[], ps=[], orsuf=[0], suffmin=[0], acc0=0, par0=0b11)
    assert t_mask == 0
    assert criterion_witness(g, 0, t_mask, ParityParams(1, 1)).eta == -2


class TestStackedTables:
    def test_pair_cells_index_the_window_grid(self):
        # each (R, T) of _pair_masks reads b|S| - a|T| at cell |S|(n + 1) + |T|, S = V - R - T
        for n in range(9):
            r, t, cell = factors._pair_masks(n)
            assert len(r) == len(t) == len(cell) == 3**n and not (r & t).any()
            s = ((1 << n) - 1) ^ r ^ t
            expected = [x.bit_count() * (n + 1) + y.bit_count() for x, y in zip(s.tolist(), t.tolist())]
            assert cell.tolist() == expected, n

    def test_no_pairs_keep_no_r(self):
        # an order that no pair admits: the empty grid's minimum is n, so a
        # stack of any order gets an empty keep table and no error
        rng = random.Random(1919)
        for n in range(1, 11):
            stack = [complete(n).adj, path(n).adj, random_graph(n, 0.5, rng).adj]
            first, ncomp = factors._component_forest(stack, n)
            keep = factors._exact_keep(stack, n, first, ncomp, [])
            assert keep.shape == (3, 0, 1 << n) and keep.dtype == bool, n

    def test_stacks_equal_one_graph_builds(self):
        # the n <= 8 corpus and seeded n = 9, 10 graphs, shuffled into
        # 64-graph chunks of mixed order: each order's stack in a chunk
        # against one-graph stacks, array for array; a chunk rarely holds two
        # of the seeded graphs, so each order of them is also one stack
        rng = random.Random(1818)
        seeded = {n: [random_graph(n, p, rng) for p in (0.2, 0.35, 0.5, 0.65, 0.8)] for n in (9, 10)}
        graphs = [g for n in range(1, 9) for g in bundled_connected_graphs(n)] + seeded[9] + seeded[10]
        rng.shuffle(graphs)
        chunks = [graphs[i : i + 64] for i in range(0, len(graphs), 64)] + list(seeded.values())
        for chunk in chunks:
            for n in {g.n for g in chunk}:
                stack = [g.adj for g in chunk if g.n == n]
                valid = [p for p in PAIRS if p.admits(n)]
                first, ncomp = factors._component_forest(stack, n)
                keep = factors._exact_keep(stack, n, first, ncomp, valid)
                assert first.shape == ncomp.shape == (len(stack), 1 << n)
                assert keep.shape == (len(stack), len(valid), 1 << n)
                for k, adj in enumerate(stack):
                    (first1,), (ncomp1,) = tables = factors._component_forest([adj], n)
                    (keep1,) = factors._exact_keep([adj], n, *tables, valid)
                    assert np.array_equal(first[k], first1), adj
                    assert np.array_equal(ncomp[k], ncomp1), adj
                    assert np.array_equal(keep[k], keep1), adj

    def test_misses_get_one_graph_builds(self, monkeypatch):
        # a graph that was not prefetched, and a prefetched graph asked for
        # other pairs, each build a one-graph stack; the prefetched entry is
        # popped only by its own pairs, and leaving the block empties the store
        gna, k8 = g_na(8, 2).graph, complete(8)
        expected = {g: [decide_by_criterion(g, p) for p in PAIRS] for g in (gna, k8)}
        built = []
        real = factors._exact_keep

        def spy(adjs, *args):
            built.append(list(adjs))
            return real(adjs, *args)

        monkeypatch.setattr(factors, "_exact_keep", spy)
        with factors.prefetch_criterion([gna], PAIRS):
            assert built == [[gna.adj]] and len(factors._PREFETCHED) == 1
            assert criterion_scan(k8, PAIRS) == expected[k8]
            assert built[-1] == [k8.adj]
            assert criterion_scan(gna, PAIRS[:3]) == expected[gna][:3]
            assert built[-1] == [gna.adj] and len(factors._PREFETCHED) == 1
            assert criterion_scan(gna, PAIRS) == expected[gna]
            assert len(built) == 3 and not factors._PREFETCHED
            with factors.prefetch_criterion([k8], PAIRS[:1]):
                pass
        assert len(built) == 4 and not factors._PREFETCHED


class TestPrefilter:
    def test_clique_cover_partitions_into_cliques(self):
        rng = random.Random(2024)
        graphs = [complete(9), from_edges(7, []), g_na(14, 2).graph, disjoint_union(cycle(5), path(4))]
        graphs += [random_graph(rng.randrange(1, 16), rng.random(), rng) for _ in range(60)]
        for g in graphs:
            cover = factors._clique_cover(g.adj, g.n)
            assert sorted(v for k in cover for v in k) == list(range(g.n)), to_graph6(g)
            for k in cover:
                assert all(g.has_edge(u, v) for i, u in enumerate(k) for v in k[i + 1 :]), (to_graph6(g), k)

    def test_keeps_every_r_with_a_violation(self, monkeypatch):
        # the kept set contains _exact_keep's; the pairs with a > n + 1 or
        # b > n exercise the clamping, and a 32-mask block keeps the same R
        rng = random.Random(1212)
        graphs = [from_edges(4, [(0, 1), (1, 2)]), g_na(9, 2).graph, complete(6)]
        graphs += [random_graph(rng.randrange(1, 10), rng.choice([0.2, 0.4, 0.7, 0.9]), rng) for _ in range(40)]
        graphs += [random_graph(n, p, rng) for n in (11, 12) for p in (0.3, 0.6)]
        for g in graphs:
            n = g.n
            valid = [p for p in CLAMP_PAIRS if (n * p.a) % 2 == 0]
            first, ncomp = factors._component_forest([g.adj], n)
            exact = factors._exact_keep([g.adj], n, first, ncomp, valid)[0]
            ncomp = ncomp[0]
            kept = factors._prefilter(g.adj, n, ncomp, valid)
            assert not (exact & ~kept).any(), to_graph6(g)
            if n >= 7:
                monkeypatch.setattr(factors, "FOREST_BLOCK", 1 << 5)
                blocked = factors._prefilter(g.adj, n, ncomp, valid)
                monkeypatch.undo()
                assert np.array_equal(blocked, kept), to_graph6(g)

    def test_counts_the_edges_inside_t(self):
        # the bound without 2e(T) kept 485..924 R on these, the clique bound
        # keeps 9: a loss of pruning shows here
        for n in range(12, 17):
            g = g_na(n, 2).graph
            _, (ncomp,) = factors._component_forest([g.adj], n)
            assert factors._prefilter(g.adj, n, ncomp, [ParityParams(2, 4)]).sum() <= 16, n


# sha256 over one row per (graph, pair), recorded from the per-R reference
# sweep that the table-driven kernel replaced: the witness contract (first
# violating (S,T) in R-ascending, DFS-preorder-of-T order) pins every byte.
GOLDEN_WITNESS_DIGEST = "0966358c8ed398fdf7f38fe03a5545d28adb4aa3d23552f3fb8a16414b9a4be3"


def golden_witness_rows():
    pairs = [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)]
    cases = []
    for n in range(1, 8):
        valid = [ParityParams(a, b) for a, b in pairs if (n * a) % 2 == 0]
        cases += [(g, valid) for g in bundled_connected_graphs(n)]
    for n in (12, 13, 14):
        cases.append((g_na(n, 2).graph, [ParityParams(2, 4)]))
        for k in range(2):
            g = sample_connected_min_degree(n, 2, random.Random(f"golden:{n}:{k}"))
            cases.append((g, [ParityParams(2, 4)]))
    return witness_rows(cases)


def witness_rows(cases):
    for g, params in cases:
        for p, v in zip(params, criterion_scan(g, params)):
            w = v.witness
            cells = ("", "", "", "", "") if w is None else (w.s_set, w.t_set, w.eta, w.q, w.deg_sum)
            yield ",".join(map(str, (to_graph6(g), p.a, p.b, int(v.exists), *cells)))


def test_golden_witness_digest():
    text = "\n".join(golden_witness_rows()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_WITNESS_DIGEST


# the same rows above CRITERION_EXACT_LIMIT, where the bound prefilter picks
# the R to walk: g_na(n, a) at every valid n in 11..16 with b = a, a+2, a+4,
# and seeded G(n, p) graphs with the six oracle pairs.  Recorded before the
# prefilter counted 2e(T); a sound prefilter moves no byte.
BOUND_ROUTE_DIGEST = "5554fd09460b9859d2458d1139389ef4c7bda8e86a518eed4eafcde1a2def52e"


def bound_route_rows():
    cases = []
    for a in range(2, 6):
        for n in range(max(11, 2 * a + 3), 17):
            if n * a % 2 == 0:
                cases.append((g_na(n, a).graph, [ParityParams(a, b) for b in (a, a + 2, a + 4)]))
    for n in range(11, 15):
        for k, p in enumerate((0.3, 0.5, 0.7)):
            g = random_graph(n, p, random.Random(f"bound:{n}:{k}"))
            cases.append((g, [q for q in PAIRS if n * q.a % 2 == 0]))
    return witness_rows(cases)


def test_bound_route_digest():
    text = "\n".join(bound_route_rows()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == BOUND_ROUTE_DIGEST


# sha256 over one row per (graph, pair) of the n <= 7 corpus, recorded from
# per-pair decide_by_search calls before search_scan shared the edge order.
GOLDEN_CERTIFICATE_DIGEST = "82a7f4f65345b4786df02948d1ee3ee54d8c38f68943fb64955a1b11beb49959"


def test_golden_certificate_digest():
    pairs = [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)]
    rows = []
    for n in range(1, 8):
        valid = [ParityParams(a, b) for a, b in pairs if (n * a) % 2 == 0]
        for g in bundled_connected_graphs(n):
            for p, v in zip(valid, search_scan(g, valid)):
                c = v.certificate
                cells = ("", "") if c is None else (c.edges, c.degrees)
                rows.append(";".join(map(str, (to_graph6(g), p.a, p.b, int(v.exists), *cells))))
    text = "\n".join(rows) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CERTIFICATE_DIGEST


class TestDecideBySearch:
    def test_k4_two_factor_certificate(self):
        v = decide_by_search(complete(4), ParityParams(2, 2))
        assert v.exists
        cert = v.certificate
        assert len(cert.edges) == 4
        assert set(cert.degrees) == {2}
        assert verify_certificate(complete(4), cert, ParityParams(2, 2))

    def test_gna_11_2_no_factor(self):
        v = decide_by_search(g_na(11, 2).graph, ParityParams(2, 4))
        assert not v.exists

    def test_cross_oracle_random(self):
        rng = random.Random(55)
        for _ in range(120):
            g = random_connected(8, 0.5, rng)
            c = decide_by_criterion(g, ParityParams(1, 3))
            s = decide_by_search(g, ParityParams(1, 3))
            assert c.exists == s.exists
            if s.exists:
                assert verify_certificate(g, s.certificate, ParityParams(1, 3))

    def test_plain_factor_mode(self):
        # P_3 has a [1,2]-factor (the whole path) but no parity [1,1]-factor
        g = path(3)
        v = decide_by_search(g, ParityParams(1, 1), parity=False)
        assert not v.exists  # degree window [1,1] still impossible on P_3
        v = decide_by_search(g, ParityParams(2, 2), parity=False)
        assert not v.exists
        g4 = path(4)
        v = decide_by_search(g4, ParityParams(1, 1), parity=False)
        assert v.exists

    def test_plain_vs_parity_difference(self):
        # K_{2,3} itself is a [2,4]-factor, but an all-even-degrees spanning
        # subgraph is impossible (the sides would need unequal edge counts)
        g = from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        assert decide_by_search(g, ParityParams(2, 4), parity=False).exists
        assert not decide_by_search(g, ParityParams(2, 4), parity=True).exists
        assert not decide_by_criterion(g, ParityParams(2, 4)).exists

    def test_edge_limit(self):
        g = complete(10)  # 45 edges
        with pytest.raises(SizeLimitError):
            decide_by_search(g, ParityParams(2, 2))
        v = decide_by_search(g, ParityParams(2, 2), force=True)
        assert v.exists

    def test_long_edge_list_no_recursion_error(self):
        # one search level per edge: 1500 levels exceed the default recursion limit
        g = cycle(1500)
        v = decide_by_search(g, ParityParams(2, 2), force=True)
        assert v.exists
        assert v.certificate.edges == tuple(g.edges())
        assert verify_certificate(g, v.certificate, ParityParams(2, 2))

    def test_deterministic_certificate(self):
        rng = random.Random(2)
        for _ in range(20):
            g = random_connected(8, 0.6, rng)
            v1 = decide_by_search(g, ParityParams(1, 3))
            v2 = decide_by_search(g, ParityParams(1, 3))
            assert v1 == v2


class TestVerifyCertificate:
    def test_cycle_certificate(self):
        g = cycle(4)
        cert = FactorCertificate(edges=tuple(g.edges()), degrees=(2, 2, 2, 2))
        assert verify_certificate(g, cert, ParityParams(2, 2))

    def test_dropped_edge_breaks_parity(self):
        g = cycle(4)
        edges = tuple(g.edges())[:-1]
        degrees = [0, 0, 0, 0]
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        cert = FactorCertificate(edges=edges, degrees=tuple(degrees))
        assert not verify_certificate(g, cert, ParityParams(2, 2))

    def test_foreign_edge_rejected(self):
        g = path(4)
        cert = FactorCertificate(edges=((0, 3), (1, 2)), degrees=(1, 1, 1, 1))
        assert not verify_certificate(g, cert, ParityParams(1, 1))

    def test_repeated_edge_rejected(self):
        # (1, 0) repeats (0, 1): the degrees match, but an edge is counted twice
        g = path(2)
        cert = FactorCertificate(edges=((0, 1), (1, 0)), degrees=(2, 2))
        assert not verify_certificate(g, cert, ParityParams(2, 2))

    def test_wrong_parity_rejected(self):
        # C_4 is a [1,3]-factor of itself, but its degrees 2 are not odd
        g = cycle(4)
        cert = FactorCertificate(edges=tuple(g.edges()), degrees=(2, 2, 2, 2))
        assert verify_certificate(g, cert, ParityParams(1, 3), parity=False)
        assert not verify_certificate(g, cert, ParityParams(1, 3))

    def test_wrong_degree_table_rejected(self):
        g = cycle(4)
        cert = FactorCertificate(edges=tuple(g.edges()), degrees=(2, 2, 2, 4))
        assert not verify_certificate(g, cert, ParityParams(2, 2))

    def test_search_roundtrip_property(self):
        rng = random.Random(8)
        for _ in range(60):
            g = random_graph(8, 0.5, rng)
            for a, b in [(2, 2), (2, 4)]:
                v = decide_by_search(g, ParityParams(a, b))
                if v.exists:
                    assert verify_certificate(g, v.certificate, ParityParams(a, b))


def matching_size(g):
    mate = max_matching([vertices_of(row) for row in g.adj])
    return sum(u >= 0 for u in mate) // 2


class TestMatchingOracle:
    def test_known_values(self):
        assert matching_size(complete(4)) == 2
        assert matching_size(path(5)) == 2
        assert matching_size(cycle(7)) == 3
        assert matching_size(star(6)) == 1

    def test_blossom_shape(self):
        # two triangles joined by a bridge: perfect matching exists
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        assert has_perfect_matching(g)

    def test_odd_cycle_with_pendant(self):
        # C_5 plus a pendant at 0: maximum matching 3 on 6 vertices
        g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])
        assert matching_size(g) == 3
        assert has_perfect_matching(g)

    @pytest.mark.skipif(nx is None, reason="networkx unavailable")
    def test_blossom_against_networkx(self):
        # the whole n <= 8 corpus, then sparse seeded graphs up to n = 60, where
        # odd cycles make blossoms
        rng = random.Random(31)
        graphs = [g for n in range(1, 9) for g in bundled_connected_graphs(n)]
        graphs += [random_graph(rng.randrange(2, 61), rng.choice([0.03, 0.06, 0.1, 0.2]), rng) for _ in range(200)]
        for g in graphs:
            mate = max_matching([vertices_of(row) for row in g.adj])
            assert all(u < 0 or (mate[u] == v and g.has_edge(u, v)) for v, u in enumerate(mate))
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n))
            ref.add_edges_from(g.edges())
            expected = len(nx.max_weight_matching(ref, maxcardinality=True))
            assert sum(u >= 0 for u in mate) // 2 == expected
            assert has_perfect_matching(g) == (2 * expected == g.n)


class TestDecideByMatching:
    def test_agrees_with_criterion_on_corpus(self):
        # n <= 7 corpus x the six acceptance pairs; every certificate re-checked
        for n in range(1, 8):
            valid = [p for p in PAIRS if n * p.a % 2 == 0]
            for g in bundled_connected_graphs(n):
                for p, cv in zip(valid, criterion_scan(g, valid)):
                    mv = decide_by_matching(g, p)
                    assert mv.exists == cv.exists, (to_graph6(g), p)
                    assert mv.witness is None
                    assert (mv.certificate is not None) == mv.exists
                    if mv.exists:
                        assert verify_certificate(g, mv.certificate, p)

    def test_gna_past_the_sweep_cap(self):
        # no parity factor at any order, including far above the criterion's n <= 18
        for n, a in ((40, 2), (42, 3)):
            assert not decide_by_matching(g_na(n, a).graph, ParityParams(a, a + 2)).exists

    def test_sampled_n100_certificate(self):
        params = ParityParams(2, 4)
        g = sample_connected_min_degree(100, 2, random.Random("matching:100"))
        v = decide_by_matching(g, params)
        assert v.exists and verify_certificate(g, v.certificate, params)

    def test_parity_precondition(self):
        with pytest.raises(ParityPreconditionError):
            decide_by_matching(complete(5), ParityParams(1, 1))

    def test_order_zero_and_a_degree_below_a(self):
        # the empty graph's empty edge set is a factor; a vertex of degree < a rules one out with no matching
        v = decide_by_matching(from_graph6("?"), ParityParams(2, 4))
        assert v.exists and v.certificate == FactorCertificate(edges=(), degrees=())
        assert not decide_by_matching(disjoint_union(cycle(4), path(2)), ParityParams(2, 2)).exists

    def test_rejected_certificate_raises(self, monkeypatch):
        # the certificate is re-checked before it is returned, never trusted
        monkeypatch.setattr(factors, "verify_certificate", lambda *args: False)
        with pytest.raises(FactorLabError):
            decide_by_matching(cycle(6), ParityParams(2, 2))

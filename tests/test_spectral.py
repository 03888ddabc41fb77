"""Spectral engine: power iteration, bounds, quotients, the cubic, rotations."""

import hashlib
import math
import pickle
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from factorlab import (
    BadParamsError,
    NotConvergedError,
    NotEquitableError,
    book_charpoly,
    book_family,
    bundled_connected_graphs,
    complement,
    complete,
    cycle,
    disjoint_union,
    edge_rotation,
    equitable_partition,
    f_monotone_check,
    from_edges,
    from_graph6,
    g_na,
    grid_clique_merge_dominance,
    grid_degree_size_bound,
    hong_nikiforov_bound,
    is_connected,
    path,
    quotient,
    quotient_rho,
    spectral_radius,
    star,
    survey_theorem,
)
from factorlab import spectral
from factorlab.graph import MAX_VERTICES, Graph, iter_bits
from factorlab.spectral import DEFAULT_TOL, EIGH_MAX_N, QuotientMatrix, charpoly_coefficients


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def random_connected(n, p, rng):
    while True:
        g = random_graph(n, p, rng)
        if is_connected(g):
            return g


def quotient_reference(g, masks):
    """``quotient``'s plain per-vertex loop: every vertex's counts, twins included."""
    entries = []
    for pm in masks:
        row = None
        for v in iter_bits(pm):
            counts = tuple((g.adj[v] & other).bit_count() for other in masks)
            if row is None:
                row = counts
            elif counts != row:
                part = next(j for j in range(len(masks)) if counts[j] != row[j])
                raise NotEquitableError(v, part)
        entries.append(row)
    return QuotientMatrix(entries=tuple(entries))


def outcome(quotient_fn, g, masks):
    """The quotient matrix, or the (vertex, part) of the NotEquitableError raised instead."""
    try:
        return quotient_fn(g, masks)
    except NotEquitableError as exc:
        return exc.vertex, exc.part


def residue_parts(n, m):
    """Vertices split by label mod m (equitable on a circulant when m divides n)."""
    return [sum(1 << v for v in range(r, n, m)) for r in range(m)]


def circulant(n, jumps):
    return from_edges(n, {tuple(sorted((v, (v + j) % n))) for v in range(n) for j in jumps})


class TestSpectralRadius:
    def test_complete_graphs(self):
        for n in (2, 5, 17, 60):
            assert abs(spectral_radius(complete(n)).rho - (n - 1)) <= 1e-9

    def test_cycles_including_bipartite(self):
        for n in (3, 4, 8, 25, 64):
            assert abs(spectral_radius(cycle(n)).rho - 2.0) <= 1e-9

    def test_stars(self):
        for n in (2, 5, 10, 50):
            assert abs(spectral_radius(star(n)).rho - math.sqrt(n - 1)) <= 1e-9

    def test_gna_exceeds_clique_floor(self):
        for a in (2, 3, 4, 5):
            for n in range(2 * a + 4, 2 * a + 30, 5):
                rho = spectral_radius(g_na(n, a).graph).rho
                assert rho > n - a - 3

    def test_perron_positive_on_connected(self):
        rng = random.Random(4)
        graphs = [random_connected(9, 0.35, rng) for _ in range(20)]
        # K16 with a pendant P16: the far end of the path carries Perron
        # entries below double precision, which LAPACK may return as zeros
        clique = [(u, v) for u in range(16) for v in range(u + 1, 16)]
        graphs.append(from_edges(32, clique + [(v, v + 1) for v in range(15, 31)]))
        for g in graphs:
            r = spectral_radius(g)
            assert np.all(r.perron > 0)
            assert abs(np.linalg.norm(r.perron) - 1.0) < 1e-12
            assert r.residual <= 1e-10

    def test_disconnected_takes_max(self):
        g = disjoint_union(complete(5), cycle(4))
        r = spectral_radius(g)
        assert abs(r.rho - 4.0) <= 1e-9
        # perron vector supported on the winning component
        assert np.all(r.perron[:5] > 0)
        assert np.all(r.perron[5:] == 0)

    def test_singleton(self):
        r = spectral_radius(complete(1))
        assert r.rho == 0.0 and r.residual == 0.0

    def test_not_converged(self):
        # above the crossover the uniform start needs far more than 3 steps;
        # below it no rounded LAPACK start meets tol = 1e-300
        for g, tol in ((path(EIGH_MAX_N + 8), 1e-12), (path(30), 1e-300)):
            with pytest.raises(NotConvergedError):
                spectral_radius(g, tol=tol, max_iter=3)

    @pytest.mark.parametrize(
        "g", [from_graph6("Bo"), cycle(6), complete(5), path(EIGH_MAX_N + 8)], ids=["Bo", "C6", "K5", "P40"]
    )
    def test_tol_below_rounding_floor_stops(self, g):
        # no residual gets below the rounding floor: stop there, do not spin
        # through the whole max_iter budget
        start = time.perf_counter()
        with pytest.raises(NotConvergedError):
            spectral_radius(g, tol=0.0)
        assert time.perf_counter() - start < 1.0

    def test_default_tol_never_takes_rounding_floor_stop(self, monkeypatch):
        # K_495 and K_505 joined by an edge: n = 1000, rho = 504, 1,111 steps at
        # the default tol, where n eps (rho + 1) would lie above tol.  The
        # sqrt(n) eps (rho + 1) floor estimate stays below DEFAULT_TOL up to
        # MAX_VERTICES, so even with STALL_STEPS = 0, which would stop at the
        # first step that misses a new least residual (there are 32 early on),
        # the result is that of the loop with no early stop
        assert math.sqrt(MAX_VERTICES) * np.finfo(float).eps * MAX_VERTICES < DEFAULT_TOL
        edges = [(u, v) for lo, hi in ((0, 495), (495, 1000)) for u in range(lo, hi) for v in range(u + 1, hi)]
        g = from_edges(1000, edges + [(494, 495)])
        monkeypatch.setattr(spectral, "STALL_STEPS", 0)
        r = spectral_radius(g)
        monkeypatch.setattr(spectral, "STALL_STEPS", spectral.DEFAULT_MAX_ITER + 1)
        plain = spectral_radius(g)
        assert r.iterations == plain.iterations > 1000
        assert (r.rho, r.residual, r.perron.tobytes()) == (plain.rho, plain.residual, plain.perron.tobytes())

    def test_lapack_start_below_crossover(self):
        # the LAPACK Perron vector meets the default tol before any step;
        # one order above the crossover the uniform start takes steps
        assert spectral_radius(path(EIGH_MAX_N)).iterations == 0
        assert spectral_radius(path(EIGH_MAX_N + 1)).iterations > 0

    @pytest.mark.parametrize(
        "kwargs", [{"max_iter": -1}, {"tol": -1.0}, {"tol": float("nan")}],
        ids=["max-iter-negative", "tol-negative", "tol-nan"],
    )
    def test_bad_solver_params(self, kwargs):
        # no residual meets a negative or NaN tol: reject at once, do not spin
        start = time.perf_counter()
        with pytest.raises(BadParamsError):
            spectral_radius(path(3), **kwargs)
        assert time.perf_counter() - start < 1.0

    def test_residual_contract(self):
        rng = random.Random(12)
        for _ in range(10):
            g = random_connected(12, 0.3, rng)
            r = spectral_radius(g, tol=1e-8)
            a = np.zeros((12, 12))
            for u, v in g.edges():
                a[u, v] = a[v, u] = 1.0
            assert np.max(np.abs(a @ r.perron - r.rho * r.perron)) <= 1e-8


class TestHongNikiforovBound:
    def test_regular_graphs_attain_it(self):
        for n, d in [(8, 3), (10, 4), (12, 5)]:
            bound = hong_nikiforov_bound(n, n * d // 2, d)
            assert abs(bound - d) <= 1e-12

    def test_complete_graph(self):
        n = 20
        assert abs(hong_nikiforov_bound(n, n * (n - 1) // 2, n - 1) - (n - 1)) <= 1e-12

    def test_dominates_sampled_rho(self):
        rng = random.Random(21)
        for _ in range(150):
            n = rng.randrange(5, 20)
            g = random_graph(n, rng.choice([0.3, 0.5, 0.8]), rng)
            if g.m == 0 or min(g.degrees()) < 1:
                continue
            rho = spectral_radius(g).rho
            bound = hong_nikiforov_bound(g.n, g.m, min(g.degrees()))
            assert rho <= bound + 1e-9

    def test_bidegree_graphs_attain_it(self):
        # the other equality case: every degree is either delta or n-1
        for n in (5, 8, 13):
            g = star(n)
            bound = hong_nikiforov_bound(n, g.m, 1)
            assert abs(spectral_radius(g).rho - bound) <= 1e-7
        from factorlab import disjoint_union, join

        g = join(complete(1), disjoint_union(complete(2), complete(2)))
        bound = hong_nikiforov_bound(g.n, g.m, 2)  # degrees are {2, n-1}
        assert abs(spectral_radius(g).rho - bound) <= 1e-7

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            hong_nikiforov_bound(10, 45, 0)
        with pytest.raises(BadParamsError):
            hong_nikiforov_bound(10, 2, 3)  # 2m < n*delta
        with pytest.raises(BadParamsError, match="delta must be in 1..3, got 1000000000"):
            hong_nikiforov_bound(4, 6, 10**9)  # the refusal names delta, not m
        with pytest.raises(BadParamsError, match="n must be at least 2, got 1"):
            hong_nikiforov_bound(1, 0, 1)  # no delta fits 1..n-1: the refusal names n, not delta's empty range


class TestMonotoneCurve:
    def test_example_grid(self):
        # the grid runs 0..n-1; points past the radicand's domain are skipped
        assert f_monotone_check(10, 20, [float(x) for x in range(10)])

    def test_endpoints_only(self):
        from factorlab.spectral import degree_size_curve

        n, m = 12, 60  # dense enough that both endpoints are in-domain
        assert f_monotone_check(n, m, [0.0, float(n - 1)])
        assert degree_size_curve(n, m, 0.0) >= degree_size_curve(n, m, float(n - 1))

    def test_constant_at_complete_graph(self):
        # with m = n(n-1)/2 the curve is identically n-1
        n = 9
        m = n * (n - 1) // 2
        from factorlab.spectral import degree_size_curve

        for x in range(n):
            assert abs(degree_size_curve(n, m, float(x)) - (n - 1)) <= 1e-9

    def test_sampled_property(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randrange(3, 50)
            m = rng.randrange(0, n * (n - 1) // 2 + 1)
            grid = []
            for x in range(n):
                if 2 * m - n * x + (x + 1) ** 2 / 4.0 >= 0:
                    grid.append(float(x))
                else:
                    break
            assert f_monotone_check(n, m, grid)


class TestQuotient:
    def test_book_family_rows(self):
        n, s, b = 30, 2, 5
        cons = book_family(n, s, b)
        qm = quotient(cons.graph, cons.parts())
        assert qm.entries == ((s - 1, n - b - s - 1, b + 1), (s, n - b - s - 2, 0), (s, 0, 0))

    def test_gna_equitable(self):
        cons = g_na(14, 3)
        qm = quotient(cons.graph, cons.parts())
        assert isinstance(qm, QuotientMatrix)

    def test_arbitrary_partition_not_equitable(self):
        rng = random.Random(9)
        hits = 0
        for _ in range(30):
            g = random_connected(10, 0.4, rng)
            parts = [0, 0]
            for v in range(10):
                parts[rng.randrange(2)] |= 1 << v
            if not parts[0] or not parts[1]:
                continue
            try:
                quotient(g, parts)
            except NotEquitableError as exc:
                hits += 1
                # the reported vertex really does break the constant row sum
                pm = parts[0] if (parts[0] >> exc.vertex) & 1 else parts[1]
                same_part = [v for v in range(10) if (pm >> v) & 1]
                counts = {
                    v: (g.adj[v] & parts[exc.part]).bit_count() for v in same_part
                }
                assert len(set(counts.values())) > 1
        assert hits >= 20  # random 2-partitions are almost never equitable

    def test_matches_reference_loop(self):
        # random partitions (mostly a witness), circulants split by residue
        # (equitable, few twins), the same with one edge flipped (a witness
        # late in the scan), and block graphs whose parts are all twins
        rng = random.Random(31)
        cases = []
        for _ in range(60):
            n = rng.randrange(2, 16)
            g = random_graph(n, rng.choice((0.2, 0.5, 0.8)), rng)
            parts = [0] * rng.randrange(1, n + 1)
            for v in range(n):
                parts[rng.randrange(len(parts))] |= 1 << v
            cases.append((g, [pm for pm in parts if pm]))
        for _ in range(40):
            m = rng.randrange(1, 5)
            n = m * rng.randrange(2, 7)
            jumps = rng.sample(range(1, n // 2 + 1), rng.randrange(1, n // 2 + 1))
            g = circulant(n, jumps)
            cases.append((g, residue_parts(n, m)))
            u, v = rng.sample(range(n), 2)
            rows = list(g.adj)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            cases.append((Graph(n, rows), residue_parts(n, m)))
        for n, s, b in [(12, 2, 4), (30, 3, 6)]:
            cons = book_family(n, s, b)
            cases.append((cons.graph, cons.parts()))
        for n, a in [(9, 2), (16, 3)]:
            cons = g_na(n, a)
            cases.append((cons.graph, cons.parts()))
        kinds = set()
        for g, parts in cases:
            result = outcome(quotient, g, parts)
            assert result == outcome(quotient_reference, g, parts)
            kinds.add(type(result))
        assert kinds == {QuotientMatrix, tuple}  # tuple: a (vertex, part) witness

    def test_twin_before_differing_vertex(self):
        # part {0, 1, 2}: 1 is a twin of 0 (open, then closed neighbourhoods),
        # 2 is not and has another row; the witness is 2, as without skipping
        open_twins = from_edges(5, [(0, 3), (1, 3), (2, 3), (2, 4)])
        closed_twins = from_edges(5, [(0, 1), (0, 3), (1, 3), (2, 3), (2, 4)])
        for g in (open_twins, closed_twins):
            parts = [0b00111, 0b11000]
            result = outcome(quotient, g, parts)
            assert result == outcome(quotient_reference, g, parts)
            assert result[0] == 2

    def test_all_true_twins(self):
        # K_4 joined to 3 isolated vertices: the clique part holds only
        # vertices with equal closed neighbourhoods, the other only open twins
        g = book_family(8, 1, 2).graph
        parts = [0b00001, 0b11110 & g.full_mask, g.full_mask ^ 0b11111]
        result = quotient(g, parts)
        assert result == quotient_reference(g, parts)
        assert result.entries == ((0, 4, 3), (1, 3, 0), (1, 0, 0))

    def test_row_plus_first_vertex_is_not_a_twin(self):
        # adj[v] == adj[u] | 1 << u is no twin: v counts u, u does not count v
        # (rows need not be symmetric, only loop-free)
        g = Graph(3, [0b100, 0b101, 0b011])
        parts = [0b011, 0b100]
        assert outcome(quotient, g, parts) == outcome(quotient_reference, g, parts) == (1, 0)

    def test_not_equitable_is_raised_with_its_witness(self):
        # P_4 split {0, 1} | {2, 3}: vertex 1 has a neighbour in part 1, vertex 0 none
        with pytest.raises(NotEquitableError, match="at vertex 1, part 1") as caught:
            quotient_rho(quotient(path(4), [[0, 1], [2, 3]]))
        assert (caught.value.vertex, caught.value.part) == (1, 1)
        copy = pickle.loads(pickle.dumps(caught.value))  # crosses a process pool intact
        assert (copy.vertex, copy.part, str(copy)) == (1, 1, str(caught.value))

    def test_not_a_partition(self):
        g = complete(4)
        with pytest.raises(BadParamsError, match="parts overlap"):
            quotient(g, [0b0011, 0b0110])
        with pytest.raises(BadParamsError, match="parts do not cover V"):
            quotient(g, [0b0011])
        with pytest.raises(BadParamsError, match="empty part"):
            quotient(g, [0b0011, 0b1100, 0])


def set_partitions(n):
    """Every partition of range(n) into nonempty cells, as lists of masks."""
    if n == 0:
        yield []
        return
    bit = 1 << (n - 1)
    for cells in set_partitions(n - 1):
        for i in range(len(cells)):
            yield cells[:i] + [cells[i] | bit] + cells[i + 1:]
        yield cells + [bit]


def is_equitable(g, masks):
    try:
        quotient_reference(g, masks)
    except NotEquitableError:
        return False
    return True


class TestEquitablePartition:
    def test_coarsest_on_small_graphs(self):
        # the n <= 6 corpus and its complements, which are often disconnected: the partition is
        # equitable, in order of lowest vertex, and every equitable partition refines it
        graphs = [g for n in range(1, 7) for g in bundled_connected_graphs(n)]
        checked = 0
        for g in graphs + [complement(g) for g in graphs]:
            coarsest = equitable_partition(g)
            assert sorted(v for cell in coarsest for v in iter_bits(cell)) == list(range(g.n))
            assert sorted(coarsest, key=lambda cell: cell & -cell) == coarsest
            assert is_equitable(g, coarsest)
            for cells in set_partitions(g.n):
                if is_equitable(g, cells):
                    assert all(any(cell & ~c == 0 for c in coarsest) for cell in cells)
                    checked += 1
        assert checked > 1000

    def test_quotient_root_is_the_spectral_radius_on_the_corpus(self):
        worst = 0.0
        for n in range(1, 9):
            for g in bundled_connected_graphs(n):
                rho = quotient_rho(quotient(g, equitable_partition(g)))
                worst = max(worst, abs(rho - spectral_radius(g).rho))
        assert worst <= 1e-12

    def test_quotient_root_on_disconnected_samples(self):
        # sparse G(n, p): a partition past 8 cells is refused, and a double Perron root, from two
        # components in different cells with one radius, raises NotConvergedError; the rest agree
        rng = random.Random(29)
        agreed = 0
        for _ in range(1000):
            g = random_graph(rng.randrange(4, 25), rng.choice((0.05, 0.1, 0.15)), rng)
            if is_connected(g):
                continue
            try:
                qm = quotient(g, equitable_partition(g))
            except BadParamsError as exc:
                assert "more than 8 cells" in str(exc)
                continue
            top = np.linalg.eigvalsh(spectral.adjacency_matrix(g))[-2:]
            try:
                rho = quotient_rho(qm)
            except NotConvergedError:
                assert top[1] - top[0] <= 1e-9
                continue
            assert abs(rho - spectral_radius(g).rho) <= 1e-12
            agreed += 1
        assert agreed > 400

    def test_more_than_eight_cells_are_refused(self):
        # P_n's cells are its mirror pairs, and the middle vertex when n is odd
        assert equitable_partition(path(16)) == [1 << v | 1 << (15 - v) for v in range(8)]
        with pytest.raises(BadParamsError, match="more than 8 cells"):
            equitable_partition(path(17))

    def test_families(self):
        assert equitable_partition(g_na(14, 3).graph) == g_na(14, 3).parts()
        assert equitable_partition(book_family(20, 2, 5).graph) == book_family(20, 2, 5).parts()
        # a one-vertex big clique has the independent vertices' neighbourhood, K_s
        assert equitable_partition(book_family(9, 2, 5).graph) == [0b11, 0b111111100]


class TestQuotientRho:
    def test_single_part_complete(self):
        g = complete(12)
        qm = quotient(g, [g.full_mask])
        assert isinstance(qm, QuotientMatrix)
        assert quotient_rho(qm) == 11.0

    def test_more_than_eight_parts_are_refused(self):
        # P_10 in singletons: a 10 x 10 quotient, past the certified charpoly bisection
        with pytest.raises(BadParamsError, match="at most 8 cells, got 10"):
            quotient_rho(quotient(path(10), [1 << v for v in range(10)]))

    def test_book_matches_full_graph(self):
        for n, s, b in [(20, 1, 4), (30, 3, 6), (60, 5, 9), (200, 2, 4)]:
            cons = book_family(n, s, b)
            qm = quotient(cons.graph, cons.parts())
            assert abs(quotient_rho(qm) - spectral_radius(cons.graph).rho) <= 1e-8

    def test_gna_matches_full_graph(self):
        for n, a in [(9, 2), (16, 3), (40, 5)]:
            cons = g_na(n, a)
            qm = quotient(cons.graph, cons.parts())
            assert abs(quotient_rho(qm) - spectral_radius(cons.graph).rho) <= 1e-8

    def test_two_by_two_exact(self):
        # star K_{1,8} partitioned hub/leaves: quotient [[0,8],[1,0]], rho = sqrt(8)
        g = star(9)
        qm = quotient(g, [1, g.full_mask ^ 1])
        assert abs(quotient_rho(qm) - math.sqrt(8)) <= 1e-12

    def test_reducible_quotient_takes_largest_block(self):
        # K3 + K2 split into its components: quotient diag(2, 1), rho = 2
        g = disjoint_union(complete(3), complete(2))
        qm = quotient(g, [0b00111, 0b11000])
        start = time.perf_counter()
        assert quotient_rho(qm) == 2.0
        assert time.perf_counter() - start < 1.0

    def test_double_perron_root_rejected(self):
        # K3 + K3 + K2 split into its components: diag(2, 2, 1), rho = 2 twice,
        # so the characteristic polynomial has no sign change to certify
        g = disjoint_union(disjoint_union(complete(3), complete(3)), complete(2))
        qm = quotient(g, [0b111, 0b111000, 0b11000000])
        start = time.perf_counter()
        with pytest.raises(NotConvergedError):
            quotient_rho(qm)
        assert time.perf_counter() - start < 1.0

    def test_empty_quotient_rejected(self):
        qm = quotient(from_edges(0, []), [])
        with pytest.raises(BadParamsError):
            quotient_rho(qm)

    @pytest.mark.parametrize(
        "entries",
        [
            ((0, 1, 0), (1, 0)),  # ragged rows: was a silent 1.0
            ((0.5, 1), (1, 0)),  # float entry: was an uncertified 1.2808
            ((2**1100, 1), (1, 0)),  # was a bare OverflowError
            ((float("nan"), 1), (1, 0)),  # was numpy's LinAlgError
            ((0, -1), (1, 0)),  # negative entry: was NotConvergedError
            ((True, 1), (1, 0)),  # a bool is not a count
            ((0, MAX_VERTICES), (1, 0)),  # no vertex has MAX_VERTICES neighbours
        ],
    )
    def test_malformed_quotient_rejected(self, entries):
        with pytest.raises(BadParamsError):
            quotient_rho(QuotientMatrix(entries=entries))


def _sign(value):
    return (value > 0) - (value < 0)


def _fraction_value(coeffs, x):
    """p(x) in exact rationals, summed by powers rather than by Horner's rule."""
    deg = len(coeffs) - 1
    return sum(c * Fraction(x) ** (deg - i) for i, c in enumerate(coeffs))


class TestExactSign:
    def test_integer_sign_matches_fraction(self):
        rng = random.Random(37)
        xs = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
        xs += [float(rng.randrange(-1000, 1001)) for _ in range(8)]
        xs += [sign * rng.random() * 10.0 ** rng.randrange(-8, 9) for sign in (1, -1) for _ in range(8)]
        for deg in range(9):
            for _ in range(12):
                coeffs = [rng.randint(-10**6, 10**6) for _ in range(deg + 1)]
                for x in xs:
                    assert _sign(spectral._eval_exact(coeffs, x)) == _sign(_fraction_value(coeffs, x)), (coeffs, x)

    def test_zero_at_a_float_root(self):
        # 2x^2 - 5x - 3 = (x - 3)(2x + 1) vanishes at 3.0 and at -0.5
        for x, expected in [(3.0, 0), (-0.5, 0), (2.0, -1), (3.0000000000000004, 1), (-0.5000000000000001, 1)]:
            assert _sign(spectral._eval_exact([2, -5, -3], x)) == expected

    def test_result_is_first_float_at_or_above_root(self):
        # p(previous float) < 0 <= p(result) in exact rationals; star(5) and
        # star(17) have the float roots 2 and 4, where p(result) == 0.  On
        # book (71, 1, 6) and (128, 5, 6) LAPACK's root was seen more than 16
        # ulps off, so their bracket falls back to 1e-6
        triples = [(20, 1, 4), (30, 3, 6), (60, 5, 9), (200, 2, 4), (71, 1, 6), (128, 5, 6)]
        constructions = [book_family(n, s, b) for n, s, b in triples]
        constructions += [g_na(n, a) for n, a in [(9, 2), (16, 3), (40, 5)]]
        cases = [quotient(cons.graph, cons.parts()) for cons in constructions]
        cases += [quotient(star(n), [1, star(n).full_mask ^ 1]) for n in (5, 9, 17)]
        zeros = 0
        for qm in cases:
            coeffs = charpoly_coefficients(qm.entries)
            rho = quotient_rho(qm)
            assert _fraction_value(coeffs, math.nextafter(rho, -math.inf)) < 0 <= _fraction_value(coeffs, rho)
            zeros += _fraction_value(coeffs, rho) == 0
        assert zeros == 2


def _det(rows):
    """Determinant by Fraction Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


class TestCharpoly:
    def test_matches_fraction_determinant(self):
        # a degree-k polynomial is fixed by its values at x = 0..k
        rng = random.Random(23)
        for k in range(1, 9):
            for _ in range(6):
                entries = tuple(tuple(rng.randrange(-3, 7) for _ in range(k)) for _ in range(k))
                coeffs = charpoly_coefficients(entries)
                assert len(coeffs) == k + 1 and coeffs[0] == 1
                for x in range(k + 1):
                    shifted = [
                        [(x if i == j else 0) - entries[i][j] for j in range(k)] for i in range(k)
                    ]
                    assert sum(c * x ** (k - i) for i, c in enumerate(coeffs)) == _det(shifted)


# sha256 over report bytes whose floats come from spectral_radius: the rho
# cells of lemma 2.6 (connected), lemma 2.2 (34 of its 600 graphs are
# disconnected at seed 0) and the survey.  Pins the power-iteration digits.
GOLDEN_SPECTRAL_DIGESTS = {
    "lemma2.6": "2f91b911f4ee50bd95866fbc7d8cd795560859cb4f784de98865c38f56891c1b",
    "lemma2.2": "4655235d4a8e08d66bb4720b7469d4351ac597e8a2f02b771cee7d4313aff674",
    "survey": "c3fc54f1f6fd6e5624607d43fc34fedea1eae50b0ac41f4fc5d47836ffb11691",
}


def test_golden_spectral_report_digests():
    texts = {
        "lemma2.6": grid_clique_merge_dominance().to_csv(),
        "lemma2.2": grid_degree_size_bound(samples=400).to_csv(),
        "survey": survey_theorem(12, 2, 4, 5, 1).to_csv(),
    }
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert digests == GOLDEN_SPECTRAL_DIGESTS


class TestBookCubic:
    def test_coefficients_match_quotient_charpoly(self):
        # independent route: expand det(xI - R) from the actual quotient matrix
        for n, s, b in [(20, 1, 4), (26, 2, 5), (61, 3, 7), (199, 5, 9)]:
            cons = book_family(n, s, b)
            qm = quotient(cons.graph, cons.parts())
            assert isinstance(qm, QuotientMatrix)
            expected = charpoly_coefficients(qm.entries)
            coeffs, _, _ = book_charpoly(n, s, b)
            assert list(coeffs) == expected

    def test_value_at_nb2(self):
        for n, s, b in [(20, 1, 4), (30, 2, 5), (100, 5, 9), (57, 3, 4)]:
            _, _, at_nb2 = book_charpoly(n, s, b)
            assert at_nb2 == -(b + 1) * s * s

    def test_value_at_nb1_s1(self):
        for n, b in [(20, 4), (40, 7), (203, 9)]:
            _, at_nb1, _ = book_charpoly(n, 1, b)
            assert at_nb1 == n * n - (2 * b + 1) * n + b * b - b - 2

    def test_value_at_nb1_general_s(self):
        for n, s, b in [(30, 2, 5), (60, 4, 6), (150, 5, 9)]:
            _, at_nb1, _ = book_charpoly(n, s, b)
            expected = (
                n * n - (2 * b + 1) * n - b * s * s + b * b - b * s - s * s + b - s
            )
            assert at_nb1 == expected

    def test_root_sum_is_trace(self):
        for n, s, b in [(20, 1, 4), (50, 3, 6)]:
            coeffs, _, _ = book_charpoly(n, s, b)
            assert -coeffs[1] == n - b - 3


class TestEdgeRotation:
    def test_pendant_rotation_keeps_path_shape(self):
        # re-hang the pendant vertex 0 from vertex 1 onto the far endpoint 4:
        # the result is the path 1-2-3-4-0
        g = path(5)
        rotated = edge_rotation(g, 4, 1, {0})
        assert sorted(rotated.degrees()) == sorted(g.degrees())
        assert is_connected(rotated)
        assert rotated.has_edge(0, 4) and not rotated.has_edge(0, 1)

    def test_empty_moved_set_rejected(self):
        with pytest.raises(BadParamsError, match="moved set must be nonempty"):
            edge_rotation(path(5), 4, 0, 0)

    def test_vi_in_moved_set_rejected(self):
        g = path(3)  # N(1) = {0, 2}
        with pytest.raises(BadParamsError, match="moved set must not contain vi"):
            edge_rotation(g, 0, 1, {0})

    def test_moved_must_avoid_common_neighbors(self):
        g = complete(4)
        with pytest.raises(BadParamsError, match=r"moved set must lie in N\(vj\) - N\(vi\)"):
            edge_rotation(g, 0, 1, {2})  # 2 is adjacent to both

    def test_rho_increases_with_perron_ordering(self):
        rng = random.Random(14)
        done = 0
        while done < 60:
            g = random_connected(10, 0.35, rng)
            r = spectral_radius(g)
            vi, vj = None, None
            for cand_i in range(10):
                for cand_j in range(10):
                    if cand_i == cand_j:
                        continue
                    movable = g.adj[cand_j] & ~g.adj[cand_i] & ~(1 << cand_i)
                    if movable and r.perron[cand_i] >= r.perron[cand_j] + 1e-9:
                        vi, vj = cand_i, cand_j
                        break
                if vi is not None:
                    break
            if vi is None:
                continue
            movable = g.adj[vj] & ~g.adj[vi] & ~(1 << vi)
            rotated = edge_rotation(g, vi, vj, movable)
            assert spectral_radius(rotated).rho > r.rho + 1e-10
            done += 1


class TestSubgraphMonotonicity:
    def test_edge_deletion_strictly_decreases_rho(self):
        rng = random.Random(18)
        done = 0
        while done < 40:
            g = random_connected(9, 0.5, rng)
            edges = g.edges()
            rng.shuffle(edges)
            for u, v in edges:
                rows = list(g.adj)
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
                from factorlab.graph import Graph

                h = Graph(9, rows)
                if is_connected(h):
                    assert spectral_radius(h).rho < spectral_radius(g).rho - 1e-10
                    done += 1
                    break

"""Verification harness: corpora, recognizer, sweeps, survey, grids."""

import os
import random

import pytest

from factorlab import (
    BadParamsError,
    CriterionWitness,
    FactorLabError,
    ParityParams,
    SamplerExhaustedError,
    SizeLimitError,
    bundled_connected_graphs,
    complete,
    decide_by_criterion,
    decide_by_matching,
    eta,
    from_edges,
    from_graph6,
    g_na,
    grid_bound_monotonicity,
    grid_degree_size_bound,
    grid_gna_no_factor,
    grid_parity_evenness,
    is_connected,
    min_degree,
    recognize_gna,
    relabel,
    sample_connected_min_degree,
    survey_theorem,
    sweep_oracle_equivalence,
    to_graph6,
    vertices_of,
)
from factorlab import factors, harness
from factorlab.factors import Verdict
from factorlab.graph import MAX_VERTICES
from factorlab.harness import GridReport, sample_min_degree, sample_regular

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


class TestBundledCorpora:
    def test_counts_match_published_values(self):
        for n, expected in CONNECTED_COUNTS.items():
            graphs = bundled_connected_graphs(n)
            assert len(graphs) == expected

    def test_entries_are_connected_with_right_order(self):
        for n in (4, 6):
            for g in bundled_connected_graphs(n):
                assert g.n == n
                assert is_connected(g)

    def test_no_duplicate_lines(self):
        for n in (5, 7):
            lines = [to_graph6(g) for g in bundled_connected_graphs(n)]
            assert len(set(lines)) == len(lines)

    def test_out_of_range(self):
        with pytest.raises(FactorLabError):
            bundled_connected_graphs(9)

    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_non_integer_order_is_refused(self, n):
        # 2.0 once looked for a file connected_2.0.g6 and raised FileNotFoundError
        with pytest.raises(FactorLabError, match="bundled corpus order"):
            bundled_connected_graphs(n)


class TestRecognizeGna:
    def test_recognizes_shuffled_copy(self):
        rng = random.Random(41)
        for n, a in [(15, 3), (12, 2), (18, 4), (2 * 5 + 3, 5)]:
            g = g_na(n, a).graph
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = relabel(g, perm)
            blocks = recognize_gna(shuffled, a)
            assert blocks is not None
            # remapping blocks through the constructor reproduces the graph
            order = []
            from factorlab import vertices_of

            for name in ("clique_small", "clique_big", "indep", "w"):
                order.extend(vertices_of(blocks[name]))
            back = [0] * n
            for new, old in enumerate(order):
                back[old] = new
            assert relabel(shuffled, back) == g_na(n, a).graph

    def test_boundary_small_n(self):
        # smallest legal order and the degree-collision order both recognize
        for a in (2, 3):
            for n in (2 * a + 3, 2 * a + 4):
                assert recognize_gna(g_na(n, a).graph, a) is not None

    def test_extra_edge_breaks_it(self):
        cons = g_na(15, 3)
        g = cons.graph
        for u in range(g.n):
            v = next((x for x in range(u + 1, g.n) if not g.has_edge(u, x)), None)
            if v is not None:
                rows = list(g.adj)
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                from factorlab.graph import Graph

                assert recognize_gna(Graph(g.n, rows), 3) is None
                break

    def test_degree_preserving_switch_breaks_it(self):
        # trade w-x (x independent) and y-z (inside the big clique) for w-y and x-z
        cons = g_na(15, 3)
        g = cons.graph
        w = cons.blocks["w"].bit_length() - 1
        x = (cons.blocks["indep"] & -cons.blocks["indep"]).bit_length() - 1
        y, z = [v for v in range(g.n) if cons.blocks["clique_big"] >> v & 1][:2]
        rows = list(g.adj)
        for u, v in ((w, x), (y, z), (w, y), (x, z)):
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        from factorlab.graph import Graph

        switched = Graph(g.n, rows)
        assert switched.degrees() == g.degrees() and switched.m == g.m
        assert recognize_gna(switched, 3) is None
        perm = list(range(g.n))
        random.Random(5).shuffle(perm)
        assert recognize_gna(relabel(switched, perm), 3) is None

    def test_wrong_family_members(self):
        assert recognize_gna(complete(15), 3) is None
        assert recognize_gna(g_na(15, 3).graph, 4) is None
        from factorlab import cycle

        assert recognize_gna(cycle(12), 2) is None
        assert recognize_gna(g_na(15, 3).graph, 1) is None  # a < 2: no such family, not an error


class TestOracleSweep:
    def test_tiny_corpus_no_disagreements(self):
        graphs = [g for n in range(1, 6) for g in bundled_connected_graphs(n)]
        pairs = [ParityParams(*ab) for ab in ((1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5))]
        report = sweep_oracle_equivalence(graphs, pairs)
        assert report.all_pass
        ok_rows = [r for r in report.rows if r[4] == "ok"]
        skipped = [r for r in report.rows if r[4] == "skipped_parity"]
        assert ok_rows and skipped  # odd orders skip odd-a pairs

    def test_gna_row_shows_no_factor_on_both_routes(self):
        cons = g_na(11, 2)
        report = sweep_oracle_equivalence([cons.graph], [ParityParams(2, 4)])
        (row,) = report.rows
        assert row[4] == "ok" and row[5] is True
        assert row[6] is False and row[7] is False  # criterion, search agree: no factor

    def test_decider_errors_become_failing_rows(self):
        # K_10 is over the search's 40-edge cap, g_na(19, 2) over the criterion's 18 vertices
        k10, gna19, k4 = complete(10), g_na(19, 2).graph, complete(4)
        report = sweep_oracle_equivalence([k10, gna19, k4], [ParityParams(1, 1), ParityParams(2, 4)])
        rows = {(r[0], r[2], r[3]): r for r in report.rows}
        assert len(rows) == len(report.rows) == 6
        for a, b in ((1, 1), (2, 4)):
            row = rows[(to_graph6(k10), a, b)]
            assert row[4].startswith("error:search") and row[5:] == (False, True, "", "")
            row = rows[(to_graph6(k4), a, b)]
            assert row[4:] == ("ok", True, True, True, True if a == 1 else "")
        assert rows[(to_graph6(gna19), 1, 1)][4:] == ("skipped_parity", True, "", "", "")
        row = rows[(to_graph6(gna19), 2, 4)]
        assert row[4].startswith("error:criterion") and row[5:] == (False, "", "", "")
        assert not report.all_pass

    def test_order_with_no_admitted_pair(self):
        # K_3 admits no (1, 1)-factor: a skipped row, and no error from the
        # criterion sweep of an empty list of pairs
        report = sweep_oracle_equivalence([complete(3), complete(4)], [ParityParams(1, 1)])
        assert [r[4] for r in report.rows] == ["skipped_parity", "ok"] and report.all_pass

    def test_tables_are_built_per_sweep_and_not_kept(self, monkeypatch):
        # 100 graphs make two chunks; every graph goes through harness.criterion_scan
        # once, its tables come from one stacked build, and a second sweep over
        # the same graphs builds them again: no table outlives its chunk
        graphs = random.Random(77).sample(bundled_connected_graphs(7), 100)
        pairs = [ParityParams(*ab) for ab in ((1, 1), (2, 2), (2, 4))]
        built, stacks, scanned = [], [], []
        real_keep, real_scan = factors._exact_keep, harness.criterion_scan

        def spy_keep(adjs, *args):
            built.extend(adjs)
            stacks.append(len(adjs))
            return real_keep(adjs, *args)

        def spy_scan(g, params_list, force=False):
            scanned.append(g)
            return real_scan(g, params_list, force=force)

        monkeypatch.setattr(factors, "_exact_keep", spy_keep)
        monkeypatch.setattr(harness, "criterion_scan", spy_scan)
        for sweep in (1, 2):
            assert sweep_oracle_equivalence(graphs, pairs).all_pass
            assert not factors._PREFETCHED
            assert scanned == sweep * graphs
            assert sorted(built) == sorted(sweep * [g.adj for g in graphs])
            assert max(stacks) > 1

    @pytest.mark.parametrize("jobs, chunks, workers", [(10**9, 5, 3), (2, 5, 2), (10**9, 2, 2), (4, 1, None)])
    def test_workers_are_bounded_by_jobs_chunks_and_cores(self, monkeypatch, jobs, chunks, workers):
        # at most one worker per chunk and per core; a single worker runs in this process
        started = []

        class SpyPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [[] for _ in items]

        monkeypatch.setattr(harness, "Pool", SpyPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        graphs = [complete(4)] * (harness.SWEEP_CHUNK * (chunks - 1) + 1)
        report = sweep_oracle_equivalence(graphs, [ParityParams(2, 2)], jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert len(report.rows) == (len(graphs) if workers is None else 0)

    def test_parallel_matches_serial(self, monkeypatch):
        graphs = bundled_connected_graphs(6)[:100]  # two chunks, so two workers start
        pairs = [ParityParams(2, 2), ParityParams(1, 3)]
        serial = sweep_oracle_equivalence(graphs, pairs, jobs=1)
        started = []
        real_pool = harness.Pool

        def recording_pool(processes):
            started.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(harness, "Pool", recording_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two real workers, whatever the host's core count
        parallel = sweep_oracle_equivalence(graphs, pairs, jobs=2)
        assert started == [2]
        assert serial.rows == parallel.rows


class TestSampler:
    def test_deterministic_per_seed(self):
        g1 = sample_connected_min_degree(10, 2, random.Random("7:3"))
        g2 = sample_connected_min_degree(10, 2, random.Random("7:3"))
        assert g1 == g2

    def test_meets_constraints(self):
        rng = random.Random(100)
        for _ in range(20):
            g = sample_connected_min_degree(12, 3, rng)
            assert is_connected(g) and min_degree(g) >= 3

    def test_exhaustion(self):
        with pytest.raises(SamplerExhaustedError):
            sample_connected_min_degree(4, 9, random.Random(0))

    def test_regular_sampler(self):
        rng = random.Random(5)
        for n, d in [(8, 3), (11, 4), (14, 5)]:
            g = sample_regular(n, d, rng)
            assert g.degrees() == [d] * n
        for n, d in [(5, 3), (4, 4), (6, 0)]:  # n*d odd, d >= n, d < 1
            with pytest.raises(SamplerExhaustedError):
                sample_regular(n, d, rng)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda rng: sample_connected_min_degree(4.0, 2, rng), id="float"),
            pytest.param(lambda rng: sample_connected_min_degree(2.5, 2, rng), id="fraction"),
            pytest.param(lambda rng: sample_connected_min_degree(None, 2, rng), id="none"),
            pytest.param(lambda rng: sample_connected_min_degree("3", 2, rng), id="str"),
            pytest.param(lambda rng: sample_connected_min_degree(10**9, 2, rng), id="huge"),
            pytest.param(lambda rng: sample_min_degree(MAX_VERTICES + 1, 1, rng), id="over-limit"),
            pytest.param(lambda rng: sample_min_degree(0, 1, rng), id="empty"),
            pytest.param(lambda rng: sample_min_degree(12, 2.5, rng), id="min_deg-fraction"),
            pytest.param(lambda rng: sample_min_degree(12, None, rng), id="min_deg-none"),
            pytest.param(lambda rng: sample_regular(12, 3.0, rng), id="regular-float-degree"),
            pytest.param(lambda rng: sample_regular(12.0, 3, rng), id="regular-float-order"),
            pytest.param(lambda rng: sample_regular(10**9, 2, rng), id="regular-huge"),
        ],
    )
    def test_bad_order_or_degree_is_refused_before_any_draw(self, monkeypatch, call):
        # each once raised TypeError, drew all n^2 pairs before Graph refused the order,
        # or asked for an n-entry list
        monkeypatch.setattr(harness, "_gnp", lambda *args: pytest.fail("a graph was drawn"))
        with pytest.raises(BadParamsError):
            call(random.Random(0))

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda rng: sample_connected_min_degree(12, 1.5, rng), "min_deg must be an integer, got 1.5",
                         id="min_deg"),
            pytest.param(lambda rng: sample_min_degree(12, -1, rng), "min_deg must be at least 0, got -1",
                         id="min_deg-negative"),
            pytest.param(lambda rng: sample_regular(12, 2.5, rng), "regular degree must be an integer, got 2.5",
                         id="regular-degree"),
            pytest.param(lambda rng: sample_regular(12, -2, rng), "regular degree must be at least 0, got -2",
                         id="regular-degree-negative"),
            pytest.param(lambda rng: recognize_gna(g_na(12, 2).graph, 1.5),
                         "recognize_gna's a must be an integer, got 1.5", id="recognize_gna-a"),
            pytest.param(lambda rng: recognize_gna(g_na(12, 2).graph, -1), "recognize_gna's a must be at least 0, got -1",
                         id="recognize_gna-a-negative"),
        ],
    )
    def test_one_value_refusal_names_the_value(self, monkeypatch, call, message):
        # these once read "... must be integers, got (1.5,)", and took a negative value
        monkeypatch.setattr(harness, "_gnp", lambda *args: pytest.fail("a graph was drawn"))
        with pytest.raises(BadParamsError) as info:
            call(random.Random(0))
        assert str(info.value) == message


class TestSurvey:
    def test_deterministic_report(self):
        r1 = survey_theorem(n=11, a=2, b=4, samples=8, seed=5)
        r2 = survey_theorem(n=11, a=2, b=4, samples=8, seed=5)
        assert r1.to_csv() == r2.to_csv()

    def test_extremal_graph_is_record_zero(self):
        report = survey_theorem(n=12, a=2, b=4, samples=5, seed=3)
        first = report.records[0]
        assert first.index == 0
        assert not first.has_factor
        assert first.min_deg == 2
        assert first.is_gna
        assert first.classification == "boundary"  # rho equals rho_extremal exactly

    def test_rho_extremal_exceeds_clique_floor(self):
        report = survey_theorem(n=13, a=2, b=4, samples=3, seed=2)
        assert report.rho_extremal > 13 - 2 - 3

    def test_records_reverify(self):
        report = survey_theorem(n=12, a=2, b=4, samples=6, seed=11)
        for record in report.records:
            g = from_graph6(record.graph6)
            verdict = decide_by_criterion(g, ParityParams(2, 4))
            assert verdict.exists == record.has_factor

    def test_deciders_disagreeing_raises(self, monkeypatch):
        # record 0, g_na, has no factor; a sweep claiming one is not believed
        monkeypatch.setattr(
            harness, "criterion_scan", lambda g, params_list, force=False: [Verdict(exists=True)] * len(params_list)
        )
        with pytest.raises(FactorLabError):
            survey_theorem(n=12, a=2, b=4, samples=1, seed=0)

    def test_past_the_sweep_cap(self):
        # n = 20 is above CRITERION_VERTEX_LIMIT: record 0's witness must
        # still come out, and re-check with the public eta
        report = survey_theorem(n=20, a=2, b=4, samples=2, seed=0)
        first = report.records[0]
        assert first.is_gna and not first.has_factor
        cells = dict(part.split("=") for part in first.detail.split(";"))
        s_set, t_set = ({int(v) for v in cells[k].split("|") if v} for k in ("S", "T"))
        g = from_graph6(first.graph6)
        assert eta(g, s_set, t_set, ParityParams(2, 4)) == int(cells["eta"]) <= -2
        for record in report.records[1:]:
            assert record.has_factor == decide_by_matching(from_graph6(record.graph6), ParityParams(2, 4)).exists

    def test_block_witness_not_violating_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "criterion_witness", lambda g, s, t, params: CriterionWitness(s, t, 0, 0, 0))
        with pytest.raises(FactorLabError):
            survey_theorem(n=20, a=2, b=4, samples=1, seed=0)

    def test_gna_past_the_cap_at_any_index(self):
        # the block witness follows the graph, not record 0: a shuffled g_na(20, 2) at index 5
        perm = list(range(20))
        random.Random(5).shuffle(perm)
        g = relabel(g_na(20, 2).graph, perm)
        indep = recognize_gna(g, 2)["indep"]
        assert indep != g_na(20, 2).blocks["indep"]
        record = harness._survey_record(5, g, ParityParams(2, 4), rho_extremal=0.0)
        assert record.is_gna and not record.has_factor
        assert record.detail == f"S=;T={'|'.join(map(str, vertices_of(indep)))};eta=-2;q=2;deg_sum=6"

    def test_factor_free_sample_past_the_cap_still_raises(self):
        # not g_na, so no block witness: the sweep's SizeLimitError stands (K_{2,17} at (2,4))
        g = from_edges(19, [(u, v) for u in range(2) for v in range(2, 19)])
        with pytest.raises(SizeLimitError):
            harness._survey_record(1, g, ParityParams(2, 4), rho_extremal=0.0)

    def test_hypothesis_metadata(self):
        report = survey_theorem(n=12, a=2, b=4, samples=1, seed=1)
        assert report.hypothesis_n_min == max(2 * 4 + 272 + 264, 2 * 16 + 40 + 28 + 34)
        assert report.hypothesis_n_min_alt < report.hypothesis_n_min
        assert f"hypothesis_n_min={report.hypothesis_n_min}" in report.to_csv()


class TestGrids:
    def test_degree_size_bound_small(self):
        report = grid_degree_size_bound(samples=150, seed=3)
        assert report.all_pass

    def test_monotonicity_small(self):
        report = grid_bound_monotonicity(samples=60, seed=4)
        assert report.all_pass

    def test_parity_evenness_small(self):
        report = grid_parity_evenness(trials=3000, seed=6)
        assert report.all_pass

    def test_csv_shape(self):
        report = grid_gna_no_factor()
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "a,b,n,eta,q,criterion_no_factor,search_no_factor,pass"
        assert len(lines) == len(report.rows) + 1

    @pytest.mark.parametrize(
        "call, first_work",
        [
            pytest.param(lambda: survey_theorem(12, 2, 4, samples=1.5), "g_na", id="survey-float"),
            pytest.param(lambda: survey_theorem(12, 2, 4, samples=-1), "g_na", id="survey-negative"),
            pytest.param(lambda: sweep_oracle_equivalence([complete(4)], harness.ORACLE_PAIRS, jobs=1.5),
                         "_sweep_chunk", id="sweep-jobs-float"),
            pytest.param(lambda: sweep_oracle_equivalence([complete(4)], harness.ORACLE_PAIRS, jobs=0),
                         "_sweep_chunk", id="sweep-jobs-zero"),
            pytest.param(lambda: grid_bound_monotonicity(samples="x"), "f_monotone_check", id="lemma2.3-str"),
            pytest.param(lambda: grid_degree_size_bound(samples=2.5), "sample_min_degree", id="lemma2.2-float"),
            pytest.param(lambda: grid_parity_evenness(trials=None), "eta", id="eq1-none"),
            pytest.param(lambda: grid_parity_evenness(trials=True), "eta", id="eq1-bool"),
        ],
    )
    def test_bad_count_is_refused_before_any_work(self, monkeypatch, call, first_work):
        # each once raised TypeError (the survey after building G_{n,a} and its rho) or ran anyway
        monkeypatch.setattr(harness, first_work, lambda *args, **kwargs: pytest.fail("work started"))
        with pytest.raises(BadParamsError):
            call()

    def test_zero_counts_are_empty_runs(self):
        assert [r.index for r in survey_theorem(12, 2, 4, samples=0).records] == [0]
        assert grid_bound_monotonicity(samples=0).rows == []
        assert grid_parity_evenness(trials=0).rows == []

    def test_wrong_width_row_raises(self):
        report = GridReport(suite="demo", columns=("n", "pass"))
        with pytest.raises(FactorLabError):
            report.add(1, 2, 3)

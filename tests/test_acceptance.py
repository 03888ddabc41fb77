"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (pytest -s shows
them; the test outcome itself is the pass/fail record).  Soft size caps are
lifted (force=True) only where a criterion's stated grid requires it.
"""

import math
import random

from factorlab import (
    ParityParams,
    book_family,
    bundled_connected_graphs,
    complete,
    cycle,
    edge_rotation,
    g_na,
    grid_clique_merge_dominance,
    grid_degree_size_bound,
    grid_gna_no_factor,
    grid_parity_evenness,
    quotient,
    quotient_rho,
    spectral_radius,
    star,
    survey_theorem,
    sweep_oracle_equivalence,
)
from factorlab.harness import sample_connected_min_degree

PAIRS = ((1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5))


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def test_criterion_01_oracle_equivalence():
    """Both deciders (plus the matching oracle at (1,1)) agree on every
    connected graph with n <= 8 and every valid parameter pair."""
    graphs = [g for n in range(1, 9) for g in bundled_connected_graphs(n)]
    assert len(graphs) == 1 + 1 + 2 + 6 + 21 + 112 + 853 + 11117
    params = [ParityParams(*ab) for ab in PAIRS]
    rep = sweep_oracle_equivalence(graphs, params, jobs=2, matching_check=True)
    errors = [r for r in rep.rows if r[4].startswith("error")]
    disagreements = [r for r in rep.rows if not r[5]]
    assert not errors
    assert not disagreements
    checked = sum(1 for r in rep.rows if r[4] == "ok")
    report(f"1: PASS oracle equivalence, {checked} decide-pairs, 0 disagreements")


def test_criterion_02_gna_deficiency_grid():
    """eta(empty, indep) = -2 and q = 2 exactly on the full family grid;
    both deciders return no-factor at decidable orders."""
    rep = grid_gna_no_factor()
    assert rep.all_pass, rep.failures()[:5]
    assert all(row[3] == -2 and row[4] == 2 for row in rep.rows)
    decided = [row for row in rep.rows if row[5] != ""]
    assert decided and all(row[5] and row[6] for row in decided)
    report(f"2: PASS eta=-2, q=2 on {len(rep.rows)} grid points; {len(decided)} decided no-factor")


def test_criterion_03_parity_evenness():
    """10^5 seeded random instances under the preconditions: eta is even."""
    rep = grid_parity_evenness(trials=100_000, seed=0)
    assert rep.all_pass
    assert sum(row[1] for row in rep.rows) == 100_000
    assert sum(row[2] for row in rep.rows) == 0
    report("3: PASS eta even in 100000/100000 random instances")


def test_criterion_04_spectral_sanity():
    """Closed-form spectral radii within 1e-9 up to n = 200."""
    for n in range(1, 201):
        assert abs(spectral_radius(complete(n)).rho - (n - 1)) <= 1e-9
    for n in range(3, 201):
        assert abs(spectral_radius(cycle(n)).rho - 2.0) <= 1e-9
    for n in range(2, 201):
        assert abs(spectral_radius(star(n)).rho - math.sqrt(n - 1)) <= 1e-9
    report("4: PASS complete/cycle/star spectra within 1e-9 for n <= 200")


def test_criterion_05_quotient_equality():
    """Equitable quotient spectral radius equals the full graph's within 1e-8."""
    checked = 0
    worst = 0.0
    for a in (2, 3, 4, 5):
        for n in range(2 * a + 4, 41):
            if (n * a) % 2:
                continue
            cons = g_na(n, a)
            qm = quotient(cons.graph, cons.parts())
            gap = abs(quotient_rho(qm) - spectral_radius(cons.graph).rho)
            worst = max(worst, gap)
            assert gap <= 1e-8, (n, a, gap)
            checked += 1
    for s in range(1, 6):
        for b in range(4, 10):
            for n in range(max(2 * b, (b + 1) * s + 1), 201):
                cons = book_family(n, s, b)
                qm = quotient(cons.graph, cons.parts())
                gap = abs(quotient_rho(qm) - spectral_radius(cons.graph).rho)
                worst = max(worst, gap)
                assert gap <= 1e-8, (n, s, b, gap)
                checked += 1
    report(f"5: PASS quotient vs full-graph radius on {checked} graphs, worst gap {worst:.2e}")


def test_criterion_06_book_cubic_and_bound():
    """Exact cubic identity and the strict quotient bound over the full grid."""
    from factorlab import book_charpoly

    checked = 0
    min_margin = float("inf")
    for s in range(1, 6):
        for b in range(4, 10):
            for n in range(max(2 * b, (b + 1) * s + 1), 201):
                _, _, at_nb2 = book_charpoly(n, s, b)
                assert at_nb2 == -(b + 1) * s * s
                cons = book_family(n, s, b)
                rho_q = quotient_rho(quotient(cons.graph, cons.parts()))
                margin = (n - b - 1) - rho_q
                min_margin = min(min_margin, margin)
                assert margin > 1e-10, (n, s, b, margin)
                checked += 1
    report(f"6: PASS cubic identity exact and rho < n-b-1 on {checked} points, min margin {min_margin:.3e}")


def test_criterion_07_degree_size_bound():
    """10^4 sampled graphs respect the bound; regular samples attain it."""
    rep = grid_degree_size_bound(samples=10_000, seed=0)
    assert rep.all_pass, rep.failures()[:5]
    general = [r for r in rep.rows if r[0] == "general"]
    regular = [r for r in rep.rows if r[0] == "regular"]
    assert len(general) == 10_000 and len(regular) == 200
    report("7: PASS degree/size bound on 10000 samples, equality band on 200 regular samples")


def test_criterion_08_clique_merge_dominance():
    """The one-big-clique composition strictly dominates all others."""
    rep = grid_clique_merge_dominance()
    assert rep.all_pass, rep.failures()[:5]
    nontrivial = [r for r in rep.rows if r[3].count("+") > 0]
    report(f"8: PASS dominance on {len(rep.rows)} compositions ({len(nontrivial)} non-extreme)")


def test_criterion_09_rotation_strictness():
    """10^3 seeded rotations with verified Perron ordering strictly raise rho."""
    done = 0
    index = 0
    while done < 1000:
        rng = random.Random(f"rotations:{index}")
        index += 1
        n = rng.randrange(8, 15)
        g = sample_connected_min_degree(n, 1, rng)
        r = spectral_radius(g)
        candidates = []
        for vi in range(n):
            for vj in range(n):
                if vi == vj:
                    continue
                movable = g.adj[vj] & ~g.adj[vi] & ~(1 << vi)
                if movable and r.perron[vi] >= r.perron[vj] + 1e-9:
                    candidates.append((vi, vj, movable))
        if not candidates:
            continue
        vi, vj, movable = candidates[rng.randrange(len(candidates))]
        rotated = edge_rotation(g, vi, vj, movable)
        assert spectral_radius(rotated).rho > r.rho + 1e-10, (index, vi, vj)
        done += 1
    report("9: PASS 1000 rotations all strictly increased rho (margin > 1e-10)")


def test_criterion_10_survey_runs_reports_never_asserts():
    """The threshold statement is out of reach at desk scale (its hypothesis
    needs n in the hundreds); the survey substitute must run to completion,
    reproduce byte-identically, carry the extremal graph as a factor-free
    record, and log any small-n exception as a finding rather than a failure."""
    a, b = 2, 4
    hypothesis_floor = max(2 * a * a + 136 * a + 264, 2 * b * b + 5 * a * b + 7 * b + 34)
    assert hypothesis_floor >= 544  # desk-scale n = 11..14 is far below it
    findings = 0
    for n in (11, 12, 13, 14):
        rep1 = survey_theorem(n=n, a=a, b=b, samples=20, seed=1)
        rep2 = survey_theorem(n=n, a=a, b=b, samples=20, seed=1)
        assert rep1.to_csv() == rep2.to_csv()
        first = rep1.records[0]
        assert first.is_gna and not first.has_factor and first.min_deg == a
        assert rep1.rho_extremal > n - a - 3
        assert rep1.n < rep1.hypothesis_n_min
        findings += len(rep1.exceptions)  # recorded, never asserted against
    report(f"10: PASS survey deterministic at n=11..14; {findings} small-n findings recorded")

"""Batch verification machinery: oracle sweeps, bound grids, and the
desk-scale spectral-threshold survey.

Every runner returns a report with one contract: ``to_csv()`` gives the
report text, ``summary()`` the JSON summary and ``all_pass`` the verdict.
Failures are recorded in rows rather than raised, so a sweep always completes.
Each lemma's grid is fixed: the lemma 2.6-2.8 runners take no arguments, the
sampled suites only a count and a seed.  Sampling is seeded and per-item seeds
are derived from the master seed as ``random.Random(f"{seed}:{index}")``,
which makes reports byte-identical across runs and safe to parallelize.
"""

from __future__ import annotations

import os
import random
from collections.abc import Sequence
from dataclasses import astuple, dataclass, field, fields
from importlib import resources
from multiprocessing import Pool

from .errors import BadParamsError, FactorLabError, SamplerExhaustedError, SizeLimitError
from .factors import (
    ParityParams,
    Verdict,
    criterion_scan,
    criterion_witness,
    decide_by_matching,
    decide_by_search,
    eta,
    prefetch_criterion,
    search_scan,
)
from .families import book_family, clique_join, g_na
from .graph import (
    MAX_VERTICES, Graph, as_count, is_connected, iter_bits, mask_of, min_degree, relabel, vertices_of,
)
from .graph6 import read_graph6, to_graph6
from .matching import has_perfect_matching
from .spectral import (
    _radicand,
    book_charpoly,
    degree_size_curve,
    f_monotone_check,
    hong_nikiforov_bound,
    quotient,
    quotient_rho,
    spectral_radius,
)

EQUALITY_BAND = 1e-8
STRICT_MARGIN = 1e-10
P_GRID = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
SWEEP_CHUNK = 64  # oracle graphs per prefetch_criterion call, and per task of a jobs > 1 pool
EQ1_BLOCK = 1000  # eq1 trials per report row, each row drawn from its own seeded rng
# the (a, b) pairs of the oracle suite and of the corpus witness digest
ORACLE_PAIRS = tuple(ParityParams(a, b) for a, b in ((1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)))


# ---------------------------------------------------------------------------
# corpora


def bundled_connected_graphs(n: int) -> list[Graph]:
    """The bundled exhaustive corpus: all connected graphs on n <= 8 vertices."""
    n = as_count(n, "bundled corpus order", 1, 8)
    text = resources.files("factorlab").joinpath(f"data/connected_{n}.g6").read_text()
    return read_graph6(text)


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    """G(n,p), drawing one rng.random() per pair u < v in lexicographic order."""
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, rows)


def _sample_gnp(n: int, min_deg: int, rng: random.Random, connected: bool) -> Graph:
    """The rejection loop of both G(n,p) samplers: try i draws at p = P_GRID[i % 8],
    400 tries.  Neither public sampler calls the other, so a wrapper around one
    name sees each draw once."""
    n = as_count(n, "sampled order", 1, MAX_VERTICES)  # before any of the n^2 pair draws
    min_deg = as_count(min_deg, "min_deg")
    for attempt in range(400):
        g = _gnp(n, P_GRID[attempt % len(P_GRID)], rng)
        if min_degree(g) >= min_deg and (not connected or is_connected(g)):
            return g
    kind = "connected sample" if connected else "sample"
    raise SamplerExhaustedError(f"no {kind} with min degree >= {min_deg} on n={n} after 400 tries")


def sample_connected_min_degree(n: int, min_deg: int, rng: random.Random) -> Graph:
    """Rejection-sample a connected G(n,p) graph with minimum degree >= min_deg."""
    return _sample_gnp(n, min_deg, rng, connected=True)


def sample_min_degree(n: int, min_deg: int, rng: random.Random) -> Graph:
    """Rejection-sample a (possibly disconnected) G(n,p) graph with delta >= min_deg."""
    return _sample_gnp(n, min_deg, rng, connected=False)


def sample_regular(n: int, d: int, rng: random.Random) -> Graph:
    """Random d-regular simple graph: draw suitable stub pairs, restart when
    the residual degrees dead-end, and give up after 200 tries."""
    n = as_count(n, "regular order", most=MAX_VERTICES)
    d = as_count(d, "regular degree")
    if d >= n or (n * d) % 2 != 0 or d < 1:
        raise SamplerExhaustedError(f"no d-regular graph for n={n}, d={d}")
    for _ in range(200):
        residual = [d] * n
        rows = [0] * n
        ok = True
        for _ in range(n * d // 2):
            candidates = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if residual[u] and residual[v] and not rows[u] >> v & 1
            ]
            if not candidates:
                ok = False
                break
            u, v = rng.choice(candidates)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            residual[u] -= 1
            residual[v] -= 1
        if ok:
            return Graph(n, rows)
    raise SamplerExhaustedError(f"regular sampler failed for n={n}, d={d}")


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class GridReport:
    """Rows of a verification grid plus the aggregate pass flag."""

    suite: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise FactorLabError(
                f"{self.suite} row has {len(values)} cells, expected {len(self.columns)}"
            )
        self.rows.append(values)

    @property
    def all_pass(self) -> bool:
        return not self.failures()

    def failures(self) -> list[tuple]:
        idx = self.columns.index("pass")
        return [row for row in self.rows if not row[idx]]

    def summary(self) -> dict:
        failures = len(self.failures())
        return {"suite": self.suite, "rows": len(self.rows), "failures": failures, "all_pass": self.all_pass}

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# structural recognition of the extremal family


def recognize_gna(g: Graph, a: int) -> dict[str, int] | None:
    """Exact structural test for membership in the g_na family: its block
    masks by name when g is a relabeled ``g_na(n, a).graph``, else None.

    The small clique is the degree-(n-2) vertices; each degree-(a+1) vertex
    is tried as w, its neighborhood as the independent block.  A candidate
    matches iff relabeling ``g_na(n, a).graph`` block by block onto it gives
    g; each block is a set of twins there, so the order inside is free.
    """
    n = g.n
    a = as_count(a, "recognize_gna's a")
    if a < 2 or n < 2 * a + 3:
        return None
    degs = g.degrees()
    small_mask = mask_of(v for v in range(n) if degs[v] == n - 2)
    if small_mask.bit_count() != a - 1:
        return None
    target = g_na(n, a).graph
    for w in range(n):
        indep = g.adj[w]
        if degs[w] != a + 1 or small_mask & indep:
            continue
        w_bit = 1 << w  # degree a+1 < n-2, so w lies outside the small clique
        big_mask = g.full_mask ^ small_mask ^ indep ^ w_bit
        blocks = {"clique_small": small_mask, "clique_big": big_mask, "indep": indep, "w": w_bit}
        if relabel(target, [v for mask in blocks.values() for v in iter_bits(mask)]) == g:
            return blocks
    return None


# ---------------------------------------------------------------------------
# oracle-equivalence sweep


def _safe_msg(exc: Exception) -> str:
    return str(exc).replace(",", ";").replace("\n", " ")


def _sweep_chunk(args: tuple[list[Graph], Sequence[ParityParams], bool]) -> list[tuple]:
    graphs, params_list, matching_check = args
    with prefetch_criterion(graphs, params_list):
        return [row for g in graphs for row in _sweep_one(g, params_list, matching_check)]


def _sweep_one(g: Graph, params_list: Sequence[ParityParams], matching_check: bool) -> list[tuple]:
    g6 = to_graph6(g)
    rows = [(g6, g.n, p.a, p.b, "skipped_parity", True, "", "", "") for p in params_list if not p.admits(g.n)]
    valid = [p for p in params_list if p.admits(g.n)]
    cells = [""] * len(valid)  # an error row keeps the criterion's verdicts when only the search fails
    try:
        criterion_verdicts = criterion_scan(g, valid)
        cells = [cv.exists for cv in criterion_verdicts]
        search_verdicts = search_scan(g, valid)
    except FactorLabError as exc:
        rows.extend((g6, g.n, p.a, p.b, f"error:{_safe_msg(exc)}", False, c, "", "") for p, c in zip(valid, cells))
        return rows
    for p, cv, sv in zip(valid, criterion_verdicts, search_verdicts):
        agree = cv.exists == sv.exists
        extra = ""
        if matching_check and p.a == 1 and p.b == 1:
            pm = has_perfect_matching(g)
            agree = agree and pm == cv.exists
            extra = pm
        rows.append((g6, g.n, p.a, p.b, "ok", agree, cv.exists, sv.exists, extra))
    return rows


def sweep_oracle_equivalence(
    graphs: list[Graph],
    params_list: Sequence[ParityParams],
    jobs: int = 1,
    matching_check: bool = True,
) -> GridReport:
    """Run both deciders (and the matching oracle at (1,1)) over a corpus.

    The ``pass`` column records per-row agreement; parameter pairs invalid
    for a graph's order are recorded as skipped rows that pass vacuously.
    Graphs go in chunks of ``SWEEP_CHUNK``, and ``prefetch_criterion`` builds
    each chunk's criterion tables at once.  A pool of min(jobs, chunks, CPUs)
    workers maps the chunks when that is more than one; else they run here.
    """
    as_count(jobs, "jobs", 1)
    report = GridReport(
        suite="oracle",
        columns=("graph6", "n", "a", "b", "status", "pass", "criterion", "search", "matching"),
    )
    items = [(graphs[i : i + SWEEP_CHUNK], params_list, matching_check) for i in range(0, len(graphs), SWEEP_CHUNK)]
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            chunks = pool.map(_sweep_chunk, items)
    else:
        chunks = [_sweep_chunk(item) for item in items]
    report.rows.extend(row for chunk in chunks for row in chunk)
    return report


# ---------------------------------------------------------------------------
# spectral-threshold survey


@dataclass(frozen=True)
class SurveyRecord:
    index: int
    graph6: str
    n: int
    m: int
    min_deg: int
    has_factor: bool
    rho: float
    rho_extremal: float
    classification: str
    is_gna: bool
    detail: str


@dataclass
class SurveyReport:
    n: int
    a: int
    b: int
    samples: int
    seed: int
    rho_extremal: float
    records: list[SurveyRecord]
    hypothesis_n_min: int
    hypothesis_n_min_alt: int

    @property
    def factor_free(self) -> list[SurveyRecord]:
        return [r for r in self.records if not r.has_factor]

    @property
    def exceptions(self) -> list[SurveyRecord]:
        """Factor-free samples strictly above the extremal threshold that are
        not the extremal graph itself: findings, never failures."""
        return [r for r in self.factor_free if r.classification == "above" and not r.is_gna]

    @property
    def boundary(self) -> list[SurveyRecord]:
        return [r for r in self.records if r.classification == "boundary"]

    all_pass = True  # the survey reports findings below the theorem's order threshold; it never fails

    def summary(self) -> dict:
        return {
            "suite": "survey", "n": self.n, "a": self.a, "b": self.b, "rho_extremal": self.rho_extremal,
            "factor_free": len(self.factor_free),
            "exceptions": [r.index for r in self.exceptions],
            "boundary": [r.index for r in self.boundary],
        }

    def to_csv(self) -> str:
        lines = [
            f"# survey n={self.n} a={self.a} b={self.b} samples={self.samples} seed={self.seed}",
            f"# hypothesis_n_min={self.hypothesis_n_min} hypothesis_n_min_alt={self.hypothesis_n_min_alt}",
            f"# below_hypothesis_threshold={_cell(self.n < self.hypothesis_n_min)}",
            f"# rho_extremal={_cell(self.rho_extremal)}",
            f"# rho_extremal_exceeds_clique_bound={_cell(self.rho_extremal > self.n - self.a - 3)}",
            f"# factor_free_count={len(self.factor_free)}",
            f"# max_rho_factor_free={_cell(max((r.rho for r in self.factor_free), default=float('nan')))}",
            f"# exceptions={','.join(str(r.index) for r in self.exceptions) or 'none'}",
            f"# boundary={','.join(str(r.index) for r in self.boundary) or 'none'}",
            ",".join(f.name for f in fields(SurveyRecord)),
        ]
        lines.extend(",".join(map(_cell, astuple(r))) for r in self.records)
        return "\n".join(lines) + "\n"


def _classify(rho: float, rho_extremal: float) -> str:
    if abs(rho - rho_extremal) <= EQUALITY_BAND:
        return "boundary"
    return "above" if rho > rho_extremal else "below"


def _survey_record(index: int, g: Graph, params: ParityParams, rho_extremal: float) -> SurveyRecord:
    blocks = recognize_gna(g, params.a)
    verdict = decide_by_matching(g, params)
    if not verdict.exists:
        try:
            verdict = criterion_scan(g, [params])[0]  # for the witness
        except SizeLimitError:
            if blocks is None:
                raise
            # g_na past the sweep's cap: S = {}, T = its independent block
            w = criterion_witness(g, 0, blocks["indep"], params)
            if w.eta > -2:
                raise FactorLabError(f"survey record {index}: g_na's block witness has eta = {w.eta} > -2")
            verdict = Verdict(exists=False, witness=w)
        if verdict.exists:
            raise FactorLabError(f"survey record {index} ({to_graph6(g)}): the matching decider finds no factor,"
                                 " the criterion sweep finds one")
    rho = spectral_radius(g).rho
    if verdict.exists:
        detail = "eta>=0"
    else:
        w = verdict.witness
        s_str = "|".join(map(str, vertices_of(w.s_set)))
        t_str = "|".join(map(str, vertices_of(w.t_set)))
        detail = f"S={s_str};T={t_str};eta={w.eta};q={w.q};deg_sum={w.deg_sum}"
    return SurveyRecord(
        index=index,
        graph6=to_graph6(g),
        n=g.n,
        m=g.m,
        min_deg=min_degree(g),
        has_factor=verdict.exists,
        rho=rho,
        rho_extremal=rho_extremal,
        classification=_classify(rho, rho_extremal),
        is_gna=blocks is not None,
        detail=detail,
    )


def survey_theorem(n: int, a: int, b: int, samples: int = 100, seed: int = 0) -> SurveyReport:
    """Probe the spectral threshold at desk scale: sample connected graphs
    with delta >= a, decide factor existence, and compare each spectral
    radius against the extremal family's.

    Each record is decided by ``decide_by_matching`` first: a factor there
    comes with a certificate that ``verify_certificate`` has accepted, and
    the record reads ``eta>=0``.  Only a factor-free record pays the 3^n
    ``criterion_scan``, which supplies its witness; should the sweep find a
    factor instead, the two exact deciders disagree and ``FactorLabError``
    is raised rather than either answer kept.

    The extremal graph itself is always record 0.  A record that the sweep
    refuses with ``SizeLimitError`` and ``recognize_gna`` matches takes its
    witness from its blocks: S = {}, T = the independent block, and
    ``FactorLabError`` unless eta <= -2.  Results below the
    theorem's order threshold are reported, never asserted; exceptions are
    stored as findings.
    """
    as_count(samples, "samples")
    params = ParityParams(a, b)
    extremal = g_na(n, a)
    params.validate_for(n)
    rho_extremal = spectral_radius(extremal.graph).rho
    records = [_survey_record(0, extremal.graph, params, rho_extremal)]
    for index in range(1, samples + 1):
        rng = random.Random(f"{seed}:{index}")
        g = sample_connected_min_degree(n, a, rng)
        records.append(_survey_record(index, g, params, rho_extremal))
    return SurveyReport(
        n=n,
        a=a,
        b=b,
        samples=samples,
        seed=seed,
        rho_extremal=rho_extremal,
        records=records,
        hypothesis_n_min=max(2 * a * a + 136 * a + 264, 2 * b * b + 5 * a * b + 7 * b + 34),
        hypothesis_n_min_alt=max(2 * a * a + 136 * a + 164, 2 * b * b + 5 * a * b + 7 * b + 34),
    )


# ---------------------------------------------------------------------------
# bound and family grids


def grid_degree_size_bound(samples: int = 10_000, seed: int = 0) -> GridReport:
    """Sampled check of the degree/size spectral bound on ``samples`` G(n,p)
    graphs, then its equality band on 200 regular graphs."""
    report = GridReport(
        suite="lemma2.2",
        columns=("kind", "n", "m", "delta", "rho", "bound", "margin", "pass"),
    )
    as_count(samples, "samples")
    for index in range(samples):
        rng = random.Random(f"{seed}:general:{index}")
        n = rng.randrange(8, 33)
        g = sample_min_degree(n, 1, rng)
        rho = spectral_radius(g).rho
        bound = hong_nikiforov_bound(g.n, g.m, min_degree(g))
        margin = bound - rho
        report.add("general", g.n, g.m, min_degree(g), rho, bound, margin, rho <= bound + 1e-9)
    for index in range(200):
        rng = random.Random(f"{seed}:regular:{index}")
        n = rng.randrange(6, 25)
        d_max = min(7, n - 1)
        choices = [d for d in range(2, d_max + 1) if (n * d) % 2 == 0]
        d = rng.choice(choices)
        g = sample_regular(n, d, rng)
        rho = spectral_radius(g).rho
        bound = hong_nikiforov_bound(g.n, g.m, d)
        margin = bound - rho
        report.add("regular", g.n, g.m, d, rho, bound, margin, abs(rho - bound) <= 1e-7)
    return report


def grid_bound_monotonicity(samples: int = 400, seed: int = 0) -> GridReport:
    """Sampled check that the degree/size curve is nonincreasing in x."""
    report = GridReport(
        suite="lemma2.3", columns=("n", "m", "grid_len", "nonincreasing", "pass")
    )
    as_count(samples, "samples")
    rng = random.Random(f"{seed}:monotone")
    for _ in range(samples):
        n = rng.randrange(3, 61)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        grid = []
        for x in range(n):
            if _radicand(n, m, x) >= 0.0:
                grid.append(float(x))
            else:
                break
        ok = f_monotone_check(n, m, grid)
        endpoints_ok = True
        if len(grid) >= 2:
            endpoints_ok = (
                degree_size_curve(n, m, grid[0]) >= degree_size_curve(n, m, grid[-1]) - 1e-12
            )
        report.add(n, m, len(grid), ok, ok and endpoints_ok)
    return report


def _partitions_exact(total: int, parts: int, cap: int | None = None):
    """Descending partitions of ``total`` into exactly ``parts`` positive parts."""
    if parts == 1:
        if cap is None or total <= cap:
            yield (total,)
        return
    first_max = total - (parts - 1)
    if cap is not None:
        first_max = min(first_max, cap)
    for first in range(first_max, 0, -1):
        for rest in _partitions_exact(total - first, parts - 1, first):
            yield (first,) + rest


def grid_clique_merge_dominance() -> GridReport:
    """The one-big-clique composition dominates every other clique composition:
    s = 1..3 joined vertices, q = 1..4 cliques, n <= 14."""
    report = GridReport(
        suite="lemma2.6",
        columns=("n", "s", "q", "composition", "rho", "rho_extreme", "margin", "pass"),
    )
    for s in range(1, 4):
        for q in range(1, 5):
            for n in range(s + q, 15):
                compositions = _partitions_exact(n - s, q)
                extreme = next(compositions)  # descending order yields one big clique first
                rho_extreme = spectral_radius(Graph(n, clique_join(s, extreme))).rho
                report.add(n, s, q, "+".join(map(str, extreme)), rho_extreme, rho_extreme, 0.0, True)
                for sizes in compositions:
                    rho = spectral_radius(Graph(n, clique_join(s, sizes))).rho
                    margin = rho_extreme - rho
                    ok = rho <= rho_extreme + 1e-9 and margin > STRICT_MARGIN
                    report.add(n, s, q, "+".join(map(str, sizes)), rho, rho_extreme, margin, ok)
    return report


def grid_book_spectral_bound() -> GridReport:
    """Exact cubic identities plus the strict quotient bound rho < n-b-1:
    s = 1..5, b = 4..9, n <= 200."""
    report = GridReport(
        suite="lemma2.7",
        columns=("s", "b", "n", "value_at_nb2", "identity_ok", "rho_quotient", "bound", "margin", "pass"),
    )
    for s in range(1, 6):
        for b in range(4, 10):
            n_start = max(2 * b, (b + 1) * s + 1)
            for n in range(n_start, 201):
                poly, at_nb1, at_nb2 = book_charpoly(n, s, b)
                identity_ok = at_nb2 == -(b + 1) * s * s
                if s == 1:
                    identity_ok = identity_ok and at_nb1 == n * n - (2 * b + 1) * n + b * b - b - 2
                cons = book_family(n, s, b)
                qm = quotient(cons.graph, cons.parts())
                rho_q = quotient_rho(qm)
                bound = float(n - b - 1)
                margin = bound - rho_q
                report.add(
                    s, b, n, at_nb2, identity_ok, rho_q, bound, margin,
                    identity_ok and margin > STRICT_MARGIN,
                )
    return report


def grid_gna_no_factor() -> GridReport:
    """The extremal family always produces the eta = -2, q = 2 witness
    (a = 2..5, b = a + 2, n <= 40), and both deciders agree it has no parity
    factor up to n = 14."""
    report = GridReport(
        suite="lemma2.8",
        columns=("a", "b", "n", "eta", "q", "criterion_no_factor", "search_no_factor", "pass"),
    )
    for a in range(2, 6):
        b = a + 2
        params = ParityParams(a, b)
        for n in range(2 * a + 4, 41):
            if not params.admits(n):
                continue
            cons = g_na(n, a)
            w = criterion_witness(cons.graph, 0, cons.blocks["indep"], params)
            ok = w.eta == -2 and w.q == 2
            c_no = s_no = ""
            if n <= 14:
                cv = criterion_scan(cons.graph, [params])[0]
                sv = decide_by_search(cons.graph, params, force=True)
                c_no, s_no = not cv.exists, not sv.exists
                ok = ok and c_no and s_no
            report.add(a, b, n, w.eta, w.q, c_no, s_no, ok)
    return report


def grid_parity_evenness(trials: int = 100_000, seed: int = 0) -> GridReport:
    """Seeded random (G, S, T, a, b) instances: eta must always be even."""
    report = GridReport(
        suite="eq1", columns=("block", "trials", "odd_count", "pass")
    )
    as_count(trials, "trials")
    pairs = [ParityParams(a, b) for a, b in ((1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5), (2, 6), (4, 6))]
    done = 0
    block_idx = 0
    while done < trials:
        todo = min(EQ1_BLOCK, trials - done)
        odd = 0
        rng = random.Random(f"{seed}:eq1:{block_idx}")
        for _ in range(todo):
            n = rng.randrange(4, 13)
            g = _gnp(n, rng.choice(P_GRID), rng)
            params = rng.choice([p for p in pairs if p.admits(n)])
            s_mask = t_mask = 0
            for v in range(n):
                lot = rng.randrange(3)
                if lot == 0:
                    s_mask |= 1 << v
                elif lot == 1:
                    t_mask |= 1 << v
            if eta(g, s_mask, t_mask, params) % 2 != 0:
                odd += 1
        report.add(block_idx, todo, odd, odd == 0)
        done += todo
        block_idx += 1
    return report

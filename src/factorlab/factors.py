"""Parity [a,b]-factor existence decided three independent ways.

``decide_by_criterion`` sweeps every assignment of vertices to (S, T,
neither) and evaluates the deficiency

    eta(S,T) = b|S| - a|T| + sum_{x in T} d_{G-S}(x) - q(S,T),

where q(S,T) counts components Q of G-S-T with a|V(Q)| + e(Q,T) odd.  The
graph has a parity [a,b]-factor iff eta is nonnegative for every disjoint
pair; a violating pair (eta <= -2) is returned as a machine-checkable
witness.  ``decide_by_search`` instead backtracks over edge subsets with
degree-feasibility pruning and returns an explicit certificate when a
factor exists.  Both are exponential.  On up to ``CRITERION_EXACT_LIMIT``
vertices the sweep bounds eta on all 3^n assignments at once in numpy,
evaluates it exactly on the few the bound leaves, and searches for T only
where a violation is known to lie, so a pair with a factor searches none;
above it a lower bound that counts the edges inside T through a clique
cover of G picks where to search.  ``search_scan`` builds the search's
edge order once for several pairs.
``decide_by_matching`` is polynomial: a parity factor is a general factor
whose allowed degrees have gaps of one, so it exists iff the parity gadget
(Cornuejols, "General factors of graphs", 1988) has a perfect matching,
which the blossom matcher of ``matching`` decides; a factor comes back as a
re-checked certificate, no factor without a witness.  The three routes
share nothing beyond the graph type, so they cross-validate each other.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import or_

import numpy as np

from .errors import BadParamsError, FactorLabError, ParityPreconditionError, SizeLimitError
from .graph import Graph, VertexSet, as_ints, components, iter_bits, mask_of
from .matching import max_matching

CRITERION_VERTEX_LIMIT = 18
CRITERION_TABLE_LIMIT = 24  # force=True stops here: 2^n-entry tables, ~12 bytes each
CRITERION_EXACT_LIMIT = 10  # exact R filter from all 3^n (R, T) pairs up to here, the bound above
FOREST_BLOCK = 1 << 16  # masks per pass of _component_forest and _prefilter, a power of two: bounds the temporaries
STACK_CELLS = 1 << 17  # (R, T) cells per stack of prefetch_criterion, graphs times 3^n: bounds the temporaries
SEARCH_EDGE_LIMIT = 40

# (graph, pairs) -> (first, keep) rows, filled by prefetch_criterion and popped by criterion_scan
_PREFETCHED: dict[tuple[Graph, tuple[ParityParams, ...]], tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class ParityParams:
    """Degree window [a, b] with the parity-factor side conditions."""

    a: int
    b: int

    def __post_init__(self):
        as_ints((self.a, self.b), "a and b")
        if not 1 <= self.a <= self.b:
            raise ParityPreconditionError(f"need 1 <= a <= b, got a={self.a}, b={self.b}")
        if (self.a - self.b) % 2 != 0:
            raise ParityPreconditionError(f"need a == b (mod 2), got a={self.a}, b={self.b}")

    def admits(self, n: int) -> bool:
        """Whether an order n meets the side condition n*a even; a parity factor needs it."""
        return n * self.a % 2 == 0

    def validate_for(self, n: int) -> None:
        if not self.admits(n):
            raise ParityPreconditionError(f"n*a must be even, got n={n}, a={self.a}")


@dataclass(frozen=True)
class CriterionWitness:
    """A violating disjoint pair: a certificate that no parity factor exists."""

    s_set: int
    t_set: int
    eta: int
    q: int
    deg_sum: int


@dataclass(frozen=True)
class FactorCertificate:
    """An edge subset whose degrees prove factor existence."""

    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    exists: bool
    witness: CriterionWitness | None = None
    certificate: FactorCertificate | None = None


def _disjoint_masks(g: Graph, s: VertexSet, t: VertexSet) -> tuple[int, int]:
    s_mask, t_mask = mask_of(s), mask_of(t)
    if s_mask & t_mask:
        raise BadParamsError("S and T must be disjoint")
    if (s_mask | t_mask) & ~g.full_mask:
        raise BadParamsError("S or T references vertices outside the graph")
    return s_mask, t_mask


def _deficiency(g: Graph, s_mask: int, t_mask: int, a: int, b: int) -> tuple[int, int, int]:
    """(eta, q, deg_sum) of disjoint masks S, T: eta = b|S| - a|T| + deg_sum - q, with
    q the number of components C of G-S-T whose a|C| + e(C, T) is odd."""
    adj = g.adj
    deg_sum = sum((adj[x] & ~s_mask).bit_count() for x in iter_bits(t_mask))
    q = 0
    for comp in components(g, g.full_mask & ~s_mask & ~t_mask):
        q += (a * comp.bit_count() + sum((adj[v] & t_mask).bit_count() for v in iter_bits(comp))) & 1
    return b * s_mask.bit_count() - a * t_mask.bit_count() + deg_sum - q, q, deg_sum


def criterion_witness(g: Graph, s: VertexSet, t: VertexSet, params: ParityParams) -> CriterionWitness:
    """The pair (S,T) with its eta, q and deg_sum, checked as ``eta`` checks; it proves no factor iff eta <= -2."""
    params.validate_for(g.n)
    s_mask, t_mask = _disjoint_masks(g, s, t)
    return CriterionWitness(s_mask, t_mask, *_deficiency(g, s_mask, t_mask, params.a, params.b))


def verify_witness(g: Graph, w: CriterionWitness, params: ParityParams) -> bool:
    """True iff w's masks are disjoint inside V, ``criterion_witness`` gives w for them and eta <= -2."""
    try:
        return criterion_witness(g, w.s_set, w.t_set, params) == w and w.eta <= -2
    except BadParamsError:
        return False


def eta(g: Graph, s: VertexSet, t: VertexSet, params: ParityParams) -> int:
    """Deficiency b|S| - a|T| + sum_{x in T} d_{G-S}(x) - q(S,T); always even."""
    return criterion_witness(g, s, t, params).eta


def decide_by_criterion(g: Graph, params: ParityParams, force: bool = False) -> Verdict:
    """Exists iff eta(S,T) >= 0 for all disjoint S,T; else a witness.

    Exhaustive over all 3^n assignments with sound cuts only; the witness is
    the first violating (S,T) in the fixed order of ``criterion_scan``
    (R-ascending, DFS preorder of T), so reruns return the same one.
    """
    return criterion_scan(g, [params], force=force)[0]


def criterion_scan(g: Graph, params_list: list[ParityParams], force: bool = False) -> list[Verdict]:
    """Run ``decide_by_criterion`` for several parameter pairs in one sweep.

    With R the "neither" vertices and W = V - R, eta(S,T) = b|W| +
    sum_{x in T} (d_R(x) - a - b) + 2e(T) - q, q <= c(R) counting components
    of G[R].  ``_component_forest`` tabulates in numpy the components of
    every R.  Up to ``CRITERION_EXACT_LIMIT`` vertices ``_exact_keep`` keeps,
    per pair, exactly the R with a violating T inside W.  Both take a stack
    of graphs of one order: ``prefetch_criterion`` builds many graphs'
    tables at once, and a graph it did not prefetch gets a one-graph stack.
    Above the limit ``_prefilter`` keeps the R where a lower bound on eta
    over those T is <= -2: b|W| + sum_K sum_j min(0, v_j + 2j) - c(R) over
    the cliques K of a clique cover, v_0 <= v_1 <= ... the values d_R(x) - a
    - b on K & W, as the t vertices of T in K span t(t - 1)/2 edges.  A pair
    that keeps no R has a factor and is done.  The others walk their kept R
    in ascending order until each has a witness, which on the exact table
    is at its first kept R: one DFS per factor-free pair.  W is sorted by
    (d_R(x), x), the order of d_R(x) - a - b for every pair, so it and the
    component-parity bits are shared by the pairs, and ``_violating_t``
    walks the T inside W in DFS preorder.  A pair's witness is its first
    violating (S,T) in R-ascending, DFS-preorder-of-T order, as in a
    per-pair call.  Tables hold 2^n entries.
    """
    n = g.n
    for p in params_list:
        p.validate_for(n)
    if n > CRITERION_TABLE_LIMIT:
        raise SizeLimitError(f"criterion tables hold 2^n entries; n <= {CRITERION_TABLE_LIMIT} even with force")
    if n > CRITERION_VERTEX_LIMIT and not force:
        raise SizeLimitError(f"criterion decider capped at n <= {CRITERION_VERTEX_LIMIT}; pass force=True to override")
    adj = g.adj
    full = g.full_mask
    first, keep = _PREFETCHED.pop((g, tuple(params_list)), None) or next(_criterion_tables([g], n, params_list))
    verdicts = [Verdict(exists=True)] * len(params_list)
    # a pair that keeps no R has a factor; the R walk serves the others
    live = [i for i, row in enumerate(keep) if row.any()]
    wanted = [row.tobytes() for row in keep]
    first = memoryview(first)  # Python ints for the walk, without a copy
    for r_mask in np.flatnonzero(keep[live].any(axis=0)).tolist():
        todo = [i for i in live if wanted[i][r_mask]]
        if not todo:
            continue
        w_mask = full ^ r_mask
        # W ordered by (d_R(x), x) through one int key; x < 32 fits in 5 bits
        keys = sorted([(adj[x] & r_mask).bit_count() << 5 | x for x in range(n) if w_mask >> x & 1])
        xs = [k & 31 for k in keys]
        comps = []
        rest = r_mask
        while rest:
            comps.append(first[rest])
            rest ^= comps[-1]
        ps = [0] * len(xs)
        for k, comp in enumerate(comps):
            ps = [p | 1 << k if (adj[x] & comp).bit_count() & 1 else p for p, x in zip(ps, xs)]
        orsuf = list(accumulate(reversed(ps), or_, initial=0))[::-1]
        for i in todo:
            a, b = params_list[i].a, params_list[i].b
            vs = [(k >> 5) - a - b for k in keys]
            suffmin = list(accumulate(reversed([v if v < 0 else 0 for v in vs]), initial=0))[::-1]
            par0 = sum(1 << k for k, comp in enumerate(comps) if comp.bit_count() & 1) if a & 1 else 0
            t_mask = _violating_t(adj, xs, vs, ps, orsuf, suffmin, b * len(xs), par0)
            if t_mask is not None:
                verdicts[i] = Verdict(exists=False, witness=criterion_witness(g, w_mask ^ t_mask, t_mask, params_list[i]))
                live.remove(i)
        if not live:
            break
    return verdicts


@contextmanager
def prefetch_criterion(graphs: Sequence[Graph], params_list: Sequence[ParityParams]) -> Iterator[None]:
    """Within the ``with`` block, ``criterion_scan`` takes the tables of these graphs ready-made.

    For each order n up to ``CRITERION_EXACT_LIMIT``, the graphs' ``first``
    and ``keep`` tables for the pairs of params_list that admit n are built
    in stacks of at most ``STACK_CELLS`` (R, T) cells, one set of numpy
    operations per stack.  ``criterion_scan(g, pairs)`` with exactly those
    pairs, in that order, pops g's entry; any other call builds its own.
    Entering replaces the whole store and leaving empties it, so no table
    outlives the block.  The store is one per process: a nested or
    concurrent block costs rebuilds, never a wrong table, as an entry is
    keyed by the graph's value and its pairs.
    """
    _PREFETCHED.clear()
    try:
        for n in {g.n for g in graphs if g.n <= CRITERION_EXACT_LIMIT}:
            order = [g for g in graphs if g.n == n]
            pairs = tuple(p for p in params_list if p.admits(n))
            stack_size = max(1, STACK_CELLS // 3**n)
            for lo in range(0, len(order), stack_size):
                stack = order[lo : lo + stack_size]
                _PREFETCHED.update(zip(((g, pairs) for g in stack), _criterion_tables(stack, n, pairs)))
        yield
    finally:
        _PREFETCHED.clear()


def _criterion_tables(graphs: Sequence[Graph], n: int, params_list: Sequence[ParityParams]) -> Iterator[tuple]:
    """(first, keep) for each of the graphs, all of order n, in their order: keep is
    ``_exact_keep``'s up to ``CRITERION_EXACT_LIMIT`` and ``_prefilter``'s above it."""
    adjs = [g.adj for g in graphs]
    first, ncomp = _component_forest(adjs, n)
    if n <= CRITERION_EXACT_LIMIT:
        keep = _exact_keep(adjs, n, first, ncomp, params_list)
    else:
        keep = [_prefilter(adj, n, c, params_list) for adj, c in zip(adjs, ncomp)]
    return zip(first, keep)


def _component_forest(adjs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """first[k, R]: the component of R's lowest vertex v in G_k[R]; ncomp[k, R]: c(R).

    One row per adjacency list in adjs, every graph of order n.  first[k, R]
    grows from v by first |= nbr[first] & R (nbr[X]: the OR of adj over X)
    to its fixed point.  R's components are first[R], first[R ^ first[R]],
    ..., so c(R) passes of rest ^= first[rest] empty R.
    """
    size = 1 << n
    rows = np.array(adjs, dtype=np.uint32).reshape(len(adjs), n)
    nbr = np.zeros((len(adjs), size), dtype=np.uint32)
    for v in range(n):
        nbr[:, 1 << v : 2 << v] = nbr[:, : 1 << v] | rows[:, v : v + 1]
    first, ncomp = np.empty_like(nbr), np.zeros(nbr.shape, dtype=np.uint8)
    at = np.arange(0, nbr.size, size)[:, None]  # row k starts at k * 2^n in the flat tables
    flat_nbr, flat_first = nbr.ravel(), first.ravel()
    for lo in range(0, size, FOREST_BLOCK):
        r = np.arange(lo, min(size, lo + FOREST_BLOCK), dtype=np.uint32)
        comp = r & -r
        while ((grown := comp | flat_nbr[at + comp] & r) != comp).any():
            comp = grown
        first[:, lo : lo + len(r)] = comp
        rest = r
        while rest.any():  # rest <= R, so first[rest] is already filled in
            ncomp[:, lo : lo + len(r)] += rest != 0
            rest = rest ^ flat_first[at + rest]
    return first, ncomp


@cache
def _pair_masks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, T) for each of the 3^n pairs of disjoint masks on n vertices, and its cell |S|(n + 1) + |T|."""
    r = t = np.zeros(1, dtype=np.intp)
    for v in range(n):
        r, t = np.concatenate([r, r | 1 << v, r]), np.concatenate([t, t, t | 1 << v])
    cell = (n - np.bitwise_count(r | t)).astype(np.intp) * (n + 1) + np.bitwise_count(t)
    r.flags.writeable = t.flags.writeable = cell.flags.writeable = False  # cached: shared by every later call
    return r, t, cell


def _exact_keep(adjs, n: int, first: np.ndarray, ncomp: np.ndarray, params_list: list[ParityParams]) -> np.ndarray:
    """keep[k, i, R]: whether some T inside W = V - R has eta_i(W - T, T) <= -2 in G_k.

    One graph per adjacency list in adjs, with first and ncomp their
    ``_component_forest`` rows.  Over the 2^n masks, e[X] counts the edges
    inside X and odd[T] is the XOR of adj[x] over x in T: bit v of it is the
    parity of e(v, T).  These tables hold one column per graph, so a gather
    by mask moves whole rows.  For all 3^n disjoint (R, T) at once, eta
    without its -q term is noq = b|S| - a|T| + e[R | T] - e[R] + e[T]; its
    first two terms take one value per (|S|, |T|), read from an (n + 1)^2
    grid per pair through the cell of ``_pair_masks``.  As 0 <= q <= c(R),
    only the (R, T) with min_i noq_i - c(R) <= -2 can violate; the minimum
    over the pairs starts from n, which drops no candidate when there are
    no pairs, as the rest of noq - c(R) is >= -n.  On the candidates q counts
    the components C of G[R] (walked through ``first``) with |C & odd[T]|
    odd for even a, |C - odd[T]| odd for odd a.  Lowering a to n + 1 and b
    to (n + 1)^2 moves no comparison with -2, as q takes the parity of the
    pair's own a: an a >= n + 1 makes T = W violate for every R != V,
    whatever b; with |S| >= 1 and b >= (n + 1)^2 eta stays positive; the
    other pairs do not depend on b.
    """
    size = 1 << n
    r, t, cell = _pair_masks(n)
    cells = np.arange((n + 1) ** 2, dtype=np.int16)
    lo = np.array([min(p.a, n + 1) for p in params_list], dtype=np.int16)[:, None]
    hi = np.array([min(p.b, (n + 1) ** 2) for p in params_list], dtype=np.int16)[:, None]
    grid = hi * (cells // (n + 1)) - lo * (cells % (n + 1))  # grid[i, |S|(n + 1) + |T|] = b_i|S| - a_i|T|
    rows = np.array(adjs, dtype=np.intp).reshape(len(adjs), n)
    e = np.zeros((size, len(adjs)), dtype=np.int16)
    odd = np.zeros((size, len(adjs)), dtype=np.intp)
    half = 1
    for v in range(n):
        e[half : 2 * half] = e[:half] + np.bitwise_count(np.arange(half)[:, None] & rows[:, v])
        odd[half : 2 * half] = odd[:half] ^ rows[:, v]
        half *= 2
    # slack = noq - c(R) less its window terms: e[R | T] + e[T] - (e[R] + c(R))
    slack = e[r | t]
    slack += e[t]
    slack -= (e + ncomp.T)[r]
    cand, k = np.divmod(np.flatnonzero(slack <= (-2 - grid.min(axis=0, initial=n)).take(cell)[:, None]), len(adjs))
    r, odd_t, cell = r[cand], odd[t[cand], k], cell[cand]
    edges = slack[cand, k] + ncomp[k, r]  # e[R | T] - e[R] + e[T]
    # q[a & 1]: the C with |C & odd[T]| odd, or with |C - odd[T]| = |C| - |C & odd[T]| odd
    q = np.zeros((2, len(r)), dtype=np.int16)
    flat_first = first.ravel()
    rest = k * size + r  # (k, R) in the flat first: R is the low n bits, and first[k, 0] = 0
    while (comp := flat_first[rest]).any():
        inside = np.bitwise_count(comp & odd_t)
        q[0] += inside & 1
        q[1] += (inside ^ np.bitwise_count(comp)) & 1
        rest ^= comp
    keep = np.zeros((len(adjs), len(params_list), size), dtype=bool)
    for i, p in enumerate(params_list):
        hit = grid[i, cell] + edges - q[p.a & 1] <= -2
        keep[k[hit], i, r[hit]] = True
    return keep


def _clique_cover(adj, n: int) -> list[list[int]]:
    """Vertex-disjoint cliques covering V, found greedily.

    Each clique starts from the vertex with the most neighbours still
    uncovered and grows by the candidate with the most neighbours among the
    candidates, ties to the lowest vertex, until no common neighbour is left.
    """
    cover = []
    left = (1 << n) - 1
    while left:
        clique = []
        cand = left
        while cand:
            x = max(iter_bits(cand), key=lambda v: ((adj[v] & cand).bit_count(), -v))
            clique.append(x)
            cand &= adj[x]
        cover.append(clique)
        left ^= mask_of(clique)
    return cover


def _prefilter(adj, n: int, ncomp: np.ndarray, params_list: list[ParityParams]) -> np.ndarray:
    """keep[i, R]: whether a lower bound on eta_i over the T inside W = V - R is <= -2.

    eta(S,T) = b|W| + sum_{x in T} v(x) + 2e(T) - q, with v(x) = d_R(x) - a -
    b and q <= c(R).  Take vertex-disjoint cliques K covering V
    (``_clique_cover``) and t = |T & K|: the t(t - 1)/2 edges of K inside T
    give 2e(T) >= sum_K t(t - 1), and the t values v(x) on T & K are at
    least the t smallest on K & W, v_0 <= v_1 <= ....  As t(t - 1) =
    sum_{j<t} 2j, K adds at least min_t sum_{j<t} (v_j + 2j) = sum_j min(0,
    v_j + 2j), the terms increasing in j; a singleton adds min(0, v(x)).  So

        eta >= b|W| + sum_K sum_j min(0, v_j + 2j) - c(R).

    The bound is b|S| + ... minimised over T, so lowering b lowers it:
    clamping b to n drops no R.  For a >= n + 1, T = W alone gives at most
    |W||R| - a|W| + |W|(|W| - 1) = |W|(n - 1 - a) <= -2|W|, so a and n + 1
    both keep every R but V, and at R = V the bound is -c(V) for any pair.
    R is taken in aligned blocks of ``FOREST_BLOCK`` masks.  Per block, d
    has one row per vertex x, the cliques' rows contiguous: d_R(x), or
    ``past`` (above every a + b) where x is in R.  Each clique's rows are
    sorted in place once, as the order of v does not depend on the pair,
    and its row j gains 2j.  Then, pair by pair in falling a + b, d is
    clipped to a + b and sum_x min(d, a + b) - n(a + b) is the double sum.
    """
    bits = min(n, FOREST_BLOCK.bit_length() - 1)
    block = 1 << bits
    cover = _clique_cover(adj, n)
    order = [x for k in cover for x in k]  # d's rows: each clique is one slice
    row_of = {x: i for i, x in enumerate(order)}
    spans = [(end - len(k), end) for k, end in zip(cover, accumulate(map(len, cover))) if len(k) > 1]
    nbit = np.array([[adj[x] >> v & 1 for v in range(bits)] for x in order], dtype=np.uint8)
    clamped = [(min(p.a, n + 1), min(p.b, n)) for p in params_list]
    past = 2 * n + 2
    keep = np.empty((len(params_list), 1 << n), dtype=bool)
    d = np.empty((n, block), dtype=np.uint8)
    for start in range(0, 1 << n, block):
        # d[row_of[x], r] = d_R(x) for R = start + r (past for x in R), doubling over the bits of r
        d[:, 0] = [past if start >> x & 1 else (adj[x] & start).bit_count() for x in order]
        for v in range(bits):
            d[:, 1 << v : 2 << v] = d[:, : 1 << v] + nbit[:, v : v + 1]
            d[row_of[v], 1 << v : 2 << v] = past
        for lo_row, hi_row in spans:
            rows = d[lo_row:hi_row]
            k = hi_row - lo_row
            for rnd in range(k):  # odd-even transposition sort, in place
                lo, up = rows[rnd & 1 : k - 1 : 2], rows[(rnd & 1) + 1 : k : 2]
                low = np.minimum(lo, up)
                np.maximum(lo, up, out=up)
                lo[...] = low
            rows += np.arange(0, 2 * k, 2, dtype=np.uint8)[:, None]
        w = (n - start.bit_count() - np.bitwise_count(np.arange(block))).astype(np.int16)
        c = ncomp[start : start + block]
        for i in sorted(range(len(clamped)), key=lambda i: -sum(clamped[i])):
            a, b = clamped[i]
            np.minimum(d, a + b, out=d)
            keep[i, start : start + block] = b * w + d.sum(axis=0, dtype=np.int16) - n * (a + b) - c <= -2
    return keep


def _violating_t(adj, xs, vs, ps, orsuf, suffmin, acc0, par0):
    """First T (by DFS order) with eta <= -2; None when every T is clean.

    Walks subsets of the W vertices xs by always choosing the next included
    index; acc is eta without its -q term and par the component parity bits,
    so q = popcount(par).  Adding xs[k] flips ps[k], so past index j no bit
    outside par | orsuf[j] gets set: a branch is cut, missing no witness,
    when acc + suffmin[j] - popcount(par | orsuf[j]) > -2 (at j = len(xs),
    acc - popcount(par), which every visited T already exceeds).
    """
    if acc0 - par0.bit_count() <= -2:
        return 0
    # (next index j, t_mask, acc, par) of sibling loops still to resume
    stack = [(0, 0, acc0, par0)]
    while stack:
        j, t_mask, acc, par = stack.pop()
        while acc + suffmin[j] - (par | orsuf[j]).bit_count() <= -2:
            x = xs[j]
            t2 = t_mask | 1 << x
            acc2 = acc + vs[j] + 2 * (adj[x] & t_mask).bit_count()
            par2 = par ^ ps[j]
            if acc2 - par2.bit_count() <= -2:
                return t2
            j += 1
            # descend into t2 now; t_mask's siblings from j on come after it
            stack.append((j, t_mask, acc, par))
            t_mask, acc, par = t2, acc2, par2
    return None


def _parity_gadget(g: Graph, lo: int, hi: int) -> tuple[list[list[int]], int, list[tuple[int, int]]] | None:
    """G's parity gadget under the window [lo, hi]: its adjacency lists, the
    first outer vertex and G's edges; None when some d(v) < lo.

    A vertex v of degree d, with b' its largest allowed degree <= d, gets
    d - b' inner vertices joined to its d outer ones, and b' - lo more that
    are also joined to each other.  Edge i = (u, w) of G becomes outer
    vertices first + 2i (at u) and first + 2i + 1 (at w), joined.  A perfect
    matching pairs every inner vertex; b' - lo - k of the clique ones pair
    among themselves, an even number, so d - b' + k outer vertices of v go
    to inner ones and the edges whose two outer vertices are matched give v
    the degree b' - k, one of lo, lo + 2, ..., b'.  Inner vertices come
    first, so a greedy start gives each its first free outer vertex and then
    keeps the edges whose two outer vertices are both left.
    """
    edges = g.edges()
    degrees = g.degrees()
    if min(degrees, default=lo) < lo:  # the order-0 graph has no degrees and an empty factor
        return None
    first = sum(degrees) - lo * g.n
    ends: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, w) in enumerate(edges):
        ends[u].append(first + 2 * i)
        ends[w].append(first + 2 * i + 1)
    nbrs: list[list[int]] = []
    inner = []
    for v, d in enumerate(degrees):
        top = hi if d >= hi else d - (d - lo) % 2
        start = len(nbrs)
        clique = range(start + d - top, start + d - lo)
        nbrs += [ends[v]] * (d - top)  # shared: never mutated
        nbrs += [ends[v] + [y for y in clique if y != x] for x in clique]
        inner.append(range(start, clique.stop))
    for i, (u, w) in enumerate(edges):
        nbrs.append([first + 2 * i + 1, *inner[u]])
        nbrs.append([first + 2 * i, *inner[w]])
    return nbrs, first, edges


def decide_by_matching(g: Graph, params: ParityParams) -> Verdict:
    """Exists iff the parity gadget of G has a perfect matching.

    Polynomial, with no size cap: the gadget has O(sum of d(v)^2) edges and
    the blossom matcher runs in O(V^3) on it.  A factor is returned as the
    certificate the matching encodes, re-checked by ``verify_certificate``
    before it is returned; no factor comes without a witness.
    """
    params.validate_for(g.n)
    gadget = _parity_gadget(g, params.a, params.b)
    if gadget is None:
        return Verdict(exists=False)
    nbrs, first, edges = gadget
    mate = max_matching(nbrs)
    if -1 in mate:
        return Verdict(exists=False)
    chosen = tuple(e for i, e in enumerate(edges) if mate[first + 2 * i] == first + 2 * i + 1)
    degrees = [0] * g.n
    for u, w in chosen:
        degrees[u] += 1
        degrees[w] += 1
    cert = FactorCertificate(edges=chosen, degrees=tuple(degrees))
    if not verify_certificate(g, cert, params):
        raise FactorLabError("matching decider: the gadget's perfect matching gave an invalid certificate")
    return Verdict(exists=True, certificate=cert)


def decide_by_search(
    g: Graph, params: ParityParams, parity: bool = True, force: bool = False
) -> Verdict:
    """Backtracking over edge subsets with degree-feasibility pruning.

    With parity on, looks for a spanning subgraph with every degree in
    [a, b] and congruent to a mod 2; with parity off, a plain [a,b]-factor.
    Edges are processed in a fixed order that visits low-degree (most
    constrained) vertices first, include-branch first, so the certificate
    for a given graph is deterministic.
    """
    return search_scan(g, [params], parity=parity, force=force)[0]


def search_scan(
    g: Graph, params_list: list[ParityParams], parity: bool = True, force: bool = False
) -> list[Verdict]:
    """Run ``decide_by_search`` for several parameter pairs on one graph.

    The degrees and the edge order depend on the graph alone, so they are
    built once and shared by the pairs.
    """
    if parity:
        for p in params_list:
            p.validate_for(g.n)
    if g.m > SEARCH_EDGE_LIMIT and not force:
        raise SizeLimitError(f"search decider capped at m <= {SEARCH_EDGE_LIMIT} edges; pass force=True to override")
    degrees = g.degrees()
    rank = sorted(range(g.n), key=lambda v: (degrees[v], v))
    pos = [0] * g.n
    for i, v in enumerate(rank):
        pos[v] = i
    edge_list = sorted(g.edges(), key=lambda e: tuple(sorted((pos[e[0]], pos[e[1]]))))
    return [_search(edge_list, degrees, p.a, p.b, parity) for p in params_list]


def _search(edge_list: list[tuple[int, int]], degrees: list[int], a: int, b: int, parity: bool) -> Verdict:
    """The backtracking of ``decide_by_search`` over edges in the given order."""
    n = len(degrees)
    cur = [0] * n
    und = list(degrees)

    def feasible(v: int) -> bool:
        lo = cur[v] if cur[v] > a else a
        hi = cur[v] + und[v]
        if hi > b:
            hi = b
        if lo > hi:
            return False
        if parity and lo == hi and (lo - a) % 2 != 0:
            return False
        return True

    for v in range(n):
        if not feasible(v):
            return Verdict(exists=False)

    # chosen[i]: whether edge i is in the factor, for the edges decided so far; an
    # explicit stack clear of the recursion limit.  Both branches consume und.
    chosen: list[bool] = []
    i = 0
    while i < len(edge_list):
        u, v = edge_list[i]
        und[u] -= 1
        und[v] -= 1
        take = cur[u] < b and cur[v] < b
        if take:
            cur[u] += 1
            cur[v] += 1
            if not (feasible(u) and feasible(v)):
                cur[u] -= 1
                cur[v] -= 1
                take = False
        if take or (feasible(u) and feasible(v)):
            chosen.append(take)
            i += 1
            continue
        und[u] += 1
        und[v] += 1
        # backtrack to the deepest included edge that can be excluded instead
        while chosen:
            i -= 1
            u, v = edge_list[i]
            if chosen.pop():
                cur[u] -= 1
                cur[v] -= 1
                if feasible(u) and feasible(v):
                    chosen.append(False)
                    break
            und[u] += 1
            und[v] += 1
        else:
            return Verdict(exists=False)
        i += 1
    edges = tuple(sorted((u, v) if u < v else (v, u) for (u, v), c in zip(edge_list, chosen) if c))
    # cur now counts the chosen edges at each vertex: the factor's degrees
    return Verdict(exists=True, certificate=FactorCertificate(edges=edges, degrees=tuple(cur)))


def verify_certificate(
    g: Graph, cert: FactorCertificate, params: ParityParams, parity: bool = True
) -> bool:
    """True iff the certificate's edges lie in G and its degrees qualify."""
    degrees = [0] * g.n
    seen = set()
    for u, v in cert.edges:
        e = (u, v) if u < v else (v, u)
        if e in seen:
            return False
        seen.add(e)
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            return False
        degrees[u] += 1
        degrees[v] += 1
    if tuple(degrees) != cert.degrees:
        return False
    for d in degrees:
        if not params.a <= d <= params.b:
            return False
        if parity and (d - params.a) % 2 != 0:
            return False
    return True

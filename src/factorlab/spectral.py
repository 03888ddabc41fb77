"""Spectral radii, Perron vectors, equitable quotient matrices, and the
closed-form bounds used by the verification suites.

Every dense matrix comes from ``adjacency_matrix``, which unpacks the
bitmask rows in one call.  Power iteration runs on A + I so the spectrum is
shifted by +1: on bipartite graphs the dominant pair +/-rho would otherwise
oscillate and stall convergence.  On a component of order at most
``EIGH_MAX_N`` it starts from |v|, v the top eigenvector from LAPACK
(``np.linalg.eigh``); that start usually meets the residual test at once.
Larger components, and a LAPACK vector with a zero entry, start from the
uniform vector.  The crossover is measured: below it one ``eigh`` call costs
less than the tens of power steps it replaces; above it the cubic ``eigh``
loses.

Every quotient spectral radius is certified, and a quotient of more than
``MAX_QUOTIENT_CELLS`` = 8 cells is refused: a LAPACK eigenvalue brackets
the Perron root, a sign change of the integer characteristic polynomial
(Berkowitz) certifies the bracket, and bisection narrows it to adjacent
floats.  Every sign is exact and found in integers: a float x is a dyadic
rational num / 2^k, so p(x) 2^(k deg p) is an integer with the sign of p(x).
Bisecting blindly inside [min row sum, max row sum] would be unsound
because subdominant real eigenvalues may sit above the minimum row sum.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import sqrt, ulp
from numbers import Real
from operator import mul

import numpy as np

from .errors import BadParamsError, NotConvergedError, NotEquitableError
from .graph import MAX_VERTICES, Graph, VertexSet, as_count, as_ints, components, iter_bits, mask_of, vertices_of

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1_000_000
EIGH_MAX_N = 32  # largest component order started from the LAPACK Perron vector
STALL_STEPS = 100  # steps without a new least residual, with tol below the rounding floor, before giving up
MAX_QUOTIENT_CELLS = 8  # largest quotient whose Perron root quotient_rho certifies
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius estimate with its Perron vector and run metadata."""

    rho: float
    perron: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class QuotientMatrix:
    """Equitable quotient: the constant block row sums."""

    entries: tuple[tuple[int, ...], ...]


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix: rows packed to little-endian bytes, one unpack."""
    width = (g.n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in g.adj), dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(g.n, width), axis=1, count=g.n, bitorder="little")
    return bits.astype(float)


def _power_iteration(a: np.ndarray, tol: float, max_iter: int) -> tuple[float, np.ndarray, int, float]:
    n = a.shape[0]
    x = np.ones(n) / sqrt(n)
    if n <= EIGH_MAX_N:
        top = np.abs(np.linalg.eigh(a)[1][:, -1])
        if top.all():  # a zero entry would be returned as is if it met tol at once
            x = top
    best, best_at = float("inf"), 0
    for iteration in range(max_iter + 1):
        ax = a @ x
        rho = float(x @ ax)
        residual = float(np.max(np.abs(ax - rho * x)))
        if residual <= tol:
            return rho, x, iteration, residual
        if residual < best:
            best, best_at = residual, iteration
        elif iteration - best_at >= STALL_STEPS and tol < sqrt(n) * _EPS * (abs(rho) + 1):
            # rounding noise, not convergence, now sets the residual
            raise NotConvergedError(
                f"power iteration: residual {residual:.3e} > tol {tol:.3e}, below the rounding floor,"
                f" stopped improving after {iteration} iterations"
            )
        y = ax + x  # one (A + I) step
        x = y / np.linalg.norm(y)
    raise NotConvergedError(
        f"power iteration: residual {residual:.3e} > tol {tol:.3e} after {max_iter} iterations"
    )


def spectral_radius(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SpectralResult:
    """Largest adjacency eigenvalue via shifted power iteration.

    Each component of order at most ``EIGH_MAX_N`` starts from the absolute
    value of LAPACK's top eigenvector, larger ones (and a LAPACK vector with
    a zero entry) from the uniform vector.  Every result, whatever its start,
    meets the same test max|Ax - rho x| <= tol within ``max_iter`` steps, or
    ``NotConvergedError`` is raised: at the budget's end, or sooner when tol
    lies below the rounding floor estimate sqrt(n) eps (rho + 1) and the
    least residual has not improved for ``STALL_STEPS`` steps.  That estimate
    stays below ``DEFAULT_TOL`` for every order up to ``MAX_VERTICES``, so a
    run at the default tol or above never takes the early stop.
    ``iterations`` counts the (A + I) steps taken, summed over components; 0
    means the start vector itself met the test, so rho is its Rayleigh
    quotient.

    Disconnected input is handled per component (max taken); the Perron
    vector is then supported on the winning component only and the strict
    positivity guarantee is waived.
    """
    if g.n == 0:
        raise BadParamsError("spectral radius of the empty graph is undefined")
    max_iter = as_count(max_iter, "max_iter")
    if not (isinstance(tol, Real) and tol >= 0):  # also rejects NaN, which no residual can meet
        raise BadParamsError(f"tol must be a number at least 0, got {tol!r}")
    a = adjacency_matrix(g)
    comps = components(g)
    if len(comps) == 1:
        rho, x, iterations, residual = _power_iteration(a, tol, max_iter)
        return SpectralResult(rho=rho, perron=x, iterations=iterations, residual=residual)
    best = None
    total_iter = 0
    for comp in comps:
        verts = vertices_of(comp)
        rho, x, iterations, residual = _power_iteration(a[np.ix_(verts, verts)], tol, max_iter)
        total_iter += iterations
        if best is None or rho > best[0]:
            best = (rho, verts, x, residual)
    rho, verts, x, residual = best
    perron = np.zeros(g.n)
    perron[verts] = x
    return SpectralResult(rho=rho, perron=perron, iterations=total_iter, residual=residual)


def hong_nikiforov_bound(n: int, m: int, delta: int) -> float:
    """Degree/size upper bound (delta-1)/2 + sqrt(2m - n*delta + (delta+1)^2/4)."""
    n = as_count(n, "hong_nikiforov_bound's n", 2)  # 1 <= delta <= n-1
    delta = as_count(delta, "hong_nikiforov_bound's delta", 1, n - 1)
    m = as_count(m, "hong_nikiforov_bound's m", -(-n * delta // 2), n * (n - 1) // 2)  # n delta <= 2m <= n(n-1)
    return degree_size_curve(n, m, delta)


def _radicand(n: int, m: int, x: float) -> float:
    return 2 * m - n * x + (x + 1) ** 2 / 4.0


def degree_size_curve(n: int, m: int, x: float) -> float:
    """(x-1)/2 + sqrt(2m - n x + (x+1)^2/4), defined where the radicand is >= 0."""
    radicand = _radicand(n, m, x)
    if radicand < -1e-12:
        raise BadParamsError(f"negative radicand at x={x} for (n={n}, m={m})")
    return (x - 1) / 2.0 + sqrt(max(radicand, 0.0))


def f_monotone_check(n: int, m: int, x_grid: list[float]) -> bool:
    """True iff the degree/size curve is nonincreasing along the grid.

    Grid points where the radicand goes negative (possible for sparse graphs
    at large x) are outside the curve's domain and are skipped.
    """
    n, m = as_ints((n, m), "f_monotone_check's n and m")
    values = [degree_size_curve(n, m, x) for x in x_grid if _radicand(n, m, x) >= 0.0]
    return all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))


def equitable_partition(g: Graph) -> list[int]:
    """Coarsest equitable partition, as masks in order of their lowest vertex.

    Colour refinement: from one cell, each round splits every cell by
    neighbour counts in the round's cells, until nothing splits.  Every
    equitable partition refines every round, so the stable one is the
    coarsest (Godsil and Royle 2001, §9.3).  More than ``MAX_QUOTIENT_CELLS``
    cells raise ``BadParamsError`` in the round that makes them.
    """
    adj = g.adj
    cells = [g.full_mask]
    while True:
        refined = []
        for cell in cells:
            split = {}
            for v in iter_bits(cell):
                key = tuple((adj[v] & other).bit_count() for other in cells)
                split[key] = split.get(key, 0) | 1 << v
            refined += split.values()
            if len(refined) > MAX_QUOTIENT_CELLS:
                raise BadParamsError(f"the coarsest equitable partition has more than {MAX_QUOTIENT_CELLS} cells")
        if len(refined) == len(cells):
            return sorted(cells, key=lambda cell: cell & -cell)
        cells = refined


def quotient(g: Graph, parts: list[VertexSet]) -> QuotientMatrix:
    """Integer quotient matrix of an equitable partition.

    Each part's row is the neighbour counts of its first vertex u; the other
    vertices are checked in ascending order, and the first whose counts
    differ raises ``NotEquitableError`` naming it and the first part where
    its count differs.  A twin v of u, with N(v) = N(u) or N[v] = N[u], is not
    counted: with no loops and u, v in the same part, |N(v) & P| = |N(u) & P|
    for every part P.  Twins never differ, so skipping them leaves the
    witness that checking every vertex would give.
    """
    masks = [mask_of(p) for p in parts]
    union = 0
    for pm in masks:
        if pm == 0:
            raise BadParamsError("empty part")
        if union & pm:
            raise BadParamsError("parts overlap")
        union |= pm
    if union != g.full_mask:
        raise BadParamsError("parts do not cover V")
    adj = g.adj
    entries = []
    for pm in masks:
        u = (pm & -pm).bit_length() - 1
        open_u, closed_u = adj[u], adj[u] | 1 << u
        row = tuple((open_u & other).bit_count() for other in masks)
        rest = pm ^ 1 << u
        while rest:  # iter_bits inlined: ascending, without a generator
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if adj[v] == open_u or adj[v] | low == closed_u:
                continue  # a twin of u has u's row
            counts = tuple((adj[v] & other).bit_count() for other in masks)
            if counts != row:
                part = next(j for j in range(len(masks)) if counts[j] != row[j])
                raise NotEquitableError(v, part)
        entries.append(row)
    return QuotientMatrix(entries=tuple(entries))


def charpoly_coefficients(entries: tuple[tuple[int, ...], ...]) -> list[int]:
    """Coefficients of det(xI - M), highest power first, exact integers.

    Berkowitz's division-free recurrence: with M_k the leading k x k block,
    row r = M[k][:k], column c = M[:k][k], the polynomial of M_{k+1} is the
    lower-triangular Toeplitz matrix of (1, -M[k][k], -r c, -r M_k c, ...)
    times that of M_k.  O(k^4) integer operations.
    """
    poly = [1]
    for k, row in enumerate(entries):
        toeplitz = [1, -row[k]]
        vec = [entries[i][k] for i in range(k)]
        for _ in range(k):
            toeplitz.append(-sum(map(mul, row, vec)))  # map stops at len(vec) == k
            vec = [sum(map(mul, entries[i], vec)) for i in range(k)]
        poly = [sum(map(mul, toeplitz[i::-1], poly)) for i in range(k + 2)]
    return poly


def _eval_exact(coeffs: Sequence[int], x: float) -> int:
    """p(x) den^deg as an exact integer, x = num / den with den a power of two.

    ``coeffs`` run highest power first.  den > 0, so the result has the sign
    of p(x), and is p(x) for an int x.  x must be finite.
    """
    num, den = x.as_integer_ratio()
    acc, scale = 0, 1
    for c in coeffs:
        acc = acc * num + c * scale
        scale *= den
    return acc


def quotient_rho(q: QuotientMatrix) -> float:
    """Certified Perron root of a nonnegative quotient matrix.

    The entries must form a square matrix of neighbour counts with at most
    ``MAX_QUOTIENT_CELLS`` rows: each an ``int`` in 0..MAX_VERTICES-1, as
    ``quotient`` returns them; anything else raises ``BadParamsError``.
    Constant row sums give the root exactly.  Otherwise the largest real part
    among the LAPACK eigenvalues brackets it, within 16 ulps or else 1e-6; it is
    certified by a sign change of the exact characteristic polynomial and
    bisected to adjacent floats, returning the upper one (the root itself
    when it is a float).  Each sign is that of the integer ``_eval_exact``
    returns.  A Perron root of even multiplicity, as in a reducible quotient
    with two equal blocks, has no sign change and raises
    ``NotConvergedError``.
    """
    if not q.entries:
        raise BadParamsError("spectral radius of the empty graph is undefined")
    k = len(q.entries)
    if any(len(row) != k or any(type(v) is not int or not 0 <= v < MAX_VERTICES for v in row) for row in q.entries):
        raise BadParamsError(f"quotient entries must be a square matrix of ints in 0..{MAX_VERTICES - 1}")
    if k > MAX_QUOTIENT_CELLS:
        raise BadParamsError(f"quotient_rho certifies at most {MAX_QUOTIENT_CELLS} cells, got {k}")
    row_sums = {sum(row) for row in q.entries}
    if len(row_sums) == 1:
        return float(row_sums.pop())
    root = float(np.linalg.eigvals(np.array(q.entries, dtype=float)).real.max())
    coeffs = charpoly_coefficients(q.entries)
    # certify the bracket, strictly below/above a simple Perron root: 16 ulps
    # either side of LAPACK's root, or 1e-6 where that does not certify
    for width in (16 * ulp(root), 1e-6):
        left, right = root - width, root + width
        if _eval_exact(coeffs, left) < 0 < _eval_exact(coeffs, right):
            break
    else:
        raise NotConvergedError("characteristic polynomial bracket certification failed")
    while True:
        mid = (left + right) / 2.0
        if mid <= left or mid >= right:
            return right
        if _eval_exact(coeffs, mid) < 0:
            left = mid
        else:
            right = mid


def book_charpoly(n: int, s: int, b: int) -> tuple[tuple[int, int, int, int], int, int]:
    """Characteristic cubic of the 3-block quotient of ``book_family(n, s, b)``.

    Returns the coefficients (1, c2, c1, c0) and the cubic's exact values at
    n-b-1 and n-b-2, the two evaluation points the spectral bound argument needs.
    """
    n, s, b = as_ints((n, s, b), "book_charpoly's n, s and b")
    c2 = -(n - b - 3)
    c1 = -(n + b * s + s - b - 2)
    c0 = -b * b * s + b * n * s - b * s * s - 3 * b * s + n * s - s * s - 2 * s
    coeffs = (1, c2, c1, c0)
    return coeffs, _eval_exact(coeffs, n - b - 1), _eval_exact(coeffs, n - b - 2)


def edge_rotation(g: Graph, vi: int, vj: int, moved: VertexSet) -> Graph:
    """Detach the edges {vj,v : v in moved} and reattach them at vi.

    ``moved`` must be a nonempty subset of N(vj) - N(vi) avoiding vi, so the
    result stays simple.
    """
    vi, vj = as_ints((vi, vj), "vi and vj")
    if not (0 <= vi < g.n and 0 <= vj < g.n):
        raise BadParamsError(f"vi and vj must be vertices of the graph, got {vi} and {vj}")
    moved_mask = mask_of(moved)
    if moved_mask == 0:
        raise BadParamsError("moved set must be nonempty")
    if moved_mask >> vi & 1:
        raise BadParamsError("moved set must not contain vi")
    allowed = g.adj[vj] & ~g.adj[vi]
    if moved_mask & ~allowed:
        raise BadParamsError("moved set must lie in N(vj) - N(vi)")
    rows = list(g.adj)
    rows[vj] &= ~moved_mask
    rows[vi] |= moved_mask
    vi_bit, vj_bit = 1 << vi, 1 << vj
    for v in iter_bits(moved_mask):
        rows[v] = (rows[v] & ~vj_bit) | vi_bit
    return Graph(g.n, rows)

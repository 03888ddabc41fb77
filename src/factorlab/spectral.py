"""Spectral radii, Perron vectors, equitable quotient matrices, and the
closed-form bounds used by the verification suites.

Power iteration runs on A + I so the spectrum is shifted by +1: on bipartite
graphs the dominant pair +/-rho would otherwise oscillate and stall
convergence.  Quotient spectral radii for matrices up to 4x4 are isolated by
bisecting the exact integer characteristic polynomial, after a
Collatz-Wielandt bracket pins the root: bisecting blindly inside
[min row sum, max row sum] is unsound because subdominant real eigenvalues
may sit above the minimum row sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import sqrt

import numpy as np

from .errors import (
    BadParamsError,
    BadRotationError,
    NotAPartitionError,
    NotConvergedError,
)
from .graph import Graph, VertexSet, components, iter_bits, mask_of, vertices_of

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1_000_000


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius estimate with its Perron vector and run metadata."""

    rho: float
    perron: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class QuotientMatrix:
    """Equitable quotient: parts and the constant block row sums."""

    parts: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class NotEquitable:
    """Witness that a partition is not equitable: the offending pair."""

    vertex: int
    part: int


@dataclass(frozen=True)
class CubicPoly:
    """Monic integer cubic c[0] x^3 + c[1] x^2 + c[2] x + c[3]."""

    coeffs: tuple[int, int, int, int]

    def evaluate(self, x: int) -> int:
        c = self.coeffs
        return ((c[0] * x + c[1]) * x + c[2]) * x + c[3]


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for v in range(g.n):
        for u in iter_bits(g.adj[v]):
            a[v, u] = 1.0
    return a


def _power_iteration(a: np.ndarray, tol: float, max_iter: int) -> tuple[float, np.ndarray, int, float]:
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0]), np.ones(1), 0, 0.0
    x = np.ones(n) / sqrt(n)
    for iteration in range(max_iter + 1):
        ax = a @ x
        rho = float(x @ ax)
        residual = float(np.max(np.abs(ax - rho * x)))
        if residual <= tol:
            return rho, x, iteration, residual
        y = ax + x  # one (A + I) step
        x = y / np.linalg.norm(y)
    raise NotConvergedError(
        f"power iteration: residual {residual:.3e} > tol {tol:.3e} after {max_iter} iterations"
    )


def spectral_radius(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SpectralResult:
    """Largest adjacency eigenvalue via shifted power iteration.

    Disconnected input is handled per component (max taken); the Perron
    vector is then supported on the winning component only and the strict
    positivity guarantee is waived.
    """
    if g.n == 0:
        raise BadParamsError("spectral radius of the empty graph is undefined")
    comps = components(g)
    if len(comps) == 1:
        rho, x, iterations, residual = _power_iteration(adjacency_matrix(g), tol, max_iter)
        return SpectralResult(rho=rho, perron=x, iterations=iterations, residual=residual)
    best = None
    total_iter = 0
    for comp in comps:
        verts = vertices_of(comp)
        sub = np.zeros((len(verts), len(verts)))
        index = {v: i for i, v in enumerate(verts)}
        for v in verts:
            for u in iter_bits(g.adj[v] & comp):
                sub[index[v], index[u]] = 1.0
        rho, x, iterations, residual = _power_iteration(sub, tol, max_iter)
        total_iter += iterations
        if best is None or rho > best[0]:
            best = (rho, verts, x, residual)
    rho, verts, x, residual = best
    perron = np.zeros(g.n)
    for i, v in enumerate(verts):
        perron[v] = x[i]
    return SpectralResult(rho=rho, perron=perron, iterations=total_iter, residual=residual)


def hong_nikiforov_bound(n: int, m: int, delta: int) -> float:
    """Degree/size upper bound (delta-1)/2 + sqrt(2m - n*delta + (delta+1)^2/4)."""
    if delta < 1:
        raise BadParamsError(f"bound needs minimum degree >= 1, got {delta}")
    if not n * delta <= 2 * m <= n * (n - 1):
        raise BadParamsError(f"inconsistent (n={n}, m={m}, delta={delta})")
    radicand = 2 * m - n * delta + (delta + 1) ** 2 / 4.0
    return (delta - 1) / 2.0 + sqrt(radicand)


def degree_size_curve(n: int, m: int, x: float) -> float:
    """(x-1)/2 + sqrt(2m - n x + (x+1)^2/4), defined where the radicand is >= 0."""
    radicand = 2 * m - n * x + (x + 1) ** 2 / 4.0
    if radicand < -1e-12:
        raise BadParamsError(f"negative radicand at x={x} for (n={n}, m={m})")
    return (x - 1) / 2.0 + sqrt(max(radicand, 0.0))


def f_monotone_check(n: int, m: int, x_grid: list[float]) -> bool:
    """True iff the degree/size curve is nonincreasing along the grid.

    Grid points where the radicand goes negative (possible for sparse graphs
    at large x) are outside the curve's domain and are skipped.
    """
    values = [
        degree_size_curve(n, m, x)
        for x in x_grid
        if 2 * m - n * x + (x + 1) ** 2 / 4.0 >= 0.0
    ]
    return all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))


def quotient(g: Graph, parts: list[VertexSet]) -> QuotientMatrix | NotEquitable:
    """Integer quotient matrix of an equitable partition, else the offending pair."""
    masks = [mask_of(p) for p in parts]
    union = 0
    for pm in masks:
        if pm == 0:
            raise NotAPartitionError("empty part")
        if union & pm:
            raise NotAPartitionError("parts overlap")
        union |= pm
    if union != g.full_mask:
        raise NotAPartitionError("parts do not cover V")
    entries = []
    for pm in masks:
        row = None
        for v in iter_bits(pm):
            counts = tuple((g.adj[v] & other).bit_count() for other in masks)
            if row is None:
                row = counts
            elif counts != row:
                part = next(j for j in range(len(masks)) if counts[j] != row[j])
                return NotEquitable(vertex=v, part=part)
        entries.append(row)
    return QuotientMatrix(parts=tuple(masks), entries=tuple(entries))


def _principal_minor_sum(entries: tuple[tuple[int, ...], ...], k: int) -> int:
    """Sum of k x k principal minors, exact integer arithmetic."""
    size = len(entries)
    total = 0
    for rows in combinations(range(size), k):
        det = 0
        for perm in permutations(range(k)):
            inversions = sum(
                1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j]
            )
            prod = 1
            for i in range(k):
                prod *= entries[rows[i]][rows[perm[i]]]
            det += -prod if inversions % 2 else prod
        total += det
    return total


def charpoly_coefficients(entries: tuple[tuple[int, ...], ...]) -> list[int]:
    """Coefficients of det(xI - M), highest power first, exact integers."""
    size = len(entries)
    return [(-1) ** k * _principal_minor_sum(entries, k) for k in range(size + 1)]


def _eval_exact(coeffs: list[int], x: float) -> Fraction:
    acc = Fraction(0)
    fx = Fraction(x)
    for c in coeffs:
        acc = acc * fx + c
    return acc


def quotient_rho(q: QuotientMatrix, tol: float = 1e-12) -> float:
    """Perron root of a nonnegative irreducible quotient matrix.

    A Collatz-Wielandt bracket from shifted power iteration localizes the
    root, then exact bisection of the integer characteristic polynomial
    sharpens it to ``tol``.
    """
    size = len(q.entries)
    row_sums = [sum(row) for row in q.entries]
    if size == 1:
        return float(q.entries[0][0])
    if min(row_sums) == max(row_sums):
        return float(row_sums[0])
    m = np.array(q.entries, dtype=float)
    x = np.ones(size)
    bracket_goal = 1e-6 if size <= 8 else tol
    lo = hi = None
    for _ in range(1_000_000):
        y = m @ x + x
        ratios = y / x
        lo, hi = float(ratios.min()) - 1.0, float(ratios.max()) - 1.0
        if hi - lo <= bracket_goal:
            break
        x = y / np.linalg.norm(y)
    else:
        raise NotConvergedError("Collatz-Wielandt bracket did not tighten")
    if size > 8:
        # exact charpoly bisection is only worthwhile for small matrices
        return (lo + hi) / 2.0
    coeffs = charpoly_coefficients(q.entries)
    left, right = lo - 1e-6, hi + 1e-6
    # certify the bracket: strictly below/above the (simple) Perron root
    if not (_eval_exact(coeffs, left) < 0 < _eval_exact(coeffs, right)):
        raise NotConvergedError("characteristic polynomial bracket certification failed")
    while right - left > tol:
        mid = (left + right) / 2.0
        if mid <= left or mid >= right:
            break
        if _eval_exact(coeffs, mid) < 0:
            left = mid
        else:
            right = mid
    return (left + right) / 2.0


def book_charpoly(n: int, s: int, b: int) -> tuple[CubicPoly, int, int]:
    """Characteristic cubic of the 3-block quotient of ``book_family(n, s, b)``.

    Returns the polynomial together with its exact values at n-b-1 and
    n-b-2, the two evaluation points the spectral bound argument needs.
    """
    c2 = -(n - b - 3)
    c1 = -(n + b * s + s - b - 2)
    c0 = -b * b * s + b * n * s - b * s * s - 3 * b * s + n * s - s * s - 2 * s
    poly = CubicPoly((1, c2, c1, c0))
    return poly, poly.evaluate(n - b - 1), poly.evaluate(n - b - 2)


def edge_rotation(g: Graph, vi: int, vj: int, moved: VertexSet) -> Graph:
    """Detach the edges {vj,v : v in moved} and reattach them at vi.

    ``moved`` must be a nonempty subset of N(vj) - N(vi) avoiding vi, so the
    result stays simple.
    """
    moved_mask = mask_of(moved)
    if moved_mask == 0:
        raise BadRotationError("moved set must be nonempty")
    if moved_mask >> vi & 1:
        raise BadRotationError("moved set must not contain vi")
    allowed = g.adj[vj] & ~g.adj[vi]
    if moved_mask & ~allowed:
        raise BadRotationError("moved set must lie in N(vj) - N(vi)")
    rows = list(g.adj)
    rows[vj] &= ~moved_mask
    rows[vi] |= moved_mask
    vi_bit, vj_bit = 1 << vi, 1 << vj
    for v in iter_bits(moved_mask):
        rows[v] = (rows[v] & ~vj_bit) | vi_bit
    return Graph(g.n, rows)

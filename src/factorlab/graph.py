"""Immutable simple graphs on vertices 0..n-1 with bitmask adjacency rows.

Vertex sets are plain Python ints used as bitmasks.  ``mask_of`` /
``vertices_of`` convert between masks and iterables of labels; every public
operation accepts either form for its set arguments.
"""

from __future__ import annotations

from numbers import Integral
from operator import index
from typing import Iterable, Iterator

from .errors import BadParamsError

MAX_VERTICES = 4096

VertexSet = int | Iterable[int]


def mask_of(vertices: VertexSet) -> int:
    """Bitmask for an iterable of vertex labels (idempotent on integer masks); refuses negative or non-integer ones."""
    if isinstance(vertices, (int, Integral)):  # int first: the ABC check is ~25x slower
        if vertices < 0:
            raise BadParamsError(f"vertex mask {vertices} is negative")
        return index(vertices)
    m = 0
    for v in vertices if isinstance(vertices, Iterable) else (vertices,):  # a float or None: one bad label
        if not isinstance(v, (int, Integral)) or v < 0:
            raise BadParamsError(f"vertex label {v!r} is not a nonnegative integer")
        m |= 1 << index(v)  # a numpy integer as a Python int: no int64 overflow
    return m


def as_ints(values: Iterable, what: str) -> list[int]:
    """``values`` as Python ints, numpy integers too (a numpy shift overflows past bit 63); a bool or any other value raises BadParamsError."""
    try:
        values = tuple(values)
        if not any(isinstance(v, bool) for v in values):  # index(True) is 1
            return [index(v) for v in values]
    except TypeError:  # not iterable, or an entry that is no integer
        pass
    raise BadParamsError(f"{what} must be integers, got {values!r}")


def as_count(value: int, what: str, least: int = 0, most: int | None = None) -> int:
    """A count or order as a Python int, checked before any work: a bool, a non-integer
    or a value outside least..most (no upper end when most is None) raises BadParamsError."""
    try:
        count = index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):  # index(True) is 1
        raise BadParamsError(f"{what} must be an integer, got {value!r}")
    if count < least or most is not None and count > most:
        bound = f"at least {least}" if most is None else f"in {least}..{most}"
        raise BadParamsError(f"{what} must be {bound}, got {count}")
    return count


def vertices_of(vertices: VertexSet) -> list[int]:
    """Sorted vertex labels of a vertex set, read through ``mask_of``."""
    return list(iter_bits(mask_of(vertices)))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected simple graph; ``adj[v]`` is the neighbor bitmask of v.

    Instances are immutable after construction and safe to share across
    threads; all edits go through builder functions returning new graphs.
    """

    __slots__ = ("n", "adj", "m")

    def __init__(self, n: int, adj: Iterable[int]):
        rows = tuple(adj)
        if n < 0 or n > MAX_VERTICES:
            raise BadParamsError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")
        if len(rows) != n:
            raise BadParamsError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise BadParamsError(f"adjacency row {v} references vertices >= {n}")
            if row >> v & 1:
                raise BadParamsError(f"self-loop at vertex {v}")
        # past __setattr__, whose hasattr would fail with an exception three times
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", rows)
        object.__setattr__(self, "m", sum(map(int.bit_count, rows)) // 2)

    def __setattr__(self, name, value):
        if hasattr(self, "m") and name in self.__slots__:
            raise AttributeError("Graph is immutable")
        super().__setattr__(name, value)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographic order."""
        out = []
        for u in range(self.n):
            upper = self.adj[u] >> (u + 1)
            for w in iter_bits(upper):
                out.append((u, u + 1 + w))
        return out


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; rejects loops and out-of-range labels."""
    n = as_count(n, "vertex count", most=MAX_VERTICES)
    rows = [0] * n
    for edge in edges:
        try:
            u, v = map(index, edge)  # numpy labels as Python ints, as in mask_of
        except (TypeError, ValueError):
            raise BadParamsError(f"edge {edge!r} is not a pair of integer labels") from None
        if u == v:
            raise BadParamsError(f"self-loop ({u},{v})")
        if not (0 <= u < n and 0 <= v < n):
            raise BadParamsError(f"edge ({u},{v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def complete(n: int) -> Graph:
    """K_n.  Raises BadParamsError for n < 1."""
    n = as_count(n, "vertex count", 1, MAX_VERTICES)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle(n: int) -> Graph:
    """C_n for n >= 3."""
    n = as_count(n, "vertex count", 3, MAX_VERTICES)
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    """P_n."""
    n = as_count(n, "vertex count", 1, MAX_VERTICES)
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def star(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 joined to all others."""
    n = as_count(n, "vertex count", 1, MAX_VERTICES)
    return from_edges(n, [(0, v) for v in range(1, n)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """G1 + G2 with G2's labels shifted by n1."""
    n1 = g1.n
    rows = list(g1.adj) + [row << n1 for row in g2.adj]
    return Graph(n1 + g2.n, rows)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two vertex sets."""
    n1, n2 = g1.n, g2.n
    mask1 = (1 << n1) - 1
    mask2 = ((1 << n2) - 1) << n1
    rows = [row | mask2 for row in g1.adj] + [(row << n1) | mask1 for row in g2.adj]
    return Graph(n1 + n2, rows)


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)))


def delete_set(g: Graph, drop: VertexSet) -> tuple[Graph, list[int]]:
    """Induced subgraph on V - drop plus the label map new_index -> old_label."""
    drop_mask = mask_of(drop)
    if drop_mask & ~g.full_mask:
        raise BadParamsError("deleted set references vertices outside the graph")
    keep = [v for v in range(g.n) if not drop_mask >> v & 1]
    index_of = {old: new for new, old in enumerate(keep)}
    rows = []
    for old in keep:
        row = 0
        for u in iter_bits(g.adj[old] & ~drop_mask):
            row |= 1 << index_of[u]
        rows.append(row)
    return Graph(len(keep), rows), keep


def components(g: Graph, within: VertexSet | None = None) -> list[int]:
    """Connected-component masks (of the induced subgraph when ``within`` given).

    Parts are reported in order of their lowest vertex.
    """
    sub = g.full_mask if within is None else mask_of(within)
    if sub & ~g.full_mask:
        raise BadParamsError("component set references vertices outside the graph")
    adj = g.adj
    out = []
    rem = sub
    while rem:
        seed = rem & -rem
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= adj[v]
            grow &= sub & ~comp
            comp |= grow
            frontier = grow
        out.append(comp)
        rem &= ~comp
    return out


def edges_between(g: Graph, s: VertexSet, t: VertexSet) -> int:
    """Number of edges with one end in s and the other in t (disjoint sets)."""
    s_mask, t_mask = mask_of(s), mask_of(t)
    if s_mask & t_mask:
        raise BadParamsError("edges_between requires disjoint sets")
    if (s_mask | t_mask) & ~g.full_mask:
        raise BadParamsError("edges_between set references vertices outside the graph")
    if s_mask.bit_count() > t_mask.bit_count():
        s_mask, t_mask = t_mask, s_mask
    return sum((g.adj[v] & t_mask).bit_count() for v in iter_bits(s_mask))


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise BadParamsError("min_degree of the empty graph is undefined")
    return min(g.degrees())


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        raise BadParamsError("connectivity of the empty graph is undefined")
    return len(components(g)) == 1


def relabel(g: Graph, new_of_old: list[int]) -> Graph:
    """Apply a permutation: vertex v of g becomes new_of_old[v]."""
    perm = as_ints(new_of_old, "relabel map entries")
    if sorted(perm) != list(range(g.n)):
        raise BadParamsError("relabel map is not a permutation")
    rows = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in iter_bits(g.adj[v]):
            row |= 1 << perm[u]
        rows[perm[v]] = row
    return Graph(g.n, rows)

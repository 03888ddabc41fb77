"""Constructors for the extremal graph families under study.

Each family is a join K_s v (K_c1 + ... + K_cq), to which g_na adds a vertex;
``clique_join`` is the one builder of that shape, and each constructor
builds one ``Graph`` from its rows.  Every constructor returns a
``LabeledConstruction``: the graph plus named vertex blocks (as bitmasks)
in a fixed labeling order, so tests and verification runs can address
specific blocks deterministically.  Theorem hypotheses that are
deliberately not enforced (so small-n probing stays possible) are recorded
in the ``hypothesis`` field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadParamsError
from .graph import MAX_VERTICES, Graph, as_count, as_ints


@dataclass(frozen=True)
class LabeledConstruction:
    """A constructed graph with named blocks partitioning its vertices."""

    graph: Graph
    blocks: dict[str, int]
    params: dict[str, int]
    hypothesis: dict[str, int] = field(default_factory=dict)

    def parts(self) -> list[int]:
        """Block masks in declaration order (a partition of V)."""
        return list(self.blocks.values())


def _range_mask(start: int, size: int) -> int:
    return ((1 << size) - 1) << start


def clique_join(s: int, sizes: tuple[int, ...]) -> list[int]:
    """Adjacency rows of K_s joined to the disjoint union of K_c, c in sizes.

    Labels: K_s first, then each clique in order; a size-1 clique is an
    isolated vertex of the union.
    """
    s = as_count(s, "clique_join's s")
    sizes = as_ints(sizes, "clique_join's sizes")
    n = s + sum(sizes)
    if min(sizes, default=1) < 1 or n > MAX_VERTICES:
        raise BadParamsError(f"clique_join needs sizes >= 1, order <= {MAX_VERTICES}; got s={s}, order {n}")
    hub = (1 << s) - 1
    rows = [((1 << n) - 1) ^ (1 << v) for v in range(s)]
    for c in sizes:
        start = len(rows)
        block = hub | _range_mask(start, c)
        rows.extend(block ^ (1 << v) for v in range(start, start + c))
    return rows


def g_na(n: int, a: int) -> LabeledConstruction:
    """K_{a-1} joined to (K_{n-2a-1} + (a+1) isolated vertices), plus one
    extra vertex adjacent to exactly the a+1 independent vertices.

    Labels: small clique 0..a-2, big clique a-1..n-a-3, independent set
    n-a-2..n-2, added vertex n-1.
    """
    n = as_count(n, "g_na's n", 7, MAX_VERTICES)  # n first, then what n leaves, before any row is built
    a = as_count(a, "g_na's a", 2, (n - 3) // 2)
    rows = clique_join(a - 1, (n - 2 * a - 1,) + (1,) * (a + 1))
    indep = _range_mask(n - a - 2, a + 1)
    w_bit = 1 << (n - 1)
    for v in range(n - a - 2, n - 1):
        rows[v] |= w_bit
    graph = Graph(n, rows + [indep])
    blocks = {
        "clique_small": _range_mask(0, a - 1),
        "clique_big": _range_mask(a - 1, n - 2 * a - 1),
        "indep": indep,
        "w": w_bit,
    }
    return LabeledConstruction(graph, blocks, {"n": n, "a": a})


def book_family(n: int, s: int, b: int) -> LabeledConstruction:
    """K_s joined to (K_{n-b-s-1} + (b+1) isolated vertices).

    Labels: small clique 0..s-1, big clique s..n-b-2, independent set
    n-b-1..n-1.  The three blocks form an equitable partition.
    """
    n = as_count(n, "book_family's n", 4, MAX_VERTICES)  # n first, then what n leaves, before any row is built
    s = as_count(s, "book_family's s", 1, n - 3)
    b = as_count(b, "book_family's b", 1, n - s - 2)
    graph = Graph(n, clique_join(s, (n - b - s - 1,) + (1,) * (b + 1)))
    blocks = {
        "clique_small": _range_mask(0, s),
        "clique_big": _range_mask(s, n - b - s - 1),
        "indep": _range_mask(n - b - 1, b + 1),
    }
    hyp = {"n_min": max(2 * b, (b + 1) * s + 1), "b_min": 4}
    return LabeledConstruction(graph, blocks, {"n": n, "s": s, "b": b}, hyp)

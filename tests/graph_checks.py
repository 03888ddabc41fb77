"""A full-scan check of a graph's rows, shared by the builder tests."""

from factorlab import BadParamsError, Graph
from factorlab.graph import iter_bits


def validate(g: Graph) -> None:
    """Full-scan check of symmetry, loop-freeness, and edge-count cache; raises BadParamsError."""
    if len(g.adj) != g.n:
        raise BadParamsError(f"expected {g.n} adjacency rows, got {len(g.adj)}")
    for v in range(g.n):
        if g.adj[v] >> v & 1:
            raise BadParamsError(f"loop at {v}")
        for u in iter_bits(g.adj[v]):
            if not g.adj[u] >> v & 1:
                raise BadParamsError(f"asymmetric pair ({v},{u})")
    if 2 * g.m != sum(g.degrees()):
        raise BadParamsError(f"edge count {g.m} does not match the degree sum {sum(g.degrees())}")

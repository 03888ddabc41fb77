"""Maximum cardinality matching on general graphs: Edmonds' blossom algorithm.

``max_matching`` starts from a greedy matching (each vertex, in order, takes
its first free neighbor) and then grows one alternating tree per free vertex
(Edmonds, "Paths, trees, and flowers", 1965).  An edge between two even
vertices of the tree closes an odd cycle, a blossom, which is shrunk by
pointing every vertex in it at one base; an edge to a free vertex ends an
augmenting path, which is flipped.  A vertex from which no augmenting path
exists never gets one later, so one search per free vertex suffices:
O(V^3) in all, with each search touching only the vertices of its tree.

The matcher serves two callers: the oracle's perfect-matching check on a
graph itself, and ``factors.decide_by_matching`` on the parity gadget of a
graph.
"""

from __future__ import annotations

from .graph import Graph, vertices_of


def max_matching(nbrs: list[list[int]]) -> list[int]:
    """mate[v], v's partner in a maximum matching or -1, for adjacency lists nbrs."""
    n = len(nbrs)
    mate = [-1] * n
    for v in range(n):
        if mate[v] < 0:
            for u in nbrs[v]:
                if mate[u] < 0:
                    mate[v], mate[u] = u, v
                    break
    parent = [-1] * n
    base = list(range(n))
    even = [False] * n
    for root in range(n):
        if mate[root] < 0:
            tree = _augment(nbrs, mate, parent, base, even, root)
            for v in tree:  # reset only what the search touched
                parent[v], base[v], even[v] = -1, v, False
    return mate


def _augment(nbrs, mate, parent, base, even, root: int) -> list[int]:
    """Grow the alternating tree at root; flip the first augmenting path found.

    parent[v] is the tree edge into the odd vertex v (and, after a blossom
    shrinks, into former even ones), base[v] the base of v's blossom.
    Returns the tree's vertices so the caller can reset the shared arrays.
    """
    even[root] = True
    tree = [root]
    queue = [root]
    for v in queue:  # the queue grows while it is read
        for w in nbrs[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                # w is even: the edge vw closes a blossom
                top = _common_base(mate, parent, base, v, w)
                blossom: set[int] = set()
                _mark_path(mate, parent, base, blossom, v, top, w)
                _mark_path(mate, parent, base, blossom, w, top, v)
                for u in tree:
                    if base[u] in blossom:
                        base[u] = top
                        if not even[u]:
                            even[u] = True
                            queue.append(u)
            elif parent[w] < 0:
                parent[w] = v
                tree.append(w)
                if mate[w] < 0:
                    while w >= 0:  # flip the path root ... v w
                        v = parent[w]
                        nxt = mate[v]
                        mate[w], mate[v] = v, w
                        w = nxt
                    return tree
                tree.append(mate[w])
                even[mate[w]] = True
                queue.append(mate[w])
    return tree


def _common_base(mate, parent, base, v: int, w: int) -> int:
    """Base of the lowest common ancestor blossom of even vertices v and w."""
    path = set()
    while True:
        v = base[v]
        path.add(v)
        if mate[v] < 0:
            break  # the root
        v = parent[mate[v]]
    while base[w] not in path:
        w = parent[mate[base[w]]]
    return base[w]


def _mark_path(mate, parent, base, blossom: set, v: int, top: int, child: int) -> None:
    """Mark the blossoms from v up to base top, re-pointing parent edges at child."""
    while base[v] != top:
        blossom.add(base[v])
        blossom.add(base[mate[v]])
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and -1 not in max_matching([vertices_of(row) for row in g.adj])

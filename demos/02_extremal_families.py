#!/usr/bin/env python3
"""The two extremal families, G_{n,a} and the book family, and their structural fingerprints."""

from factorlab import book_family, g_na, min_degree, vertices_of

print("=== g_na(12, 2): the tight example for parity [a,b]-factors ===")
cons = g_na(12, 2)
g = cons.graph
print("order", g.n, "size", g.m, "min degree", min_degree(g))
for name, mask in cons.blocks.items():
    verts = vertices_of(mask)
    print(f"  block {name:13} vertices {verts} degrees {[g.degree(v) for v in verts]}")

print()
print("=== book_family(12, 1, 3): the a = 1 threshold graph ===")
cons = book_family(12, 1, 3)
g = cons.graph
print("hub degree", g.degree(0), "min degree", min_degree(g))
print("recorded hypothesis (not enforced):", cons.hypothesis)

print()
print("=== book_family(20, 2, 5): K_s v (K_{n-b-s-1} + (b+1) K_1) ===")
cons = book_family(20, 2, 5)
sizes = {name: mask.bit_count() for name, mask in cons.blocks.items()}
print("block sizes", sizes, "size", cons.graph.m)

#!/usr/bin/env python3
"""Spectral radii: power iteration, equitable quotients, and exact cubics."""

import math

from factorlab import (
    book_charpoly,
    book_family,
    complete,
    cycle,
    edge_rotation,
    g_na,
    hong_nikiforov_bound,
    path,
    quotient,
    quotient_rho,
    spectral_radius,
    star,
)

print("closed forms recovered by shifted power iteration:")
for name, g, expected in (
    ("K_9", complete(9), 8.0),
    ("C_12 (bipartite)", cycle(12), 2.0),
    ("K_{1,15}", star(16), math.sqrt(15)),
):
    r = spectral_radius(g)
    print(f"  {name:18} rho = {r.rho:.12f} (expected {expected:.12f}, "
          f"{r.iterations} iterations, residual {r.residual:.1e})")

print()
print("equitable quotient of book_family(30, 2, 5):")
cons = book_family(30, 2, 5)
qm = quotient(cons.graph, cons.parts())
for row in qm.entries:
    print("   ", row)
print("  quotient rho :", quotient_rho(qm))
print("  full-graph rho:", spectral_radius(cons.graph).rho)

coeffs, at_nb1, at_nb2 = book_charpoly(30, 2, 5)
print("  cubic coefficients:", coeffs)
print("  P(n-b-2) =", at_nb2, "= -(b+1)s^2 =", -(5 + 1) * 4)
print("  so the quotient radius stays below n-b-1 =", 30 - 5 - 1)

print()
print("the 4-block quotient of g_na(16, 3) shares the graph's radius:")
cons = g_na(16, 3)
qm = quotient(cons.graph, cons.parts())
print("  quotient:", quotient_rho(qm), " full:", spectral_radius(cons.graph).rho)

print()
print("degree/size bound on K_7:", hong_nikiforov_bound(7, 21, 6))

print()
print("re-hanging edges onto a high-Perron vertex raises the radius:")
g = path(6)
r = spectral_radius(g)
rotated = edge_rotation(g, 2, 5, {4})  # move edge (5,4) to (2,4)
print(f"  before {r.rho:.6f}  after {spectral_radius(rotated).rho:.6f}")

#!/usr/bin/env python3
"""Batch verification: oracle sweeps, bound grids, and a mini survey."""

from factorlab import (
    bundled_connected_graphs,
    grid_book_spectral_bound,
    grid_gna_no_factor,
    grid_parity_evenness,
    survey_theorem,
    sweep_oracle_equivalence,
)
from factorlab.harness import ORACLE_PAIRS

print("oracle sweep: all connected graphs on 5 vertices, six parameter pairs")
graphs = bundled_connected_graphs(5)
rep = sweep_oracle_equivalence(graphs, ORACLE_PAIRS)
print(f"  rows {len(rep.rows)}, disagreements {len(rep.failures())}")

print()
print("family grid: eta = -2 and q = 2 for every g_na instance, a = 2..5, n <= 40")
rep = grid_gna_no_factor()
print(f"  {len(rep.rows)} grid points, all pass: {rep.all_pass}")

print()
print("book bound grid, s = 1..5, b = 4..9, n <= 200: quotient radius < n - b - 1")
rep = grid_book_spectral_bound()
margins = [row[7] for row in rep.rows]
print(f"  {len(rep.rows)} points, min margin {min(margins):.4f}, all pass: {rep.all_pass}")

print()
print("parity invariant: eta is even on seeded random instances")
rep = grid_parity_evenness(trials=5000, seed=42)
print(f"  odd etas found: {sum(row[2] for row in rep.rows)} / 5000")

print()
print("mini survey at n = 12 (far below the theorem's order threshold)")
report = survey_theorem(n=12, a=2, b=4, samples=15, seed=3)
print(f"  rho of the extremal graph: {report.rho_extremal:.6f}")
print(f"  factor-free records: {len(report.factor_free)} (record 0 is the extremal graph)")
print(f"  exceptions above the threshold: {len(report.exceptions)}")
print()
print("first lines of the deterministic report:")
for line in report.to_csv().splitlines()[:12]:
    print("   ", line)

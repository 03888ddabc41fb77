#!/usr/bin/env python3
"""Decide parity [a,b]-factor existence three ways and inspect the evidence.

A parity [a,b]-factor is a spanning subgraph whose degrees all lie in [a,b]
and share a's parity.  The deficiency route proves non-existence with a
violating vertex-pair witness; the search route proves existence with an
explicit edge subset; the matching route decides a parity gadget in
polynomial time, far past the other two's size caps.
"""

from factorlab import (
    ParityParams,
    complete,
    cycle,
    decide_by_criterion,
    decide_by_matching,
    decide_by_search,
    eta,
    g_na,
    verify_certificate,
    vertices_of,
)

print("C_6 and a 2-factor: the cycle is its own certificate")
verdict = decide_by_search(cycle(6), ParityParams(2, 2))
print("  exists:", verdict.exists, "edges:", verdict.certificate.edges)
print("  certificate verifies:", verify_certificate(cycle(6), verdict.certificate, ParityParams(2, 2)))

print()
print("K_6 and parity [1,3]: odd-degree spanning subgraphs abound")
verdict = decide_by_search(complete(6), ParityParams(1, 3))
print("  exists:", verdict.exists, "degrees:", verdict.certificate.degrees)

print()
print("g_na(12, 2) and parity [2,4]: the construction is factor-free")
cons = g_na(12, 2)
params = ParityParams(2, 4)
print("  eta at the designed pair (S empty, T = indep block):",
      eta(cons.graph, 0, cons.blocks["indep"], params))
verdict = decide_by_criterion(cons.graph, params)
w = verdict.witness
print("  criterion verdict:", "exists" if verdict.exists else "no factor")
print(f"  witness: S={vertices_of(w.s_set)} T={vertices_of(w.t_set)} "
      f"eta={w.eta} q={w.q} deg_sum={w.deg_sum}")
search = decide_by_search(cons.graph, params)
print("  independent search agrees:", search.exists == verdict.exists)
print("  matching route agrees:", decide_by_matching(cons.graph, params).exists == verdict.exists)

print()
print("g_na(60, 2) and K_60: the matching route has no size cap")
print("  g_na(60, 2) exists:", decide_by_matching(g_na(60, 2).graph, params).exists)
verdict = decide_by_matching(complete(60), params)
print("  K_60 exists:", verdict.exists, "certificate degrees:", sorted(set(verdict.certificate.degrees)))

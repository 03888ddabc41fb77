#!/usr/bin/env python3
"""Full-corpus witness check for the criterion decider.

Runs ``criterion_scan`` over every bundled connected graph on n <= 8
vertices (12,113 graphs) with the six pairs of ``harness.ORACLE_PAIRS`` and
hashes one row per valid (graph, pair):

    graph6,a,b,exists,s_set,t_set,eta,q,deg_sum

(the witness fields are empty when a factor exists; pairs with n*a odd are
skipped, as the decider rejects them).  As in the oracle sweep, each
order's graphs go through ``prefetch_criterion`` in chunks of
``harness.SWEEP_CHUNK``, so the scan reads the stacked tables.  The
sha256 of those rows must equal ``PINNED``, recorded from the per-R
reference sweep the table-driven kernel replaced, so any change to a
verdict or to a witness's bytes shows here.
Every witness must also pass ``verify_witness``: its cells recomputed from
its (S, T), and eta <= -2.

Run from the repository root:  python scripts/check_witnesses.py
Prints the digest, the count of rejected witnesses and the elapsed time;
exits 0 on a match with none rejected and 1 otherwise.
"""

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factorlab import bundled_connected_graphs, criterion_scan, to_graph6, verify_witness  # noqa: E402
from factorlab.factors import prefetch_criterion  # noqa: E402
from factorlab.harness import ORACLE_PAIRS, SWEEP_CHUNK  # noqa: E402

PINNED = "ba39f9f9157a9957e6a3cc3a4cad9223a448b5efdeeea500f4b0adae89738ec1"


def corpus_digest() -> tuple[str, int]:
    """The sha256 of the rows, and how many witnesses ``verify_witness`` rejects."""
    h = hashlib.sha256()
    rejected = 0
    for n in range(1, 9):
        params = [p for p in ORACLE_PAIRS if p.admits(n)]
        graphs = bundled_connected_graphs(n)
        for lo in range(0, len(graphs), SWEEP_CHUNK):
            chunk = graphs[lo : lo + SWEEP_CHUNK]
            with prefetch_criterion(chunk, params):
                scans = [criterion_scan(g, params) for g in chunk]
            for g, verdicts in zip(chunk, scans):
                g6 = to_graph6(g)
                for p, v in zip(params, verdicts):
                    w = v.witness
                    cells = ("", "", "", "", "") if w is None else (w.s_set, w.t_set, w.eta, w.q, w.deg_sum)
                    h.update(",".join(map(str, (g6, p.a, p.b, int(v.exists), *cells))).encode() + b"\n")
                    if w is not None and not verify_witness(g, w, p):
                        rejected += 1
                        print(f"witness rejected: {g6} at (a, b) = ({p.a}, {p.b})")
    return h.hexdigest(), rejected


def main() -> int:
    start = time.perf_counter()
    digest, rejected = corpus_digest()
    elapsed = time.perf_counter() - start
    ok = digest == PINNED and rejected == 0
    print(f"digest {digest}")
    print(f"pinned {PINNED}")
    print(f"rejected witnesses {rejected}")
    print(f"{'match' if ok else 'MISMATCH'} in {elapsed:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

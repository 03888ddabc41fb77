"""Command-line entry point.

Machine-readable output (graph6, JSON, CSV) goes to stdout; prose goes to
stderr.  Exit codes: 0 success, 1 suite failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import FactorLabError, Graph6Error
from .factors import ParityParams, decide_by_criterion, decide_by_search
from .families import book_family, g_na, h_nab, odd_1b
from .graph import mask_of, vertices_of
from .graph6 import read_graph6, read_graph6_file, to_graph6
from .harness import GRIDS, bundled_connected_graphs, lemma_grid, survey_theorem, sweep_oracle_equivalence
from .spectral import NotEquitable, quotient, quotient_rho, spectral_radius

FAMILIES = {"g-na": g_na, "h-nab": h_nab, "odd-1b": odd_1b, "book": book_family}
SUITES = ("oracle", *GRIDS, "survey")


def _default_seed() -> int:
    return int(os.environ.get("FACTORLAB_SEED", "1"))


def _read_input_graphs(args) -> list:
    if getattr(args, "infile", None):
        graphs = read_graph6_file(args.infile)
    else:
        graphs = read_graph6(sys.stdin.read())
    if not graphs:
        raise Graph6Error("no graphs on input")
    return graphs


NEEDED = {"g-na": ("a",), "h-nab": ("a", "b"), "odd-1b": ("b",), "book": ("s", "b")}


def _cmd_construct(args) -> int:
    build = FAMILIES[args.family]
    kwargs = {"n": args.n}
    for name in NEEDED[args.family]:
        value = getattr(args, name)
        if value is None:
            print(f"construct {args.family} requires --{name}", file=sys.stderr)
            return 2
        kwargs[name] = value
    cons = build(**kwargs)
    sidecar = {
        "family": args.family,
        "params": cons.params,
        "n": cons.graph.n,
        "m": cons.graph.m,
        "blocks": {name: vertices_of(mask) for name, mask in cons.blocks.items()},
        "hypothesis": cons.hypothesis,
    }
    print(to_graph6(cons.graph))
    print(json.dumps(sidecar, sort_keys=True))
    print(f"constructed {args.family} on {cons.graph.n} vertices, {cons.graph.m} edges", file=sys.stderr)
    return 0


def _cmd_rho(args) -> int:
    graphs = _read_input_graphs(args)
    out = []
    for g in graphs:
        if args.quotient:
            with open(args.quotient, "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
            parts = [mask_of(v) for v in sidecar["blocks"].values()]
            qm = quotient(g, parts)
            if isinstance(qm, NotEquitable):
                print(
                    f"partition not equitable at vertex {qm.vertex}, part {qm.part}",
                    file=sys.stderr,
                )
                return 2
            out.append({"method": "quotient", "rho": quotient_rho(qm), "parts": len(parts)})
        else:
            r = spectral_radius(g, tol=args.tol, max_iter=args.max_iter)
            out.append(
                {"method": "power", "rho": r.rho, "iterations": r.iterations, "residual": r.residual}
            )
    for item in out:
        print(json.dumps(item, sort_keys=True))
    return 0


def _cmd_check(args) -> int:
    params = ParityParams(args.a, args.b)
    graphs = _read_input_graphs(args)
    for g in graphs:
        result: dict = {"n": g.n, "m": g.m, "a": args.a, "b": args.b}
        if args.method in ("criterion", "both"):
            v = decide_by_criterion(g, params, force=args.force)
            result["criterion"] = "exists" if v.exists else "no_factor"
            if v.witness is not None:
                w = v.witness
                result["witness"] = {
                    "S": vertices_of(w.s_set),
                    "T": vertices_of(w.t_set),
                    "eta": w.eta,
                    "q": w.q,
                    "deg_sum": w.deg_sum,
                }
        if args.method in ("search", "both"):
            v = decide_by_search(g, params, parity=not args.no_parity, force=args.force)
            result["search"] = "exists" if v.exists else "no_factor"
            if v.certificate is not None:
                result["certificate"] = {
                    "edges": [list(e) for e in v.certificate.edges],
                    "degrees": list(v.certificate.degrees),
                }
        if args.method == "both":
            result["agree"] = result["criterion"] == result["search"]
        print(json.dumps(result, sort_keys=True))
    return 0


def _run_suite(args):
    seed, samples, jobs = args.seed, args.samples, args.jobs
    if args.suite == "oracle":
        if args.corpus:
            graphs = read_graph6_file(args.corpus)
        else:
            graphs = [g for n in range(1, 9) for g in bundled_connected_graphs(n)]
        pairs = [ParityParams(*ab) for ab in ((1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5))]
        return sweep_oracle_equivalence(graphs, pairs, jobs=jobs)
    if args.suite == "survey":
        return survey_theorem(n=args.n, a=args.a, b=args.b, samples=samples or 100, seed=seed)
    count_arg = GRIDS[args.suite][1]
    if count_arg is None:
        return lemma_grid(args.suite)
    # without --samples the runner's own default count applies
    return lemma_grid(args.suite, seed=seed, **({count_arg: samples} if samples else {}))


def _cmd_verify(args) -> int:
    report = _run_suite(args)
    if args.suite == "survey":
        text = report.render()
        summary = {
            "suite": "survey",
            "n": report.n,
            "a": report.a,
            "b": report.b,
            "rho_extremal": report.rho_extremal,
            "factor_free": len(report.factor_free),
            "exceptions": [r.index for r in report.exceptions],
            "boundary": [r.index for r in report.boundary],
        }
        failed = False  # the survey reports findings; it never fails
    else:
        text = report.to_csv()
        failures = report.failures()
        summary = {
            "suite": args.suite,
            "rows": len(report.rows),
            "failures": len(failures),
            "all_pass": report.all_pass,
        }
        failed = not report.all_pass
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    print(json.dumps(summary, sort_keys=True))
    print(f"suite {args.suite}: {'FAIL' if failed else 'ok'}", file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="factorlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit an extremal-family graph as graph6 plus a JSON block sidecar")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--s", type=int)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("rho", help="spectral radius of graph6 input (stdin or --in)")
    p.add_argument("--in", dest="infile")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=1_000_000)
    p.add_argument("--quotient", help="JSON sidecar naming blocks; use its equitable quotient")
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("check-parity-factor", help="decide parity [a,b]-factor existence")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--method", choices=("criterion", "search", "both"), default="both")
    p.add_argument("--force", action="store_true", help="lift the soft size limits")
    p.add_argument("--no-parity", action="store_true", help="search for a plain [a,b]-factor")
    p.add_argument("--in", dest="infile")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="run a verification suite and write its report")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--out", help="write CSV report here instead of stdout")
    p.add_argument("--corpus", help="graph6 corpus file (oracle suite)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--n", type=int, default=12, help="survey order")
    p.add_argument("--a", type=int, default=2, help="survey lower bound")
    p.add_argument("--b", type=int, default=4, help="survey upper bound")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = _default_seed()
    try:
        return args.func(args)
    except Graph6Error as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FactorLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

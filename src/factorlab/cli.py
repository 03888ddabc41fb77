"""Command-line entry point.

Machine-readable output (graph6, JSON, CSV) goes to stdout; prose goes to
stderr.  Exit codes: 0 success, 1 suite failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from . import harness
from .errors import BadParamsError, FactorLabError, Graph6Error, ParityPreconditionError, SizeLimitError
from .factors import (
    ParityParams, decide_by_criterion, decide_by_matching, decide_by_search, verify_certificate, verify_witness,
)
from .families import book_family, g_na
from .graph import vertices_of
from .graph6 import read_graph6, read_graph6_file, to_graph6
from .spectral import equitable_partition, quotient, quotient_rho, spectral_radius

# family name -> (builder, the options it needs besides --n)
FAMILIES = {"g-na": (g_na, ("a",)), "book": (book_family, ("s", "b"))}


def _read_input_graphs(args) -> list:
    if getattr(args, "infile", None):
        graphs = read_graph6_file(args.infile)
    else:
        graphs = read_graph6(sys.stdin.read())
    if not graphs:
        raise Graph6Error("no graphs on input")
    return graphs


def _cmd_construct(args) -> int:
    build, needed = FAMILIES[args.family]
    kwargs = {"n": args.n}
    for name in needed:
        kwargs[name] = getattr(args, name)
        if kwargs[name] is None:
            raise BadParamsError(f"construct {args.family} requires --{name}")
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
    # --tol and --max-iter only when given, so that spectral_radius's own defaults are the only defaults
    solver = {name: value for name in ("tol", "max_iter") if (value := getattr(args, name)) is not None}
    if args.quotient and solver:
        raise BadParamsError("rho --quotient does not read --tol or --max-iter")
    out = []
    for g in _read_input_graphs(args):
        if args.quotient:
            parts = equitable_partition(g)
            out.append({"method": "quotient", "rho": quotient_rho(quotient(g, parts)), "parts": len(parts)})
        else:
            r = spectral_radius(g, **solver)
            out.append({"method": "power", "rho": r.rho, "iterations": r.iterations, "residual": r.residual})
    for item in out:
        print(json.dumps(item, sort_keys=True))
    return 0


# decider name -> its verdict on (graph, params, parsed arguments)
DECIDERS = {
    "criterion": lambda g, params, args: decide_by_criterion(g, params, force=args.force),
    "search": lambda g, params, args: decide_by_search(g, params, parity=not args.no_parity, force=args.force),
    "matching": lambda g, params, args: decide_by_matching(g, params),  # no size cap, so --force does not apply
}
# --method -> the deciders it runs, in order; "both" also reports whether they agree
METHODS = {"criterion": ("criterion",), "search": ("search",), "both": ("criterion", "search"), "matching": ("matching",)}


def _cmd_check(args) -> int:
    params = ParityParams(args.a, args.b)
    if args.no_parity and args.method != "search":
        raise BadParamsError("--no-parity needs --method search; the other methods decide parity factors only")
    code = 0
    for g in _read_input_graphs(args):
        result: dict = {"n": g.n, "m": g.m, "a": args.a, "b": args.b}
        try:
            verdicts = {name: DECIDERS[name](g, params, args) for name in METHODS[args.method]}
        except ParityPreconditionError:  # n*a odd: no parity factor at this order
            result["status"] = "skipped_parity"
        except SizeLimitError as exc:  # above a decider's soft cap: this graph is refused, the run goes on
            result["status"] = "size_limit"
            print(f"error: {exc}" + (" (CLI: --force)" if "force=True" in str(exc) else ""), file=sys.stderr)
            code = 2
        else:
            for name, v in verdicts.items():
                result[name] = "exists" if v.exists else "no_factor"
                if v.witness is not None:
                    w = v.witness
                    if not verify_witness(g, w, params):
                        raise FactorLabError(f"{name}: witness rejected by verify_witness on {to_graph6(g)}")
                    result["witness"] = {"S": vertices_of(w.s_set), "T": vertices_of(w.t_set),
                                         "eta": w.eta, "q": w.q, "deg_sum": w.deg_sum}
                if v.certificate is not None:
                    cert = v.certificate
                    if not verify_certificate(g, cert, params, parity=not args.no_parity):
                        raise FactorLabError(f"{name}: certificate rejected by verify_certificate on {to_graph6(g)}")
                    result["certificate"] = {"edges": [list(e) for e in cert.edges], "degrees": list(cert.degrees)}
            if args.method == "both":
                result["agree"] = result["criterion"] == result["search"]
        print(json.dumps(result, sort_keys=True))
    return code


def _oracle(args):
    if args.corpus:
        graphs = read_graph6_file(args.corpus)
    else:
        graphs = [g for n in range(1, 9) for g in harness.bundled_connected_graphs(n)]
    return harness.sweep_oracle_equivalence(graphs, harness.ORACLE_PAIRS, jobs=args.jobs)


def _count(args, keyword: str) -> dict:
    # --samples only when given, so that the runner's own default is the only default
    return {} if args.samples is None else {keyword: args.samples}


# suite name -> (runner of the parsed arguments, the options among --samples,
# --corpus and --jobs that it reads; it refuses the others); the fixed grids take no seed
SUITES = {
    "oracle": (_oracle, ("corpus", "jobs")),
    "lemma2.2": (lambda args: harness.grid_degree_size_bound(seed=args.seed, **_count(args, "samples")), ("samples",)),
    "lemma2.3": (lambda args: harness.grid_bound_monotonicity(seed=args.seed, **_count(args, "samples")), ("samples",)),
    "lemma2.6": (lambda args: harness.grid_clique_merge_dominance(), ()),
    "lemma2.7": (lambda args: harness.grid_book_spectral_bound(), ()),
    "lemma2.8": (lambda args: harness.grid_gna_no_factor(), ()),
    "eq1": (lambda args: harness.grid_parity_evenness(seed=args.seed, **_count(args, "trials")), ("samples",)),
    "survey": (
        lambda args: harness.survey_theorem(args.n, args.a, args.b, seed=args.seed, **_count(args, "samples")),
        ("samples",),
    ),
}


def _cmd_verify(args) -> int:
    for name in ("samples", "jobs"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise BadParamsError(f"--{name} must be at least 1, got {value}")
    runner, reads = SUITES[args.suite]
    for name, unset in (("samples", None), ("corpus", None), ("jobs", 1)):  # each with its value when not given
        if getattr(args, name) != unset and name not in reads:
            raise BadParamsError(f"suite {args.suite} does not read --{name}")
    # open --out before the run, so an unwritable path fails before minutes of work
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        report = runner(args)
        fh.write(report.to_csv())
    if args.out:
        print(f"report written to {args.out}", file=sys.stderr)
    print(json.dumps(report.summary(), sort_keys=True))
    print(f"suite {args.suite}: {'ok' if report.all_pass else 'FAIL'}", file=sys.stderr)
    return 0 if report.all_pass else 1


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
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--quotient", action="store_true", help="certified root of the coarsest equitable quotient")
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("check-parity-factor", help="decide parity [a,b]-factor existence")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument(
        "--method", choices=METHODS, default="both",
        help="both runs criterion and search; matching is the polynomial parity gadget",
    )
    p.add_argument("--force", action="store_true", help="lift the soft size limits of criterion and search")
    p.add_argument("--no-parity", action="store_true", help="search for a plain [a,b]-factor (--method search only)")
    p.add_argument("--in", dest="infile")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="run a verification suite and write its report")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--out", help="write CSV report here instead of stdout")
    p.add_argument("--corpus", help="graph6 corpus file (oracle suite)")
    p.add_argument("--seed", type=int, default=os.environ.get("FACTORLAB_SEED", "1"))
    p.add_argument("--samples", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--n", type=int, default=12, help="survey order")
    p.add_argument("--a", type=int, default=2, help="survey lower bound")
    p.add_argument("--b", type=int, default=4, help="survey upper bound")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head -1`): stop quietly too, and point
        # stdout at devnull so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except Graph6Error as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (FactorLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

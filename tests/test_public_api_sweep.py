"""One bad-input sweep over every public callable of factorlab.

Every public callable, taken from ``dir(factorlab)`` as the package has no
``__all__``, has a row in ``ROWS``: a builder of valid keyword arguments and
the names of its integer, count, order and vertex-set parameters, integer
sequences (``relabel``'s map, ``clique_join``'s sizes, a record's degrees)
included.  With all other arguments valid, each of those parameters in turn
takes every value of ``BAD``, and the call must return or raise a
``FactorLabError``: no other exception, no exhausted memory, no hang.
``samples``, ``trials`` and ``jobs`` have no upper bound, so the two large
values are valid there: a spy on the runner's first step of work
(``harness.Pool`` for ``jobs``) shows that they are accepted, and the work
never runs.  Each row is first called with its valid arguments, which must
be accepted, so that no refusal comes from a wrong valid argument.

Every public callable also needs a caller outside the tests: a name token
in the code of ``src/factorlab`` (``__init__.py`` aside), ``scripts/``,
``demos/`` or ``perfbench/``, other than the one its ``def`` or ``class``
line defines.

The whole table runs in one child process, this file run as a script, with
one BLAS thread, an address space capped at 1 GiB and an alarm on each call.
An order that slipped past its cap then fails the test instead of taking
the machine's memory.

Out of scope:
- a non-``Graph`` passed as a graph, which is a programming error;
- ``Graph.__init__``, the hot constructor, whose row loop stays free of
  per-row type checks (its order and row-count refusals have tests of their
  own);
- seeds, which only ever go into an f-string, so that any value is a seed;
- ``from_graph6`` given a non-string, which is a programming error;
- containers of other things, such as edge lists, partitions, graph lists
  and lists of parameter pairs: their entries are checked where they are
  read, and a scalar in place of the container is a programming error.
"""

import json
import os
import random
import resource
import signal
import subprocess
import sys
import tokenize
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np

import factorlab
from factorlab import FactorLabError, harness
from factorlab.graph import MAX_VERTICES

BAD = (4.0, None, "3", -1, True, MAX_VERTICES + 1, 10**9)
LARGE = (MAX_VERTICES + 1, 10**9)  # valid for samples, trials and jobs, which have no upper bound
ADDRESS_SPACE = 1 << 30
ALARM_S = 20
ROOT = Path(__file__).resolve().parent.parent
# where a public name's callers live; the package's __init__.py only re-exports
CALLER_DIRS = ("src/factorlab", "scripts", "demos", "perfbench")


def _k4():
    return factorlab.complete(4)


def _p22():
    return factorlab.ParityParams(2, 2)


def _fields(record) -> dict:
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _survey():
    return factorlab.survey_theorem(12, 2, 4, samples=0)


NO_INTS = (dict, ())
# public name -> (valid keyword arguments, the parameters that take the bad values)
ROWS = {
    "BadParamsError": NO_INTS,
    "FactorLabError": NO_INTS,
    "Graph6Error": NO_INTS,
    "NotConvergedError": NO_INTS,
    "NotEquitableError": (lambda: {"vertex": 1, "part": 1}, ("vertex", "part")),
    "ParityPreconditionError": NO_INTS,
    "SamplerExhaustedError": NO_INTS,
    "SizeLimitError": NO_INTS,
    "CriterionWitness": (
        lambda: {"s_set": 1, "t_set": 2, "eta": -2, "q": 0, "deg_sum": 0},
        ("s_set", "t_set", "eta", "q", "deg_sum"),
    ),
    "FactorCertificate": (lambda: {"edges": ((0, 1),), "degrees": (1, 1)}, ("degrees",)),
    "ParityParams": (lambda: {"a": 2, "b": 4}, ("a", "b")),
    "Verdict": NO_INTS,
    "criterion_scan": NO_INTS,
    "criterion_witness": (lambda: {"g": _k4(), "s": 1, "t": 2, "params": _p22()}, ("s", "t")),
    "decide_by_criterion": NO_INTS,
    "decide_by_matching": NO_INTS,
    "decide_by_search": NO_INTS,
    "eta": (lambda: {"g": _k4(), "s": 1, "t": 2, "params": _p22()}, ("s", "t")),
    "search_scan": NO_INTS,
    "verify_certificate": NO_INTS,
    "verify_witness": NO_INTS,
    "LabeledConstruction": NO_INTS,
    "book_family": (lambda: {"n": 20, "s": 2, "b": 5}, ("n", "s", "b")),
    "clique_join": (lambda: {"s": 2, "sizes": (3, 1)}, ("s", "sizes")),
    "g_na": (lambda: {"n": 12, "a": 2}, ("n", "a")),
    "Graph": NO_INTS,
    "complement": NO_INTS,
    "complete": (lambda: {"n": 4}, ("n",)),
    "components": (lambda: {"g": _k4(), "within": 3}, ("within",)),
    "cycle": (lambda: {"n": 4}, ("n",)),
    "delete_set": (lambda: {"g": _k4(), "drop": 1}, ("drop",)),
    "disjoint_union": NO_INTS,
    "edges_between": (lambda: {"g": _k4(), "s": 1, "t": 2}, ("s", "t")),
    "from_edges": (lambda: {"n": 3, "edges": [(0, 1)]}, ("n",)),
    "is_connected": NO_INTS,
    "join": NO_INTS,
    "mask_of": (lambda: {"vertices": [1, 2]}, ("vertices",)),
    "min_degree": NO_INTS,
    "path": (lambda: {"n": 4}, ("n",)),
    "relabel": (lambda: {"g": _k4(), "new_of_old": [1, 0, 3, 2]}, ("new_of_old",)),
    "star": (lambda: {"n": 4}, ("n",)),
    "vertices_of": (lambda: {"vertices": 5}, ("vertices",)),
    "from_graph6": NO_INTS,
    "read_graph6": NO_INTS,
    "read_graph6_file": NO_INTS,
    "to_graph6": NO_INTS,
    "GridReport": NO_INTS,
    "SurveyRecord": (lambda: _fields(_survey().records[0]), ("index", "n", "m", "min_deg")),
    "SurveyReport": (
        lambda: _fields(_survey()),
        ("n", "a", "b", "samples", "hypothesis_n_min", "hypothesis_n_min_alt"),
    ),
    "bundled_connected_graphs": (lambda: {"n": 4}, ("n",)),
    "grid_book_spectral_bound": NO_INTS,
    "grid_bound_monotonicity": (lambda: {"samples": 1}, ("samples",)),
    "grid_clique_merge_dominance": NO_INTS,
    "grid_degree_size_bound": (lambda: {"samples": 1}, ("samples",)),
    "grid_gna_no_factor": NO_INTS,
    "grid_parity_evenness": (lambda: {"trials": 1}, ("trials",)),
    "recognize_gna": (lambda: {"g": factorlab.g_na(12, 2).graph, "a": 2}, ("a",)),
    "sample_connected_min_degree": (
        lambda: {"n": 12, "min_deg": 2, "rng": random.Random(0)},
        ("n", "min_deg"),
    ),
    "survey_theorem": (lambda: {"n": 12, "a": 2, "b": 4, "samples": 0}, ("n", "a", "b", "samples")),
    "sweep_oracle_equivalence": (
        lambda: {"graphs": [_k4()] * (harness.SWEEP_CHUNK + 1), "params_list": [_p22()], "jobs": 1},
        ("jobs",),
    ),
    "has_perfect_matching": NO_INTS,
    "QuotientMatrix": NO_INTS,
    "SpectralResult": (
        lambda: {"rho": 1.0, "perron": np.ones(2) / 2**0.5, "iterations": 0, "residual": 0.0},
        ("iterations",),
    ),
    "book_charpoly": (lambda: {"n": 20, "s": 2, "b": 5}, ("n", "s", "b")),
    "edge_rotation": (lambda: {"g": factorlab.path(3), "vi": 0, "vj": 1, "moved": [2]}, ("vi", "vj", "moved")),
    "f_monotone_check": (lambda: {"n": 10, "m": 20, "x_grid": [0.0, 1.0]}, ("n", "m")),
    "hong_nikiforov_bound": (lambda: {"n": 4, "m": 6, "delta": 3}, ("n", "m", "delta")),
    "quotient": NO_INTS,
    "quotient_rho": NO_INTS,
    "spectral_radius": (lambda: {"g": _k4(), "max_iter": 1000}, ("max_iter",)),
}
# (callable, unbounded count) -> the harness name its first step of work looks up
FIRST_WORK = {
    ("grid_bound_monotonicity", "samples"): "f_monotone_check",
    ("grid_degree_size_bound", "samples"): "sample_min_degree",
    ("grid_parity_evenness", "trials"): "eta",
    ("survey_theorem", "samples"): "g_na",
    ("sweep_oracle_equivalence", "jobs"): "Pool",
}


class Accepted(Exception):
    """Raised by a first-work spy: the call got past its checks."""


def _accept(*args, **kwargs):
    raise Accepted


def _on_alarm(signum, frame):
    raise TimeoutError(f"no answer within {ALARM_S} s")


def _outcome(call, kwargs) -> str:
    signal.alarm(ALARM_S)
    try:
        call(**kwargs)
        return "result"
    except Accepted:
        return "accepted"
    except FactorLabError:
        return "refused"
    except Exception as exc:  # the finding: a raw error, MemoryError or the alarm
        return f"{type(exc).__name__}: {str(exc)[:160]}"
    finally:
        signal.alarm(0)


def sweep() -> list[str]:
    """Every row's valid call, then every bad value; the calls that broke the contract."""
    failures = []
    for name, (valid, params) in ROWS.items():
        call = getattr(factorlab, name)
        for param in params:
            spy = FIRST_WORK.get((name, param))
            with mock.patch.object(harness, spy, _accept) if spy else nullcontext():
                cases = [(valid()[param], {"result", "accepted"})]
                cases += [(value, {"accepted", "result"} if spy and value in LARGE else {"result", "refused"})
                          for value in BAD]
                for value, allowed in cases:
                    outcome = _outcome(call, {**valid(), param: value})
                    if outcome not in allowed:
                        failures.append(f"{name}({param}={value!r}): {outcome}")
    return failures


def test_every_public_callable_has_a_row():
    public = {name for name in dir(factorlab) if not name.startswith("_") and callable(getattr(factorlab, name))}
    assert sorted(public - set(ROWS)) == [], "public callables without a row"
    assert sorted(set(ROWS) - public) == [], "rows for names that are not public callables"


def _names_used_outside_the_tests() -> set[str]:
    """Every name token of the callers' code, less the name a def or class line defines."""
    used = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path == ROOT / "src/factorlab/__init__.py":
                continue
            with tokenize.open(path) as fh:
                previous = None
                for tok in tokenize.generate_tokens(fh.readline):
                    if tok.type == tokenize.NAME and previous not in ("def", "class"):
                        used.add(tok.string)
                    previous = tok.string
    return used


def test_every_public_callable_has_a_caller_outside_the_tests():
    public = {name for name in dir(factorlab) if not name.startswith("_") and callable(getattr(factorlab, name))}
    assert sorted(public - _names_used_outside_the_tests()) == [], "public callables that only the tests call"


def test_bad_values_give_a_result_or_a_package_error():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == []


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.signal(signal.SIGALRM, _on_alarm)
    print(json.dumps(sweep(), indent=1))

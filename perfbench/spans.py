"""Spans around calls into factorlab's layers, taken from the benchmark's side.

Each public function is wrapped in the namespace where its caller looks it
up (``components`` inside ``factors``, ``spectral`` and ``graph``, for
example), so the program is unchanged and an untraced pass runs the pristine
functions: ``install`` swaps the wrappers in, ``uninstall`` restores the
originals.  Spans are kept in memory as parallel arrays and written out once,
at exit.
"""

from __future__ import annotations

import statistics
from array import array
from collections import Counter
from time import perf_counter_ns

# span name -> (modules whose namespace is patched, attribute names wrapped)
LAYERS = {
    "graph6.decode": (("graph6", "harness"), ("from_graph6",)),
    "graph6.encode": (("graph6", "harness"), ("to_graph6",)),
    "graph.components": (("graph", "factors", "spectral"), ("components",)),
    "factors.criterion_scan": (("factors", "harness"), ("criterion_scan",)),
    "factors.decide_by_search": (("harness",), ("decide_by_search",)),
    "matching.has_perfect_matching": (("harness",), ("has_perfect_matching",)),
    "spectral.adjacency_matrix": (("spectral",), ("adjacency_matrix",)),
    "spectral.spectral_radius": (("spectral", "harness"), ("spectral_radius",)),
    "spectral.quotient": (("spectral", "harness"), ("quotient",)),
    "spectral.quotient_rho": (("spectral", "harness"), ("quotient_rho",)),
    "spectral.charpoly": (("spectral",), ("charpoly_coefficients",)),
    "families.construct": (("families", "harness"), ("book_family", "g_na", "h_nab", "odd_1b")),
    "harness.sample": (
        ("harness",),
        ("sample_connected_min_degree", "sample_min_degree", "sample_regular"),
    ),
    "harness.recognize_gna": (("harness",), ("recognize_gna",)),
    "harness.sweep": (("harness",), ("sweep_oracle_equivalence",)),
    "harness.survey": (("harness",), ("survey_theorem",)),
}
NAMES = tuple(LAYERS)
PERCENTILE_LAYER = "factors.criterion_scan"


def _note_criterion(counts: Counter, verdicts) -> None:
    counts["verdicts"] += len(verdicts)
    counts["no_factor"] += sum(1 for v in verdicts if not v.exists)


def _note_radius(counts: Counter, result) -> None:
    counts["power_iterations"] += result.iterations


NOTES = {"factors.criterion_scan": _note_criterion, "spectral.spectral_radius": _note_radius}


class Tracer:
    """Records (name, start, end, parent, run id) for every wrapped call."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.run_id = 0
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.names = array("B")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.runs = array("l")
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._t0 = perf_counter_ns()

    def _wrap(self, code: int, fn):
        name = NAMES[code]
        note = NOTES.get(name)
        names, starts, ends, parents, runs = self.names, self.starts, self.ends, self.parents, self.runs
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0)
            stack.append(sid)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                ends[sid] = perf_counter_ns()
                stack.pop()
            if note is not None:
                note(self.counts, result)
            return result

        return wrapper

    def install(self) -> None:
        for code, name in enumerate(NAMES):
            module_names, attrs = LAYERS[name]
            for attr in attrs:
                for mod_name in module_names:
                    module = self.modules[mod_name]
                    if hasattr(module, attr):
                        fn = getattr(module, attr)
                        self._originals.append((module, attr, fn))
                        setattr(module, attr, self._wrap(code, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds, self seconds, and the single
        durations (ns) of the layer whose percentiles are reported.

        Self time is a span's duration minus the time covered by its direct
        children; calls into the same layer never nest, so busy time is the
        plain sum of durations.
        """
        count = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        child = [0] * count
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[i]
        stats = {name: {"calls": 0, "busy": 0, "self": 0, "durations": []} for name in NAMES}
        for i in range(count):
            name = NAMES[self.names[i]]
            entry = stats[name]
            entry["calls"] += 1
            entry["busy"] += durations[i]
            entry["self"] += durations[i] - child[i]
            if name == PERCENTILE_LAYER:
                entry["durations"].append(durations[i])
        for entry in stats.values():
            entry["busy"] /= 1e9
            entry["self"] /= 1e9
        return stats

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,name,start_ns,end_ns,parent,run\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i},{NAMES[self.names[i]]},{self.starts[i] - self._t0},"
                    f"{self.ends[i] - self._t0},{self.parents[i]},{self.runs[i]}\n"
                )


def percentile_ms(durations_ns: list[int], q: int) -> float:
    """The q-th percentile of span durations in ms (0 when there are none)."""
    if not durations_ns:
        return 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e6
    return statistics.quantiles(durations_ns, n=100, method="inclusive")[q - 1] / 1e6


def per_layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float, cpu_s: float) -> dict:
    """The per-layer metrics, as totals per traced pass."""
    s = tracer.layer_stats()
    counts, errors = tracer.counts, tracer.errors

    def per(value):
        return value / passes

    crit = s[PERCENTILE_LAYER]
    harness_self = sum(
        s[name]["self"] for name in NAMES if name.startswith("harness.")
    )
    return {
        "graph6.decode_calls": (per(s["graph6.decode"]["calls"]), "count"),
        "graph6.decode_s": (per(s["graph6.decode"]["busy"]), "s"),
        "graph6.encode_calls": (per(s["graph6.encode"]["calls"]), "count"),
        "graph6.encode_s": (per(s["graph6.encode"]["busy"]), "s"),
        "graph.components_calls": (per(s["graph.components"]["calls"]), "count"),
        "graph.components_s": (per(s["graph.components"]["busy"]), "s"),
        "factors.criterion_scan_calls": (per(crit["calls"]), "count"),
        "factors.criterion_scan_self_s": (per(crit["self"]), "s"),
        "factors.criterion_scan_p50_ms": (percentile_ms(crit["durations"], 50), "ms"),
        "factors.criterion_scan_p99_ms": (percentile_ms(crit["durations"], 99), "ms"),
        "factors.criterion_no_factor_ratio": (
            counts["no_factor"] / counts["verdicts"] if counts["verdicts"] else 0.0,
            "ratio",
        ),
        "factors.decide_by_search_calls": (per(s["factors.decide_by_search"]["calls"]), "count"),
        "factors.decide_by_search_s": (per(s["factors.decide_by_search"]["busy"]), "s"),
        "factors.size_limit_errors": (
            per(sum(v for k, v in errors.items() if k.startswith("factors.") and k.endswith(":SizeLimitError"))),
            "count",
        ),
        "matching.has_perfect_matching_calls": (
            per(s["matching.has_perfect_matching"]["calls"]),
            "count",
        ),
        "matching.has_perfect_matching_s": (per(s["matching.has_perfect_matching"]["busy"]), "s"),
        "spectral.adjacency_matrix_calls": (per(s["spectral.adjacency_matrix"]["calls"]), "count"),
        "spectral.adjacency_matrix_s": (per(s["spectral.adjacency_matrix"]["busy"]), "s"),
        "spectral.spectral_radius_calls": (per(s["spectral.spectral_radius"]["calls"]), "count"),
        "spectral.spectral_radius_self_s": (per(s["spectral.spectral_radius"]["self"]), "s"),
        "spectral.power_iterations": (per(counts["power_iterations"]), "count"),
        "spectral.quotient_calls": (per(s["spectral.quotient"]["calls"]), "count"),
        "spectral.quotient_s": (per(s["spectral.quotient"]["busy"]), "s"),
        "spectral.quotient_rho_self_s": (per(s["spectral.quotient_rho"]["self"]), "s"),
        "spectral.charpoly_s": (per(s["spectral.charpoly"]["busy"]), "s"),
        "families.construct_calls": (per(s["families.construct"]["calls"]), "count"),
        "families.construct_s": (per(s["families.construct"]["busy"]), "s"),
        "harness.sample_calls": (per(s["harness.sample"]["calls"]), "count"),
        "harness.sample_s": (per(s["harness.sample"]["busy"]), "s"),
        "harness.sampler_errors": (
            per(sum(v for k, v in errors.items() if k.startswith("harness.sample:"))),
            "count",
        ),
        "harness.recognize_gna_s": (per(s["harness.recognize_gna"]["busy"]), "s"),
        "harness.self_s": (per(harness_self), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "process.cpu_s": (cpu_s, "s"),
    }

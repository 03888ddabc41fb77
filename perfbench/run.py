"""factorlab benchmark: one workload per process, end to end or traced per layer.

    python3 perfbench/run.py --workload {oracle,survey,spectral,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The program is imported from ``src/`` of the
same checkout.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every correctness check passed.  A results file (and, traced,
a span file) is written under ``.bench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here: it includes importing numpy

import os  # noqa: E402

# Pin BLAS/OpenMP before numpy is imported anywhere in this process or its
# children: the load is one client on one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
SETUP_CHILDREN = 7
CHILD_TIMEOUT_S = 60
MODULES = ("errors", "graph", "graph6", "factors", "matching", "families", "spectral", "harness")


def load_program():
    """Import factorlab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    fl = importlib.import_module("factorlab")
    if Path(fl.__file__).resolve().parent != SRC / "factorlab":
        raise ImportError(f"factorlab imported from {fl.__file__}, not from {SRC}")
    for name in MODULES:
        importlib.import_module(f"factorlab.{name}")
    return fl


def setup(name: str, seed: int, size: str):
    """Import the program, build the workload's inputs and warm numpy up."""
    fl = load_program()
    wl = workloads.WORKLOADS[name](fl, seed, size)
    workloads.warm_up(fl)
    return fl, wl


def child_setup_s(args) -> float:
    """Set-up time of a fresh interpreter, as that interpreter measures it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def plant_fault(fl, kind: str) -> None:
    """Corrupt one program answer, so the self-test can see the gates catch it."""
    if kind == "verdict":
        original = fl.harness.criterion_scan
        done = []

        def flipped(g, params_list, force=False):
            verdicts = original(g, params_list, force=force)
            for i, v in enumerate(verdicts):
                if not done and not v.exists:
                    verdicts[i] = fl.factors.Verdict(exists=True)
                    done.append(i)
            return verdicts

        fl.harness.criterion_scan = flipped
    elif kind == "rho":
        original = fl.spectral.spectral_radius
        done = []

        def shifted(g, *a, **kw):
            res = original(g, *a, **kw)
            if done:
                return res
            done.append(g)
            return fl.spectral.SpectralResult(res.rho + 1e-6, res.perron, res.iterations, res.residual)

        fl.spectral.spectral_radius = fl.harness.spectral_radius = shifted


class Loop:
    """The closed loop: passes of batches, each checked once it has ended."""

    def __init__(self, wl, trace: bool):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.items = 0
        self.items_per_pass = 0
        self.busy = 0.0
        self.pass_times: list[float] = []
        self.traced_times: list[float] = []
        self.traced_cpu: list[float] = []
        self.cells: list = []
        self.batch_id = 0
        self.tracer = None
        if trace:
            self.tracer = spans.Tracer({m: getattr(wl.fl, m) for m in MODULES})

    def run_pass(self, batches, traced: bool, keep_cells: bool) -> None:
        wl, tracer = self.wl, self.tracer
        results = []
        elapsed = 0.0
        cpu0 = time.process_time()
        if traced:
            tracer.install()
        try:
            for batch in batches:
                self.batch_id += 1
                if traced:
                    tracer.run_id = self.batch_id
                t0 = time.perf_counter()
                try:
                    result = wl.run(batch)
                except Exception as exc:  # a raising item is a failed item; the loop goes on
                    result = exc
                elapsed += time.perf_counter() - t0
                results.append((batch, result))
        finally:
            if traced:
                tracer.uninstall()
        cpu = time.process_time() - cpu0
        self.busy += elapsed
        if traced:
            self.traced_times.append(elapsed)
            self.traced_cpu.append(cpu)
        else:
            self.pass_times.append(elapsed)
        for batch, result in results:
            n_items = wl.items(batch)
            self.items += n_items
            if isinstance(result, Exception):
                self.fail_batch(batch, n_items, "raised", result)
                continue
            try:
                check = wl.check(batch, result)
                cells = list(wl.cells(batch, result)) if keep_cells else []
            except Exception as exc:  # output the gate cannot read fails the whole batch
                self.fail_batch(batch, n_items, "unreadable output", exc)
                continue
            self.attempted += check.attempted
            self.failed += check.failed
            self.messages.extend(check.messages)
            self.cells.extend(cells)

    def fail_batch(self, batch, n_items: int, what: str, exc: Exception) -> None:
        self.attempted += n_items
        self.failed += n_items
        self.messages.append(f"{batch!r} {what}: {type(exc).__name__}: {exc}")

    def measure(self, seconds: float) -> None:
        """Whole passes until the measured busy time reaches ``seconds``.

        Traced, each pass runs twice on the same inputs, untraced then
        traced, so the pair gives the tracing overhead.
        """
        k = 0
        while k == 0 or self.busy < seconds:
            batches = self.wl.pass_batches(k)
            if k == 0:
                self.items_per_pass = sum(self.wl.items(b) for b in batches)
            self.run_pass(batches, traced=False, keep_cells=k == 0)
            if self.tracer is not None:
                self.run_pass(batches, traced=True, keep_cells=False)
            k += 1


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "factorlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "thread_pinning": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def run_one(args) -> int:
    fl, wl = setup(args.workload, args.seed, args.size)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    # fresh interpreters, so that every sample pays for the imports
    setup_samples = [] if args.trace else [child_setup_s(args) for _ in range(SETUP_CHILDREN)]
    if args.plant:
        plant_fault(fl, args.plant)

    loop = Loop(wl, args.trace)
    wall_start = time.perf_counter()
    loop.measure(args.seconds)
    wall_total = time.perf_counter() - wall_start

    got = workloads.digest(loop.cells)
    expected = workloads.EXPECTED_DIGESTS.get((args.workload, args.size, args.seed))
    if expected is not None and got != expected:
        loop.failed += 1
        loop.messages.append(f"verdict digest {got} != expected {expected}")
    correct = loop.failed == 0

    if args.trace:
        ratios = [t / u for t, u in zip(loop.traced_times, loop.pass_times)]
        passes = len(loop.traced_times)
        metrics = spans.per_layer_metrics(
            loop.tracer, passes, statistics.median(ratios) - 1.0, sum(loop.traced_cpu) / passes
        )
    else:
        # medians over passes: this shares a machine whose speed drifts
        wall_s = statistics.median(loop.pass_times)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (wall_s, "s"),
            "items_per_s": (loop.items_per_pass / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }

    fail_ratio = loop.failed / loop.attempted
    print(f"workload={args.workload} seed={args.seed} trace={int(args.trace)} size={args.size} "
          f"passes={len(loop.pass_times)} items={loop.items} ({wl.item}s) "
          f"busy={loop.busy:.2f}s wall={wall_total:.2f}s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':38s} {fail_ratio:14.6g} ({loop.failed}/{loop.attempted})")
    print(f"  {'verdict_digest':38s} {got[:16]} ({'checked' if expected else 'not recorded for this seed'})")
    for message in loop.messages[:10]:
        print(f"  FAIL {message}")

    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": bool(args.trace),
        "machine": machine(),
        "passes": len(loop.pass_times),
        "pass_times_s": loop.pass_times,
        "traced_pass_times_s": loop.traced_times,
        "setup_samples_s": setup_samples,
        "items": loop.items,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "fail_ratio": fail_ratio,
        "failures": loop.messages[:100],
        "verdict_digest": got,
        "metrics": metrics_json,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        loop.tracer.write_csv(OUT / f"{stem}.spans.csv")

    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics_json,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace)), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=175, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured busy time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full", help="tiny is for the self-test")
    parser.add_argument("--plant", choices=("verdict", "rho"), help="self-test only: corrupt one answer")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's gates.

    python3 perfbench/selftest.py

Runs every workload at tiny size, clean and traced, and checks that each
prints the metrics BENCHMARK.json names and passes its gate.  Then plants a
wrong verdict (oracle, survey) and a wrong spectral radius (spectral) and
checks that each is caught: fail_ratio > 0 and a nonzero exit.  Last, it runs
the benchmark in a directory that holds only BENCHMARK.json and perfbench/,
where it must fail without printing a result.  Exits nonzero on any miss.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]
TIMEOUT_S = 170


def run(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, *RUN, "--workload", workload, "--seed", "3", "--seconds", "0.2",
           "--size", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S, cwd=cwd)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    misses = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in ("0", "1"):
            code, out = run(workload, "--trace", trace)
            result = last_json(out)
            label = f"{workload} trace={trace} clean"
            if code != 0 or result is None:
                misses.append(f"{label}: exit {code}, result {result}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                misses.append(f"{label}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                misses.append(f"{label}: {result['correct']} {result['failed']}/{result['attempted']}")
            if set(result["metrics"]) != names[trace]:
                misses.append(f"{label}: metrics differ: {sorted(set(result['metrics']) ^ names[trace])}")
    for workload, fault in (("oracle", "verdict"), ("survey", "verdict"), ("spectral", "rho")):
        code, out = run(workload, "--plant", fault)
        result = last_json(out)
        label = f"{workload} planted {fault}"
        if code == 0 or result is None or result["correct"] or not result["failed"] > 0:
            misses.append(f"{label}: not caught (exit {code}, result {result})")
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run(workloads[0], cwd=bare)
    if code == 0 or last_json(out) is not None:
        misses.append(f"bare directory: exit {code}, stdout {out[-200:]!r}")
    shutil.rmtree(bare)
    for miss in misses:
        print(f"MISS {miss}")
    print("selftest: " + ("FAIL" if misses else "ok"))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())

"""Short run of every workload, plain and traced, checking that each prints
every metric BENCHMARK.json names, with its unit, on its last line; and that
the benchmark refuses to run where there are no sources.

    python3 bench/smoke.py

Exits 0 when every check holds and prints one line per failed check
otherwise.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            what = f"{w['name']} --trace {trace}"
            before = len(problems)
            proc = run(["--workload", w["name"], "--seed", "1", "--seconds", "1",
                        "--trace", str(trace)], ROOT)
            if proc.returncode != 0:
                problems.append(f"{what}: exit code {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{what}: keys {sorted(result)}")
            if not result.get("correct") or result.get("attempted", 0) < 1:
                problems.append(f"{what}: correct={result.get('correct')} "
                                f"attempted={result.get('attempted')}")
            metrics = result.get("metrics", {})
            names = {m["name"]: m["unit"] for m in wanted[trace]}
            if sorted(metrics) != sorted(names):
                problems.append(f"{what}: missing {sorted(set(names) - set(metrics))}, "
                                f"extra {sorted(set(metrics) - set(names))}")
            for name, m in metrics.items():
                if name in names and m.get("unit") != names[name]:
                    problems.append(f"{what}: {name} has unit {m.get('unit')}, not {names[name]}")
                if not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{what}: {name} has no numeric value")
            print(f"{'ok' if len(problems) == before else 'FAILED'} {what}", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "iso_mix", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without sources: exit code {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

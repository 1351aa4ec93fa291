"""Run one reebtrees benchmark workload and print its metrics.

    python3 bench/run.py --workload iso_mix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from src/.
With --trace 0 the workload runs as a closed loop with one client and the
end-to-end metrics are printed.  With --trace 1 half as many rounds run,
every operation once untraced and once more with spans around every public
function, and the per-layer metrics are printed together with the tracing
overhead.
The last line of standard output is one JSON object; the lines before it
are a readable summary.  Per-operation records (and, when traced, the spans)
go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Seconds of timed calls in one round, measured on a 2-vCPU x86-64 host.  A
# run of --seconds S does round(S / ROUND_SECONDS) whole rounds, so the
# operations a run makes, and the checks that fail, depend on the seed and S
# alone, not on how fast the machine happens to be.
ROUND_SECONDS = {"iso_mix": 9.0, "dist_matrix": 1.8, "tree_scale": 3.7}
WORKLOADS = tuple(ROUND_SECONDS)


def load_workload(name: str):
    if name == "iso_mix":
        from iso_mix import IsoMix as cls
    elif name == "dist_matrix":
        from dist_matrix import DistMatrix as cls
    else:
        from tree_scale import TreeScale as cls
    return cls


def run_op(wl, case: dict, op_id: int, tracer=None) -> dict:
    """One operation: untimed preparation, the timed call, untimed checks."""
    args = wl.prepare(case)
    gc.collect()  # garbage left by preparation is not collected on the clock
    error = None
    if tracer is not None:
        tracer.op = op_id
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = wl.call(args)
    except Exception as exc:  # an operation that raises fails its checks
        out, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    attempted, failed, known = wl.check(case, out)
    wl.cleanup(args)
    rec = {"op": op_id, **case["props"], "seconds": seconds, "checks": attempted,
           "failed": failed, "known_defect": known, "passed": failed == 0}
    if error:
        rec["error"] = error
    return rec


def closed_loop(wl, rounds: list[list[dict]], tracer=None):
    """Run the rounds, one operation after another.  With a tracer, each
    operation also runs traced, on fresh objects, right after its untraced
    run or, for every other operation, right before it, so that neither
    side always finds warm caches."""
    records: list[dict] = []
    traced: list[dict] = []
    for case in itertools.chain.from_iterable(rounds):
        i = len(records)
        if tracer is not None and i % 2:
            traced.append(run_op(wl, case, i, tracer))
        records.append(run_op(wl, case, i))
        if tracer is not None and not i % 2:
            traced.append(run_op(wl, case, i, tracer))
    return records, traced


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile that still has ten samples beyond
    it (the eleventh largest), with that percentile.  Below eleven samples
    no such percentile exists and the maximum is returned at 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize(records: list[dict]) -> dict:
    lat = [r["seconds"] for r in records]
    worst, pct = tail(lat)
    return {
        "ops": len(lat),
        "timed_s": sum(lat),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_tail_ms": worst * 1000.0,
        "tail_pct": pct,
        "attempted": sum(r["checks"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "known": sum(r["known_defect"] for r in records),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def write_records(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "reebtrees" / "__init__.py").is_file():
        print(f"error: no reebtrees sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = load_workload(args.workload)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = cls(args.seed, workdir)
        n_rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
        if args.trace:
            result = traced(wl, max(1, n_rounds // 2), stem)
        else:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                rounds = [wl.make_round(r) for r in range(n_rounds)]
                setup_times.append(time.perf_counter() - t0)
            result = untraced(wl, rounds, statistics.median(setup_times), stem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def report(workload: str, s: dict, known_note: bool) -> None:
    print(f"workload {workload}: {s['ops']} operations in {s['timed_s']:.2f} timed seconds")
    print(f"  failed_frac {s['failed'] / s['attempted']:.6f} ratio "
          f"({s['failed']} of {s['attempted']} checks failed"
          + (f"; {s['known']} of them the known id-dependence of distances)" if known_note else ")"))


def untraced(wl, rounds, setup_s, stem) -> dict:
    records, _ = closed_loop(wl, rounds)
    s = summarize(records)
    write_records(stem.with_suffix(".jsonl"), records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (s["ops_per_s"], "ops/s"),
        "op_p50_ms": (s["op_p50_ms"], "ms"),
        "op_tail_ms": (s["op_tail_ms"], "ms"),
        "passed_frac": (1.0 - s["failed"] / s["attempted"], "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    report(wl.name, s, wl.name == "dist_matrix")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  op_tail_ms is p{s['tail_pct']:.2f} of {s['ops']} samples; "
          f"records in {stem.with_suffix('.jsonl').relative_to(ROOT)}")
    return {
        "correct": s["failed"] == s["known"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(wl, n_rounds, stem) -> dict:
    from spans import Tracer, startup_ms

    tracer = Tracer()
    tracer.op = "setup"
    tracer.install()
    try:
        rounds = [wl.make_round(r) for r in range(n_rounds)]
    finally:
        tracer.uninstall()
    plain, replay = closed_loop(wl, rounds, tracer)
    routes = tracer.op_routes()
    for rec in replay:
        rec["route"] = routes.get(rec["op"])
    write_records(stem.with_suffix(".jsonl"), replay)
    tracer.dump(stem.with_name(stem.name + "-spans.jsonl"))

    s_plain, s_traced = summarize(plain), summarize(replay)
    metrics = tracer.metrics(len(replay))
    metrics["cli.interpreter_ms"], metrics["cli.import_ms"] = startup_ms(SRC)
    metrics["trace.ops_per_s"] = s_traced["ops_per_s"]
    metrics["trace.slowdown"] = s_traced["timed_s"] / s_plain["timed_s"]
    report(wl.name, s_traced, wl.name == "dist_matrix")
    print(f"  untraced {s_plain['ops_per_s']:.6g} ops/s, traced {s_traced['ops_per_s']:.6g} ops/s "
          f"over the same {s_plain['ops']} operations: slowdown {metrics['trace.slowdown']:.4f}")
    for name in sorted(metrics):
        if metrics[name]:
            print(f"  {name} {metrics[name]:.6g}")
    print(f"  spans in {stem.name}-spans.jsonl, records in {stem.name}.jsonl under .bench_out/")
    failed = s_plain["failed"] + s_traced["failed"]
    known = s_plain["known"] + s_traced["known"]
    return {
        "correct": failed == known,
        "attempted": s_plain["attempted"] + s_traced["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }


def unit_of(metric: str) -> str:
    for suffix, unit in (("bytes_per_s", "B/s"), ("ops_per_s", "ops/s"), ("_ms", "ms"),
                         ("_s", "s"), ("slowdown", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())

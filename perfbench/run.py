"""Benchmark for rainbowdom: certify ladder, corpus replay and solver workloads.

    python3 perfbench/run.py --workload certify-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. One sequential client calls the
library's public entry points (closed loop, one worker, no threads). A run
repeats passes over the workload's operation list for --seconds; each pass
is a fresh process (worker.py), so caches start cold and set-up is timed
anew. Each pass has a wall-clock guard; a pass that overruns it is killed
and counted as a failure.

CPU speed on a shared host swings by up to a factor of two from one second
to the next, and contention only ever adds time. So each operation is
timed by its fastest run over the passes: wall_s is the sum of those times
over the operation list, op_p50_ms and op_p90_ms are their quantiles over
the operations. setup_s and peak_rss_mb are medians over the passes.

--trace 0 reports the end-to-end metrics, --trace 1 alternates plain and
traced passes and reports the per-layer metrics, including the tracing
overhead. --workload all runs every workload. The last line of standard
output is a JSON result; a summary goes to standard error and the raw
per-operation records to perfbench/results/. The exit code is 1 when an
output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = tuple(workloads.WORKLOADS)

MIN_PASSES = 3  # per kind of pass, while they fit well inside the hard limit
SOFT_LIMIT_S = 120  # no pass is started for MIN_PASSES beyond this
HARD_LIMIT_S = 170  # a run ends within this, whatever its passes do

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def run_pass(workload: str, seed: int, trace: bool, smoke: bool, timeout: float) -> dict | None:
    """One pass in a fresh process; None when it overran its time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "--spans", str(RESULTS / f"{workload}-seed{seed}-spans.jsonl")]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def quantiles(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10)
    return q[4], q[8]


def fastest(passes: list[dict]) -> list[float]:
    """Each operation's fastest time over the passes."""
    return [min(times) for times in zip(*([op["s"] for op in p["ops"]] for p in passes))]


def same_counts(passes: list[dict]) -> bool:
    """Node counts, outcomes and per-layer counts repeat exactly."""
    def key(p):
        layers = {k: v for k, v in p.get("layers", {}).items() if not k.endswith("_pct")}
        ops = [(o["op"], o["nodes"], o["outcome"]) for o in p["ops"]]
        return p["digest"], p["failed"], p["exact"], ops, layers
    return all(key(p) == key(passes[0]) for p in passes)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    start = time.perf_counter()
    plain, traced, timeouts = [], [], 0
    pass_s = []
    while True:
        kind_traced = trace and len(traced) < len(plain)
        elapsed = time.perf_counter() - start
        out = run_pass(workload, seed, kind_traced, smoke, HARD_LIMIT_S - elapsed)
        if out is None:
            timeouts += 1
            break
        (traced if kind_traced else plain).append(out)
        pass_s.append(time.perf_counter() - start - elapsed)
        now = time.perf_counter() - start
        nxt = now + statistics.median(pass_s)
        short = len(plain) < MIN_PASSES or (trace and len(traced) < MIN_PASSES)
        if nxt > seconds and not (short and nxt < SOFT_LIMIT_S):
            break
        if nxt > HARD_LIMIT_S:
            break

    everything = plain + traced
    if not plain or (trace and not traced):
        print(f"{workload}: no pass finished within {HARD_LIMIT_S} s", file=sys.stderr)
        return {"correct": False, "attempted": timeouts, "failed": timeouts, "metrics": {}}
    problems = sorted({p for out in everything for p in out["problems"]})
    if not (same_counts(plain) and same_counts(traced)):
        problems.append("passes over the same inputs gave different counts or outcomes")
    attempted = sum(o["attempted"] for o in everything) + timeouts
    failed = sum(o["failed"] for o in everything) + timeouts
    best = fastest(plain)
    p50, p90 = quantiles(best)
    e2e = {
        "wall_s": sum(best),
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "setup_s": statistics.median(o["setup_s"] for o in plain),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in plain),
    }
    first = plain[0]
    info = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "timed_out_passes": timeouts,
        "operations": len(best),
        "node_budget": first["node_budget"],
        "fail_frac": failed / attempted,
        "exact_frac": first["exact"] / first["certificates"] if first["certificates"] else None,
        "slowest": sorted(zip(best, (op["op"] for op in first["ops"])), reverse=True)[:5],
        "pass_wall_s": statistics.median(o["wall_s"] for o in plain),
        "pass_cpu_s": statistics.median(o["cpu_s"] for o in plain),
    }
    if trace:
        layers = dict(traced[0]["layers"])
        for name in layers:
            if name.endswith("_pct"):
                layers[name] = statistics.median(o["layers"][name] for o in traced)
        layers["trace_overhead_s"] = sum(fastest(traced)) - e2e["wall_s"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        info["self_s"] = {k: statistics.median(o["self_s"].get(k, 0.0) for o in traced)
                          for k in traced[0]["self_s"]}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    raw = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    raw.write_text(json.dumps({"workload": workload, "seed": seed, "result": result,
                               "end_to_end": e2e, "info": info, "problems": problems,
                               "passes": plain, "traced_passes": traced}))
    summarize(workload, e2e, info, metrics if trace else None, problems, raw)
    return result


def summarize(workload, e2e, info, layers, problems, raw):
    say = lambda s="": print(s, file=sys.stderr)  # noqa: E731
    say(f"== {workload}: {info['passes']} passes ({info['traced_passes']} traced), "
        f"{info['operations']} operations, node budget {info['node_budget']}")
    for name, value in e2e.items():
        say(f"  {name:12s} {value:12.4f} {END_TO_END_UNITS[name]}")
    say(f"  {'fail_frac':12s} {info['fail_frac']:12.4f} ratio")
    if info["exact_frac"] is not None:
        say(f"  {'exact_frac':12s} {info['exact_frac']:12.4f} ratio")
    say(f"  one pass, median: {info['pass_wall_s']:.4f} s wall, {info['pass_cpu_s']:.4f} s CPU")
    say("  slowest operations: " + ", ".join(f"{op} {s:.3f}s" for s, op in info["slowest"]))
    if layers:
        say("  per layer (traced):")
        for name, m in layers.items():
            if m["value"]:
                say(f"    {name:52s} {m['value']:14.4f} {m['unit']}")
        for name, s in sorted(info["self_s"].items(), key=lambda kv: -kv[1]):
            say(f"    {name + '.self_s':52s} {s:14.4f} s")
    for p in problems[:20]:
        say(f"  CHECK FAILED: {p}")
    say(f"  raw records: {raw.relative_to(ROOT)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    args = ap.parse_args()
    if not (ROOT / "src" / "rainbowdom" / "__init__.py").is_file():
        print(f"no rainbowdom sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke)
               for w in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload, in a fresh process so that the library's
caches start cold, as they do for every user run.

Prints one JSON object: set-up time, the pass's wall and CPU time, peak
memory, a record per operation, the output-check problems and, when traced,
the per-layer counts. run.py starts this script; it is not meant to be run
by hand.
"""

import time

START = time.perf_counter()  # set-up is measured from here, before the import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import rainbowdom as rb  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", help="write the pass's spans to this JSON-lines file")
    args = ap.parse_args()

    spec = json.loads((HERE / "spec.json").read_text())
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(rb)
    wl = workloads.build(rb, args.workload, args.seed, spec, args.smoke)
    setup_s = time.perf_counter() - START

    records, results = [], []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for op in wl.ops:
        if tracer:
            tracer.begin_op(op.name)
        t, c = time.perf_counter(), time.process_time()
        result, outcome = None, "ok"
        try:
            result = op.run()
        except rb.BudgetError:
            outcome = "budget"
        except Exception as exc:  # recorded as a failed operation, the pass goes on
            outcome = f"error: {type(exc).__name__}: {exc}"
        records.append({
            "op": op.name,
            "s": time.perf_counter() - t,
            "cpu_s": time.process_time() - c,
            "nodes": getattr(result, "nodes_explored", None),
            "outcome": outcome,
        })
        results.append(result)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    # checks run after the timed loop
    problems, attempted, failed, certs, exact = [], 0, 0, 0, 0
    for op, rec, result in zip(wl.ops, records, results):
        found = op.check(result) if result is not None else []
        problems += [f"{op.name}: {p}" for p in found]
        if found:
            rec["outcome"] = "check: " + "; ".join(found)
        if hasattr(result, "violations"):  # a corpus report: its tasks are the operations
            attempted += result.tasks
            failed += len(result.violations) + sum("budget exhausted" in s for s in result.skips)
        else:
            attempted += 1
            failed += rec["outcome"] != "ok"
        if hasattr(result, "refined_exact"):
            certs += 1
            exact += result.exact or result.refined_exact is not None
    problems += wl.finish()

    out = {
        "digest": wl.digest,
        "node_budget": wl.node_budget,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "certificates": certs,
        "exact": exact,
        "problems": problems,
        "ops": records,
    }
    if tracer:
        out["layers"] = tracer.metrics(wall_s)
        out["self_s"] = tracer.self_seconds()
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests for the benchmark, on tiny inputs; about ten seconds.

    python3 perfbench/selftest.py

Checks that a seed fixes the inputs and every deterministic count, that a
new seed changes the seeded workloads, that every workload runs end to end
and reports exactly the metrics BENCHMARK.json declares, that the output
checker rejects broken witnesses, and that the benchmark refuses to run
without the library's sources. Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import rainbowdom as rb  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())


def expect(ok: bool, what: str):
    if not ok:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {what}")


def worker(name: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
         "--smoke", "--trace"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


def deterministic(p: dict):
    counts = {k: v for k, v in p["layers"].items() if not k.endswith("_pct")}
    nodes = [(o["op"], o["nodes"], o["outcome"]) for o in p["ops"]]
    return p["digest"], counts, nodes, p["failed"], p["attempted"], p["exact"], p["certificates"]


def test_seeds():
    for name in workloads.WORKLOADS:
        a, b, c = worker(name, 1), worker(name, 1), worker(name, 2)
        expect(deterministic(a) == deterministic(b),
               f"{name}: seed 1 twice gives the same inputs, nodes, failures and exact count")
        seeded = name != "verify-corpus"
        expect((a["digest"] != c["digest"]) == seeded,
               f"{name}: seed 2 {'changes' if seeded else 'keeps'} the inputs")
        expect(not a["problems"], f"{name}: smoke outputs pass their checks")


def test_runs():
    e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name in workloads.WORKLOADS:
        for trace, declared in ((0, e2e), (1, layers)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=170, cwd=ROOT,
            )
            res = json.loads(proc.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(proc.returncode == 0 and res["correct"] and res["failed"] == 0
                   and set(res) == {"correct", "attempted", "failed", "metrics"} and got == declared,
                   f"{name} --trace {trace}: runs and reports the declared metrics")


def test_checker_rejects():
    wl = workloads.build(rb, "certify-ladder", 1, SPEC, smoke=True)
    op = next(o for o in wl.ops if o.name.endswith(",P4)"))
    cert = op.run()
    expect(op.check(cert) == [], "a correct certificate passes")
    masks = list(cert.upper_labeling.masks)
    masks[masks.index(next(m for m in masks if m))] = 0
    broken = rb.RainbowLabeling(2, tuple(masks))
    bad = type(cert)(**{**cert.__dict__, "upper_labeling": broken})
    expect(op.check(bad) != [], "a certificate with a broken upper labeling is rejected")

    adj = checker.adjacency(6, workloads.path_edges(6))
    res = rb.min_dominating_set(rb.gen_path(6))
    short = type(res)(res.value - 1, frozenset(sorted(res.witness)[1:]), 0)
    expect(checker.check_set(adj, short, total=False) != [], "a non-dominating set is rejected")
    expect(checker.check_relations({"gamma": 3, "rd2": 7}) != [], "rd2 > 2 gamma is rejected")


def test_budgets_declared():
    for w in BENCH["workloads"]:
        budget = SPEC[w["name"]]["node_budget"]
        expect(w["why"].endswith(f"node budget {budget}"),
               f"{w['name']}: BENCHMARK.json states the node budget {budget}")


def test_refuses_without_sources():
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "invariants",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the sources it exits nonzero and prints no result")


if __name__ == "__main__":
    test_budgets_declared()
    test_checker_rejects()
    test_seeds()
    test_runs()
    test_refuses_without_sources()

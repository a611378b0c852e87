"""Self-test of the benchmark itself; exits nonzero on the first failure.

    python3 bench/selftest.py

Run it from the repository root.  It checks that

* each workload's invocation cycle is a pure function of the workload
  seed: two interpreters with different hash seeds list the same cycle,
  and different workload seeds give different CLI seeds; and no cycle
  times an entry with a known defect;
* the metric names the runner emits are exactly those BENCHMARK.json
  declares, for both the end-to-end and the traced pass;
* every trace boundary exists at this commit, and a boundary that does
  not exist is reported instead of silently skipped.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import trace_child  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402


def _listed(workload: str, seed: int, hash_seed: int) -> list:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--list"],
                          env=env, capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout)


def check_invocation_lists() -> None:
    for workload in WORKLOADS:
        timed_defects = set(WORKLOADS[workload].entries) & set(KNOWN_DEFECTS)
        if timed_defects:
            raise AssertionError(f"{workload}: known-defect entries in the timed cycle: "
                                 f"{sorted(timed_defects)}")
        seen = {}
        for seed in (0, 1, 2**40 + 3):
            first, second = _listed(workload, seed, 1), _listed(workload, seed, 2)
            if first != second:
                raise AssertionError(f"{workload} seed {seed}: invocation cycle depends on "
                                     "more than the workload seed")
            seen[seed] = [inv[1] for inv in first]
        if len({tuple(s) for s in seen.values()}) != len(seen):
            raise AssertionError(f"{workload}: different workload seeds give the same CLI seeds")


def _fake_records(traced: bool) -> list:
    return [run.Record("pointer", 1.0 + i / 10, 0, 40.0, trials=10, traced=traced and i % 2 == 0)
            for i in range(4)]


def check_metric_names() -> None:
    declared = run._declared(ROOT)
    e2e, _ = run.end_to_end_metrics(_fake_records(False), [0.2, 0.3])
    times = {"cli.dispatch.self_s": 0.1}
    exact = {"cli.dispatch.calls": 1}
    layer, _ = run.per_layer_metrics(_fake_records(True), [0.02, 0.03],
                                     [(times, exact), (times, exact)])
    for kind, metrics in (("end_to_end", e2e), ("per_layer", layer)):
        if set(metrics) != set(declared[kind]):
            raise AssertionError(f"{kind}: emitted and declared names differ: "
                                 f"{sorted(set(metrics) ^ set(declared[kind]))}")
    if sorted(declared["workloads"]) != sorted(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from bench/workloads.py")


def check_trace_boundaries() -> None:
    missing = trace_child.install(trace_child.Tracer())
    if missing:
        raise AssertionError(f"trace boundaries missing at this commit: {missing}")
    gone = ("bohmlab.cli", "no_such_boundary", "cli.no_such_boundary", None)
    trace_child.SPANNED += (gone,)
    try:
        if trace_child.install(trace_child.Tracer()) != ["bohmlab.cli.no_such_boundary"]:
            raise AssertionError("a missing trace boundary was not reported")
    finally:
        trace_child.SPANNED = trace_child.SPANNED[:-1]


def main() -> int:
    for check in (check_invocation_lists, check_metric_names, check_trace_boundaries):
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"PASS {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

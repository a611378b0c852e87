import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from bohmlab import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
from workloads import ENTRIES, WORKLOADS  # noqa: E402


def test_bench_selftest_passes():
    # the benchmark's own checks, including that every traced layer
    # boundary still exists in the program
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_entry_argv_parses(tmp_path, name):
    # an argv the CLI rejects fails every operation of its entry; this also
    # covers entries, such as nogo_mermin, that no timed cycle runs
    entry = ENTRIES[name]
    args = cli.build_parser().parse_args([*entry.argv, "--seed", "7", "--out", str(tmp_path)])
    assert args.seed == 7 and args.out == str(tmp_path) and args.quiet
    assert args.dump_frames == entry.frames
    if entry.scenario is not None:
        assert args.scenario.replace("-", "_") == entry.scenario
        assert (ROOT / args.config).is_file()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_cycle_enters_every_boundary(tmp_path, workload):
    # one traced cycle, as `bench/run.py --trace 1` runs it, at reduced
    # size: a boundary the program no longer reaches fails here, not in
    # the benchmark
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    counts = Counter()
    for name in WORKLOADS[workload].entries:
        entry = ENTRIES[name]
        argv = list(entry.argv) + ["--seed", "7", "--out", str(tmp_path / name)]
        if entry.scenario == "equilibrium":
            argv += ["--trajectories", "2000"]
        trace = tmp_path / f"{name}.json"
        proc = subprocess.run([sys.executable, "bench/trace_child.py", str(trace), *argv],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode in (0, 1), proc.stderr
        counts.update(run._trace_totals(json.loads(trace.read_text()))[1])
    never = [b for b in WORKLOADS[workload].enters if not counts[f"{b}.calls"]]
    assert not never, f"{workload} never entered {never}"

import functools
import importlib
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from bohmlab import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import trace_child  # noqa: E402
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


def test_every_traced_span_is_entered_on_the_main_thread(tmp_path, monkeypatch, usable_cpus):
    # the tracer keeps one stack of open spans for all threads, so a span
    # entered on a helper thread would take the calling thread's open span
    # as its parent.  An equilibrium run of 7000 x 41 positions on two
    # CPUs starts helper threads, and enters every span on this thread
    entered = []

    def recording(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered.append((name, threading.current_thread().name))
            return fn(*args, **kwargs)
        return wrapper

    for module_name, attr, name, _ in trace_child.SPANNED:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, recording(getattr(module, attr), name))
    usable_cpus(2)
    argv = ["sim", "equilibrium", "--config", str(ROOT / "configs" / "equilibrium_free.cfg"),
            "--trajectories", "7000", "--seed", "7", "--out", str(tmp_path), "--quiet"]
    assert cli.main(argv) in (0, 1)
    spans = {name for name, _ in entered}
    assert {"trajectories.sample_positions", "rng.sample_from_density",
            "trajectories.integrate", "trajectories.equilibrium_distance"} <= spans
    assert sorted({thread for _, thread in entered}) == ["MainThread"]

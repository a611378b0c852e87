"""bohmlab benchmark: end-to-end CLI timings behind a correctness gate,
and a separately run traced pass with per-layer numbers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --list

Run it from the repository root; it uses `src/` and `configs/` there.
Workloads, and why each was chosen, are in `bench/workloads.py` and
`BENCHMARK.json`.

Load is a closed loop with one client: each operation is one `bohmlab`
CLI process, started only after the previous one has exited.  The
runner repeats the workload's invocation cycle until `--seconds` have
passed (always whole cycles, so every config is equally represented)
and times each invocation from spawn to exit.  Between invocations it
times a fixed reference kernel, so host drift is visible beside every
result.

Correctness gate, applied to every invocation.  An invocation fails
when it exits nonzero, when `report.json` has a FAIL check, when an
expected output is missing, or when any output file's SHA-256 differs
from the first run of the same (config, seed) in this run.  Failures
are counted, never dropped.  `correct` in the result is false when an
invocation did not run to completion with complete, self-consistent
outputs (an exit status other than 0 or 1, a missing or unreadable
output, or a report whose exit status disagrees with the process's); a
FAIL verdict or a byte mismatch is the program's answer, counted in
`failed` and `ok_share` but not in `correct`.  Entries with a known
byte defect (`workloads.KNOWN_DEFECTS`) are not timed; each run probes
them twice with one seed and reports whether their bytes differed.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates
traced and untraced cycles and prints the per-layer metrics, the exact
work counts of one cycle (which must repeat exactly from cycle to
cycle) and the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import host
from trace_child import MISSING_STATUS
from workloads import ENTRIES, KNOWN_DEFECTS, WORKLOADS, defect_probes, invocation_cycle

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 7
BROKEN = ("exit", "missing")


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


@dataclass
class Record:
    entry: str
    wall: float
    status: int
    rss_mb: float
    failure: str | None = None
    trials: int = 0
    traced: bool = False


class Session:
    """Child processes and the scratch output directory of one run."""

    def __init__(self, root: Path):
        self.root = root
        self.work = root / ".bench_work" / str(os.getpid())
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        self.child = None

    def __enter__(self):
        self.work.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        if self.child is not None and self.child.poll() is None:
            self.child.kill()
            self.child.wait()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def spawn(self, cmd: list[str]) -> tuple[float, int, float]:
        """Run one child to completion: (wall s, exit status, peak RSS MB)."""
        with open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            self.child = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                          stdin=subprocess.DEVNULL,
                                          stdout=subprocess.DEVNULL, stderr=err)
            _, wait_status, usage = os.wait4(self.child.pid, 0)
            wall = time.perf_counter() - start
        self.child.returncode = os.waitstatus_to_exitcode(wait_status)
        self.child = None
        return wall, os.waitstatus_to_exitcode(wait_status), usage.ru_maxrss / 1024.0

    def stderr_tail(self) -> str:
        return (self.work / "stderr.txt").read_text(errors="replace")[-2000:]

    @property
    def out(self) -> Path:
        return self.work / "out"

    def invoke(self, inv, trace_path: Path | None = None) -> Record:
        shutil.rmtree(self.out, ignore_errors=True)
        if trace_path is None:
            cmd = [sys.executable, "-m", "bohmlab.cli"]
        else:
            trace_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(trace_path)]
        wall, status, rss = self.spawn(cmd + list(inv.argv) + ["--out", str(self.out)])
        return Record(inv.entry, wall, status, rss, traced=trace_path is not None)


def _output_hashes(out: Path) -> dict[str, str]:
    hashes = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            hashes[path.relative_to(out).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


class Gate:
    """The correctness gate; remembers the first outputs of each (config, seed)."""

    def __init__(self):
        self.first = {}
        self.failures = Counter()
        self.examples = {}

    def check(self, inv, rec: Record, out: Path) -> None:
        rec.failure, rec.trials, detail = self._check(inv, rec.status, out)
        if rec.failure:
            self.failures[rec.failure] += 1
            self.examples.setdefault(rec.failure, f"{inv.entry} seed {inv.seed}: {detail}")

    def _check(self, inv, status: int, out: Path):
        if status not in (0, 1):
            return "exit", 0, f"exit status {status}"
        try:
            report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError) as exc:
            return "missing", 0, f"report.json unreadable ({exc})"
        if report["exit_status"] != status:
            return "exit", 0, f"exit status {status}, report says {report['exit_status']}"
        failed_checks = [c["name"] for c in report["checks"] if not c["passed"]]
        if status != 0 or failed_checks:
            return "verdict", 0, f"FAIL {failed_checks}"
        entry = ENTRIES[inv.entry]
        config = report["config"]
        expected = ["report.txt", "report.json", *entry.outputs]
        if entry.frames:
            expected += [f"frames/frame_{i:04d}.txt" for i in range(int(config["n_frames"]) + 1)]
        hashes = _output_hashes(out)
        missing = [name for name in expected if name not in hashes]
        if missing:
            return "missing", 0, f"missing {missing}"
        reference = self.first.setdefault((inv.entry, inv.seed), hashes)
        if hashes != reference:
            differ = sorted(k for k in hashes.keys() | reference.keys()
                            if hashes.get(k) != reference.get(k))
            return "bytes", 0, f"differs from the first run: {differ}"
        stages = len(report["results"].get("stages", [])) or 1
        return None, int(config.get("n_trials", 0)) * stages, ""


def _per_entry(records: list, field: str) -> list[float]:
    """Each entry's median of one Record field, in cycle order."""
    values = defaultdict(list)
    for r in records:
        values[r.entry].append(getattr(r, field))
    return [statistics.median(v) for v in values.values()]


def _p50(records: list) -> float:
    """Typical invocation time: each entry's median wall time, combined
    over the cycle's entries by geometric mean.  A median over the mixed
    invocations would jump between entries whose times differ by 3x."""
    return math.exp(statistics.fmean(math.log(w) for w in _per_entry(records, "wall")))


def _tail(records: list) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten
    invocations beyond it.  With 20 invocations or fewer that percentile
    is at or below the median, so `run_s.p50` is reported (percentile 50)."""
    ordered = sorted(r.wall for r in records)
    n = len(ordered)
    if n <= 20:
        return _p50(records), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _output_bytes(out: Path) -> dict[str, int]:
    sizes = defaultdict(int)
    for path in out.rglob("*"):
        if path.is_file():
            size = path.stat().st_size
            sizes["cli.output.bytes"] += size
            if path.name.startswith("report."):
                sizes["cli.output.report.bytes"] += size
            elif path.name == "histograms.csv":
                sizes["cli.output.histograms.bytes"] += size
    return sizes


def _trace_totals(trace: dict) -> tuple[dict, dict]:
    """Span times and exact counts of one traced invocation."""
    spans = trace["spans"]
    duration = [end - start for _, _, start, end in spans]
    in_children = [0.0] * len(spans)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            in_children[parent] += duration[i]
    times = defaultdict(float)
    exact = defaultdict(int, trace["counts"])
    for i, (name, parent, _, _) in enumerate(spans):
        times[f"{name}.s"] += duration[i]
        times[f"{name}.self_s"] += duration[i] - in_children[i]
        exact[f"{name}.calls"] += 1
        if name.startswith("nogo.") and (parent < 0 or not spans[parent][0].startswith("nogo.")):
            times["nogo.s"] += duration[i]
            exact["nogo.calls"] += 1
    return times, exact


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(times: dict, exact: dict) -> dict:
    """Per-layer metrics of one cycle from span times and exact counts."""
    t = defaultdict(float, times)
    c = defaultdict(int, exact)
    m = {
        "wavefield.evolve_frames.s": t["wavefield.evolve_frames.s"],
        "wavefield.evolve.steps": c["wavefield.evolve.steps"],
        "wavefield.evolve.ns_per_point_step":
            _ratio(t["wavefield.evolve.s"], c["wavefield.evolve.point_steps"], 1e9),
        "numpy.fft.calls": c["numpy.fft.calls"],
        "numpy.fft.points": c["numpy.fft.points"],
        "wavefield.velocity_field.s": t["wavefield.velocity_field.s"],
        "wavefield.velocity_field.calls": c["wavefield.velocity_field.calls"],
        "wavefield.branch_supports.s": t["wavefield.branch_supports.s"],
        "wavefield.write_frame.s": t["wavefield.write_frame.s"],
        "wavefield.write_frame.bytes": c["wavefield.write_frame.bytes"],
        "trajectories.integrate.s": t["trajectories.integrate.s"],
        "trajectories.integrate.traj_substeps": c["trajectories.integrate.traj_substeps"],
        "trajectories.integrate.ns_per_traj_substep":
            _ratio(t["trajectories.integrate.s"], c["trajectories.integrate.traj_substeps"], 1e9),
        "numpy.interp.calls": c["numpy.interp.calls"],
        "numpy.interp.points": c["numpy.interp.points"],
        "trajectories.write_ensemble.s": t["trajectories.write_ensemble.s"],
        "trajectories.write_ensemble.bytes": c["trajectories.write_ensemble.bytes"],
        "trajectories.write_ensemble.mb_per_s":
            _ratio(c["trajectories.write_ensemble.bytes"] / 1e6, t["trajectories.write_ensemble.s"]),
        "trajectories.sample_positions.s": t["trajectories.sample_positions.s"],
        "trajectories.sample_positions.draws": c["trajectories.sample_positions.draws"],
        "trajectories.equilibrium_distance.s": t["trajectories.equilibrium_distance.s"],
        "trajectories.check_no_crossing.s": t["trajectories.check_no_crossing.s"],
        "rng.sample_from_density.s": t["rng.sample_from_density.s"],
        "rng.sample_from_density.draws": c["rng.sample_from_density.draws"],
        "conditional.run_pointer_measurement.s": t["conditional.run_pointer_measurement.s"],
        "conditional.run_pointer_measurement.trials":
            c["conditional.run_pointer_measurement.trials"],
        "conditional.run_pointer_measurement.us_per_trial":
            _ratio(t["conditional.run_pointer_measurement.s"],
                   c["conditional.run_pointer_measurement.trials"], 1e6),
        "conditional.write_trials.s": t["conditional.write_trials.s"],
        "conditional.write_trials.bytes": c["conditional.write_trials.bytes"],
        "nogo.s": t["nogo.s"],
        "config.parse_config.s": t["config.parse_config.s"],
        "cli.dispatch.self_s": t["cli.dispatch.self_s"],
        "cli.output.bytes": c["cli.output.bytes"],
        "cli.output.report.bytes": c["cli.output.report.bytes"],
        "cli.output.histograms.bytes": c["cli.output.histograms.bytes"],
    }
    for harness in ("stern_gerlach", "sequential", "no_crossing_check",
                    "equilibrium_experiment", "pointer_experiment"):
        m[f"experiments.{harness}.self_s"] = t[f"experiments.{harness}.self_s"]
    return m


def setup_command(workload: str) -> list[str]:
    args = []
    for name in WORKLOADS[workload].entries:
        entry = ENTRIES[name]
        if entry.scenario is not None:
            args += [entry.config_path, entry.scenario]
    return [sys.executable, str(BENCH_DIR / "setup_probe.py")] + args


def probe_setup(session: Session, cmd: list[str]) -> float:
    wall, status, _ = session.spawn(cmd)
    if status != 0:
        raise BenchError(f"set-up probe exited {status}: {session.stderr_tail()}")
    return wall


def run_cycles(session: Session, gate: Gate, cycle, seconds: float, trace: bool,
               setup_cmd: list[str] | None):
    """Repeat whole cycles for about `seconds`: another cycle starts while
    the run would overrun by at most half a cycle.  With `trace`,
    even-numbered cycles are traced and odd ones plain, and at least one
    of each runs.  With `setup_cmd`, the set-up probe runs once untimed
    (to fill the bytecode cache, which a user also fills only once), then
    SETUP_REPEATS times spread evenly over the run, so the median samples
    the whole run rather than one moment."""
    records, probes, traced_cycles, setup = [], [], [], []
    trace_path = session.work / "trace.json"
    if setup_cmd:
        probe_setup(session, setup_cmd)
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if k >= (2 if trace else 1) and elapsed + 0.5 * elapsed / k > seconds:
            break
        if setup_cmd and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(probe_setup(session, setup_cmd))
        traced = trace and k % 2 == 0
        times, exact = defaultdict(float), defaultdict(int)
        for inv in cycle:
            rec = session.invoke(inv, trace_path if traced else None)
            if traced:
                if rec.status == MISSING_STATUS:
                    raise BenchError(f"trace guard: {session.stderr_tail().strip()}")
                try:
                    data = json.loads(trace_path.read_text())
                except (OSError, ValueError) as exc:
                    raise BenchError(f"{inv.entry}: no trace written ({exc}); "
                                     f"{session.stderr_tail()}") from None
                t, e = _trace_totals(data)
                for key, value in t.items():
                    times[key] += value
                for key, value in e.items():
                    exact[key] += value
                for key, value in _output_bytes(session.out).items():
                    exact[key] += value
            gate.check(inv, rec, session.out)
            records.append(rec)
            probes.append(host.reference_kernel())
        if traced:
            traced_cycles.append((dict(times), dict(exact)))
        k += 1
    while setup_cmd and len(setup) < SETUP_REPEATS:
        setup.append(probe_setup(session, setup_cmd))
    return records, probes, traced_cycles, setup


def probe_known_defects(session: Session, workload: str, seed: int) -> tuple[list[str], int]:
    """Run each known-defect entry of the workload twice with one seed,
    untimed and outside `attempted`.  A byte mismatch is the known defect
    and is reported; any other failure returns as broken."""
    lines, broken = [], 0
    for inv in defect_probes(workload, seed):
        gate = Gate()
        for _ in range(2):
            gate.check(inv, session.invoke(inv), session.out)
        other = {k: n for k, n in gate.failures.items() if k != "bytes"}
        broken += sum(other.values())
        verdict = ("the two runs differ" if gate.failures["bytes"]
                   else "the two runs matched this time")
        lines.append(f"known defect, not timed: {inv.entry} seed {inv.seed}: "
                     f"{KNOWN_DEFECTS[inv.entry][1]}; {verdict}")
        lines += [f"  failed {k}: {gate.examples[k]}" for k in sorted(gate.failures)]
    return lines, broken


def end_to_end_metrics(records: list, setup: list) -> tuple[dict, str]:
    attempted = len(records)
    tail, percentile = _tail(records)
    metrics = {
        "run_s.p50": _p50(records),
        "run_s.tail": tail,
        "trials_per_s": sum(_per_entry(records, "trials")) / sum(_per_entry(records, "wall")),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.rss_mb for r in records),
        "ok_share": sum(1 for r in records if not r.failure) / attempted,
    }
    return metrics, (f"run_s.tail is p{percentile:.1f} of {attempted} invocations; "
                     f"setup_s is the median of {len(setup)} probes")


def per_layer_metrics(records: list, probes: list, traced_cycles) -> tuple[dict, str]:
    """Layer times are medians over the traced cycles; counts are those of
    one cycle, which `check_trace` has shown to repeat exactly."""
    exact = traced_cycles[0][1]
    per_cycle = [layer_metrics(times, exact) for times, _ in traced_cycles]
    metrics = {name: (statistics.median(m[name] for m in per_cycle)
                      if isinstance(value, float) else value)
               for name, value in per_cycle[0].items()}
    traced = _p50([r for r in records if r.traced])
    plain = _p50([r for r in records if not r.traced])
    metrics["trace.run_s.p50"] = traced
    metrics["trace.overhead_s"] = traced - plain
    metrics["host.ref_s"] = statistics.median(probes)
    metrics["host.ref_s.spread"] = _spread(probes)
    return metrics, (f"traced cycles: {len(traced_cycles)}; tracing overhead "
                     f"{traced - plain:+.4f} s on run_s.p50 ({plain:.4f} s untraced)")


def check_trace(workload: str, traced_cycles) -> None:
    """Trace guards, and exact counts that repeat from cycle to cycle."""
    first = traced_cycles[0][1]
    for i, (_, exact) in enumerate(traced_cycles[1:], start=2):
        if exact != first:
            differ = sorted(k for k in exact.keys() | first.keys()
                            if exact.get(k) != first.get(k))
            raise BenchError(f"exact counts differ between traced cycles 1 and {i}: {differ}")
    never = [b for b in WORKLOADS[workload].enters if not first.get(f"{b}.calls")]
    if never:
        raise BenchError(f"trace guard: workload {workload!r} never entered {never}")


def _declared(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


def _check_checkout(root: Path) -> None:
    for rel in ("BENCHMARK.json", "src/bohmlab/cli.py", "configs"):
        if not (root / rel).exists():
            raise BenchError(f"{rel} not found under {root}; run from the repository root")
    needed = {ENTRIES[n].config_path for w in WORKLOADS.values() for n in w.entries} - {None}
    absent = sorted(p for p in needed if not (root / p).is_file())
    if absent:
        raise BenchError(f"shipped configs missing: {absent}")


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def run(args, root: Path) -> tuple[dict, list[str]]:
    declared = _declared(root)
    cycle = invocation_cycle(args.workload, args.seed)
    gate = Gate()
    lines = [f"host: {json.dumps(host.host_record(), sort_keys=True)}"]
    with Session(root) as session:
        defect_lines, defects_broken = probe_known_defects(session, args.workload, args.seed)
        records, probes, traced_cycles, setup = run_cycles(
            session, gate, cycle, args.seconds, args.trace == 1,
            None if args.trace else setup_command(args.workload))

    attempted = len(records)
    failed = sum(1 for r in records if r.failure)
    broken = sum(gate.failures[k] for k in BROKEN) + defects_broken
    lines.append(f"invocations: {attempted} ({len(cycle)} per cycle), failed {failed} "
                 f"(failed_share {failed / attempted:.4f} fraction)")
    for kind, count in sorted(gate.failures.items()):
        lines.append(f"  failed {kind}: {count}, first: {gate.examples[kind]}")
    for name in dict.fromkeys(r.entry for r in records):
        walls = [r.wall for r in records if r.entry == name and not r.traced]
        if walls:
            lines.append(f"  {name}: n={len(walls)} median {statistics.median(walls):.4f} s "
                         f"min {min(walls):.4f} s max {max(walls):.4f} s")
    lines += defect_lines
    lines.append(f"host.ref_s = {statistics.median(probes):.6f} s "
                 f"(spread {_spread(probes):.4f}, n={len(probes)})")

    if args.trace == 0:
        kind = "end_to_end"
        metrics, note = end_to_end_metrics(records, setup)
    else:
        kind = "per_layer"
        check_trace(args.workload, traced_cycles)
        metrics, note = per_layer_metrics(records, probes, traced_cycles)
    lines.append(note)

    if set(metrics) != set(declared[kind]):
        raise BenchError(f"emitted {kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared[kind]))}")
    for name, value in metrics.items():
        lines.append(f"{name} = {value} {declared[kind][name]['unit']}")
    result = {
        "correct": broken == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[kind][name]["unit"]}
                    for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print the workload's invocation cycle as JSON and exit")
    args = parser.parse_args(argv)
    if args.list:
        print(json.dumps([[i.entry, i.seed, list(i.argv)]
                          for i in invocation_cycle(args.workload, args.seed)]))
        return 0

    signal.signal(signal.SIGTERM, _on_sigterm)
    root = Path.cwd()
    try:
        _check_checkout(root)
        result, lines = run(args, root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one `bohmlab` CLI invocation with spans around every layer boundary.

    python3 bench/trace_child.py TRACE_JSON CLI_ARG...

Each boundary is the name bound in the calling module (for example
`experiments.integrate`, which the scenario harnesses call), so the
program itself is unchanged.  A span records its name, its parent span
and its start and end; counters record exact work counts at the same
boundaries.  `numpy.fft.fft`/`ifft` and `numpy.interp` are counted, not
spanned, because they are called tens of thousands of times per run.

Spans stay in memory and are written to TRACE_JSON when the CLI returns.
If a boundary no longer exists the child writes {"missing": [...]} and
exits with status 3 without running the CLI.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

MISSING_STATUS = 3


def _file_bytes(a):
    return {"bytes": os.path.getsize(a["path"])}


def _evolve(a):
    return {"steps": a["steps"], "point_steps": a["steps"] * a["field"].grid.n_points}


def _integrate(a):
    n_intervals = len(a["frames"]) - 1
    return {"traj_substeps": int(np.size(a["initial_positions"])) * n_intervals
            * a["substeps_per_frame"]}


def _draws(a):
    return {"draws": a["n"]}


def _trials(a):
    return {"trials": a["n_trials"]}


_NOGO = ("build_mermin_square", "mermin_constraints", "verify_square_identities",
         "search_noncontextual_assignment", "von_neumann_counterexample",
         "chsh_local_bound", "chsh_quantum_value")

# (module, attribute the caller looks up, span name, counter)
SPANNED = (
    ("bohmlab.cli", "dispatch", "cli.dispatch", None),
    ("bohmlab.cli", "parse_config", "config.parse_config", None),
    ("bohmlab.cli", "write_frame", "wavefield.write_frame", _file_bytes),
    ("bohmlab.cli", "write_ensemble", "trajectories.write_ensemble", _file_bytes),
    ("bohmlab.cli", "write_trials", "conditional.write_trials", _file_bytes),
    ("bohmlab.experiments", "stern_gerlach", "experiments.stern_gerlach", None),
    ("bohmlab.experiments", "sequential", "experiments.sequential", None),
    ("bohmlab.experiments", "no_crossing_check", "experiments.no_crossing_check", None),
    ("bohmlab.experiments", "equilibrium_experiment", "experiments.equilibrium_experiment", None),
    ("bohmlab.experiments", "pointer_experiment", "experiments.pointer_experiment", None),
    ("bohmlab.experiments", "evolve_frames", "wavefield.evolve_frames", None),
    ("bohmlab.experiments", "branch_supports", "wavefield.branch_supports", None),
    ("bohmlab.experiments", "sample_positions", "trajectories.sample_positions", _draws),
    ("bohmlab.experiments", "integrate", "trajectories.integrate", _integrate),
    ("bohmlab.experiments", "check_no_crossing", "trajectories.check_no_crossing", None),
    ("bohmlab.experiments", "equilibrium_distance", "trajectories.equilibrium_distance", None),
    ("bohmlab.experiments", "run_pointer_measurement", "conditional.run_pointer_measurement",
     _trials),
    ("bohmlab.wavefield", "evolve", "wavefield.evolve", _evolve),
    ("bohmlab.trajectories", "velocity_field", "wavefield.velocity_field", None),
    ("bohmlab.rng", "sample_from_density", "rng.sample_from_density", _draws),
) + tuple(("bohmlab.nogo", fn, f"nogo.{fn}", None) for fn in _NOGO)

# (module, attribute, counter name): counted by calls and input points
COUNTED = (
    ("numpy.fft", "fft", "numpy.fft"),
    ("numpy.fft", "ifft", "numpy.fft"),
    ("numpy", "interp", "numpy.interp"),
)


class Tracer:
    def __init__(self):
        self.spans = []                   # [name, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self._stack = []

    def spanned(self, fn, name, counter):
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments).items():
                    self.counts[f"{name}.{key}"] += int(value)
            return result
        return traced

    def counted(self, fn, name):
        # called ~10^5 times per cycle, so it keeps to the cheapest operations
        counts = self.counts
        calls, points = f"{name}.calls", f"{name}.points"
        ndarray = np.ndarray

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            x = args[0] if args else next(iter(kwargs.values()))
            counts[calls] += 1
            counts[points] += x.size if type(x) is ndarray else int(np.size(x))
            return fn(*args, **kwargs)
        return counting


def install(tracer: Tracer) -> list[str]:
    """Wrap every boundary; return the boundaries that no longer exist."""
    targets = [(m, a, tracer.spanned, (n, c)) for m, a, n, c in SPANNED]
    targets += [(m, a, tracer.counted, (n,)) for m, a, n in COUNTED]
    missing = []
    resolved = []
    for module_name, attr, make, extra in targets:
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            continue
        resolved.append((module, attr, make, fn, extra))
    if not missing:
        for module, attr, make, fn, extra in resolved:
            setattr(module, attr, make(fn, *extra))
    return missing


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer)
    if missing:
        with open(trace_path, "w") as fh:
            json.dump({"missing": missing}, fh)
        print(f"trace boundaries no longer exist: {', '.join(missing)}", file=sys.stderr)
        return MISSING_STATUS
    cli = importlib.import_module("bohmlab.cli")
    try:
        return cli.main(cli_args)
    finally:
        with open(trace_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

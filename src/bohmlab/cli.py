"""Command-line entry point.

Subcommands:

    bohmlab nogo mermin|vonneumann|chsh
    bohmlab sim stern-gerlach|sequential|no-crossing|equilibrium|pointer

Flags: --config PATH, --seed N, --out DIR and --quiet on every
subcommand; --trajectories N on `sim` only; --dump-frames on
`sim stern-gerlach` and `sim equilibrium` only.  Seed precedence: --seed
beats the config file, which beats the default 42; a no-go check reads
no seed, so `nogo` ignores --seed.

`main(argv)` parses the arguments once and hands the namespace to
`dispatch(args)`.  `SCENARIOS` maps each scenario to its runner and to
whether it honours --dump-frames (`config._SCENARIOS` holds its keys),
and the parser is built from it (a scenario in `config.NOGO_SCENARIOS`
is a `nogo` subcommand, any other a `sim` one); when the arguments name
a subcommand, only its parser is built.  A runner runs its scenario,
writes its own tables and returns its results tree, its checks and the
files it wrote; one runner serves the three no-go checks.  `cli` decides
no verdict: `experiments` builds every simulation's checks and `nogo`
every no-go check's.  Every run writes `report.json` and `report.txt`:
the config echo, the results tree (as `key = value` lines in the text
report) and the declared checks, each a value, relation and bound made
by `config.gate` (one `PASS|FAIL name: value relation bound` line each
in `report.txt`, the check's `str`); `report.json` also lists the run's
other files as `outputs`.  Trajectory scenarios add `ensemble.csv`, the
pointer scenario `trials.csv`, the equilibrium scenario
`histograms.csv`, and --dump-frames a `frames/` directory, one
`write_frame` per file, given its cells: `_write_frames` formats the
node column once and the amplitudes of a stack of frames (about
`table._CHUNK_VALUES` values, 4 frames of 512 nodes) in one call.  Both
reports and every CSV table begin with the config hash; the frame dumps
do not.
Nothing in a file depends on the clock, so re-running an invocation
reproduces every file byte for byte.  Every file is made by
`serialize.create`, so a re-run into the same --out replaces each file
rather than truncating it.  Before the run, `dispatch` makes both
reports anew and empty: an --out they cannot be written to fails
before the run, and a run that then exits 2 leaves them empty, not an
earlier run's.
The exit status is 0 exactly when all declared checks pass.  A config
that its run would reject fails in `config.validate_config`, before the
output directory is made.  A `nogo` run never imports numpy: here only
the table writers that use it do.

`python -m bohmlab.cli` and the `bohmlab` script run `entry_point()`:
it calls `main()`, flushes stdout and stderr and ends the process with
`os._exit(status)`, skipping the interpreter's teardown; if a flush
fails it exits the ordinary way, which reports the failure.  A library
call `main(argv)` is unchanged: it returns the exit status.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .config import (
    NOGO_SCENARIOS,
    ConfigError,
    canonical_text,
    config_hash,
    default_config,
    parse_config,
    with_overrides,
)
from .serialize import create, fmt, json_text


def _load_config(args, scenario: str):
    cfg = (default_config(scenario) if args.config is None
           else parse_config(Path(args.config).read_text(), scenario=scenario))
    return with_overrides(cfg, seed=args.seed, n_trials=args.trajectories)


# Runners: (cfg, out, chash, dump_frames) -> (results, checks, outputs),
# outputs being the files the runner wrote, relative to `out`.  A sim
# runner imports `experiments`, the no-go runner `nogo`, when it runs, so
# an invocation loads only the modules of its own subcommand.  They look
# experiments.*, nogo.* and the writers below up at call time, so wrapping
# those names (as a tracer does) reaches every run.

def _stern_gerlach(cfg, out, chash, dump_frames):
    from . import experiments
    result = experiments.stern_gerlach(cfg)
    write_ensemble(result.ensemble, out / "ensemble.csv", config_hash=chash, seed=cfg.seed)
    frames = _write_frames(result.frames, out) if dump_frames else []
    return ({"detection_time": result.detection_time,
             "statistics": result.statistics._asdict()},
            result.checks, ["ensemble.csv", *frames])


def _sequential(cfg, out, chash, dump_frames):
    from . import experiments
    result = experiments.sequential(cfg)
    return ({"stages": [{"axis": axis, "statistics": st._asdict()}
                        for axis, st in zip(cfg.axes, result.stage_statistics)]},
            result.checks, [])


def _no_crossing(cfg, out, chash, dump_frames):
    from . import experiments
    result = experiments.no_crossing_check(cfg)
    write_ensemble(result.ensemble, out / "ensemble.csv", config_hash=chash, seed=cfg.seed)
    first = result.crossing_report.first_violation
    return ({"violations": result.crossing_report.violations,
             "first_violation": None if first is None else
             {"trajectories": list(first[0]), "frame": first[1]},
             "inference_accuracy": result.inference_accuracy,
             "statistics": result.statistics._asdict()}, result.checks, ["ensemble.csv"])


def _equilibrium(cfg, out, chash, dump_frames):
    from . import experiments
    result = experiments.equilibrium_experiment(cfg)
    write_ensemble(result.ensemble, out / "ensemble.csv", config_hash=chash, seed=cfg.seed)
    _write_histograms(result, out / "histograms.csv", chash)
    frames = _write_frames(result.frames, out) if dump_frames else []
    return ({"total_variation": [c.total_variation for c in result.comparisons]},
            result.checks, ["ensemble.csv", "histograms.csv", *frames])


def _pointer(cfg, out, chash, dump_frames):
    from . import experiments
    result = experiments.pointer_experiment(cfg)
    write_trials(result.measurement, out / "trials.csv", config_hash=chash)
    return ({"min_purity": result.measurement.min_purity,
             "branch_overlap": result.measurement.branch_overlap,
             "statistics": result.statistics._asdict()}, result.checks, ["trials.csv"])


def _nogo(cfg, out, chash, dump_frames):
    from . import nogo
    return (*getattr(nogo, cfg.scenario)(), [])


# scenario -> (runner, honours --dump-frames)
SCENARIOS = {
    "stern_gerlach": (_stern_gerlach, True),
    "sequential": (_sequential, False),
    "no_crossing": (_no_crossing, False),
    "equilibrium": (_equilibrium, True),
    "pointer": (_pointer, False),
    "mermin": (_nogo, False),
    "vonneumann": (_nogo, False),
    "chsh": (_nogo, False),
}


# The tables of a sim run.  Each imports the table writer when it runs, so
# a no-go run, which writes none, does not load it.

def write_ensemble(ensemble, path, config_hash: str, seed: int) -> None:
    """Tabular text: one row per (trajectory, frame) of a
    `trajectories.Ensemble`, under a header naming the run's config hash
    and seed."""
    import numpy as np
    from .table import write_table
    ids = np.arange(ensemble.n_trajectories)[:, None]
    write_table(path, [f"# config_hash={config_hash} seed={seed}", "trajectory_id,time,position"],
                [ids, ensemble.frame_times, ensemble.positions])


def write_frame(field, path, cells) -> None:
    """Dump one `wavefield.SpinorField` frame as structured text; it
    round-trips bit-exactly.  `cells` are the table cells of its five
    columns, formatted beforehand (see `_write_frames`)."""
    from .table import write_cells
    grid = field.grid
    write_cells(path, [f"# spinor-frame x_min={fmt(grid.x_min)} x_max={fmt(grid.x_max)}"
                       f" n_points={grid.n_points} time={fmt(field.time)}",
                       "# x re_up im_up re_down im_down"], cells)


def write_trials(measurement, path, config_hash: str) -> None:
    """Per-trial table of a `conditional.PointerMeasurement`: trial_id,
    pointer value, outcome, collapsed spinor."""
    import numpy as np
    from .table import write_table
    up, down = measurement.collapsed.T
    write_table(path, [f"# config_hash={config_hash}",
                       "trial_id,y,outcome,re_up,im_up,re_down,im_down"],
                [np.arange(len(measurement.y)), measurement.y, measurement.outcome,
                 up.real, up.imag, down.real, down.imag])


def _write_frames(frames, out: Path) -> list[str]:
    """One `write_frame` per frame of a run, all on one grid, into
    `out/frames`; returns their paths relative to `out`.  The node
    column is formatted once, and the amplitudes of a stack of frames
    (about `table._CHUNK_VALUES` values) in one call."""
    from . import table
    names = [f"frames/frame_{i:04d}.txt" for i in range(len(frames))]
    (out / "frames").mkdir(exist_ok=True)
    grid = frames[0].grid
    nodes = table.format_cells([grid.nodes])[0]
    stack = max(1, table._CHUNK_VALUES // (4 * grid.n_points))
    for lo in range(0, len(frames), stack):
        amplitudes = table.format_cells([part for frame in frames[lo:lo + stack]
                                         for a in (frame.up, frame.down)
                                         for part in (a.real, a.imag)])
        for i, frame in enumerate(frames[lo:lo + stack]):
            write_frame(frame, out / names[lo + i],
                        cells=[nodes, *amplitudes[4 * i:4 * i + 4]])
    return names


def _write_histograms(result, path, chash: str) -> None:
    from .table import write_table
    comps = result.comparisons
    write_table(path, [f"# config_hash={chash}", "frame,bin_left,bin_right,empirical,theoretical"],
                [[[i] for i in range(len(comps))], [c.bin_edges[:-1] for c in comps],
                 [c.bin_edges[1:] for c in comps], [c.empirical_mass for c in comps],
                 [c.theoretical_mass for c in comps]])


def _result_lines(tree, prefix: str = ""):
    """`key = value` lines of a results tree: nested keys joined by `.`,
    a list of dicts indexed by position, a list of scalars on one line,
    None as `null` (as in report.json)."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        name = f"{prefix}{key}"
        if isinstance(value, dict) or (isinstance(value, (list, tuple)) and value
                                       and isinstance(value[0], dict)):
            yield from _result_lines(value, name + ".")
        elif isinstance(value, (list, tuple)):
            yield f"{name} = {' '.join(map(fmt, value))}"
        elif value is None:
            yield f"{name} = null"
        else:
            yield f"{name} = {fmt(value)}"


def dispatch(args: argparse.Namespace) -> int:
    """Run the parsed invocation, write its reports, and return the exit status.
    A bad config, a run that cannot complete or allocate, or an output path
    that cannot be written prints one `error:` line and returns 2."""
    try:
        scenario = args.scenario.replace("-", "_")
        cfg = _load_config(args, scenario)
        chash = config_hash(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name in ("report.json", "report.txt"):   # fail before the run, and
            create(out / name).close()               # leave no earlier run's report
        runner, _ = SCENARIOS[scenario]
        results, checks, outputs = runner(cfg, out, chash, args.dump_frames)
        status = 0 if all(c.passed for c in checks) else 1
        echo = canonical_text(cfg).rstrip("\n")
        subcommand = f"{args.group} {args.scenario}"
        report_lines = [f"config_hash: {chash}", f"subcommand: {subcommand}", "",
                        "-- config --", echo, "", "-- results --", *_result_lines(results), "",
                        "-- checks --", *map(str, checks), "", f"exit: {status}"]
        with create(out / "report.txt") as fh:
            fh.write(("\n".join(report_lines) + "\n").encode())
        json_report = {
            "config_hash": chash,
            "subcommand": subcommand,
            "config": {line.split(" = ")[0]: line.split(" = ", 1)[1]
                       for line in echo.splitlines()},
            "results": results,
            "checks": [c._asdict() for c in checks],
            "exit_status": status,
            "outputs": sorted(outputs),
        }
        with create(out / "report.json") as fh:
            fh.write((json_text(json_report) + "\n").encode())
    except (ConfigError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2

    if not args.quiet:
        for line in report_lines:
            print(line)
    return status


def _subcommand(scenario: str) -> tuple:
    """The group and subcommand words that invoke `scenario`."""
    return ("nogo" if scenario in NOGO_SCENARIOS else "sim", scenario.replace("_", "-"))


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with `only` (a scenario) that
    of its subcommand alone beside the two groups: it parses that
    subcommand's arguments, and prints their help and usage errors, as
    the full parser does."""
    parser = argparse.ArgumentParser(
        prog="bohmlab",
        description="Pilot-wave dynamics laboratory: deflection experiments, "
                    "equilibrium statistics, pointer measurements and "
                    "no-hidden-variables checks.")
    parser.set_defaults(trajectories=None, dump_frames=False)
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {group: sub.add_parser(group, help=help_text).add_subparsers(dest="scenario",
                                                                          required=True)
              for group, help_text in (("nogo", "no-hidden-variables checks"),
                                       ("sim", "simulation scenarios"))}
    for scenario, (_, dump_frames) in SCENARIOS.items():
        if only not in (None, scenario):
            continue
        group, name = _subcommand(scenario)
        sim = group == "sim"
        p = groups[group].add_parser(name)
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default="bohmlab-out", help="output directory")
        p.add_argument("--quiet", action="store_true")
        if sim:
            p.add_argument("--trajectories", type=int, default=None,
                           help="override the number of trajectories/trials")
        if dump_frames:
            p.add_argument("--dump-frames", action="store_true",
                           help="also write wave-function frames")
    return parser


def main(argv=None) -> int:
    """Run one invocation and return its exit status.  Called with no
    arguments, as `entry_point` calls it for `python -m bohmlab.cli` and
    the `bohmlab` script, it reads sys.argv and first turns the cyclic
    garbage collector off for the rest of the process.  Its passes, dozens
    of them while numpy's import makes its objects, would free nothing: a
    run's data are numpy arrays and acyclic records, a helper thread drops
    its reference cycle when it ends, and the process ends in `os._exit`.
    Before numpy loads, it also asks OpenBLAS for one thread unless the
    environment sets `OPENBLAS_NUM_THREADS`: no bohmlab call is large
    enough for BLAS threads, and their idle workers spin on the CPU that
    the run's own helper thread needs.  A library call with an argument
    list changes neither.

    When the first two arguments name a subcommand, only its parser is
    built (`build_parser(only=...)`); any other argument list, a bare
    `--help` or a mistyped subcommand, gets the full parser."""
    if argv is None:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        gc.disable()
        argv = sys.argv[1:]
    invoked = {_subcommand(scenario): scenario for scenario in SCENARIOS}
    return dispatch(build_parser(invoked.get(tuple(argv[:2]))).parse_args(argv))


def entry_point() -> None:
    """The process entry point (`python -m bohmlab.cli`, the `bohmlab`
    script): run `main()`, flush stdout and stderr, and end the process
    with `os._exit(status)`.  Every output file is closed and every helper
    thread has ended by then, so the interpreter's teardown (freeing every
    module and object one by one) would only cost time.  If a flush
    fails, the ordinary exit runs instead, and it reports the failure."""
    status = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:          # None: the stream was closed at start
                stream.flush()
    except (OSError, ValueError):
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    entry_point()

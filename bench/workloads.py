"""Workload table and invocation lists for the bohmlab benchmark.

Every operation is one `bohmlab` CLI process.  A workload is a cycle of
CLI invocations over shipped configs (`configs/*.cfg`) and no-go checks;
the runner repeats the cycle until its time is up.  Each entry's `--seed`
is derived from the workload seed here, so the program sees nothing but
CLI arguments and the shipped configs, and a workload's invocation list
is a pure function of (workload, seed).

The seed of an entry stays the same in every cycle of a run on purpose:
from the second cycle on, every invocation repeats a (config, seed) pair
already run, so the byte-identity gate compares its output files against
the first run's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Entry:
    """One kind of CLI invocation and the files it must write."""

    name: str
    argv: tuple                 # CLI arguments, without --seed and --out
    outputs: tuple              # files besides report.txt and report.json
    scenario: str | None        # config scenario parsed by the set-up probe
    frames: bool = False        # writes frames/frame_0000.txt .. frame_<n_frames>.txt

    @property
    def config_path(self) -> str | None:
        return self.argv[self.argv.index("--config") + 1] if "--config" in self.argv else None


def _sim(name: str, subcommand: str, scenario: str, outputs=(), frames=False) -> Entry:
    argv = ("sim", subcommand, "--config", f"configs/{name}.cfg", "--quiet")
    if frames:
        argv += ("--dump-frames",)
    return Entry(name, argv, tuple(outputs), scenario, frames)


def _nogo(check: str) -> Entry:
    return Entry(f"nogo_{check}", ("nogo", check, "--quiet"), (), None)


ENTRIES = {e.name: e for e in (
    _sim("stern_gerlach", "stern-gerlach", "stern_gerlach", ("ensemble.csv",), frames=True),
    _sim("sequential_zx", "sequential", "sequential"),
    _sim("no_crossing", "no-crossing", "no_crossing", ("ensemble.csv",)),
    _sim("equilibrium_free", "equilibrium", "equilibrium", ("ensemble.csv", "histograms.csv")),
    _sim("equilibrium_harmonic", "equilibrium", "equilibrium", ("ensemble.csv", "histograms.csv")),
    _sim("pointer", "pointer", "pointer", ("trials.csv",)),
    _nogo("mermin"),
    _nogo("vonneumann"),
    _nogo("chsh"),
)}


@dataclass(frozen=True)
class Workload:
    entries: tuple              # entry names, in cycle order
    enters: tuple               # trace boundaries a traced cycle must enter


WORKLOADS = {
    # split-step evolution dominates; few trajectories, so writers and
    # interpolation are small
    "deflection": Workload(
        ("stern_gerlach", "sequential_zx", "no_crossing"),
        ("cli.dispatch", "config.parse_config", "experiments.stern_gerlach",
         "experiments.sequential", "experiments.no_crossing_check",
         "wavefield.evolve_frames", "wavefield.evolve", "wavefield.velocity_field",
         "wavefield.branch_supports", "wavefield.write_frame",
         "trajectories.sample_positions", "trajectories.integrate",
         "trajectories.check_no_crossing", "trajectories.write_ensemble",
         "rng.sample_from_density", "numpy.fft", "numpy.interp")),
    # 50k trajectories: ensemble writing and RK4 integration dominate; the
    # harmonic config keeps V != 0 so evolution must keep stepping
    "equilibrium": Workload(
        ("equilibrium_free", "equilibrium_harmonic"),
        ("cli.dispatch", "config.parse_config", "experiments.equilibrium_experiment",
         "wavefield.evolve_frames", "wavefield.evolve", "wavefield.velocity_field",
         "trajectories.sample_positions", "trajectories.integrate",
         "trajectories.equilibrium_distance", "trajectories.write_ensemble",
         "rng.sample_from_density", "numpy.fft", "numpy.interp")),
    # no evolution and no trajectories: the per-trial pointer loop, the
    # trials writer, the no-go checks and interpreter set-up.  `nogo
    # mermin` is only probed (see KNOWN_DEFECTS), not timed.
    "collapse": Workload(
        ("pointer", "nogo_vonneumann", "nogo_chsh"),
        ("cli.dispatch", "config.parse_config", "experiments.pointer_experiment",
         "conditional.run_pointer_measurement", "conditional.write_trials",
         "rng.sample_from_density", "nogo", "numpy.fft", "numpy.interp")),
}


# Entries whose output bytes are known not to repeat for one seed, with
# the reason.  They are left out of the timed cycles, whose operations
# must all pass, and instead probed once per run of the named workload:
# two runs of one seed, reported beside the result.
KNOWN_DEFECTS = {
    "nogo_mermin": ("collapse", "report.txt carries the search's wall-clock time"),
}


@dataclass(frozen=True)
class Invocation:
    entry: str
    seed: int
    argv: tuple                 # full CLI arguments except --out


def derived_seed(workload: str, entry: str, seed: int) -> int:
    """The CLI --seed of one entry: 32 bits of SHA-256 over the names and
    the workload seed, so it does not depend on the interpreter."""
    digest = hashlib.sha256(f"bohmlab-bench/{workload}/{entry}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def invocation(workload: str, name: str, seed: int) -> Invocation:
    s = derived_seed(workload, name, seed)
    return Invocation(name, s, ENTRIES[name].argv + ("--seed", str(s)))


def invocation_cycle(workload: str, seed: int) -> list[Invocation]:
    """One cycle of the workload; the runner repeats it unchanged."""
    return [invocation(workload, name, seed) for name in WORKLOADS[workload].entries]


def defect_probes(workload: str, seed: int) -> list[Invocation]:
    """The known-defect entries probed on this workload."""
    return [invocation(workload, name, seed)
            for name, (where, _) in KNOWN_DEFECTS.items() if where == workload]

"""Quantum-equilibrium sampling and guided-trajectory integration.

Initial positions are drawn from the |psi|^2 density of a stored frame;
trajectories then follow dX/dt = v(X, t) with the guiding velocity read
off the frame sequence: linear interpolation in time between frames,
linear interpolation in space between grid nodes, classical RK4 inside
each frame interval.  Everything is driven by the counter-based RNG in
`rng`, so a (seed, configuration) pair reproduces positions bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import rng
from .serialize import fmt
from .wavefield import SpinorField, velocity_field


@dataclass(frozen=True)
class Ensemble:
    """Positions of n trajectories at the stored frame times."""

    frame_times: np.ndarray          # (n_frames,)
    positions: np.ndarray            # (n_trajectories, n_frames), NaN after abort
    aborted: tuple = ()              # trajectory ids that left the grid

    @property
    def flagged(self) -> bool:
        return bool(self.aborted)

    @property
    def n_trajectories(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class HistogramComparison:
    bin_edges: np.ndarray
    empirical_mass: np.ndarray
    theoretical_mass: np.ndarray
    total_variation: float


@dataclass(frozen=True)
class NoCrossingReport:
    violations: int
    first_violation: tuple | None    # ((id_lower, id_upper), frame_index)


def sample_positions(field: SpinorField, n: int, seed: int) -> np.ndarray:
    """n independent draws from the spin-summed density of the field."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if field.norm() < 1e-12:
        raise ValueError("cannot sample from a zero-norm field")
    return rng.sample_from_density(field.grid.nodes, field.density(), n, seed)


def integrate(frames: list[SpinorField], initial_positions,
              substeps_per_frame: int = 4) -> Ensemble:
    """RK4 integration of all trajectories through the frame sequence.

    Trajectories are integrated in the order of their initial positions,
    which Bohmian motion preserves, so the position lookups in the
    velocity frames run over (nearly) sorted points; each point's
    arithmetic is independent of that order, and the result is stored
    in the caller's order.

    A trajectory that leaves the grid is aborted (NaN from that frame
    on) and the ensemble is flagged; a flagged run signals a mis-sized
    domain and its statistics should not be trusted.
    """
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    if substeps_per_frame < 1:
        raise ValueError("substeps_per_frame must be >= 1")
    times = np.array([f.time for f in frames])
    spacing = np.diff(times)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=1e-12):
        raise ValueError("frames must be uniformly spaced in time")
    grid = frames[0].grid
    x_nodes = grid.nodes
    node_velocities = [velocity_field(f) for f in frames]

    x0 = np.array(initial_positions, dtype=float)
    positions = np.full((x0.size, len(times)), np.nan)
    positions[:, 0] = x0
    order = np.argsort(x0, kind="stable")
    x = x0[order]
    alive = np.isfinite(x) & (x >= grid.x_min) & (x <= grid.x_max)
    x = np.where(alive, x, np.nan)

    dt_frame = float(spacing[0])
    h = dt_frame / substeps_per_frame
    for i in range(len(times) - 1):
        v0, v1 = node_velocities[i], node_velocities[i + 1]
        for s in range(substeps_per_frame):
            w0 = s / substeps_per_frame
            wm = (s + 0.5) / substeps_per_frame
            w1 = (s + 1.0) / substeps_per_frame
            f0 = (1.0 - w0) * v0 + w0 * v1
            fm = (1.0 - wm) * v0 + wm * v1
            f1 = (1.0 - w1) * v0 + w1 * v1
            k1 = np.interp(x, x_nodes, f0)
            k2 = np.interp(x + 0.5 * h * k1, x_nodes, fm)
            k3 = np.interp(x + 0.5 * h * k2, x_nodes, fm)
            k4 = np.interp(x + h * k3, x_nodes, f1)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        escaped = alive & ((x < grid.x_min) | (x > grid.x_max))
        if escaped.any():
            alive = alive & ~escaped
            x = np.where(alive, x, np.nan)
        positions[order, i + 1] = x

    aborted = tuple(int(i) for i in np.sort(order[~alive]))
    positions.flags.writeable = False
    return Ensemble(frame_times=times, positions=positions, aborted=aborted)


def check_no_crossing(ensemble: Ensemble) -> NoCrossingReport:
    """Verify that the initial ordering of trajectories never inverts.

    Order preservation is transitive, so it suffices to check adjacent
    pairs in initial-position order at every frame; any pair inversion
    implies an adjacent inversion.
    """
    pos = ensemble.positions
    keep = np.all(np.isfinite(pos), axis=1)
    pos = pos[keep]
    ids = np.where(keep)[0]
    if pos.shape[0] < 2:
        return NoCrossingReport(violations=0, first_violation=None)
    order = np.argsort(pos[:, 0], kind="stable")
    pos = pos[order]
    ids = ids[order]
    strictly_below = pos[:-1, 0] < pos[1:, 0]

    violations = 0
    first = None
    for t in range(pos.shape[1]):
        bad = strictly_below & ~(pos[:-1, t] < pos[1:, t])
        count = int(bad.sum())
        if count and first is None:
            i = int(np.argmax(bad))
            first = ((int(ids[i]), int(ids[i + 1])), t)
        violations += count
    return NoCrossingReport(violations=violations, first_violation=first)


def _cell_cdf(grid, density):
    # node-centered cells, matching rng.sample_from_density
    masses = density * grid.dx
    cdf_x = np.concatenate((grid.nodes - 0.5 * grid.dx, [grid.nodes[-1] + 0.5 * grid.dx]))
    cdf_v = np.concatenate(([0.0], np.cumsum(masses)))
    return cdf_x, cdf_v / cdf_v[-1]


def equilibrium_distance(ensemble: Ensemble, frame_index: int, field_at_frame: SpinorField,
                         n_bins: int) -> HistogramComparison:
    """Total-variation distance between the trajectory histogram at one
    frame and the |psi|^2 mass of the same frame, on n_bins equal bins
    spanning the grid."""
    if n_bins < 10:
        raise ValueError("n_bins must be at least 10")
    pos = ensemble.positions[:, frame_index]
    pos = pos[np.isfinite(pos)]
    if pos.size == 0:
        raise ValueError("no surviving trajectories at this frame")
    grid = field_at_frame.grid
    edges = np.linspace(grid.x_min, grid.x_max, n_bins + 1)
    counts, _ = np.histogram(pos, bins=edges)
    empirical = counts / pos.size

    cdf_x, cdf_v = _cell_cdf(grid, field_at_frame.density())
    theoretical = np.diff(np.interp(edges, cdf_x, cdf_v))
    theoretical = theoretical / theoretical.sum()

    tv = 0.5 * float(np.sum(np.abs(empirical - theoretical)))
    return HistogramComparison(bin_edges=edges, empirical_mass=empirical,
                               theoretical_mass=theoretical, total_variation=tv)


# A table of at least this many values is formatted by forked workers,
# in chunks of about _CHUNK_VALUES, when two or more CPUs are usable.
_WORKER_MIN_VALUES = 2**18
_CHUNK_VALUES = 2**14


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_context():
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _row_text(row_suffixes, i: int, values) -> str:
    """All frames of trajectory i: one `%` template, with the id and the
    frame times baked in, over the trajectory's Python floats."""
    label = str(i)
    return (label + label.join(row_suffixes)) % tuple(values)


_chunk_source = None     # (positions, row_suffixes), set only in a forked worker


def _set_chunk_source(positions, row_suffixes) -> None:
    global _chunk_source
    _chunk_source = (positions, row_suffixes)


def _format_chunk(lo: int, hi: int) -> str:
    positions, row_suffixes = _chunk_source
    return "".join([_row_text(row_suffixes, i, xs)
                    for i, xs in enumerate(positions[lo:hi].tolist(), lo)])


def write_ensemble(ensemble: Ensemble, path, config_hash: str, seed: int) -> None:
    """Tabular text: one row per (trajectory, frame), under a header
    naming the run's config hash and seed.

    A table of at least 2**18 values, on a host with two or more usable
    CPUs and the `fork` start method, is cut into chunks of rows that
    forked workers format; they read the positions through fork's
    copy-on-write memory, and `map` yields the chunks in submission
    order, so the bytes never depend on scheduling.  A worker that dies
    raises `BrokenProcessPool`, a `RuntimeError`.  Any other table
    streams row by row in this process through the same row formatter.
    """
    positions = ensemble.positions
    row_suffixes = [f",{fmt(float(t))},%.17g\n" for t in ensemble.frame_times]
    n_rows = positions.shape[0] if row_suffixes else 0
    cpus = _usable_cpus()
    context = (_fork_context()
               if n_rows * len(row_suffixes) >= _WORKER_MIN_VALUES and cpus >= 2 else None)
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash} seed={seed}\ntrajectory_id,time,position\n")
        if context is None:
            fh.writelines(_row_text(row_suffixes, i, xs.tolist())
                          for i, xs in enumerate(positions[:n_rows]))
            return
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker would re-import numpy and be
        # sent the positions by pickle; a forked one shares them, and it
        # runs only Python formatting, never a library that holds a lock
        rows_per_chunk = max(1, _CHUNK_VALUES // len(row_suffixes))
        starts = range(0, n_rows, rows_per_chunk)
        stops = [min(lo + rows_per_chunk, n_rows) for lo in starts]
        with ProcessPoolExecutor(min(cpus, len(starts)), context,
                                 initializer=_set_chunk_source,
                                 initargs=(positions, row_suffixes)) as ex:
            fh.writelines(ex.map(_format_chunk, starts, stops))

"""Quantum-equilibrium sampling and guided-trajectory integration.

Initial positions are drawn from the |psi|^2 density of a stored frame,
in ascending order; trajectories then follow dX/dt = v(X, t) by
classical RK4 inside each frame interval.  Bohm's law sets the velocity
from psi at the same instant, so every RK4 stage reads the guiding field
of psi at its own stage time, evolved there from the frame by the exact
propagator: there is no blending in time between frames.  The one
remaining approximation is linear interpolation in space between grid
nodes.  Everything is driven by the counter-based RNG in `rng`, so a
(seed, configuration) pair reproduces positions bit for bit.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import rng, threads, wavefield
from .wavefield import PotentialSpec, SpinorField, velocity_field


# Amplitudes per stack of frames whose stage fields are computed at once,
# about: 4 frames of 512 nodes, whose arrays (64 KiB) stay below malloc's
# 128 KiB mmap threshold.  On a 2-core VM, integrating 200 trajectories
# through the 41 `equilibrium_free` frames took 7.5 ms with the stage
# fields computed frame by frame, 4.4 ms with stacks of 2**12 and 3.8 ms
# with stacks of 2**14; but 2**14 raised the peak memory of a seed-7
# `sequential_zx` run from 35.8 to 37.4 MB, and 2**12 leaves it unchanged.
_STACK_VALUES = 2**12


class Ensemble(namedtuple("Ensemble", "frame_times positions aborted", defaults=((),))):
    """Positions of n trajectories at the stored frame times: frame_times
    is (n_frames,), positions (n_trajectories, n_frames) with NaN after an
    abort, aborted the ids of the trajectories that left the grid.  A
    trajectory's id is its row, the index of its start among the starts
    given to `integrate`; every scenario draws its starts in ascending
    order, so id k is the k-th lowest start, the order that trajectories
    in one dimension keep.
    `integrate` stores positions frame-major, as the read-only transpose
    of an (n_frames, n_trajectories) array, so a frame's column
    positions[:, i] is contiguous."""

    __slots__ = ()

    @property
    def n_trajectories(self) -> int:
        return self.positions.shape[0]


HistogramComparison = namedtuple(
    "HistogramComparison", "bin_edges empirical_mass theoretical_mass total_variation")


class NoCrossingReport(namedtuple("NoCrossingReport", "violations first_violation")):
    """first_violation is ((id_lower, id_upper), frame_index), or None."""

    __slots__ = ()


def sample_positions(field: SpinorField, n: int, seed: int) -> np.ndarray:
    """n independent draws from the spin-summed density of the field
    (n as `rng.check_draws` allows), in ascending order: draw k of the
    returned array is the k-th lowest of the stream's first n draws."""
    if field.norm() < 1e-12:
        raise ValueError("cannot sample from a zero-norm field")
    return np.sort(rng.sample_from_density(field.grid.nodes, field.density(), n, seed))


def integrate(frames: list[SpinorField], initial_positions, potential: PotentialSpec,
              substeps_per_frame: int = 1) -> Ensemble:
    """RK4 integration of all trajectories through the frame sequence.

    The frames must be snapshots of one solution of the Schroedinger
    equation under `potential`, uniformly spaced in time.  With h the
    frame interval over substeps_per_frame, the RK4 stages inside the
    interval after frame i sit at t_i + s h/2, s = 0 .. 2 substeps_per_frame;
    a frame's own stage reads velocity_field(frame), every other stage
    the velocity field of frame i evolved to its stage time (so the
    boundary monitor checks those fields too).  Node velocities are
    interpolated linearly in space.

    Trajectories are advanced in the order given: row i of the result
    starts at initial_positions[i].  The position lookups in the velocity
    fields are fastest on ascending starts, which every scenario draws
    and Bohmian motion keeps ascending; each point's arithmetic is
    independent of the order.  Every stage velocity field is computed
    first, for a stack of frames at a time (about _STACK_VALUES
    amplitudes, which bound the memory used).  An ensemble for which
    `threads.two_threads` holds (2**18 positions or more, two usable
    CPUs) then advances its lower half of the rows on a helper thread and
    the upper half on the calling thread.  The positions do not depend on
    the split.

    A trajectory that leaves the grid is aborted (NaN from that frame
    on) and listed in `aborted`; such a run signals a mis-sized domain
    and its statistics should not be trusted.
    """
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    if substeps_per_frame < 1:
        raise ValueError("a frame interval needs at least 1 RK4 substep, "
                         f"got {substeps_per_frame}")
    times = np.array([f.time for f in frames])
    spacing = np.diff(times)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=1e-12):
        raise ValueError("frames must be uniformly spaced in time")
    grid = frames[0].grid
    x_nodes = grid.nodes
    h = float(spacing[0]) / substeps_per_frame
    half_h, sixth_h = 0.5 * h, h / 6.0
    x0 = np.array(initial_positions, dtype=float)
    n = x0.size

    def advance(lo, hi):
        """Integrate the trajectories lo .. hi-1 through every frame;
        return which of them stayed on the grid."""
        x = x0[lo:hi]
        alive = np.isfinite(x) & (x >= grid.x_min) & (x <= grid.x_max)
        x = np.where(alive, x, np.nan)
        at_stage = np.empty_like(x)

        def stage_position(c, k):
            """x + c k, in the one buffer of stage positions."""
            return np.add(x, np.multiply(c, k, out=at_stage), out=at_stage)

        for i in range(len(times) - 1):
            for s in range(substeps_per_frame):
                at = 2 * (substeps_per_frame * i + s)
                f0, fm, f1 = stage[at:at + 3]
                k1 = np.interp(x, x_nodes, f0)
                k2 = np.interp(stage_position(half_h, k1), x_nodes, fm)
                k3 = np.interp(stage_position(half_h, k2), x_nodes, fm)
                k4 = np.interp(stage_position(h, k3), x_nodes, f1)
                # x + (h/6) (k1 + 2 k2 + 2 k3 + k4), operation for operation,
                # in the arrays at hand
                k2 *= 2.0
                k1 += k2
                k3 *= 2.0
                k1 += k3
                k1 += k4
                k1 *= sixth_h
                x += k1
            # an aborted trajectory is NaN already, and stays NaN
            escaped = alive & ((x < grid.x_min) | (x > grid.x_max))
            if escaped.any():
                alive &= ~escaped
                x[escaped] = np.nan
            rows[i + 1, lo:hi] = x
        return alive

    stage = _stage_fields(frames, times, potential, h, substeps_per_frame)
    # rows[i]: every trajectory at frame i, so that each frame is stored
    # as one contiguous row
    rows = np.empty((len(times), n))
    rows[0] = x0
    if threads.two_threads(len(times) * n):
        with threads.Helper() as helper:
            lower = helper.submit(advance, 0, n // 2)
            upper = advance(n // 2, n)
            alive = np.concatenate((lower(), upper))
    else:
        alive = advance(0, n)

    aborted = tuple(int(i) for i in np.flatnonzero(~alive))
    rows.flags.writeable = False
    return Ensemble(frame_times=times, positions=rows.T, aborted=aborted)


def _stage_fields(frames, times, potential, h, substeps_per_frame):
    """The velocity field of every RK4 stage: row 2 * (substeps_per_frame
    * i + s) + j, j = 0, 1, 2, holds the field at the start, middle and
    end of substep s after frame i."""
    grid = frames[0].grid
    per = 2 * substeps_per_frame
    n_intervals = len(times) - 1
    stage = np.empty((per * n_intervals + 1, grid.n_points))
    stage[-1] = velocity_field(frames[-1])
    block = max(1, _STACK_VALUES // (2 * grid.n_points))
    for lo in range(0, n_intervals, block):
        hi = min(lo + block, n_intervals)
        stack = SpinorField(grid, [f.up for f in frames[lo:hi]], [f.down for f in frames[lo:hi]],
                            time=times[lo:hi])
        fields = stage[per * lo:per * hi].reshape(hi - lo, per, grid.n_points)
        fields[:, 0] = velocity_field(stack)
        # wavefield.evolve is looked up at call time, as evolve_frames looks
        # it up, so a wrapper around it sees the stage evolutions too
        try:
            for s in range(1, per):
                fields[:, s] = velocity_field(wavefield.evolve(stack, potential, 0.5 * s * h, 1))
        except wavefield.BoundaryMassError:
            # raise the error of the first field over the limit in time
            # order, as evolving one stage field at a time does
            for i in range(lo, hi):
                for s in range(1, per):
                    wavefield.evolve(frames[i], potential, 0.5 * s * h, 1)
            raise
    return stage


def check_no_crossing(ensemble: Ensemble) -> NoCrossingReport:
    """Verify that the initial ordering of trajectories never inverts.

    Order preservation is transitive, so it suffices to check adjacent
    pairs in initial-position order at every frame; any pair inversion
    implies an adjacent inversion.  That order is the ids' own for the
    ascending starts that every scenario draws; an ensemble built by hand
    may list its starts in any order.
    """
    pos = ensemble.positions
    order = np.argsort(pos[:, 0], kind="stable")
    ids = order[np.all(np.isfinite(pos), axis=1)[order]]
    if ids.size < 2:
        return NoCrossingReport(violations=0, first_violation=None)
    # one contiguous row per frame, trajectories in start order
    rows = pos.T[:, ids]
    strictly_below = rows[0, :-1] < rows[0, 1:]

    violations = 0
    first = None
    for t, row in enumerate(rows):
        bad = strictly_below & ~(row[:-1] < row[1:])
        count = int(bad.sum())
        if count and first is None:
            i = int(np.argmax(bad))
            first = ((int(ids[i]), int(ids[i + 1])), t)
        violations += count
    return NoCrossingReport(violations=violations, first_violation=first)


def equilibrium_distance(ensemble: Ensemble, frame_index: int, field_at_frame: SpinorField,
                         bins: int) -> HistogramComparison:
    """Total-variation distance between the trajectory histogram at one
    frame and the |psi|^2 mass of the same frame, on `bins` equal bins
    spanning the grid."""
    if bins < 10:
        raise ValueError("bins must be at least 10")
    # trajectories drawn in ascending order keep it unless they cross, so
    # that a stable sort (NaN last) of the frame takes about linear time
    pos = np.sort(ensemble.positions[:, frame_index], kind="stable")
    n = np.count_nonzero(np.isfinite(pos))
    if n == 0:
        raise ValueError("no surviving trajectories at this frame")
    grid = field_at_frame.grid
    edges = np.linspace(grid.x_min, grid.x_max, bins + 1)
    # np.histogram's count on sorted positions: every bin is closed on the
    # left, and the last one on the right too
    below = np.concatenate((pos.searchsorted(edges[:-1], "left"),
                            pos.searchsorted(edges[-1:], "right")))
    empirical = np.diff(below) / n

    cells, _, cdf = rng.cell_cdf(grid.nodes, field_at_frame.density())
    theoretical = np.diff(np.interp(edges, cells, cdf / cdf[-1]))
    theoretical = theoretical / theoretical.sum()

    tv = 0.5 * float(np.sum(np.abs(empirical - theoretical)))
    return HistogramComparison(bin_edges=edges, empirical_mass=empirical,
                               theoretical_mass=theoretical, total_variation=tv)

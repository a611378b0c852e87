"""End-to-end experiment harnesses with pass/fail verdicts.

Each scenario composes packet preparation, unitary evolution,
equilibrium sampling and trajectory integration into one run, and
returns a result object carrying the statistics plus a list of named
checks.  A run is a pure function of (config, seed): identical inputs
reproduce every number bit for bit.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import rng
from .config import ExperimentConfig, gate
from .conditional import CouplingSpec, run_pointer_measurement
from .trajectories import check_no_crossing, equilibrium_distance, integrate, sample_positions
from .wavefield import (
    DEFLECTION_WIDTH,
    PotentialSpec,
    branch_supports,
    evolve_frames,
    gaussian_packet,
    magnet_kick,
)

HBAR = 1.0


MeasurementStatistics = namedtuple(
    "MeasurementStatistics",
    "counts frequencies born_probabilities three_sigma_halfwidths expectation_value")


def measurement_statistics(counts, born_probabilities) -> MeasurementStatistics:
    counts = tuple(int(c) for c in counts)
    n = sum(counts)
    if n < 1:
        raise ValueError("empty measurement")
    freqs = tuple(c / n for c in counts)
    halfwidths = tuple(3.0 * math.sqrt(p * (1.0 - p) / n) for p in born_probabilities)
    # (hbar/2)(f_up - f_down): a bookkeeping identity on the frequencies
    expectation = (HBAR / 2.0) * (freqs[0] - freqs[1])
    return MeasurementStatistics(counts=counts, frequencies=freqs,
                                 born_probabilities=tuple(float(p) for p in born_probabilities),
                                 three_sigma_halfwidths=halfwidths,
                                 expectation_value=expectation)


BORN_SLACK = 1e-15          # rounding room in |f - p| - 3 sigma


def born_check(stats: MeasurementStatistics, name: str = "born_within_3sigma"):
    """Every outcome frequency f within 3 sigma of its Born weight p: the
    worst |f - p| - 3 sigma is at most BORN_SLACK."""
    excess = max(abs(f - p) - h for f, p, h in zip(
        stats.frequencies, stats.born_probabilities, stats.three_sigma_halfwidths))
    return gate(name, excess, "<=", BORN_SLACK)


def detection_time(config: ExperimentConfig) -> float:
    """Flight time after the kick; by default the time at which the
    branch separation 2*kick*T reaches 10 spread packet widths."""
    if config.flight_time is not None:
        return config.flight_time
    return config.magnet().separation_time()


BRANCH_THRESHOLD = 0.01     # of a branch's mass left outside its support
# a deflection is a kick followed by free flight: the auto flight time
# (free spreading) and the classification axis (free drift) assume it
FREE = PotentialSpec("free")


def _sg_pipeline(config: ExperimentConfig, alpha: complex, beta: complex,
                 n_trials: int, seed: int):
    """Shared deflection pipeline: prepare at rest at x = 0 with width 1 (a
    shifted, boosted or wider start is the same run moved or rescaled),
    kick, fly, sample, integrate.  Returns the branch supports at
    detection time and the final positions, whose side of the symmetry
    axis x = 0 is the outcome (see `_side_counts`)."""
    grid = config.grid()
    packet = gaussian_packet(grid, 0.0, DEFLECTION_WIDTH, 0.0, alpha, beta)
    kicked = magnet_kick(packet, config.magnet())
    flight = detection_time(config)
    frames = evolve_frames(kicked, FREE, flight / config.n_frames, config.n_frames)

    branches = branch_supports(frames[-1], BRANCH_THRESHOLD)
    initial = sample_positions(frames[0], n_trials, seed)
    ensemble = integrate(frames, initial, FREE)
    return frames, ensemble, branches, ensemble.positions[:, -1], flight


def _side_counts(finals):
    """(up, down): the ends at x >= 0 (ties are up) and x < 0; NaN is neither."""
    return int(np.count_nonzero(finals >= 0.0)), int(np.count_nonzero(finals < 0.0))


def _no_aborted_check(finals):
    return gate("no_aborted_trajectories", int(np.count_nonzero(np.isnan(finals))), "==", 0)


def _separated_check(supports):
    """One check over the branch supports of every deflection in a run:
    the smallest gap is positive."""
    return gate("branches_separated", min(s.gap for s in supports), ">", 0)


SternGerlachResult = namedtuple(
    "SternGerlachResult", "statistics ensemble frames detection_time branches checks")


def stern_gerlach(config: ExperimentConfig) -> SternGerlachResult:
    """Deflection measurement of the spin state (alpha, beta): empirical
    up/down frequencies against |alpha|^2, |beta|^2, and the frequency
    expectation value against (hbar/2)(|alpha|^2 - |beta|^2)."""
    frames, ensemble, branches, finals, flight = _sg_pipeline(
        config, config.alpha, config.beta, config.n_trials, config.seed)
    stats = measurement_statistics(_side_counts(finals),
                                   (abs(config.alpha) ** 2, abs(config.beta) ** 2))
    checks = (
        _separated_check([branches]),
        _no_aborted_check(finals),
        born_check(stats),
    )
    return SternGerlachResult(statistics=stats, ensemble=ensemble, frames=frames,
                              detection_time=flight, branches=branches, checks=checks)


# the rotation n_hat, theta taking each lab axis to z: about (axis x z_hat)
# by arccos(axis . z_hat), so z is not rotated
_TO_Z = {"x": ((0.0, -1.0, 0.0), math.pi / 2), "y": ((1.0, 0.0, 0.0), math.pi / 2),
         "z": ((0.0, 0.0, 1.0), 0.0)}


def spin_rotation(axis: str) -> np.ndarray:
    """Unitary U with U sigma_axis U^dagger = sigma_z for axis 'x', 'y' or
    'z': the rotation by theta about n_hat of `_TO_Z`,
    cos(theta/2) I - i sin(theta/2) n_hat . sigma."""
    from .hilbert import pauli      # no other scenario reads the Pauli table
    n_hat, theta = _TO_Z[axis]
    sx, sy, sz = (np.array(pauli(k)) for k in "xyz")
    n_sigma = n_hat[0] * sx + n_hat[1] * sy + n_hat[2] * sz
    return np.cos(theta / 2) * np.eye(2, dtype=complex) - 1j * np.sin(theta / 2) * n_sigma


class SequentialResult(namedtuple("SequentialResult", "stage_statistics outcomes checks")):
    """outcomes is (n_trials, n_stages): 0 = up, 1 = down, -1 = aborted at
    this or an earlier stage."""

    __slots__ = ()


def sequential(config: ExperimentConfig) -> SequentialResult:
    """Chained deflection stages along config.axes.

    Between stages the occupied branch is kept, the packet re-centered
    with its net momentum removed, and the next stage measures along its
    own axis; a stage therefore changes the spin state that the next
    stage sees, which is what makes the statistics order-dependent.  A
    trial whose trajectory aborts takes no later stage, and each stage's
    statistics count its surviving trials only.
    """
    n = config.n_trials
    outcomes = np.zeros((n, len(config.axes)), dtype=int)
    # branches: (spin state in the fixed lab basis, Born weight, trial ids)
    branches = [(np.array([config.alpha, config.beta], dtype=complex), 1.0, np.arange(n))]
    stage_stats = []
    checks = []
    supports = []
    all_finals = []

    for stage, axis in enumerate(config.axes):
        u = spin_rotation(axis)
        u_dag = u.conj().T
        weight_up = weight_down = 0.0
        ids_up, ids_down = [], []
        for g_index, (chi_lab, weight, trial_ids) in enumerate(branches):
            chi_meas = u @ chi_lab
            p_up = float(abs(chi_meas[0]) ** 2)
            weight_up += weight * p_up
            weight_down += weight * (1.0 - p_up)
            if trial_ids.size == 0:
                continue
            run_seed = rng.derive(config.seed, stage * 4 + g_index)
            _, _, support, finals, _ = _sg_pipeline(
                config, complex(chi_meas[0]), complex(chi_meas[1]), trial_ids.size, run_seed)
            supports.append(support)
            all_finals.append(finals)
            ids_up.append(trial_ids[finals >= 0.0])
            ids_down.append(trial_ids[finals < 0.0])
            outcomes[trial_ids[np.isnan(finals)], stage:] = -1
        # all trials with the same outcome share the collapsed state, so the
        # next stage sees two branches (and g_index stays < 4)
        ids_up, ids_down = np.sort(np.concatenate(ids_up)), np.sort(np.concatenate(ids_down))
        outcomes[ids_down, stage] = 1
        branches = [(u_dag @ np.array([1.0, 0.0], dtype=complex), weight_up, ids_up),
                    (u_dag @ np.array([0.0, 1.0], dtype=complex), weight_down, ids_down)]
        stats = measurement_statistics((ids_up.size, ids_down.size),
                                       (weight_up, 1.0 - weight_up))
        stage_stats.append(stats)
        checks.append(born_check(stats, f"stage{stage + 1}_{axis}_born_within_3sigma"))

    return SequentialResult(stage_statistics=tuple(stage_stats), outcomes=outcomes,
                            checks=(_separated_check(supports),
                                    _no_aborted_check(np.concatenate(all_finals)),
                                    *checks))


NoCrossingResult = namedtuple(
    "NoCrossingResult", "crossing_report inference_accuracy statistics ensemble checks")
SYMMETRIC_SPIN = (complex(math.sqrt(0.5)),) * 2    # its separatrix is x = 0


def no_crossing_check(config: ExperimentConfig) -> NoCrossingResult:
    """Order preservation plus side retrodiction for the symmetric state
    `SYMMETRIC_SPIN`: a trajectory ends on the up side exactly when it
    started above the packet center x = 0 (ties on the center count as up
    on both sides of the equivalence)."""
    frames, ensemble, branches, finals, flight = _sg_pipeline(
        config, *SYMMETRIC_SPIN, config.n_trials, config.seed)
    report = check_no_crossing(ensemble)
    stats = measurement_statistics(_side_counts(finals), [abs(c) ** 2 for c in SYMMETRIC_SPIN])
    ended = ~np.isnan(finals)
    accuracy = float(np.mean((finals[ended] >= 0.0) == (ensemble.positions[ended, 0] >= 0.0)))
    checks = (
        _separated_check([branches]),
        _no_aborted_check(finals),
        gate("zero_crossings", report.violations, "==", 0),
        gate("side_inference_exact", accuracy, "==", 1.0),
    )
    return NoCrossingResult(crossing_report=report, inference_accuracy=accuracy,
                            statistics=stats, ensemble=ensemble, checks=checks)


class EquilibriumResult(namedtuple("EquilibriumResult", "comparisons frames ensemble checks")):
    """comparisons holds one HistogramComparison per saved frame."""

    __slots__ = ()


N_BINS = 64                 # equal bins of each histogram comparison
TV_TOLERANCE = 0.03         # every frame's total variation must stay below this
# H does not act on spin, so |psi|^2, the current and every trajectory are
# the envelope's whatever the spinor: the equilibrium packet carries this one
EQUILIBRIUM_SPIN = (complex(1 / math.sqrt(2)),) * 2


def equilibrium_experiment(config: ExperimentConfig) -> EquilibriumResult:
    """Evolve a packet (free or harmonic), start an ensemble distributed
    per the initial |psi|^2 (or a deliberately out-of-equilibrium uniform
    law), and compare the ensemble histogram to |psi_t|^2 at every frame."""
    grid = config.grid()
    packet = gaussian_packet(grid, config.packet_center, config.packet_width,
                             config.packet_momentum, *EQUILIBRIUM_SPIN)
    potential = config.potential()
    frames = evolve_frames(packet, potential, config.duration / config.n_frames, config.n_frames)
    # the starts, drawn once the evolution has passed its boundary checks,
    # in ascending order, as `integrate` reads them fastest
    if config.init_kind == "born":
        initial = sample_positions(packet, config.n_trials, config.seed)
    else:
        initial = config.init_a + (config.init_b - config.init_a) * \
            np.sort(rng.uniforms(config.seed, config.n_trials))
    ensemble = integrate(frames, initial, potential)
    comparisons = tuple(equilibrium_distance(ensemble, i, frame, N_BINS)
                        for i, frame in enumerate(frames))
    checks = (
        _no_aborted_check(ensemble.positions[:, -1]),
        gate("equivariance_total_variation", max(c.total_variation for c in comparisons),
             "<", TV_TOLERANCE),
    )
    return EquilibriumResult(comparisons=comparisons, frames=frames,
                             ensemble=ensemble, checks=checks)


PointerResult = namedtuple("PointerResult", "statistics measurement checks")
MIN_PURITY = 1.0 - 1e-6     # every trial's collapsed spin state must exceed this


def pointer_experiment(config: ExperimentConfig) -> PointerResult:
    """Pointer-coordinate measurement of (alpha, beta) via the two-factor
    model: outcome frequencies against the Born weights, and per-trial
    collapse purity against the disjoint-branch criterion."""
    measurement = run_pointer_measurement(
        config.alpha, config.beta, CouplingSpec(config.pointer_shift),
        config.n_trials, config.seed, config.grid())
    stats = measurement_statistics(measurement.counts,
                                   (abs(config.alpha) ** 2, abs(config.beta) ** 2))
    checks = (
        born_check(stats),
        gate("collapse_purity", measurement.min_purity, ">", MIN_PURITY),
    )
    return PointerResult(statistics=stats, measurement=measurement, checks=checks)

"""End-to-end experiment harnesses with pass/fail verdicts.

Each scenario composes packet preparation, unitary evolution,
equilibrium sampling and trajectory integration into one run, and
returns a result object carrying the statistics plus a list of named
checks.  A run is a pure function of (config, seed): identical inputs
reproduce every number bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .config import ExperimentConfig
from .conditional import CouplingSpec, run_pointer_measurement
from .hilbert import spin_rotation
from .trajectories import (
    Ensemble,
    NoCrossingReport,
    check_no_crossing,
    equilibrium_distance,
    integrate,
    sample_positions,
)
from .wavefield import (
    branch_supports,
    evolve_frames,
    gaussian_packet,
    magnet_kick,
)

HBAR = 1.0

_AXIS_VECTORS = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class MeasurementStatistics:
    counts: tuple
    frequencies: tuple
    born_probabilities: tuple
    three_sigma_halfwidths: tuple
    expectation_value: float

    @property
    def n_trials(self) -> int:
        return int(sum(self.counts))


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


def born_check(stats: MeasurementStatistics) -> Check:
    devs = [abs(f - p) for f, p in zip(stats.frequencies, stats.born_probabilities)]
    hw = stats.three_sigma_halfwidths
    ok = all(d <= max(h, 0.0) + 1e-15 for d, h in zip(devs, hw))
    detail = ", ".join(f"{lab}: |{f:.6f} - {p:.6f}| vs 3sigma {h:.6f}"
                       for lab, f, p, h in zip(("up", "down"), stats.frequencies,
                                               stats.born_probabilities, hw))
    return Check("born_within_3sigma", ok, detail)


def detection_time(config: ExperimentConfig) -> float:
    """Flight time after the kick; by default the time at which the
    branch separation 2*kick*T reaches 10 spread packet widths."""
    if config.flight_time is not None:
        return config.flight_time
    k = config.magnet().kick
    w = config.packet_width
    disc = 4.0 * k * k - 25.0 / (w * w)
    if disc <= 0.0:
        raise ValueError("magnet too weak to separate the branches by 10 widths; "
                         "increase magnet.mu_b*magnet.tau or set flight_time")
    return 10.0 * w / math.sqrt(disc)


def _sg_pipeline(config: ExperimentConfig, alpha: complex, beta: complex,
                 n_trials: int, seed: int):
    """Shared deflection pipeline: prepare, kick, fly, sample, integrate,
    classify by side of the symmetry axis (ties count as up)."""
    grid = config.grid()
    packet = gaussian_packet(grid, config.packet_center, config.packet_width,
                             config.packet_momentum, alpha, beta)
    kicked = magnet_kick(packet, config.magnet())
    flight = detection_time(config)
    frames = evolve_frames(kicked, config.potential(), flight / config.n_frames,
                           config.n_frames)

    branches = branch_supports(frames[-1], config.branch_threshold)
    if not branches.separated:
        raise ValueError("branches are not separated at detection time; "
                         "increase flight_time or the magnet kick")

    initial = sample_positions(frames[0], n_trials, seed)
    ensemble = integrate(frames, initial, config.substeps_per_frame)
    axis_position = config.packet_center + config.packet_momentum * flight
    finals = ensemble.positions[:, -1]
    up_mask = finals >= axis_position
    return frames, ensemble, branches, up_mask, flight


@dataclass(frozen=True)
class SternGerlachResult:
    statistics: MeasurementStatistics
    ensemble: Ensemble
    frames: list
    detection_time: float
    branches: object
    checks: tuple


def stern_gerlach(config: ExperimentConfig) -> SternGerlachResult:
    """Deflection measurement of the spin state (alpha, beta): empirical
    up/down frequencies against |alpha|^2, |beta|^2, and the frequency
    expectation value against (hbar/2)(|alpha|^2 - |beta|^2)."""
    frames, ensemble, branches, up_mask, flight = _sg_pipeline(
        config, config.alpha, config.beta, config.n_trials, config.seed)
    valid = np.isfinite(ensemble.positions[:, -1])
    stats = measurement_statistics(
        (int(np.sum(up_mask & valid)), int(np.sum(~up_mask & valid))),
        (abs(config.alpha) ** 2, abs(config.beta) ** 2))
    checks = (
        Check("branches_separated", branches.separated,
              f"up {branches.up_interval}, down {branches.down_interval}"),
        Check("no_aborted_trajectories", not ensemble.flagged,
              f"{len(ensemble.aborted)} aborted"),
        born_check(stats),
    )
    return SternGerlachResult(statistics=stats, ensemble=ensemble, frames=frames,
                              detection_time=flight, branches=branches, checks=checks)


@dataclass(frozen=True)
class SequentialResult:
    stage_statistics: tuple
    outcomes: np.ndarray        # (n_trials, n_stages), 0 = up, 1 = down
    axes: tuple
    checks: tuple


def sequential(config: ExperimentConfig) -> SequentialResult:
    """Chained deflection stages along config.axes.

    Between stages the occupied branch is kept, the packet re-centered
    with its net momentum removed, and the next stage measures along its
    own axis; a stage therefore changes the spin state that the next
    stage sees, which is what makes the statistics order-dependent.
    """
    n = config.n_trials
    axes = tuple(config.axes)
    outcomes = np.zeros((n, len(axes)), dtype=int)

    # groups: spin state (in the fixed lab basis) -> trial indices
    groups: list[tuple[np.ndarray, np.ndarray]] = [
        (np.array([config.alpha, config.beta], dtype=complex), np.arange(n))
    ]
    stage_stats = []
    born_up = _sequential_born_chain(config, axes)

    for stage, axis in enumerate(axes):
        u = spin_rotation(_AXIS_VECTORS[axis])
        u_dag = u.conj().T
        collected = {0: [], 1: []}
        for g_index, (chi_lab, trial_ids) in enumerate(groups):
            if trial_ids.size == 0:
                continue
            chi_meas = u @ chi_lab
            run_seed = rng.derive(config.seed, stage * 4 + g_index)
            _, _, _, up_mask, _ = _sg_pipeline(config, complex(chi_meas[0]),
                                               complex(chi_meas[1]),
                                               trial_ids.size, run_seed)
            collected[0].append(trial_ids[up_mask])
            collected[1].append(trial_ids[~up_mask])
        # all trials with the same outcome share the collapsed state, so the
        # next stage sees at most two groups (and g_index stays < 4)
        groups = []
        for outcome, state in ((0, u_dag @ np.array([1.0, 0.0], dtype=complex)),
                               (1, u_dag @ np.array([0.0, 1.0], dtype=complex))):
            ids = np.sort(np.concatenate(collected[outcome])) if collected[outcome] \
                else np.array([], dtype=int)
            outcomes[ids, stage] = outcome
            groups.append((state, ids))
        n_up_total = groups[0][1].size
        p_up = born_up[stage]
        stage_stats.append(measurement_statistics((n_up_total, n - n_up_total),
                                                  (p_up, 1.0 - p_up)))

    checks = []
    for i, st in enumerate(stage_stats):
        base = born_check(st)
        checks.append(Check(f"stage{i + 1}_{axes[i]}_{base.name}", base.passed, base.detail))
    checks = tuple(checks)
    return SequentialResult(stage_statistics=tuple(stage_stats), outcomes=outcomes,
                            axes=axes, checks=checks)


def _sequential_born_chain(config: ExperimentConfig, axes) -> list[float]:
    """Exact stage-wise up-probabilities from chained projections."""
    dist = [(1.0, np.array([config.alpha, config.beta], dtype=complex))]
    born_up = []
    for axis in axes:
        u = spin_rotation(_AXIS_VECTORS[axis])
        u_dag = u.conj().T
        p_up_stage = 0.0
        up_state = u_dag @ np.array([1.0, 0.0], dtype=complex)
        down_state = u_dag @ np.array([0.0, 1.0], dtype=complex)
        new_weights = {0: 0.0, 1: 0.0}
        for weight, chi in dist:
            chi_meas = u @ chi
            p_up = float(abs(chi_meas[0]) ** 2)
            p_up_stage += weight * p_up
            new_weights[0] += weight * p_up
            new_weights[1] += weight * (1.0 - p_up)
        born_up.append(p_up_stage)
        dist = [(new_weights[0], up_state), (new_weights[1], down_state)]
    return born_up


@dataclass(frozen=True)
class NoCrossingResult:
    crossing_report: NoCrossingReport
    inference_accuracy: float
    symmetric_preparation: bool
    statistics: MeasurementStatistics
    ensemble: Ensemble
    checks: tuple


def no_crossing_check(config: ExperimentConfig) -> NoCrossingResult:
    """Order preservation plus side retrodiction for the symmetric state:
    a trajectory ends on the up side exactly when it started above the
    packet center (ties on the center count as up on both sides of the
    equivalence)."""
    symmetric = abs(abs(config.alpha) ** 2 - 0.5) < 1e-12 and \
        abs(abs(config.beta) ** 2 - 0.5) < 1e-12
    frames, ensemble, branches, up_mask, flight = _sg_pipeline(
        config, config.alpha, config.beta, config.n_trials, config.seed)
    report = check_no_crossing(ensemble)
    started_above = ensemble.positions[:, 0] >= config.packet_center
    agree = up_mask == started_above
    accuracy = float(np.mean(agree))
    stats = measurement_statistics((int(np.sum(up_mask)), int(np.sum(~up_mask))),
                                   (abs(config.alpha) ** 2, abs(config.beta) ** 2))
    checks = (
        Check("symmetric_preparation", symmetric,
              f"|alpha|^2 = {abs(config.alpha) ** 2:.6f}"),
        Check("zero_crossings", report.violations == 0,
              f"{report.violations} ordering violations"),
        Check("side_inference_exact", accuracy == 1.0 and symmetric,
              f"accuracy {accuracy:.6f}"),
    )
    return NoCrossingResult(crossing_report=report, inference_accuracy=accuracy,
                            symmetric_preparation=symmetric, statistics=stats,
                            ensemble=ensemble, checks=checks)


@dataclass(frozen=True)
class EquilibriumResult:
    comparisons: tuple            # HistogramComparison per saved frame
    frames: list
    ensemble: Ensemble
    checks: tuple


def equilibrium_experiment(config: ExperimentConfig) -> EquilibriumResult:
    """Evolve a packet (free or harmonic), start an ensemble distributed
    per the initial |psi|^2 (or a deliberately out-of-equilibrium uniform
    law), and compare the ensemble histogram to |psi_t|^2 at every frame."""
    grid = config.grid()
    packet = gaussian_packet(grid, config.packet_center, config.packet_width,
                             config.packet_momentum, config.alpha, config.beta)
    frames = evolve_frames(packet, config.potential(), config.duration / config.n_frames,
                           config.n_frames)

    if config.init_kind == "born":
        initial = sample_positions(frames[0], config.n_trials, config.seed)
    else:
        initial = config.init_a + (config.init_b - config.init_a) * \
            rng.uniforms(config.seed, config.n_trials)
    ensemble = integrate(frames, initial, config.substeps_per_frame)
    comparisons = tuple(
        equilibrium_distance(ensemble, i, frames[i], config.n_bins)
        for i in range(len(frames))
    )
    max_tv = max(c.total_variation for c in comparisons)
    checks = (
        Check("no_aborted_trajectories", not ensemble.flagged,
              f"{len(ensemble.aborted)} aborted"),
        Check("equivariance_total_variation", max_tv < config.tv_tolerance,
              f"max TV {max_tv:.6f} vs tolerance {config.tv_tolerance}"),
    )
    return EquilibriumResult(comparisons=comparisons, frames=frames,
                             ensemble=ensemble, checks=checks)


@dataclass(frozen=True)
class PointerResult:
    statistics: MeasurementStatistics
    measurement: object
    checks: tuple


def pointer_experiment(config: ExperimentConfig) -> PointerResult:
    """Pointer-coordinate measurement of (alpha, beta) via the two-factor
    model: outcome frequencies against the Born weights, and per-trial
    collapse purity against the disjoint-branch criterion."""
    measurement = run_pointer_measurement(
        config.alpha, config.beta, CouplingSpec(config.pointer_shift),
        config.n_trials, config.seed, config.grid(),
        center=config.pointer_center, width=config.pointer_width)
    stats = measurement_statistics(measurement.counts,
                                   (abs(config.alpha) ** 2, abs(config.beta) ** 2))
    checks = (
        born_check(stats),
        Check("collapse_purity", measurement.min_purity > 1.0 - 1e-6,
              f"min purity {measurement.min_purity:.12f}"),
    )
    return PointerResult(statistics=stats, measurement=measurement, checks=checks)

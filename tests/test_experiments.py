import math

import numpy as np
import pytest

from bohmlab import cli, experiments
from bohmlab.config import ConfigError, default_config
from bohmlab.experiments import detection_time, measurement_statistics
from bohmlab.hilbert import spin_rotation
from bohmlab.trajectories import Ensemble, sample_positions, integrate
from bohmlab.wavefield import (
    DEFLECTION_WIDTH,
    Grid1D,
    MagnetSpec,
    branch_supports,
    evolve_frames,
    gaussian_packet,
    magnet_kick,
)

from conftest import CONFIG_DIR, shipped_config

FAST = dict(n_trials=2000, n_frames=32)


@pytest.fixture(scope="module")
def sg_result():
    cfg = default_config("stern_gerlach", alpha=complex(0.6), beta=complex(0.8), **FAST)
    return cfg, experiments.stern_gerlach(cfg)


@pytest.fixture
def one_aborted_per_run(monkeypatch):
    """`experiments.integrate` with the first trajectory of every call
    NaN from frame 2 on, as `integrate` leaves one that left the grid."""
    def integrate_aborting_one(frames, initial_positions, *args, **kwargs):
        ens = integrate(frames, initial_positions, *args, **kwargs)
        positions = ens.positions.copy()
        positions[0, 2:] = np.nan
        return Ensemble(ens.frame_times, positions)
    monkeypatch.setattr(experiments, "integrate", integrate_aborting_one)


class TestAbortedTrajectories:
    """An aborted trajectory has no outcome: every harness counts
    survivors only and fails `no_aborted_trajectories`."""

    def test_stern_gerlach(self, one_aborted_per_run):
        res = experiments.stern_gerlach(default_config("stern_gerlach", n_trials=200, n_frames=8))
        assert sum(res.statistics.counts) == 199
        assert not {c.name: c.passed for c in res.checks}["no_aborted_trajectories"]

    def test_no_crossing(self, one_aborted_per_run):
        res = experiments.no_crossing_check(default_config("no_crossing", n_trials=200,
                                                           n_frames=8))
        assert sum(res.statistics.counts) == 199
        assert res.inference_accuracy == 1.0
        flags = {c.name: c.passed for c in res.checks}
        assert not flags["no_aborted_trajectories"]
        assert flags["zero_crossings"] and flags["side_inference_exact"]

    def test_sequential(self, one_aborted_per_run):
        cfg = default_config("sequential", n_trials=200, n_frames=8)
        res = experiments.sequential(cfg)
        # one trial aborts in every pipeline run: one in stage 1, one per
        # non-empty branch in each later stage
        aborted = np.cumsum([1] + [sum(c > 0 for c in st.counts)
                                   for st in res.stage_statistics[:-1]])
        for stage, st in enumerate(res.stage_statistics):
            column = res.outcomes[:, stage]
            assert st.counts == (int(np.sum(column == 0)), int(np.sum(column == 1)))
            assert int(np.sum(column == -1)) == aborted[stage]
        # an aborted trial takes no later stage
        assert np.all(np.diff((res.outcomes == -1).astype(int), axis=1) >= 0)
        checks = [c for c in res.checks if c.name == "no_aborted_trajectories"]
        assert len(checks) == 1 and not checks[0].passed
        assert checks[0][2:] == (aborted[-1], "==", 0)


class TestStatistics:
    def test_sums_and_expectation_identity(self):
        stats = measurement_statistics((130, 70), (0.64, 0.36))
        assert sum(stats.counts) == 200
        assert abs(sum(stats.frequencies) - 1.0) < 1e-12
        assert stats.expectation_value == 0.5 * (stats.frequencies[0] - stats.frequencies[1])

    def test_halfwidths(self):
        stats = measurement_statistics((100, 100), (0.5, 0.5))
        assert stats.three_sigma_halfwidths[0] == pytest.approx(3 * math.sqrt(0.25 / 200))


class TestDetectionTime:
    def test_matches_separation_rule(self):
        cfg = default_config("stern_gerlach")
        t = detection_time(cfg)
        k, w = cfg.magnet_mu_b, DEFLECTION_WIDTH
        width_t = w * math.sqrt(1 + (t / (2 * w**2)) ** 2)
        assert 2 * k * t == pytest.approx(10 * width_t, rel=1e-12)

    def test_explicit_flight_time_wins(self):
        cfg = default_config("stern_gerlach", flight_time=2.5)
        assert detection_time(cfg) == 2.5

    def test_weak_magnet_rejected(self):
        # the config is checked where it is built, by the magnet's own rule,
        # which detection_time applies too
        with pytest.raises(ConfigError, match="^magnet.mu_b too weak"):
            default_config("stern_gerlach", magnet_mu_b=1.0)
        with pytest.raises(ValueError, match="^mu_b too weak"):
            MagnetSpec(1.0).separation_time()


class TestSternGerlach:
    def test_pure_up_state_deflects_every_trajectory(self):
        cfg = default_config("stern_gerlach", alpha=complex(1.0), beta=complex(0.0),
                             n_trials=500, n_frames=32)
        res = experiments.stern_gerlach(cfg)
        assert res.statistics.frequencies == (1.0, 0.0)
        assert np.all(res.ensemble.positions[:, -1] > 0)

    def test_born_frequencies_within_three_sigma(self, sg_result):
        _, res = sg_result
        assert all(c.passed for c in res.checks)
        st = res.statistics
        assert abs(st.frequencies[0] - 0.36) <= st.three_sigma_halfwidths[0]

    def test_expectation_against_spin_average(self, sg_result):
        _, res = sg_result
        st = res.statistics
        theory = 0.5 * (0.36 - 0.64)
        assert st.expectation_value == 0.5 * (st.frequencies[0] - st.frequencies[1])
        assert abs(st.expectation_value - theory) <= st.three_sigma_halfwidths[0]

    def test_trajectories_never_cross(self, sg_result):
        from bohmlab.trajectories import check_no_crossing
        _, res = sg_result
        assert check_no_crossing(res.ensemble).violations == 0

    def test_reproducible_bit_for_bit(self):
        cfg = default_config("stern_gerlach", n_trials=300, n_frames=16)
        a = experiments.stern_gerlach(cfg)
        b = experiments.stern_gerlach(cfg)
        assert np.array_equal(a.ensemble.positions, b.ensemble.positions)
        assert a.statistics == b.statistics

    def test_born_consistency_across_seeds(self):
        # shared frames, 100 seeded sampling+integration repetitions:
        # the 3-sigma band must capture the frequency in >= 99 of them
        cfg = default_config("stern_gerlach", **FAST)
        grid = cfg.grid()
        packet = gaussian_packet(grid, 0.0, DEFLECTION_WIDTH, 0.0, cfg.alpha, cfg.beta)
        kicked = magnet_kick(packet, cfg.magnet())
        flight = detection_time(cfg)
        frames = evolve_frames(kicked, experiments.FREE, flight / cfg.n_frames, cfg.n_frames)
        p = abs(cfg.alpha) ** 2
        halfwidth = 3 * math.sqrt(p * (1 - p) / cfg.n_trials)
        misses = 0
        for seed in range(100):
            x0 = sample_positions(frames[0], cfg.n_trials, seed)
            ens = integrate(frames, x0, experiments.FREE)
            f_up = float(np.mean(ens.positions[:, -1] >= 0))
            if abs(f_up - p) > halfwidth:
                misses += 1
        assert misses <= 1


def reference_born_chain(config, axes) -> list[float]:
    """Exact stage-wise up-probabilities from chained projections, computed
    apart from the simulated branches."""
    dist = [(1.0, np.array([config.alpha, config.beta], dtype=complex))]
    born_up = []
    for axis in axes:
        u = spin_rotation(axis)
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


class TestSequential:
    @pytest.mark.parametrize("axes,alpha,beta", [
        (("z", "x", "z"), 0.6, 0.8j),
        (("y", "x", "y", "z"), 0.6 + 0.1j, 0.79372539331937720),
        (("x", "x"), 1 / math.sqrt(2), 1 / math.sqrt(2)),
    ])
    def test_stages_match_the_reference_chain(self, axes, alpha, beta):
        cfg = default_config("sequential", axes=axes, alpha=complex(alpha),
                             beta=complex(beta), n_trials=300, n_frames=32)
        res = experiments.sequential(cfg)
        assert len(res.stage_statistics) == len(axes)
        for stage, (st, p_up) in enumerate(zip(res.stage_statistics,
                                               reference_born_chain(cfg, axes))):
            assert st.born_probabilities == (p_up, 1.0 - p_up)
            column = res.outcomes[:, stage]
            assert st.counts == (int(np.sum(column == 0)), int(np.sum(column == 1)))

    def test_repeated_axis_is_deterministic(self):
        cfg = default_config("sequential", axes=("z", "z"), n_trials=400, n_frames=32)
        res = experiments.sequential(cfg)
        assert np.array_equal(res.outcomes[:, 0], res.outcomes[:, 1])

    def test_orthogonal_axis_randomizes(self):
        # projection oracle: |<up_x|up_z>|^2 = 1/2
        cfg = default_config("sequential", axes=("z", "x"), alpha=complex(1.0),
                             beta=complex(0.0), n_trials=2000, n_frames=32)
        res = experiments.sequential(cfg)
        stage2 = res.stage_statistics[1]
        assert stage2.born_probabilities[0] == pytest.approx(0.5)
        assert abs(stage2.frequencies[0] - 0.5) <= stage2.three_sigma_halfwidths[0]
        assert all(c.passed for c in res.checks)

    def test_intermediate_axis_erases_first_outcome(self):
        cfg = default_config("sequential", axes=("z", "x", "z"), alpha=complex(1.0),
                             beta=complex(0.0), n_trials=2000, n_frames=32)
        res = experiments.sequential(cfg)
        stage3 = res.stage_statistics[2]
        assert stage3.born_probabilities[0] == pytest.approx(0.5)
        assert abs(stage3.frequencies[0] - 0.5) <= stage3.three_sigma_halfwidths[0]


class TestNoCrossing:
    def test_symmetric_run_is_exact(self):
        cfg = default_config("no_crossing", n_trials=500, n_frames=32)
        res = experiments.no_crossing_check(cfg)
        assert res.crossing_report.violations == 0
        assert res.inference_accuracy == 1.0
        assert all(c.passed for c in res.checks)

    def test_an_asymmetric_state_is_a_config_error(self, tmp_path, capsys):
        # the symmetric state is fixed: a spin key is one no_crossing does
        # not read, in the library and in a config file, and no --out is made
        with pytest.raises(ConfigError, match="'spin.alpha'"):
            default_config("no_crossing", alpha=complex(0.6), beta=complex(0.8))
        cfg = tmp_path / "asymmetric.cfg"
        cfg.write_text((CONFIG_DIR / "no_crossing.cfg").read_text()
                       + "spin.alpha = 0.6\nspin.beta = 0.8\n")
        assert cli.main(["sim", "no-crossing", "--config", str(cfg),
                         "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: key 'spin.alpha' is not read by scenario 'no_crossing'"]
        assert not (tmp_path / "out").exists()


class TestEquilibrium:
    def test_free_run_stays_in_equilibrium(self):
        cfg = default_config("equilibrium", n_trials=5000, n_frames=16)
        res = experiments.equilibrium_experiment(cfg)
        assert all(c.total_variation < experiments.TV_TOLERANCE for c in res.comparisons)
        assert all(c.passed for c in res.checks)

    def test_harmonic_run_stays_in_equilibrium(self):
        cfg = shipped_config("equilibrium_harmonic", n_trials=5000, n_frames=16)
        res = experiments.equilibrium_experiment(cfg)
        assert all(c.total_variation < experiments.TV_TOLERANCE for c in res.comparisons)

    def test_non_equilibrium_start_is_detected(self):
        cfg = default_config("equilibrium", n_trials=5000, n_frames=8,
                             init_kind="uniform", init_a=-2.5, init_b=-1.5)
        res = experiments.equilibrium_experiment(cfg)
        assert res.comparisons[0].total_variation > 0.3
        flags = {c.name: c.passed for c in res.checks}
        assert not flags["equivariance_total_variation"]

    def test_a_uniform_start_off_the_grid_is_rejected_where_it_is_built(self):
        # the rule of a config file: these starts would abort at frame 0
        with pytest.raises(ConfigError, match="^init.a, init.b: a uniform start needs"):
            default_config("equilibrium", n_trials=2000, init_kind="uniform",
                           init_a=-30.0, init_b=30.0)


class TestSymmetriesOfTheCut:
    """The symmetries that make `packet.width` no deflection key and
    `grid.x_min` no key at all."""

    @staticmethod
    def deflection(width: float, n_trials: int = 2000, n_frames: int = 32):
        # free flight after a kick maps x -> s x, t -> s^2 t, mu_b -> mu_b / s
        grid = Grid1D(-20.0 * width, 20.0 * width, 512)
        packet = gaussian_packet(grid, 0.0, width, 0.0, 0.6, 0.8)
        kicked = magnet_kick(packet, MagnetSpec(5.0 / width))
        flight = MagnetSpec(5.0).separation_time() * width**2
        frames = evolve_frames(kicked, experiments.FREE, flight / n_frames, n_frames)
        ensemble = integrate(frames, sample_positions(frames[0], n_trials, 7),
                             experiments.FREE)
        return ensemble.positions, branch_supports(frames[-1], experiments.BRANCH_THRESHOLD)

    @pytest.mark.parametrize("width", [4.0, 0.25])
    def test_a_wider_or_narrower_deflection_is_the_unit_run_rescaled(self, width):
        # bit for bit at a power of four (at width 2 the positions agree
        # only to about 1e-13)
        unit, unit_supports = self.deflection(DEFLECTION_WIDTH)
        positions, supports = self.deflection(width)
        assert np.array_equal(positions, width * unit)
        assert int(np.sum(positions[:, -1] >= 0.0)) == int(np.sum(unit[:, -1] >= 0.0)) == 703
        assert supports.up_interval == tuple(width * x for x in unit_supports.up_interval)
        assert supports.down_interval == tuple(width * x for x in unit_supports.down_interval)
        assert supports.gap == width * unit_supports.gap

    @pytest.mark.parametrize("shift", [2.7, -3.3])
    def test_a_free_run_on_a_shifted_grid_is_the_run_translated(self, shift):
        n_frames = 40

        def run(d):
            grid = Grid1D(-16.0 + d, 16.0 + d, 512)
            packet = gaussian_packet(grid, -2.0 + d, 1.0, 1.0, *experiments.EQUILIBRIUM_SPIN)
            frames = evolve_frames(packet, experiments.FREE, 2.0 / n_frames, n_frames)
            return integrate(frames, sample_positions(frames[0], 2000, 7),
                             experiments.FREE).positions, grid
        centred, grid = run(0.0)
        shifted, _ = run(shift)
        # the shift moves a grid node, and so each position an RK4 stage
        # reads off the grid, by rounding only: at most an ulp of the grid
        # length (7.1e-15, 1.1e-13 of a grid spacing) per read, 4 reads per
        # frame, 160 over the run: 1.1e-12, 1.8e-11 of a grid spacing
        tolerance = 4 * n_frames * np.spacing(grid.length)
        assert tolerance < 2e-11 * grid.dx
        assert np.max(np.abs(shifted - shift - centred)) <= tolerance


class TestPointerExperiment:
    def test_checks_pass(self):
        cfg = default_config("pointer", n_trials=2000)
        res = experiments.pointer_experiment(cfg)
        assert all(c.passed for c in res.checks)
        assert sum(res.statistics.counts) == 2000

    def test_branch_overlap_of_the_coupled_state(self):
        disjoint = experiments.pointer_experiment(shipped_config("pointer", n_trials=200))
        assert disjoint.measurement.branch_overlap < 1e-6
        uncoupled = experiments.pointer_experiment(
            shipped_config("pointer", n_trials=200, pointer_shift=0.0))
        assert abs(uncoupled.measurement.branch_overlap - 1.0) < 1e-12

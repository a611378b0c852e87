import tracemalloc

import numpy as np
import pytest

from bohmlab import experiments, rng, threads
from bohmlab.cli import write_ensemble
from bohmlab.config import default_config
from bohmlab.experiments import EQUILIBRIUM_SPIN
from bohmlab.trajectories import (
    Ensemble,
    check_no_crossing,
    equilibrium_distance,
    integrate,
    sample_positions,
)
from bohmlab.wavefield import (
    BoundaryMassError,
    Grid1D,
    PotentialSpec,
    SpinorField,
    evolve,
    evolve_frames,
    gaussian_packet,
    velocity_field,
)

from conftest import analytic_coherent_state, analytic_free_gaussian, shipped_config

FREE = PotentialSpec("free")
HARMONIC = PotentialSpec("harmonic")


def histogram_mass(positions, edges):
    """The masses that np.histogram gives the finite positions."""
    finite = positions[np.isfinite(positions)]
    return np.histogram(finite, bins=edges)[0] / finite.size


def aborted_ids(ensemble):
    """The trajectories that end at NaN: those that left the grid."""
    return tuple(int(i) for i in np.flatnonzero(np.isnan(ensemble.positions[:, -1])))


def plane_wave_frames(grid, k, times):
    psi = np.exp(1j * k * grid.nodes) / np.sqrt(grid.length)
    zero = np.zeros_like(psi)
    return [SpinorField(grid, psi, zero, time=t) for t in times]


class TestSampling:
    def test_uniform_density_deciles(self):
        grid = Grid1D(0.0, 1.0, 256)
        f = SpinorField(grid, np.full(256, grid.length ** -0.5, complex), np.zeros(256, complex))
        samples = sample_positions(f, 100_000, seed=5)
        for d in range(10):
            mass = np.mean((samples >= d / 10) & (samples < (d + 1) / 10))
            assert abs(mass - 0.1) < 0.01

    def test_point_mass(self):
        grid = Grid1D(-1.0, 1.0, 256)
        up = np.zeros(256, complex)
        up[64] = grid.dx ** -0.5
        f = SpinorField(grid, up, np.zeros(256, complex))
        samples = sample_positions(f, 200, seed=1)
        assert np.all(np.abs(samples - grid.nodes[64]) <= grid.dx / 2)

    def test_same_seed_reproduces_bits(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 0.0, 1.0, 0.0)
        assert np.array_equal(sample_positions(f, 1000, seed=42),
                              sample_positions(f, 1000, seed=42))

    def test_zero_field_rejected(self, grid512):
        f = SpinorField(grid512, np.zeros(512, complex), np.zeros(512, complex))
        with pytest.raises(ValueError):
            sample_positions(f, 10, seed=0)


class TestIntegrate:
    def test_constant_velocity_field(self, grid512):
        # a coherent state swings rigidly: its velocity is the same at
        # every x, p(t) = cos t here, so each position moves by sin t
        times = np.linspace(0.0, 2.0, 11)
        frames = [analytic_coherent_state(grid512, t, 0.0, 1.0) for t in times]
        x0 = np.array([-3.0, 0.0, 2.5])
        ens = integrate(frames, x0, HARMONIC, substeps_per_frame=2)
        assert np.max(np.abs(ens.positions[:, -1] - (x0 + np.sin(2.0)))) < 1e-6

    def test_static_real_field_keeps_positions(self, grid512):
        # the harmonic ground state is stationary: its spectral velocity
        # is zero to rounding at every stage time and positions freeze
        f = gaussian_packet(grid512, 0.0, 0.5**0.5, 0.0, 1.0, 0.0)
        frames = evolve_frames(f, HARMONIC, 0.5, 2)
        x0 = np.array([-1.0, 0.3, 1.2])
        ens = integrate(frames, x0, HARMONIC, substeps_per_frame=4)
        assert np.max(np.abs(ens.positions[:, -1] - x0)) < 1e-12

    def test_center_trajectory_follows_packet(self, grid512):
        w0, k = 1.0, 1.0
        times = np.linspace(0.0, 2.0, 21)
        frames = [analytic_free_gaussian(grid512, w0, t, momentum=k) for t in times]
        ens = integrate(frames, np.array([0.0]), FREE, substeps_per_frame=4)
        width_t = w0 * np.sqrt(1 + (times[-1] / (2 * w0**2)) ** 2)
        assert abs(ens.positions[0, -1] - k * times[-1]) < 1e-3 * width_t

    def test_requires_uniform_spacing(self, grid512):
        frames = plane_wave_frames(grid512, 1.0, [0.0, 0.5, 1.5])
        with pytest.raises(ValueError):
            integrate(frames, [0.0], FREE)

    def test_requires_two_frames(self, grid512):
        frames = plane_wave_frames(grid512, 1.0, [0.0])
        with pytest.raises(ValueError):
            integrate(frames, [0.0], FREE)

    def test_requires_a_substep_per_frame(self, grid512):
        frames = plane_wave_frames(grid512, 1.0, [0.0, 0.5])
        with pytest.raises(ValueError, match="at least 1 RK4 substep, got 0"):
            integrate(frames, [0.0], FREE, substeps_per_frame=0)

    def test_escaping_trajectory_is_aborted_and_flagged(self, grid512):
        # 15.9 lies in the underflowed tail ahead of the packet, whose
        # nodes take the velocity of the nearest live node, so it leaves
        times = np.linspace(0.0, 2.0, 11)
        frames = [analytic_free_gaussian(grid512, 1.0, t, momentum=1.0) for t in times]
        ens = integrate(frames, np.array([0.0, 15.9]), FREE, substeps_per_frame=2)
        assert aborted_ids(ens) == (1,)
        assert np.isfinite(ens.positions[0, -1])

    def test_fourth_order_convergence(self, grid512):
        # coarse frames on the spreading Gaussian: every stage reads psi at
        # its own time, so the runs differ only in the RK step and the
        # reference at 8x substeps isolates the RK error
        w0 = 0.5
        times = [0.0, 0.8, 1.6, 2.4]
        frames = [analytic_free_gaussian(grid512, w0, t) for t in times]
        x0 = np.array([1.0])

        def terminal(substeps):
            return integrate(frames, x0, FREE, substeps_per_frame=substeps).positions[0, -1]

        reference = terminal(8)
        err1 = abs(terminal(1) - reference)
        err2 = abs(terminal(2) - reference)
        assert err1 > 1e-8          # measurable, not rounding noise
        assert err1 / err2 >= 8.0

    def test_bitwise_reproducible(self, grid512):
        w0 = 1.0
        times = np.linspace(0.0, 1.0, 6)
        frames = [analytic_free_gaussian(grid512, w0, t) for t in times]
        x0 = sample_positions(frames[0], 500, seed=9)
        a = integrate(frames, x0, FREE, substeps_per_frame=4)
        b = integrate(frames, x0, FREE, substeps_per_frame=4)
        assert np.array_equal(a.positions, b.positions)


def integrate_in_given_order(frames, initial_positions, potential, substeps_per_frame):
    """The RK4 loop of `integrate` run in the caller's order, as it was
    before `integrate` sorted by initial position; the reference for the
    bit-identity test."""
    grid = frames[0].grid
    times = np.array([f.time for f in frames])
    x = np.array(initial_positions, dtype=float)
    positions = np.full((x.size, len(times)), np.nan)
    positions[:, 0] = x
    alive = np.isfinite(x) & (x >= grid.x_min) & (x <= grid.x_max)
    x = np.where(alive, x, np.nan)
    h = float(times[1] - times[0]) / substeps_per_frame

    def stage_velocity(i, t):
        # psi of frame i evolved by t; the frame itself at t = 0
        return velocity_field(evolve(frames[i], potential, t, 1) if t > 0.0 else frames[i])

    for i in range(len(times) - 1):
        for s in range(substeps_per_frame):
            f0 = stage_velocity(i, s * h)
            fm = stage_velocity(i, (s + 0.5) * h)
            f1 = (stage_velocity(i, (s + 1.0) * h) if s + 1 < substeps_per_frame
                  else velocity_field(frames[i + 1]))
            k1 = np.interp(x, grid.nodes, f0)
            k2 = np.interp(x + 0.5 * h * k1, grid.nodes, fm)
            k3 = np.interp(x + 0.5 * h * k2, grid.nodes, fm)
            k4 = np.interp(x + h * k3, grid.nodes, f1)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        escaped = alive & ((x < grid.x_min) | (x > grid.x_max))
        if escaped.any():
            alive = alive & ~escaped
            x = np.where(alive, x, np.nan)
        positions[:, i + 1] = x
    return positions, tuple(int(i) for i in np.where(~alive)[0])


@pytest.mark.parametrize("name", ["equilibrium_free", "equilibrium_harmonic"])
def test_shipped_equilibrium_trajectories_match_the_oracle(name):
    # free: X = c + p t + (X0 - c) sigma_t / sigma; harmonic (coherent
    # state in the unit well): X = X0 - c + c cos t + p sin t
    cfg = shipped_config(name)
    potential = cfg.potential()
    packet = gaussian_packet(cfg.grid(), cfg.packet_center, cfg.packet_width,
                             cfg.packet_momentum, *EQUILIBRIUM_SPIN)
    frames = evolve_frames(packet, potential, cfg.duration / cfg.n_frames, cfg.n_frames)
    x0 = sample_positions(frames[0], 2000, cfg.seed)
    start, t = x0[:, None], np.array([f.time for f in frames])
    c, p = cfg.packet_center, cfg.packet_momentum
    if cfg.potential_kind == "free":
        spread = np.sqrt(1.0 + (t / (2.0 * cfg.packet_width**2)) ** 2)
        oracle = c + p * t + (start - c) * spread
    else:
        assert potential == HARMONIC
        oracle = start - c + c * np.cos(t) + p * np.sin(t)

    def max_error(substeps):
        ens = integrate(frames, x0, potential, substeps_per_frame=substeps)
        assert not aborted_ids(ens)
        return float(np.max(np.abs(ens.positions - oracle)))

    err1, err2 = max_error(1), max_error(2)
    assert err1 < 1e-6
    assert err1 / err2 >= 8.0


class TestOrderedIntegration:
    def test_bit_identical_to_the_given_order(self, grid512):
        # a drifting, spreading packet; unsorted starts with ties, a NaN
        # start, starts off the grid and one start ahead of the packet
        # that leaves the grid mid-run
        times = np.linspace(0.0, 2.0, 11)
        frames = [analytic_free_gaussian(grid512, 1.0, t, momentum=3.0) for t in times]
        x0 = sample_positions(frames[0], 300, seed=4)
        x0 = np.concatenate((x0, x0[:20], [np.nan, 40.0, -16.5, 12.0], x0[100:110]))
        ens = integrate(frames, x0, FREE, substeps_per_frame=3)
        positions, aborted = integrate_in_given_order(frames, x0, FREE, 3)

        escaper = 323
        assert np.all(np.isfinite(positions[escaper, :6]))
        assert np.isnan(positions[escaper, -1])
        assert aborted == (320, 321, 322, escaper)
        assert np.array_equal(ens.positions.view(np.uint64), positions.view(np.uint64))
        assert aborted_ids(ens) == aborted

    @pytest.mark.parametrize("potential", [FREE, HARMONIC], ids=["free", "harmonic"])
    @pytest.mark.parametrize("substeps", [1, 3])
    def test_stacked_stage_fields_match_the_per_stage_reference(self, grid512, potential,
                                                                substeps):
        # two packets far apart, so that the nodes between and beyond them
        # fall below the density threshold and take the nearest live
        # velocity; starts placed there follow those filled velocities.
        # 10 intervals fill more than one stack of frames.
        x = grid512.nodes
        psi = (np.exp(-((x + 8.0) ** 2) / 2.0 - 0.3j * x)
               + 0.5 * np.exp(-((x - 8.0) ** 2) / 2.0 + 0.3j * x))
        psi /= np.sqrt(2 * np.sum(np.abs(psi) ** 2) * grid512.dx)
        frames = evolve_frames(SpinorField(grid512, psi, 1j * psi), potential, 0.1, 10)
        live = frames[0].density() >= 1e-12 * frames[0].density().max()
        starts = np.array([-13.5, -0.5, 0.0, 0.5, 13.5])
        assert not live[np.searchsorted(x, starts)].any()
        x0 = np.concatenate((sample_positions(frames[0], 300, seed=6), starts))
        ens = integrate(frames, x0, potential, substeps_per_frame=substeps)
        positions, aborted = integrate_in_given_order(frames, x0, potential, substeps)
        assert np.array_equal(ens.positions.view(np.uint64), positions.view(np.uint64))
        assert aborted_ids(ens) == aborted

    @pytest.mark.parametrize("substeps", [1, 3])
    def test_the_first_stage_field_at_the_edge_in_time_order_raises(self, grid512, substeps):
        # frame 0 drifts into the edge zone only at a later checkpoint of
        # its stage evolutions, while frame 2 starts in it; in time order
        # frame 0 fails first, and its error is the one raised
        times = np.linspace(0.0, 2.4, 5)
        rest = gaussian_packet(grid512, 0.0, 1.0, 0.0, 1.0, 0.0)
        frames = [SpinorField(grid512, f.up, f.down, time=t) for f, t in zip(
            [gaussian_packet(grid512, 11.3, 0.5, 10.0, 1.0, 0.0), rest,
             gaussian_packet(grid512, 12.5, 0.5, 0.0, 1.0, 0.0), rest, rest], times)]
        x0 = sample_positions(rest, 100, seed=1)
        with pytest.raises(BoundaryMassError) as reference:
            integrate_in_given_order(frames, x0, FREE, substeps)
        with pytest.raises(BoundaryMassError) as frame_2:
            evolve(frames[2], FREE, 0.3 / substeps, 1)
        assert str(frame_2.value) != str(reference.value)
        with pytest.raises(BoundaryMassError) as raised:
            integrate(frames, x0, FREE, substeps_per_frame=substeps)
        assert str(raised.value) == str(reference.value)

    def test_bit_identical_on_one_and_two_threads(self, usable_cpus, escaping_run):
        frames, x0 = escaping_run
        assert x0.size * len(frames) >= threads.MIN_VALUES
        runs = {}
        for cpus in (1, 2):
            usable_cpus(cpus)
            runs[cpus] = integrate(frames, x0, FREE)
        one, two = runs[1], runs[2]
        assert np.array_equal(one.positions.view(np.uint64), two.positions.view(np.uint64))
        # escapes from the grid in both halves of the position order
        middle = np.sort(x0)[x0.size // 2]
        escaped = [i for i in aborted_ids(one) if np.isfinite(one.positions[i, 1])]
        assert min(x0[escaped]) < middle < max(x0[escaped])

    def test_frames_are_contiguous_read_only_columns(self, usable_cpus, escaping_run):
        frames, x0 = escaping_run
        reference, aborted = integrate_in_given_order(frames, x0, FREE, 1)
        for cpus in (1, 2):
            usable_cpus(cpus)
            ens = integrate(frames, x0, FREE)
            assert aborted_ids(ens) == aborted
            for i in range(len(frames)):
                column = ens.positions[:, i]
                assert column.flags.c_contiguous
                assert np.array_equal(column.view(np.uint64), reference[:, i].view(np.uint64))
            assert not ens.positions.base.flags.writeable
            with pytest.raises(ValueError):
                ens.positions[0, 0] = 0.0
            with pytest.raises(ValueError):
                ens.positions[:, 1] = 0.0

    def test_the_ensemble_is_held_once(self, usable_cpus, grid512):
        # each frame's row written in place: a second copy would take the
        # traced peak to two ensembles' worth of bytes
        frames = [analytic_free_gaussian(grid512, 1.0, t) for t in np.linspace(0.0, 2.0, 41)]
        x0 = np.random.default_rng(3).normal(size=20_000)
        for cpus in (1, 2):
            usable_cpus(cpus)
            tracemalloc.start()
            try:
                ens = integrate(frames, x0, FREE)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * ens.positions.nbytes


def run_ensemble(name):
    """The ensemble of a shipped config's run, or of a uniform start."""
    if name == "uniform":
        cfg = default_config("equilibrium", init_kind="uniform", init_a=-1.0, init_b=1.0,
                             n_trials=7000)
    else:
        cfg = shipped_config(name)
    run = {"stern_gerlach": experiments.stern_gerlach,
           "no_crossing": experiments.no_crossing_check,
           "equilibrium": experiments.equilibrium_experiment}[cfg.scenario]
    return cfg, run(cfg).ensemble


class TestAscendingStarts:
    def test_sample_positions_are_the_sorted_draws(self, grid512):
        field = analytic_free_gaussian(grid512, 1.0, 0.0, momentum=2.0)
        x0 = sample_positions(field, 5000, seed=11)
        draws = rng.sample_from_density(grid512.nodes, field.density(), 5000, 11)
        assert np.all(x0[:-1] <= x0[1:])
        assert np.array_equal(x0.view(np.uint64), np.sort(draws).view(np.uint64))

    @pytest.mark.parametrize("name", ["stern_gerlach", "no_crossing", "equilibrium_free",
                                      "equilibrium_harmonic", "uniform"])
    def test_every_run_integrates_ascending_starts(self, usable_cpus, name):
        # two CPUs, so that a large equilibrium run advances its starts in
        # two halves, one on the helper
        usable_cpus(2)
        cfg, ens = run_ensemble(name)
        starts = ens.positions[:, 0]
        assert starts.size == cfg.n_trials
        assert np.all(starts[:-1] <= starts[1:])
        if name == "uniform":
            # the affine map is monotone: mapping the sorted draws gives
            # the bits of sorting the mapped draws
            mapped = cfg.init_a + (cfg.init_b - cfg.init_a) * rng.uniforms(cfg.seed,
                                                                          cfg.n_trials)
            assert np.array_equal(starts.view(np.uint64), np.sort(mapped).view(np.uint64))


class TestNoCrossing:
    def test_rigid_translation_has_no_violations(self, grid512):
        frames = [analytic_coherent_state(grid512, t, 0.0, 1.0)
                  for t in np.linspace(0.0, 2.0, 11)]
        x0 = sample_positions(frames[0], 200, seed=2)
        ens = integrate(frames, x0, HARMONIC, substeps_per_frame=2)
        assert check_no_crossing(ens).violations == 0

    def test_injected_swap_detected(self):
        times = np.array([0.0, 1.0, 2.0])
        positions = np.array([[0.0, 0.0, 0.0],
                              [1.0, 1.0, 1.0],
                              [2.0, 2.0, 2.0]])
        swapped = positions.copy()
        swapped[[0, 2], 1] = swapped[[2, 0], 1]     # cross at the middle frame
        ens = Ensemble(frame_times=times, positions=swapped)
        report = check_no_crossing(ens)
        assert report.violations >= 1
        assert report.first_violation is not None

    def test_a_hand_built_ensemble_is_read_in_start_order(self):
        # starts in no order and a NaN start: the neighbours by start are
        # ids 2, 3 and 0, and id 1 is left out
        positions = np.array([[1.0, 1.5, 2.0], [np.nan, 0.0, 0.0],
                              [-1.0, -0.5, 0.0], [0.5, 1.0, 1.5]])
        assert check_no_crossing(Ensemble(np.arange(3.0), positions)) == (0, None)
        crossed = positions.copy()
        crossed[3, 2] = 2.5                        # id 3 passes id 0 at frame 2
        assert check_no_crossing(Ensemble(np.arange(3.0), crossed)) == (1, ((3, 0), 2))


class TestEquilibriumDistance:
    def test_sampling_noise_scale_at_frame_zero(self, grid512):
        n, bins = 50_000, 64
        f = analytic_free_gaussian(grid512, 1.0, 0.0)
        x0 = sample_positions(f, n, seed=17)
        frames = [analytic_free_gaussian(grid512, 1.0, t) for t in (0.0, 0.1)]
        ens = integrate(frames, x0, FREE, substeps_per_frame=1)
        comp = equilibrium_distance(ens, 0, frames[0], bins)
        # multinomial noise bound for n draws over that many cells
        assert comp.total_variation < 2 * np.sqrt(bins / n)
        assert abs(comp.empirical_mass.sum() - 1.0) < 1e-9
        assert abs(comp.theoretical_mass.sum() - 1.0) < 1e-9

    def test_degenerate_single_bin_matches_exactly(self):
        # node 133's cell lies strictly inside one of the 16 bins, so the
        # occupied bin carries theoretical mass 1 and the match is exact
        grid = Grid1D(-1.0, 1.0, 256)
        up = np.zeros(256, complex)
        up[133] = grid.dx ** -0.5
        f = SpinorField(grid, up, np.zeros(256, complex))
        times = np.array([0.0, 1.0])
        positions = np.array([[grid.nodes[133], grid.nodes[133]]])
        ens = Ensemble(frame_times=times, positions=positions)
        comp = equilibrium_distance(ens, 0, f, 16)
        assert comp.total_variation == 0.0

    def test_counts_with_aborted_trajectories_are_those_of_np_histogram(self, usable_cpus,
                                                                        escaping_run):
        frames, x0 = escaping_run
        for cpus in (1, 2):
            usable_cpus(cpus)
            ens = integrate(frames, x0, FREE)
            assert aborted_ids(ens)
            for i, frame in enumerate(frames):
                comp = equilibrium_distance(ens, i, frame, 64)
                assert np.array_equal(comp.empirical_mass,
                                      histogram_mass(ens.positions[:, i], comp.bin_edges))

    def test_counts_of_crossing_rows_are_those_of_np_histogram(self, grid512):
        # every frame drawn afresh, so that the rows cross everywhere; some
        # positions sit on bin edges (both ends of the grid among them),
        # off the grid, at infinity or at NaN
        gen = np.random.default_rng(3)
        edges = np.linspace(grid512.x_min, grid512.x_max, 17)
        positions = gen.uniform(-17.0, 17.0, size=(2000, 6))
        positions[:300] = gen.choice(edges, size=(300, 6))
        positions[300:330] = gen.choice([np.nan, np.inf, -np.inf], size=(30, 6))
        positions = gen.permutation(positions)
        ens = Ensemble(frame_times=np.arange(6.0), positions=positions)
        assert check_no_crossing(ens).violations > 0
        field = analytic_free_gaussian(grid512, 1.0, 0.0)
        for i in range(6):
            comp = equilibrium_distance(ens, i, field, 16)
            assert np.array_equal(comp.bin_edges, edges)
            assert np.array_equal(comp.empirical_mass, histogram_mass(positions[:, i], edges))

    def test_requires_enough_bins(self, grid512):
        f = analytic_free_gaussian(grid512, 1.0, 0.0)
        ens = Ensemble(frame_times=np.array([0.0]),
                       positions=np.array([[0.0]]))
        with pytest.raises(ValueError):
            equilibrium_distance(ens, 0, f, 4)


class TestEnsembleExport:
    def test_header_and_shape(self, grid512, tmp_path):
        frames = [analytic_free_gaussian(grid512, 1.0, t) for t in (0.0, 0.5, 1.0)]
        ens = integrate(frames, [0.0, 1.0], FREE, substeps_per_frame=1)
        path = tmp_path / "ensemble.csv"
        write_ensemble(ens, path, config_hash="deadbeef", seed=123)
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=deadbeef seed=123"
        assert lines[1] == "trajectory_id,time,position"
        assert len(lines) == 2 + 2 * 3

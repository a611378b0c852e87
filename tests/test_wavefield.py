import math
from pathlib import Path

import numpy as np
import pytest

from bohmlab.cli import _write_frames
from bohmlab.config import parse_config
from bohmlab.experiments import EQUILIBRIUM_SPIN, detection_time
from bohmlab.wavefield import (
    DEFLECTION_WIDTH,
    BoundaryMassError,
    Grid1D,
    MagnetSpec,
    PotentialSpec,
    SpinorField,
    _smallest_mass_interval,
    branch_supports,
    evolve,
    evolve_frames,
    gaussian_packet,
    magnet_kick,
    velocity_field,
)

from conftest import (
    analytic_coherent_state,
    analytic_free_gaussian,
    position_expectation,
    position_width,
    shipped_config,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


class TestGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Grid1D(-1.0, 1.0, 300)          # not a power of two
        with pytest.raises(ValueError):
            Grid1D(-1.0, 1.0, 128)          # too small
        with pytest.raises(ValueError):
            Grid1D(1.0, -1.0, 512)

    def test_geometry(self, grid512):
        assert grid512.dx == pytest.approx(32 / 512)
        assert grid512.k_max == pytest.approx(np.pi / grid512.dx)
        assert grid512.nodes[0] == grid512.x_min
        assert grid512.nodes[-1] == pytest.approx(grid512.x_max - grid512.dx)

    def test_edge_mask_covers_outer_five_percent(self, grid512):
        mask = grid512.edge_mask
        assert mask is grid512.edge_mask
        assert not mask.flags.writeable
        edge = 0.05 * grid512.length
        x = grid512.nodes
        assert np.all(mask[x < grid512.x_min + edge])
        assert np.all(mask[x >= grid512.x_max - edge])
        assert not np.any(mask[(x > grid512.x_min + edge) & (x < grid512.x_max - edge)])


class TestSpinorField:
    def test_components_are_rows_of_psi(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 0.5, 0.6, 0.8)
        assert f.psi.shape == (2, grid512.n_points)
        assert np.shares_memory(f.up, f.psi) and np.shares_memory(f.down, f.psi)
        assert np.array_equal(f.psi[0], f.up) and np.array_equal(f.psi[1], f.down)

    def test_psi_is_read_only(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 0.0, 0.6, 0.8)
        with pytest.raises(ValueError):
            f.psi[0, 0] = 1.0
        with pytest.raises(ValueError):
            f.down[0] = 1.0

    def test_component_shapes_checked(self, grid512):
        psi = np.zeros(grid512.n_points, dtype=complex)
        with pytest.raises(ValueError):
            SpinorField(grid512, psi, psi[:-1])


    def test_a_stack_holds_one_time_per_frame(self, grid512):
        frames = [gaussian_packet(grid512, c, 1.0, 0.5, 0.6, 0.8) for c in (-1.0, 0.0, 2.0)]
        stack = SpinorField(grid512, [f.up for f in frames], [f.down for f in frames],
                            time=[0.0, 0.5, 1.0])
        assert stack.psi.shape == (3, 2, grid512.n_points)
        for f, psi in zip(frames, stack.psi):
            assert np.array_equal(psi, f.psi)
        assert np.array_equal(stack.up, stack.psi[:, 0]) and np.shares_memory(stack.up, stack.psi)
        assert np.array_equal(stack.time, [0.0, 0.5, 1.0])
        ups = np.zeros((3, grid512.n_points), complex)
        with pytest.raises(ValueError):
            SpinorField(grid512, ups, ups[:2])
        with pytest.raises(ValueError):
            SpinorField(grid512, ups[None], ups[None])


class TestGaussianPacket:
    def test_pure_up_spinor(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 0.0, 1.0, 0.0)
        assert np.all(f.down == 0.0)

    def test_normalized(self, grid512):
        f = gaussian_packet(grid512, 1.0, 0.8, 2.0, 0.6, 0.8)
        assert abs(f.norm() - 1.0) < 1e-9

    def test_position_expectation_at_center(self, grid512):
        f = gaussian_packet(grid512, 1.5, 1.0, 0.0, 1.0, 0.0)
        assert abs(position_expectation(f) - 1.5) < grid512.dx

    def test_boundary_proximity_rejected(self, grid512):
        with pytest.raises(ValueError):
            gaussian_packet(grid512, 13.0, 1.0, 0.0, 1.0, 0.0)  # 3 widths from edge

    def test_spin_normalization_required(self, grid512):
        with pytest.raises(ValueError):
            gaussian_packet(grid512, 0.0, 1.0, 0.0, 1.0, 1.0)


class TestEvolve:
    def test_free_gaussian_width_matches_analytic_law(self, grid512):
        w0, t_final = 1.0, 2.0
        f = gaussian_packet(grid512, 0.0, w0, 0.0, 1.0, 0.0)
        out = evolve(f, PotentialSpec("free"), t_final, 1)
        expected = w0 * math.sqrt(1.0 + (t_final / (2 * w0**2)) ** 2)
        assert abs(position_width(out) - expected) / expected < 1e-3

    def test_norm_conserved_over_1000_steps(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 1.0, 0.6, 0.8)
        pot = PotentialSpec("harmonic")
        out = evolve(f, pot, 1000 * 0.2 / grid512.k_max**2, 1)
        assert abs(out.norm() - f.norm()) < 1e-10

    def test_momentum_packet_drifts_at_k(self, grid512):
        k, t_final = 1.5, 2.0
        f = gaussian_packet(grid512, -2.0, 1.0, k, 1.0, 0.0)
        out = evolve(f, PotentialSpec("free"), t_final, 1)
        drift = position_expectation(out) - position_expectation(f)
        assert abs(drift - k * t_final) / (k * t_final) < 1e-3

    def test_boundary_monitor_aborts(self, grid512):
        f = gaussian_packet(grid512, 8.0, 1.0, 4.0, 1.0, 0.0)
        with pytest.raises(BoundaryMassError):
            evolve(f, PotentialSpec("free"), 2.0, 1)

    def test_boundary_monitor_watches_both_components(self, grid512):
        # pure down packet, kicked toward the left edge
        f = magnet_kick(gaussian_packet(grid512, -8.0, 1.0, 0.0, 0.0, 1.0), MagnetSpec(4.0))
        with pytest.raises(BoundaryMassError):
            evolve(f, PotentialSpec("free"), 2.0, 1)

    def test_boundary_monitor_catches_a_full_wrap(self, grid512):
        # momentum 16 for t = 2 carries the packet once around the periodic
        # grid and back into the interior within a single call
        f = gaussian_packet(grid512, 0.0, 1.0, 16.0, 1.0, 0.0)
        with pytest.raises(BoundaryMassError):
            evolve(f, PotentialSpec("free"), 2.0, 1)

    def test_a_stack_raises_for_its_first_field_at_the_edge(self, grid512):
        frames = [gaussian_packet(grid512, c, 0.5, 0.0, 1.0, 0.0) for c in (0.0, 12.5, 12.3)]
        stack = SpinorField(grid512, [f.up for f in frames], [f.down for f in frames],
                            time=[0.0, 0.0, 0.0])
        with pytest.raises(BoundaryMassError) as alone:
            evolve(frames[1], PotentialSpec("free"), 0.01, 1)
        with pytest.raises(BoundaryMassError) as stacked:
            evolve(stack, PotentialSpec("free"), 0.01, 1)
        assert str(stacked.value) == str(alone.value)

    def test_negative_steps_rejected(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="steps"):
            evolve(f, PotentialSpec("free"), 0.1, -1)

    @pytest.mark.parametrize("pot", [PotentialSpec("free"), PotentialSpec("harmonic")])
    def test_zero_steps_leave_the_field_unchanged(self, grid512, pot):
        f = gaussian_packet(grid512, 0.0, 1.0, 1.0, 0.6, 0.8)
        out = evolve(f, pot, 0.1, 0)
        assert np.array_equal(out.psi, f.psi)
        assert out.time == f.time

    def test_free_frames_match_analytic_oracle(self):
        # stern_gerlach geometry: kicked 0.6/0.8 packet, 32 frames
        grid, kick = Grid1D(-20.0, 20.0, 512), 5.0
        flight = 10.0 / math.sqrt(4 * kick**2 - 25.0)
        f = magnet_kick(gaussian_packet(grid, 0.0, 1.0, 0.0, 0.6, 0.8), MagnetSpec(kick))
        for frame in evolve_frames(f, PotentialSpec("free"), flight / 32, 32):
            up = analytic_free_gaussian(grid, 1.0, frame.time, momentum=kick, alpha=0.6).up
            down = analytic_free_gaussian(grid, 1.0, frame.time, momentum=-kick,
                                          alpha=0.0, beta=0.8).down
            assert np.max(np.abs(frame.up - up)) < 1e-13
            assert np.max(np.abs(frame.down - down)) < 1e-13

    def test_free_evolution_composes(self, grid512):
        f = magnet_kick(gaussian_packet(grid512, 0.0, 1.0, 0.5, 0.6, 0.8), MagnetSpec(3.0))
        a, b = 1.0 / 3.0, 2.0 / 3.0
        two = evolve(evolve(f, PotentialSpec("free"), a, 1), PotentialSpec("free"), b, 1)
        one = evolve(f, PotentialSpec("free"), a + b, 1)
        assert np.max(np.abs(two.psi - one.psi)) < 1e-13

    @pytest.mark.parametrize("pot", [PotentialSpec("free"), PotentialSpec("harmonic")])
    def test_returned_time_is_exact(self, grid512, pot):
        f = SpinorField(grid512, *gaussian_packet(grid512, 0.0, 1.0, 0.0, 0.6, 0.8).psi,
                        time=0.3)
        dt = 0.7e-3
        assert evolve(f, pot, dt, 37).time == f.time + 37 * dt

    def test_harmonic_frames_match_analytic_oracle(self):
        # every frame of the shipped equilibrium_harmonic.cfg, up to a
        # global phase
        cfg = parse_config((CONFIG_DIR / "equilibrium_harmonic.cfg").read_text())
        f = gaussian_packet(cfg.grid(), cfg.packet_center, cfg.packet_width,
                            cfg.packet_momentum, *EQUILIBRIUM_SPIN)
        frames = evolve_frames(f, cfg.potential(), cfg.duration / cfg.n_frames, cfg.n_frames)
        assert len(frames) == 41
        for frame in frames:
            oracle = analytic_coherent_state(cfg.grid(), frame.time, cfg.packet_center,
                                             cfg.packet_momentum, *EQUILIBRIUM_SPIN).psi
            phase = np.vdot(oracle, frame.psi)
            assert np.max(np.abs(frame.psi - phase / abs(phase) * oracle)) < 1e-12

    @pytest.mark.parametrize("overrides,potential", [
        (dict(grid_n_points=4096), PotentialSpec("harmonic")),
    ], ids=["n4096"])
    def test_harmonic_frames_match_oracle_off_the_shipped_well(self, overrides, potential):
        # every frame, global phase included
        cfg = shipped_config("equilibrium_harmonic", **overrides)
        f = gaussian_packet(cfg.grid(), cfg.packet_center, cfg.packet_width,
                            cfg.packet_momentum, *EQUILIBRIUM_SPIN)
        for frame in evolve_frames(f, potential, cfg.duration / cfg.n_frames, cfg.n_frames):
            oracle = analytic_coherent_state(cfg.grid(), frame.time, cfg.packet_center,
                                             cfg.packet_momentum, *EQUILIBRIUM_SPIN).psi
            assert np.max(np.abs(frame.psi - oracle)) < 1e-12

    def test_harmonic_evolution_composes(self):
        grid = Grid1D(-12.0, 12.0, 256)
        pot = PotentialSpec("harmonic")
        f = gaussian_packet(grid, 2.0, math.sqrt(0.5), 1.0, 0.6, 0.8)
        a, b = 0.7, 1.9
        two = evolve(evolve(f, pot, a, 1), pot, b, 1)
        one = evolve(f, pot, a + b, 1)
        assert np.max(np.abs(two.psi - one.psi)) < 1e-12

    def test_harmonic_boundary_monitor_aborts(self, grid512):
        # amplitude 12 carries the packet into the edge zone |x| > 14.4
        # (about 3e-4 of its mass) at t = pi/2; by t = pi it is back at the
        # center, so only the checkpoints inside the call can see it
        f = gaussian_packet(grid512, 0.0, math.sqrt(0.5), 12.0, 1.0, 0.0)
        with pytest.raises(BoundaryMassError):
            evolve(f, PotentialSpec("harmonic"), math.pi, 1)

    def test_components_never_mix(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 0.5, 1.0, 0.0)
        kicked = magnet_kick(f, MagnetSpec(2.0))
        out = evolve(kicked, PotentialSpec("free"), 0.1, 1)
        assert np.all(out.down == 0.0)

    def test_harmonic_coherent_state_oscillates(self):
        # packet of ground-state width swings rigidly: <x>(t) = x0 cos(t)
        grid = Grid1D(-12.0, 12.0, 256)
        w = 1 / math.sqrt(2.0)
        f = gaussian_packet(grid, 2.0, w, 0.0, 1.0, 0.0)
        pot = PotentialSpec("harmonic")
        t_final = math.pi / 2
        out = evolve(f, pot, t_final, 1)
        assert abs(position_expectation(out) - 2.0 * math.cos(t_final)) < 1e-3
        assert abs(position_width(out) - w) < 1e-3


class TestMagnetKick:
    def test_zero_kick_is_identity(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 0.0, 0.6, 0.8)
        out = magnet_kick(f, MagnetSpec(0.0))
        assert np.array_equal(out.up, f.up)
        assert np.array_equal(out.down, f.down)

    def test_norm_unchanged(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 0.0, 0.6, 0.8)
        out = magnet_kick(f, MagnetSpec(5.0))
        assert abs(out.norm() - f.norm()) < 1e-12

    def test_branch_group_velocities(self, grid512):
        # up moves at +mu_b, down at -mu_b under free flight
        kick = 3.0
        f = gaussian_packet(grid512, 0.0, 1.0, 0.0, 1 / np.sqrt(2), 1 / np.sqrt(2))
        kicked = magnet_kick(f, MagnetSpec(kick))
        t_final = 1.0
        out = evolve(kicked, PotentialSpec("free"), t_final, 1)
        x = grid512.nodes

        def centroid(c):
            w = np.abs(c) ** 2
            return float(np.sum(x * w) / np.sum(w))

        v_up = (centroid(out.up) - centroid(kicked.up)) / t_final
        v_down = (centroid(out.down) - centroid(kicked.down)) / t_final
        assert abs(v_up - kick) / kick < 1e-2
        assert abs(v_down + kick) / kick < 1e-2

    def test_commutes_with_global_phase(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 0.5, 0.6, 0.8)
        theta = 0.7
        phased = SpinorField(grid512, np.exp(1j * theta) * f.up,
                             np.exp(1j * theta) * f.down, f.time)
        a = magnet_kick(phased, MagnetSpec(3.0))
        b = magnet_kick(f, MagnetSpec(3.0))
        assert np.max(np.abs(a.up - np.exp(1j * theta) * b.up)) < 1e-15
        assert np.max(np.abs(a.down - np.exp(1j * theta) * b.down)) < 1e-15


class TestBranchSupports:
    def test_single_branch_trivially_separated(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 0.0, 1.0, 0.0)
        report = branch_supports(f, 0.01)
        assert report.down_interval is None
        assert report.gap == math.inf

    def test_identical_envelopes_not_separated(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 0.0, 1 / np.sqrt(2), 1 / np.sqrt(2))
        kicked = magnet_kick(f, MagnetSpec(5.0))
        assert branch_supports(kicked, 0.01).gap <= 0

    def test_separated_after_flight(self, grid512):
        kick, w0 = 5.0, 1.0
        f = gaussian_packet(grid512, 0.0, w0, 0.0, 1 / np.sqrt(2), 1 / np.sqrt(2))
        kicked = magnet_kick(f, MagnetSpec(kick))
        # flight time from the analytic spread: separation 2kT >= 10 width(T)
        t_final = 10 * w0 / math.sqrt(4 * kick**2 - 25 / w0**2)
        out = evolve(kicked, PotentialSpec("free"), t_final, 1)
        report = branch_supports(out, 0.01)
        assert report.gap > 0
        assert report.up_interval[0] > report.down_interval[1]

    @staticmethod
    def two_pointer_interval(grid, component, fraction):
        # the reference: for each start node, walk the end node forward
        # until the window holds the fraction; keep the first narrowest
        masses = np.abs(component) ** 2 * grid.dx
        total = float(masses.sum())
        if total < 1e-12:
            return None
        target = fraction * total
        cum = np.concatenate(([0.0], np.cumsum(masses)))
        x = grid.nodes
        best = None
        j = 0
        for i in range(grid.n_points):
            j = max(j, i)
            while j < grid.n_points and cum[j + 1] - cum[i] < target:
                j += 1
            if j == grid.n_points:
                break
            left, right = float(x[i]), float(x[j] + grid.dx)
            if best is None or right - left < best[1] - best[0]:
                best = (left, right)
        return best

    def test_the_binary_search_finds_the_two_pointer_intervals(self, grid512):
        # bit for bit, on every frame of the shipped deflection configs at
        # four spin states and on random packets, at four fractions
        fields = []
        for name in ("stern_gerlach", "sequential_zx", "no_crossing"):
            cfg = shipped_config(name)
            for alpha in (0.6, 1 / math.sqrt(2), 0.1, 1.0):
                packet = gaussian_packet(cfg.grid(), 0.0, DEFLECTION_WIDTH, 0.0,
                                         alpha, math.sqrt(1 - alpha ** 2))
                fields += evolve_frames(magnet_kick(packet, cfg.magnet()), PotentialSpec("free"),
                                        detection_time(cfg) / cfg.n_frames, cfg.n_frames)
        gen = np.random.default_rng(37)
        for _ in range(200):
            alpha = gen.uniform(0.0, 1.0)
            fields.append(gaussian_packet(grid512, gen.uniform(-6, 6), gen.uniform(0.3, 2.0),
                                          gen.uniform(-3, 3), alpha, math.sqrt(1 - alpha ** 2)))
        for field in fields:
            for component in (field.up, field.down):
                for fraction in (0.5, 0.9, 0.99, 0.999999):
                    assert (_smallest_mass_interval(field.grid, component, fraction)
                            == self.two_pointer_interval(field.grid, component, fraction))

    def test_threshold_validated(self, grid512):
        f = gaussian_packet(grid512, 0.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            branch_supports(f, 1.5)


class TestVelocityField:
    def test_plane_wave(self, grid512):
        k = 2 * np.pi * 8 / grid512.length     # grid-commensurate
        psi = np.exp(1j * k * grid512.nodes) / np.sqrt(grid512.length)
        f = SpinorField(grid512, psi, np.zeros_like(psi))
        assert np.max(np.abs(velocity_field(f) - k)) < 1e-9

    def test_real_field_is_static(self, grid512):
        # analytically v = 0 everywhere; in floats the spectral-derivative
        # rounding (~1e-16) divided by near-threshold densities (~1e-12 of
        # peak, amplitude 1e-6) leaves residue up to ~1e-10
        f = gaussian_packet(grid512, 0.0, 1.0, 0.0, 0.6, 0.8)
        assert np.max(np.abs(velocity_field(f))) < 1e-8

    def test_counter_propagating_branches_balance_at_midpoint(self, grid512):
        x = grid512.nodes
        k, a = 3.0, 2.0
        psi = np.exp(-((x - a) ** 2) / 4) * np.exp(1j * k * x) \
            + np.exp(-((x + a) ** 2) / 4) * np.exp(-1j * k * x)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid512.dx)
        f = SpinorField(grid512, psi, np.zeros_like(psi))
        v = velocity_field(f)
        j0 = int(np.argmin(np.abs(x)))
        assert x[j0] == 0.0
        assert abs(v[j0]) < 1e-9

    def test_node_regularization_keeps_speeds_finite(self, grid512):
        # narrow packet far off-center: far tails fall below the node
        # threshold and must inherit a finite, capped velocity
        f = gaussian_packet(grid512, 6.0, 0.5, 2.0, 1.0, 0.0)
        v = velocity_field(f)
        assert np.all(np.isfinite(v))
        assert np.max(np.abs(v)) <= grid512.k_max


    def test_dead_nodes_take_the_nearest_live_velocity(self, grid512):
        # dead runs at both ends and in two gaps, of even and odd length
        # (the middle node of the odd gap is a tie, won by the left node)
        x = grid512.nodes
        amplitude = np.ones(grid512.n_points)
        for lo, hi in ((0, 3), (100, 102), (200, 203), (508, 512)):
            amplitude[lo:hi] = 1e-8
        f = SpinorField(grid512, amplitude * np.exp(0.3j * x**2 + 0.01j * x**3),
                        np.zeros(grid512.n_points))
        v = velocity_field(f)
        live = np.flatnonzero(f.density() >= 1e-12 * f.density().max())
        assert live.size == grid512.n_points - 12
        assert np.unique(v[live]).size == live.size     # a wrong neighbour would show
        for j in sorted(set(range(grid512.n_points)) - set(live)):
            nearest = live[np.argmin(np.abs(live - j))]  # the first, i.e. left, on a tie
            assert v[j] == v[nearest], j

    @pytest.mark.parametrize("potential", [PotentialSpec("free"), PotentialSpec("harmonic")],
                             ids=["free", "harmonic"])
    def test_a_stack_gives_each_frame_its_own_bits(self, grid512, potential):
        # frames with sub-threshold tails and a dead gap, and a NaN frame,
        # whose velocities are all 0: one frame's values never reach another
        x = grid512.nodes
        frames = [gaussian_packet(grid512, c, w, p, 0.6, 0.8)
                  for c, w, p in ((-3.0, 0.5, 2.0), (0.0, 1.0, -1.0), (4.0, 0.3, 0.0))]
        two = np.exp(-((x + 7.0) ** 2) / 2.0 + 0.5j * x) + np.exp(-((x - 7.0) ** 2) / 2.0)
        frames += [SpinorField(grid512, two, 0.5 * two),
                   SpinorField(grid512, np.full(grid512.n_points, np.nan), np.zeros(512))]
        stack = SpinorField(grid512, [f.up for f in frames], [f.down for f in frames],
                            time=[f.time for f in frames])
        evolved = evolve(stack, potential, 0.3, 1)
        velocities = velocity_field(evolved)
        for i, f in enumerate(frames):
            alone = evolve(f, potential, 0.3, 1)
            assert np.array_equal(evolved.psi[i].view(np.uint64), alone.psi.view(np.uint64))
            assert np.array_equal(velocities[i].view(np.uint64),
                                  velocity_field(alone).view(np.uint64))
        assert np.all(velocities[-1] == 0.0)


class TestContinuity:
    def test_density_current_balance(self, grid512):
        # d_t rho + d_x (rho v) -> 0: midpoint-in-time flux against the
        # frame-difference density derivative, L1 norm
        f = gaussian_packet(grid512, 0.0, 1.0, 1.0, 0.6, 0.8)
        frame_dt = 0.05
        frames = evolve_frames(f, PotentialSpec("free"), frame_dt, 8)

        def flux_divergence(field):
            flux = field.density() * velocity_field(field)
            return np.real(np.fft.ifft(1j * grid512.wavenumbers * np.fft.fft(flux)))

        for a, b in zip(frames[:-1], frames[1:]):
            drho = (b.density() - a.density()) / frame_dt
            resid = drho + 0.5 * (flux_divergence(a) + flux_divergence(b))
            assert np.sum(np.abs(resid)) * grid512.dx < 1e-3


def load_frame(path) -> SpinorField:
    """Read a frame dump back; the real and imaginary parts are set
    separately, since `re + 1j * im` turns an infinite `im` into a NaN real part."""
    with open(path) as fh:
        meta = dict(tok.split("=") for tok in fh.readline().split()[2:])
    data = np.loadtxt(path, comments="#", ndmin=2)
    grid = Grid1D(float(meta["x_min"]), float(meta["x_max"]), int(meta["n_points"]))
    assert data.shape == (grid.n_points, 5)
    up, down = np.empty((2, grid.n_points), dtype=complex)
    up.real, up.imag, down.real, down.imag = data[:, 1:].T
    return SpinorField(grid, up, down, time=float(meta["time"]))


def same_bits(a, b) -> bool:
    """Bit-for-bit equality of two float arrays, any NaN matching any NaN."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


class TestFrameIO:
    def test_round_trip_is_bit_exact(self, grid512, tmp_path):
        f = gaussian_packet(grid512, 0.7, 1.1, 1.3, 0.6, 0.8)
        f = magnet_kick(f, MagnetSpec(2.3))
        up, down = f.up.copy(), f.down.copy()
        edge = [complex(1.0, np.inf), complex(-np.inf, 2.0), complex(np.nan, -np.inf),
                complex(0.5, np.nan), complex(-0.0, -0.0), complex(5e-324, -1e300)]
        up[:len(edge)] = edge
        down[-len(edge):] = edge[::-1]
        f = SpinorField(grid512, up, down, time=f.time)
        _write_frames([f], tmp_path)
        g = load_frame(tmp_path / "frames/frame_0000.txt")
        assert g.grid == f.grid
        assert g.time == f.time
        for a, b in ((g.up, f.up), (g.down, f.down)):
            assert same_bits(a.real, b.real)
            assert same_bits(a.imag, b.imag)
        assert g.up[0].real == 1.0 and g.up[0].imag == np.inf

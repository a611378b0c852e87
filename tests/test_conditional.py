import numpy as np
import pytest

from bohmlab.conditional import (
    CouplingSpec,
    apply_coupling,
    branch_overlap,
    conditional_state,
    run_pointer_measurement,
)
from bohmlab.cli import write_trials
from bohmlab.wavefield import BoundaryMassError, Grid1D, SpinorField, gaussian_packet

from conftest import analytic_free_gaussian

ALPHA, BETA = 0.6, 0.8


@pytest.fixture
def pointer_grid():
    return Grid1D(-24.0, 24.0, 512)


def spin_fidelity(a, b):
    """|<a|b>| for normalized 2-spinors; 1 means equal up to phase."""
    return abs(np.vdot(a, b))


class TestPrepare:
    """The pointer's ready state: `gaussian_packet` at zero momentum."""

    def test_ready_state_is_the_free_gaussian_oracle(self, pointer_grid):
        f = gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA)
        oracle = analytic_free_gaussian(pointer_grid, 1.0, 0.0, alpha=ALPHA, beta=BETA)
        assert np.max(np.abs(f.psi - oracle.psi)) < 1e-15

    def test_pure_component(self, pointer_grid):
        f = gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, 1.0, 0.0)
        assert isinstance(f, SpinorField)
        assert np.all(f.down == 0.0)

    def test_normalized(self, pointer_grid):
        f = gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA)
        assert abs(f.norm() - 1.0) < 1e-9

    def test_product_state_conditioning_preserves_spin(self, pointer_grid):
        f = gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA)
        target = np.array([ALPHA, BETA])
        for y in (-1.3, 0.0, 2.4):
            assert spin_fidelity(conditional_state(f, y), target) > 1 - 1e-12

    def test_spin_normalization_required(self, pointer_grid):
        with pytest.raises(ValueError):
            gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, 1.0, 1.0)

    def test_packet_near_boundary_rejected(self, pointer_grid):
        with pytest.raises(ValueError):
            gaussian_packet(pointer_grid, 21.0, 1.0, 0.0, 1.0, 0.0)

    def test_width_must_be_positive(self, pointer_grid):
        for width in (0.0, -1.0):
            with pytest.raises(ValueError, match="width must be positive"):
                gaussian_packet(pointer_grid, 0.0, width, 0.0, 1.0, 0.0)


class TestCoupling:
    def test_zero_shift_is_identity(self, pointer_grid):
        f = gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA)
        out = apply_coupling(f, CouplingSpec(0.0))
        assert np.array_equal(out.psi, f.psi)

    def test_norm_preserved(self, pointer_grid):
        f = gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA)
        out = apply_coupling(f, CouplingSpec(10.0))
        assert abs(out.norm() - f.norm()) < 1e-12

    def test_branch_weights_are_born_weights_exactly(self, pointer_grid):
        f = apply_coupling(gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA),
                           CouplingSpec(10.0))
        w1, w2 = np.sum(np.abs(f.psi) ** 2, axis=1) * pointer_grid.dx
        assert abs(w1 - ALPHA**2) < 1e-12
        assert abs(w2 - BETA**2) < 1e-12

    def test_overlap_matches_gaussian_formula(self, pointer_grid):
        # normalized branches displaced by 2*shift: overlap exp(-shift^2/(2 w^2))
        width, shift = 1.0, 2.0
        f = apply_coupling(gaussian_packet(pointer_grid, 0.0, width, 0.0, ALPHA, BETA),
                           CouplingSpec(shift))
        expected = np.exp(-(2 * shift) ** 2 / (8 * width**2))
        assert abs(branch_overlap(f) - expected) / expected < 1e-3

    def test_large_shift_overlap_vanishes(self, pointer_grid):
        f = apply_coupling(gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA),
                           CouplingSpec(10.0))
        assert branch_overlap(f) < 1e-6

    def test_boundary_monitor(self, pointer_grid):
        f = gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA)
        with pytest.raises(BoundaryMassError):
            apply_coupling(f, CouplingSpec(22.0))

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            CouplingSpec(-1.0)


class TestConditionalState:
    def test_deep_in_branch_collapses(self, pointer_grid):
        f = apply_coupling(gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA),
                           CouplingSpec(10.0))
        up = conditional_state(f, 10.0)
        assert abs(up[1]) ** 2 < 1e-6
        assert abs(abs(up[0]) - 1.0) < 1e-6
        down = conditional_state(f, -10.0)
        assert abs(down[0]) ** 2 < 1e-6

    def test_midpoint_recovers_spin_state(self, pointer_grid):
        f = apply_coupling(gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA),
                           CouplingSpec(3.0))
        mid = conditional_state(f, 0.0)
        assert spin_fidelity(mid, np.array([ALPHA, BETA])) > 1 - 1e-9

    def test_outside_grid_rejected(self, pointer_grid):
        f = gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA)
        with pytest.raises(ValueError):
            conditional_state(f, 30.0)

    def test_dead_region_rejected(self, pointer_grid):
        f = apply_coupling(gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA),
                           CouplingSpec(10.0))
        with pytest.raises(ValueError):
            conditional_state(f, 22.0)   # 12 widths past the nearer branch

    def test_array_matches_stacked_scalar_calls(self, pointer_grid):
        f = apply_coupling(gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA),
                           CouplingSpec(3.0))
        ys = np.linspace(-9.0, 9.0, 1001)
        batch = conditional_state(f, ys)
        stacked = np.stack([conditional_state(f, float(y)) for y in ys])
        assert batch.shape == (ys.size, 2)
        assert conditional_state(f, 1.0).shape == (2,)
        assert np.array_equal(batch.view(np.float64), stacked.view(np.float64))

    def test_array_names_the_first_failing_value(self, pointer_grid):
        f = apply_coupling(gaussian_packet(pointer_grid, 0.0, 1.0, 0.0, ALPHA, BETA),
                           CouplingSpec(10.0))
        # y = 0 sits in the node between the two disjoint branches
        with pytest.raises(ValueError, match=r"^pointer density at y = 0\.0 is below"):
            conditional_state(f, np.array([10.0, -9.5, 0.0, 10.5]))
        with pytest.raises(ValueError, match=r"^pointer density at y = 0\.0 is below"):
            conditional_state(f, np.array([10.0, 0.0, 30.0]))
        with pytest.raises(ValueError, match=r"^y = 30\.0 lies outside"):
            conditional_state(f, np.array([10.0, 30.0, 0.0]))


class TestPointerMeasurement:
    def test_pure_state_single_outcome(self, pointer_grid):
        m = run_pointer_measurement(1.0, 0.0, CouplingSpec(10.0), 200, 5, pointer_grid)
        assert m.counts == (200, 0)

    def test_balanced_state_binomial(self, pointer_grid):
        a = 1 / np.sqrt(2)
        m = run_pointer_measurement(a, a, CouplingSpec(10.0), 10_000, 11, pointer_grid)
        assert abs(m.counts[0] / 10_000 - 0.5) < 0.015   # 3 sigma for n = 1e4

    def test_every_trial_collapses(self, pointer_grid):
        m = run_pointer_measurement(ALPHA, BETA, CouplingSpec(10.0), 1000, 3, pointer_grid)
        assert m.min_purity > 1 - 1e-6

    def test_reproducible(self, pointer_grid):
        a = run_pointer_measurement(ALPHA, BETA, CouplingSpec(10.0), 100, 8, pointer_grid)
        b = run_pointer_measurement(ALPHA, BETA, CouplingSpec(10.0), 100, 8, pointer_grid)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.outcome, b.outcome)

    def test_trial_export(self, pointer_grid, tmp_path):
        m = run_pointer_measurement(ALPHA, BETA, CouplingSpec(10.0), 20, 8, pointer_grid)
        path = tmp_path / "trials.csv"
        write_trials(m, path, config_hash="cafe")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config_hash=cafe")
        assert lines[1] == "trial_id,y,outcome,re_up,im_up,re_down,im_down"
        assert len(lines) == 22

"""The second thread of large tables and ensembles: when it is used, and
that a failure on either thread propagates and leaves no thread behind.
That its results are bit for bit those of one thread is tested beside
the writer's and the integrator's other tests."""

import threading

import numpy as np
import pytest

from bohmlab import experiments, table, threads
from bohmlab.trajectories import integrate, sample_positions
from bohmlab.wavefield import (
    BoundaryMassError,
    Grid1D,
    PotentialSpec,
    SpinorField,
    gaussian_packet,
)

from conftest import shipped_config

FREE = PotentialSpec("free")


@pytest.mark.parametrize("n_values,cpus,expected", [
    (threads.MIN_VALUES - 1, 2, False),
    (threads.MIN_VALUES, 2, True),
    (threads.MIN_VALUES, 1, False),
    (10**7, 1, False),
])
def test_two_threads_needs_a_large_input_and_two_cpus(usable_cpus, n_values, cpus, expected):
    usable_cpus(cpus)
    assert threads.two_threads(n_values) is expected


@pytest.mark.parametrize("threaded", [False, True])
def test_helper_returns_results_in_order_and_ends(threaded):
    start = threading.active_count()
    with threads.Helper(threaded) as helper:
        pending = [helper.submit(pow, 2, k) for k in range(5)]
        assert threading.active_count() == start + threaded
        assert [result() for result in pending] == [1, 2, 4, 8, 16]
    assert threading.active_count() == start


class TestFailures:
    """With two usable CPUs, so that a helper thread runs."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, usable_cpus):
        usable_cpus(2)
        self.threads_at_start = threading.active_count()
        yield
        assert threading.active_count() == self.threads_at_start

    @pytest.fixture
    def columns(self):
        return [np.arange(7000)[:, None], np.linspace(0.0, 4.0, 41),
                np.random.default_rng(6).normal(size=(7000, 41))]

    def test_formatting_error_on_the_helper_propagates(self, tmp_path, monkeypatch, columns):
        cells, raised = table.format_cells, []

        def failing(arrays):
            if threading.current_thread() is not threading.main_thread() and len(raised) < 1:
                raised.append(threading.current_thread().name)
                raise RuntimeError("formatting failed")
            return cells(arrays)
        monkeypatch.setattr(table, "format_cells", failing)
        with pytest.raises(RuntimeError, match="formatting failed"):
            table.write_table(tmp_path / "table.csv", [], columns)
        assert raised == ["bohmlab-helper"]

    def test_write_error_mid_table_propagates(self, tmp_path, monkeypatch, columns):
        class FailingFile:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 4:            # the header, then the third chunk
                    raise OSError(28, "No space left on device")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

        create = table.create
        monkeypatch.setattr(table, "create", lambda path: FailingFile(create(path)))
        with pytest.raises(OSError, match="No space left"):
            table.write_table(tmp_path / "table.csv", [], columns)
        assert 0 < (tmp_path / "table.csv").stat().st_size

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_integration_error_propagates(self, monkeypatch, escaping_run, where):
        frames, x0 = escaping_run
        interp = np.interp

        def failing(*args, **kwargs):
            on_helper = threading.current_thread() is not threading.main_thread()
            if on_helper == (where == "helper"):
                raise FloatingPointError(f"failed on the {where}")
            return interp(*args, **kwargs)
        monkeypatch.setattr(np, "interp", failing)
        with pytest.raises(FloatingPointError, match=where):
            integrate(frames, x0, FREE)

    def test_evolution_error_of_a_large_equilibrium_run_comes_before_any_draw(
            self, usable_cpus, monkeypatch):
        # the packet reaches the edge zone during evolve_frames, before an
        # ensemble large enough for two threads (7000 x 41 positions) is
        # drawn; one CPU raises the same error
        sample, drawn, errors = experiments.sample_positions, [], []

        def spy(*args):
            drawn.append(args)
            return sample(*args)
        monkeypatch.setattr(experiments, "sample_positions", spy)
        cfg = shipped_config("equilibrium_free", n_trials=7000, duration=20.0)
        for cpus in (2, 1):
            usable_cpus(cpus)
            with pytest.raises(BoundaryMassError) as raised:
                experiments.equilibrium_experiment(cfg)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert drawn == []

    def test_stage_field_error_of_a_large_ensemble_propagates(self, usable_cpus):
        # frame 0 drifts into the edge zone during its stage evolutions,
        # before an ensemble large enough for two threads (5 frames x
        # 52,429 positions) is advanced; one CPU raises the same error
        grid = Grid1D(-16.0, 16.0, 512)
        rest = gaussian_packet(grid, 0.0, 1.0, 0.0, 1.0, 0.0)
        frames = [SpinorField(grid, f.up, f.down, time=t) for f, t in zip(
            [gaussian_packet(grid, 11.3, 0.5, 10.0, 1.0, 0.0)] + [rest] * 4,
            np.linspace(0.0, 2.4, 5))]
        x0 = sample_positions(rest, -(-threads.MIN_VALUES // 5), seed=1)
        errors = []
        for cpus in (2, 1):
            usable_cpus(cpus)
            with pytest.raises(BoundaryMassError) as raised:
                integrate(frames, x0, FREE)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

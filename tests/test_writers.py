"""Every table writer against a per-value `fmt` reference, byte for byte.

The reference renderers below format one value at a time with
`serialize.fmt`, which defines the text of a number; the writers must
produce exactly the same bytes, for real run data and for edge values.
"""

import json
import math
import os
import signal
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from bohmlab import trajectories
from bohmlab.cli import _write_histograms
from bohmlab.conditional import (
    CouplingSpec,
    PointerMeasurement,
    run_pointer_measurement,
    write_trials,
)
from bohmlab.serialize import fmt, json_text
from bohmlab.trajectories import (
    Ensemble,
    equilibrium_distance,
    integrate,
    sample_positions,
    write_ensemble,
)
from bohmlab.wavefield import Grid1D, SpinorField, write_frame

from conftest import analytic_free_gaussian

NEG_NAN = math.copysign(math.nan, -1.0)
EDGE_VALUES = [math.nan, NEG_NAN, math.inf, -math.inf, -0.0, 0.0, 5e-324,
               2.2250738585072014e-308, 1e300, -1e300, 0.1, 1.0 / 3.0]
TEST_PID = os.getpid()


def ref_ensemble(ensemble, config_hash, seed):
    lines = [f"# config_hash={config_hash} seed={seed}",
             "trajectory_id,time,position"]
    for i in range(ensemble.n_trajectories):
        for t, xt in zip(ensemble.frame_times, ensemble.positions[i]):
            lines.append(f"{i},{fmt(float(t))},{fmt(float(xt))}")
    return "\n".join(lines) + "\n"


def ref_frame(field):
    lines = [
        f"# spinor-frame x_min={fmt(field.grid.x_min)} x_max={fmt(field.grid.x_max)}"
        f" n_points={field.grid.n_points} time={fmt(field.time)}",
        "# x re_up im_up re_down im_down",
    ]
    x = field.grid.nodes
    for j in range(field.grid.n_points):
        lines.append(" ".join(fmt(float(v)) for v in
                              (x[j], field.up[j].real, field.up[j].imag,
                               field.down[j].real, field.down[j].imag)))
    return "\n".join(lines) + "\n"


def ref_trials(measurement, config_hash):
    lines = [f"# config_hash={config_hash}",
             "trial_id,y,outcome,re_up,im_up,re_down,im_down"]
    for i, (y, outcome, (up, down)) in enumerate(zip(measurement.y, measurement.outcome,
                                                     measurement.collapsed)):
        lines.append(",".join([str(i), fmt(y), fmt(outcome),
                               fmt(up.real), fmt(up.imag), fmt(down.real), fmt(down.imag)]))
    return "\n".join(lines) + "\n"


def ref_histograms(result, chash):
    lines = [f"# config_hash={chash}", "frame,bin_left,bin_right,empirical,theoretical"]
    for i, comp in enumerate(result.comparisons):
        edges = comp.bin_edges
        for b in range(len(edges) - 1):
            lines.append(",".join([str(i), fmt(float(edges[b])), fmt(float(edges[b + 1])),
                                   fmt(float(comp.empirical_mass[b])),
                                   fmt(float(comp.theoretical_mass[b]))]))
    return "\n".join(lines) + "\n"


def written(tmp_path, write, *args, **kwargs) -> bytes:
    path = tmp_path / "table.txt"
    write(*args, path, **kwargs)
    return path.read_bytes()


@pytest.fixture(scope="module")
def free_run():
    """Frames of a free Gaussian, an integrated ensemble with one
    trajectory aborted at the edge, and its equilibrium comparisons."""
    grid = Grid1D(-16.0, 16.0, 512)
    times = np.linspace(0.0, 2.0, 11)
    frames = [analytic_free_gaussian(grid, 1.0, t, momentum=1.0) for t in times]
    x0 = np.append(sample_positions(frames[0], 300, seed=3), 15.9)
    ensemble = integrate(frames, x0, substeps_per_frame=2)
    comparisons = tuple(equilibrium_distance(ensemble, i, frames[i], 20)
                        for i in range(len(frames)))
    return frames, ensemble, comparisons


def test_format_spec_matches_fmt():
    for v in EDGE_VALUES + [1e16, 1e17]:
        assert f"{v:.17g}" == fmt(v)
        assert "%.17g" % v == fmt(v)
    for n in (0, 7, -3, 10**6, 2**63):
        assert f"{n}" == fmt(n)


def test_json_text_keeps_float_type():
    floats = [2.0, -0.0, 0.0, 1e16, -3.0, 0.5, 1e17, 5e-324, 2.0**0.5]
    assert [json_text(v) for v in floats] == [
        "2.0", "-0.0", "0.0", "10000000000000000.0", "-3.0", "0.5", "1e+17",
        "4.9406564584124654e-324", "1.4142135623730951"]
    assert [json_text(v) for v in (2, -7, math.nan, -math.inf)] == \
        ["2", "-7", '"nan"', '"-inf"']
    for v in floats:
        back = json.loads(json_text(v))
        assert type(back) is float and back == v
        assert math.copysign(1.0, back) == math.copysign(1.0, v)


@pytest.fixture(scope="module")
def large_ensemble():
    """6,500 x 41 positions, above the worker threshold of 2**18 values,
    with NaN-aborted rows and every edge value scattered in, and its
    reference text."""
    rng = np.random.default_rng(9)
    positions = rng.normal(scale=4.0, size=(6500, 41))
    for i in range(0, 6500, 97):
        positions[i, 1 + i % 40:] = np.nan
    cells = rng.choice(positions.size, size=40 * len(EDGE_VALUES), replace=False)
    positions.flat[cells] = np.resize(EDGE_VALUES, cells.size)
    assert positions.size >= trajectories._WORKER_MIN_VALUES
    ensemble = Ensemble(frame_times=np.linspace(0.0, 4.0, 41), positions=positions)
    return ensemble, ref_ensemble(ensemble, "abc", 5).encode()


def _exit_in_worker(lo, hi):
    # stands in for trajectories._format_chunk; fork carries the patch
    assert os.getpid() != TEST_PID, "chunk formatter ran in the test process"
    os._exit(1)


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError (not a RuntimeError) if the block hangs."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _on_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    forks = []
    fork_context = trajectories._fork_context
    monkeypatch.setattr(trajectories, "_fork_context",
                        lambda: forks.append(1) or fork_context())
    return forks


class TestEnsemble:
    def test_integrated_run(self, tmp_path, free_run):
        _, ensemble, _ = free_run
        assert ensemble.flagged and np.isnan(ensemble.positions[-1, -1])
        assert written(tmp_path, write_ensemble, ensemble, config_hash="abc", seed=3) == \
            ref_ensemble(ensemble, "abc", 3).encode()

    def test_edge_values(self, tmp_path):
        positions = np.array([EDGE_VALUES, EDGE_VALUES[::-1]])
        ensemble = Ensemble(frame_times=np.array(EDGE_VALUES), positions=positions)
        data = written(tmp_path, write_ensemble, ensemble, config_hash="abc", seed=7)
        assert data == ref_ensemble(ensemble, "abc", 7).encode()
        assert data.count(b"\n") == 2 + 2 * len(EDGE_VALUES)

    def test_zero_rows(self, tmp_path):
        header = b"# config_hash=abc seed=1\ntrajectory_id,time,position\n"
        no_trajectories = Ensemble(frame_times=np.array([0.0, 1.0]), positions=np.zeros((0, 2)))
        no_frames = Ensemble(frame_times=np.zeros(0), positions=np.zeros((3, 0)))
        for ensemble in (no_trajectories, no_frames):
            assert written(tmp_path, write_ensemble, ensemble, config_hash="abc", seed=1) == header
            assert ref_ensemble(ensemble, "abc", 1).encode() == header

    def test_worker_path(self, tmp_path, monkeypatch, large_ensemble):
        ensemble, reference = large_ensemble
        forks = _on_cpus(monkeypatch, 2)
        with _deadline(60):
            data = written(tmp_path, write_ensemble, ensemble, config_hash="abc", seed=5)
        assert forks == [1]
        assert data == reference

    def test_one_cpu_streams_the_same_bytes(self, tmp_path, monkeypatch, large_ensemble):
        ensemble, reference = large_ensemble
        forks = _on_cpus(monkeypatch, 1)
        assert written(tmp_path, write_ensemble, ensemble, config_hash="abc", seed=5) == reference
        assert forks == []

    def test_dead_worker_raises(self, tmp_path, monkeypatch, large_ensemble):
        _on_cpus(monkeypatch, 2)
        monkeypatch.setattr(trajectories, "_format_chunk", _exit_in_worker)
        with _deadline(60), pytest.raises(RuntimeError):
            written(tmp_path, write_ensemble, large_ensemble[0], config_hash="abc", seed=5)


class TestFrame:
    def test_evolved_frames(self, tmp_path, free_run):
        frames, _, _ = free_run
        for field in (frames[0], frames[-1]):
            assert written(tmp_path, write_frame, field) == ref_frame(field).encode()

    def test_edge_values(self, tmp_path):
        grid = Grid1D(-1.0, 1.0, 256)
        values = np.resize(EDGE_VALUES, 256)
        up, down = values.astype(complex), -values.astype(complex)
        up.imag, down.imag = values[::-1], values
        field = SpinorField(grid, up, down, time=1e300)
        assert written(tmp_path, write_frame, field) == ref_frame(field).encode()


class TestTrials:
    def test_pointer_run(self, tmp_path):
        m = run_pointer_measurement(0.6, 0.8, CouplingSpec(10.0), 500, 11,
                                    Grid1D(-24.0, 24.0, 512))
        assert written(tmp_path, write_trials, m, config_hash="abc") == \
            ref_trials(m, "abc").encode()

    def test_edge_values(self, tmp_path):
        values = np.array(EDGE_VALUES)
        collapsed = np.zeros((values.size, 2), dtype=complex)
        collapsed.real = np.stack([values, -values], axis=1)
        collapsed.imag = np.stack([values[::-1], values], axis=1)
        m = PointerMeasurement(y=values, outcome=1 + np.arange(values.size) % 2,
                               collapsed=collapsed, counts=(6, 6), min_purity=0.0)
        assert written(tmp_path, write_trials, m, config_hash="abc") == \
            ref_trials(m, "abc").encode()

    def test_zero_rows(self, tmp_path):
        m = PointerMeasurement(y=np.zeros(0), outcome=np.zeros(0, dtype=int),
                               collapsed=np.zeros((0, 2), dtype=complex), counts=(0, 0),
                               min_purity=1.0)
        assert written(tmp_path, write_trials, m, config_hash="abc") == \
            b"# config_hash=abc\ntrial_id,y,outcome,re_up,im_up,re_down,im_down\n"


class TestHistograms:
    def test_equilibrium_comparisons(self, tmp_path, free_run):
        _, _, comparisons = free_run
        result = SimpleNamespace(comparisons=comparisons)
        assert written(tmp_path, _write_histograms, result, chash="abc") == \
            ref_histograms(result, "abc").encode()

    def test_edge_values(self, tmp_path):
        values = np.array(EDGE_VALUES)
        comp = SimpleNamespace(bin_edges=np.append(values, 2.0), empirical_mass=values[::-1],
                               theoretical_mass=-values)
        result = SimpleNamespace(comparisons=(comp, comp))
        assert written(tmp_path, _write_histograms, result, chash="abc") == \
            ref_histograms(result, "abc").encode()

    def test_zero_rows(self, tmp_path):
        result = SimpleNamespace(comparisons=())
        assert written(tmp_path, _write_histograms, result, chash="abc") == \
            b"# config_hash=abc\nframe,bin_left,bin_right,empirical,theoretical\n"

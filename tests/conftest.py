import os
import threading
from pathlib import Path

import numpy as np
import pytest

from bohmlab.config import parse_config
from bohmlab.trajectories import sample_positions
from bohmlab.wavefield import Grid1D, SpinorField

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Acceptance criteria report one PASS/FAIL line each; collect them here so
# the terminal summary shows the verdicts even without -s.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(tag: str, passed: bool, detail: str) -> None:
    line = f"{tag} {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def shipped_config(name: str, **overrides):
    """The config of `configs/<name>.cfg`, with fields such as n_trials
    or n_frames replaced to shrink a run (`_replace` validates the result)."""
    return parse_config((CONFIG_DIR / f"{name}.cfg").read_text())._replace(**overrides)


def analytic_free_gaussian(grid: Grid1D, width: float, t: float,
                           momentum: float = 0.0, center: float = 0.0,
                           alpha: complex = 1.0, beta: complex = 0.0) -> SpinorField:
    """Closed-form free Gaussian at time t, used as a solver-independent
    oracle: psi evolves with complex width w0^2 -> w0^2 (1 + i t / (2 w0^2))."""
    x = grid.nodes
    z = 1.0 + 1j * t / (2.0 * width**2)
    xc = center + momentum * t
    psi = z**-0.5 * np.exp(-((x - xc) ** 2) / (4.0 * width**2 * z)
                           + 1j * momentum * (x - xc) + 0.5j * momentum**2 * t)
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return SpinorField(grid, alpha * psi, beta * psi, time=t)


def analytic_coherent_state(grid: Grid1D, t: float, x0: float, p0: float,
                            alpha: complex = 1.0, beta: complex = 0.0) -> SpinorField:
    """Closed-form coherent state of V = x^2 / 2 at time t, the oracle for
    V != 0: a packet of ground-state width 1/sqrt(2) that starts at x0
    with momentum p0 (as `gaussian_packet` builds it) and swings rigidly
    along q = x0 cos t + p0 sin t, p = p0 cos t - x0 sin t."""
    q = x0 * np.cos(t) + p0 * np.sin(t)
    p = p0 * np.cos(t) - x0 * np.sin(t)
    x = grid.nodes
    psi = np.exp(-0.5 * (x - q) ** 2 + 1j * p * x + 0.5j * (x0 * p0 - q * p - t))
    psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return SpinorField(grid, alpha * psi, beta * psi, time=t)


def position_expectation(field: SpinorField) -> float:
    rho = field.density()
    return float(np.sum(field.grid.nodes * rho) / np.sum(rho))


def position_width(field: SpinorField) -> float:
    rho = field.density()
    mean = np.sum(field.grid.nodes * rho) / np.sum(rho)
    var = np.sum((field.grid.nodes - mean) ** 2 * rho) / np.sum(rho)
    return float(np.sqrt(var))


@pytest.fixture
def grid512():
    return Grid1D(-16.0, 16.0, 512)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves behind a live thread it started."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the number of CPUs that `os.sched_getaffinity` reports, which
    decides whether large tables and ensembles use a second thread."""
    def usable(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return usable


@pytest.fixture(scope="session")
def escaping_run():
    """41 frames of a drifting free packet and 7,000 starts in
    random order, 287,000 positions in all: sampled starts, starts that
    are NaN or off the grid, and starts in both tails that leave the grid
    mid-run, so that both halves of the position order abort some."""
    grid = Grid1D(-16.0, 16.0, 512)
    frames = [analytic_free_gaussian(grid, 1.0, t, momentum=0.5)
              for t in np.linspace(0.0, 2.0, 41)]
    edges = [np.nan, -16.5, 16.5, np.inf, -15.9, -15.5, 15.5, 15.9]
    x0 = np.concatenate((sample_positions(frames[0], 7000 - len(edges), seed=13), edges))
    return frames, np.random.default_rng(2).permutation(x0)

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (collected again in the terminal summary).

Statistical criteria run at fixed seeds, so every verdict here is
deterministic and reproducible.
"""

import math
import time

import numpy as np
import pytest

from bohmlab import cli, experiments, nogo
from bohmlab.config import default_config, parse_config
from bohmlab.trajectories import integrate
from bohmlab.wavefield import (
    DEFLECTION_WIDTH,
    PotentialSpec,
    evolve,
    evolve_frames,
    gaussian_packet,
    magnet_kick,
)

from conftest import (
    CONFIG_DIR,
    analytic_free_gaussian,
    position_width,
    record_acceptance,
    shipped_config,
)

SQRT2 = math.sqrt(2.0)


def test_c01_mermin_square_impossibility():
    start = time.perf_counter()
    square = nogo.build_mermin_square()
    identities = nogo.verify_square_identities(square)
    commutators = [res for name, res in identities if name.startswith("commute")]
    products = [res for name, res in identities if name.startswith("product")]
    satisfying = nogo.search_noncontextual_assignment(square, nogo.mermin_constraints())
    elapsed = time.perf_counter() - start

    ok = (len(commutators) == 18
          and all(res < 1e-12 for res in commutators)
          and len(products) == 6
          and all(res < 1e-12 for res in products)
          and satisfying == 0
          and elapsed < 1.0)
    record_acceptance(
        "C01 magic-square impossibility", ok,
        f"18 commutators + 6 products < 1e-12, {satisfying}/512 "
        f"assignments, {elapsed:.3f} s")
    assert ok


def test_c02_linearity_counterexample():
    start = time.perf_counter()
    sum_eigenvalues, _, min_gap = nogo.von_neumann_counterexample()
    elapsed = time.perf_counter() - start
    eig_err = max(abs(sum_eigenvalues[0] + SQRT2), abs(sum_eigenvalues[1] - SQRT2))
    gap_err = abs(min_gap - (2.0 - SQRT2))
    ok = eig_err < 1e-12 and gap_err < 1e-12 and elapsed < 1.0
    record_acceptance(
        "C02 eigenvalue non-additivity", ok,
        f"|eig -+ sqrt2| = {eig_err:.2e}, |gap - (2 - sqrt2)| = {gap_err:.2e}, "
        f"{elapsed:.3f} s")
    assert ok


def test_c03_chsh_bounds():
    start = time.perf_counter()
    local_max, _ = nogo.chsh_local_bound()
    quantum = nogo.chsh_quantum_value()
    elapsed = time.perf_counter() - start
    ok = local_max == 2.0 and abs(quantum - 2 * SQRT2) < 1e-9 and elapsed < 1.0
    record_acceptance(
        "C03 correlation bounds", ok,
        f"local max S = {local_max}, quantum = {quantum:.10f} "
        f"(2 sqrt2 = {2 * SQRT2:.10f}), {elapsed:.3f} s")
    assert ok


@pytest.mark.parametrize("p_up", [0.5, 0.36, 0.1])
def test_c04_born_rule_from_trajectories(p_up):
    alpha, beta = math.sqrt(p_up), math.sqrt(1.0 - p_up)
    cfg = default_config("stern_gerlach", alpha=complex(alpha), beta=complex(beta),
                         n_trials=20000)
    start = time.perf_counter()
    res = experiments.stern_gerlach(cfg)
    elapsed = time.perf_counter() - start
    st = res.statistics
    deviation = abs(st.frequencies[0] - p_up)
    halfwidth = 3.0 * math.sqrt(p_up * (1 - p_up) / cfg.n_trials)
    ok = deviation <= halfwidth and elapsed < 60.0
    record_acceptance(
        f"C04 Born rule (p_up = {p_up})", ok,
        f"f_up = {st.frequencies[0]:.5f}, |dev| = {deviation:.5f} <= {halfwidth:.5f}, "
        f"n = {cfg.n_trials}, {elapsed:.1f} s")
    assert ok


def test_c05_branch_group_velocity():
    cfg = default_config("stern_gerlach")
    kick = cfg.magnet_mu_b
    grid = cfg.grid()
    packet = gaussian_packet(grid, 0.0, DEFLECTION_WIDTH, 0.0,
                             1 / SQRT2, 1 / SQRT2)
    kicked = magnet_kick(packet, cfg.magnet())
    t_final = 1.0
    out = evolve(kicked, PotentialSpec("free"), t_final, 1)
    x = grid.nodes

    def centroid(component):
        w = np.abs(component) ** 2
        return float(np.sum(x * w) / np.sum(w))

    v_up = (centroid(out.up) - centroid(kicked.up)) / out.time
    v_down = (centroid(out.down) - centroid(kicked.down)) / out.time
    err = max(abs(v_up - kick), abs(v_down + kick)) / kick
    ok = err < 0.01
    record_acceptance(
        "C05 branch group velocity", ok,
        f"v_up = {v_up:.6f}, v_down = {v_down:.6f} vs +-{kick}, rel err {err:.2e}")
    assert ok


def test_c06_equivariance_free_and_harmonic():
    worst = {}
    start = time.perf_counter()
    for label, cfg in (("free", default_config("equilibrium")),
                       ("harmonic", shipped_config("equilibrium_harmonic"))):
        res = experiments.equilibrium_experiment(cfg)
        worst[label] = max(c.total_variation for c in res.comparisons)
    elapsed = time.perf_counter() - start
    ok = all(v < 0.03 for v in worst.values())
    record_acceptance(
        "C06 equivariance", ok,
        f"max TV free = {worst['free']:.4f}, harmonic = {worst['harmonic']:.4f} "
        f"(< 0.03, n = 50000), {elapsed:.1f} s")
    assert ok


def test_c07_no_crossing_and_inference():
    cfg = default_config("no_crossing", n_trials=1000)
    res = experiments.no_crossing_check(cfg)
    ok = res.crossing_report.violations == 0 and res.inference_accuracy == 1.0
    record_acceptance(
        "C07 no-crossing retrodiction", ok,
        f"{res.crossing_report.violations} violations, inference accuracy "
        f"{res.inference_accuracy:.4f} over {cfg.n_trials} trajectories")
    assert ok


def test_c08_effective_collapse_and_repeatability():
    pointer_cfg = default_config("pointer", n_trials=1000)
    pointer = experiments.pointer_experiment(pointer_cfg)
    leakage = 1.0 - pointer.measurement.min_purity

    zz = experiments.sequential(default_config("sequential", axes=("z", "z"),
                                               n_trials=1000, n_frames=32))
    repeat = float(np.mean(zz.outcomes[:, 0] == zz.outcomes[:, 1]))

    zx = experiments.sequential(default_config("sequential", axes=("z", "x"),
                                               alpha=complex(1.0), beta=complex(0.0),
                                               n_trials=1000, n_frames=32))
    stage2 = zx.stage_statistics[1]
    zx_dev = abs(stage2.frequencies[0] - 0.5)
    zx_halfwidth = 3.0 * math.sqrt(0.25 / 1000)

    ok = leakage < 1e-6 and repeat == 1.0 and zx_dev <= zx_halfwidth
    record_acceptance(
        "C08 effective collapse", ok,
        f"max leakage = {leakage:.2e} (< 1e-6), z-z repeatability = {repeat:.4f}, "
        f"z-x f_up dev = {zx_dev:.4f} <= {zx_halfwidth:.4f}")
    assert ok


def test_c09_numerics():
    grid = default_config("stern_gerlach").grid()
    packet = gaussian_packet(grid, 0.0, 1.0, 1.0, 0.6, 0.8)
    pot = PotentialSpec("harmonic")
    span = 1000 * 0.2 / grid.k_max**2
    drift = abs(evolve(packet, pot, span, 1).norm() - packet.norm())

    w0, t_final = 1.0, 2.0
    free = gaussian_packet(grid, 0.0, w0, 0.0, 1.0, 0.0)
    spread = evolve(free, PotentialSpec("free"), t_final, 1)
    width_expected = w0 * math.sqrt(1 + (t_final / (2 * w0**2)) ** 2)
    width_err = abs(position_width(spread) - width_expected) / width_expected

    frames = [analytic_free_gaussian(grid, 0.5, t) for t in (0.0, 0.8, 1.6, 2.4)]

    def terminal(substeps):
        return integrate(frames, np.array([1.0]), PotentialSpec("free"),
                         substeps_per_frame=substeps).positions[0, -1]

    reference = terminal(8)
    ratio = abs(terminal(1) - reference) / abs(terminal(2) - reference)

    ok = drift < 1e-10 and width_err < 1e-3 and ratio >= 8.0
    record_acceptance(
        "C09 numerics", ok,
        f"norm drift {drift:.2e} over t = {span:.4f}, width rel err {width_err:.2e}, "
        f"RK error ratio {ratio:.1f}x on substep halving")
    assert ok


def _run_twice(tmp_path, name: str, argv: list) -> list[str]:
    """Run one invocation twice; return the output files whose bytes differ."""
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"{name}-{run}"
        assert cli.main([*argv, "--out", str(out), "--quiet"]) == 0
        outputs.append(out)
    files = sorted(p.relative_to(outputs[0]) for p in outputs[0].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(outputs[1]) for p in outputs[1].rglob("*")
                           if p.is_file())
    return [f"{name}/{f}" for f in files
            if (outputs[0] / f).read_bytes() != (outputs[1] / f).read_bytes()]


# the smallest round trajectory counts at which every check still passes keep the
# suite fast; stern_gerlach and pointer run at their shipped sizes
C10_TRAJECTORIES = {"equilibrium_free": 2000, "equilibrium_harmonic": 2000,
                    "sequential_zx": 500, "no_crossing": 500}


def test_c10_reproducibility(tmp_path):
    config_paths = sorted(CONFIG_DIR.glob("*.cfg"))
    differing = []
    for path in config_paths:
        scenario = parse_config(path.read_text()).scenario
        argv = ["sim", scenario.replace("_", "-"), "--config", str(path)]
        if path.stem in C10_TRAJECTORIES:
            argv += ["--trajectories", str(C10_TRAJECTORIES[path.stem])]
        if scenario == "stern_gerlach":
            argv.append("--dump-frames")
        differing += _run_twice(tmp_path, path.stem, argv)
    for kind in ("mermin", "vonneumann", "chsh"):
        differing += _run_twice(tmp_path, f"nogo-{kind}", ["nogo", kind])
    identical = not differing
    record_acceptance(
        "C10 reproducibility", identical,
        f"{len(config_paths)} shipped configs and 3 nogo checks re-run byte-identically"
        if identical else f"outputs differ between runs: {', '.join(differing)}")
    assert identical

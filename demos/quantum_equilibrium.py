"""Equivariance: an ensemble born |psi|^2-distributed stays that way.

Positions are sampled from the initial density, integrated along the
guiding velocity, and their histogram is compared with |psi_t|^2 at
every saved frame (total-variation distance).  The distance stays at
the sampling-noise floor for a spreading free packet and for a coherent
packet swinging through a harmonic well; a deliberately out-of-
equilibrium start shows what a violation would look like.

Run:  python demos/quantum_equilibrium.py
"""

from pathlib import Path

from bohmlab import experiments
from bohmlab.config import default_config, parse_config

N = 20000
HARMONIC = parse_config(
    (Path(__file__).parents[1] / "configs" / "equilibrium_harmonic.cfg").read_text())


def run(label, cfg):
    result = experiments.equilibrium_experiment(cfg)
    tvs = [c.total_variation for c in result.comparisons]
    print(f"{label}: {cfg.n_trials} trajectories, {len(tvs)} frames, "
          f"duration {cfg.duration:.3f}")
    for i in (0, len(tvs) // 2, len(tvs) - 1):
        t = result.frames[i].time
        print(f"  frame {i:3d} (t = {t:6.3f}): TV = {tvs[i]:.4f}")
    print(f"  max over all frames: {max(tvs):.4f}  (tolerance {experiments.TV_TOLERANCE})")
    return result


print("=" * 64)
run("free packet, momentum 1", default_config("equilibrium", n_trials=N, n_frames=20))

print("=" * 64)
run("harmonic well, coherent packet", HARMONIC._replace(n_trials=N, n_frames=20))

print("=" * 64)
bad = default_config("equilibrium", n_trials=N, n_frames=8,
                     init_kind="uniform", init_a=-2.5, init_b=-1.5)
result = run("out-of-equilibrium start (uniform over [-2.5, -1.5])", bad)
print("  a non-|psi|^2 ensemble is detected immediately at frame 0.")

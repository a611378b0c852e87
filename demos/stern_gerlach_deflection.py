"""Spin measurement as particle deflection.

A spinor wave packet passes an inhomogeneous magnet, modeled as an
instantaneous phase kick exp(+-i mu_b tau x) on the two spin components.
Free flight then separates the components into an upper and a lower
branch; each trajectory, guided by the wave, ends up in exactly one of
them.  The fraction deflected upward reproduces |alpha|^2 without ever
declaring "spin" to be a particle property: the outcome is just where
the particle went.

Run:  python demos/stern_gerlach_deflection.py
"""

import numpy as np

from bohmlab import experiments
from bohmlab.config import default_config

ALPHA, BETA = 0.6, 0.8
cfg = default_config("stern_gerlach", alpha=complex(ALPHA), beta=complex(BETA),
                     n_trials=4000, n_frames=32)

print(f"spin state: ({ALPHA}, {BETA})  ->  P(up) = {ALPHA**2:.2f}, P(down) = {BETA**2:.2f}")
print(f"magnet kick mu_b*tau = {cfg.magnet_mu_b * cfg.magnet_tau}, "
      f"packet width = {cfg.packet_width}")

result = experiments.stern_gerlach(cfg)
stats = result.statistics

print(f"detection time (branch separation = 10 widths): {result.detection_time:.4f}")
print(f"branch supports at detection: up {result.branches.up_interval}, "
      f"down {result.branches.down_interval}")
print()
for label, count, freq, born, hw in zip(("up", "down"), stats.counts,
                                        stats.frequencies, stats.born_probabilities,
                                        stats.three_sigma_halfwidths):
    print(f"outcome {label:>4}: {count:5d} trials, frequency {freq:.4f} "
          f"vs Born {born:.4f} (3 sigma: {hw:.4f})")
print(f"expectation value (hbar/2)(f_up - f_down) = {stats.expectation_value:+.4f} "
      f"vs (hbar/2)(|a|^2 - |b|^2) = {0.5 * (ALPHA**2 - BETA**2):+.4f}")

# ASCII histogram of arrival positions
finals = result.ensemble.positions[:, -1]
edges = np.linspace(-12, 12, 25)
counts, _ = np.histogram(finals, bins=edges)
peak = counts.max()
print()
print("arrival positions (screen histogram):")
for i in range(len(counts) - 1, -1, -1):
    bar = "#" * int(round(40 * counts[i] / peak))
    print(f"{edges[i]:+7.2f} | {bar}")
print()
for check in result.checks:
    print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")

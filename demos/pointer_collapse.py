"""Effective collapse in a two-factor measurement model.

The joint state of (spin, pointer) starts as a product; an impulsive
coupling shifts the pointer packet by +-shift depending on the spin
component, producing two disjoint branches.  Conditioning the joint
wave function on the actual pointer position then yields a pure
eigenstate: the collapse is in the conditioning, not in the dynamics,
which stayed unitary throughout.

Run:  python demos/pointer_collapse.py
"""

import numpy as np

from bohmlab.conditional import (
    CouplingSpec,
    apply_coupling,
    branch_overlap,
    conditional_state,
    run_pointer_measurement,
)
from bohmlab.wavefield import Grid1D, gaussian_packet

ALPHA, BETA = 0.6, 0.8
grid = Grid1D(-24.0, 24.0, 512)

print(f"spin state ({ALPHA}, {BETA}), pointer packet width 1")
prepared = gaussian_packet(grid, 0.0, 1.0, 0.0, ALPHA, BETA)   # pointer at rest
print("before coupling, conditioning cannot change the spin factor:")
for y in (-2.0, 0.0, 3.0):
    print(f"  conditional state at Y = {y:+.1f}: {np.round(conditional_state(prepared, y), 6)}")

print()
for shift in (1.0, 3.0, 10.0):
    coupled = apply_coupling(prepared, CouplingSpec(shift))
    ov = branch_overlap(coupled)
    deep = conditional_state(coupled, shift)
    print(f"shift = {shift:5.1f}: branch overlap = {ov:.3e}, "
          f"conditional at branch center = ({abs(deep[0]):.6f}, {abs(deep[1]):.6f})")
print("the conditional state approaches a pure eigenstate as the branches separate.")

print()
print("sampling pointer outcomes (shift = 10, disjoint branches):")
m = run_pointer_measurement(ALPHA, BETA, CouplingSpec(10.0), 10000, 42, grid)
for outcome, (count, born) in enumerate(zip(m.counts, (ALPHA**2, BETA**2)), start=1):
    print(f"  outcome {outcome} frequency: {count / m.y.size:.4f} vs Born {born:.4f}")
print(f"  smallest collapse purity over {m.y.size} trials: {m.min_purity:.12f}")
print("  every single trial ends with an effectively collapsed spin state.")

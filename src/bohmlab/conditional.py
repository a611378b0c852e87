"""Two-factor measurement model: spin system times pointer coordinate.

The joint wave function Psi(i, y) over (spin component i, pointer
position y) is a `SpinorField` over the pointer coordinate, the same
type that carries a Stern-Gerlach packet over the particle position.
Its ready state, spin (alpha, beta) times a unit-width Gaussian pointer
packet at rest at y = 0, is built by `wavefield.gaussian_packet`.  An
ideal impulsive coupling translates the pointer packet of component 1 by
+shift and of component 2 by -shift, producing the branch form

    Psi(i, y) = c_1 phi_1(i) Phi_1(y) + c_2 phi_2(i) Phi_2(y)

with spatially disjoint pointer branches once the shift is large against
the packet width.  Conditioning on an actual pointer position Y inside
one branch yields the collapsed spin state of that branch: the effective
collapse happens in the conditioning, while the joint state itself
evolved unitarily throughout.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import rng
from .wavefield import (
    NODE_DENSITY_FRACTION,
    Grid1D,
    SpinorField,
    check_boundary,
    gaussian_packet,
)


POINTER_CENTER, POINTER_WIDTH = 0.0, 1.0    # the ready packet; outcomes split at its center


class CouplingSpec(namedtuple("CouplingSpec", "shift")):
    """Pointer displacement per spin eigenvalue (impulsive coupling
    strength).  Zero is allowed and acts as the identity."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")
        return self


def apply_coupling(field: SpinorField, coupling: CouplingSpec) -> SpinorField:
    """Translate branch 1 by +shift and branch 2 by -shift (spectral
    translation, exactly unitary).

    Raises BoundaryMassError if a shifted branch reaches the grid's edge zone.
    """
    if coupling.shift == 0.0:
        return field
    k = field.grid.wavenumbers
    sign = np.array([[+1.0], [-1.0]])
    shifted = np.fft.ifft(np.exp(-1j * k * sign * coupling.shift) * np.fft.fft(field.psi))
    check_boundary(field.grid, shifted)
    return SpinorField(field.grid, *shifted, time=field.time)


def branch_overlap(field: SpinorField) -> float:
    """L1 overlap of the two pointer branches, integral |Phi_1 Phi_2| dy,
    with each branch normalized."""
    a = np.abs(field.up)
    b = np.abs(field.down)
    na = np.sqrt(np.sum(a**2) * field.grid.dx)
    nb = np.sqrt(np.sum(b**2) * field.grid.dx)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(np.sum(a * b) * field.grid.dx / (na * nb))


def conditional_state(field: SpinorField, y) -> np.ndarray:
    """Normalized 2-component spin state conditioned on pointer value y
    (linear interpolation between pointer nodes).

    For a scalar y the result is a (2,) vector.  For a 1-D array of n
    pointer values it is an (n, 2) array whose row i is the state at
    y[i], bit for bit what the scalar call gives; the node threshold is
    computed once.  A failing value raises ValueError for the first one
    in order: off the grid, or below the node threshold.
    """
    grid = field.grid
    ys = np.asarray(y, dtype=float)
    up = np.interp(ys, grid.nodes, field.up.real) \
        + 1j * np.interp(ys, grid.nodes, field.up.imag)
    down = np.interp(ys, grid.nodes, field.down.real) \
        + 1j * np.interp(ys, grid.nodes, field.down.imag)
    density = abs(up) ** 2 + abs(down) ** 2
    outside = (ys < grid.x_min) | (ys > grid.x_max)
    low = density < NODE_DENSITY_FRACTION * float(field.density().max())
    bad = np.flatnonzero(outside | low)
    if bad.size:
        i = bad[0]
        at = y if ys.ndim == 0 else float(ys[i])
        if outside.flat[i]:
            raise ValueError(f"y = {at} lies outside the pointer grid")
        raise ValueError(f"pointer density at y = {at} is below the node threshold")
    vec = np.stack([up, down], axis=-1)
    return vec / np.sqrt(density)[..., None]


class PointerMeasurement(namedtuple(
        "PointerMeasurement", "y outcome collapsed counts min_purity branch_overlap")):
    """Per-trial columns; row i is trial i.

        y               (n,) pointer positions
        outcome         (n,) 1 (branch +shift) or 2 (branch -shift)
        collapsed       (n, 2) normalized conditional spinors
        counts          (n outcome 1, n outcome 2)
        branch_overlap  of the coupled state, see `branch_overlap`
    """

    __slots__ = ()


def run_pointer_measurement(alpha: complex, beta: complex, coupling: CouplingSpec,
                            n_trials: int, seed: int, grid: Grid1D) -> PointerMeasurement:
    """Sample pointer outcomes from the post-coupling marginal density.

    Trial i draws its pointer position with counter i of the master
    stream, classifies the outcome by the branch the pointer landed in
    (sign of y; the exact midpoint counts as branch 1), and records the
    collapsed conditional spin state.  Its purity is the weight of the
    collapsed state on the outcome's spin component.  The overlap of the
    two pointer branches of the coupled state is reported with the trials.
    n_trials must pass `rng.check_draws`.
    """
    ready = gaussian_packet(grid, POINTER_CENTER, POINTER_WIDTH, 0.0, alpha, beta)
    coupled = apply_coupling(ready, coupling)

    ys = rng.sample_from_density(grid.nodes, coupled.density(), n_trials, seed)
    collapsed = conditional_state(coupled, ys)
    outcome = np.where(ys >= POINTER_CENTER, 1, 2)
    purity = np.abs(collapsed[np.arange(n_trials), outcome - 1]) ** 2
    n1 = int(np.count_nonzero(outcome == 1))
    return PointerMeasurement(y=ys, outcome=outcome, collapsed=collapsed,
                              counts=(n1, n_trials - n1),
                              min_purity=min(1.0, float(purity.min())),
                              branch_overlap=branch_overlap(coupled))

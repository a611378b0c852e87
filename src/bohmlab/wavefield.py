"""Two-component wave functions on a 1D periodic grid and their unitary
evolution.

Natural units throughout: hbar = m = 1.

A `SpinorField` holds psi[i, j], component i at grid node j.  The same
type serves a spin packet over the particle position and the joint
spin-pointer state over the pointer coordinate (see `conditional`):
every measurement here ends as a position measurement.

The two components evolve independently under

    i dpsi/dt = H psi,   H = -1/2 d^2/dx^2 + V(x),

and `evolve` applies the exact grid propagator exp(-i H t) for any t,
one FFT pair per boundary-monitor checkpoint of length h:

    V = 0:         psi -> IFFT( exp(-i k^2 h/2) FFT(psi) )
    V = x^2 / 2:   psi -> C IFFT( exp(-i k^2 s/2) FFT(C psi) ),
                   C = exp(-i tan(h/2) x^2 / 2),  s = sin(h)

The harmonic step is the exact chirp-kinetic-chirp (x-p-x shear)
factorization of the oscillator flow, the chirp-convolution-chirp form of
the fractional Fourier transform.  Every factor is unitary, so the norm is
conserved to rounding noise, and none splits the interval for accuracy.

An idealized deflection magnet enters as an instantaneous phase kick
exp(+-i mu_b x) on the two components, after which free flight
separates them with group velocities +-mu_b.

The grid is periodic (spectral transforms), so configurations must keep
their probability mass away from the edges; a boundary monitor aborts
any evolution or coupling that sends more than 1e-6 of the mass into
the outer 5% of the domain on either side.  Evolution checks it at equal
checkpoints spaced so that nothing moving at the largest speed the grid
holds, sqrt(k_max^2 + 2 max V), crosses the edge zone between two checks.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

BOUNDARY_MASS_LIMIT = 1e-6
BOUNDARY_EDGE_FRACTION = 0.05
NODE_DENSITY_FRACTION = 1e-12   # velocity regularization threshold, x peak density


class BoundaryMassError(RuntimeError):
    """Raised when probability mass reaches the edge of the periodic grid."""


class Grid1D(namedtuple("Grid1D", "x_min x_max n_points")):
    """Uniform periodic grid; node j sits at x_min + j*dx, j = 0..n-1.
    It has no `__slots__`: `cached_property` keeps the arrays in its
    `__dict__`, writing there directly, and no assignment may replace them."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        n = self.n_points
        if n < 256 or n > 16384 or (n & (n - 1)) != 0:
            raise ValueError("n_points must be a power of two in [256, 16384]")
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a Grid1D is immutable")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @property
    def k_max(self) -> float:
        return np.pi * self.n_points / self.length

    @cached_property
    def nodes(self) -> np.ndarray:
        x = self.x_min + self.dx * np.arange(self.n_points)
        x.flags.writeable = False
        return x

    @cached_property
    def edge_mask(self) -> np.ndarray:
        """Nodes in the outer BOUNDARY_EDGE_FRACTION of the grid on either side."""
        edge = BOUNDARY_EDGE_FRACTION * self.length
        x = self.nodes
        mask = (x < self.x_min + edge) | (x >= self.x_max - edge)
        mask.flags.writeable = False
        return mask

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)
        k.flags.writeable = False
        return k


DEFLECTION_WIDTH = 1.0      # a deflection's packet width, its unit of length


class MagnetSpec(namedtuple("MagnetSpec", "mu_b")):
    """Impulsive deflection magnet: mu_b is the momentum kick it gives
    each spin component (moment times field gradient times transit time)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mu_b < 0:
            raise ValueError("mu_b must be nonnegative")
        return self

    def separation_time(self) -> float:
        """Flight time T after the kick by which the branches of a packet of
        width `DEFLECTION_WIDTH` = 1 lie 10 spread widths apart, 2 mu_b T =
        10 sqrt(1 + T^2 / 4); free flight after a kick maps x -> s x,
        T -> s^2 T, mu_b -> mu_b / s, so a packet of width s is this run
        rescaled."""
        disc = 4.0 * self.mu_b * self.mu_b - 25.0
        if disc <= 0.0:
            raise ValueError("mu_b too weak to separate the branches by 10 packet widths; "
                             "increase it or fix the flight time")
        return 10.0 / math.sqrt(disc)


class PotentialSpec(namedtuple("PotentialSpec", "kind")):
    """kind is "free" or "harmonic" (V = x^2 / 2; a well of another
    frequency or centre is this one in rescaled and shifted coordinates)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("free", "harmonic"):
            raise ValueError(f"kind must be 'free' or 'harmonic', got {self.kind!r}")
        return self

    def evaluate(self, grid: Grid1D) -> np.ndarray:
        if self.kind == "free":
            return np.zeros(grid.n_points)
        return 0.5 * grid.nodes**2


class SpinorField:
    """Immutable snapshot of a two-component wave function at one time,
    or a stack of such snapshots.

    `psi` is the read-only (2, n_points) array, or (frames, 2, n_points)
    for a stack, whose `time` is then an array of one time per frame;
    `up` and `down` are its component views.  `evolve` and
    `velocity_field` act on every frame of a stack at once, as on each
    frame alone, bit for bit.
    """

    def __init__(self, grid: Grid1D, up: np.ndarray, down: np.ndarray, time=0.0):
        shape = np.shape(up)
        if len(shape) > 2 or shape[-1:] != (grid.n_points,) or np.shape(down) != shape:
            raise ValueError("component arrays must match the grid")
        psi = np.stack((up, down), axis=-2, dtype=complex)
        psi.flags.writeable = False
        self.grid = grid
        self.psi = psi
        self.up, self.down = psi[..., 0, :], psi[..., 1, :]
        self.time = float(time) if psi.ndim == 2 else np.array(time, dtype=float)

    def density(self) -> np.ndarray:
        return np.sum(np.abs(self.psi) ** 2, axis=-2)

    def norm(self) -> float:
        """The norm of a single field."""
        return float(np.sum(self.density()) * self.grid.dx)


def check_spin(alpha: complex, beta: complex) -> None:
    """Raise ValueError unless |alpha|^2 + |beta|^2 = 1 within 1e-9."""
    spin_norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(spin_norm - 1.0) > 1e-9:
        raise ValueError("spin normalization invariant violated: "
                         f"|alpha|^2 + |beta|^2 = {spin_norm:.12g}, must be 1 within 1e-9")


def check_placement(grid: Grid1D, center: float, width: float) -> None:
    """Raise ValueError for a packet width that is not positive, or a
    packet within 5 widths of a grid edge (the margin that keeps a fresh
    packet clear of the boundary monitor)."""
    if not width > 0:
        raise ValueError("width must be positive")
    if center - 5 * width < grid.x_min or center + 5 * width > grid.x_max:
        raise ValueError(f"center must lie at least 5 widths ({5 * width:g}) inside the grid "
                         f"[{grid.x_min:g}, {grid.x_max:g}], got {center:g}")


def check_band(grid: Grid1D, momentum: float, width: float) -> None:
    """Raise ValueError unless the grid's band (-k_max, k_max) holds all
    but BOUNDARY_MASS_LIMIT of a Gaussian packet's momentum density, a
    normal law of mean `momentum` and standard deviation 1/(2 width): a
    wavenumber beyond the band wraps to the other side of it."""
    z = math.sqrt(2.0) * width
    tail = 0.5 * (math.erfc(z * (grid.k_max - momentum)) + math.erfc(z * (grid.k_max + momentum)))
    if tail > BOUNDARY_MASS_LIMIT:
        raise ValueError(f"momentum density must lie within the grid's band |k| < "
                         f"{grid.k_max:.6g}: {tail:.2g} of it lies outside "
                         f"(limit {BOUNDARY_MASS_LIMIT:g})")


def gaussian_packet(grid: Grid1D, center: float, width: float, momentum: float,
                    alpha: complex, beta: complex) -> SpinorField:
    """Normalized spinor Gaussian exp(-(x-center)^2/(4 width^2) + i k x),
    with the spin part (alpha, beta); rejects what `check_spin` and
    `check_placement` reject."""
    check_spin(alpha, beta)
    check_placement(grid, center, width)
    x = grid.nodes
    envelope = np.exp(-((x - center) ** 2) / (4.0 * width**2) + 1j * momentum * x)
    envelope /= np.sqrt(np.sum(np.abs(envelope) ** 2) * grid.dx)
    return SpinorField(grid, alpha * envelope, beta * envelope, time=0.0)


def check_boundary(grid: Grid1D, psi: np.ndarray) -> None:
    """Boundary monitor: raise BoundaryMassError when more than 1e-6 of the
    mass of the (2, n_points) amplitudes, or of any field of a
    (frames, 2, n_points) stack, lies in the grid's edge zone; the message
    gives the edge mass of the first such field."""
    edge = np.abs(psi[..., grid.edge_mask]) ** 2
    edge_mass = np.sum(edge.reshape(*edge.shape[:-2], -1), axis=-1) * grid.dx
    over = np.flatnonzero(edge_mass > BOUNDARY_MASS_LIMIT)
    if over.size:
        raise BoundaryMassError(
            f"{np.ravel(edge_mass)[over[0]]:.3e} of the mass entered the outer "
            f"{BOUNDARY_EDGE_FRACTION:.0%} of the grid; enlarge the domain")


def evolve(field: SpinorField, potential: PotentialSpec, dt: float, steps: int) -> SpinorField:
    """Advance the field by steps*dt with the exact propagator (module
    docstring); only the product matters, and the returned time is
    field.time + steps*dt.  A stack of fields advances frame by frame as
    each field alone would, in one FFT pair per checkpoint.

    The boundary monitor checks psi at ceil(steps*dt*s / edge zone) equal
    checkpoints, s = sqrt(k_max^2 + 2 max V), and raises BoundaryMassError
    once more than 1e-6 of the probability mass lies in the outer 5% of
    the grid: in a stack, for the first field over that limit at the first
    checkpoint where one is.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    grid = field.grid
    span = steps * dt
    v = potential.evaluate(grid)
    speed = math.hypot(grid.k_max, math.sqrt(2.0 * float(v.max())))
    checks = math.ceil(span * speed / (BOUNDARY_EDGE_FRACTION * grid.length))

    h = span / max(checks, 1)
    chirp = None
    if potential.kind == "harmonic":
        chirp = np.exp(-0.5j * math.tan(0.5 * h) * grid.nodes**2)
        h = math.sin(h)
    kinetic_phase = np.exp(-0.5j * h * grid.wavenumbers**2)
    psi = field.psi
    for _ in range(checks):
        if chirp is not None:
            psi = chirp * psi
        psi = np.fft.ifft(kinetic_phase * np.fft.fft(psi))
        if chirp is not None:
            psi = chirp * psi
        check_boundary(grid, psi)
    return SpinorField(grid, psi[..., 0, :], psi[..., 1, :], time=field.time + span)


def evolve_frames(field: SpinorField, potential: PotentialSpec, frame_dt: float,
                  n_frames: int) -> list[SpinorField]:
    """Evolve and keep snapshots: returns n_frames + 1 fields including
    the initial one, uniformly spaced in time by frame_dt."""
    frames = [field]
    for _ in range(n_frames):
        field = evolve(field, potential, frame_dt, 1)
        frames.append(field)
    return frames


def magnet_kick(field: SpinorField, magnet: MagnetSpec) -> SpinorField:
    """Impulsive magnet: up gains phase exp(+i mu_b x), down the
    conjugate phase, so subsequent free flight moves the components with
    group velocities +-mu_b."""
    phase = np.exp(1j * magnet.mu_b * field.grid.nodes)
    return SpinorField(field.grid, field.up * phase, field.down * np.conj(phase), field.time)


# each interval is (left, right), or None when its branch is empty; gap
# lies between them: < 0 where they overlap, inf when a branch is empty
BranchSupports = namedtuple("BranchSupports", "up_interval down_interval gap")


def _smallest_mass_interval(grid: Grid1D, component: np.ndarray, fraction: float):
    """The first narrowest [x_i, x_j + dx] holding `fraction` of the mass."""
    masses = np.abs(component) ** 2 * grid.dx
    total = float(masses.sum())
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    # each start's first end that holds the fraction; past the grid for the last starts
    ends = np.searchsorted(cum, cum[:-1] + fraction * total) - 1
    ends = ends[ends < grid.n_points]
    if total < 1e-12 or ends.size == 0:
        return None
    x = grid.nodes
    i = int(np.argmin(x[ends] + grid.dx - x[:ends.size]))
    return float(x[i]), float(x[ends[i]] + grid.dx)


def branch_supports(field: SpinorField, threshold: float) -> BranchSupports:
    """Smallest intervals holding fraction 1 - threshold of each spin
    component's mass, and the gap between them."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    up_iv = _smallest_mass_interval(field.grid, field.up, 1.0 - threshold)
    down_iv = _smallest_mass_interval(field.grid, field.down, 1.0 - threshold)
    if up_iv is None or down_iv is None:
        gap = math.inf
    else:
        gap = max(up_iv[0], down_iv[0]) - min(up_iv[1], down_iv[1])
    return BranchSupports(up_interval=up_iv, down_interval=down_iv, gap=gap)


def velocity_field(field: SpinorField) -> np.ndarray:
    """Guiding velocity v = Im(psi^dag dpsi/dx) / (psi^dag psi) per node:
    an (n_points,) array, or (frames, n_points) for a stack.

    The derivative is spectral.  Nodes whose density falls below 1e-12
    of the field's peak take the velocity of the nearest live node (the
    left one on a tie), and speeds are capped at k_max: the law of motion
    is singular at nodes of the wave function, and trajectories almost
    surely avoid them, but the floating-point grid needs a rule.
    """
    grid = field.grid
    n = grid.n_points
    dpsi = np.fft.ifft(1j * grid.wavenumbers * np.fft.fft(field.psi))
    rho = field.density()
    current = np.imag(np.sum(np.conj(field.psi) * dpsi, axis=-2))

    live = rho >= NODE_DENSITY_FRACTION * rho.max(axis=-1, keepdims=True)
    v = np.divide(current, rho, out=np.zeros_like(rho), where=live)
    # the nearest live node on each side; a missing one lies n or more
    # nodes away, so it never wins over one that exists
    idx = np.arange(n)
    left = np.maximum.accumulate(np.where(live, idx, -n), axis=-1)
    right = np.minimum.accumulate(np.where(live, idx, 2 * n)[..., ::-1], axis=-1)[..., ::-1]
    nearest = np.where(idx - left <= right - idx, left, right)
    # (% n matters only in a field with no live node, where every v is 0)
    v = np.take_along_axis(v, nearest % n, axis=-1)
    return np.clip(v, -grid.k_max, grid.k_max)

"""Counter-based random numbers with a fully documented algorithm.

Every random draw in this package comes from the SplitMix64 output
function, used in counter mode so that the i-th draw of a stream is a
pure function of (seed, i).  This gives bit-reproducible sample streams
that are trivial to re-implement in any language, and independent
substreams by `derive` rather than by shared state.

Algorithm (all arithmetic modulo 2**64):

    GAMMA = 0x9E3779B97F4A7C15
    mix64(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    i-th raw output of stream `seed` (i = 0, 1, 2, ...):
        out_i = mix64(seed + (i + 1) * GAMMA)

    uniform double in [0, 1):
        u_i = (out_i >> 11) / 2**53

    child stream derivation (for per-trial / per-stage substreams):
        derive(seed, tag) = mix64(seed ^ mix64((tag + 1) * GAMMA))
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix64_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive(seed: int, tag: int) -> int:
    """Deterministic child seed for substream `tag` of stream `seed`."""
    return _mix64_int((seed & _MASK) ^ _mix64_int(((tag & _MASK) + 1) * _GAMMA))


def raw(seed: int, count: int) -> np.ndarray:
    """Raw 64-bit outputs out_0 .. out_{count-1} of the stream."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    with np.errstate(over="ignore"):
        idx = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(seed & _MASK) + idx * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
        return z ^ (z >> np.uint64(31))


def uniforms(seed: int, count: int) -> np.ndarray:
    """`count` doubles in [0, 1), draws 0 .. count-1 of the stream."""
    return (raw(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def check_draws(n: int) -> None:
    """Raise ValueError unless n >= 1: a run draws at least one sample."""
    if n < 1:
        raise ValueError(f"the number of draws must be at least 1, got {n}")


def cell_cdf(x_nodes: np.ndarray, density: np.ndarray):
    """The law of a piecewise-constant node density: node j owns the cell
    [x_j - dx/2, x_j + dx/2), on which the density is constant.  Returns
    the n + 1 cell edges, the n cell masses and their cumulative sum with
    a leading 0, so that the cumulative distribution is linear between
    consecutive edges.  Centering the cells on the nodes keeps the law
    aligned with the continuum density to second order in dx."""
    x_nodes = np.asarray(x_nodes, dtype=float)
    density = np.asarray(density, dtype=float)
    if x_nodes.ndim != 1 or x_nodes.shape != density.shape:
        raise ValueError("x_nodes and density must be equal-length 1D arrays")
    dx = x_nodes[1] - x_nodes[0]
    edges = np.concatenate((x_nodes - 0.5 * dx, [x_nodes[-1] + 0.5 * dx]))
    masses = density * dx
    return edges, masses, np.concatenate(([0.0], np.cumsum(masses)))


def sample_from_density(x_nodes: np.ndarray, density: np.ndarray, n: int,
                        seed: int) -> np.ndarray:
    """Inverse-transform samples from the law of `cell_cdf`: the inverse
    transform interpolates linearly within the selected cell.
    Draw i uses counter i of stream `seed`; n must pass `check_draws`.
    """
    check_draws(n)
    edges, masses, cum = cell_cdf(x_nodes, density)
    total = cum[-1]
    if not total > 0.0:
        raise ValueError("density has no mass to sample from")
    u = uniforms(seed, n) * total
    j = np.searchsorted(cum[1:], u, side="right")
    # the cell's own mass and width dx: differences of `cum` or `edges`
    # round otherwise, and would move the draws' last bits
    return edges[j] + (u - cum[j]) / masses[j] * (x_nodes[1] - x_nodes[0])

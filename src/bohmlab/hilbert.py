"""Spin-1/2 operators: Pauli matrices, Hermitian spectra and the
rotation that takes a measurement axis to z.

Operators are plain complex ndarrays; tensor products, identities and
norms are numpy's own (`np.kron`, `np.eye`, `np.linalg.norm`).
Everything here is exact up to double-precision rounding.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """The 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected 'x', 'y' or 'z'") from None


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian operator, ascending."""
    a = np.asarray(a, dtype=complex)
    if not np.max(np.abs(a - a.conj().T)) < HERMITIAN_TOL:
        raise ValueError("operator is not Hermitian within tolerance")
    return np.linalg.eigvalsh(a)


def spin_rotation(axis) -> np.ndarray:
    """Unitary U with U (axis . sigma) U^dagger = sigma_z.

    Fixed deterministically: rotate by theta = arccos(axis . z_hat) about
    (axis x z_hat)/|axis x z_hat|; the antiparallel case axis = -z_hat is
    mapped to a rotation about x_hat by pi.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > 1e-9:
        if norm == 0.0:
            raise ValueError("axis must be a unit vector, got the zero vector")
        raise ValueError(f"axis must be a unit vector, |axis| = {norm}")
    z_hat = np.array([0.0, 0.0, 1.0])
    cos_theta = float(axis @ z_hat)
    cross = np.cross(axis, z_hat)
    cross_norm = np.linalg.norm(cross)
    if cross_norm < 1e-12:
        if cos_theta > 0.0:
            return np.eye(2, dtype=complex)
        n_hat, theta = np.array([1.0, 0.0, 0.0]), np.pi
    else:
        n_hat = cross / cross_norm
        theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    n_sigma = n_hat[0] * _PAULI["x"] + n_hat[1] * _PAULI["y"] + n_hat[2] * _PAULI["z"]
    return np.cos(theta / 2) * np.eye(2, dtype=complex) - 1j * np.sin(theta / 2) * n_sigma

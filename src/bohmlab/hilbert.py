"""Spin-1/2 operators: the Pauli table, the arithmetic the no-go checks do
with it, Hermitian spectra (one cyclic Jacobi algorithm for every size),
and the rotation that takes a lab axis x, y or z to z.

An operator is a tuple of rows of Python `complex`.  The no-go operators are
2x2 and 4x4 with entries 0, +-1, +-i and +-1/sqrt(2), so this arithmetic is
exact up to double-precision rounding and a no-go run never imports numpy.
`spin_rotation`, which only the simulations call, returns an ndarray.
"""

from __future__ import annotations

import math

HERMITIAN_TOL = 1e-12

_PAULI = {
    "x": ((0j, 1 + 0j), (1 + 0j, 0j)),
    "y": ((0j, -1j), (1j, 0j)),
    "z": ((1 + 0j, 0j), (0j, -1 + 0j)),
}


def pauli(axis: str) -> tuple:
    """The 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected 'x', 'y' or 'z'") from None


def identity(n: int) -> tuple:
    return tuple(tuple(complex(i == j) for j in range(n)) for i in range(n))


def combine(*terms) -> tuple:
    """Sum of coefficient * operator over (coefficient, operator) pairs."""
    coeffs, ops = zip(*terms)
    return tuple(tuple(sum(c * z for c, z in zip(coeffs, entries)) for entries in zip(*rows))
                 for rows in zip(*ops))


def kron(a, b) -> tuple:
    """Tensor (Kronecker) product."""
    return tuple(tuple(x * y for x in row_a for y in row_b) for row_a in a for row_b in b)


def matmul(a, b) -> tuple:
    columns = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in columns) for row in a)


def norm(a) -> float:
    """Frobenius norm."""
    return math.hypot(*(v for row in a for z in row for v in (z.real, z.imag)))


def hermitian_eigenvalues(a) -> tuple:
    """Real eigenvalues of a Hermitian operator of any size, ascending, by
    cyclic complex Jacobi rotations."""
    a = [[complex(z) for z in row] for row in a]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("operator is not square")
    if not all(abs(a[i][j] - a[j][i].conjugate()) < HERMITIAN_TOL
               for i in range(n) for j in range(n)):
        raise ValueError("operator is not Hermitian within tolerance")
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for _ in range(50):
        if not any(a[p][q] for p, q in pairs):
            break
        for p, q in pairs:
            g, app, aqq = a[p][q], a[p][p].real, a[q][q].real
            r = abs(g)
            # rotate unless a_pq is below the rounding of both diagonal entries
            if abs(app) + 100 * r != abs(app) or abs(aqq) + 100 * r != abs(aqq):
                # J = [[c, s e], [-s conj(e), c]] on (p, q), e = g/|g|, zeroes a_pq
                theta = (aqq - app) / (2 * r)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1 / math.hypot(t, 1.0)
                se = t * c * g / r
                for k in set(range(n)) - {p, q}:
                    akp, akq = a[k][p], a[k][q]
                    a[k][p], a[k][q] = c * akp - se.conjugate() * akq, se * akp + c * akq
                    a[p][k], a[q][k] = a[k][p].conjugate(), a[k][q].conjugate()
                a[p][p], a[q][q] = app - t * r, aqq + t * r
            a[p][q] = a[q][p] = 0j
    return tuple(sorted(a[k][k].real for k in range(n)))


# the rotation n_hat, theta taking each lab axis to z: about (axis x z_hat)
# by arccos(axis . z_hat), so z is not rotated
_TO_Z = {"x": ((0.0, -1.0, 0.0), math.pi / 2), "y": ((1.0, 0.0, 0.0), math.pi / 2),
         "z": ((0.0, 0.0, 1.0), 0.0)}


def spin_rotation(axis: str):
    """Unitary U (a complex ndarray) with U sigma_axis U^dagger = sigma_z for
    axis 'x', 'y' or 'z': the rotation by theta about n_hat of `_TO_Z`,
    cos(theta/2) I - i sin(theta/2) n_hat . sigma."""
    import numpy as np

    n_hat, theta = _TO_Z[axis]
    sx, sy, sz = (np.array(_PAULI[k]) for k in "xyz")
    n_sigma = n_hat[0] * sx + n_hat[1] * sy + n_hat[2] * sz
    return np.cos(theta / 2) * np.eye(2, dtype=complex) - 1j * np.sin(theta / 2) * n_sigma

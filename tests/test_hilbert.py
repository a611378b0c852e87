import math

import numpy as np
import pytest

from bohmlab import hilbert
from bohmlab.experiments import spin_rotation
from bohmlab.hilbert import hermitian_eigenvalues

SQRT2 = np.sqrt(2.0)
I2 = np.eye(2, dtype=complex)


def pauli(axis):
    return np.array(hilbert.pauli(axis))


def random_hermitian(gen, dim):
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return a + a.conj().T


class TestPauli:
    def test_definitions(self):
        assert np.array_equal(pauli("z"), np.diag([1, -1]).astype(complex))
        assert np.array_equal(pauli("x"), np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.array_equal(pauli("y"), np.array([[0, -1j], [1j, 0]]))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_hermitian_traceless_unit_spectrum(self, axis):
        s = pauli(axis)
        assert np.array_equal(s, s.conj().T)
        assert abs(np.trace(s)) < 1e-15
        assert np.allclose(hermitian_eigenvalues(s), [-1.0, 1.0], atol=1e-12)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            hilbert.pauli("w")

    def test_one_table_for_both_uses(self):
        # the simulations' rotation is built from the same exact entries
        assert hilbert.pauli("y") == ((0j, -1j), (1j, 0j))
        assert all(type(z) is complex for axis in "xyz" for row in hilbert.pauli(axis)
                   for z in row)


class TestTensor:
    def test_diagonal_product(self):
        zz = np.kron(pauli("z"), pauli("z"))
        assert np.array_equal(zz, np.diag([1, -1, -1, 1]).astype(complex))

    def test_xy_spectrum(self):
        # (sx (x) sy)^2 = I and trace 0, so the spectrum is {+1,+1,-1,-1}
        op = np.kron(pauli("x"), pauli("y"))
        assert np.allclose(op @ op, np.eye(4), atol=1e-15)
        assert abs(np.trace(op)) < 1e-15
        assert np.allclose(hermitian_eigenvalues(op), [-1, -1, 1, 1], atol=1e-10)

    def test_associative_on_pauli_family(self):
        # entries are in {0, +-1, +-i}: products are exact, so associativity
        # holds to the bit
        ops = [pauli("x"), pauli("y"), pauli("z"), I2]
        for a in ops:
            for b in ops:
                for c in ops:
                    left = np.kron(np.kron(a, b), c)
                    right = np.kron(a, np.kron(b, c))
                    assert np.array_equal(left, right)


class TestExactOperations:
    """`hilbert`'s tuple arithmetic against numpy on the same operators."""

    OPS = [pauli("x"), pauli("y"), pauli("z"), I2, (pauli("z") + pauli("x")) / SQRT2]

    def test_kron_matmul_combine_and_norm(self):
        for a in self.OPS:
            for b in self.OPS:
                ta, tb = a.tolist(), b.tolist()
                assert np.array_equal(hilbert.kron(ta, tb), np.kron(a, b))
                # numpy may sum the products in another order
                assert np.allclose(hilbert.matmul(ta, tb), a @ b, rtol=0, atol=1e-15)
                assert np.array_equal(hilbert.combine((1, ta), (-0.5, tb)), a - 0.5 * b)
                assert hilbert.norm(hilbert.kron(ta, tb)) == pytest.approx(
                    np.linalg.norm(np.kron(a, b)), rel=1e-15)
        assert np.array_equal(hilbert.identity(4), np.eye(4))


class TestCommutator:
    def test_xy_commutator_norm(self):
        # [sx, sy] = 2i sz, whose Frobenius norm is 2*sqrt(2)
        sx, sy = pauli("x"), pauli("y")
        assert abs(np.linalg.norm(sx @ sy - sy @ sx) - 2 * SQRT2) < 1e-12

    def test_tensor_pairs_commute(self):
        a = np.kron(pauli("x"), pauli("x"))
        b = np.kron(pauli("y"), pauli("y"))
        # oracle: explicit elementwise 4x4 products
        ab = np.zeros((4, 4), dtype=complex)
        ba = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                ab[i, j] = sum(a[i, k] * b[k, j] for k in range(4))
                ba[i, j] = sum(b[i, k] * a[k, j] for k in range(4))
        assert np.max(np.abs(ab - ba)) == 0.0
        assert np.linalg.norm(a @ b - b @ a) < 1e-12


class TestEigenvalues:
    def test_diagonal(self):
        assert np.allclose(hermitian_eigenvalues(pauli("z")), [-1, 1], atol=1e-15)

    def test_sum_of_x_and_z(self):
        # characteristic polynomial of sx + sz is lambda^2 - 2
        eigs = hermitian_eigenvalues(pauli("x") + pauli("z"))
        assert np.allclose(eigs, [-SQRT2, SQRT2], atol=1e-12)

    def test_zz_tensor(self):
        eigs = hermitian_eigenvalues(np.kron(pauli("z"), pauli("z")))
        assert np.allclose(eigs, [-1, -1, 1, 1], atol=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_rejects_non_hermitian_and_nan(self, dim):
        gen = np.random.default_rng(5)
        h = random_hermitian(gen, dim)
        skew = h.copy()
        skew[0, dim - 1] += 1e-9
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(skew)
        for i, j in ((0, 0), (0, dim - 1), (dim - 1, dim - 1)):
            bad = h.copy()
            bad[i, j] = complex(math.nan, 0.0)
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitian_eigenvalues(bad)
        with pytest.raises(ValueError, match="not square"):
            hermitian_eigenvalues(h[:, :-1])

    @pytest.mark.parametrize("dim", [2, 4])
    def test_matches_numpy_eigvalsh(self, dim):
        # the oracle is LAPACK's; agreement within 1e-12 of the spectral norm
        gen = np.random.default_rng(20261019 + dim)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(200):
                h = scale * random_hermitian(gen, dim)
                want = np.linalg.eigvalsh(h)
                got = hermitian_eigenvalues(h)
                assert isinstance(got, tuple) and list(got) == sorted(got)
                assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_every_run_operator_has_its_closed_form_spectrum(self):
        # sigma_x, sigma_z and sigma_x + sigma_z, the 2x2 operators that the
        # no-go checks diagonalize, get the bits of the 2x2 closed form
        # mean -+ hypot(half difference, |off-diagonal|) from the one
        # Jacobi algorithm
        def closed_form(a):
            mean, half = (a[0][0].real + a[1][1].real) / 2, (a[0][0].real - a[1][1].real) / 2
            radius = math.hypot(half, a[0][1].real, a[0][1].imag)
            return (mean - radius, mean + radius)
        x, z = hilbert.pauli("x"), hilbert.pauli("z")
        for op in (x, z, hilbert.combine((1, x), (1, z))):
            assert hermitian_eigenvalues(op) == closed_form(op)

    def test_degenerate_and_diagonal_spectra(self):
        # repeated eigenvalues and an operator that needs no rotation
        gen = np.random.default_rng(3)
        q, _ = np.linalg.qr(random_hermitian(gen, 4))
        for spectrum in ([-1, -1, 1, 1], [2, 2, 2, 2], [0, 0, 0, 5], [-3, 1, 1, 4]):
            h = q @ np.diag(spectrum) @ q.conj().T
            h = (h + h.conj().T) / 2
            assert np.allclose(hermitian_eigenvalues(h), spectrum, rtol=0, atol=1e-12 * 5)
        assert hermitian_eigenvalues(np.diag([3.0, -1.0, 0.5, 2.0])) == (-1.0, 0.5, 2.0, 3.0)

    def test_invariant_under_random_unitaries(self):
        # spectra are basis independent; random unitaries from QR
        gen = np.random.default_rng(20240817)
        for dim in (2, 4):
            for _ in range(100):
                a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
                h = a + a.conj().T
                q, r = np.linalg.qr(gen.normal(size=(dim, dim))
                                    + 1j * gen.normal(size=(dim, dim)))
                q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
                assert np.allclose(hermitian_eigenvalues(q @ h @ q.conj().T),
                                   hermitian_eigenvalues(h), atol=1e-9)


class TestSpinRotation:
    def test_z_axis_is_identity(self):
        assert np.array_equal(spin_rotation("z"), I2)

    def test_x_axis_entries(self):
        u = spin_rotation("x")
        assert np.allclose(np.abs(u), np.full((2, 2), 1 / SQRT2), atol=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_unitary_and_diagonalizing(self, axis):
        u = spin_rotation(axis)
        assert np.allclose(u @ u.conj().T, I2, atol=1e-12)
        assert np.allclose(u @ pauli(axis) @ u.conj().T, pauli("z"), atol=1e-12)

    def test_rejects_another_axis(self):
        with pytest.raises(KeyError):
            spin_rotation("w")

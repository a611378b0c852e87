import itertools
import math

import numpy as np
import pytest

from bohmlab import hilbert, nogo
from bohmlab.hilbert import hermitian_eigenvalues

SQRT2 = np.sqrt(2.0)


def pauli(axis):
    return np.array(hilbert.pauli(axis))


def cell(square, row, col):
    return np.array(square.cell(row, col))


B = (pauli("z") + pauli("x")) / SQRT2
B_PRIME = (pauli("z") - pauli("x")) / SQRT2


def chsh_max_eigenvalue(b, b2):
    """Largest eigenvalue of the CHSH operator with A = sigma_z,
    A' = sigma_x and the given B, B'."""
    a, a2 = pauli("z"), pauli("x")
    op = np.kron(a, b) + np.kron(a, b2) + np.kron(a2, b) - np.kron(a2, b2)
    return hermitian_eigenvalues(op)[-1]


@pytest.fixture(scope="module")
def square():
    return nogo.build_mermin_square()


class TestSquareConstruction:
    def test_corner_cells(self, square):
        assert np.array_equal(cell(square, 0, 0), np.kron(pauli("x"), np.eye(2)))
        assert np.array_equal(cell(square, 2, 2), np.kron(pauli("z"), pauli("z")))
        assert np.array_equal(cell(square, 0, 2), np.kron(pauli("x"), pauli("x")))

    def test_all_cells_have_unit_spectrum(self, square):
        for r in range(3):
            for c in range(3):
                eigs = hermitian_eigenvalues(square.cell(r, c))
                assert np.max(np.abs(np.abs(eigs) - 1.0)) < 1e-10

    def test_rows_and_columns_commute(self, square):
        def commutator_norm(a, b):
            return np.linalg.norm(a @ b - b @ a)

        for r in range(3):
            for c1, c2 in itertools.combinations(range(3), 2):
                assert commutator_norm(cell(square, r, c1), cell(square, r, c2)) < 1e-12
        for c in range(3):
            for r1, r2 in itertools.combinations(range(3), 2):
                assert commutator_norm(cell(square, r1, c), cell(square, r2, c)) < 1e-12


class TestSquareIdentities:
    def test_all_identities_pass(self, square):
        checks = nogo.verify_square_identities(square)
        assert len(checks) == 24  # 18 commutators + 6 products
        # the operators are exact, so every residual is exactly zero
        assert [residual for _, residual in checks] == [0.0] * 24

    def test_labels_in_order(self, square):
        labels = [name for name, _ in nogo.verify_square_identities(square)]
        assert labels[:3] == ["commute row1: x.,.x", "commute row1: x.,xx", "commute row1: .x,xx"]
        assert labels[9:12] == ["commute col1: x.,.y", "commute col1: x.,xy",
                                "commute col1: .y,xy"]
        assert labels[17] == "commute col3: yy,zz"
        assert labels[18:] == ["product row1 = +I", "product row2 = +I", "product row3 = +I",
                               "product col1 = +I", "product col2 = +I", "product col3 = -I"]

    def test_identities_read_the_constraint_signs(self, square, monkeypatch):
        # with column 3 required to give +I, its product (-I) must fail
        flipped = [c if c.label != "col3" else
                   nogo.ContextConstraint(c.member_indices, +1, c.label)
                   for c in nogo.mermin_constraints()]
        monkeypatch.setattr(nogo, "mermin_constraints", lambda: flipped)
        failed = [(name, residual) for name, residual
                  in nogo.verify_square_identities(square) if not residual < nogo.IDENTITY_TOL]
        assert failed == [("product col3 = +I", pytest.approx(4.0))]

    def test_row_and_column_product_signs(self, square):
        # parity obstruction: row signs multiply to +1, column signs to -1
        signs = []
        for cells in list(square.cells) + list(zip(*square.cells)):
            prod = np.array(cells[0]) @ np.array(cells[1]) @ np.array(cells[2])
            sign = np.trace(prod).real / 4.0
            assert abs(abs(sign) - 1.0) < 1e-12
            signs.append(round(sign))
        row_signs, col_signs = signs[:3], signs[3:]
        assert row_signs == [1, 1, 1]
        assert col_signs == [1, 1, -1]
        assert np.prod(row_signs) == 1
        assert np.prod(col_signs) == -1


class TestAssignmentSearch:
    def test_magic_square_has_no_assignment(self, square):
        assert nogo.search_noncontextual_assignment(square, nogo.mermin_constraints()) == 0

    def test_flipping_last_column_gives_16(self, square):
        # all-(+1) sign pattern: classic count 2^((3-1)(3-1)) = 16
        constraints = [c for c in nogo.mermin_constraints() if c.label != "col3"]
        constraints.append(nogo.ContextConstraint(tuple((r, 2) for r in range(3)), +1, "col3"))
        assert nogo.search_noncontextual_assignment(square, constraints) == 16

    def test_empty_constraints_vacuous(self, square):
        assert nogo.search_noncontextual_assignment(square, []) == 512

    def test_adding_constraints_is_monotone(self, square):
        gen = np.random.default_rng(99)
        constraints = nogo.mermin_constraints()
        for _ in range(5):
            order = gen.permutation(6)
            previous = 512
            for count_used in range(1, 7):
                subset = [constraints[i] for i in order[:count_used]]
                got = nogo.search_noncontextual_assignment(square, subset)
                assert got <= previous
                previous = got


class TestVonNeumann:
    def test_report_values(self):
        sum_eigenvalues, individual_sums, min_gap = nogo.von_neumann_counterexample()
        assert np.allclose(sum_eigenvalues, [-SQRT2, SQRT2], atol=1e-12)
        assert individual_sums == (-2.0, 0.0, 2.0)
        assert abs(min_gap - (2.0 - SQRT2)) < 1e-12

    def test_values_within_one_ulp_of_the_analytic_ones(self):
        sum_eigenvalues, _, min_gap = nogo.von_neumann_counterexample()
        root2 = math.sqrt(2)            # correctly rounded
        assert [abs(e) for e in sum_eigenvalues] == pytest.approx([root2] * 2,
                                                                  abs=math.ulp(root2))
        assert sum_eigenvalues[0] < 0 < sum_eigenvalues[1]
        assert abs(min_gap - (2 - root2)) <= math.ulp(2 - root2)


class TestChsh:
    def test_local_bound(self):
        assert nogo.chsh_local_bound() == (2.0, 8)

    def test_quantum_value(self):
        assert abs(nogo.chsh_quantum_value() - 2 * SQRT2) < 1e-9

    def test_quantum_value_within_two_ulp(self):
        value = nogo.chsh_quantum_value()
        assert type(value) is float
        assert abs(value - 2 * math.sqrt(2)) <= 2 * math.ulp(2 * math.sqrt(2))

    def test_swapping_b_settings_keeps_value(self):
        # exchanging B and B' flips the sign of the A' term, which sigma_z on
        # A's side undoes by conjugation: the spectrum is unchanged
        assert abs(chsh_max_eigenvalue(B_PRIME, B) - 2 * SQRT2) < 1e-9

    def test_degenerate_b_prime(self):
        # operator collapses to 2 A (x) B with extreme eigenvalues +-2
        assert abs(chsh_max_eigenvalue(B, B) - 2.0) < 1e-9

    def test_local_below_quantum(self):
        local_max, _ = nogo.chsh_local_bound()
        assert local_max < nogo.chsh_quantum_value()

"""Machine checks of the classic no-hidden-variables arguments.

Three independent verdicts, each obtained by direct computation rather
than algebra on paper:

* a linearity counterexample: eigenvalues of a sum of non-commuting
  observables are not sums of their eigenvalues;
* the two-qubit magic square: nine +-1-valued observables whose row and
  column product identities admit no context-independent value
  assignment (checked by exhaustive search over all 512 assignments);
  its six contexts and their signs are stated once, in
  `mermin_constraints`;
* the CHSH correlation bound: deterministic local strategies reach at
  most S = 2 (checked by enumerating all 16 of them), while the quantum
  operator reaches 2*sqrt(2).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .hilbert import combine, hermitian_eigenvalues, identity, kron, matmul, norm, pauli

IDENTITY_TOL = 1e-12        # of an operator identity, and of the von Neumann gap
QUANTUM_TOL = 1e-9          # of the CHSH quantum value from 2*sqrt(2)


class ObservableSquare(namedtuple("ObservableSquare", "cells labels")):
    """3x3 arrangement of dim-4 Hermitian operators with +-1 spectra:
    `cells` is a 3x3 nested tuple of 4x4 `hilbert` operators, `labels`
    one of short strings."""

    __slots__ = ()

    def cell(self, row: int, col: int) -> tuple:
        return self.cells[row][col]


class ContextConstraint(namedtuple("ContextConstraint",
                                   "member_indices required_product_sign label",
                                   defaults=("",))):
    """Product of the +-1 values at `member_indices`, ((row, col), ...)
    cell coordinates, must equal the sign."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.required_product_sign not in (+1, -1):
            raise ValueError("required_product_sign must be +1 or -1")
        if len(set(self.member_indices)) != len(self.member_indices):
            raise ValueError("member_indices must be distinct")
        for r, c in self.member_indices:
            if not (0 <= r < 3 and 0 <= c < 3):
                raise ValueError(f"cell index {(r, c)} outside the square")
        return self


def build_mermin_square() -> ObservableSquare:
    """Two-qubit magic square: single-qubit x/y observables and their products.

    Rows multiply to +I; the first two columns multiply to +I and the
    right column to -I, which is the parity obstruction exploited by the
    assignment search.
    """
    sx, sy, sz, i2 = pauli("x"), pauli("y"), pauli("z"), identity(2)
    cells = (
        (kron(sx, i2), kron(i2, sx), kron(sx, sx)),
        (kron(i2, sy), kron(sy, i2), kron(sy, sy)),
        (kron(sx, sy), kron(sy, sx), kron(sz, sz)),
    )
    labels = (
        ("x.", ".x", "xx"),
        (".y", "y.", "yy"),
        ("xy", "yx", "zz"),
    )
    return ObservableSquare(cells=cells, labels=labels)


def mermin_constraints() -> list[ContextConstraint]:
    """The six row/column sign-product constraints of the magic square."""
    rows = [
        ContextConstraint(tuple((r, c) for c in range(3)), +1, f"row{r + 1}")
        for r in range(3)
    ]
    cols = [
        ContextConstraint(tuple((r, c) for r in range(3)), +1 if c < 2 else -1, f"col{c + 1}")
        for c in range(3)
    ]
    return rows + cols


def verify_square_identities(square: ObservableSquare) -> list[tuple]:
    """Commutation within each context of `mermin_constraints()`, then each
    context's product against its required sign times the identity, as
    (identity, residual) pairs; the `square_identities` check holds the
    worst residual to IDENTITY_TOL."""
    contexts = mermin_constraints()
    residuals = []
    for con in contexts:
        for (r1, c1), (r2, c2) in itertools.combinations(con.member_indices, 2):
            a, b = square.cell(r1, c1), square.cell(r2, c2)
            res = norm(combine((1, matmul(a, b)), (-1, matmul(b, a))))
            pair = f"{square.labels[r1][c1]},{square.labels[r2][c2]}"
            residuals.append((f"commute {con.label}: {pair}", res))
    for con in contexts:
        prod = functools.reduce(matmul, (square.cell(*i) for i in con.member_indices))
        res = norm(combine((1, prod), (-con.required_product_sign, identity(len(prod)))))
        sign = "+I" if con.required_product_sign > 0 else "-I"
        residuals.append((f"product {con.label} = {sign}", res))
    return residuals


def search_noncontextual_assignment(square: ObservableSquare,
                                    constraints: list[ContextConstraint]) -> int:
    """How many of the 2^9 = 512 +-1 assignments satisfy the constraints,
    by exhaustive search."""
    for r in range(3):
        for c in range(3):
            eigs = hermitian_eigenvalues(square.cell(r, c))
            if any(abs(abs(e) - 1.0) > 1e-10 for e in eigs):
                raise ValueError(f"cell {(r, c)} does not have a +-1 spectrum")

    count = 0
    for bits in itertools.product((+1, -1), repeat=9):
        values = {(r, c): bits[3 * r + c] for r in range(3) for c in range(3)}
        ok = True
        for con in constraints:
            prod = 1
            for idx in con.member_indices:
                prod *= values[idx]
            if prod != con.required_product_sign:
                ok = False
                break
        if ok:
            count += 1
    return count


def von_neumann_counterexample() -> tuple:
    """Eigenvalues of sigma_x + sigma_z versus all sums of their eigenvalues,
    as (eigenvalues of the sum, sums of eigenvalues, minimum gap).

    A value map linear over non-commuting observables would need the
    spectrum of the sum to consist of sums of individual eigenvalues;
    the minimum gap between the two sets is 2 - sqrt(2), far from zero.
    """
    sum_eigs = hermitian_eigenvalues(combine((1, pauli("x")), (1, pauli("z"))))
    eig_x = hermitian_eigenvalues(pauli("x"))
    eig_z = hermitian_eigenvalues(pauli("z"))
    sums = sorted(set(a + b for a in eig_x for b in eig_z))
    min_gap = min(abs(e - s) for e in sum_eigs for s in sums)
    return sum_eigs, tuple(sums), min_gap


def chsh_local_bound() -> tuple:
    """Maximum of S = E(a,b) + E(a,b') + E(a',b) - E(a',b') over the 16
    deterministic local strategies (two +-1 outputs per side), and how
    many strategies reach it."""
    values = []
    for a, a2, b, b2 in itertools.product((+1, -1), repeat=4):
        values.append(a * b + a * b2 + a2 * b - a2 * b2)
    max_s = max(values)
    return float(max_s), sum(1 for s in values if s == max_s)


def chsh_quantum_value() -> float:
    """Largest eigenvalue of the CHSH operator at the standard settings
    A = sigma_z, A' = sigma_x, B = (sigma_z + sigma_x)/sqrt(2),
    B' = (sigma_z - sigma_x)/sqrt(2)."""
    a, a2 = pauli("z"), pauli("x")
    r = 1 / math.sqrt(2)
    b = combine((r, pauli("z")), (r, pauli("x")))
    b2 = combine((r, pauli("z")), (-r, pauli("x")))
    op = combine((1, kron(a, b)), (1, kron(a, b2)), (1, kron(a2, b)), (-1, kron(a2, b2)))
    return hermitian_eigenvalues(op)[-1]

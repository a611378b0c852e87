"""Machine checks of the classic no-hidden-variables arguments.

Three independent verdicts, each obtained by direct computation rather
than algebra on paper:

* a linearity counterexample: eigenvalues of a sum of non-commuting
  observables are not sums of their eigenvalues;
* the two-qubit magic square: nine +-1-valued observables whose row and
  column product identities admit no context-independent value
  assignment (checked by exhaustive search over all 2**9 assignments);
  its six contexts and their signs are stated once, in
  `mermin_constraints`;
* the CHSH correlation bound: deterministic local strategies reach at
  most S = 2 (checked by enumerating all 16 of them), while the quantum
  operator reaches 2*sqrt(2).

`mermin()`, `vonneumann()` and `chsh()` run one check each and return
its results tree and its `config.gate` checks, whose expected values and
tolerances are the constants below.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .config import gate
from .hilbert import combine, hermitian_eigenvalues, identity, kron, matmul, norm, pauli

IDENTITY_TOL = 1e-12        # of an operator identity, and of the von Neumann gap
QUANTUM_TOL = 1e-9          # of the CHSH quantum value from 2*sqrt(2)
ASSIGNMENTS = 2**9          # +-1 value tables of the magic square's nine cells
VON_NEUMANN_GAP = 2.0 - 2.0**0.5    # the least distance of the two spectra
LOCAL_BOUND = 2.0           # the best S of a deterministic local strategy
QUANTUM_VALUE = 2 * 2**0.5  # the largest eigenvalue of the CHSH operator


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
    """How many of the ASSIGNMENTS +-1 value tables satisfy the
    constraints, by exhaustive search."""
    for r in range(3):
        for c in range(3):
            eigs = hermitian_eigenvalues(square.cell(r, c))
            if any(abs(abs(e) - 1.0) > 1e-10 for e in eigs):
                raise ValueError(f"cell {(r, c)} does not have a +-1 spectrum")

    # bits[3 * r + c] is the value of cell (r, c)
    return sum(all(math.prod(bits[3 * r + c] for r, c in con.member_indices)
                   == con.required_product_sign for con in constraints)
               for bits in itertools.product((+1, -1), repeat=9))


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


def mermin() -> tuple:
    """The magic square: its 24 identities hold, and no value table meets its six signs."""
    square = build_mermin_square()
    identities = verify_square_identities(square)
    satisfying = search_noncontextual_assignment(square, mermin_constraints())
    return ({"identities": [{"constraint": name, "residual": residual}
                            for name, residual in identities],
             "total_assignments": ASSIGNMENTS,
             "satisfying_assignments": satisfying},
            (gate("square_identities", max(residual for _, residual in identities),
                  "<", IDENTITY_TOL),
             gate("no_consistent_assignment", satisfying, "==", 0)))


def vonneumann() -> tuple:
    """The linearity counterexample: the spectra stand VON_NEUMANN_GAP apart."""
    sum_eigenvalues, individual_sums, min_gap = von_neumann_counterexample()
    return ({"sum_eigenvalues": sum_eigenvalues, "individual_sums": individual_sums,
             "min_gap": min_gap},
            (gate("spectrum_not_additive", abs(min_gap - VON_NEUMANN_GAP),
                  "<", IDENTITY_TOL),))


def chsh() -> tuple:
    """The CHSH bounds: local strategies reach LOCAL_BOUND, the quantum
    operator QUANTUM_VALUE, which exceeds it."""
    local_max, optimal = chsh_local_bound()
    quantum = chsh_quantum_value()
    return ({"local_max_S": local_max, "optimal_strategy_count": optimal,
             "quantum_value": quantum},
            (gate("local_bound_is_two", local_max, "==", LOCAL_BOUND),
             gate("quantum_value", abs(quantum - QUANTUM_VALUE), "<", QUANTUM_TOL),
             gate("quantum_exceeds_local", local_max, "<", quantum)))

"""Three machine-checked obstructions to value maps for quantum observables.

1. Linearity fails: eigenvalues of a sum of non-commuting observables
   are not sums of their eigenvalues.
2. Non-contextual +-1 assignments fail: the two-qubit magic square's
   row/column product identities admit no consistent value table, shown
   by trying all 512 of them.
3. Locality fails: every deterministic local strategy obeys S <= 2,
   while the quantum operator reaches 2*sqrt(2).

Run:  python demos/no_hidden_variables.py
"""

import time

from bohmlab import nogo

print("=" * 72)
print("1. Linearity counterexample")
print("=" * 72)
sum_eigenvalues, individual_sums, min_gap = nogo.von_neumann_counterexample()
print(f"eig(sigma_x + sigma_z)          = {sum_eigenvalues}")
print(f"sums of individual eigenvalues  = {individual_sums}")
print(f"minimum gap between the sets    = {min_gap:.12f}  (= 2 - sqrt 2)")
print("A value map with Z(A+B) = Z(A) + Z(B) would need the first set")
print("to be contained in the second; the gap says it is not even close.")

print()
print("=" * 72)
print("2. Magic square: no non-contextual value assignment")
print("=" * 72)
square = nogo.build_mermin_square()
for row in square.labels:
    print("   ".join(f"{lab:>3}" for lab in row))
identities = nogo.verify_square_identities(square)
print(f"identities checked: {len(identities)}, worst residual "
      f"{max(residual for _, residual in identities):.2e}")
print("row products are +I +I +I, column products +I +I -I, so a value")
print("table would need the product of all nine values to be both +1 and -1.")
start = time.perf_counter()
satisfying = nogo.search_noncontextual_assignment(square, nogo.mermin_constraints())
elapsed = time.perf_counter() - start
print(f"exhaustive search: {satisfying} of 512 assignments survive "
      f"({elapsed * 1000:.1f} ms)")

print()
print("=" * 72)
print("3. Correlation bounds")
print("=" * 72)
local_max, optimal = nogo.chsh_local_bound()
quantum = nogo.chsh_quantum_value()
print(f"deterministic local strategies: max S = {local_max} ({optimal}/16 attain it)")
print(f"quantum operator value:         {quantum:.10f} = 2 sqrt(2)")
print(f"violation factor: {quantum / local_max:.6f} (= sqrt 2)")

"""Three machine-checked obstructions to value maps for quantum observables.

1. Linearity fails: eigenvalues of a sum of non-commuting observables
   are not sums of their eigenvalues.
2. Non-contextual +-1 assignments fail: the two-qubit magic square's
   row/column product identities admit no consistent value table, shown
   by trying all 2**9 of them.
3. Locality fails: every deterministic local strategy obeys S <= 2,
   while the quantum operator reaches 2*sqrt(2).

Each section prints the results and the verdicts that `bohmlab nogo`
writes to its reports.

Run:  python demos/no_hidden_variables.py
"""

from bohmlab import nogo

SECTIONS = (
    ("vonneumann", "1. Linearity counterexample",
     "A value map with Z(A+B) = Z(A) + Z(B) would need the spectrum of\n"
     "sigma_x + sigma_z among the sums; the gap is 2 - sqrt 2."),
    ("mermin", "2. Magic square: no non-contextual value assignment",
     "Row products are +I +I +I, column products +I +I -I, so a value\n"
     "table would need the product of all nine values to be both +1 and -1."),
    ("chsh", "3. Correlation bounds",
     "Local strategies reach S = 2; the quantum operator 2 sqrt 2."),
)

for check, title, moral in SECTIONS:
    results, checks = getattr(nogo, check)()
    print("=" * 72, title, "=" * 72, sep="\n")
    for key, value in results.items():
        # a list of records (the 24 square identities) is summarized by size
        print(f"{key} = {f'{len(value)} entries' if isinstance(value, list) else value}")
    print(moral)
    for verdict in checks:
        print(verdict)
    print()

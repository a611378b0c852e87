"""bohmlab: a desk-scale laboratory for pilot-wave quantum dynamics.

Wave packets evolve on a 1D spectral grid, particles follow the guiding
velocity of the wave, ensembles reproduce the |psi|^2 statistics, a
two-factor pointer model exhibits effective collapse, and small dense
linear algebra verifies the classic no-hidden-variables arguments.

Importing the package loads none of its modules: import the one you use
(`from bohmlab import cli`), so a `bohmlab` invocation loads only the
modules its subcommand runs.
"""

__version__ = "0.1.0"

"""bohmlab: a desk-scale laboratory for pilot-wave quantum dynamics.

Wave packets evolve on a 1D spectral grid, particles follow the guiding
velocity of the wave, ensembles reproduce the |psi|^2 statistics, a
two-factor pointer model exhibits effective collapse, and small dense
linear algebra verifies the classic no-hidden-variables arguments.
"""

from . import conditional, config, experiments, hilbert, nogo, rng, trajectories, wavefield
from .config import ExperimentConfig, default_config, parse_config
from .wavefield import Grid1D, MagnetSpec, PotentialSpec, SpinorField

__all__ = [
    "conditional",
    "config",
    "experiments",
    "hilbert",
    "nogo",
    "rng",
    "trajectories",
    "wavefield",
    "ExperimentConfig",
    "default_config",
    "parse_config",
    "Grid1D",
    "MagnetSpec",
    "PotentialSpec",
    "SpinorField",
]

__version__ = "0.1.0"

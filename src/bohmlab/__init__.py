"""bohmlab: a desk-scale laboratory for pilot-wave quantum dynamics.

Wave packets evolve on a 1D spectral grid, particles follow the guiding
velocity of the wave, ensembles reproduce the |psi|^2 statistics, a
two-factor pointer model exhibits effective collapse, and small dense
linear algebra verifies the classic no-hidden-variables arguments.

Importing the package loads none of its modules: each name below is
imported on first access (PEP 562), so a `bohmlab` invocation loads only
the modules its subcommand runs.
"""

_MODULES = ("conditional", "config", "experiments", "hilbert", "nogo", "rng", "trajectories",
            "wavefield")
# re-exported name -> the module that defines it
_NAMES = {
    "ExperimentConfig": "config",
    "default_config": "config",
    "parse_config": "config",
    "Grid1D": "wavefield",
    "MagnetSpec": "wavefield",
    "PotentialSpec": "wavefield",
    "SpinorField": "wavefield",
}

__all__ = [*_MODULES, *_NAMES]

__version__ = "0.1.0"


def __getattr__(name):
    module = _NAMES.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, so that -X importtime reports it too;
    # importing a submodule binds it in this namespace
    __import__(f"{__name__}.{module}")
    return globals()[name] if name == module else getattr(globals()[module], name)

"""The records: immutable namedtuples whose validators reject bad input
with the same messages as before, and which no results tree holds."""

import math
import re

import numpy as np
import pytest

from bohmlab import cli, experiments, nogo
from bohmlab.conditional import CouplingSpec, PointerMeasurement
from bohmlab.config import NOGO_SCENARIOS, Check, default_config, gate
from bohmlab.trajectories import Ensemble, HistogramComparison, NoCrossingReport
from bohmlab.wavefield import BranchSupports, Grid1D, MagnetSpec, PotentialSpec

# one valid instance of each record
RECORDS = [
    gate("name", 1.0, "<", 2.0),
    default_config("pointer"),
    Grid1D(-16.0, 16.0, 512),
    MagnetSpec(5.0),
    PotentialSpec("harmonic"),
    BranchSupports((-3.0, -1.0), (1.0, 3.0), 2.0),
    CouplingSpec(10.0),
    PointerMeasurement(np.zeros(1), np.ones(1, dtype=int), np.zeros((1, 2)), (1, 0), 1.0, 0.0),
    Ensemble(np.zeros(2), np.zeros((1, 2))),
    HistogramComparison(np.zeros(11), np.zeros(10), np.zeros(10), 0.0),
    NoCrossingReport(0, None),
    nogo.build_mermin_square(),
    nogo.mermin_constraints()[0],
    experiments.measurement_statistics((3, 1), (0.75, 0.25)),
    *(cls(*range(len(cls._fields))) for cls in (
        experiments.SternGerlachResult, experiments.SequentialResult,
        experiments.NoCrossingResult, experiments.EquilibriumResult,
        experiments.PointerResult)),
]


def test_there_are_nineteen_records():
    assert len({type(r) for r in RECORDS}) == 19


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_no_field_can_be_assigned(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_a_grid_keeps_its_cached_arrays():
    # Grid1D has a __dict__ for its cached properties, which no assignment
    # may replace
    grid = Grid1D(-16.0, 16.0, 512)
    nodes = grid.nodes
    for name in ("nodes", "edge_mask", "wavenumbers", "other"):
        with pytest.raises(AttributeError):
            setattr(grid, name, np.zeros(3))
    assert grid.nodes is nodes and grid.wavenumbers.size == 512


def test_defaults_fill_the_trailing_fields():
    assert Ensemble(np.zeros(2), np.zeros((1, 2))).aborted == ()
    assert nogo.ContextConstraint(((0, 0),), 1).label == ""
    assert default_config("chsh").seed == 42


def test_a_potential_is_its_kind():
    # the harmonic well is x^2/2: no frequency or centre to set
    assert PotentialSpec._fields == ("kind",)


@pytest.mark.parametrize("build,message", [
    (lambda: Grid1D(1.0, 1.0, 512), "x_max must exceed x_min"),
    (lambda: Grid1D(x_min=0.0, x_max=1.0, n_points=300),
     "n_points must be a power of two in [256, 16384]"),
    (lambda: Grid1D(0.0, 1.0, 32768), "n_points must be a power of two in [256, 16384]"),
    (lambda: MagnetSpec(-1.0), "mu_b must be nonnegative"),
    (lambda: PotentialSpec("bogus"), "kind must be 'free' or 'harmonic', got 'bogus'"),
    (lambda: CouplingSpec(-0.5), "shift must be nonnegative"),
    (lambda: nogo.ContextConstraint(((0, 0),), 2), "required_product_sign must be +1 or -1"),
    (lambda: nogo.ContextConstraint(((0, 0), (0, 0)), 1), "member_indices must be distinct"),
    (lambda: nogo.ContextConstraint(member_indices=((0, 3),), required_product_sign=-1),
     "cell index (0, 3) outside the square"),
])
def test_each_validator_keeps_its_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def records_in(tree):
    """The names of the records anywhere in a results tree."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if not isinstance(tree, (list, tuple)):
        return []
    own = [type(tree).__name__] if hasattr(tree, "_fields") else []
    return own + [name for value in tree for name in records_in(value)]


def test_no_results_tree_holds_a_record(tmp_path):
    # a record is a tuple, so json_text would write it as a list and
    # report.txt as a line of values, without an error
    for scenario, (runner, _) in cli.SCENARIOS.items():
        size = {} if scenario in NOGO_SCENARIOS else {"n_trials": 200}
        out = tmp_path / scenario
        out.mkdir()
        results, checks, _ = runner(default_config(scenario, **size), out, "0" * 64, False)
        assert records_in(results) == [], scenario
        assert checks and all(type(c) is Check for c in checks), scenario


def test_a_statistics_record_becomes_the_same_dict():
    stats = experiments.measurement_statistics((3, 1), (0.75, 0.25))
    assert stats._asdict() == {"counts": (3, 1), "frequencies": (0.75, 0.25),
                               "born_probabilities": (0.75, 0.25),
                               "three_sigma_halfwidths": (3.0 * math.sqrt(0.75 * 0.25 / 4),) * 2,
                               "expectation_value": 0.25}

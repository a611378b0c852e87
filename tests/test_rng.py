import numpy as np
import pytest

from bohmlab import rng

_MASK = (1 << 64) - 1


def _reference_output(seed: int, i: int) -> int:
    """Pure-Python transcription of the documented algorithm, kept
    independent of the vectorized implementation."""
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, _MASK])
def test_raw_matches_documented_algorithm(seed):
    got = rng.raw(seed, 8)
    expected = [_reference_output(seed, i) for i in range(8)]
    assert [int(v) for v in got] == expected


def test_uniforms_deterministic_and_in_range():
    a = rng.uniforms(42, 1000)
    b = rng.uniforms(42, 1000)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a < 1.0))


def test_derive_is_deterministic_and_spreads():
    assert rng.derive(42, 0) == rng.derive(42, 0)
    children = {rng.derive(42, tag) for tag in range(100)}
    assert len(children) == 100


def test_sample_uniform_density_deciles():
    x = np.linspace(0.0, 1.0, 256, endpoint=False)
    density = np.ones_like(x)
    samples = rng.sample_from_density(x, density, 100_000, seed=11)
    for d in range(10):
        mass = np.mean((samples >= d / 10) & (samples < (d + 1) / 10))
        assert abs(mass - 0.1) < 0.01


def test_sample_point_mass_stays_in_cell():
    x = np.linspace(-1.0, 1.0, 256, endpoint=False)
    dx = x[1] - x[0]
    density = np.zeros_like(x)
    density[100] = 1.0 / dx
    samples = rng.sample_from_density(x, density, 500, seed=3)
    assert np.all(samples >= x[100] - dx / 2)
    assert np.all(samples < x[100] + dx / 2)


def test_sample_rejects_zero_mass():
    x = np.linspace(0.0, 1.0, 256, endpoint=False)
    with pytest.raises(ValueError):
        rng.sample_from_density(x, np.zeros_like(x), 10, seed=0)

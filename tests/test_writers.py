"""Every table writer against a per-value `fmt` reference, byte for byte.

The reference renderers below format one value at a time with
`serialize.fmt`, which defines the text of a number; the writers must
produce exactly the same bytes, for real run data and for edge values.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from bohmlab import cli, experiments, table, threads
from bohmlab.cli import _write_histograms, write_ensemble, write_frame, write_trials
from bohmlab.conditional import (
    CouplingSpec,
    PointerMeasurement,
    run_pointer_measurement,
)
from bohmlab.serialize import fmt, json_text
from bohmlab.table import write_table
from bohmlab.trajectories import (
    Ensemble,
    equilibrium_distance,
    integrate,
    sample_positions,
)
from bohmlab.wavefield import Grid1D, PotentialSpec, SpinorField

from conftest import CONFIG_DIR, analytic_free_gaussian, shipped_config

ROOT = CONFIG_DIR.parent

NEG_NAN = math.copysign(math.nan, -1.0)
EDGE_VALUES = [math.nan, NEG_NAN, math.inf, -math.inf, -0.0, 0.0, 5e-324,
               2.2250738585072014e-308, 1e300, -1e300, 0.1, 1.0 / 3.0]


def ref_ensemble(ensemble, config_hash, seed):
    lines = [f"# config_hash={config_hash} seed={seed}",
             "trajectory_id,time,position"]
    for i in range(ensemble.n_trajectories):
        for t, xt in zip(ensemble.frame_times, ensemble.positions[i]):
            lines.append(f"{i},{fmt(float(t))},{fmt(float(xt))}")
    return "\n".join(lines) + "\n"


def ref_frame(field):
    lines = [
        f"# spinor-frame x_min={fmt(field.grid.x_min)} x_max={fmt(field.grid.x_max)}"
        f" n_points={field.grid.n_points} time={fmt(field.time)}",
        "# x re_up im_up re_down im_down",
    ]
    x = field.grid.nodes
    for j in range(field.grid.n_points):
        lines.append(" ".join(fmt(float(v)) for v in
                              (x[j], field.up[j].real, field.up[j].imag,
                               field.down[j].real, field.down[j].imag)))
    return "\n".join(lines) + "\n"


def ref_trials(measurement, config_hash):
    lines = [f"# config_hash={config_hash}",
             "trial_id,y,outcome,re_up,im_up,re_down,im_down"]
    for i, (y, outcome, (up, down)) in enumerate(zip(measurement.y, measurement.outcome,
                                                     measurement.collapsed)):
        lines.append(",".join([str(i), fmt(y), fmt(outcome),
                               fmt(up.real), fmt(up.imag), fmt(down.real), fmt(down.imag)]))
    return "\n".join(lines) + "\n"


def ref_histograms(result, chash):
    lines = [f"# config_hash={chash}", "frame,bin_left,bin_right,empirical,theoretical"]
    for i, comp in enumerate(result.comparisons):
        edges = comp.bin_edges
        for b in range(len(edges) - 1):
            lines.append(",".join([str(i), fmt(float(edges[b])), fmt(float(edges[b + 1])),
                                   fmt(float(comp.empirical_mass[b])),
                                   fmt(float(comp.theoretical_mass[b]))]))
    return "\n".join(lines) + "\n"


def written(tmp_path, write, *args, **kwargs) -> bytes:
    path = tmp_path / "table.txt"
    write(*args, path, **kwargs)
    return path.read_bytes()


def dump_frame(field, path) -> None:
    """Write `field` as a run writes its frame 0, by `_write_frames` into
    `frames/frame_0000.txt` beside `path`, and move that file to `path`."""
    cli._write_frames([field], path.parent)
    (path.parent / "frames/frame_0000.txt").replace(path)


@pytest.fixture(scope="module")
def free_run():
    """Frames of a free Gaussian, an integrated ensemble with one
    trajectory aborted at the edge, and its equilibrium comparisons."""
    grid = Grid1D(-16.0, 16.0, 512)
    times = np.linspace(0.0, 2.0, 11)
    frames = [analytic_free_gaussian(grid, 1.0, t, momentum=1.0) for t in times]
    x0 = np.append(sample_positions(frames[0], 300, seed=3), 15.9)
    ensemble = integrate(frames, x0, PotentialSpec("free"), substeps_per_frame=2)
    comparisons = tuple(equilibrium_distance(ensemble, i, frames[i], 20)
                        for i in range(len(frames)))
    return frames, ensemble, comparisons


def test_format_spec_matches_fmt():
    for v in EDGE_VALUES + [1e16, 1e17]:
        assert f"{v:.17g}" == fmt(v)
        assert "%.17g" % v == fmt(v)
    for n in (0, 7, -3, 10**6, 2**63):
        assert f"{n}" == fmt(n)


def test_json_text_keeps_float_type():
    floats = [2.0, -0.0, 0.0, 1e16, -3.0, 0.5, 1e17, 5e-324, 2.0**0.5]
    assert [json_text(v) for v in floats] == [
        "2.0", "-0.0", "0.0", "10000000000000000.0", "-3.0", "0.5", "1e+17",
        "4.9406564584124654e-324", "1.4142135623730951"]
    assert [json_text(v) for v in (2, -7, math.nan, -math.inf)] == \
        ["2", "-7", '"nan"', '"-inf"']
    for v in floats:
        back = json.loads(json_text(v))
        assert type(back) is float and back == v
        assert math.copysign(1.0, back) == math.copysign(1.0, v)


def test_fmt_and_json_text_never_load_numpy():
    code = ("import sys\n"
            "from bohmlab.serialize import fmt, json_text\n"
            "print(' '.join(fmt(v) for v in (True, -7, 0.1, 1 - 2j, -0.0, float('nan'))))\n"
            "print(json_text({'a': [2.0, None, 'x'], 'b': (False, 5e-324)}))\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *text, loaded = proc.stdout.splitlines()
    assert text == ["true -7 0.10000000000000001 1-2j -0 nan",
                    *json_text({"a": [2.0, None, "x"], "b": (False, 5e-324)}).splitlines()]
    assert loaded == "False"


def random_doubles(n, seed):
    """n doubles with uniformly random bit patterns: every exponent,
    subnormals, infinities and NaNs."""
    return np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64,
                                                endpoint=False).view(np.float64)


def decimal_ties():
    """Doubles whose 18th significant digit is an exact 5 after zeros, so
    `%.17g` must round half to even: m / 2**(17 - E) for odd m, every one
    of them for E in -8...-5 and 400 per decimal exponent E in -4...15."""
    rng = np.random.default_rng(4)
    ties = []
    for e in range(-8, 16):
        lo, hi = (math.ceil(Fraction(10)**k * 2**(17 - e)) for k in (e, e + 1))
        hi = min(hi, 2**53)
        if hi - lo < 800:
            m = np.arange(lo | 1, hi, 2)
        else:
            m = 2 * rng.integers(lo // 2, (hi - 1) // 2, size=400) + 1
        ties.append(np.ldexp(m.astype(np.float64), e - 17))
    return np.concatenate(ties)


def near_ties():
    """Doubles x = m * 2**q (2**52 <= m < 2**53) with decimal exponent E
    whose x * 10**(16 - E) = m * A / B lies within 50 / B of a half, for
    E where 5**(16 - E) is not a double: m solves m * A = B // 2 + delta
    (mod B).  Rounding them to 17 digits hangs on the last bits of the
    product."""
    found = []
    for e in [*range(-11, -6), *range(38, 42)]:
        for q in range(math.floor(e * math.log2(10)) - 54, math.ceil((e + 1) * math.log2(10)) - 51):
            c = Fraction(2)**q * Fraction(10)**(16 - e)
            a, b = c.numerator, c.denominator
            for delta in [*range(-49, 0), *range(1, 50)]:
                m = (b // 2 + delta) * pow(a, -1, b) % b
                m += max(0, -(-(2**52 - m) // b)) * b
                if 2**52 <= m < 2**53 and 10**16 <= m * c < 10**17:
                    found.append(math.ldexp(m, q))
    return np.array(found)


def formatter_inputs():
    rng = np.random.default_rng(8)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])  # notation switches at 1e-4, 1e17
    limits = [np.finfo(np.float64).smallest_normal, 5e-324]       # subnormal/normal boundary
    largest = np.finfo(np.float64).max
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                           limits])
    k = rng.integers(10**15, 10**16, size=20000)
    chosen = np.concatenate([
        10.0 ** rng.uniform(-45, 17, size=10**5),
        near, np.nextafter(near, 0.0), np.nextafter(near, np.inf),
        (2 * k + 1) / 2, [1e15 + 0.5],
        decimal_ties(), near_ties(),
        [largest, np.nextafter(largest, 0.0)],
        EDGE_VALUES,
    ])
    return np.concatenate([random_doubles(10**6, seed=2), chosen, -chosen])


def test_a_signalling_nan_formats_without_a_warning_at_baseline_dispatch():
    # numpy's baseline loops (no AVX2) raise "invalid value" for log10 of
    # a signalling NaN, where the AVX2 loops do not; the variable only
    # holds for the child, as it must be set before numpy is imported
    code = ("import numpy as np\n"
            "from bohmlab import table\n"
            "x = np.array([0x7ff0000000000001], dtype=np.uint64).view(np.float64)\n"
            "print(bytes(table.format_cells([x])[0][0]).rstrip(b'\\0').decode())\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3")
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "nan\n"


def test_write_table_formats_floats_as_percent_17g(tmp_path):
    values = formatter_inputs().tolist()
    assert len(values) > 10**6
    path = tmp_path / "floats.txt"
    write_table(path, [], [np.array(values)])
    want = ["%.17g" % v for v in values]
    data = path.read_bytes()
    if data != ("\n".join(want) + "\n").encode():
        got = data.decode().splitlines()
        assert len(got) == len(want)
        assert [(v, g, w) for v, g, w in zip(values, got, want) if g != w][:5] == []


def test_run_tables_need_no_per_value_fallback(tmp_path, monkeypatch):
    # the tiny Gaussian tails of a frame dump and of trials.csv are
    # written in exponent notation by the vectorized path, not by `%`
    counted = []
    fallback = table._percent_cells
    monkeypatch.setattr(table, "_percent_cells",
                        lambda values: counted.append(values.size) or fallback(values))
    sg = experiments.stern_gerlach(shipped_config("stern_gerlach", seed=7))
    dump_frame(sg.frames[16], tmp_path / "frame.txt")
    pointer = experiments.pointer_experiment(shipped_config("pointer", seed=7))
    write_trials(pointer.measurement, tmp_path / "trials.csv", config_hash="abc")
    for name, values in (("frame.txt", 5 * 512), ("trials.csv", 5 * pointer.measurement.y.size)):
        text = (tmp_path / name).read_text()
        assert text.count("e-") > values // 3
    assert sum(counted) == 0


def test_constants_need_one_significand_pass(monkeypatch):
    # +-0, nan and +-inf are constant cells; their placeholder significand
    # must not send them through the exponent fix-up, a second pass
    counted = []
    significand = table._significand
    monkeypatch.setattr(table, "_significand",
                        lambda a, e: counted.append(a.size) or significand(a, e))
    values = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -2.5e-300, 3.25e300])
    cells = table._fast_cells(values)
    assert counted == [values.size]
    assert [c.rstrip(b"\0").decode() for c in cells.view("S24").ravel()] == [
        "%.17g" % v for v in values]


INT_DTYPES = ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"]


def int_inputs(dtype):
    """0, +-1, +-9, +-10, each power of ten and +-1 around it, the limits
    of the dtype's values that a table writes (its own, or +-2**53 where
    wider) and +-1 inside them, all between those limits, then seeded
    random draws between them."""
    info = np.iinfo(dtype)
    lo, hi = max(info.min, -2**53), min(info.max, 2**53)
    edges = {lo, lo + 1, hi - 1, hi}
    edges |= {sign * 10**k + d for k in range(21) for sign in (1, -1) for d in (-1, 0, 1)}
    edges = sorted(v for v in edges if lo <= v <= hi)
    draws = np.random.default_rng(11).integers(lo, hi, size=5000, dtype=dtype, endpoint=True)
    return np.array(edges, dtype), draws


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_int_cells_are_str(dtype):
    # as one column, whose width is the longest text, and value by value
    edges, draws = int_inputs(dtype)
    columns = [edges, draws, edges[:, None], *(edges[i:i + 1] for i in range(edges.size))]
    for column, cells in zip(columns, table.format_cells(columns)):
        texts = [str(v) for v in column.ravel().tolist()]
        width = max(map(len, texts))
        assert cells.shape == column.shape + (width,)
        assert [c.tobytes() for c in cells.reshape(-1, width)] == [
            t.encode().ljust(width, b"\0") for t in texts]


@pytest.fixture(scope="module")
def edge_tables():
    """Every table kind over the edge values, each with its writer and
    its reference text: ids cross 9 -> 10 and 99,999 -> 100,000 inside
    a chunk, the ensemble's frame times are one broadcast column, and
    the `fixed_column_tables`."""
    values = np.array(EDGE_VALUES)
    ensemble = Ensemble(frame_times=values, positions=np.resize(values, (13, values.size)))
    collapsed = np.zeros((values.size, 2), dtype=complex)
    collapsed.real = np.stack([values, -values], axis=1)
    collapsed.imag = np.stack([values[::-1], values], axis=1)
    trials = PointerMeasurement(y=values, outcome=1 + np.arange(values.size) % 2,
                                collapsed=collapsed, counts=(6, 6), min_purity=0.0,
                                branch_overlap=1.0)
    up = np.resize(values, 256).astype(complex)
    up.imag = np.resize(values[::-1], 256)
    field = SpinorField(Grid1D(-1.0, 1.0, 256), up, -up, time=1e300)
    comp = SimpleNamespace(bin_edges=np.append(values, 2.0), empirical_mass=values[::-1],
                           theoretical_mass=-values)
    result = SimpleNamespace(comparisons=(comp,) * 12)
    ids = np.arange(99_990, 100_010)
    rows = np.resize(values, (ids.size, 3))
    return {
        "ensemble": (lambda path: write_ensemble(ensemble, path, config_hash="abc", seed=1),
                     ref_ensemble(ensemble, "abc", 1)),
        "trials": (lambda path: write_trials(trials, path, config_hash="abc"),
                   ref_trials(trials, "abc")),
        "frame": (lambda path: dump_frame(field, path), ref_frame(field)),
        "histograms": (lambda path: _write_histograms(result, path, chash="abc"),
                       ref_histograms(result, "abc")),
        "ids": (lambda path: write_table(path, [], [ids[:, None], values[:3], rows]),
                "".join(f"{i},{fmt(t)},{fmt(v)}\n" for i, row in zip(ids, rows)
                        for t, v in zip(values[:3], row))),
        **fixed_column_tables(values),
        **int_tables(values),
    }


def int_tables(values):
    """A table whose negative int column narrows and widens between
    chunks (-120 ... 14), beside int64 and uint64 columns that reach
    +-2**53, the limits of an int column."""
    n = 135
    counts = np.arange(-120, n - 120)
    wide = np.resize(int_inputs("int64")[0], n)
    unsigned = np.resize(int_inputs("uint64")[0], n)
    floats = np.resize(values, n)
    return {"ints": (lambda path: write_table(path, [], [counts, wide, unsigned, floats]),
                     "".join(f"{fmt(c)},{fmt(w)},{fmt(u)},{fmt(v)}\n"
                             for c, w, u, v in zip(counts, wide, unsigned, floats)))}


def fixed_column_tables(values):
    """Tables whose fixed column (cut to its longest text, laid out once
    per layout) follows ids that widen between chunks (9 -> 10, 99 ->
    100), so that the column moves, and whose last chunk is short."""
    n, tables = 103, {}
    for name, times in {"24-bytes": [0.5, -1.2345678901234567e-308, 2.0],
                        "zeros": [0.0, -0.0, 0.0], "one-byte": [0.0, 0.0]}.items():
        rows = np.resize(values, (n, len(times)))
        columns = [np.arange(n)[:, None], np.array(times), rows]
        tables[f"fixed-{name}"] = (
            lambda path, columns=columns: write_table(path, [], columns),
            "".join(f"{i},{fmt(t)},{fmt(v)}\n" for i in range(n) for t, v in zip(times, rows[i])))
    tables["fixed-one-row"] = (lambda path: write_table(path, [], [np.arange(n), values[6:7]]),
                               "".join(f"{i},{fmt(values[6])}\n" for i in range(n)))
    return tables


@pytest.mark.parametrize("chunk", [1, 3, 97, table._CHUNK_VALUES])
def test_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, edge_tables, chunk):
    # a stale tail of the reused row buffer or an unwritten cell would
    # show as a difference between chunk sizes
    monkeypatch.setattr(table, "_CHUNK_VALUES", chunk)
    for name, (write, reference) in edge_tables.items():
        write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == reference.encode(), name


@pytest.mark.parametrize("column", [
    np.array([True, False]), np.array([1 + 2j, 3j]), np.array(["a", "b"]), np.array([b"a", b"b"]),
    np.array([1.0, None], dtype=object), np.array(["2020-01-01", "2020-01-02"], dtype="M8[D]"),
], ids=lambda c: c.dtype.kind)
def test_write_table_rejects_columns_fmt_would_write_differently(tmp_path, column):
    path = tmp_path / "table.csv"
    with pytest.raises(TypeError):
        write_table(path, [], [np.arange(2), column])
    assert not path.exists()


@pytest.mark.parametrize("column", [np.array([0, 2**53 + 1]), np.array([-2**53 - 1, 0]),
                                    np.array([0, 2**64 - 1], np.uint64)],
                         ids=["int64-above", "int64-below", "uint64-max"])
def test_write_table_rejects_ints_beyond_2_to_the_53(tmp_path, column):
    # beyond +-2**53 not every int is a double
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError):
        write_table(path, [], [column, np.ones(2)])
    assert not path.exists()


@pytest.fixture(scope="module")
def large_ensemble():
    """6,500 x 41 positions, with NaN-aborted rows and every edge value
    scattered in, and its reference text."""
    rng = np.random.default_rng(9)
    positions = rng.normal(scale=4.0, size=(6500, 41))
    for i in range(0, 6500, 97):
        positions[i, 1 + i % 40:] = np.nan
    cells = rng.choice(positions.size, size=40 * len(EDGE_VALUES), replace=False)
    positions.flat[cells] = np.resize(EDGE_VALUES, cells.size)
    ensemble = Ensemble(frame_times=np.linspace(0.0, 4.0, 41), positions=positions)
    return ensemble, ref_ensemble(ensemble, "abc", 5).encode()


class TestEnsemble:
    def test_integrated_run(self, tmp_path, free_run):
        _, ensemble, _ = free_run
        assert np.isnan(ensemble.positions[-1, -1])
        assert written(tmp_path, write_ensemble, ensemble, config_hash="abc", seed=3) == \
            ref_ensemble(ensemble, "abc", 3).encode()

    def test_edge_values(self, tmp_path):
        positions = np.array([EDGE_VALUES, EDGE_VALUES[::-1]])
        ensemble = Ensemble(frame_times=np.array(EDGE_VALUES), positions=positions)
        data = written(tmp_path, write_ensemble, ensemble, config_hash="abc", seed=7)
        assert data == ref_ensemble(ensemble, "abc", 7).encode()
        assert data.count(b"\n") == 2 + 2 * len(EDGE_VALUES)

    def test_zero_rows(self, tmp_path):
        header = b"# config_hash=abc seed=1\ntrajectory_id,time,position\n"
        no_trajectories = Ensemble(frame_times=np.array([0.0, 1.0]), positions=np.zeros((0, 2)))
        no_frames = Ensemble(frame_times=np.zeros(0), positions=np.zeros((3, 0)))
        for ensemble in (no_trajectories, no_frames):
            assert written(tmp_path, write_ensemble, ensemble, config_hash="abc", seed=1) == header
            assert ref_ensemble(ensemble, "abc", 1).encode() == header

    def test_large_table(self, tmp_path, large_ensemble):
        ensemble, reference = large_ensemble
        assert written(tmp_path, write_ensemble, ensemble, config_hash="abc", seed=5) == reference

    def test_large_table_is_the_same_on_one_and_two_threads(self, tmp_path, usable_cpus,
                                                             large_ensemble):
        ensemble, reference = large_ensemble
        assert ensemble.positions.size >= threads.MIN_VALUES
        for cpus in (1, 2):
            usable_cpus(cpus)
            assert written(tmp_path, write_ensemble, ensemble, config_hash="abc", seed=5) == \
                reference

    def test_text_is_never_held_in_memory(self, tmp_path):
        # 20,000 x 41 positions are 36 MB of text
        positions = np.random.default_rng(5).normal(scale=4.0, size=(20000, 41))
        ensemble = Ensemble(frame_times=np.linspace(0.0, 4.0, 41), positions=positions)
        path = tmp_path / "ensemble.csv"
        tracemalloc.start()
        try:
            write_ensemble(ensemble, path, config_hash="abc", seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 30e6
        assert peak < 16e6


def traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFrame:
    def test_memory_is_bounded(self, tmp_path, free_run):
        # the 40-byte-cell writer's traced peak (0.525 MB) plus 10%
        frames, _, _ = free_run
        assert frames[-1].grid.n_points == 512
        assert traced_peak(lambda: cli._write_frames(frames[-1:], tmp_path)) < 0.578e6

    @pytest.mark.parametrize("stack", [1, 3, 1000])
    def test_stacked_dumps(self, tmp_path, monkeypatch, free_run, stack):
        # 11 frames formatted a stack at a time (3 leaves a short last
        # stack, 1000 holds them all), each file written by one write_frame
        frames, _, _ = free_run
        monkeypatch.setattr(table, "_CHUNK_VALUES", stack * 4 * frames[0].grid.n_points)
        paths = []
        monkeypatch.setattr(cli, "write_frame", lambda field, path, cells: (
            paths.append(path.name), write_frame(field, path, cells)))
        written = cli._write_frames(frames, tmp_path)
        names = [f"frame_{i:04d}.txt" for i in range(len(frames))]
        assert paths == names and written == [f"frames/{name}" for name in names]
        assert sorted(p.name for p in (tmp_path / "frames").iterdir()) == names
        for name, field in zip(names, frames):
            assert (tmp_path / "frames" / name).read_text() == ref_frame(field)

    def test_evolved_frames(self, tmp_path, free_run):
        frames, _, _ = free_run
        for field in (frames[0], frames[-1]):
            assert written(tmp_path, dump_frame, field) == ref_frame(field).encode()

    def test_edge_values(self, tmp_path):
        grid = Grid1D(-1.0, 1.0, 256)
        values = np.resize(EDGE_VALUES, 256)
        up, down = values.astype(complex), -values.astype(complex)
        up.imag, down.imag = values[::-1], values
        field = SpinorField(grid, up, down, time=1e300)
        assert written(tmp_path, dump_frame, field) == ref_frame(field).encode()


class TestTrials:
    def test_memory_is_bounded(self, tmp_path):
        # the 40-byte-cell writer's traced peak (1.604 MB) plus 10%
        m = run_pointer_measurement(0.6, 0.8, CouplingSpec(10.0), 10_000, 11,
                                    Grid1D(-24.0, 24.0, 512))
        path = tmp_path / "trials.csv"
        assert traced_peak(lambda: write_trials(m, path, config_hash="abc")) < 1.765e6
        assert path.read_bytes().count(b"\n") == 2 + 10_000

    def test_pointer_run(self, tmp_path):
        m = run_pointer_measurement(0.6, 0.8, CouplingSpec(10.0), 500, 11,
                                    Grid1D(-24.0, 24.0, 512))
        assert written(tmp_path, write_trials, m, config_hash="abc") == \
            ref_trials(m, "abc").encode()

    def test_edge_values(self, tmp_path):
        values = np.array(EDGE_VALUES)
        collapsed = np.zeros((values.size, 2), dtype=complex)
        collapsed.real = np.stack([values, -values], axis=1)
        collapsed.imag = np.stack([values[::-1], values], axis=1)
        m = PointerMeasurement(y=values, outcome=1 + np.arange(values.size) % 2,
                               collapsed=collapsed, counts=(6, 6), min_purity=0.0,
                               branch_overlap=1.0)
        assert written(tmp_path, write_trials, m, config_hash="abc") == \
            ref_trials(m, "abc").encode()

    def test_zero_rows(self, tmp_path):
        m = PointerMeasurement(y=np.zeros(0), outcome=np.zeros(0, dtype=int),
                               collapsed=np.zeros((0, 2), dtype=complex), counts=(0, 0),
                               min_purity=1.0, branch_overlap=0.0)
        assert written(tmp_path, write_trials, m, config_hash="abc") == \
            b"# config_hash=abc\ntrial_id,y,outcome,re_up,im_up,re_down,im_down\n"


class TestHistograms:
    def test_equilibrium_comparisons(self, tmp_path, free_run):
        _, _, comparisons = free_run
        result = SimpleNamespace(comparisons=comparisons)
        assert written(tmp_path, _write_histograms, result, chash="abc") == \
            ref_histograms(result, "abc").encode()

    def test_edge_values(self, tmp_path):
        values = np.array(EDGE_VALUES)
        comp = SimpleNamespace(bin_edges=np.append(values, 2.0), empirical_mass=values[::-1],
                               theoretical_mass=-values)
        result = SimpleNamespace(comparisons=(comp, comp))
        assert written(tmp_path, _write_histograms, result, chash="abc") == \
            ref_histograms(result, "abc").encode()

    def test_zero_rows(self, tmp_path):
        result = SimpleNamespace(comparisons=())
        assert written(tmp_path, _write_histograms, result, chash="abc") == \
            b"# config_hash=abc\nframe,bin_left,bin_right,empirical,theoretical\n"

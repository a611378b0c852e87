"""Golden digests: every file of the seed-7 runs, byte for byte across commits.

`golden/seed7.sha256` holds the SHA-256 of each file that the runs in
`RUNS` write with seed 7, under a header naming the Python and numpy
versions that made it.  The test regenerates the files in process and
names every file whose digest differs.  A change that moves output bits
regenerates the manifest in the same commit (`PYTHONPATH=src python
tests/test_golden.py`) and says which files moved and why.
"""

from __future__ import annotations

import hashlib
import platform
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

from bohmlab import cli
from bohmlab.config import parse_config

from conftest import CONFIG_DIR

MANIFEST = Path(__file__).resolve().parent / "golden" / "seed7.sha256"
VERSIONS = f"# python {platform.python_version()} numpy {np.__version__}"


def _runs() -> dict:
    """Run name -> CLI arguments: the shipped configs, the ones that can
    dump frames again with --dump-frames, and the three no-go checks."""
    runs = {}
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        scenario = parse_config(path.read_text()).scenario
        argv = ["sim", scenario.replace("_", "-"), "--config", str(path), "--seed", "7"]
        runs[path.stem] = argv
        if cli.SCENARIOS[scenario][1]:
            runs[f"{path.stem}-dump-frames"] = [*argv, "--dump-frames"]
    for kind in ("mermin", "vonneumann", "chsh"):
        runs[f"nogo-{kind}"] = ["nogo", kind]
    return runs


RUNS = _runs()


def digests(out: Path, name: str) -> dict:
    """`name/<file>` -> SHA-256 of every file under `out`; deletes them."""
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        with open(path, "rb") as fh:
            found[f"{name}/{path.relative_to(out).as_posix()}"] = \
                hashlib.file_digest(fh, "sha256").hexdigest()
    shutil.rmtree(out)
    return found


def run_digests(name: str, argv: list, work: Path) -> dict:
    """Run one invocation into `work / name` and return its `digests`."""
    out = work / name
    assert cli.main([*argv, "--out", str(out), "--quiet"]) in (0, 1), name
    return digests(out, name)


def read_manifest() -> tuple[str, dict]:
    """The manifest's version header and its path -> SHA-256 entries."""
    header, entries = "", {}
    for line in MANIFEST.read_text().splitlines():
        if line.startswith("#"):
            header = header or line
        else:
            digest, path = line.split("  ", 1)
            entries[path] = digest
    return header, entries


def mismatch(header: str, expected: dict, actual: dict) -> str | None:
    """None if every digest matches; else a message naming each file whose
    digest differs or that only one side has, and both version headers
    if they differ."""
    moved = sorted(p for p in expected.keys() | actual.keys()
                   if expected.get(p) != actual.get(p))
    if not moved:
        return None
    versions = "" if header == VERSIONS else (
        f" (made with{header[1:]}; this run has{VERSIONS[1:]}: another numpy"
        " build may move FFT bits)")
    return f"{MANIFEST.name}{versions}: digests differ for " + ", ".join(moved)


def write_manifest(work: Path) -> int:
    found = {}
    for name, argv in RUNS.items():
        found.update(run_digests(name, argv, work))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(f"{VERSIONS}\n" + "".join(f"{d}  {p}\n" for p, d in sorted(found.items())))
    return len(found)


def test_seed7_outputs_match_the_golden_digests(tmp_path):
    header, expected = read_manifest()
    actual = {}
    for name, argv in RUNS.items():
        actual.update(run_digests(name, argv, tmp_path))
    message = mismatch(header, expected, actual)
    assert message is None, message
    if header != VERSIONS:
        warnings.warn(f"{MANIFEST.name} was made with{header[1:]}; this run has{VERSIONS[1:]},"
                      " and every digest matched")


def test_a_one_byte_change_is_named(tmp_path):
    _, expected = read_manifest()
    expected = {p: d for p, d in expected.items() if p.startswith("nogo-chsh/")}
    out = tmp_path / "nogo-chsh"
    assert cli.main(["nogo", "chsh", "--out", str(out), "--quiet"]) == 0
    report = out / "report.txt"
    data = bytearray(report.read_bytes())
    data[len(data) // 2] ^= 1
    report.write_bytes(bytes(data))
    assert mismatch(VERSIONS, expected, digests(out, "nogo-chsh")) == \
        f"{MANIFEST.name}: digests differ for nogo-chsh/report.txt"


def test_a_mismatch_on_another_numpy_names_both_versions():
    message = mismatch("# python 3.0.0 numpy 0.0.1", {"a/x.csv": "0"}, {"a/x.csv": "1"})
    assert "numpy 0.0.1" in message and VERSIONS[2:] in message and message.endswith("a/x.csv")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as work:
        print(f"{write_manifest(Path(work))} digests written to {MANIFEST}", file=sys.stderr)

"""Command-line entry point.

Subcommands:

    bohmlab nogo mermin|vonneumann|chsh
    bohmlab sim stern-gerlach|sequential|no-crossing|equilibrium|pointer

Common flags: --config PATH, --seed N, --out DIR, --trajectories N,
--quiet, --dump-frames.  Seed precedence: --seed beats the config file,
which beats the default 42.

Every run writes `report.txt` (human-readable, config echo + statistics
+ one PASS/FAIL line per declared check) and `report.json` (the same
content as structured text); trajectory scenarios add `ensemble.csv`,
the pointer scenario `trials.csv`, the equilibrium scenario
`histograms.csv`, and --dump-frames a `frames/` directory.  Each output
file begins with the config hash; nothing in a file depends on the
clock, so re-running a manifest reproduces every file byte for byte.
The exit status is 0 exactly when all declared checks pass.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

from . import experiments, nogo
from .config import (
    ConfigError,
    DEFAULT_SEED,
    NogoRequest,
    canonical_text,
    config_hash,
    default_config,
    parse_config,
    with_overrides,
)
from .conditional import write_trials
from .serialize import fmt, json_text, write_table
from .trajectories import write_ensemble
from .wavefield import write_frame

_SUBCOMMAND_SCENARIO = {
    "stern-gerlach": "stern_gerlach",
    "sequential": "sequential",
    "no-crossing": "no_crossing",
    "equilibrium": "equilibrium",
    "pointer": "pointer",
}


@dataclass(frozen=True)
class RunManifest:
    subcommand: str                  # e.g. "sim stern-gerlach", "nogo mermin"
    config_path: str | None
    seed_override: int | None
    out_dir: str
    trajectories_override: int | None = None
    quiet: bool = False
    dump_frames: bool = False


def _load_config(manifest: RunManifest):
    name = manifest.subcommand.split()[-1]
    if manifest.subcommand.startswith("nogo"):
        if manifest.config_path is not None:
            return parse_config(Path(manifest.config_path).read_text(), scenario=name)
        return NogoRequest(kind=name)
    scenario = _SUBCOMMAND_SCENARIO[name]
    if manifest.config_path is None:
        cfg = default_config(scenario)
    else:
        cfg = parse_config(Path(manifest.config_path).read_text(), scenario=scenario)
    return with_overrides(cfg, seed=manifest.seed_override,
                          n_trials=manifest.trajectories_override)


def _check_lines(checks) -> list[str]:
    return [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks]


def _stats_block(stats) -> tuple[list[str], dict]:
    lines = []
    for lab, c, f, p, h in zip(stats.outcome_labels, stats.counts, stats.frequencies,
                               stats.born_probabilities, stats.three_sigma_halfwidths):
        lines.append(f"outcome {lab}: count={c} frequency={fmt(f)} born={fmt(p)} "
                     f"three_sigma={fmt(h)}")
    lines.append(f"expectation_value = {fmt(stats.expectation_value)}")
    data = {
        "outcome_labels": list(stats.outcome_labels),
        "counts": list(stats.counts),
        "frequencies": list(stats.frequencies),
        "born_probabilities": list(stats.born_probabilities),
        "three_sigma_halfwidths": list(stats.three_sigma_halfwidths),
        "expectation_value": stats.expectation_value,
    }
    return lines, data


def _run_nogo(kind: str):
    checks = []
    text = []
    data = {}
    if kind == "mermin":
        square = nogo.build_mermin_square()
        identities = nogo.verify_square_identities(square)
        worst = max(c.residual for c in identities)
        all_ok = all(c.passed for c in identities)
        report = nogo.search_noncontextual_assignment(square, nogo.mermin_constraints())
        text.append(f"18 commutators + 6 product identities, worst residual {worst:.3e}")
        text.append(f"consistent assignments: {report.satisfying_assignments} "
                    f"of {report.total_assignments}")
        checks.append(experiments.Check("square_identities", all_ok,
                                        f"worst residual {worst:.3e}"))
        checks.append(experiments.Check(
            "no_consistent_assignment", report.satisfying_assignments == 0,
            f"{report.satisfying_assignments}/{report.total_assignments} satisfy the six sign constraints"))
        data = {"identities": [{"constraint": c.constraint, "passed": c.passed,
                                "residual": c.residual} for c in identities],
                "total_assignments": report.total_assignments,
                "satisfying_assignments": report.satisfying_assignments}
    elif kind == "vonneumann":
        report = nogo.von_neumann_counterexample()
        text.append(f"eigenvalues of the sum: {[fmt(v) for v in report.sum_eigenvalues]}")
        text.append(f"sums of individual eigenvalues: {[fmt(v) for v in report.individual_sums]}")
        text.append(f"minimum gap between the sets: {fmt(report.min_gap)}")
        expected = 2.0 - 2.0**0.5
        checks.append(experiments.Check(
            "spectrum_not_additive", abs(report.min_gap - expected) < 1e-12,
            f"min gap {fmt(report.min_gap)} (2 - sqrt(2) = {fmt(expected)})"))
        data = {"sum_eigenvalues": list(report.sum_eigenvalues),
                "individual_sums": list(report.individual_sums),
                "min_gap": report.min_gap}
    elif kind == "chsh":
        local = nogo.chsh_local_bound()
        quantum = nogo.chsh_quantum_value()
        text.append(f"local deterministic maximum S = {fmt(local.max_S)} "
                    f"({local.optimal_strategy_count} of 16 strategies attain it)")
        text.append(f"quantum operator value = {fmt(quantum)} (2*sqrt(2) = {fmt(2 * 2**0.5)})")
        checks.append(experiments.Check("local_bound_is_two", local.max_S == 2.0,
                                        f"max S = {fmt(local.max_S)}"))
        checks.append(experiments.Check("quantum_value", abs(quantum - 2 * 2**0.5) < 1e-9,
                                        f"{fmt(quantum)}"))
        checks.append(experiments.Check("quantum_exceeds_local", local.max_S < quantum,
                                        f"{fmt(local.max_S)} < {fmt(quantum)}"))
        data = {"local_max_S": local.max_S,
                "optimal_strategy_count": local.optimal_strategy_count,
                "quantum_value": quantum}
    else:
        raise ConfigError(f"unknown nogo check {kind!r}")
    return text, data, checks


def _run_sim(cfg, manifest: RunManifest, out: Path, chash: str):
    text = []
    data = {}
    if cfg.scenario == "stern_gerlach":
        result = experiments.stern_gerlach(cfg)
        lines, stats = _stats_block(result.statistics)
        text += [f"detection time = {fmt(result.detection_time)}"] + lines
        data = {"detection_time": result.detection_time, "statistics": stats}
        write_ensemble(result.ensemble, out / "ensemble.csv", config_hash=chash)
        if manifest.dump_frames:
            _write_frames(result.frames, out / "frames")
        checks = result.checks
    elif cfg.scenario == "sequential":
        result = experiments.sequential(cfg)
        data = {"stages": []}
        for i, st in enumerate(result.stage_statistics):
            lines, stats = _stats_block(st)
            text.append(f"stage {i + 1} (axis {result.axes[i]}):")
            text += ["  " + ln for ln in lines]
            data["stages"].append({"axis": result.axes[i], "statistics": stats})
        checks = result.checks
    elif cfg.scenario == "no_crossing":
        result = experiments.no_crossing_check(cfg)
        lines, stats = _stats_block(result.statistics)
        text += [f"ordering violations = {result.crossing_report.violations}",
                 f"side inference accuracy = {fmt(result.inference_accuracy)}"] + lines
        data = {"violations": result.crossing_report.violations,
                "inference_accuracy": result.inference_accuracy,
                "statistics": stats}
        write_ensemble(result.ensemble, out / "ensemble.csv", config_hash=chash)
        checks = result.checks
    elif cfg.scenario == "equilibrium":
        result = experiments.equilibrium_experiment(cfg)
        tvs = [c.total_variation for c in result.comparisons]
        text.append(f"total variation per frame (n={len(tvs)}): "
                    f"max {fmt(max(tvs))}, first {fmt(tvs[0])}, last {fmt(tvs[-1])}")
        data = {"total_variation": tvs}
        write_ensemble(result.ensemble, out / "ensemble.csv", config_hash=chash)
        _write_histograms(result, out / "histograms.csv", chash)
        if manifest.dump_frames:
            _write_frames(result.frames, out / "frames")
        checks = result.checks
    elif cfg.scenario == "pointer":
        result = experiments.pointer_experiment(cfg)
        lines, stats = _stats_block(result.statistics)
        text += [f"minimum collapse purity = {fmt(result.measurement.min_purity)}"] + lines
        data = {"min_purity": result.measurement.min_purity, "statistics": stats}
        write_trials(result.measurement, out / "trials.csv", config_hash=chash)
        checks = result.checks
    else:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")
    return text, data, checks


def _write_frames(frames, frame_dir: Path) -> None:
    frame_dir.mkdir(exist_ok=True)
    for i, frame in enumerate(frames):
        write_frame(frame, frame_dir / f"frame_{i:04d}.txt")


def _write_histograms(result, path, chash: str) -> None:
    rows = (row for i, comp in enumerate(result.comparisons)
            for row in zip(repeat(i), comp.bin_edges[:-1].tolist(), comp.bin_edges[1:].tolist(),
                           comp.empirical_mass.tolist(), comp.theoretical_mass.tolist()))
    write_table(path, [f"# config_hash={chash}", "frame,bin_left,bin_right,empirical,theoretical"],
                "{},{:.17g},{:.17g},{:.17g},{:.17g}", rows)


def dispatch(manifest: RunManifest) -> int:
    """Run the manifest, write its reports, and return the exit status."""
    try:
        cfg = _load_config(manifest)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    chash = config_hash(cfg)
    try:
        out = Path(manifest.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory not usable: {exc}", file=sys.stderr)
        return 2

    try:
        if isinstance(cfg, NogoRequest):
            text, data, checks = _run_nogo(cfg.kind)
        else:
            text, data, checks = _run_sim(cfg, manifest, out, chash)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    status = 0 if all(c.passed for c in checks) else 1
    echo = canonical_text(cfg).rstrip("\n")
    report_lines = (
        [f"config_hash: {chash}", f"subcommand: {manifest.subcommand}", "", "-- config --",
         echo, "", "-- results --"] + text + ["", "-- checks --"] + _check_lines(checks)
        + ["", f"exit: {status}"]
    )
    (out / "report.txt").write_text("\n".join(report_lines) + "\n")

    json_report = {
        "config_hash": chash,
        "subcommand": manifest.subcommand,
        "config": {line.split(" = ")[0]: line.split(" = ", 1)[1]
                   for line in echo.splitlines()},
        "results": data,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        "exit_status": status,
    }
    (out / "report.json").write_text(json_text(json_report) + "\n")

    if not manifest.quiet:
        for line in report_lines:
            print(line)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohmlab",
        description="Pilot-wave dynamics laboratory: deflection experiments, "
                    "equilibrium statistics, pointer measurements and "
                    "no-hidden-variables checks.")
    sub = parser.add_subparsers(dest="group", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default="bohmlab-out", help="output directory")
        p.add_argument("--trajectories", type=int, default=None,
                       help="override the number of trajectories/trials")
        p.add_argument("--quiet", action="store_true")
        p.add_argument("--dump-frames", action="store_true",
                       help="also write wave-function frames")

    nogo_p = sub.add_parser("nogo", help="no-hidden-variables checks")
    nogo_sub = nogo_p.add_subparsers(dest="check", required=True)
    for name in ("mermin", "vonneumann", "chsh"):
        add_common(nogo_sub.add_parser(name))

    sim_p = sub.add_parser("sim", help="simulation scenarios")
    sim_sub = sim_p.add_subparsers(dest="scenario", required=True)
    for name in _SUBCOMMAND_SCENARIO:
        add_common(sim_sub.add_parser(name))
    return parser


def manifest_from_args(args) -> RunManifest:
    name = args.check if args.group == "nogo" else args.scenario
    return RunManifest(subcommand=f"{args.group} {name}",
                       config_path=args.config,
                       seed_override=args.seed,
                       out_dir=args.out,
                       trajectories_override=args.trajectories,
                       quiet=args.quiet,
                       dump_frames=args.dump_frames)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return dispatch(manifest_from_args(args))


if __name__ == "__main__":
    sys.exit(main())

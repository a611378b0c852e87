import argparse
import json
import os
import subprocess
import sys

import pytest

from bohmlab import cli, experiments
from bohmlab.config import (
    NOGO_SCENARIOS,
    SIM_SCENARIOS,
    ConfigError,
    NogoRequest,
    canonical_text,
    config_hash,
    default_config,
    parse_config,
)

from conftest import CONFIG_DIR

ROOT = CONFIG_DIR.parent


def manifest(subcommand, out, **kw):
    return cli.RunManifest(subcommand=subcommand, config_path=kw.pop("config_path", None),
                           seed_override=kw.pop("seed", None), out_dir=str(out), **kw)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config("spin.alpha = 0.6\nspin.beta = 0.8\n", scenario="stern_gerlach")
        assert cfg.seed == 42
        assert cfg.grid_n_points == 512
        echo = canonical_text(cfg)
        assert "magnet.mu_b = 5" in echo
        assert "spin.alpha = 0.59999999999999998+0j" in echo

    def test_normalization_violation_names_invariant(self):
        with pytest.raises(ConfigError, match="spin normalization invariant"):
            parse_config("spin.alpha = 0.9\nspin.beta = 0.6\n", scenario="stern_gerlach")

    def test_duplicate_key_fatal(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("seed = 1\nseed = 2\n", scenario="stern_gerlach")

    def test_unknown_key_suggests(self):
        with pytest.raises(ConfigError, match="did you mean 'magnet.mu_b'"):
            parse_config("magnet.mub = 5\n", scenario="stern_gerlach")

    def test_scenario_mismatch(self):
        with pytest.raises(ConfigError, match="subcommand selects"):
            parse_config("scenario = pointer\n", scenario="stern_gerlach")

    def test_nogo_request(self):
        req = parse_config("scenario = mermin\n")
        assert req == NogoRequest(kind="mermin")

    def test_hash_tracks_semantic_changes(self):
        a = default_config("stern_gerlach")
        b = default_config("stern_gerlach", seed=43)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(default_config("stern_gerlach"))

    def test_shipped_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            parse_config(path.read_text())


class TestDispatch:
    def test_nogo_mermin(self, tmp_path, capsys):
        status = cli.dispatch(manifest("nogo mermin", tmp_path / "out", quiet=True))
        assert status == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["satisfying_assignments"] == 0
        assert report["results"]["total_assignments"] == 512
        text = (tmp_path / "out" / "report.txt").read_text()
        assert text.startswith("config_hash: ")
        assert "PASS no_consistent_assignment" in text

    @pytest.mark.parametrize("check", ["vonneumann", "chsh"])
    def test_other_nogo_checks_pass(self, tmp_path, check):
        assert cli.dispatch(manifest(f"nogo {check}", tmp_path / check, quiet=True)) == 0

    def test_report_json_keeps_float_type(self, tmp_path):
        assert cli.dispatch(manifest("nogo chsh", tmp_path, quiet=True)) == 0
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert type(results["local_max_S"]) is float and results["local_max_S"] == 2.0
        assert type(results["optimal_strategy_count"]) is int
        assert "local_max_S = 2\n" in (tmp_path / "report.txt").read_text()

    def test_stern_gerlach_run(self, tmp_path):
        m = manifest("sim stern-gerlach", tmp_path / "sg", quiet=True,
                     config_path=str(CONFIG_DIR / "stern_gerlach.cfg"))
        assert cli.dispatch(m) == 0
        out = tmp_path / "sg"
        report = json.loads((out / "report.json").read_text())
        assert all(c["passed"] for c in report["checks"])
        ensemble = (out / "ensemble.csv").read_text().splitlines()
        assert ensemble[0].startswith("# config_hash=")
        assert report["config_hash"] in ensemble[0]

    def test_seed_override_changes_hash(self, tmp_path):
        base = manifest("sim pointer", tmp_path / "a", quiet=True,
                        config_path=str(CONFIG_DIR / "pointer.cfg"),
                        trajectories_override=500)
        assert cli.dispatch(base) == 0
        reseeded = manifest("sim pointer", tmp_path / "b", quiet=True,
                            config_path=str(CONFIG_DIR / "pointer.cfg"),
                            trajectories_override=500, seed=7)
        assert cli.dispatch(reseeded) == 0
        ja = json.loads((tmp_path / "a" / "report.json").read_text())
        jb = json.loads((tmp_path / "b" / "report.json").read_text())
        assert ja["config"]["seed"] == "42"
        assert jb["config"]["seed"] == "7"
        assert ja["config_hash"] != jb["config_hash"]

    def test_rerun_is_byte_identical(self, tmp_path):
        for out in ("one", "two"):
            m = manifest("sim stern-gerlach", tmp_path / out, quiet=True,
                         config_path=str(CONFIG_DIR / "stern_gerlach.cfg"),
                         trajectories_override=300)
            assert cli.dispatch(m) == 0
        for name in ("report.txt", "report.json", "ensemble.csv"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, name

    def test_dump_frames(self, tmp_path):
        m = manifest("sim stern-gerlach", tmp_path / "sg", quiet=True,
                     config_path=str(CONFIG_DIR / "stern_gerlach.cfg"),
                     trajectories_override=100, dump_frames=True)
        assert cli.dispatch(m) == 0
        frames = sorted((tmp_path / "sg" / "frames").glob("frame_*.txt"))
        assert len(frames) == 33            # initial frame + 32 saved frames

    def test_unusable_out_dir_fails(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        m = manifest("nogo mermin", blocker / "nested", quiet=True)
        assert cli.dispatch(m) != 0

    def test_bad_config_fails(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("spin.alpha = 1.0\nspin.beta = 1.0\n")
        m = manifest("sim stern-gerlach", tmp_path / "out", quiet=True,
                     config_path=str(bad))
        assert cli.dispatch(m) == 2

    def test_harmonic_grid_above_the_eigenbasis_limit_fails(self, tmp_path, capsys):
        big = tmp_path / "big.cfg"
        big.write_text((CONFIG_DIR / "equilibrium_harmonic.cfg").read_text()
                       .replace("grid.n_points = 256", "grid.n_points = 4096"))
        status = cli.main(["sim", "equilibrium", "--config", str(big),
                           "--out", str(tmp_path / "out"), "--quiet"])
        assert status == 2
        assert "2048" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["sim mermin", "sim stern_gerlach",
                                            "nogo stern-gerlach", "nogo bogus"])
    def test_subcommand_outside_the_table_fails(self, tmp_path, capsys, subcommand):
        assert cli.dispatch(manifest(subcommand, tmp_path / "out", quiet=True)) == 2
        assert capsys.readouterr().err.startswith("error: unknown subcommand")
        assert not (tmp_path / "out").exists()


def subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def group_of(scenario):
    return "nogo" if scenario in NOGO_SCENARIOS else "sim"


class TestScenarioTable:
    def test_table_and_parser_cover_every_scenario(self):
        assert list(cli.SCENARIOS) == list(SIM_SCENARIOS + NOGO_SCENARIOS)
        groups = subcommands(cli.build_parser())
        assert list(groups) == ["nogo", "sim"]
        for group, names in (("nogo", NOGO_SCENARIOS), ("sim", SIM_SCENARIOS)):
            assert list(subcommands(groups[group])) == [n.replace("_", "-") for n in names]

    def test_result_lines(self):
        tree = {"a": 1, "b": {"c": [0.5, float("nan"), -2], "d": "up"},
                "e": [{"f": True}, {"f": False, "g": 0.1}]}
        assert list(cli._result_lines(tree)) == [
            "a = 1", "b.c = 0.5 nan -2", "b.d = up",
            "e.0.f = true", "e.1.f = false", "e.1.g = 0.10000000000000001"]

    @pytest.mark.parametrize("scenario", list(cli.SCENARIOS))
    def test_report_txt_results_render_report_json(self, tmp_path, scenario):
        status = cli.main([group_of(scenario), scenario.replace("_", "-"),
                           "--trajectories", "200", "--out", str(tmp_path), "--quiet"])
        assert status in (0, 1)
        report = json.loads((tmp_path / "report.json").read_text())
        lines = (tmp_path / "report.txt").read_text().splitlines()
        results = lines[lines.index("-- results --") + 1:lines.index("-- checks --") - 1]
        assert results == list(cli._result_lines(report["results"]))
        assert results

    def test_runners_enter_the_traced_boundaries(self, tmp_path, monkeypatch):
        calls = []

        def recorder(module, name):
            fn = getattr(module, name)

            def recorded(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, recorded)

        recorder(cli, "write_ensemble")
        recorder(experiments, "no_crossing_check")
        status = cli.main(["sim", "no-crossing", "--trajectories", "100",
                           "--out", str(tmp_path), "--quiet"])
        assert status in (0, 1)
        assert calls == ["no_crossing_check", "write_ensemble"]


class TestMain:
    def test_argv_round_trip(self, tmp_path):
        status = cli.main(["nogo", "vonneumann", "--out", str(tmp_path / "vn"), "--quiet"])
        assert status == 0
        assert (tmp_path / "vn" / "report.json").exists()

    def test_sim_equilibrium_small(self, tmp_path):
        status = cli.main(["sim", "equilibrium", "--config",
                           str(CONFIG_DIR / "equilibrium_free.cfg"),
                           "--trajectories", "2000",
                           "--out", str(tmp_path / "eq"), "--quiet"])
        assert status == 0
        hist = (tmp_path / "eq" / "histograms.csv").read_text().splitlines()
        assert hist[0].startswith("# config_hash=")
        assert hist[1] == "frame,bin_left,bin_right,empirical,theoretical"


def test_every_package_export_resolves():
    import bohmlab
    assert [name for name in bohmlab.__all__ if not hasattr(bohmlab, name)] == []


def test_deflection_run_imports_no_process_pool(tmp_path):
    # workers start only for ensembles of 2**18 values or more; a small
    # run must not pay for importing them (set-up time, peak RSS)
    code = ("import sys\n"
            "import bohmlab.cli\n"
            "status = bohmlab.cli.main(['sim', 'stern-gerlach', '--trajectories', '200',\n"
            f"                           '--out', {str(tmp_path)!r}, '--quiet'])\n"
            "assert status in (0, 1), status\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
            " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "ensemble.csv").exists()

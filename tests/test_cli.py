import argparse
import gc
import hashlib
import json
import math
import operator
import os
import re
import subprocess
import sys
import types

import pytest

import numpy as np

from bohmlab import cli, experiments, rng
from bohmlab.config import (
    NOGO_SCENARIOS,
    SCENARIO_KEYS,
    ConfigError,
    ExperimentConfig,
    canonical_text,
    config_hash,
    default_config,
    parse_config,
    with_overrides,
)

from bohmlab.conditional import CouplingSpec, run_pointer_measurement
from bohmlab.serialize import fmt
from bohmlab.trajectories import Ensemble, NoCrossingReport, sample_positions
from bohmlab.wavefield import Grid1D, SpinorField, gaussian_packet

from conftest import CONFIG_DIR, shipped_config

ROOT = CONFIG_DIR.parent
SIM_SCENARIOS = tuple(s for s, keys in SCENARIO_KEYS.items() if keys)


def run(*argv, out):
    return cli.main([*argv, "--out", str(out), "--quiet"])


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

    @pytest.mark.parametrize("key,scenario,hint", [
        ("magnet.mub", "pointer", None), ("spin.alfa", "chsh", None),
        ("pointer.shfit", "pointer", "pointer.shift")])
    def test_unknown_key_hint_is_a_key_of_its_scenario(self, key, scenario, hint):
        # a key of another scenario would be rejected in turn
        with pytest.raises(ConfigError, match=f"unknown key '{key}'") as error:
            parse_config(f"{key} = 5\n", scenario=scenario)
        assert ("did you mean" in str(error.value)) == (hint is not None)
        if hint is not None:
            assert str(error.value).endswith(f"did you mean {hint!r}?")

    def test_scenario_mismatch(self):
        with pytest.raises(ConfigError, match="subcommand selects"):
            parse_config("scenario = pointer\n", scenario="stern_gerlach")

    def test_nogo_request(self):
        req = parse_config("scenario = mermin\n")
        assert type(req) is ExperimentConfig and req == default_config("mermin")
        assert canonical_text(req) == "scenario = mermin\n"

    def test_key_the_scenario_does_not_read_is_fatal(self):
        message = "key 'magnet.mu_b' is not read by scenario 'pointer'"
        with pytest.raises(ConfigError, match=message):
            parse_config("magnet.mu_b = 7.0\n", scenario="pointer")
        with pytest.raises(ConfigError, match=message):
            default_config("pointer", magnet_mu_b=7.0)

    def test_a_uniform_start_may_reach_the_grid_edges(self):
        # `integrate` keeps a start on either edge of [-grid.x_max, grid.x_max]
        cfg = parse_config("init.kind = uniform\ninit.a = -16\ninit.b = 16\n",
                           scenario="equilibrium")
        assert (cfg.init_a, cfg.init_b) == (-cfg.grid_x_max, cfg.grid_x_max)

    def test_an_edited_config_is_validated(self):
        # `_replace` applies the rules of a config file: a weak magnet is
        # named here, not met as a bare ValueError inside detection_time
        with pytest.raises(ConfigError, match="^magnet.mu_b too weak"):
            default_config("stern_gerlach")._replace(magnet_mu_b=1.0)
        with pytest.raises(ConfigError, match="^grid.x_max must be positive$"):
            default_config("pointer")._replace(grid_x_max=0.0)

    def test_a_packet_beyond_the_grids_band_is_rejected(self):
        # a wavenumber beyond k_max wraps to the other side of the band:
        # on [-20, 20) with 256 points, k_max = 20.1, and a kick of 17
        # leaves 2.6e-10 of the momentum density beyond it, one of 18 1.3e-5
        base = {"grid_n_points": 256, "flight_time": 0.6}
        default_config("stern_gerlach", magnet_mu_b=17.0, **base)
        with pytest.raises(ConfigError, match="^magnet.mu_b: the kicked packet's momentum"):
            default_config("stern_gerlach", magnet_mu_b=18.0, **base)
        with pytest.raises(ConfigError, match="^packet.momentum, packet.width: "):
            default_config("equilibrium", packet_momentum=60.0, packet_center=0.0)

    def test_an_edit_of_a_key_the_scenario_does_not_read_is_fatal(self):
        # a deflection's packet has width 1: a wider one would be ignored,
        # and the config hash would not change
        for scenario, fields, key in (("stern_gerlach", {"packet_width": 4.0}, "packet.width"),
                                      ("chsh", {"seed": 5}, "seed")):
            with pytest.raises(ConfigError, match=f"^key {key!r} is not read by "
                                                  f"scenario {scenario!r}$"):
                default_config(scenario)._replace(**fields)
        # at its default, such a field is no edit
        cfg = default_config("stern_gerlach")
        assert cfg._replace(packet_width=1.0) == cfg

    @pytest.mark.parametrize("value", ["inf", "nan", "0.6+infj", "0.6-nanj", "-inf-0.8j",
                                       "nan+nanj"])
    def test_a_complex_value_must_be_finite_in_either_part(self, value):
        with pytest.raises(ConfigError, match=r"^key 'spin.alpha': cannot parse .*"
                                              r"\(value must be finite\)$"):
            parse_config(f"spin.alpha = {value}\n", scenario="stern_gerlach")

    def test_hash_tracks_semantic_changes(self):
        a = default_config("stern_gerlach")
        b = default_config("stern_gerlach", seed=43)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(default_config("stern_gerlach"))

    @pytest.mark.parametrize("fallback", [False, "_sha2", True])
    def test_hash_is_the_sha256_of_the_canonical_text(self, monkeypatch, fallback):
        # False: by this interpreter's `_sha256` (`_sha2` from Python 3.12
        # on), never `hashlib`; "_sha2": by `_sha2` where `_sha256` is
        # absent; True: by `hashlib` where both are absent
        calls, sha256 = [], hashlib.sha256

        def spy(name):
            return lambda data: calls.append(name) or sha256(data)
        monkeypatch.setattr(hashlib, "sha256", spy("hashlib"))
        if fallback:
            monkeypatch.setitem(sys.modules, "_sha256", None)
            only_sha2 = types.SimpleNamespace(sha256=spy("_sha2"))
            monkeypatch.setitem(sys.modules, "_sha2", None if fallback is True else only_sha2)
        configs = [parse_config(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.cfg"))]
        configs += [default_config(scenario) for scenario in NOGO_SCENARIOS]
        for cfg in configs:
            assert config_hash(cfg) == sha256(canonical_text(cfg).encode()).hexdigest()
        served = {False: [], "_sha2": ["_sha2"], True: ["hashlib"]}[fallback]
        assert calls == served * len(configs)

    @pytest.mark.parametrize("key,library_call", [
        ("n_trials", lambda: sample_positions(
            gaussian_packet(Grid1D(-10.0, 10.0, 256), 0.0, 1.0, 0.0, 1, 0), 0, 1)),
        ("n_trials", lambda: run_pointer_measurement(1, 0, CouplingSpec(10.0), 0, 1,
                                                     Grid1D(-24.0, 24.0, 256))),
    ])
    def test_a_count_is_checked_by_the_library_rule_under_its_key(self, key, library_call):
        with pytest.raises(ValueError) as library:
            library_call()
        with pytest.raises(ConfigError) as config:
            parse_config(f"{key} = 0\n", scenario="stern_gerlach")
        assert str(config.value) == f"{key}: {library.value}"

    def test_shipped_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            parse_config(path.read_text())


class TestDispatch:
    def test_nogo_mermin(self, tmp_path, capsys):
        status = run("nogo", "mermin", out=tmp_path / "out")
        assert status == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["satisfying_assignments"] == 0
        assert report["results"]["total_assignments"] == 512
        text = (tmp_path / "out" / "report.txt").read_text()
        assert text.startswith("config_hash: ")
        assert "PASS no_consistent_assignment" in text

    @pytest.mark.parametrize("check", ["vonneumann", "chsh"])
    def test_other_nogo_checks_pass(self, tmp_path, check):
        assert run("nogo", check, out=tmp_path / check) == 0

    def test_report_json_keeps_float_type(self, tmp_path):
        assert run("nogo", "chsh", out=tmp_path) == 0
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert type(results["local_max_S"]) is float and results["local_max_S"] == 2.0
        assert type(results["optimal_strategy_count"]) is int
        assert "local_max_S = 2\n" in (tmp_path / "report.txt").read_text()

    def test_stern_gerlach_run(self, tmp_path):
        assert run("sim", "stern-gerlach", "--config", str(CONFIG_DIR / "stern_gerlach.cfg"),
                   out=tmp_path / "sg") == 0
        out = tmp_path / "sg"
        report = json.loads((out / "report.json").read_text())
        assert all(c["passed"] for c in report["checks"])
        ensemble = (out / "ensemble.csv").read_text().splitlines()
        assert ensemble[0].startswith("# config_hash=")
        assert report["config_hash"] in ensemble[0]

    def test_seed_override_changes_hash(self, tmp_path):
        base = ["sim", "pointer", "--config", str(CONFIG_DIR / "pointer.cfg"),
                "--trajectories", "500"]
        assert run(*base, out=tmp_path / "a") == 0
        assert run(*base, "--seed", "7", out=tmp_path / "b") == 0
        ja = json.loads((tmp_path / "a" / "report.json").read_text())
        jb = json.loads((tmp_path / "b" / "report.json").read_text())
        assert ja["config"]["seed"] == "42"
        assert jb["config"]["seed"] == "7"
        assert ja["config_hash"] != jb["config_hash"]

    def test_rerun_is_byte_identical(self, tmp_path):
        for out in ("one", "two"):
            assert run("sim", "stern-gerlach", "--config", str(CONFIG_DIR / "stern_gerlach.cfg"),
                       "--trajectories", "300", out=tmp_path / out) == 0
        for name in ("report.txt", "report.json", "ensemble.csv"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, name

    def test_dump_frames(self, tmp_path):
        assert run("sim", "stern-gerlach", "--config", str(CONFIG_DIR / "stern_gerlach.cfg"),
                   "--trajectories", "100", "--dump-frames", out=tmp_path / "sg") == 0
        frames = sorted((tmp_path / "sg" / "frames").glob("frame_*.txt"))
        assert len(frames) == 33            # initial frame + 32 saved frames

    def test_unusable_out_dir_fails(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run("nogo", "mermin", out=blocker / "nested") != 0

    @pytest.mark.parametrize("argv,blocker,make", [
        (["sim", "stern-gerlach", "--trajectories", "100", "--dump-frames"], "frames",
         lambda p: p.write_text("")),
        (["sim", "pointer", "--trajectories", "100"], "trials.csv", lambda p: p.mkdir()),
        (["nogo", "chsh"], "report.txt", lambda p: p.mkdir()),
        (["sim", "pointer", "--trajectories", "100"], "report.json", lambda p: p.mkdir()),
    ], ids=["frames-is-a-file", "trials-is-a-directory", "report-is-a-directory",
            "report-fails-before-the-run"])
    def test_unwritable_output_path_fails_cleanly(self, tmp_path, capsys, argv, blocker, make):
        out = tmp_path / "out"
        out.mkdir()
        make(out / blocker)
        assert cli.main([*argv, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(out / blocker) in err[0]
        if blocker.startswith("report"):
            assert not (out / "trials.csv").exists()     # the run never started

    def test_bad_config_fails(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("spin.alpha = 1.0\nspin.beta = 1.0\n")
        assert run("sim", "stern-gerlach", "--config", str(bad), out=tmp_path / "out") == 2

    def test_harmonic_grid_of_4096_points_runs(self, tmp_path):
        # no V != 0 grid-size cap: the well propagates by FFT like V = 0
        big = tmp_path / "big.cfg"
        big.write_text((CONFIG_DIR / "equilibrium_harmonic.cfg").read_text()
                       .replace("grid.n_points = 256", "grid.n_points = 4096"))
        status = cli.main(["sim", "equilibrium", "--config", str(big), "--trajectories", "2000",
                           "--out", str(tmp_path / "out"), "--quiet"])
        assert status in (0, 1)
        assert (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("line", ["grid.n_points = 1000", "grid.x_max = -30",
                                      # the fixed deflected packet off the grid
                                      "grid.x_max = 4",
                                      # magnet.tau is an unknown key: mu_b is the kick
                                      "magnet.mu_b = -1", "magnet.tau = 0",
                                      "potential.kind = bogus",
                                      # rules of the packet and of an auto flight time,
                                      # which the run would meet only once it started
                                      "spin.beta = 0.5", "packet.width = 0",
                                      "packet.center = 17", "magnet.mu_b = 0.5",
                                      # under sim pointer: no grid, and one too small
                                      # for the pointer's packet
                                      "grid.x_max = -4", "grid.x_max = 4.5",
                                      # momentum beyond the grid's band: the kick
                                      # would wrap, and the pointer's packet too
                                      "grid.n_points = 256\nflight_time = 0.6\n"
                                      "magnet.mu_b = 30",
                                      "grid.x_max = 200\ngrid.n_points = 256",
                                      # non-finite values, rejected while parsing
                                      "duration = inf", "flight_time = inf", "spin.alpha = nan",
                                      # a run needs time to pass
                                      "duration = 0", "duration = -1",
                                      # seeds are taken modulo 2**64
                                      "seed = -1", "seed = 18446744073709551616",
                                      # counts, by the rules the library states
                                      "n_trials = 0",
                                      # keys no scenario reads: unknown ones
                                      "potential.kind = harmonic\npotential.omega = 0",
                                      "potential.kind = harmonic\npotential.center = inf",
                                      "potential.kind = harmonic\npotential.omega = inf",
                                      "substeps_per_frame = 0"])
    def test_rejected_constructor_value_fails_cleanly(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        key = line.splitlines()[-1].split("=")[0].strip()
        # duration, potential.kind (the first key) and the packet's keys are
        # equilibrium keys; a deflection's packet and the pointer's are fixed,
        # so the grid is at fault when the packet does not fit
        if line.split("=")[0].strip() in ("duration", "potential.kind", "packet.center",
                                          "packet.width"):
            subcommand = "equilibrium"
        elif line in ("grid.x_max = -4", "grid.x_max = 4.5",
                      "grid.x_max = 200\ngrid.n_points = 256"):
            subcommand = "pointer"
        else:
            subcommand = "stern-gerlach"
        status = cli.main(["sim", subcommand, "--config", str(bad),
                           "--out", str(tmp_path / "out"), "--quiet"])
        assert status == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert key in err[0] and "not read" not in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario,key", [
        # the deflection potential, the RK4 substeps, the well's frequency
        # and centre, a deflection's start and width, an equilibrium spinor
        # and the grid's lower edge: 31 settable values that change no run
        # but by a translation or a rescaling
        *((s, k) for s in ("stern_gerlach", "sequential", "no_crossing")
          for k in ("potential.kind", "potential.omega", "potential.center",
                    "substeps_per_frame", "packet.center", "packet.momentum",
                    "packet.width", "grid.x_min")),
        *(("equilibrium", k) for k in ("potential.omega", "potential.center",
                                       "substeps_per_frame", "spin.alpha", "spin.beta",
                                       "grid.x_min")),
        ("pointer", "grid.x_min")])
    def test_a_removed_key_fails_cleanly(self, tmp_path, capsys, scenario, key):
        cfg = tmp_path / "removed.cfg"
        cfg.write_text(f"scenario = {scenario}\n{key} = 1\n")
        assert run("sim", scenario.replace("_", "-"), "--config", str(cfg),
                   out=tmp_path / "out") == 2
        (err,) = capsys.readouterr().err.splitlines()
        # a key another scenario reads is named as one this scenario does not
        assert err.startswith(f"error: key {key!r} is not read by scenario {scenario!r}"
                              if any(key in keys for keys in SCENARIO_KEYS.values())
                              else f"error: unknown key {key!r} for scenario {scenario!r}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bounds", [(-30, 30), (-16.5, 0), (0, 16.5), (1, 1)])
    def test_a_uniform_start_off_the_grid_fails_cleanly(self, tmp_path, capsys, bounds):
        # starts outside [-grid.x_max, grid.x_max] = [-16, 16] would abort at
        # frame 0; an empty interval has no start
        cfg = tmp_path / "uniform.cfg"
        cfg.write_text("init.kind = uniform\ninit.a = {}\ninit.b = {}\n".format(*bounds))
        assert run("sim", "equilibrium", "--config", str(cfg), "--trajectories", "2000",
                   out=tmp_path / "out") == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == ("error: init.a, init.b: a uniform start needs "
                       "-grid.x_max <= init.a < init.b <= grid.x_max")
        assert not (tmp_path / "out").exists()

    def test_seed_override_outside_64_bits_fails_cleanly(self, tmp_path, capsys):
        status = cli.main(["sim", "pointer", "--seed", "-1", "--out", str(tmp_path / "out"),
                           "--quiet"])
        assert status == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]
        assert not (tmp_path / "out").exists()

    def test_nogo_config_naming_its_check_matches_the_plain_run(self, tmp_path):
        cfg = tmp_path / "chsh.cfg"
        cfg.write_text("scenario = chsh\n")
        assert run("nogo", "chsh", "--config", str(cfg), out=tmp_path / "file") == 0
        assert run("nogo", "chsh", out=tmp_path / "plain") == 0
        for name in ("report.txt", "report.json"):
            assert ((tmp_path / "file" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes()), name

    @pytest.mark.parametrize("text,message", [
        ("scenario = chsh\nspin.alpha = 0.6\n", "key 'spin.alpha' is not read by scenario 'chsh'"),
        ("scenario = mermin\n", "subcommand selects"),
        ("scenario = chsh\nseed = 5\n", "key 'seed' is not read by scenario 'chsh'"),
    ], ids=["sim-key", "other-check", "seed-key"])
    def test_nogo_config_it_cannot_honour_fails_cleanly(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "nogo.cfg"
        cfg.write_text(text)
        assert run("nogo", "chsh", "--config", str(cfg), out=tmp_path / "out") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not (tmp_path / "out").exists()

    def test_key_the_scenario_does_not_read_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "pointer.cfg"
        cfg.write_text((CONFIG_DIR / "pointer.cfg").read_text() + "magnet.mu_b = 7.0\n")
        assert run("sim", "pointer", "--config", str(cfg), out=tmp_path / "out") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: key 'magnet.mu_b' is not read by scenario 'pointer'"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 8.00 TiB for an array",
         "error: Unable to allocate 8.00 TiB for an array"),
        ("", "error: MemoryError")], ids=["numpy", "bare"])
    def test_a_run_that_cannot_allocate_fails_cleanly(self, tmp_path, capsys, monkeypatch,
                                                      message, line):
        # a MemoryError is an error (2), not a FAIL verdict (1), and one
        # without a message is named by its type; it is raised here rather
        # than provoked, since a real huge allocation may succeed under
        # memory overcommit
        def cannot_allocate(cfg):
            raise MemoryError(message)
        monkeypatch.setattr(experiments, "pointer_experiment", cannot_allocate)
        assert run("sim", "pointer", out=tmp_path / "out") == 2
        assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.parametrize("scenario,trajectories,message", [
        ("pointer", "200", "MemoryError"),
        # a valid config whose packet reaches the grid's edge only as it runs
        ("equilibrium", "2000", "1.679e-06 of the mass entered the outer 5% of the grid"),
    ], ids=["pointer", "equilibrium"])
    def test_a_failed_rerun_leaves_no_earlier_report(self, tmp_path, capsys, monkeypatch,
                                                     scenario, trajectories, message):
        # the reports of a completed run must not outlive a re-run into the
        # same --out that fails: they would answer the failed invocation
        out = tmp_path / "out"
        assert run("sim", scenario, "--trajectories", trajectories, out=out) in (0, 1)
        assert (out / "report.json").stat().st_size > 0
        rerun = ["sim", scenario]
        if scenario == "pointer":
            def cannot_allocate(cfg):
                raise MemoryError
            monkeypatch.setattr(experiments, "pointer_experiment", cannot_allocate)
            rerun += ["--trajectories", "300"]
        else:
            cfg = tmp_path / "edge.cfg"
            cfg.write_text("packet.momentum = 5.0\nduration = 4.0\n")
            parse_config(cfg.read_text(), scenario=scenario)      # a config that validates
            rerun += ["--config", str(cfg), "--trajectories", trajectories]
        capsys.readouterr()
        assert run(*rerun, out=out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        for name in ("report.json", "report.txt"):
            assert (out / name).exists() and (out / name).stat().st_size == 0, name

    def test_nogo_seed_flag_is_ignored(self, tmp_path):
        assert run("nogo", "chsh", "--seed", "5", out=tmp_path / "seeded") == 0
        assert run("nogo", "chsh", out=tmp_path / "plain") == 0
        for name in ("report.txt", "report.json"):
            assert ((tmp_path / "seeded" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes()), name

    @pytest.mark.parametrize("subcommand", ["stern-gerlach", "no-crossing", "sequential"])
    def test_unseparated_branches_fail_the_check(self, tmp_path, subcommand):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("flight_time = 0.05\n")
        status = run("sim", subcommand, "--config", str(cfg), "--trajectories", "100",
                     out=tmp_path / "out")
        assert status == 1
        assert (tmp_path / "out" / "report.txt").exists()
        checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        (separated,) = [c for c in checks if c["name"] == "branches_separated"]
        assert not separated["passed"] and separated["value"] < 0
        assert (separated["relation"], separated["bound"]) == (">", 0)

    def test_overlapping_pointer_branches_fail_collapse_purity(self, tmp_path):
        # a shift of 4 widths leaves the branches overlapping: min purity ~0.992
        cfg = tmp_path / "pointer.cfg"
        cfg.write_text((CONFIG_DIR / "pointer.cfg").read_text()
                       .replace("pointer.shift = 10.0", "pointer.shift = 4"))
        assert run("sim", "pointer", "--config", str(cfg), out=tmp_path / "out") == 1
        checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        verdicts = {c["name"]: c["passed"] for c in checks}
        assert verdicts == {"born_within_3sigma": True, "collapse_purity": False}

    def test_a_sampler_one_cell_off_fails_the_born_check(self, tmp_path, monkeypatch):
        # every start one grid cell too high: f_up ~0.40 against 0.36 +- 0.032
        sample = experiments.sample_positions
        monkeypatch.setattr(experiments, "sample_positions",
                            lambda frame, n, seed: sample(frame, n, seed) + frame.grid.dx)
        assert run("sim", "stern-gerlach", "--config", str(CONFIG_DIR / "stern_gerlach.cfg"),
                   out=tmp_path / "out") == 1
        checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        verdicts = {c["name"]: c["passed"] for c in checks}
        assert verdicts == {"branches_separated": True, "no_aborted_trajectories": True,
                            "born_within_3sigma": False}

    @pytest.mark.parametrize("cells,stage2_passes", [(2, True), (3, False)])
    def test_a_sampler_cells_off_fails_the_second_stage_born_check(self, tmp_path, monkeypatch,
                                                                    cells, stage2_passes):
        # every start `cells` grid cells too high: stage 2 (x after z) reads
        # f_up 0.537 (2 cells) or 0.559 (3 cells) against 0.5 +- 0.047;
        # stage 1 has p_up = 1, no spread, and stays exact
        sample = experiments.sample_positions
        monkeypatch.setattr(experiments, "sample_positions",
                            lambda frame, n, seed: sample(frame, n, seed) + cells * frame.grid.dx)
        status = run("sim", "sequential", "--config", str(CONFIG_DIR / "sequential_zx.cfg"),
                     out=tmp_path / "out")
        assert status == (0 if stage2_passes else 1)
        checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        verdicts = {c["name"]: c["passed"] for c in checks}
        assert verdicts == {"branches_separated": True, "no_aborted_trajectories": True,
                            "stage1_z_born_within_3sigma": True,
                            "stage2_x_born_within_3sigma": stage2_passes}

    def test_a_possessed_spin_fails_zero_crossings_and_side_inference(self, tmp_path,
                                                                       monkeypatch):
        # the counter-model of a spin that is a possessed value: each
        # trajectory draws its label with the Born weights, independent of
        # its position, and then follows its own component's velocity.  The
        # frequencies stay Born, but the outcome is no longer fixed by the
        # start, and trajectories cross
        integrate = experiments.integrate

        def possessed(frames, initial, potential):
            p_up = float(np.sum(abs(frames[0].up) ** 2) / np.sum(frames[0].density()))
            up = rng.uniforms(1, len(initial)) < p_up
            positions = np.empty((len(initial), len(frames)))
            for label, mask in ((0, up), (1, ~up)):
                own = [SpinorField(f.grid, f.up * (label == 0), f.down * (label == 1), time=f.time)
                       for f in frames]
                part = integrate(own, initial[mask], potential)
                assert part.aborted == ()
                positions[mask] = part.positions
            return Ensemble(part.frame_times, positions)
        monkeypatch.setattr(experiments, "integrate", possessed)
        assert run("sim", "no-crossing", "--config", str(CONFIG_DIR / "no_crossing.cfg"),
                   out=tmp_path / "out") == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        verdicts = {c["name"]: c["passed"] for c in report["checks"]}
        assert verdicts == {"branches_separated": True, "no_aborted_trajectories": True,
                            "zero_crossings": False, "side_inference_exact": False}
        results = report["results"]
        assert results["violations"] > 1000 and results["inference_accuracy"] < 0.6
        stats = results["statistics"]
        assert abs(stats["frequencies"][0] - 0.5) <= stats["three_sigma_halfwidths"][0]

    @pytest.mark.parametrize("subcommand", ["sim mermin", "sim stern_gerlach",
                                            "nogo stern-gerlach", "nogo bogus"])
    def test_subcommand_outside_the_table_fails(self, tmp_path, capsys, subcommand):
        with pytest.raises(SystemExit) as exc:
            run(*subcommand.split(), out=tmp_path / "out")
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
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
                "e": [{"f": True}, {"f": False, "g": 0.1}], "h": None}
        assert list(cli._result_lines(tree)) == [
            "a = 1", "b.c = 0.5 nan -2", "b.d = up",
            "e.0.f = true", "e.1.f = false", "e.1.g = 0.10000000000000001", "h = null"]

    @pytest.mark.parametrize("scenario", list(cli.SCENARIOS))
    def test_report_txt_results_render_report_json(self, tmp_path, scenario):
        size = ["--trajectories", "200"] if group_of(scenario) == "sim" else []
        status = cli.main([group_of(scenario), scenario.replace("_", "-"), *size,
                           "--out", str(tmp_path), "--quiet"])
        assert status in (0, 1)
        report = json.loads((tmp_path / "report.json").read_text())
        lines = (tmp_path / "report.txt").read_text().splitlines()
        results = lines[lines.index("-- results --") + 1:lines.index("-- checks --") - 1]
        assert results == list(cli._result_lines(report["results"]))
        assert results
        if scenario == "no_crossing":
            assert report["results"]["first_violation"] is None
            assert "first_violation = null" in results
        if scenario == "pointer":
            assert report["results"]["branch_overlap"] < 1e-6

    def test_no_crossing_report_names_the_first_violation(self, tmp_path, monkeypatch):
        injected = NoCrossingReport(violations=2, first_violation=((3, 17), 5))
        monkeypatch.setattr(experiments, "check_no_crossing", lambda ensemble: injected)
        status = cli.main(["sim", "no-crossing", "--trajectories", "100",
                           "--out", str(tmp_path), "--quiet"])
        assert status == 1
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert results["violations"] == 2
        assert results["first_violation"] == {"trajectories": [3, 17], "frame": 5}
        text = (tmp_path / "report.txt").read_text()
        assert "first_violation.trajectories = 3 17\nfirst_violation.frame = 5\n" in text

    @pytest.mark.parametrize("argv", [["sim", "pointer", "--dump-frames"],
                                      ["sim", "no-crossing", "--dump-frames"],
                                      ["nogo", "chsh", "--trajectories", "5", "--dump-frames"]])
    def test_flags_a_scenario_would_ignore_are_rejected(self, tmp_path, capsys, argv):
        # --dump-frames only where frames are written, --trajectories only for sim
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path / "out"), "--quiet"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["sim"], ["nogo", "--help"], ["sim", "--help"], ["sim", "bogus"],
        ["nogo", "stern-gerlach"], ["sim", "stern_gerlach"], ["sim", "pointer", "extra"],
        ["sim", "pointer", "--dump-frames"], ["nogo", "chsh", "--trajectories", "5"],
        ["sim", "equilibrium", "--seed", "x"], ["nogo", "mermin", "--bogus"],
        *([*cli._subcommand(scenario), "--help"] for scenario in cli.SCENARIOS),
    ], ids=" ".join)
    def test_the_invoked_parser_speaks_as_the_full_one(self, capsys, argv):
        def outcome(parse):
            with pytest.raises(SystemExit) as exc:
                parse()
            printed = capsys.readouterr()
            return exc.value.code, printed.out, printed.err
        assert outcome(lambda: cli.main(argv)) == outcome(
            lambda: cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    def test_the_invoked_parser_parses_as_the_full_one(self, scenario):
        flags = ["--config", "a.cfg", "--seed", "5", "--out", "o", "--quiet"]
        if scenario in SIM_SCENARIOS:
            flags += ["--trajectories", "9"]
        if cli.SCENARIOS[scenario][1]:
            flags += ["--dump-frames"]
        for argv in ([*cli._subcommand(scenario)], [*cli._subcommand(scenario), *flags]):
            assert (cli.build_parser(scenario).parse_args(argv)
                    == cli.build_parser().parse_args(argv))

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


# every shipped config, plus the run that reads the keys no shipped config
# reaches: a uniform start
KEY_RUNS = [(name, {}) for name in ("stern_gerlach", "sequential_zx", "no_crossing",
                                    "equilibrium_free", "equilibrium_harmonic", "pointer")]
KEY_RUNS += [("equilibrium_free", {"init_kind": "uniform", "init_a": -2.5, "init_b": -1.5})]


class TestKeyTable:
    def test_keys_per_scenario(self):
        assert {s: len(keys) for s, keys in SCENARIO_KEYS.items()} == {
            "stern_gerlach": 9, "sequential": 10, "no_crossing": 7, "equilibrium": 13,
            "pointer": 7, "mermin": 0, "vonneumann": 0, "chsh": 0}

    def test_each_scenario_reads_exactly_its_keys(self, tmp_path, monkeypatch):
        # record the ExperimentConfig fields each runner reads, as config keys
        key_of = {attr: key for keys in SCENARIO_KEYS.values()
                  for key, (attr, _) in keys.items()}
        reads = set()
        get = ExperimentConfig.__getattribute__

        def recording(self, name):
            if name in key_of:
                reads.add(key_of[name])
            return get(self, name)

        # the recorder sees a read of every field
        with monkeypatch.context() as m:
            m.setattr(ExperimentConfig, "__getattribute__", recording)
            cfg = default_config("equilibrium")
            for attr in key_of:
                getattr(cfg, attr)
        assert reads == set(key_of.values())

        union = {scenario: set() for scenario in SCENARIO_KEYS}
        runs = [(shipped_config(name, **fields, n_trials=200), f"{name}{fields}")
                for name, fields in KEY_RUNS]
        runs += [(default_config(check), check) for check in NOGO_SCENARIOS]
        for i, (cfg, label) in enumerate(runs):
            runner, dump_frames = cli.SCENARIOS[cfg.scenario]
            out = tmp_path / str(i)
            out.mkdir()
            reads.clear()
            with monkeypatch.context() as m:
                m.setattr(ExperimentConfig, "__getattribute__", recording)
                runner(cfg, out, "0" * 64, dump_frames)
            assert reads <= set(SCENARIO_KEYS[cfg.scenario]), label
            union[cfg.scenario] |= reads
        assert union == {scenario: set(keys) for scenario, keys in SCENARIO_KEYS.items()}

    def test_echo_lists_exactly_the_scenario_keys(self):
        for scenario, keys in SCENARIO_KEYS.items():
            lines = canonical_text(default_config(scenario)).splitlines()
            assert [line.split(" = ")[0] for line in lines] == sorted([*keys, "scenario"])


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


class TestEntryPoint:
    """`python -m bohmlab.cli` flushes stdout and stderr and ends with
    `os._exit`, each test in a child process.  PYTHONUNBUFFERED is left
    out of the child's environment, so that its report waits in stdout's
    buffer until the flush."""

    @staticmethod
    def cli(*argv, stdout=subprocess.PIPE):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(ROOT / "src")
        return subprocess.run([sys.executable, "-m", "bohmlab.cli", *argv], env=env,
                              stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300)

    def test_a_pass_exits_0(self, tmp_path):
        proc = self.cli("nogo", "chsh", "--out", str(tmp_path), "--quiet")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert (tmp_path / "report.json").exists()

    def test_a_fail_verdict_exits_1(self, tmp_path):
        config = tmp_path / "short_flight.cfg"
        config.write_text((CONFIG_DIR / "stern_gerlach.cfg").read_text()
                          .replace("flight_time = auto", "flight_time = 0.05"))
        proc = self.cli("sim", "stern-gerlach", "--config", str(config), "--trajectories", "200",
                        "--out", str(tmp_path / "out"), "--quiet")
        assert proc.returncode == 1, proc.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "branches_separated" in [c["name"] for c in report["checks"] if not c["passed"]]
        assert report["exit_status"] == 1

    def test_a_bad_config_exits_2_with_one_error_line(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("scenario = stern_gerlach\ngrid.n_points = 1000\n")
        proc = self.cli("sim", "stern-gerlach", "--config", str(config), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")

    def test_the_whole_report_arrives_through_a_pipe(self, tmp_path):
        proc = self.cli("nogo", "mermin", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (tmp_path / "report.txt").read_text()

    def test_a_failed_flush_takes_the_ordinary_exit(self, tmp_path):
        # the pipe has no reader, so flushing the report fails; the
        # ordinary exit tries again and reports it with status 120
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self.cli("nogo", "chsh", "--out", str(tmp_path), stdout=write)
        finally:
            os.close(write)
        assert proc.returncode == 120
        assert "BrokenPipeError" in proc.stderr

    def test_the_interpreter_teardown_is_skipped(self, tmp_path):
        code = ("import atexit, bohmlab.cli\n"
                "atexit.register(print, 'teardown ran')\n"
                "bohmlab.cli.entry_point()\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code, "nogo", "chsh", "--out", str(tmp_path),
                               "--quiet"], env=env, capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr

    def test_the_script_is_the_entry_point(self):
        import tomllib
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
        assert project["scripts"] == {"bohmlab": "bohmlab.cli:entry_point"}


def test_the_readme_states_every_check(tmp_path):
    # the README's check table against the checks that the shipped configs
    # (shrunk) and the three no-go checks emit: the scenarios that emit
    # each, its relation and its bound, whose cell holds an expression and
    # may name the constant that holds it
    from bohmlab import nogo
    section = (ROOT / "README.md").read_text().split("\n## Checks\n", 1)[1].split("\n## ", 1)[0]
    rows = [re.split(r"(?<!\\)\|", line) for line in section.splitlines()
            if line.startswith("| `")]
    documented = {}
    for _, scenarios, name, _, relation, bound, *_ in rows:
        expression, *constant = re.findall(r"`([^`]+)`", bound)
        value = eval(expression, {"S_q": nogo.chsh_quantum_value()})
        for qualified in constant:
            module, attr = qualified.split(".")
            assert getattr({"experiments": experiments, "nogo": nogo}[module], attr) == value
        documented[name.strip().strip("`")] = (
            set(re.findall(r"`(\w+)`", scenarios)), relation.strip().strip("`"), value)
    emitted = {}
    runs = [shipped_config(path.stem, n_trials=200) for path in sorted(CONFIG_DIR.glob("*.cfg"))]
    for i, cfg in enumerate([*runs, *map(default_config, NOGO_SCENARIOS)]):
        out = tmp_path / str(i)
        out.mkdir()
        for check in cli.SCENARIOS[cfg.scenario][0](cfg, out, "0" * 64, False)[1]:
            scenarios, relation, bound = emitted.setdefault(
                check.name, (set(), check.relation, check.bound))
            assert (relation, bound) == (check.relation, check.bound), check.name
            scenarios.add(cfg.scenario)
    assert documented == emitted


RELATIONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">": operator.gt}


def test_every_report_check_is_its_comparison(tmp_path):
    # each check of report.json passes exactly when its value stands in its
    # relation to its bound, both numbers ("inf" for a branch gap with one
    # branch), and report.txt prints the same verdict and numbers
    one_branch = tmp_path / "one_branch.cfg"
    one_branch.write_text("spin.alpha = 1\nspin.beta = 0\n")
    invocations = [["sim", "stern-gerlach", "--config", str(one_branch)]]
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        scenario = parse_config(path.read_text()).scenario
        invocations.append(["sim", scenario.replace("_", "-"), "--config", str(path)])
    invocations = [[*argv, "--trajectories", "200"] for argv in invocations]
    invocations += [["nogo", scenario] for scenario in NOGO_SCENARIOS]
    numbers = []
    for i, argv in enumerate(invocations):
        out = tmp_path / str(i)
        status = run(*argv, out=out)
        report = json.loads((out / "report.json").read_text())
        lines = (out / "report.txt").read_text().splitlines()
        lines = lines[lines.index("-- checks --") + 1:lines.index(f"exit: {status}") - 1]
        assert len(lines) == len(report["checks"]) > 0, argv
        for check, line in zip(report["checks"], lines):
            value, bound = (float(x) if x in ("inf", "-inf", "nan") else x
                            for x in (check["value"], check["bound"]))
            assert all(type(x) in (int, float) for x in (value, bound)), check
            assert check["passed"] is RELATIONS[check["relation"]](value, bound), check
            assert line == (f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}: "
                            f"{fmt(value)} {check['relation']} {fmt(bound)}")
            numbers.append(value)
        assert status == (0 if all(c["passed"] for c in report["checks"]) else 1), argv
    assert math.inf in numbers


def leaves(tree):
    """The values of a results tree that are no dict, list or tuple."""
    if not isinstance(tree, (dict, list, tuple)):
        yield tree
        return
    for value in tree.values() if isinstance(tree, dict) else tree:
        yield from leaves(value)


def test_every_report_value_is_a_python_value(tmp_path):
    # `fmt` and `json_text` take Python values only: each runner's results
    # tree and its checks' values and bounds hold no numpy value (not even
    # np.float64, which `isinstance(x, float)` would let through)
    configs = [parse_config(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.cfg"))]
    configs += [default_config(scenario) for scenario in NOGO_SCENARIOS]
    assert {cfg.scenario for cfg in configs} == set(cli.SCENARIOS)
    for i, cfg in enumerate(configs):
        cfg = with_overrides(cfg, n_trials=200)
        runner, dump_frames = cli.SCENARIOS[cfg.scenario]
        out = tmp_path / str(i)
        out.mkdir()
        results, checks, _ = runner(cfg, out, config_hash(cfg), dump_frames)
        values = [*leaves(results), *(x for c in checks for x in (c.value, c.bound))]
        assert checks and values, cfg.scenario
        assert {type(x) for x in values} <= {int, float, str, bool, type(None)}, cfg.scenario


def test_the_readme_states_every_key():
    # the README's key-group table and its per-scenario table, against
    # the keys each scenario reads and their number
    section = (ROOT / "README.md").read_text().split("\n## Config files\n", 1)[1]
    section = section.split("\n## ", 1)[0]

    def table(header):
        lines = section.split(f"\n{header}\n", 1)[1].split("\n\n", 1)[0].splitlines()
        return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[1:]]

    groups = {name: {k.strip().strip("`") for k in keys.split(",")}
              for name, keys in table("| group       | keys |")}
    stated = {}
    for scenarios, names, count in table("| scenario | groups | keys |"):
        keys = set() if names.startswith("none") else \
            set().union(*(groups[name] for name in names.split(", ")))
        assert len(keys) == int(count), scenarios
        for scenario in scenarios.split(", "):
            stated[scenario.strip("`")] = keys
    assert stated == {scenario: set(keys) for scenario, keys in SCENARIO_KEYS.items()}


def test_no_run_imports_a_process_pool(tmp_path):
    # every table is written in the process; a worker pool would cost
    # set-up time and peak RSS, and make the bytes depend on the host
    code = ("import sys\n"
            "import bohmlab.cli\n"
            "for argv in (['sim', 'stern-gerlach', '--trajectories', '200'],\n"
            "             ['sim', 'equilibrium', '--trajectories', '7000', '--config',\n"
            f"              {str(CONFIG_DIR / 'equilibrium_free.cfg')!r}]):\n"
            f"    out = {str(tmp_path)!r} + '/' + argv[1]\n"
            "    status = bohmlab.cli.main(argv + ['--out', out, '--quiet'])\n"
            "    assert status in (0, 1), status\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
            " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "stern-gerlach" / "ensemble.csv").exists()
    assert (tmp_path / "equilibrium" / "ensemble.csv").stat().st_size > 10**7


class TestImportScope:
    """An invocation loads only the modules of its subcommand, each run in
    a fresh interpreter."""

    SIM_ONLY = {"bohmlab.conditional", "bohmlab.experiments", "bohmlab.rng", "bohmlab.table",
                "bohmlab.trajectories", "bohmlab.wavefield"}

    NOGO_PATH = {"bohmlab", "bohmlab.cli", "bohmlab.config", "bohmlab.serialize",
                 "bohmlab.nogo", "bohmlab.hilbert"}

    @staticmethod
    def loaded(code, *argv, packages=("bohmlab", "numpy"), env=None):
        """The modules of `packages` loaded after `code` ran with
        sys.argv[1:] = argv, and what else it printed."""
        code += ("\nprint(json.dumps(sorted(m for m in sys.modules"
                 f" if m.split('.')[0] in {packages!r})))")
        env = dict(env or os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code, *argv],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        *printed, modules = proc.stdout.splitlines()
        return set(json.loads(modules)), printed

    def test_importing_the_package_loads_no_module(self):
        assert self.loaded("import bohmlab") == ({"bohmlab"}, [])

    def test_the_entry_point_turns_the_collector_off_and_a_nogo_run_loads_no_sim_module(
            self, tmp_path):
        # main() without arguments is the process entry point
        code = ("import gc\nimport bohmlab.cli\n"
                "assert bohmlab.cli.main() == 0\nprint(gc.isenabled())")
        modules, printed = self.loaded(code, "nogo", "chsh", "--out", str(tmp_path), "--quiet")
        assert printed == ["False"]
        assert "bohmlab.nogo" in modules and not modules & self.SIM_ONLY

    def test_importing_the_cli_loads_no_numpy(self):
        modules, _ = self.loaded("import bohmlab.cli")
        assert modules == {"bohmlab", "bohmlab.cli", "bohmlab.config", "bohmlab.serialize"}

    @pytest.mark.parametrize("check", NOGO_SCENARIOS)
    def test_a_nogo_run_loads_no_numpy(self, tmp_path, check):
        # nor `dataclasses` (the records are namedtuples), nor the
        # `inspect`, `dis` and `ast` that it would load, nor `hashlib`
        # and the OpenSSL behind it, nor `queue`
        code = f"import bohmlab.cli\nassert bohmlab.cli.main({['nogo', check]!r} + sys.argv[1:]) == 0"
        modules, _ = self.loaded(code, "--out", str(tmp_path), "--quiet",
                                 packages=("bohmlab", "numpy", "dataclasses", "inspect", "dis",
                                           "ast", "hashlib", "_hashlib", "queue"))
        assert modules == self.NOGO_PATH

    @pytest.mark.parametrize("scenario,trajectories", [
        *((scenario, 200) for scenario in SIM_SCENARIOS),
        # 7000 x 41 positions: a helper thread runs where two CPUs are usable
        ("equilibrium", 7000),
    ])
    def test_a_sim_run_loads_only_what_it_uses(self, tmp_path, scenario, trajectories):
        # no `hashlib`; `hilbert` for the spin rotations of `sequential`
        # alone; `queue` only once a helper thread starts
        argv = ["sim", scenario.replace("_", "-"), "--trajectories", str(trajectories),
                "--out", str(tmp_path), "--quiet"]
        code = ("import threading\nimport bohmlab.cli\n"
                "started, start = [], threading.Thread.start\n"
                "threading.Thread.start = lambda thread: started.append(1) or start(thread)\n"
                f"assert bohmlab.cli.main({argv!r}) in (0, 1)\nprint(bool(started))")
        modules, printed = self.loaded(code, packages=("bohmlab", "hashlib", "_hashlib", "queue"))
        assert not modules & {"hashlib", "_hashlib"}
        assert ("bohmlab.hilbert" in modules) == (scenario == "sequential")
        assert printed == [str("queue" in modules)]

    @pytest.mark.parametrize("scenario", SIM_SCENARIOS)
    def test_every_sim_run_loads_numpy(self, tmp_path, scenario):
        argv = ["sim", scenario.replace("_", "-"), "--trajectories", "200",
                "--out", str(tmp_path), "--quiet"]
        modules, _ = self.loaded(f"import bohmlab.cli\nassert bohmlab.cli.main({argv!r}) in (0, 1)")
        assert "numpy" in modules and "bohmlab.wavefield" in modules

    def test_no_sim_run_loads_nogo(self, tmp_path):
        code = "import bohmlab.cli\n"
        for scenario in SIM_SCENARIOS:
            argv = ["sim", scenario.replace("_", "-"), "--trajectories", "200",
                    "--out", str(tmp_path / scenario), "--quiet"]
            code += f"assert bohmlab.cli.main({argv!r}) in (0, 1)\n"
        modules, _ = self.loaded(code, packages=("bohmlab", "numpy", "dataclasses"))
        assert modules >= self.SIM_ONLY and not modules & {"bohmlab.nogo", "dataclasses"}

    def test_a_library_call_leaves_the_collector_alone(self, tmp_path):
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                assert run("nogo", "chsh", out=tmp_path) == 0
                assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
    def test_the_entry_point_asks_openblas_for_one_thread_unless_told(self, tmp_path,
                                                                      preset, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = ("import os\nimport bohmlab.cli\nassert bohmlab.cli.main() == 0\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
        _, printed = self.loaded(code, "nogo", "chsh", "--out", str(tmp_path), "--quiet",
                                 env=env)
        assert printed == [expected]

    def test_a_library_call_leaves_openblas_alone(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert run("nogo", "chsh", out=tmp_path) == 0
        assert "OPENBLAS_NUM_THREADS" not in os.environ


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs 2 usable CPUs to compare against a one-CPU run")
@pytest.mark.parametrize("name,trajectories,flags,threaded", [
    # 7000 x 41 = 287,000 values, more than one chunk of the table writer
    # and at least threads.MIN_VALUES, so that unpinned, the advance
    # (integrate) and the writer (in chunks of 2**15 values) use a second
    # thread; pinned, the writer takes chunks of 2**13
    pytest.param("equilibrium_free", 7000, (), True, id="equilibrium_free-7000"),
    pytest.param("equilibrium_harmonic", 2000, (), False, id="equilibrium_harmonic-2000"),
    pytest.param("stern_gerlach", 200, ("--dump-frames",), False, id="stern_gerlach-200"),
    pytest.param("sequential_zx", 200, (), False, id="sequential_zx-200"),
    pytest.param("no_crossing", 200, (), False, id="no_crossing-200"),
    pytest.param("pointer", 200, (), False, id="pointer-200"),
])
def test_outputs_do_not_depend_on_the_cpu_count(tmp_path, name, trajectories, flags, threaded):
    # the pinned child pins itself before numpy loads its BLAS; each child
    # prints the functions that started a helper thread: those whose
    # `with` block entered a threaded `threads.Helper`
    code = ("import os, sys, threading, traceback\n"
            "if sys.argv[1] == 'pinned':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import bohmlab.cli\n"
            "callers, start = set(), threading.Thread.start\n"
            "def spy(thread):\n"
            "    names = [frame.name for frame in traceback.extract_stack()]\n"
            "    callers.add(names[names.index('__enter__') - 1])\n"
            "    start(thread)\n"
            "threading.Thread.start = spy\n"
            "status = bohmlab.cli.main(sys.argv[2:])\n"
            "print(sorted(callers))\n"
            "sys.exit(status)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    config = CONFIG_DIR / f"{name}.cfg"
    subcommand = parse_config(config.read_text()).scenario.replace("_", "-")
    for mode in ("unpinned", "pinned"):
        argv = ["sim", subcommand, "--config", str(config), "--seed", "7",
                "--trajectories", str(trajectories), *flags,
                "--out", str(tmp_path / mode), "--quiet"]
        proc = subprocess.run([sys.executable, "-c", code, mode, *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        # a FAIL verdict (1) is compared like a PASS: report.json holds it
        assert proc.returncode in (0, 1), proc.stderr
        two_threads = threaded and mode == "unpinned"
        helpers = ["integrate", "write_table"]
        assert proc.stdout.splitlines()[-1] == str(helpers if two_threads else [])

    def files(mode):
        root = tmp_path / mode
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

    assert files("unpinned") == files("pinned")
    differing = [str(f) for f in files("unpinned") if (tmp_path / "unpinned" / f).read_bytes()
                 != (tmp_path / "pinned" / f).read_bytes()]
    assert differing == []


def test_a_rerun_replaces_its_outputs(tmp_path):
    # the second run into the same directory unlinks each file it writes
    # instead of truncating it: a hard link keeps the first run's bytes,
    # and the directory ends up as a fresh run's
    def tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    argv = ["sim", "equilibrium", "--trajectories", "200", "--dump-frames"]
    assert run(*argv, "--seed", "7", out=tmp_path / "reused") in (0, 1)
    first = (tmp_path / "reused" / "ensemble.csv").read_bytes()
    os.link(tmp_path / "reused" / "ensemble.csv", tmp_path / "kept.csv")
    assert run(*argv, "--seed", "8", out=tmp_path / "reused") in (0, 1)
    assert run(*argv, "--seed", "8", out=tmp_path / "fresh") in (0, 1)
    assert (tmp_path / "kept.csv").read_bytes() == first
    assert tree(tmp_path / "reused") == tree(tmp_path / "fresh") != {}
    assert tree(tmp_path / "reused")["ensemble.csv"] != first


@pytest.mark.parametrize("scenario", list(cli.SCENARIOS))
def test_report_json_lists_the_files_the_run_wrote(tmp_path, scenario):
    # sorted paths relative to --out, the reports left out
    argv = [*cli._subcommand(scenario)]
    if scenario in SIM_SCENARIOS:
        argv += ["--trajectories", "200"]
    if cli.SCENARIOS[scenario][1]:
        argv += ["--dump-frames"]
    assert run(*argv, out=tmp_path) in (0, 1)
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                     if p.is_file() and not p.name.startswith("report."))
    assert json.loads((tmp_path / "report.json").read_text())["outputs"] == written


def test_report_json_lists_no_file_of_an_earlier_run(tmp_path):
    # another scenario's files stay in the directory, but outside the
    # listing, which is a fresh run's
    def outputs(out):
        return json.loads((out / "report.json").read_text())["outputs"]

    shared = tmp_path / "shared"
    assert run("sim", "equilibrium", "--trajectories", "200", "--dump-frames",
               out=shared) in (0, 1)
    assert run("sim", "pointer", "--trajectories", "200", out=shared) == 0
    assert run("sim", "pointer", "--trajectories", "200", out=tmp_path / "fresh") == 0
    assert outputs(shared) == outputs(tmp_path / "fresh") == ["trials.csv"]
    assert (shared / "ensemble.csv").exists() and len(list((shared / "frames").iterdir())) == 41

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh

from fieldcqed import bath, cli, coupled
from fieldcqed import dynamics as dyn
from fieldcqed import transmon as tq
from fieldcqed import txline as tx
from fieldcqed.checks import CheckResult
from fieldcqed.errors import ConfigError

MODES_LINE = {"L_pul": 4e-7, "C_pul": 1.6e-10, "length": 0.0125}

MINIMAL_TRANSMON = {
    "mode": "transmon",
    "transmon": {"E_C": 0.3, "E_J": 15, "n_g": 0, "n_cutoff": 20},
    "sweep": {"start": 0.0, "stop": 1.0, "n_points": 5},
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_minimal_transmon_block(self, tmp_path):
        cfg = cli.parse_config(json.dumps(MINIMAL_TRANSMON))
        assert cfg["mode"] == "transmon"
        assert cfg["transmon"]["E_C"] == 0.3
        assert cli.main(["transmon", "--config", write_config(tmp_path, MINIMAL_TRANSMON),
                         "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["units"] == "natural"

    def test_negative_ec_names_the_field(self):
        bad = {"mode": "transmon", "transmon": {"E_C": -0.3, "E_J": 15}}
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(json.dumps(bad))
        assert any("E_C" in p for p in exc.value.problems)

    def test_unknown_key_is_listed(self):
        bad = {"mode": "transmon", "transmon": {"E_C": 0.3, "E_J": 15, "EJ_max": 30}}
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(json.dumps(bad))
        assert any("EJ_max" in p for p in exc.value.problems)

    def test_every_violation_reported_at_once(self):
        bad = {"mode": "transmon",
               "transmon": {"E_C": -0.3, "E_J": -1, "EJ_max": 30}}
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(json.dumps(bad))
        text = "\n".join(exc.value.problems)
        assert "E_C" in text and "E_J" in text and "EJ_max" in text
        assert len(exc.value.problems) == 3

    def test_syntax_error_reports_position(self):
        with pytest.raises(ConfigError) as exc:
            cli.parse_config('{"mode": "transmon",\n')
        assert "line 2" in exc.value.problems[0]

    def test_missing_block_for_mode(self):
        bad = {"mode": "couple",
               "transmon": {"E_C": 0.3, "E_J": 15},
               "line": {"L_pul": 4e-7, "C_pul": 1.6e-10, "length": 0.0125}}
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(json.dumps(bad))
        assert any("coupling" in p for p in exc.value.problems)

    def test_fock_cutoff_count_must_match_modes(self):
        bad = {"mode": "couple",
               "transmon": {"E_C": 0.3, "E_J": 15},
               "line": {"L_pul": 4e-7, "C_pul": 1.6e-10, "length": 0.0125,
                        "n_modes": 2},
               "coupling": {"beta": 0.2, "fock_cutoffs": [3]}}
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(json.dumps(bad))
        assert any("fock_cutoffs" in p for p in exc.value.problems)

    def test_bath_lengths_cross_checked(self):
        bad = {"mode": "bath",
               "bath": {"cavity_length": 2.0, "wave_speed": 1.0,
                        "total_length": 1.0}}
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(json.dumps(bad))
        assert any("total_length" in p for p in exc.value.problems)

    def test_initial_level_outside_basis(self):
        bad = {"mode": "evolve", "transmon": {"E_C": 0.3, "E_J": 15, "n_cutoff": 2},
               "time_grid": {"t_max": 1.0}, "initial_levels": [0, 9]}
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(json.dumps(bad))
        assert any("initial_levels" in p for p in exc.value.problems)

    def test_bath_keeps_two_time_points(self):
        # only evolve needs a third point (test_bad_values_fail_as_config_errors)
        bath = {"mode": "bath", "bath": {"cavity_length": 1.0, "wave_speed": 1.0},
                "time_grid": {"t_max": 1.0, "n_points": 2}}
        assert cli.parse_config(json.dumps(bath))["time_grid"]["n_points"] == 2

    def test_mode_injected_from_subcommand(self):
        cfg = cli.parse_config("{}", default_mode="check")
        assert cfg["mode"] == "check"

    def test_no_mode_and_no_default_is_one_problem(self):
        # the per-mode clauses require 'mode' in their 'if', so none of them fires
        for text in ("{}", json.dumps({"sweep": {"n_points": 5}})):
            with pytest.raises(ConfigError) as exc:
                cli.parse_config(text)
            assert exc.value.problems == ["$: 'mode' is a required property"]

    REQUIRED = [("transmon", "transmon"), ("modes", "line"), ("couple", "transmon"),
                ("couple", "line"), ("couple", "coupling"), ("evolve", "transmon"),
                ("evolve", "time_grid"), ("bath", "bath")]

    @pytest.mark.parametrize("mode, block", REQUIRED)
    def test_each_required_block_is_named(self, mode, block):
        blocks = {"transmon": {"E_C": 0.3, "E_J": 15},
                  "line": {"L_pul": 4e-7, "C_pul": 1.6e-10, "length": 0.0125},
                  "coupling": {"beta": 0.2}, "time_grid": {"t_max": 1.0},
                  "bath": {"cavity_length": 1.0, "wave_speed": 1.0}}
        config = {"mode": mode}
        config.update((b, blocks[b]) for m, b in self.REQUIRED if m == mode and b != block)
        cli.parse_config(json.dumps(dict(config, **{block: blocks[block]})))
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(json.dumps(config))
        assert exc.value.problems == [f"$: '{block}' is a required property"]

    def test_missing_block_reported_with_other_schema_errors(self):
        bad = {"mode": "couple", "transmon": {"E_C": -1, "E_J": 15},
               "line": {"L_pul": 4e-7, "C_pul": 1.6e-10, "length": 0.0125}}
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(json.dumps(bad))
        assert exc.value.problems == [
            "$: 'coupling' is a required property",
            "$.transmon.E_C: -1 is less than or equal to the minimum of 0"]

    @pytest.mark.parametrize("n_points, message", [
        (2, "2 is less than the minimum of 3"),
        (1, "1 is less than the minimum of 2"),
    ])
    def test_evolve_point_minimum_is_one_problem(self, n_points, message):
        bad = {"mode": "evolve", "transmon": {"E_C": 0.3, "E_J": 15},
               "time_grid": {"t_max": 1.0, "n_points": n_points}}
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(json.dumps(bad))
        assert exc.value.problems == [f"$.time_grid.n_points: {message}"]

    @pytest.mark.parametrize("block, key, kind", [
        ("transmon", "tunneling_sign", tq.TunnelingSign),
        ("line", "boundary", tx.BoundaryCondition),
        ("line", "convention", tx.LongitudinalNorm),
        ("bath", "closure", bath.InterfaceClosure),
    ])
    def test_enum_strings_are_the_library_values(self, block, key, kind):
        base = {"transmon": {"mode": "transmon", "transmon": {"E_C": 0.3, "E_J": 15}},
                "line": {"mode": "modes",
                         "line": {"L_pul": 4e-7, "C_pul": 1.6e-10, "length": 0.0125}},
                "bath": {"mode": "bath",
                         "bath": {"cavity_length": 1.0, "wave_speed": 1.0}}}[block]
        for member in kind:
            config = dict(base, **{block: dict(base[block], **{key: member.value})})
            assert cli.parse_config(json.dumps(config))[block][key] == member.value
        config = dict(base, **{block: dict(base[block], **{key: "other"})})
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(json.dumps(config))
        allowed = [member.value for member in kind]
        assert exc.value.problems == [f"$.{block}.{key}: 'other' is not one of {allowed}"]

    # each rule that reads a default, at the boundary with the defaulted key omitted:
    # n_modes 1, n_cavity_modes 20 and cavity_mode_index 0; an omitted n_levels
    # takes the runner's default clipped to the basis (dim 3 at n_cutoff 1)
    BOUNDARY_TRANSMON = {"E_C": 0.3, "E_J": 15, "n_cutoff": 1}

    @pytest.mark.parametrize("config, problem", [
        ({"mode": "couple", "transmon": BOUNDARY_TRANSMON, "line": MODES_LINE,
          "coupling": {"beta": 0.2, "fock_cutoffs": [4]}}, None),
        ({"mode": "couple", "transmon": BOUNDARY_TRANSMON, "line": MODES_LINE,
          "coupling": {"beta": 0.2, "fock_cutoffs": [4, 4]}},
         "$.coupling.fock_cutoffs: expected 1 entries (one per line mode), got 2"),
        ({"mode": "transmon", "transmon": BOUNDARY_TRANSMON}, None),
        ({"mode": "evolve", "transmon": BOUNDARY_TRANSMON, "time_grid": {"t_max": 1.0}}, None),
        ({"mode": "transmon", "transmon": {**BOUNDARY_TRANSMON, "n_levels": 3}}, None),
        ({"mode": "transmon", "transmon": {**BOUNDARY_TRANSMON, "n_levels": 4}},
         "$.transmon.n_levels: more levels than the charge basis holds (3)"),
        ({"mode": "bath", "bath": {"cavity_length": 1.0, "wave_speed": 1.0,
                                   "cavity_mode_index": 19}}, None),
        ({"mode": "bath", "bath": {"cavity_length": 1.0, "wave_speed": 1.0,
                                   "cavity_mode_index": 20}},
         "$.bath.cavity_mode_index: outside the cavity mode range"),
        ({"mode": "bath", "bath": {"cavity_length": 1.0, "wave_speed": 1.0,
                                   "n_cavity_modes": 1}}, None),
    ])
    def test_rules_at_their_boundary_with_the_default_taken(self, config, problem):
        if problem is None:
            assert cli.parse_config(json.dumps(config)) == config
        else:
            with pytest.raises(ConfigError) as exc:
                cli.parse_config(json.dumps(config))
            assert exc.value.problems == [problem]

    def test_rule_and_runner_read_one_default(self, monkeypatch):
        monkeypatch.setitem(cli._DEFAULTS["bath"], "n_cavity_modes", 4)
        config = {"mode": "bath", "bath": {"cavity_length": 1.0, "wave_speed": 1.0,
                                           "n_bins": 8, "cavity_mode_index": 4}}
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(json.dumps(config))
        assert exc.value.problems == ["$.bath.cavity_mode_index: outside the cavity mode range"]

        class Built(Exception):
            pass

        def port_continuum(cavity, *args):
            raise Built(cavity.n_modes)  # stop the runner once it has built the cavity

        monkeypatch.setattr(cli.bath_mod, "port_continuum", port_continuum)
        with pytest.raises(Built) as built:
            cli.run_bath(config, False)
        assert built.value.args == (4,)

    def test_matched_cross_section_takes_its_gap_alone(self):
        cfg = cli.parse_config(json.dumps(
            {"mode": "modes", "line": MODES_LINE, "cross_section": {"d": 2e-6}}))
        assert cfg["cross_section"] == {"d": 2e-6}

    def test_integer_literal_beyond_float_range_is_rejected(self):
        text = '{"mode": "transmon", "transmon": {"E_C": 0.3, "E_J": 1' + "0" * 400 + "}}"
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(text)
        assert exc.value.problems[0].endswith("is not a valid number: config values must be finite")


class TestMainExitCodes:
    def test_happy_path_returns_zero(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_TRANSMON)
        assert cli.main(["transmon", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "transmon_levels.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_config_error_returns_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "transmon",
                                      "transmon": {"E_C": -1, "E_J": 15}})
        assert cli.main(["transmon", "--config", cfg]) == 2
        assert "E_C" in capsys.readouterr().err

    def test_missing_config_file_returns_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["transmon", "--config", missing]) == 2
        assert "not found" in capsys.readouterr().err

    def test_subcommand_config_mode_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_TRANSMON)
        assert cli.main(["modes", "--config", cfg]) == 2
        assert "subcommand" in capsys.readouterr().err

    def test_model_error_returns_three(self, tmp_path, capsys):
        payload = {"mode": "bath",
                   "bath": {"cavity_length": 1.0, "wave_speed": 1.0,
                            "total_length": 10.0, "n_cavity_modes": 20,
                            "n_bins": 200, "boundary_completion": False}}
        cfg = write_config(tmp_path, payload)
        assert cli.main(["bath", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, text", [
        ("transmon", '{"mode": "transmon", "transmon": {"E_C": 0.3, "E_J": NaN}}'),
        ("bath", '{"mode": "bath", "bath": {"cavity_length": 1.0, "wave_speed": 1.0, '
                 '"coupling_scale": Infinity}}'),
        ("evolve", '{"mode": "evolve", "transmon": {"E_C": 0.3, "E_J": 15}, '
                   '"time_grid": {"t_max": 1.0, "n_points": 2}}'),
        ("transmon", '{"mode": "transmon", "transmon": {"E_C": 0.3, "E_J": 1e400}}'),
        ("transmon", '{"mode": "transmon", "transmon": {"E_C": 0.3, "E_J": -1e400}}'),
    ])
    def test_bad_values_fail_as_config_errors(self, tmp_path, capsys, mode, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([mode, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("xsec, problem", [
        ({"w": 1e-5}, "$.cross_section: 'd' is a dependency of 'w'"),
        ({"eps_r": 2.0, "d": 1e-6}, "$.cross_section: 'w' is a dependency of 'eps_r'"),
        ({"matched": False},
         "$.cross_section: Additional properties are not allowed ('matched' was unexpected)"),
    ])
    def test_cross_section_keys_nothing_reads_are_config_errors(self, tmp_path, capsys,
                                                                 xsec, problem):
        cfg = write_config(tmp_path, {"mode": "modes", "line": MODES_LINE,
                                      "cross_section": xsec})
        out = tmp_path / "out"
        assert cli.main(["modes", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_output_path_through_a_file_fails_before_the_run(self, tmp_path, capsys,
                                                             monkeypatch, below):
        def no_run(*args, **kwargs):
            raise AssertionError("the runner ran")
        monkeypatch.setattr(cli.tq, "solve", no_run)
        cfg = write_config(tmp_path, MINIMAL_TRANSMON)
        afile = tmp_path / "afile"
        afile.write_text("kept", encoding="utf-8")
        out = afile / "sub" if below else afile
        before = sorted(tmp_path.iterdir())
        assert cli.main(["transmon", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: output path {out}: {afile} is not a directory\n")
        assert sorted(tmp_path.iterdir()) == before
        assert afile.read_text(encoding="utf-8") == "kept"

    def test_write_failure_is_one_config_error_line(self, tmp_path, capsys, monkeypatch):
        def full_disk(path, *args):
            raise OSError(28, "No space left on device", str(path))
        monkeypatch.setattr(cli, "_write_csv", full_disk)
        cfg = write_config(tmp_path, MINIMAL_TRANSMON)
        out = tmp_path / "out"
        assert cli.main(["transmon", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: [Errno 28] No space left on device: "
                       f"'{out / 'transmon_levels.csv'}'\n")

    @pytest.mark.parametrize("writer", ["_write_csv", "_write_json"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
    def test_write_failure_removes_what_the_run_wrote(self, tmp_path, capsys, monkeypatch,
                                                      writer, existing):
        # transmon writes its CSV first and summary.json last, so a failing
        # _write_json leaves a finished CSV behind unless the run removes it
        def full_disk(path, *args):
            path.write_text("partial", encoding="utf-8")
            raise OSError(28, "No space left on device", str(path))
        monkeypatch.setattr(cli, writer, full_disk)
        cfg = write_config(tmp_path, MINIMAL_TRANSMON)
        out = tmp_path / "out"
        if existing:
            out.mkdir()
            (out / "kept.txt").write_text("kept", encoding="utf-8")
        target = out if existing else out / "new" / "deeper"
        assert cli.main(["transmon", "--config", cfg, "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: [Errno 28] No space left on device")
        if existing:
            assert [p.name for p in out.iterdir()] == ["kept.txt"]
            assert (out / "kept.txt").read_text(encoding="utf-8") == "kept"
        else:
            assert not out.exists()

    def test_overflowing_coupling_scale_returns_three(self, tmp_path, capsys):
        payload = {"mode": "bath",
                   "bath": {"cavity_length": 1.0, "wave_speed": 1.0,
                            "coupling_scale": 1e200},
                   "time_grid": {"t_max": 1.0, "n_points": 11}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bath", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()

    def test_overflowing_wave_speed_returns_three(self, tmp_path, capsys):
        payload = {"mode": "bath", "bath": {"cavity_length": 1.0, "wave_speed": 1e200}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bath", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()

    def test_overflowing_coupling_rate_returns_three(self, tmp_path, capsys):
        # used to exit 0 with -inf in the table and -Infinity in summary.json
        payload = {"mode": "couple", "transmon": {"E_C": 0.3, "E_J": 15, "n_levels": 3},
                   "line": {**MODES_LINE, "n_modes": 2},
                   "coupling": {"beta": 0.2, "z0": 0.003, "path_gain": 1e308}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["couple", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "coupling rate is not finite" in err
        assert not out.exists()

    def test_overflowing_coupling_table_returns_three(self, tmp_path, capsys):
        # finite rates whose product with a charge element overflows: this
        # used to exit 0 with inf rows and -Infinity in summary.json
        payload = {"mode": "couple", "transmon": {"E_C": 0.3, "E_J": 15},
                   "line": {**MODES_LINE, "n_modes": 1},
                   "coupling": {"beta": 1, "z0": 0, "path_gain": 4.3e298}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["couple", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: coupling table is not finite")
        assert not out.exists()

    def test_overflowing_residual_norm_returns_three_on_one_line(self, tmp_path, capsys):
        # numpy's overflow warning and its source line used to come first
        payload = {"mode": "transmon", "transmon": {"E_C": 1e300, "E_J": 1e300}}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["transmon", "--config", write_config(tmp_path, payload),
                             "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: eigenpair residual inf exceeds")
        assert not out.exists()

    def test_subnormal_time_grid_is_not_uniform(self, tmp_path, capsys):
        # the message used to blame "classical integration", which evolve never runs
        payload = {"mode": "evolve", "transmon": {"E_C": 0.3, "E_J": 15},
                   "time_grid": {"t_max": 1e-320, "n_points": 11}}
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: the time grid must be uniformly spaced\n"
        assert not out.exists()

    def test_coarse_evolve_grid_warns_in_three_digits(self, tmp_path):
        # dt * spectral_spread was printed with .2f: about 300 digits here
        payload = {"mode": "evolve", "transmon": {"E_C": 0.3, "E_J": 15, "n_cutoff": 1},
                   "time_grid": {"t_max": 1e300, "n_points": 5}}
        with pytest.warns(UserWarning, match=r"spectral_spread = \d\.\d\de\+300$"):
            assert cli.main(["evolve", "--config", write_config(tmp_path, payload),
                             "--out", str(tmp_path / "out")]) == 0

    COARSE_EVOLVE = {"mode": "evolve", "transmon": {"E_C": 0.3, "E_J": 15, "n_cutoff": 1},
                     "time_grid": {"t_max": 1e300, "n_points": 5}}

    def test_library_warning_is_one_stderr_line(self, tmp_path):
        # Python's own format named the absolute path of cli.py and printed
        # the source line after it
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "fieldcqed.cli", "evolve",
             "--config", write_config(tmp_path, self.COARSE_EVOLVE),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: t_grid too coarse"), lines

    def test_warning_format_does_not_outlive_main(self, tmp_path):
        hooks = (warnings.showwarning, warnings.formatwarning)
        argv = ["evolve", "--config", write_config(tmp_path, self.COARSE_EVOLVE),
                "--out", str(tmp_path / "out")]
        with pytest.warns(UserWarning, match="t_grid too coarse"):
            assert cli.main(argv) == 0
        assert (warnings.showwarning, warnings.formatwarning) == hooks
        # filters stay in force: -W error turns the warning into an exception
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="t_grid too coarse"):
                cli.main(argv)
        assert (warnings.showwarning, warnings.formatwarning) == hooks

    def test_grid_too_coarse_for_its_encoded_universe_returns_three(self, tmp_path, capsys):
        # pi c / delta_omega vanishes beside cavity_length, so the closed
        # universe the grid encodes has no port; no table is written for it
        payload = {"mode": "bath", "bath": {"cavity_length": 1.0, "wave_speed": 1.0,
                                            "n_cavity_modes": 1, "n_bins": 8,
                                            "omega_max": 1e20}}
        out = tmp_path / "out"
        assert cli.main(["bath", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()

    def test_grid_encoding_no_port_under_the_pec_cavity_is_a_config_error(self, tmp_path,
                                                                         capsys):
        # only the closed-universe oracle reads pi c / delta_omega under this
        # closure, so the grid that rounds it away is refused before the run
        payload = {"mode": "bath", "bath": {"cavity_length": 1.0, "wave_speed": 1.0,
                                            "closure": "pec-cavity-pmc-port", "n_bins": 8,
                                            "omega_max": 1e20}}
        out = tmp_path / "out"
        assert cli.main(["bath", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: $.bath.omega_max: omega_max/n_bins = 1.25e+19 encodes no port"
            " beside cavity_length\n")
        assert not out.exists()
        payload["bath"]["omega_max"] = 1e17  # 1 + 2.5e-16 rounds up: the run goes through
        assert cli.main(["bath", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 0

    @pytest.mark.parametrize("omega_max, n_bins", [(1e16, 200), (1e17, 8)])
    def test_coarse_grid_under_the_completion_names_the_grid(self, tmp_path, capsys,
                                                              omega_max, n_bins):
        # the completion term is on, so asking for it would not help
        payload = {"mode": "bath", "bath": {"cavity_length": 1.0, "wave_speed": 1.0,
                                            "n_bins": n_bins, "omega_max": omega_max}}
        out = tmp_path / "out"
        assert cli.main(["bath", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "omega_max/n_bins" in err and "completion term is required" not in err
        assert not out.exists()

    def test_run_too_large_for_memory_returns_three(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 4.66 TiB for an array with shape "
                              "(800000000000,) and data type float64")
        monkeypatch.setattr(cli.tq, "level_sweep", no_memory)
        out = tmp_path / "out"
        assert cli.main(["transmon", "--config", write_config(tmp_path, MINIMAL_TRANSMON),
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: Unable to allocate 4.66 TiB for an array with shape (800000000000,) "
            "and data type float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("result", [
        cli.RunResult({"level": float("inf")}, tables={"t.csv": (["x"], [[1.0]])}),
        cli.RunResult({"level": 1.0}, tables={"t.csv": (["x"], [[1.0]])},
                      reports={"r.json": {"values": [0.5, float("nan")]}}),
    ], ids=["summary-inf", "report-nan"])
    def test_non_finite_report_value_is_a_numeric_error(self, tmp_path, capsys, monkeypatch,
                                                        result):
        # JSON has no Infinity or NaN; the CSV, written first, must not be left behind
        monkeypatch.setitem(cli.SUBCOMMANDS, "transmon", cli.SUBCOMMANDS["transmon"]._replace(
            run=lambda cfg, verbose: result))
        out = tmp_path / "out"
        assert cli.main(["transmon", "--config", write_config(tmp_path, MINIMAL_TRANSMON),
                         "--out", str(out)]) == 3
        name = "summary.json" if "r.json" not in result.reports else "r.json"
        assert capsys.readouterr().err == f"error: {name} would hold a non-finite number\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode, payload, problem", [
        ("couple", {"transmon": {"E_C": 0.3, "E_J": 15}, "line": MODES_LINE,
                    "coupling": {"beta": 0.2, "z0": 0.02}},
         "$.coupling.z0: coupling position lies beyond the line length"),
        ("transmon", {"transmon": {"E_C": 0.3, "E_J": 15, "n_cutoff": 2, "n_levels": 6}},
         "$.transmon.n_levels: more levels than the charge basis holds (5)"),
        ("bath", {"bath": {"cavity_length": 1.0, "wave_speed": 1.0, "n_cavity_modes": 3,
                           "cavity_mode_index": 3}},
         "$.bath.cavity_mode_index: outside the cavity mode range"),
    ])
    def test_cross_field_rules_are_one_config_error(self, tmp_path, capsys, mode, payload,
                                                    problem):
        cfg = write_config(tmp_path, {"mode": mode, **payload})
        out = tmp_path / "out"
        assert cli.main([mode, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not out.exists()

    def test_failure_after_the_sweep_leaves_no_output(self, tmp_path, capsys):
        # the level table is computed before the anharmonicity fails (a free
        # rotor at n_cutoff 1 has only two distinct levels); none of it is written
        payload = {"mode": "transmon", "transmon": {"E_C": 0.3, "E_J": 0, "n_cutoff": 1}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["transmon", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()
        out.mkdir()
        assert cli.main(["transmon", "--config", cfg, "--out", str(out)]) == 3
        assert list(out.iterdir()) == []

    def test_check_failure_returns_four(self, tmp_path, monkeypatch, capsys):
        def fake_run_all(progress=None):
            return ({"stub": [CheckResult("always fails", False, 2.0, 1.0)]},
                    {"stub_scalar": 2.0})
        monkeypatch.setattr(cli.checks, "run_all", fake_run_all)
        assert cli.main(["check", "--out", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert "FAIL" in out
        report = json.loads((tmp_path / "checks.json").read_text())
        assert report["all_passed"] is False
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["outputs"] == ["checks.json"]

    def test_check_pass_prints_and_returns_zero(self, tmp_path, monkeypatch, capsys):
        def fake_run_all(progress=None):
            return ({"stub": [CheckResult("always passes", True, 0.5, 1.0)]},
                    {"stub_scalar": 0.5})
        monkeypatch.setattr(cli.checks, "run_all", fake_run_all)
        assert cli.main(["check", "--out", str(tmp_path)]) == 0
        assert "PASS stub: always passes" in capsys.readouterr().out
        report = json.loads((tmp_path / "checks.json").read_text())
        assert report["all_passed"] is True


def _fmt(x) -> str:
    """The per-cell formatter the CSV writer used before its one row format."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


_CELLS = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300,
                     float("nan"), float("inf"), float("-inf")]),
    st.integers(-(2**53) + 1, 2**53 - 1),
    st.integers(-(2**53) + 1, 2**53 - 1).map(np.int64))


@given(rows=st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(_CELLS, min_size=n, max_size=n), max_size=6)))
def test_row_format_prints_what_the_cell_formatter_did(tmp_path_factory, rows):
    header = [f"c{k}" for k in range(len(rows[0]) if rows else 1)]
    path = tmp_path_factory.mktemp("rows") / "t.csv"
    cli._write_csv(path, header, rows)
    expected = "".join(",".join(_fmt(x) for x in row) + "\n" for row in rows)
    assert path.read_bytes() == (",".join(header) + "\n" + expected).encode()


class TestOutputs:
    def test_identical_configs_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_TRANSMON)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["transmon", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["transmon", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("transmon_levels.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("ratio", [2.0, 17.0, 64.0])
    def test_levels_csv_matches_dense_reference(self, tmp_path, ratio, sign):
        """The sweep's levels, byte for byte, against rows formatted from a
        dense divide-and-conquer eigensolve of the assembled Hamiltonian."""
        block = {"E_C": 0.3, "E_J": 0.3 * ratio, "n_cutoff": 20, "tunneling_sign": sign}
        payload = {"mode": "transmon", "transmon": block,
                   "sweep": {"start": 0.0, "stop": 1.0, "n_points": 41}}
        cfg = write_config(tmp_path, payload)
        assert cli.main(["transmon", "--config", cfg, "--out", str(tmp_path)]) == 0
        tsign = tq.TunnelingSign(sign)
        lines = ["n_g,level,omega"]
        for ng in np.linspace(0.0, 1.0, 41):
            p = tq.TransmonParams(0.3, 0.3 * ratio, float(ng), 20, tsign)
            w, _ = eigh(tq.build_charge_hamiltonian(p).mat, driver="evd")
            lines += [f"{ng:.17g},{lvl},{w[lvl]:.17g}" for lvl in range(4)]
        expected = ("\n".join(lines) + "\n").encode()
        assert (tmp_path / "transmon_levels.csv").read_bytes() == expected

    def test_csv_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_TRANSMON)
        cli.main(["transmon", "--config", cfg, "--out", str(tmp_path)])
        data = np.genfromtxt(tmp_path / "transmon_levels.csv", delimiter=",",
                             names=True)
        assert data.dtype.names == ("n_g", "level", "omega")
        assert data.size == 5 * 4
        # full double precision survives the trip
        assert data["omega"][0] == pytest.approx(-12.077033863970037, rel=1e-15)

    def test_csv_uses_lf_endings(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_TRANSMON)
        cli.main(["transmon", "--config", cfg, "--out", str(tmp_path)])
        raw = (tmp_path / "transmon_levels.csv").read_bytes()
        assert b"\r" not in raw

    def test_units_flag_recorded(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_TRANSMON)
        cli.main(["transmon", "--config", cfg, "--out", str(tmp_path),
                  "--units", "si"])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["units"] == "si"

    def test_out_dir_from_config(self, tmp_path):
        payload = dict(MINIMAL_TRANSMON, out_dir=str(tmp_path / "fromcfg"))
        cfg = write_config(tmp_path, payload)
        assert cli.main(["transmon", "--config", cfg]) == 0
        assert (tmp_path / "fromcfg" / "transmon_levels.csv").exists()

    def test_modes_table(self, tmp_path):
        payload = {"mode": "modes",
                   "line": {"L_pul": 4e-7, "C_pul": 1.6e-10, "length": 0.0125,
                            "n_modes": 3, "convention": "full-length"}}
        cfg = write_config(tmp_path, payload)
        assert cli.main(["modes", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = np.genfromtxt(tmp_path / "line_modes.csv", delimiter=",", names=True)
        assert data.dtype.names == ("mode", "omega", "n_v", "n_i")
        assert data["omega"][0] == pytest.approx(2 * np.pi * 5e9, rel=1e-12)
        assert data["n_v"][0] == pytest.approx(9.1010e-7, rel=2e-4)

    def test_couple_tabulates_past_max_dim(self, tmp_path):
        # 3 levels x 40 x 40 photons: the table needs no product-space
        # matrix, so couple runs past MAX_DIM (it used to exit 3)
        payload = {"mode": "couple", "transmon": {"E_C": 0.3, "E_J": 15, "n_levels": 3},
                   "line": {**MODES_LINE, "n_modes": 2},
                   "coupling": {"beta": 0.2, "z0": 0.003, "fock_cutoffs": [40, 40]}}
        cfg = write_config(tmp_path, payload)
        assert cli.main(["couple", "--config", cfg, "--out", str(tmp_path)]) == 0
        scalars = json.loads((tmp_path / "summary.json").read_text())["scalars"]
        assert scalars["hilbert_dim"] == 4800 > coupled.MAX_DIM
        ts = tq.solve(tq.TransmonParams(EC=0.3, EJ=15.0))
        line = tx.LineParams(**MODES_LINE)
        modes = tx.mode_operator_coeffs(tx.compute_modes(line, 2), tx.matched_cross_section(line))
        cs = coupled.CouplingSpec(beta=0.2, z0=0.003)
        data = np.genfromtxt(tmp_path / "coupling_strengths.csv", delimiter=",", names=True)
        keys = [(int(i), int(j), int(mode)) for i, j, mode in zip(data["i"], data["j"], data["mode"])]
        assert keys == [(0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2), (1, 2, 1), (1, 2, 2)]
        assert [coupled.coupling_strength(ts, modes, cs, i, j, mode - 1)
                for i, j, mode in keys] == data["g"].tolist()
        assert scalars["g_01_mode1"] == data["g"][0]

    def test_couple_reads_an_explicit_cross_section(self, tmp_path):
        xsec = {"w": 1e-5, "d": 2e-6, "eps_r": 11.7}
        payload = {"mode": "couple", "transmon": {"E_C": 0.3, "E_J": 15, "n_levels": 3},
                   "line": {**MODES_LINE, "n_modes": 2}, "cross_section": xsec,
                   "coupling": {"beta": 0.2, "z0": 0.003}}
        assert cli.main(["couple", "--config", write_config(tmp_path, payload),
                         "--out", str(tmp_path)]) == 0
        ts = tq.solve(tq.TransmonParams(EC=0.3, EJ=15.0))
        line = tx.LineParams(**MODES_LINE)
        rates = {name: coupled.mode_rates(tx.mode_operator_coeffs(tx.compute_modes(line, 2), x),
                                          coupled.CouplingSpec(beta=0.2, z0=0.003))
                 for name, x in (("explicit", tx.tem_cross_section(**xsec)),
                                 ("matched", tx.matched_cross_section(line)))}
        g = coupled.coupling_table(ts, rates["explicit"], 3)
        data = np.genfromtxt(tmp_path / "coupling_strengths.csv", delimiter=",", names=True)
        rows = zip(data["i"].astype(int), data["j"].astype(int), data["mode"].astype(int))
        assert [g[i, j, mode - 1] for i, j, mode in rows] == data["g"].tolist()
        assert not np.allclose(rates["explicit"], rates["matched"])

    def test_couple_builds_one_table(self, tmp_path, monkeypatch):
        # one rate vector and at most one charge element per ordered level pair
        calls = {"mode_rates": 0, "charge_matrix_element": 0}
        for name in calls:
            real = getattr(coupled, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(coupled, name, counted)
        payload = {"mode": "couple", "transmon": {"E_C": 0.3, "E_J": 15, "n_levels": 4},
                   "line": {**MODES_LINE, "n_modes": 3}, "coupling": {"beta": 0.2, "z0": 0.003}}
        cfg = write_config(tmp_path, payload)
        assert cli.main(["couple", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert calls["mode_rates"] == 1
        assert calls["charge_matrix_element"] <= 4 * 4

    def test_evolve_series(self, tmp_path):
        payload = {"mode": "evolve", "transmon": {"E_C": 0.3, "E_J": 15},
                   "time_grid": {"t_max": 1.0, "n_points": 2001}}
        cfg = write_config(tmp_path, payload)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = np.genfromtxt(tmp_path / "evolution.csv", delimiter=",", names=True)
        assert data.dtype.names == ("time", "norm", "energy", "n_expect",
                                    "sin_phi_expect")
        assert np.allclose(data["norm"], 1.0, atol=1e-12)
        assert np.ptp(data["n_expect"]) > 0.1

    EVOLVE = {"mode": "evolve", "transmon": {"E_C": 0.3, "E_J": 15, "n_g": 0.2},
              "time_grid": {"t_max": 1.0, "n_points": 2001}, "initial_levels": [0, 1, 2]}

    def test_evolve_runs_one_evolution(self, tmp_path, monkeypatch):
        calls = []
        real_evolve = dyn.evolve
        monkeypatch.setattr(dyn, "evolve", lambda *a, **k: calls.append(1) or real_evolve(*a, **k))
        cfg = write_config(tmp_path, self.EVOLVE)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_evolve_outputs_match_two_evolution_path(self, tmp_path):
        """The Ehrenfest residual taken from the run's own trajectory writes
        the same bytes as evolving a second time in ehrenfest_check."""
        cfg = cli.parse_config(json.dumps(self.EVOLVE))
        p = cli._transmon_params(cfg["transmon"])
        s = tq.solve(p)
        psi0 = dyn.StateVector.from_amplitudes(np.sum(s.eigvecs[:, [0, 1, 2]], axis=1))
        t = np.linspace(0.0, 1.0, 2001)
        traj = dyn.evolve(tq.build_charge_hamiltonian(p), psi0, t, observables={
            "n_expect": tq.charge_number_op(p.n_cutoff),
            "sin_phi_expect": tq.sin_phi_op(p.n_cutoff, p.sign),
        })
        ref = tmp_path / "ref"
        ref.mkdir()
        cols = ["time", "norm", "energy", "n_expect", "sin_phi_expect"]
        cli._write_outputs(ref, cfg, cli.RunResult({
            "ehrenfest_residual": float(dyn.ehrenfest_check(p, psi0, t)),
            "norm_drift": float(np.max(np.abs(traj.series["norm"] - 1.0))),
        }, {"evolution.csv": (cols, zip(t, *(traj.series[c] for c in cols[1:])))}))
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", write_config(tmp_path, self.EVOLVE),
                         "--out", str(out)]) == 0
        for name in ("evolution.csv", "summary.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_evolve_without_josephson_energy_writes_valid_json(self, tmp_path):
        # the residual's floor 1e-3 E_J was 0 at E_J = 0, which the schema
        # allows, and summary.json held "ehrenfest_residual": Infinity
        payload = {"mode": "evolve", "transmon": {"E_C": 1.0, "E_J": 0.0, "n_cutoff": 3},
                   "time_grid": {"t_max": 1.0, "n_points": 11}}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the 11-point grid is coarse
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["evolve", "--config", write_config(tmp_path, payload),
                             "--out", str(tmp_path)]) == 0

        def reject(name):
            raise ValueError(f"summary.json holds {name}, which is not JSON")
        summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
        assert 0.0 <= summary["scalars"]["ehrenfest_residual"] < 1e-9

    def test_summary_lists_exactly_the_files_written(self, tmp_path):
        payload = {"mode": "bath",
                   "bath": {"cavity_length": 1.0, "wave_speed": 1.0, "total_length": 10.0,
                            "n_cavity_modes": 20, "n_bins": 200, "coupling_scale": 0.3},
                   "time_grid": {"t_max": 5.0, "n_points": 51}}
        out = tmp_path / "out"
        assert cli.main(["bath", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["outputs"] == ["bath_decay.csv", "bath_spectrum.csv"]
        assert sorted(p.name for p in out.iterdir()) == summary["outputs"] + ["summary.json"]

    def test_bath_spectrum_against_encoded_universe(self, tmp_path):
        payload = {"mode": "bath",
                   "bath": {"cavity_length": 1.0, "wave_speed": 1.0,
                            "total_length": 10.0, "n_cavity_modes": 20,
                            "n_bins": 200}}
        cfg = write_config(tmp_path, payload)
        assert cli.main(["bath", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = np.genfromtxt(tmp_path / "bath_spectrum.csv", delimiter=",",
                             names=True)
        assert np.all(data["rel_err"][:5] < 5e-3)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["scalars"]["spectrum_rel_err_low5"] < 5e-3


# Config fuzzer: objects shaped like the schema must either parse or be
# refused as a ConfigError, never raise anything else.  Half the draws keep
# to the schema's types and bounds (values at the bounds included), so they
# reach the cross-field rules and often parse; the other half drop required
# keys, add unknown ones and put wrong types and non-finite numbers anywhere.
_ANY = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                 st.floats(), st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
_EDGE_NUMBERS = st.sampled_from([0, 1, 2, -1, 0.0, -0.0, 0.5, 5e-324, 1e-300, 1e300,
                                 1.7976931348623157e308, -1e300])
_OFTEN, _SOMETIMES, _RARELY = (st.sampled_from([True] * k + [False] * (8 - k))
                               for k in (7, 4, 1))


def _draw_value(draw, schema: dict, wild: bool):
    if wild and draw(_RARELY):
        return draw(_ANY)
    if "enum" in schema:
        return draw(st.sampled_from(schema["enum"]))
    kind = schema.get("type")
    if kind == "object":
        required = schema.get("required", ())
        value = {key: _draw_value(draw, sub, wild) for key, sub in schema["properties"].items()
                 if draw(_SOMETIMES) or key in required and not (wild and draw(_RARELY))}
        if wild and draw(_RARELY):
            value[draw(st.text(max_size=4))] = draw(_ANY)
        return value
    if kind == "array":
        return [_draw_value(draw, schema["items"], wild) for _ in range(draw(st.integers(1, 4)))]
    if kind == "integer":
        low = schema.get("minimum", -1)
        return draw(st.integers() if wild else st.integers(low, low + 6))
    if kind == "number":
        if wild:
            return draw(st.one_of(_EDGE_NUMBERS, st.floats()))
        return draw(st.floats(min_value=schema.get("minimum", schema.get("exclusiveMinimum")),
                              max_value=schema.get("maximum"),
                              exclude_min="exclusiveMinimum" in schema,
                              allow_nan=False, allow_infinity=False))
    if kind == "boolean":
        return draw(st.booleans())
    return draw(st.text(max_size=8))


@st.composite
def _configs(draw):
    wild = draw(st.booleans())
    mode = draw(st.sampled_from([*cli.SUBCOMMANDS, "other", None] if wild else [*cli.SUBCOMMANDS]))
    blocks = cli.SUBCOMMANDS[mode].blocks if mode in cli.SUBCOMMANDS else ()
    config = {} if mode is None else {"mode": mode}
    for name, sub in cli._SCHEMA["properties"].items():
        if name != "mode" and draw(_OFTEN if name in blocks else _RARELY):
            config[name] = _draw_value(draw, sub, wild)
    if wild and draw(_RARELY):
        config[draw(st.text(max_size=4))] = draw(_ANY)
    return config


class TestConfigFuzz:
    @given(config=_configs(), default_mode=st.sampled_from([None, *cli.SUBCOMMANDS]))
    def test_parse_config_returns_a_config_or_raises_config_error(self, config, default_mode):
        try:
            cfg = cli.parse_config(json.dumps(config), default_mode=default_mode)
        except ConfigError as exc:
            assert exc.problems
            assert all(isinstance(p, str) and "\n" not in p for p in exc.problems)
        else:
            assert isinstance(cfg, dict)
            assert all(block in cfg for block in cli.SUBCOMMANDS[cfg["mode"]].blocks)

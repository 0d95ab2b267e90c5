import json
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh

from fieldcqed import cli
from fieldcqed import dynamics as dyn
from fieldcqed import transmon as tq
from fieldcqed.checks import CheckResult
from fieldcqed.errors import ConfigError

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
    def test_minimal_transmon_block(self):
        cfg = cli.parse_config(json.dumps(MINIMAL_TRANSMON))
        assert cfg.mode == "transmon"
        assert cfg.transmon["E_C"] == 0.3
        assert cfg.units == "natural"

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
        assert cli.parse_config(json.dumps(bath)).time_grid["n_points"] == 2

    def test_mode_injected_from_subcommand(self):
        cfg = cli.parse_config("{}", default_mode="check")
        assert cfg.mode == "check"


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
    ])
    def test_bad_values_fail_as_config_errors(self, tmp_path, capsys, mode, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([mode, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")
        assert not out.exists() or not any(out.iterdir())

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
        assert not any(out.iterdir())

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

    def test_check_pass_prints_and_returns_zero(self, tmp_path, monkeypatch, capsys):
        def fake_run_all(progress=None):
            return ({"stub": [CheckResult("always passes", True, 0.5, 1.0)]},
                    {"stub_scalar": 0.5})
        monkeypatch.setattr(cli.checks, "run_all", fake_run_all)
        assert cli.main(["check", "--out", str(tmp_path)]) == 0
        assert "PASS stub: always passes" in capsys.readouterr().out
        report = json.loads((tmp_path / "checks.json").read_text())
        assert report["all_passed"] is True


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
        p = cli._transmon_params(cfg.transmon)
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
        cli._write_csv(ref / "evolution.csv", cols, zip(t, *(traj.series[c] for c in cols[1:])))
        cli._summary(ref, cfg, ["evolution.csv"], {
            "ehrenfest_residual": float(dyn.ehrenfest_check(p, psi0, t)),
            "norm_drift": float(np.max(np.abs(traj.series["norm"] - 1.0))),
        })
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", write_config(tmp_path, self.EVOLVE),
                         "--out", str(out)]) == 0
        for name in ("evolution.csv", "summary.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

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

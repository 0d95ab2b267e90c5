"""Batch front-end: JSON config in, CSV tables and a JSON summary out.

Outputs are deterministic: identical configs produce byte-identical files.
Numbers are written with 17 significant digits, CSV rows end in LF, and
JSON keys are sorted.  Exit codes: 0 success, 2 config error, 3 numeric or
model error, 4 check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import jsonschema
import numpy as np

from . import bath as bath_mod
from . import checks
from . import coupled as coupled_mod
from . import dynamics as dyn
from . import transmon as tq
from . import txline as tx
from .errors import (
    CapacityError,
    ConfigError,
    ContractViolationError,
    DimensionMismatchError,
    ModelError,
    NumericError,
    StepSizeError,
)

MODES = ("transmon", "modes", "couple", "evolve", "bath", "check")

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["mode"],
    "properties": {
        "mode": {"enum": list(MODES)},
        "units": {"enum": ["si", "natural"]},
        "out_dir": {"type": "string"},
        "transmon": {
            "type": "object",
            "additionalProperties": False,
            "required": ["E_C", "E_J"],
            "properties": {
                "E_C": _POSITIVE,
                "E_J": {"type": "number", "minimum": 0},
                "n_g": {"type": "number"},
                "n_cutoff": {"type": "integer", "minimum": 1},
                "tunneling_sign": {"enum": ["plus", "minus"]},
                "n_levels": {"type": "integer", "minimum": 2},
            },
        },
        "line": {
            "type": "object",
            "additionalProperties": False,
            "required": ["L_pul", "C_pul", "length"],
            "properties": {
                "L_pul": _POSITIVE,
                "C_pul": _POSITIVE,
                "length": _POSITIVE,
                "boundary": {"enum": ["open-open", "short-short", "open-short"]},
                "convention": {"enum": ["integral", "full-length"]},
                "n_modes": {"type": "integer", "minimum": 1},
            },
        },
        "cross_section": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "w": _POSITIVE,
                "d": _POSITIVE,
                "eps_r": {"type": "number", "minimum": 1},
                "matched": {"type": "boolean"},
            },
        },
        "coupling": {
            "type": "object",
            "additionalProperties": False,
            "required": ["beta"],
            "properties": {
                "beta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "z0": {"type": "number", "minimum": 0},
                "include_beta": {"type": "boolean"},
                "path_gain": {"type": "number"},
                "fock_cutoffs": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 1,
                },
            },
        },
        "bath": {
            "type": "object",
            "additionalProperties": False,
            "required": ["cavity_length", "wave_speed"],
            "properties": {
                "cavity_length": _POSITIVE,
                "wave_speed": _POSITIVE,
                "total_length": _POSITIVE,
                "closure": {"enum": ["pmc-cavity-pec-port", "pec-cavity-pmc-port"]},
                "n_cavity_modes": {"type": "integer", "minimum": 1},
                "n_bins": {"type": "integer", "minimum": 8},
                "omega_max": _POSITIVE,
                "coupling_scale": {"type": "number", "minimum": 0},
                "cavity_mode_index": {"type": "integer", "minimum": 0},
                "boundary_completion": {"type": "boolean"},
            },
        },
        "time_grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["t_max"],
            "properties": {
                "t_max": _POSITIVE,
                "n_points": {"type": "integer", "minimum": 2},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "n_points": {"type": "integer", "minimum": 2},
            },
        },
        "initial_levels": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
    },
}

_VALIDATOR = jsonschema.Draft202012Validator(_SCHEMA)

_REQUIRED_BLOCKS = {
    "transmon": ("transmon",),
    "modes": ("line",),
    "couple": ("transmon", "line", "coupling"),
    "evolve": ("transmon", "time_grid"),
    "bath": ("bath",),
    "check": (),
}


@dataclass(frozen=True)
class RunConfig:
    mode: str
    units: str = "natural"
    out_dir: str = "."
    transmon: dict = None
    line: dict = None
    cross_section: dict = None
    coupling: dict = None
    bath: dict = None
    time_grid: dict = None
    sweep: dict = None
    initial_levels: tuple = None


def _cross_field_problems(data: dict) -> list:
    mode = data["mode"]
    problems = []
    for block in _REQUIRED_BLOCKS[mode]:
        if block not in data:
            problems.append(f"$: mode '{mode}' requires a '{block}' block")
    if problems:
        return problems
    if mode == "couple":
        n_modes = data["line"].get("n_modes", 1)
        cutoffs = data["coupling"].get("fock_cutoffs")
        if cutoffs is not None and len(cutoffs) != n_modes:
            problems.append(
                f"$.coupling.fock_cutoffs: expected {n_modes} entries "
                f"(one per line mode), got {len(cutoffs)}")
        z0 = data["coupling"].get("z0", 0.0)
        if z0 > data["line"]["length"]:
            problems.append("$.coupling.z0: coupling position lies beyond the line length")
    if mode == "evolve" and data["time_grid"].get("n_points", 3) < 3:
        problems.append(
            "$.time_grid.n_points: mode 'evolve' needs at least 3 points "
            "for the Ehrenfest derivative")
    if mode in ("transmon", "couple", "evolve"):
        dim = 2 * data["transmon"].get("n_cutoff", 20) + 1
        if data["transmon"].get("n_levels", 2) > dim:
            problems.append(
                f"$.transmon.n_levels: more levels than the charge basis holds ({dim})")
        for lvl in data.get("initial_levels", ()):
            if lvl >= dim:
                problems.append(
                    f"$.initial_levels: level {lvl} outside the charge basis ({dim})")
    if mode == "bath":
        b = data["bath"]
        total = b.get("total_length", 10.0 * b["cavity_length"])
        if total <= b["cavity_length"]:
            problems.append("$.bath.total_length: must exceed cavity_length")
        if b.get("cavity_mode_index", 0) >= b.get("n_cavity_modes", 20):
            problems.append("$.bath.cavity_mode_index: outside the cavity mode range")
    return problems


def _reject_constant(name: str):
    raise ConfigError([f"{name} is not a valid number: config values must be finite"])


def parse_config(text: str, default_mode: str = None) -> RunConfig:
    """Validate a JSON run configuration, reporting every violation at once."""
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"line {exc.lineno} column {exc.colno}: {exc.msg}"]) from exc
    if isinstance(data, dict) and "mode" not in data and default_mode is not None:
        data = {**data, "mode": default_mode}
    problems = [
        f"{err.json_path}: {err.message}"
        for err in sorted(_VALIDATOR.iter_errors(data),
                          key=lambda e: (e.json_path, e.message))
    ]
    if not problems:
        problems = _cross_field_problems(data)
    if problems:
        raise ConfigError(problems)
    return RunConfig(
        mode=data["mode"],
        units=data.get("units", "natural"),
        out_dir=data.get("out_dir", "."),
        transmon=data.get("transmon"),
        line=data.get("line"),
        cross_section=data.get("cross_section"),
        coupling=data.get("coupling"),
        bath=data.get("bath"),
        time_grid=data.get("time_grid"),
        sweep=data.get("sweep"),
        initial_levels=tuple(data["initial_levels"]) if "initial_levels" in data else None,
    )


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def _summary(out_dir: Path, cfg: RunConfig, outputs, scalars: dict):
    _write_json(out_dir / "summary.json", {
        "mode": cfg.mode,
        "units": cfg.units,
        "outputs": sorted(outputs),
        "scalars": scalars,
    })


def _transmon_params(block: dict) -> tq.TransmonParams:
    sign = (tq.TunnelingSign.MINUS if block.get("tunneling_sign") == "minus"
            else tq.TunnelingSign.PLUS)
    return tq.TransmonParams(EC=block["E_C"], EJ=block["E_J"],
                             ng=block.get("n_g", 0.0),
                             n_cutoff=block.get("n_cutoff", 20), sign=sign)


_BOUNDARY = {
    "open-open": tx.BoundaryCondition.OPEN_OPEN,
    "short-short": tx.BoundaryCondition.SHORT_SHORT,
    "open-short": tx.BoundaryCondition.OPEN_SHORT,
}
_CONVENTION = {
    "integral": tx.LongitudinalNorm.INTEGRAL,
    "full-length": tx.LongitudinalNorm.FULL_LENGTH,
}


def _line_params(block: dict) -> tx.LineParams:
    return tx.LineParams(block["L_pul"], block["C_pul"], block["length"],
                         _BOUNDARY[block.get("boundary", "open-open")])


def _mode_set(cfg: RunConfig):
    line = _line_params(cfg.line)
    xs = cfg.cross_section or {}
    if "w" in xs and "d" in xs:
        xsec = tx.tem_cross_section(xs["w"], xs["d"], xs.get("eps_r", 1.0))
    else:
        xsec = tx.matched_cross_section(line, d=xs.get("d", 5e-6))
    conv = _CONVENTION[cfg.line.get("convention", "integral")]
    modes = tx.compute_modes(line, cfg.line.get("n_modes", 1), conv)
    return tx.mode_operator_coeffs(modes, xsec), xsec


def run_transmon(cfg: RunConfig, out_dir: Path, verbose: bool) -> bool:
    p0 = _transmon_params(cfg.transmon)
    n_levels = min(cfg.transmon.get("n_levels", 4), p0.dim)
    sweep = cfg.sweep or {}
    ngs = np.linspace(sweep.get("start", 0.0), sweep.get("stop", 1.0),
                      sweep.get("n_points", 21))
    rows = []
    for ng in ngs:
        s = tq.solve(replace(p0, ng=float(ng)))
        rows.extend((ng, lvl, s.levels[lvl]) for lvl in range(n_levels))
    _write_csv(out_dir / "transmon_levels.csv", ["n_g", "level", "omega"], rows)
    s0 = tq.solve(p0)
    scalars = {
        "anharmonicity": float(tq.anharmonicity(s0)),
        "omega01": float(s0.transition(0, 1)),
        "charge_element_01": float(abs(tq.charge_matrix_element(s0, 0, 1))),
        "ground_dispersion": float(tq.charge_dispersion(p0, level=0)),
    }
    _summary(out_dir, cfg, ["transmon_levels.csv"], scalars)
    return True


def run_modes(cfg: RunConfig, out_dir: Path, verbose: bool) -> bool:
    modes, _ = _mode_set(cfg)
    rows = [(l + 1, modes.freqs[l], modes.n_v[l], modes.n_i[l])
            for l in range(modes.freqs.size)]
    _write_csv(out_dir / "line_modes.csv", ["mode", "omega", "n_v", "n_i"], rows)
    line = _line_params(cfg.line)
    scalars = {"phase_velocity": float(line.v_p),
               "omega_1": float(modes.freqs[0])}
    _summary(out_dir, cfg, ["line_modes.csv"], scalars)
    return True


def _coupling_spec(block: dict) -> coupled_mod.CouplingSpec:
    return coupled_mod.CouplingSpec(
        beta=block["beta"], z0=block.get("z0", 0.0),
        include_beta=block.get("include_beta", True),
        path_gain=block.get("path_gain", 1.0))


def run_couple(cfg: RunConfig, out_dir: Path, verbose: bool) -> bool:
    ts = tq.solve(_transmon_params(cfg.transmon))
    modes, _ = _mode_set(cfg)
    cs = _coupling_spec(cfg.coupling)
    m = min(cfg.transmon.get("n_levels", 3), ts.n_levels)
    n_modes = modes.freqs.size
    cutoffs = tuple(cfg.coupling.get("fock_cutoffs", (4,) * n_modes))
    built = coupled_mod.build_full_hamiltonian(ts, modes, cs, m, cutoffs)
    rows = [(i, j, l + 1, built.g_table[i, j, l])
            for i in range(m) for j in range(i + 1, m) for l in range(n_modes)]
    _write_csv(out_dir / "coupling_strengths.csv", ["i", "j", "mode", "g"], rows)
    scalars = {
        "g_01_mode1": float(built.g_table[0, 1, 0]),
        "beta_eff": float(cs.beta_eff),
        "hilbert_dim": int(built.dim),
    }
    _summary(out_dir, cfg, ["coupling_strengths.csv"], scalars)
    return True


def run_evolve(cfg: RunConfig, out_dir: Path, verbose: bool) -> bool:
    p = _transmon_params(cfg.transmon)
    s = tq.solve(p)
    levels = cfg.initial_levels or (0, 1)
    amps = np.sum(s.eigvecs[:, list(levels)], axis=1)
    psi0 = dyn.StateVector.from_amplitudes(amps)
    n_points = cfg.time_grid.get("n_points", 1001)
    t = np.linspace(0.0, cfg.time_grid["t_max"], n_points)
    h = tq.build_charge_hamiltonian(p)
    traj = dyn.evolve(h, psi0, t, observables={
        "n_expect": tq.charge_number_op(p.n_cutoff),
        "sin_phi_expect": tq.sin_phi_op(p.n_cutoff, p.sign),
    })
    # every scalar before the first file, so a failure leaves no partial output
    scalars = {
        "ehrenfest_residual": dyn.ehrenfest_residual(
            p, t, traj.series["n_expect"], traj.series["sin_phi_expect"]),
        "norm_drift": float(np.max(np.abs(traj.series["norm"] - 1.0))),
    }
    cols = ["time", "norm", "energy", "n_expect", "sin_phi_expect"]
    rows = zip(t, *(traj.series[c] for c in cols[1:]))
    _write_csv(out_dir / "evolution.csv", cols, rows)
    _summary(out_dir, cfg, ["evolution.csv"], scalars)
    return True


def run_bath(cfg: RunConfig, out_dir: Path, verbose: bool) -> bool:
    b = cfg.bath
    closure = (bath_mod.InterfaceClosure.PEC_CAVITY_PMC_PORT
               if b.get("closure") == "pec-cavity-pmc-port"
               else bath_mod.InterfaceClosure.PMC_CAVITY_PEC_PORT)
    part = bath_mod.RegionPartition(
        cavity_length=b["cavity_length"], wave_speed=b["wave_speed"],
        interface_bc=closure, oracle_total_length=b.get("total_length"))
    cavity = bath_mod.cavity_modes_1d(part, b.get("n_cavity_modes", 20))
    n_bins = b.get("n_bins", 200)
    omega_max = b.get("omega_max",
                      n_bins * np.pi * part.wave_speed / part.port_length)
    disc = bath_mod.coupling_coefficients(
        part, cavity, bath_mod.port_continuum(part, omega_max, n_bins))
    lam = b.get("coupling_scale", 1.0)
    completion = b.get("boundary_completion", True)
    freqs = bath_mod.normal_mode_spectrum(cavity, disc, lam, completion)
    n_report = min(10, freqs.size)
    # closed universe the grid actually encodes: grid spacing pi*c/delta
    # sets the effective port length (equals total_length when commensurate)
    l_eff = part.cavity_length + np.pi * part.wave_speed / disc.delta_omega
    exact = np.arange(1, n_report + 1) * np.pi * part.wave_speed / l_eff
    rows = [(i + 1, freqs[i], exact[i], abs(freqs[i] - exact[i]) / exact[i])
            for i in range(n_report)]
    _write_csv(out_dir / "bath_spectrum.csv",
               ["mode", "omega", "omega_global", "rel_err"], rows)
    outputs = ["bath_spectrum.csv"]
    scalars = {"spectrum_rel_err_low5": float(
        max(abs(freqs[i] - exact[i]) / exact[i] for i in range(min(5, n_report))))}
    if cfg.time_grid is not None:
        t = np.linspace(0.0, cfg.time_grid["t_max"],
                        cfg.time_grid.get("n_points", 601))
        traj = bath_mod.decay_simulation(disc, b.get("cavity_mode_index", 0), t,
                                         lam, completion)
        _write_csv(out_dir / "bath_decay.csv",
                   ["time", "cavity_population", "norm"],
                   zip(t, traj.series["cavity_population"], traj.series["norm"]))
        outputs.append("bath_decay.csv")
        for key in ("kappa_fit", "kappa_golden_rule", "recurrence_time"):
            if key in traj.metadata:
                scalars[key] = float(traj.metadata[key])
    _summary(out_dir, cfg, outputs, scalars)
    return True


def run_check(cfg: RunConfig, out_dir: Path, verbose: bool) -> bool:
    progress = (lambda msg: print(msg, file=sys.stderr)) if verbose else None
    results, scalars = checks.run_all(progress)
    all_passed = True
    payload = {}
    for suite, items in results.items():
        payload[suite] = [r.as_dict() for r in items]
        for r in items:
            tag = "PASS" if r.passed else "FAIL"
            all_passed &= r.passed
            print(f"{tag} {suite}: {r.name} (value {r.value:.6g}, bound {r.bound:.6g})")
    _write_json(out_dir / "checks.json", {
        "all_passed": all_passed,
        "scalars": scalars,
        "suites": payload,
    })
    _summary(out_dir, cfg, ["checks.json"], scalars)
    return all_passed


_RUNNERS = {
    "transmon": run_transmon,
    "modes": run_modes,
    "couple": run_couple,
    "evolve": run_evolve,
    "bath": run_bath,
    "check": run_check,
}

_HELP = {
    "transmon": "sweep offset charge and tabulate transmon levels",
    "modes": "tabulate transmission-line mode frequencies and amplitudes",
    "couple": "tabulate transmon-resonator coupling strengths",
    "evolve": "integrate a transmon state and record observables",
    "bath": "partitioned cavity/port spectrum and decay simulation",
    "check": "run the built-in oracle suites and report PASS/FAIL",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="JSON run configuration")
    common.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default from config, else cwd)")
    common.add_argument("--units", choices=["si", "natural"], default=None,
                        help="unit system label recorded in outputs")
    common.add_argument("--verbose", action="store_true")
    parser = argparse.ArgumentParser(
        prog="fieldcqed",
        description="circuit QED field/circuit correspondence toolkit")
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in MODES:
        sub.add_parser(name, help=_HELP[name], parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            path = Path(args.config)
            if not path.is_file():
                raise ConfigError([f"config file not found: {path}"])
            text = path.read_text(encoding="utf-8")
        else:
            text = "{}"
        cfg = parse_config(text, default_mode=args.mode)
        if cfg.mode != args.mode:
            raise ConfigError(
                [f"$.mode: config says '{cfg.mode}' but subcommand is '{args.mode}'"])
        if args.units is not None:
            cfg = replace(cfg, units=args.units)
        out_dir = Path(args.out) if args.out is not None else Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        ok = _RUNNERS[cfg.mode](cfg, out_dir, args.verbose)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (NumericError, ModelError, StepSizeError, ContractViolationError,
            CapacityError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 4


if __name__ == "__main__":
    sys.exit(main())

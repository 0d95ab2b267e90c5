"""Batch front-end: JSON config in, CSV tables and a JSON summary out.

Outputs are deterministic: identical configs produce byte-identical files.
Numbers are written with 17 significant digits, CSV rows end in LF, and
JSON keys are sorted.  Exit codes: 0 success, 2 config error (an unreadable
config file and an output path that is not a directory or cannot be written
included), 3 numeric or model error (a run too large for memory included), 4
check failure.  Runners only compute; ``main`` checks the output path before
the runner runs, then creates the output directory and writes every file
after the runner has returned, and a write that fails removes what the run
wrote, so a run that fails leaves nothing behind.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import jsonschema
import numpy as np

from . import bath as bath_mod
from . import checks
from . import coupled as coupled_mod
from . import dynamics as dyn
from . import transmon as tq
from . import txline as tx
from .errors import ConfigError, FieldCqedError, ModelError

UNITS = ("si", "natural")


@dataclass(frozen=True)
class RunResult:
    """What a runner computed: CSV tables by file name as (header, rows),
    JSON reports by file name, the summary scalars, and the check verdict."""
    scalars: dict
    tables: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    passed: bool = True


def _write_csv(path: Path, header, rows):
    # level and mode indices are far below 2**53, so %.17g prints them as str(int) does
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % tuple(r) for r in rows)


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_outputs(out_dir: Path, cfg: dict, result: RunResult):
    """Write every file of ``result``, then ``summary.json``, into ``out_dir``.  On an
    ``OSError``, remove the files this call was writing and the directories it
    created, then re-raise; the old contents of an overwritten file are lost."""
    reports = {**result.reports, "summary.json": {
        "mode": cfg["mode"], "units": cfg.get("units", "natural"),
        "outputs": sorted([*result.tables, *result.reports]), "scalars": result.scalars}}
    created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    started = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in result.tables.items():
            started.append(out_dir / name)
            _write_csv(out_dir / name, header, rows)
        for name, payload in reports.items():
            started.append(out_dir / name)
            _write_json(out_dir / name, payload)
    except OSError:
        for path in started:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        for path in created:  # deepest first
            with contextlib.suppress(OSError):
                path.rmdir()
        raise


# defaults of the blocks that both a runner and a config rule read; the
# transmon and coupling blocks keep theirs in _transmon_params and _coupling_spec
_DEFAULTS = {
    "line": {"boundary": "open-open", "convention": "integral", "n_modes": 1},
    "bath": {"closure": "pmc-cavity-pec-port", "n_cavity_modes": 20, "n_bins": 200,
             "coupling_scale": 1.0, "cavity_mode_index": 0, "boundary_completion": True},
}


def _block(cfg: dict, name: str) -> dict:
    """Config block ``name`` with its ``_DEFAULTS`` filled in."""
    return {**_DEFAULTS[name], **cfg[name]}


def _transmon_params(block: dict) -> tq.TransmonParams:
    return tq.TransmonParams(EC=block["E_C"], EJ=block["E_J"],
                             ng=block.get("n_g", 0.0),
                             n_cutoff=block.get("n_cutoff", 20),
                             sign=tq.TunnelingSign(block.get("tunneling_sign", "plus")))


def _mode_set(cfg: dict):
    block, xs = _block(cfg, "line"), cfg.get("cross_section", {})
    line = tx.LineParams(block["L_pul"], block["C_pul"], block["length"],
                         tx.BoundaryCondition(block["boundary"]))
    if "w" in xs:  # the schema makes w require d
        xsec = tx.tem_cross_section(xs["w"], xs["d"], xs.get("eps_r", 1.0))
    else:
        xsec = tx.matched_cross_section(line, d=xs.get("d", 5e-6))
    conv = tx.LongitudinalNorm(block["convention"])
    modes = tx.compute_modes(line, block["n_modes"], conv)
    return tx.mode_operator_coeffs(modes, xsec)


def run_transmon(cfg: dict, verbose: bool) -> RunResult:
    p0 = _transmon_params(cfg["transmon"])
    n_levels = min(cfg["transmon"].get("n_levels", 4), p0.dim)
    sweep = cfg.get("sweep", {})
    ngs = np.linspace(sweep.get("start", 0.0), sweep.get("stop", 1.0),
                      sweep.get("n_points", 21))
    rows = [(ng, lvl, w[lvl]) for ng, w in zip(ngs, tq.level_sweep(p0, ngs))
            for lvl in range(n_levels)]
    s0 = tq.solve(p0)
    scalars = {
        "anharmonicity": float(tq.anharmonicity(s0)),
        "omega01": float(s0.transition(0, 1)),
        "charge_element_01": float(abs(tq.charge_matrix_element(s0, 0, 1))),
        "ground_dispersion": float(tq.charge_dispersion(p0, level=0)),
    }
    return RunResult(scalars, {"transmon_levels.csv": (["n_g", "level", "omega"], rows)})


def run_modes(cfg: dict, verbose: bool) -> RunResult:
    modes = _mode_set(cfg)
    rows = [(l + 1, modes.freqs[l], modes.n_v[l], modes.n_i[l])
            for l in range(modes.freqs.size)]
    scalars = {"phase_velocity": float(modes.line.v_p),
               "omega_1": float(modes.freqs[0])}
    return RunResult(scalars, {"line_modes.csv": (["mode", "omega", "n_v", "n_i"], rows)})


def _coupling_spec(block: dict) -> coupled_mod.CouplingSpec:
    return coupled_mod.CouplingSpec(
        beta=block["beta"], z0=block.get("z0", 0.0),
        include_beta=block.get("include_beta", True),
        path_gain=block.get("path_gain", 1.0))


def run_couple(cfg: dict, verbose: bool) -> RunResult:
    ts = tq.solve(_transmon_params(cfg["transmon"]))
    modes = _mode_set(cfg)
    cs = _coupling_spec(cfg["coupling"])
    m = min(cfg["transmon"].get("n_levels", 3), ts.n_levels)
    n_modes = modes.freqs.size
    cutoffs = cfg["coupling"].get("fock_cutoffs", (4,) * n_modes)
    g = coupled_mod.coupling_table(ts, coupled_mod.mode_rates(modes, cs), m)
    rows = [(i, j, l + 1, g[i, j, l])
            for i in range(m) for j in range(i + 1, m) for l in range(n_modes)]
    scalars = {
        "g_01_mode1": float(g[0, 1, 0]),
        "beta_eff": float(cs.beta_eff),
        "hilbert_dim": m * int(np.prod(cutoffs)),
    }
    return RunResult(scalars, {"coupling_strengths.csv": (["i", "j", "mode", "g"], rows)})


def run_evolve(cfg: dict, verbose: bool) -> RunResult:
    p = _transmon_params(cfg["transmon"])
    s = tq.solve(p)
    levels = cfg.get("initial_levels", (0, 1))
    amps = np.sum(s.eigvecs[:, list(levels)], axis=1)
    psi0 = dyn.StateVector.from_amplitudes(amps)
    t = np.linspace(0.0, cfg["time_grid"]["t_max"], cfg["time_grid"].get("n_points", 1001))
    h = tq.build_charge_hamiltonian(p)
    traj = dyn.evolve(h, psi0, t, observables={
        "n_expect": tq.charge_number_op(p.n_cutoff),
        "sin_phi_expect": tq.sin_phi_op(p.n_cutoff, p.sign),
    })
    scalars = {
        "ehrenfest_residual": dyn.ehrenfest_residual(
            p, t, traj.series["n_expect"], traj.series["sin_phi_expect"]),
        "norm_drift": float(np.max(np.abs(traj.series["norm"] - 1.0))),
    }
    cols = ["time", "norm", "energy", "n_expect", "sin_phi_expect"]
    rows = zip(t, *(traj.series[c] for c in cols[1:]))
    return RunResult(scalars, {"evolution.csv": (cols, rows)})


def _port_grid(b: dict) -> tuple:
    """The partition and port grid ``(omega_max, n_bins)`` of a bath block
    with its defaults filled in (:func:`_block`)."""
    part = bath_mod.RegionPartition(
        cavity_length=b["cavity_length"], wave_speed=b["wave_speed"],
        interface_bc=bath_mod.InterfaceClosure(b["closure"]),
        oracle_total_length=b.get("total_length"))
    n_bins = b["n_bins"]
    return part, b.get("omega_max", n_bins * np.pi * part.wave_speed / part.port_length), n_bins


def _encoded_universe(part: bath_mod.RegionPartition, delta: float):
    """The closed universe a port grid encodes: its spacing pi*c/delta sets the port length."""
    length = part.cavity_length + np.pi * part.wave_speed / delta
    if length == part.cavity_length:
        raise ModelError(f"omega_max/n_bins = {delta:.3g} encodes no port beside cavity_length")
    return replace(part, oracle_total_length=length)


def run_bath(cfg: dict, verbose: bool) -> RunResult:
    b = _block(cfg, "bath")
    part, omega_max, n_bins = _port_grid(b)
    cavity = bath_mod.cavity_modes_1d(part, b["n_cavity_modes"])
    disc = bath_mod.port_continuum(cavity, omega_max, n_bins)
    lam = b["coupling_scale"]
    completion = b["boundary_completion"]
    freqs = bath_mod.normal_mode_spectrum(disc, lam, completion)
    n_report = min(10, freqs.size)
    exact = bath_mod.global_mode_frequencies(_encoded_universe(part, disc.delta_omega), n_report)
    rows = [(i + 1, freqs[i], exact[i], abs(freqs[i] - exact[i]) / exact[i])
            for i in range(n_report)]
    tables = {"bath_spectrum.csv": (["mode", "omega", "omega_global", "rel_err"], rows)}
    scalars = {"spectrum_rel_err_low5": float(
        max(abs(freqs[i] - exact[i]) / exact[i] for i in range(min(5, n_report))))}
    if "time_grid" in cfg:
        t = np.linspace(0.0, cfg["time_grid"]["t_max"], cfg["time_grid"].get("n_points", 601))
        traj = bath_mod.decay_simulation(disc, b["cavity_mode_index"], t, lam, completion)
        tables["bath_decay.csv"] = (["time", "cavity_population", "norm"],
                                    zip(t, traj.series["cavity_population"], traj.series["norm"]))
        for key in ("kappa_fit", "kappa_golden_rule", "recurrence_time"):
            if key in traj.metadata:
                scalars[key] = float(traj.metadata[key])
    return RunResult(scalars, tables)


def run_check(cfg: dict, verbose: bool) -> RunResult:
    progress = (lambda msg: print(msg, file=sys.stderr)) if verbose else None
    results, scalars = checks.run_all(progress)
    for suite, items in results.items():
        for r in items:
            print(f"{'PASS' if r.passed else 'FAIL'} {suite}: {r.name} "
                  f"(value {r.value:.6g}, bound {r.bound:.6g})")
    all_passed = all(r.passed for items in results.values() for r in items)
    report = {"all_passed": all_passed, "scalars": scalars,
              "suites": {suite: [r.as_dict() for r in items] for suite, items in results.items()}}
    return RunResult(scalars, reports={"checks.json": report}, passed=all_passed)


class Subcommand(NamedTuple):
    run: Callable[[dict, bool], RunResult]
    blocks: tuple  # config blocks the mode requires
    help: str


SUBCOMMANDS = {
    "transmon": Subcommand(run_transmon, ("transmon",),
                           "sweep offset charge and tabulate transmon levels"),
    "modes": Subcommand(run_modes, ("line",),
                        "tabulate transmission-line mode frequencies and amplitudes"),
    "couple": Subcommand(run_couple, ("transmon", "line", "coupling"),
                         "tabulate transmon-resonator coupling strengths"),
    "evolve": Subcommand(run_evolve, ("transmon", "time_grid"),
                         "integrate a transmon state and record observables"),
    "bath": Subcommand(run_bath, ("bath",),
                       "partitioned cavity/port spectrum and decay simulation"),
    "check": Subcommand(run_check, (),
                        "run the built-in oracle suites and report PASS/FAIL"),
}

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_POINTS = {"type": "integer", "minimum": 2}


def _values(kind) -> dict:
    return {"enum": [member.value for member in kind]}


def _for_mode(mode: str, then: dict, **properties) -> dict:
    """Apply ``then`` to configs of ``mode`` whose ``properties`` validate.
    The ``if`` requires the key, so a config without a mode reports only
    that it is missing."""
    return {"if": {"required": ["mode"],
                   "properties": {"mode": {"const": mode}, **properties}},
            "then": then}


_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["mode"],
    "properties": {
        "mode": {"enum": list(SUBCOMMANDS)},
        "units": {"enum": list(UNITS)},
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
                "tunneling_sign": _values(tq.TunnelingSign),
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
                "boundary": _values(tx.BoundaryCondition),
                "convention": _values(tx.LongitudinalNorm),
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
            },
            # d alone is the gap of the matched section
            "dependentRequired": {"w": ["d"], "eps_r": ["w"]},
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
                "closure": _values(bath_mod.InterfaceClosure),
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
                "n_points": _POINTS,
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "n_points": _POINTS,
            },
        },
        "initial_levels": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
    },
    "allOf": [
        *(_for_mode(name, {"required": list(sub.blocks)})
          for name, sub in SUBCOMMANDS.items() if sub.blocks),
        # the centred Ehrenfest derivative needs a third point; a count that
        # already fails the general minimum keeps its one message
        _for_mode("evolve",
                  {"properties": {"time_grid": {"properties": {"n_points": {"minimum": 3}}}}},
                  time_grid={"properties": {"n_points": _POINTS}}),
    ],
}

_VALIDATOR = jsonschema.Draft202012Validator(_SCHEMA)


def _cross_field_problems(data: dict) -> list:
    """The rules JSON Schema cannot state, each comparing one field with
    another.  Runs on schema-valid configs only, so every block the mode
    requires is present."""
    mode = data["mode"]
    problems = []
    if mode == "couple":
        n_modes = _block(data, "line")["n_modes"]
        cutoffs = data["coupling"].get("fock_cutoffs")
        if cutoffs is not None and len(cutoffs) != n_modes:
            problems.append(f"$.coupling.fock_cutoffs: expected {n_modes} entries "
                            f"(one per line mode), got {len(cutoffs)}")
        if _coupling_spec(data["coupling"]).z0 > data["line"]["length"]:
            problems.append("$.coupling.z0: coupling position lies beyond the line length")
    if mode in ("transmon", "couple", "evolve"):
        dim = _transmon_params(data["transmon"]).dim
        # an omitted n_levels is the runner's default, which it clips to dim
        n_levels = data["transmon"].get("n_levels")
        if n_levels is not None and n_levels > dim:
            problems.append(f"$.transmon.n_levels: more levels than the charge basis holds ({dim})")
        for lvl in data.get("initial_levels", ()):
            if lvl >= dim:
                problems.append(f"$.initial_levels: level {lvl} outside the charge basis ({dim})")
    if mode == "bath":
        b = _block(data, "bath")
        if "total_length" in b and b["total_length"] <= b["cavity_length"]:
            problems.append("$.bath.total_length: must exceed cavity_length")
        else:  # the PMC cavity's completion term reads the encoded length: a model error there
            part, omega_max, n_bins = _port_grid(b)
            delta = omega_max / n_bins
            if part.interface_bc is bath_mod.InterfaceClosure.PEC_CAVITY_PMC_PORT and delta > 0:
                try:
                    _encoded_universe(part, delta)
                except ModelError as exc:
                    problems.append(f"$.bath.omega_max: {exc}")
        if b["cavity_mode_index"] >= b["n_cavity_modes"]:
            problems.append("$.bath.cavity_mode_index: outside the cavity mode range")
    return problems


def _finite(convert):
    """A JSON number hook that rejects NaN, the infinities and any literal
    too large for a float (Python's reader turns 1e400 into inf)."""
    def parse(literal: str):
        if not np.isfinite(float(literal)):
            raise ConfigError([f"{literal} is not a valid number: config values must be finite"])
        return convert(literal)
    return parse


def parse_config(text: str, default_mode: str = None) -> dict:
    """Validate a JSON run configuration, reporting every violation at once,
    and return the validated mapping."""
    try:
        data = json.loads(text, parse_constant=_finite(float),
                          parse_float=_finite(float), parse_int=_finite(int))
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
    return data


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default from config, else cwd)")
    common.add_argument("--units", choices=UNITS, help="unit system label recorded in outputs")
    common.add_argument("--verbose", action="store_true")
    parser = argparse.ArgumentParser(
        prog="fieldcqed",
        description="circuit QED field/circuit correspondence toolkit")
    sub = parser.add_subparsers(dest="mode", required=True)
    for name, spec in SUBCOMMANDS.items():
        sub.add_parser(name, help=spec.help, parents=[common])
    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as one ``warning: <message>`` line, without the source
    path and line that Python's own format adds."""
    return "warning: " + " ".join(str(message).splitlines()) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # only the format changes, and only inside main: the warning filters
    # (-W error too) and a caller that records warnings stay in force
    saved = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return _run(args)
    finally:
        warnings.formatwarning = saved


def _run(args) -> int:
    try:
        if args.config is not None:
            path = Path(args.config)
            if not path.is_file():
                raise ConfigError([f"config file not found: {path}"])
            text = path.read_text(encoding="utf-8")
        else:
            text = "{}"
        cfg = parse_config(text, default_mode=args.mode)
        if cfg["mode"] != args.mode:
            raise ConfigError(
                [f"$.mode: config says '{cfg['mode']}' but subcommand is '{args.mode}'"])
        if args.units is not None:
            cfg["units"] = args.units
        out_dir = Path(args.out if args.out is not None else cfg.get("out_dir", "."))
        existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError([f"output path {out_dir}: {existing} is not a directory"])
        result = SUBCOMMANDS[args.mode].run(cfg, args.verbose)
        _write_outputs(out_dir, cfg, result)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (FieldCqedError, MemoryError) as exc:  # MemoryError: a run too large to hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except OSError as exc:  # a config or output path the system refuses
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0 if result.passed else 4


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads.

Each workload makes its inputs from the seed in its constructor, runs one
iteration in ``run``, reads that iteration's outputs in ``collect`` and
checks them in ``validate``, which returns a list of problems (empty when
the iteration is correct).  Only ``run`` is timed.  The package sees the
generated inputs, never the seed.

Why these three:

- ``check`` is the acceptance run every user makes before trusting a
  result.  It is the only one that reaches ``bath`` (eigh at dim 1983) and
  the classical leapfrog (1e6 steps); it calls ``dynamics.evolve`` at small
  dim over long time grids.
- ``transmon_sweep`` is four CLI sweeps, about 1.9k solves of 41x41
  matrices: per-call overhead in ``transmon.solve`` and small-matrix linear
  algebra.  It reaches neither ``coupled``, ``bath`` nor ``dynamics``, so
  changes there must leave it unmoved.
- ``multimode_evolve`` is the library pipeline from field and circuit
  constants to a dim-1024 evolution: coupled assembly, dense eigh at large
  n and evolve's observable contraction.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fieldcqed import coupled
from fieldcqed import dynamics
from fieldcqed import transmon as tq
from fieldcqed import txline as tx

GHZ = 2 * np.pi * 1e9  # rad/s per (2*pi GHz)


@dataclass
class Output:
    """What one iteration produced, read back after the timed region."""

    rcs: list = field(default_factory=list)
    stdout: str = ""
    files: dict = field(default_factory=dict)  # name -> bytes
    values: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name])
        return h.hexdigest()

    @property
    def n_bytes(self) -> int:
        return sum(len(b) for b in self.files.values())


def _take(paths: dict) -> dict:
    """Read and delete the output files that exist, so that a file the next
    iteration fails to write shows up as missing rather than stale."""
    files = {}
    for name, path in paths.items():
        if path.is_file():
            files[name] = path.read_bytes()
            path.unlink()
    return files


class _CliWorkload:
    """CLI runs whose output files must repeat byte for byte."""

    def __init__(self):
        from fieldcqed import cli  # imported here so only CLI workloads pay for it

        self.cli = cli
        self.reference = None

    def _run_cli(self, argv_list):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rcs = [self.cli.main(argv) for argv in argv_list]
        return rcs, buf.getvalue()

    def _same_as_first(self, out: Output) -> list:
        if self.reference is None:
            self.reference = out.digest()
            return []
        if out.digest() != self.reference:
            return ["output files differ from the first iteration's"]
        return []


class CheckWorkload(_CliWorkload):
    """``fieldcqed check``; its inputs are fixed, so the seed is only recorded."""

    name = "check"
    FILES = ("checks.json", "summary.json")

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        self.out_dir = workdir / "check"
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def run(self):
        return self._run_cli([["check", "--out", str(self.out_dir)]])

    def collect(self, raw) -> Output:
        rcs, stdout = raw
        files = _take({n: self.out_dir / n for n in self.FILES})
        return Output(rcs=rcs, stdout=stdout, files=files,
                      values={"worst_margin": worst_margin(files.get("checks.json"))})

    def validate(self, out: Output) -> list:
        problems = [f"exit code {rc}" for rc in out.rcs if rc != 0]
        lines = out.stdout.splitlines()
        if not lines:
            problems.append("check printed nothing")
        problems += [f"not a PASS line: {ln}" for ln in lines if not ln.startswith("PASS ")]
        missing = [n for n in self.FILES if n not in out.files]
        if missing:
            return problems + [f"missing output {n}" for n in missing]
        return problems + self._same_as_first(out)


# The one check that passes inside a band (1.5 < order < 2.5) rather than
# below its bound; its margin is the distance from the band centre over the
# half-width.
_BAND_CHECKS = {"charge-flow residual order in dt": (1.5, 2.5)}


def worst_margin(checks_json) -> float:
    """Largest value / bound over the checks in checks.json (1 = at the bound)."""
    if checks_json is None:
        return 0.0
    try:
        suites = json.loads(checks_json)["suites"]
    except (ValueError, KeyError):
        return 0.0
    margins = []
    for items in suites.values():
        for item in items:
            if item["name"] in _BAND_CHECKS:
                lo, hi = _BAND_CHECKS[item["name"]]
                margins.append(abs(item["value"] - (lo + hi) / 2) / ((hi - lo) / 2))
            else:
                margins.append(item["value"] / item["bound"])
    return max(margins)


class TransmonSweepWorkload(_CliWorkload):
    """Four ``fieldcqed transmon`` sweeps, one per E_J/E_C decade."""

    name = "transmon_sweep"
    DECADES = ((1.0, 3.0), (3.0, 10.0), (10.0, 30.0), (30.0, 100.0))
    E_C = 0.3
    N_CUTOFF = 20
    N_LEVELS = 4
    N_POINTS = 401
    TOLERANCE = 1e-9  # relative to max(|level|, E_C)

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.cases = []
        for k, (lo, hi) in enumerate(self.DECADES):
            ratio = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            sign = "plus" if rng.random() < 0.5 else "minus"
            config = {
                "mode": "transmon",
                "units": "natural",
                "transmon": {"E_C": self.E_C, "E_J": self.E_C * ratio,
                             "n_cutoff": self.N_CUTOFF, "n_levels": self.N_LEVELS,
                             "tunneling_sign": sign},
                "sweep": {"start": 0.0, "stop": 1.0, "n_points": self.N_POINTS},
            }
            path = workdir / f"transmon_{k}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            out_dir = workdir / f"transmon_{k}"
            out_dir.mkdir(exist_ok=True)
            self.cases.append((config["transmon"], path, out_dir))
        self._oracle = None

    def run(self):
        return self._run_cli([["transmon", "--config", str(path), "--out", str(out)]
                              for _, path, out in self.cases])

    def collect(self, raw) -> Output:
        rcs, stdout = raw
        files = _take({f"{k}/{name}": out_dir / name
                       for k, (_, _, out_dir) in enumerate(self.cases)
                       for name in ("transmon_levels.csv", "summary.json")})
        return Output(rcs=rcs, stdout=stdout, files=files)

    def oracle(self) -> list:
        """Lowest levels at n_g = 0 and n_g = 1/2 from Mathieu characteristic
        values (Koch et al., PRA 76, 042319, 2007), one pair per case."""
        if self._oracle is None:
            self._oracle = [(mathieu_levels(t["E_C"], t["E_J"], 0.0, self.N_LEVELS),
                             mathieu_levels(t["E_C"], t["E_J"], 0.5, self.N_LEVELS))
                            for t, _, _ in self.cases]
        return self._oracle

    def validate(self, out: Output) -> list:
        problems = [f"exit code {rc}" for rc in out.rcs if rc != 0]
        if len(out.rcs) != len(self.cases):
            problems.append(f"{len(out.rcs)} CLI runs for {len(self.cases)} cases")
        for k, exact in enumerate(self.oracle()):
            csv = out.files.get(f"{k}/transmon_levels.csv")
            if csv is None:
                problems.append(f"case {k}: no transmon_levels.csv")
                continue
            problems += [f"case {k}: {p}" for p in self._check_table(csv, exact)]
        return problems + self._same_as_first(out)

    def _check_table(self, csv: bytes, exact) -> list:
        lines = csv.decode().splitlines()
        if lines[:1] != ["n_g,level,omega"]:
            return ["unexpected header"]
        rows = lines[1:]
        if len(rows) != self.N_POINTS * self.N_LEVELS:
            return [f"{len(rows)} rows, expected {self.N_POINTS * self.N_LEVELS}"]
        table = np.array([[float(x) for x in row.split(",")] for row in rows])
        problems = []
        for ng, levels in zip((0.0, 0.5), exact):
            at = table[np.abs(table[:, 0] - ng) < 1e-12]
            if at.shape[0] != self.N_LEVELS or list(at[:, 1]) != list(range(self.N_LEVELS)):
                problems.append(f"no complete level set at n_g={ng}")
                continue
            err = np.abs(at[:, 2] - levels) / np.maximum(np.abs(levels), self.E_C)
            if not np.all(err < self.TOLERANCE):
                problems.append(f"n_g={ng}: level error {err.max():.3e} vs Mathieu oracle")
        return problems


def mathieu_levels(ec: float, ej: float, ng: float, n_levels: int,
                   terms: int = 60) -> np.ndarray:
    """Lowest transmon levels at n_g = 0 (even orders) or n_g = 1/2 (odd
    orders): E_C times the sorted characteristic values a_r(q), b_r(q) with
    q = E_J / (2 E_C).  Exact for either tunneling sign, since q -> -q only
    swaps a_r and b_r for odd r.

    Each symmetry class is solved on its own from the three-term recurrence
    of its Fourier coefficients (DLMF 28.4), truncated at ``terms``, rather
    than with ``scipy.special.mathieu_a``/``mathieu_b``: those return a_5
    for a_3 when q is within about 15.50 to 15.57.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    q = ej / (2.0 * ec)
    m = np.arange(terms, dtype=float)
    off = np.full(terms - 1, q)
    if ng == 0.0:
        a_off = off.copy()
        a_off[0] = np.sqrt(2.0) * q  # A_0 enters the next equation twice
        classes = [((2.0 * m) ** 2, a_off),  # a_2n: cos 2mz, m >= 0
                   ((2.0 * m + 2.0) ** 2, off)]  # b_2n+2: sin (2m+2)z
    else:
        odd = (2.0 * m + 1.0) ** 2
        classes = [(odd + np.eye(1, terms)[0] * q, off),  # a_2n+1: cos (2m+1)z
                   (odd - np.eye(1, terms)[0] * q, off)]  # b_2n+1: sin (2m+1)z
    values = np.concatenate([eigvalsh_tridiagonal(d, e) for d, e in classes])
    return ec * np.sort(values)[:n_levels]


class MultimodeEvolveWorkload:
    """Transmon (x) two-mode line at dim 1024, built from field and circuit
    constants and evolved from |1, 0, 0> with the excitation number recorded.

    Validation: norm and energy stay constant, the energy and excitation
    series start at <1,0,0|H|1,0,0> and 1, and the field-integrated
    Hamiltonian matches the circuit-rate one.

    The seed draws the coupling position and the coupling strength; the
    dimensions are fixed, so the work does not depend on the seed.
    """

    name = "multimode_evolve"
    M = 4
    FOCK_CUTOFFS = (16, 16)
    N_SAMPLES = 401
    TOLERANCE = 1e-9
    # a 450-ohm line (v_p = 1.25e8 m/s) whose first mode sits near omega_01,
    # so g/omega up to 0.05 needs beta <= 1 anywhere in the z0 range
    LINE = (3.6e-6, 1.6e-10 / 9.0, 0.011)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.params = tq.TransmonParams(EC=0.3 * GHZ, EJ=15.0 * GHZ, n_cutoff=20)
        self.line = tx.LineParams(*self.LINE)
        self.z0 = float(rng.uniform(0.1, 0.45)) * self.line.length
        self.g_over_omega = float(rng.uniform(0.01, 0.05))

    def run(self):
        ts = tq.solve(self.params)
        xsec = tx.matched_cross_section(self.line)
        modes = tx.mode_operator_coeffs(tx.compute_modes(self.line, 2), xsec)
        g_unit = coupled.coupling_strength(ts, modes, coupled.CouplingSpec(1.0, self.z0), 0, 1, 0)
        cs = coupled.CouplingSpec(self.g_over_omega * modes.freqs[0] / abs(g_unit), self.z0)
        h_field, _, max_diff = coupled.field_reduction_check(
            ts, modes, xsec, cs, self.M, self.FOCK_CUTOFFS)
        built = coupled.build_full_hamiltonian(ts, modes, cs, self.M, self.FOCK_CUTOFFS)
        n_exc = coupled.total_excitation_op(built)
        g = abs(built.g_table[0, 1, 0])
        t = np.linspace(0.0, 2.0 * np.pi / g, self.N_SAMPLES)
        traj = dynamics.evolve(built, self.initial_state(built), t, {"n_exc": n_exc})
        return traj, max_diff / float(np.max(np.abs(h_field.mat))), built

    @staticmethod
    def initial_state(built):
        return built.basis_state(1, (0, 0))

    def collect(self, raw) -> Output:
        traj, reduction_rel, built = raw
        energy = traj.series["energy"]
        amps = self.initial_state(built).amps
        e0 = float(np.vdot(amps, built.matrix.mat @ amps).real)
        values = {
            "dim": built.dim,
            "n_samples": traj.times.size,
            "finite": all(bool(np.all(np.isfinite(s))) for s in traj.series.values()),
            "norm_drift": float(np.max(np.abs(traj.series["norm"] - 1.0))),
            "energy_drift": float(np.max(np.abs(energy - e0)) / abs(e0)),
            "initial_excitation_error": float(abs(traj.series["n_exc"][0] - 1.0)),
            "reduction_rel": float(reduction_rel),
        }
        return Output(values=values)

    def validate(self, out: Output) -> list:
        v = out.values
        expected_dim = self.M * int(np.prod(self.FOCK_CUTOFFS))
        problems = []
        if v["dim"] != expected_dim or v["n_samples"] != self.N_SAMPLES:
            problems.append(f"dim {v['dim']} x {v['n_samples']} samples, "
                            f"expected {expected_dim} x {self.N_SAMPLES}")
        if not v["finite"]:
            problems.append("non-finite series")
        for key in ("norm_drift", "energy_drift", "initial_excitation_error", "reduction_rel"):
            if not v[key] < self.TOLERANCE:
                problems.append(f"{key} {v[key]:.3e} not below {self.TOLERANCE}")
        return problems


WORKLOADS = {w.name: w for w in (CheckWorkload, TransmonSweepWorkload, MultimodeEvolveWorkload)}

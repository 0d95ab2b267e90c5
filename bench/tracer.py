"""In-memory span tracer that instruments fieldcqed from outside the package.

``Tracer.install`` replaces each traced function by a timing wrapper in
every namespace that holds it: the module that defines it, every module
that bound it with ``from ... import``, the package namespace,
``checks.SUITES``, and, for the LAPACK eigensolvers, the fieldcqed modules that
imported ``scipy.linalg.eigh`` plus ``numpy.linalg`` itself.
``Tracer.uninstall`` puts every original back.  No package file changes.

A span is (name, start, end, parent, iteration); spans stay in memory and
are written out when the benchmark ends.  A span's self time is its
duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass

import numpy
import scipy.linalg

ROOT_SPAN = "bench.iteration"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, or -1 for a root
    iteration: int
    work: object = None  # per-call count or key, see _PLAN
    peak_bytes: int = 0  # tracemalloc peak above the level at entry

    def as_list(self) -> list:
        work = self.work if isinstance(self.work, (int, float)) else None
        return [self.name, self.start, self.end, self.parent, self.iteration,
                work, self.peak_bytes]


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _dim(args, kwargs) -> int:
    return int(numpy.shape(_arg(args, kwargs, 0, "a"))[0])


def _params(args, kwargs):
    return _arg(args, kwargs, 0, "p")


def _amplitudes(args, kwargs) -> int:
    psi0 = _arg(args, kwargs, 1, "psi0")
    return int(psi0.dim) * int(numpy.size(_arg(args, kwargs, 2, "t_grid")))


def _steps(args, kwargs) -> int:
    return int(numpy.size(_arg(args, kwargs, 2, "t_grid"))) - 1


def _hilbert_dim(args, kwargs) -> int:
    cutoffs = _arg(args, kwargs, 4, "fock_cutoffs")
    return int(_arg(args, kwargs, 3, "m")) * int(numpy.prod(cutoffs))


# (span name, module, attribute, work from the call's arguments, track memory)
_PLAN = (
    ("transmon.solve", "transmon", "solve", _params, False),
    ("transmon.build_charge_hamiltonian", "transmon", "build_charge_hamiltonian", None, False),
    ("dynamics.evolve", "dynamics", "evolve", _amplitudes, True),
    ("dynamics.classical_trajectory", "dynamics", "classical_trajectory", _steps, False),
    ("dynamics.ehrenfest_check", "dynamics", "ehrenfest_check", None, False),
    ("bath.decay_simulation", "bath", "decay_simulation", None, True),
    ("bath.normal_mode_spectrum", "bath", "normal_mode_spectrum", None, False),
    ("bath.coupling_coefficients", "bath", "coupling_coefficients", None, False),
    ("coupled.build_full_hamiltonian", "coupled", "build_full_hamiltonian", _hilbert_dim, False),
    ("coupled.field_reduction_check", "coupled", "field_reduction_check", None, False),
    ("coupled.total_excitation_op", "coupled", "total_excitation_op", None, False),
    ("cli.main", "cli", "main", None, False),
    ("cli.parse_config", "cli", "parse_config", None, False),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._iteration = -1
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, work=None, memory=False):
        """Return ``fn`` wrapped so that every call records one span."""
        spans, open_ = self.spans, self._open
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else -1, tracer._iteration)
            open_.append(len(spans))
            spans.append(span)
            if memory:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                else:
                    tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
                if memory:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1] - base
                    if started:
                        tracemalloc.stop()
                if work is not None:
                    span.work = work(args, kwargs)

        return traced

    def iteration(self, k: int, fn, *args):
        """Run ``fn(*args)`` as traced iteration ``k`` under one root span."""
        self._iteration = k
        try:
            return self.wrap(ROOT_SPAN, fn)(*args)
        finally:
            self._iteration = -1

    # -- instrumentation ---------------------------------------------------

    def install(self):
        """Wrap the traced layers of the already-imported fieldcqed package."""
        mods = {name.split(".")[-1]: mod for name, mod in list(sys.modules.items())
                if name == "fieldcqed" or name.startswith("fieldcqed.")}
        spaces = [vars(m) for m in mods.values()] + [vars(numpy.linalg)]
        for name, module, attr, work, memory in _PLAN:
            if module in mods:  # cli and checks load only when a workload uses them
                fn = getattr(mods[module], attr)
                self._rebind(spaces, fn, self.wrap(name, fn, work, memory))
        self._rebind(spaces, scipy.linalg.eigh,
                     self.wrap("linalg.eigh", scipy.linalg.eigh, _dim))
        self._rebind(spaces, numpy.linalg.eigvalsh,
                     self.wrap("linalg.eigvalsh", numpy.linalg.eigvalsh, _dim))
        suites = mods["checks"].SUITES if "checks" in mods else {}
        for suite, fn in list(suites.items()):
            self._rebind(spaces + [suites], fn, self.wrap(f"checks.{suite}", fn))
        txline = mods["txline"]
        for attr, obj in list(vars(txline).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != txline.__name__:
                continue
            if inspect.isfunction(obj):
                self._rebind(spaces, obj, self.wrap(f"txline.{attr}", obj))
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        self._patch(obj, meth, self.wrap(f"txline.{attr}.{meth}", fn))
        operator = mods["qops"].Operator
        self._patch(operator, "__post_init__",
                    self.wrap("qops.Operator", operator.__post_init__))

    def _rebind(self, spaces, original, wrapper):
        for space in spaces:
            for key, value in list(space.items()):
                if value is original:
                    space[key] = wrapper
                    self._undo.append((space.__setitem__, key, original))

    def _patch(self, cls, attr, wrapper):
        self._undo.append((functools.partial(setattr, cls), attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)


def self_times(spans) -> list:
    """Duration of each span minus the time its children cover.

    Spans come from one thread and close in stack order, so the children of
    a span never overlap and their durations add up to the covered time.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


SUITE_NAMES = ("transmon_regime", "gauge_invariance", "field_circuit_correspondence",
               "coupled_dynamics", "bath_partition", "equations_of_motion")

_EMPTY = {"calls": 0, "self": 0.0, "total": 0.0, "work": [], "peak": 0}


def _by_name(spans) -> dict:
    """Calls, self and total seconds, (iteration, work) pairs and peak bytes
    of the spans of each name."""
    by_name = {}
    for span, own in zip(spans, self_times(spans)):
        entry = by_name.setdefault(span.name, {**_EMPTY, "work": []})
        entry["calls"] += 1
        entry["self"] += own
        entry["total"] += span.end - span.start
        if span.work is not None:
            entry["work"].append((span.iteration, span.work))
        entry["peak"] = max(entry["peak"], span.peak_bytes)
    return by_name


def layer_metrics(spans, n_iterations: int) -> dict:
    """Per-layer metrics per traced iteration, as {name: (value, unit)}."""
    by_name = _by_name(spans)
    n = max(n_iterations, 1)

    def get(name):
        return by_name.get(name, _EMPTY)

    def per_it(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    solve = get("transmon.solve")
    distinct = len(set(solve["work"]))  # (iteration, params) pairs
    eigh = get("linalg.eigh")
    eigh_dims = [w for _, w in eigh["work"]]
    evolve = get("dynamics.evolve")
    amps = sum(w for _, w in evolve["work"])
    traj = get("dynamics.classical_trajectory")
    steps = sum(w for _, w in traj["work"])
    build = get("coupled.build_full_hamiltonian")
    txline_self = sum(e["self"] for k, e in by_name.items() if k.startswith("txline."))
    m = {
        "transmon.solve.calls": (per_it(solve["calls"]), "count"),
        "transmon.solve.s": (per_it(solve["self"]), "s"),
        "transmon.solve.us_per_call": (1e6 * ratio(solve["total"], solve["calls"]), "us"),
        "transmon.solve.distinct_ratio": (ratio(distinct, solve["calls"]), "ratio"),
        "transmon.build_charge_hamiltonian.s": (
            per_it(get("transmon.build_charge_hamiltonian")["self"]), "s"),
        "linalg.eigh.calls": (per_it(eigh["calls"]), "count"),
        "linalg.eigh.s": (per_it(eigh["self"]), "s"),
        "linalg.eigh.max_dim": (max(eigh_dims, default=0), "count"),
        "linalg.eigh.n3_sum": (per_it(sum(float(d) ** 3 for d in eigh_dims)), "count"),
        "linalg.eigvalsh.calls": (per_it(get("linalg.eigvalsh")["calls"]), "count"),
        "linalg.eigvalsh.s": (per_it(get("linalg.eigvalsh")["self"]), "s"),
        "dynamics.evolve.calls": (per_it(evolve["calls"]), "count"),
        "dynamics.evolve.s": (per_it(evolve["self"]), "s"),
        "dynamics.evolve.amp_count": (per_it(amps), "count"),
        "dynamics.evolve.ns_per_amp": (1e9 * ratio(evolve["self"], amps), "ns"),
        "dynamics.evolve.peak_mb": (evolve["peak"] / 2**20, "MB"),
        "dynamics.classical_trajectory.s": (per_it(traj["self"]), "s"),
        "dynamics.classical_trajectory.steps": (per_it(steps), "count"),
        "dynamics.classical_trajectory.ns_per_step": (1e9 * ratio(traj["self"], steps), "ns"),
        "dynamics.ehrenfest_check.s": (per_it(get("dynamics.ehrenfest_check")["self"]), "s"),
        "bath.decay_simulation.s": (per_it(get("bath.decay_simulation")["self"]), "s"),
        "bath.decay_simulation.peak_mb": (get("bath.decay_simulation")["peak"] / 2**20, "MB"),
        "bath.normal_mode_spectrum.s": (per_it(get("bath.normal_mode_spectrum")["self"]), "s"),
        "bath.coupling_coefficients.s": (per_it(get("bath.coupling_coefficients")["self"]), "s"),
        "coupled.build_full_hamiltonian.s": (per_it(build["self"]), "s"),
        "coupled.hilbert_dim": (max((w for _, w in build["work"]), default=0), "count"),
        "coupled.field_reduction_check.s": (
            per_it(get("coupled.field_reduction_check")["self"]), "s"),
        "coupled.total_excitation_op.s": (per_it(get("coupled.total_excitation_op")["self"]), "s"),
        "qops.Operator.calls": (per_it(get("qops.Operator")["calls"]), "count"),
        "qops.Operator.s": (per_it(get("qops.Operator")["self"]), "s"),
        "txline.s": (per_it(txline_self), "s"),
        "cli.parse_config.s": (per_it(get("cli.parse_config")["self"]), "s"),
        "cli.self_s": (per_it(get("cli.main")["self"]), "s"),
        "trace.wall_s": (statistics.median(
            [s.end - s.start for s in spans if s.name == ROOT_SPAN] or [0.0]), "s"),
    }
    for suite in SUITE_NAMES:
        m[f"checks.{suite}.s"] = (per_it(get(f"checks.{suite}")["self"]), "s")
    return m


def hot_spots(spans, top: int = 8) -> list:
    """(name, self seconds) of the layers with the most self time."""
    totals = [(name, e["self"]) for name, e in _by_name(spans).items()]
    return sorted(totals, key=lambda kv: -kv[1])[:top]

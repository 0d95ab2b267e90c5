"""Time evolution: exact unitary propagation of finite Hamiltonians,
symplectic classical transmon trajectories (their step loop compiled from
``_kernels.c`` when a C compiler is at hand), and the Ehrenfest identity
check connecting the two pictures."""

from __future__ import annotations

import ctypes
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    ContractViolationError,
    DimensionMismatchError,
    NumericError,
    StepSizeError,
)
from .qops import _BLOCK, _HERM_TILE, Operator, StateVector, expectation, spectrum
from .transmon import (
    TransmonParams,
    build_charge_hamiltonian,
    charge_number_op,
    level_sweep,
    sin_phi_op,
)


def time_grid(t_grid) -> np.ndarray:
    """``t_grid`` as a float array: 1D, at least 2 points, finite and strictly
    ascending.  Every solver that takes a grid checks it here before any work."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ContractViolationError("need a 1D time grid with at least 2 points")
    if not np.all(np.isfinite(t)):
        raise ContractViolationError("time grid must be finite")
    # on finite points, t[k+1] <= t[k] exactly when t[k+1] - t[k] <= 0
    if np.any(t[1:] <= t[:-1]):
        raise ContractViolationError("time grid must be strictly ascending")
    return t


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus named real observable series of equal length."""

    times: np.ndarray
    series: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = time_grid(self.times)
        for name, s in self.series.items():
            if np.asarray(s).shape != t.shape:
                raise DimensionMismatchError(f"series {name!r} length does not match times")
        object.__setattr__(self, "times", t)


@dataclass(frozen=True)
class ClassicalState:
    """Conjugate pair: Josephson phase (rad) and pair-number imbalance."""

    phi: float
    n: float

    def __post_init__(self):
        if not (math.isfinite(self.phi) and math.isfinite(self.n)):
            raise ContractViolationError("classical state must be finite")


def _as_operator(h) -> Operator:
    if isinstance(h, Operator):
        return h
    matrix = getattr(h, "matrix", None)
    if isinstance(matrix, Operator):
        return matrix
    raise ContractViolationError("expected an Operator or an object with a .matrix Operator")


def evolve(h, psi0: StateVector, t_grid, observables: dict = None) -> Trajectory:
    """Unitary evolution of ``psi0`` under ``h`` sampled on ``t_grid``.

    Uses one eigendecomposition (:func:`fieldcqed.qops.spectrum`, the
    real-symmetric solver when ``h`` is real), so every sample is the exact
    propagator applied to the initial state: refining the grid never
    changes values at shared times.  Records ``norm``, ``energy`` and the
    expectation of each of ``observables`` under its own name, nothing
    else; a population is a diagonal projector observable.

    Memory: the series, the eigenpairs and one chunk of states at a time.
    :meth:`fieldcqed.qops.Spectrum.propagate` streams the states in chunks
    of fixed, padded width, and each chunk is reduced to its samples of
    every series before the next is built; each expectation is one matrix
    product of the operator with the chunk plus a column dot product (a row
    scaling when the operator is diagonal, decided once per call).  With at
    most 64 states solved, the series have the same bits under any BLAS
    thread count (see :mod:`fieldcqed.qops` for larger ones).

    Only the set R that ``psi0`` reaches through the exact nonzeros of ``h``
    is solved (:func:`_reachable`): every state is exactly zero off R, so
    H_RR, psi0_R and each O_RR give the exact series.  A coupled Hamiltonian
    at n_g = 0 is one parity sector (``transmon.charge_matrix_element``).
    When R is the whole space nothing is copied.  ``metadata["solved_dim"]``
    is the size of R.
    """
    t = time_grid(t_grid)
    op_h = _as_operator(h)
    if op_h.dim != psi0.dim:
        raise DimensionMismatchError(f"H dim {op_h.dim} does not match state dim {psi0.dim}")
    observables = {name: _as_operator(op) for name, op in (observables or {}).items()}
    for name, op in observables.items():
        if name in ("norm", "energy"):
            raise ContractViolationError(f"observable {name!r} would overwrite evolve's own series")
        if op.dim != psi0.dim:
            raise DimensionMismatchError(f"observable {name!r} dimension mismatch")

    series = {name: np.empty(t.size) for name in ("norm", "energy", *observables)}
    mats = [op_h.mat, *(op.mat for op in observables.values())]
    amps = psi0.amps
    keep = _reachable(op_h.mat, amps)
    if keep.size < psi0.dim:
        block = np.ix_(keep, keep)
        mats, amps = [mat[block] for mat in mats], amps[keep]
        op_h = Operator(mats[0])
    names = ["energy", *observables]
    reducers = [(series[name], expectation(mat)) for name, mat in zip(names, mats)]
    for cols, states in spectrum(op_h).propagate(amps, t):
        if not np.all(np.isfinite(states.view(float))):
            raise NumericError("evolution produced non-finite amplitudes")
        n = cols.stop - cols.start
        series["norm"][cols] = np.linalg.norm(states, axis=0)[:n]
        for out, reduce in reducers:
            out[cols] = reduce(states)[:n]
    return Trajectory(times=t, series=series, metadata={"solved_dim": keep.size})


def _reachable(mat: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Ascending indices of the basis states that ``amps`` reaches through
    the exact nonzero entries of ``mat``, read from its rows and its columns
    (the eigensolver reads one triangle), so the set is closed either way.
    A frontier search: each round gathers ``_HERM_TILE`` rows and columns
    at a time, so no dim x dim temporary is made."""
    reach = amps != 0
    frontier = np.flatnonzero(reach)
    while frontier.size and not reach.all():
        hit = np.zeros_like(reach)
        for lo in range(0, frontier.size, _HERM_TILE):
            rows = frontier[lo:lo + _HERM_TILE]
            hit |= np.any(mat[rows] != 0, axis=0) | np.any(mat[:, rows] != 0, axis=1)
        frontier = np.flatnonzero(hit & ~reach)
        reach |= hit
    return np.flatnonzero(reach)


# numpy sums a contiguous float64 array pairwise: it splits n > 128 entries
# at n // 2 rounded down to a multiple of 8, and adds the parts of at most
# 128 in one unrolled loop
_PAIRWISE_LEAF = 128


def _uniform_dt(t: np.ndarray) -> float:
    """The spacing of the uniform grid ``t`` (sorted and finite, at least 2
    points): ``float(np.diff(t).mean())`` bit for bit, with the same
    ContractViolationError when the spacings spread by more than 1e-9 of
    their mean.  The spacing is summed along numpy's pairwise tree down to
    parts of at most ``max(qops._BLOCK, 128)`` spacings, and each part is
    one ``np.add.reduce``, so no spacing array longer than a part exists."""
    part = max(_BLOCK, _PAIRWISE_LEAF)
    extremes = []

    def tree_sum(lo: int, size: int):
        if size > part:
            half = size // 2 - size // 2 % 8
            return tree_sum(lo, half) + tree_sum(lo + half, size - half)
        dt = np.diff(t[lo:lo + size + 1])
        extremes.extend((dt.max(), dt.min()))
        return np.add.reduce(dt)

    mean = tree_sum(0, t.size - 1) / (t.size - 1)
    if abs(max(extremes) - min(extremes)) > 1e-9 * mean:
        raise ContractViolationError("the time grid must be uniformly spaced")
    return float(mean)


def _initial_energy(p: TransmonParams, s0: ClassicalState) -> float:
    """4 E_C (n - n_g)^2 - E_J cos(phi) of ``s0``, in scalar arithmetic."""
    return 4.0 * p.EC * (float(s0.n) - p.ng) ** 2 - p.EJ * math.cos(float(s0.phi))


def _leapfrog(p: TransmonParams, dt: float, f: float, v: float, phi_out, n_out,
              first_step: int) -> tuple:
    """Advance the phase ``f`` and charge ``v`` by ``len(phi_out)``
    kick-drift-kick steps of ``dt``, storing each step's phase and charge in
    ``phi_out`` and ``n_out``; ``first_step`` numbers the first step in the
    divergence message.  Returns the final ``(f, v)``."""
    ec8, ej, ng = 8.0 * p.EC, p.EJ, p.ng
    sin = math.sin
    half = 0.5 * dt
    # the closing half-kick of one step is the opening half-kick of the next
    kick = ej * sin(f) * half
    # stores through a memoryview skip ndarray item assignment's dispatch
    phi_mv, n_mv = memoryview(phi_out), memoryview(n_out)
    for j in range(len(phi_out)):
        v -= kick
        f += ec8 * (v - ng) * dt
        # checked before sin(f), which raises on an infinite phase
        if not -1e150 < f < 1e150:
            raise StepSizeError(f"trajectory diverged at step {first_step + j}; reduce dt")
        kick = ej * sin(f) * half
        v -= kick
        phi_mv[j] = f
        n_mv[j] = v
    return f, v


# (params, dt, phi0, n0, steps) of the self-test of the compiled kernel:
# bounded, phases past 1e6 (sin's argument reduction), kicked past 1e150,
# and a free rotor at exactly 1e150
_SELF_TEST = (
    (TransmonParams(EC=0.3, EJ=15.0, ng=0.37), 2e-3, 0.3, 0.1, 64),
    (TransmonParams(EC=1.0, EJ=100.0, ng=0.1), 1e-2, -2.0, 1e7, 64),
    (TransmonParams(EC=1.0, EJ=1e149), 0.1, 1.0, 0.0, 64),
    (TransmonParams(EC=0.125, EJ=0.0), 1.0, 0.0, 1e149, 16),
)


@functools.cache
def _compiled_leapfrog():
    """:func:`_leapfrog` run by the compiled kernel, with the same arguments,
    results and StepSizeError, or None: when the kernel cannot be built or
    loaded, or when it differs from :func:`_leapfrog` in any bit of the
    self-test.  Built and checked once per process, on first use."""
    kernel = _kernels.function("fieldcqed_leapfrog", [
        *[ctypes.c_double] * 4, ctypes.POINTER(ctypes.c_double), ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_long], ctypes.c_long)
    if kernel is None:
        return None

    def leapfrog(p, dt, f, v, phi_out, n_out, first_step):
        if len(n_out) != len(phi_out):
            raise DimensionMismatchError("the phase and charge blocks differ in length")
        state = (ctypes.c_double * 2)(f, v)
        j = kernel(p.EC, p.EJ, p.ng, dt, state, _kernels.pointer(phi_out, writeable=True),
                   _kernels.pointer(n_out, writeable=True), len(phi_out))
        if j >= 0:
            raise StepSizeError(f"trajectory diverged at step {first_step + j}; reduce dt")
        return state[0], state[1]

    return leapfrog if _outcomes(leapfrog) == _outcomes(_leapfrog) else None


def _outcomes(leapfrog) -> list:
    """What ``leapfrog`` gives on each run of ``_SELF_TEST``: the bytes of
    the final state or the StepSizeError message, and of both output rows."""
    found = []
    for p, dt, f, v, steps in _SELF_TEST:
        phi, n = np.zeros(steps), np.zeros(steps)
        try:
            end = np.array(leapfrog(p, dt, f, v, phi, n, 1)).tobytes()
        except StepSizeError as err:
            end = str(err)
        found.append((end, phi.tobytes(), n.tobytes()))
    return found


def _run_leapfrog(p: TransmonParams, s0: ClassicalState, t: np.ndarray, dt: float,
                  split: int, phi, n, energy, cos) -> tuple:
    """The leapfrog from ``s0`` over ``t`` in blocks of ``qops._BLOCK`` steps.
    Step k's phase, charge, energy (:func:`_initial_energy` elementwise) and
    ``E_J cos(phi)`` go to ``phi``, ``n``, ``energy`` and ``cos`` at index
    ``(k - 1) % size``: arrays of ``t.size - 1`` keep the run, one-block
    arrays are reused; ``energy`` may be ``n`` and ``cos`` may be ``phi``.
    Returns the energy-error envelopes of the samples before ``split`` and
    from it, and their scale; raises StepSizeError when either exceeds 1% of it."""
    leapfrog = _compiled_leapfrog() or _leapfrog
    e0 = _initial_energy(p, s0)
    halves = [(e0, e0), (e0, e0)]  # running (max, min) before and from the split
    f, v = float(s0.phi), float(s0.n)
    for lo in range(1, t.size, _BLOCK):
        size = min(_BLOCK, t.size - lo)
        phi_k, n_k, e, c = (a[(lo - 1) % a.size:][:size] for a in (phi, n, energy, cos))
        f, v = leapfrog(p, dt, f, v, phi_k, n_k, lo)
        np.subtract(n_k, p.ng, out=e)
        np.square(e, out=e)
        e *= 4.0 * p.EC
        np.cos(phi_k, out=c)
        c *= p.EJ
        e -= c
        cut = min(max(split - lo, 0), size)  # this block's samples before the split
        for k, part in enumerate((e[:cut], e[cut:])):
            if part.size:
                hi, low = halves[k]
                halves[k] = np.maximum(hi, part.max()), np.minimum(low, part.min())
    first, second = (_envelope(hi, low, e0) for hi, low in halves)
    # rounding is monotone, so the larger envelope is the whole run's
    worst = float(np.maximum(first, second))
    e_scale = abs(e0) if abs(e0) > 1e-12 * (p.EJ + 4 * p.EC) else (p.EJ + 4 * p.EC)
    if worst > 0.01 * e_scale:
        raise StepSizeError(
            f"energy drift {worst:.3e} exceeds 1% of the initial scale {e_scale:.3e}; reduce dt")
    return first, second, e_scale


def _envelope(hi, lo, x0: float) -> float:
    """``max(hi - x0, x0 - lo)`` as a non-negative float; NaN propagates.
    Rounding is monotone, so over ``hi = x.max()`` and ``lo = x.min()`` this
    is ``np.max(np.abs(x - x0))`` bit for bit, without the temporary ``x -
    x0``; ``abs`` turns the -0.0 of ``np.maximum(-0.0, 0.0)`` into the 0.0
    that ``np.abs`` gives."""
    return abs(float(np.maximum(hi - x0, x0 - lo)))


def classical_trajectory(p: TransmonParams, s0: ClassicalState, t_grid) -> Trajectory:
    """Leapfrog integration of the classical phase/charge pair.

    dphi/dt = 8 E_C (n - n_g), dn/dt = -E_J sin(phi).  The kick-drift-kick
    update is symplectic: the energy error stays bounded and oscillatory
    instead of drifting.  A drift beyond 1% of the initial energy scale
    raises StepSizeError.

    The steps run in the compiled ``_kernels.c`` (built on the first run of
    the process, or loaded from ``__pycache__`` beside this module) when it
    passes its self-test against the Python loop :func:`_leapfrog`, and in
    that loop otherwise, silently; the series, metadata and errors are the
    same bits either way.

    Memory: the three output series plus one block of ``qops._BLOCK``
    cosines (:func:`_uniform_dt` holds one such block of the spacing before
    them); :func:`_run_leapfrog` reads the drift from running extremes.
    A run whose series are not needed belongs in :func:`secular_energy_ratio`.
    """
    t = time_grid(t_grid)
    dt = _uniform_dt(t)
    phi = np.empty(t.size)
    n = np.empty(t.size)
    energy = np.empty(t.size)
    phi[0], n[0] = s0.phi, s0.n
    energy[0] = _initial_energy(p, s0)
    worst, _, e_scale = _run_leapfrog(p, s0, t, dt, t.size, phi[1:], n[1:], energy[1:],
                                      np.empty(min(_BLOCK, t.size - 1)))
    return Trajectory(
        times=t,
        series={"phi": phi, "n": n, "energy": energy},
        metadata={"dt": dt, "max_energy_error": worst, "energy_scale": e_scale},
    )


def secular_energy_ratio(p: TransmonParams, s0: ClassicalState, t_grid) -> float:
    """Second-half over first-half energy-error envelope of the leapfrog
    from ``s0`` on ``t_grid``: near 1 when the error stays bounded, growing
    with the run when it drifts.

    With ``h = t_grid.size // 2``, ``energy`` the series that
    :func:`classical_trajectory` gives and ``e0 = energy[0]``, the ratio is
    ``np.max(np.abs(energy[h:] - e0)) / np.max(np.abs(energy[:h] - e0))``
    bit for bit, and the run raises classical_trajectory's StepSizeErrors
    with the same messages.  Raises ContractViolationError for fewer than 3
    points, and NumericError when the first-half envelope is exactly 0: E_J
    = 0 conserves the energy exactly, and with 3 points the first half is
    the initial sample alone.

    Runs the same kernel as :func:`classical_trajectory`: compiled when it
    can be built and passes its self-test, else the Python loop, with the
    same ratio and errors bit for bit.

    Memory: nothing of the run's length beyond the caller's grid.
    :func:`_uniform_dt` sums the spacing one block of ``qops._BLOCK`` at a
    time, and :func:`_run_leapfrog` then reuses two such blocks of floats:
    the phases, overwritten by their cosines, and the charges, overwritten
    by the energies.
    """
    t = time_grid(t_grid)
    if t.size < 3:
        raise ContractViolationError(
            f"the secular energy ratio needs at least 3 time points, got {t.size}")
    dt = _uniform_dt(t)
    phi = np.empty(min(_BLOCK, t.size - 1))
    n = np.empty(phi.size)
    first, second, _ = _run_leapfrog(p, s0, t, dt, t.size // 2, phi, n, n, phi)
    if first == 0.0:
        raise NumericError(
            "the first-half energy envelope is exactly 0, so the secular ratio is undefined")
    return second / first


def ehrenfest_check(p: TransmonParams, psi0: StateVector, t_grid) -> float:
    """:func:`ehrenfest_residual` of ``psi0`` evolved on ``t_grid`` under
    the charge Hamiltonian of the isolated transmon ``p``."""
    traj = evolve(build_charge_hamiltonian(p), psi0, t_grid, observables={
        "n_expect": charge_number_op(p.n_cutoff),
        "sin_phi": sin_phi_op(p.n_cutoff, p.sign),
    })
    return ehrenfest_residual(p, traj.times, traj.series["n_expect"], traj.series["sin_phi"])


def ehrenfest_residual(p: TransmonParams, times, n_expect, sin_phi) -> float:
    """Residual of d<n>/dt = -E_J <sin phi> from sampled <n> and <sin phi>.

    The derivative is a centered finite difference on the uniform grid
    ``times``, so the residual itself converges at second order in the grid
    spacing.  Returns max_t |d<n>/dt + E_J <sin phi>| normalized by the
    larger of max|E_J <sin phi>| and 1e-3 E_J, or 4e-3 E_C at E_J = 0 (the
    floor keeps eigenstate runs, where both sides vanish, from dividing
    noise by noise).  Warns when the grid is too coarse for ``p``'s spectrum.
    """
    t = time_grid(times)
    if t.size < 3:
        raise ContractViolationError(
            f"the centered derivative needs at least 3 time points, got {t.size}")
    for name, series in (("n_expect", n_expect), ("sin_phi", sin_phi)):
        if np.shape(series) != t.shape:
            raise DimensionMismatchError(f"{name} has shape {np.shape(series)}, times {t.shape}")
    dt = _uniform_dt(t)
    evals = level_sweep(p, [p.ng])[0]
    spread = float(evals[-1] - evals[0])
    if dt * spread > 0.5:
        warnings.warn(
            "t_grid too coarse for the finite-difference derivative; "
            f"dt * spectral_spread = {dt * spread:.3g}", stacklevel=2)
    n_t = np.asarray(n_expect)
    rhs = -p.EJ * np.asarray(sin_phi)
    lhs = (n_t[2:] - n_t[:-2]) / (2.0 * dt)
    resid = np.max(np.abs(lhs - rhs[1:-1]))
    denom = max(float(np.max(np.abs(rhs))), 1e-3 * (p.EJ or 4.0 * p.EC))
    return float(resid / denom)


def first_return_period(times: np.ndarray, series: np.ndarray) -> float:
    """Time of the first interior local maximum >= 0.9 after a sample < 0.9.

    A parabola through the three samples around the maximum refines the
    estimate, so the grid does not need to resolve the peak exactly.  Used
    for oscillations that start at their maximum (period = first return).
    """
    t = np.asarray(times, dtype=float)
    s = np.asarray(series, dtype=float)
    fell = False
    for k in range(1, t.size - 1):
        if s[k] < 0.9:
            fell = True
            continue
        if fell and s[k] >= s[k - 1] and s[k] >= s[k + 1]:
            denom = s[k - 1] - 2.0 * s[k] + s[k + 1]
            if denom == 0.0:
                return float(t[k])
            shift = 0.5 * (s[k - 1] - s[k + 1]) / denom
            return float(t[k] + shift * (t[k + 1] - t[k]))
    raise NumericError("no return maximum found in the sampled window")

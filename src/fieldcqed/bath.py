"""Two-region quantization of a 1D scalar wave system.

The simulation domain (cavity, [0, l]) and a semi-infinite port ([l, inf))
are each expanded in their own closed-form standing waves; complementary
closing conditions at the shared interface (PMC on one side, PEC on the
other) make both expansions well defined.  The regions talk through a
boundary overlap coupling, and the side whose basis cannot represent a
nonzero interface value receives a completion term that restores positive
definiteness of the truncated quadratic form.  A finite closed universe of
length ``oracle_total_length`` provides the exactly known global spectrum
used to validate all of it.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, time_grid
from .errors import ContractViolationError, ModelError, NumericError
from .qops import Operator, rank_one_coupling_spectrum


class InterfaceClosure(enum.Enum):
    """Which complementary condition closes each region at the interface.

    PMC (zero slope) on the cavity pairs with PEC (zero value) on the port,
    and vice versa; the names give cavity first.
    """

    PMC_CAVITY_PEC_PORT = "pmc-cavity-pec-port"
    PEC_CAVITY_PMC_PORT = "pec-cavity-pmc-port"


@dataclass(frozen=True)
class RegionPartition:
    """Geometry of the cavity/port split.

    The physical end of the cavity at z = 0 is PEC (field value zero) in
    both closures; ``oracle_total_length`` is the finite stand-in for the
    semi-infinite port used by the closed-universe oracle.
    """

    cavity_length: float
    wave_speed: float
    interface_bc: InterfaceClosure = InterfaceClosure.PMC_CAVITY_PEC_PORT
    oracle_total_length: float = None

    def __post_init__(self):
        for name in ("cavity_length", "wave_speed"):
            if not 0 < getattr(self, name) < np.inf:
                raise ContractViolationError(
                    f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.oracle_total_length is None:
            object.__setattr__(self, "oracle_total_length", 10.0 * self.cavity_length)
        if self.oracle_total_length <= self.cavity_length:
            raise ContractViolationError("oracle_total_length must exceed cavity_length")

    @property
    def port_length(self) -> float:
        return self.oracle_total_length - self.cavity_length


@dataclass(frozen=True)
class CavityModes:
    """Closed-cavity standing waves sqrt(2/l) sin(omega_k z / c): their
    frequencies and their closed-form signed trace at the interface."""

    part: RegionPartition
    freqs: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.freqs.size

    def interface_trace(self) -> np.ndarray:
        """u_k' - u_k at the interface z = l for modes k = 0, 1, ..., in closed
        form.  The closure makes one term exactly zero: the slope under PMC,
        which leaves -(-1)^k sqrt(2/l), the value under PEC, which leaves
        -(-1)^k sqrt(2/l) omega_k / c."""
        trace = -(-1.0) ** np.arange(self.n_modes) * np.sqrt(2.0 / self.part.cavity_length)
        if self.part.interface_bc is InterfaceClosure.PEC_CAVITY_PMC_PORT:
            trace = trace * self.freqs / self.part.wave_speed
        return trace


def cavity_modes_1d(part: RegionPartition, n_modes: int) -> CavityModes:
    """Closed-cavity frequencies: quarter-wave ladder (2k-1)*pi*c/(2l) when
    the PMC interface closes the domain, half-wave ladder k*pi*c/l when the
    PEC does."""
    if n_modes < 1:
        raise ContractViolationError("n_modes must be at least 1")
    k = np.arange(1, n_modes + 1, dtype=float)
    c, l = part.wave_speed, part.cavity_length
    if part.interface_bc is InterfaceClosure.PMC_CAVITY_PEC_PORT:
        freqs = (2 * k - 1) * np.pi * c / (2 * l)
    else:
        freqs = k * np.pi * c / l
    return CavityModes(part=part, freqs=freqs)


def port_interface_trace(part: RegionPartition, omega_grid: np.ndarray) -> np.ndarray:
    """psi_p + psi_p' at the interface of the delta-normalized port waves on
    the grid, in closed form.  The closure makes one term exactly zero: the
    value under PEC, which leaves sqrt(2/(pi c)) omega_p / c, the slope under
    PMC, which leaves sqrt(2/(pi c))."""
    c = part.wave_speed
    amp = np.sqrt(2.0 / (np.pi * c))
    if part.interface_bc is InterfaceClosure.PMC_CAVITY_PEC_PORT:
        return amp * omega_grid / c
    return np.full(omega_grid.size, amp)


def coupling_coefficients(cavity: CavityModes, omega_grid: np.ndarray,
                          delta_omega: float) -> np.ndarray:
    """Boundary-overlap coupling W between the cavity modes and the port bins.

    W_{k,p} = (c^2/2)/sqrt(omega_k omega_p) (u_k' psi_p - u_k psi_p')
    sqrt(delta-omega) is the interface Wronskian of the two region bases,
    times the discretization factor.  The closures are complementary, so
    u_k' psi_p' and u_k psi_p vanish too, and the Wronskian is the product
    (u_k' - u_k)(psi_p + psi_p') of the two signed traces.  The
    counter-rotating partner is -W.
    """
    c = np.float64(cavity.part.wave_speed)
    a, p = cavity.interface_trace(), port_interface_trace(cavity.part, omega_grid)
    # overflow (a huge wave_speed) leaves inf or nan entries, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        pref = (c**2 / 2.0) / np.sqrt(np.outer(cavity.freqs, omega_grid))
        w = pref * np.outer(a, p) * np.sqrt(delta_omega)
    if not np.all(np.isfinite(w)):
        raise NumericError("coupling matrix contains non-finite entries")
    return w


@dataclass(frozen=True)
class BathDiscretization:
    """Uniformly discretized port continuum coupled to a cavity.

    Port modes are delta-normalized continuum standing waves; discretized
    ladder operators absorb sqrt(delta_omega) so continuum delta commutators
    become Kronecker deltas on the grid.  ``W`` is the cavity-by-bin
    coupling from ``coupling_coefficients``; build one with
    ``port_continuum``.
    """

    cavity: CavityModes
    omega_grid: np.ndarray
    delta_omega: float
    W: np.ndarray

    @property
    def part(self) -> RegionPartition:
        return self.cavity.part

    @property
    def n_bins(self) -> int:
        return self.omega_grid.size


def port_continuum(cavity: CavityModes, omega_max: float, n_bins: int) -> BathDiscretization:
    """Uniform frequency grid over (0, omega_max], coupled to ``cavity``.

    Under the PEC port closure the grid sits at p*delta; under the PMC
    closure it shifts by half a bin, matching the standing-wave ladder a
    finite port of the commensurate length would have.
    """
    if n_bins < 8:
        raise ContractViolationError(f"n_bins must be at least 8, got {n_bins}")
    if omega_max <= 0:
        raise ContractViolationError("omega_max must be positive")
    delta = float(omega_max / n_bins)
    p = np.arange(1, n_bins + 1, dtype=float)
    if cavity.part.interface_bc is InterfaceClosure.PMC_CAVITY_PEC_PORT:
        grid = p * delta
    else:
        grid = (p - 0.5) * delta
    return BathDiscretization(cavity=cavity, omega_grid=grid, delta_omega=delta,
                              W=coupling_coefficients(cavity, grid, delta))


def _coupled_form(bath: BathDiscretization, lam: float, boundary_completion: bool,
                  factor: float) -> tuple:
    """The form ``diag(omega) + factor (lam W blocks + lam^2 completion
    term)`` (the one-excitation Hamiltonian for factor 1, the classical
    quadrature block before its scaling by sqrt(omega) for factor 2) as the
    parts ``(C, z, b, sigma)`` of ``qops.rank_one_coupling_spectrum``.

    ``factor lam W = z b^T`` up to rounding, from the signed traces:
    ``z = factor lam (c^2/2)(u_k' - u_k)/sqrt(omega_k)`` and ``b = (psi_p +
    psi_p') sqrt(delta_omega)/sqrt(omega_p)``.

    The completion (contact) term restores positive definiteness: the
    truncated basis on one side of the interface cannot represent a nonzero
    boundary value there, and the closed universe's exact quadratic form
    leaves a rank-one boundary penalty on the other side.  Under the PMC
    cavity closure it lands in C along (u_k' - u_k)/sqrt(omega_k); under the
    PEC one it is ``sigma b b^T``.  Overflow leaves inf or nan entries,
    without a warning.
    """
    part, cavity, grid = bath.part, bath.cavity, bath.omega_grid
    c, a = part.wave_speed, cavity.interface_trace()
    b = port_interface_trace(part, grid) * np.sqrt(bath.delta_omega) / np.sqrt(grid)
    cavity_block = np.diag(cavity.freqs)
    sigma = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if boundary_completion and part.interface_bc is InterfaceClosure.PMC_CAVITY_PEC_PORT:
            coeff = c**2 * (2 * bath.n_bins + 1) / (2.0 * (np.pi * c / bath.delta_omega))
            v = a / np.sqrt(cavity.freqs)
            cavity_block += factor * lam * lam * coeff * np.outer(v, v)
        elif boundary_completion:
            coeff = c**2 * (2 * cavity.n_modes + 1) / (2.0 * part.cavity_length)
            sigma = factor * lam * lam * coeff
        z = factor * lam * ((c**2 / 2.0) * a / np.sqrt(cavity.freqs))
    return cavity_block, z, b, sigma


def normal_mode_spectrum(bath: BathDiscretization, coupling_scale: float = 1.0,
                         boundary_completion: bool = True) -> np.ndarray:
    """Classical normal-mode frequencies of the coupled quadratic form.

    With the completion term the coupled quadrature block is positive
    definite and the spectrum converges to the closed-universe standing
    waves as the truncations grow.  Without it the truncated form is
    indefinite and a ModelError reports the failure.

    The squared frequencies are the eigenvalues of ``S M S``, with M the
    form of ``_coupled_form`` at factor 2 and S = diag(sqrt(omega)).  Scaled
    by S, its parts keep their rank-one shape, so
    ``qops.rank_one_coupling_spectrum`` solves it in O(m^2) for m = K +
    n_bins, with one dense solve of the K x K cavity block.
    """
    lam = float(coupling_scale)
    c, z, b, sigma = _coupled_form(bath, lam, boundary_completion, 2.0)
    s_c = np.sqrt(bath.cavity.freqs)
    with np.errstate(over="ignore", invalid="ignore"):
        c, z, b = s_c[:, None] * c * s_c, s_c * z, np.sqrt(bath.omega_grid) * b
        finite = (np.all(np.isfinite(c)) and np.all(np.isfinite(z * z))
                  and np.isfinite(sigma * (b @ b)))
    if not finite:
        raise NumericError(f"coupling_scale {lam:g} overflows the coupled quadratic form")
    sq = rank_one_coupling_spectrum(Operator(c), z, bath.omega_grid**2, b, sigma)[0].evals
    if sq[0] <= 0.0:
        advice = (f"with the completion term on, rounding broke it: reduce the port bin width "
                  f"omega_max/n_bins ({bath.delta_omega:.3e}) or coupling_scale ({lam:g})"
                  if boundary_completion else "the boundary completion term is required")
        raise ModelError("coupled quadrature form is not positive definite "
                         f"(min eigenvalue {sq[0]:.3e}); {advice}")
    return np.sqrt(sq)


def global_mode_frequencies(part: RegionPartition, n_modes: int) -> np.ndarray:
    """Exact standing waves of the closed universe [0, oracle_total_length]
    with PEC at both outer ends: m*pi*c/L.  This is the oracle the
    partitioned spectrum must reproduce."""
    m = np.arange(1, n_modes + 1, dtype=float)
    return m * np.pi * part.wave_speed / part.oracle_total_length


def decay_simulation(bath: BathDiscretization, cavity_mode_index: int, t_grid,
                     coupling_scale: float = 1.0,
                     boundary_completion: bool = True) -> Trajectory:
    """Single-excitation decay of one cavity mode into the discretized port.

    The counter-rotating -W block is dropped (rotating-wave restriction,
    recorded in metadata), so evolution stays in the one-quantum sector of
    dimension n_cavity_modes + n_bins.  Its eigenvalues and the cavity rows
    X of its eigenvectors come from the rank-one parts of ``_coupled_form``
    at factor 1 through a secular equation, with no dense solve beyond the
    cavity block, and the cavity amplitudes are ``X diag(exp(-i mu t))
    X[k]^T``.  The ``norm`` series is ``sqrt(sum_n X[k, n]^2)``, constant in
    t; ``spectral_weight_deficit`` is ``|1 - sum_n X[k, n]^2|`` and
    ``secular_iterations`` the most iterations any root took.

    Memory: the series, the cavity rows and one chunk of phases and
    amplitudes at a time: :meth:`fieldcqed.qops.Spectrum.propagate` streams
    the amplitudes in chunks of fixed, padded width, each reduced to its
    population before the next is built, so the population has the same
    bits under any BLAS thread count.

    Time: the secular solve and the phases of the propagation dominate; the
    elementwise parts of both (the secular denominators and ``exp(-i mu
    t)``) run in the compiled kernel library when it is trusted, with the
    same bits as their NumPy references (:mod:`fieldcqed.qops`).

    Returns the total cavity population P(t) plus the golden-rule rate
    from the resonant bin (always) and a log-linear rate fit over
    0.1 < P < 0.9 when at least 3 samples fall in that window.  When the
    population rises more than 0.1 above the fitted envelope the fit does
    not hold: a warning names the cause and ``kappa_fit`` is left out of
    the metadata.
    """
    t = time_grid(t_grid)
    cavity = bath.cavity
    if not 0 <= cavity_mode_index < cavity.n_modes:
        raise IndexError(f"cavity mode {cavity_mode_index} outside [0, {cavity.n_modes})")
    lam = float(coupling_scale)
    c, z, b, sigma = _coupled_form(bath, lam, boundary_completion, 1.0)
    spec, iterations = rank_one_coupling_spectrum(Operator(c), z, bath.omega_grid, b, sigma)
    start = np.zeros(cavity.n_modes)
    start[cavity_mode_index] = 1.0
    pop_cavity = np.empty(t.size)
    for cols, amps in spec.propagate(start, t):
        pop_cavity[cols] = np.sum(np.abs(amps) ** 2, axis=0)[:cols.stop - cols.start]
    weight = float(spec.vecs[cavity_mode_index] @ spec.vecs[cavity_mode_index])
    norm = np.full(t.size, np.sqrt(weight))

    window = (pop_cavity > 0.1) & (pop_cavity < 0.9) & (t > 0)
    resonant = int(np.argmin(np.abs(bath.omega_grid - cavity.freqs[cavity_mode_index])))
    meta = {
        "rotating_wave": True,
        "counter_rotating_dropped": True,
        "coupling_scale": lam,
        "cavity_mode_index": cavity_mode_index,
        "recurrence_time": 2.0 * np.pi / bath.delta_omega,
        "resonant_bin": resonant,
        "kappa_golden_rule": float(
            2.0 * np.pi * (lam * bath.W[cavity_mode_index, resonant]) ** 2 / bath.delta_omega),
        "secular_iterations": iterations,
        "spectral_weight_deficit": abs(1.0 - weight),
    }
    if np.count_nonzero(window) >= 3:
        slope, intercept = np.polyfit(t[window], np.log(pop_cavity[window]), 1)
        envelope = np.exp(intercept + slope * t)
        if np.any(pop_cavity - envelope > 0.1):
            cause = ("bath truncation too small (recurrence reached)"
                     if t[-1] >= meta["recurrence_time"] else
                     "the population does not follow an exponential decay through "
                     "the 0.1-0.9 window")
            warnings.warn("cavity population rises above its fitted decay envelope: "
                          f"{cause}, so kappa_fit is left out", stacklevel=2)
        else:
            meta["kappa_fit"] = float(-slope)
    return Trajectory(times=t, series={"cavity_population": pop_cavity, "norm": norm},
                      metadata=meta)

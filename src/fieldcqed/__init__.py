"""Circuit-QED toolkit: transmons, transmission-line modes, their coupling,
open-boundary baths, and dynamics, with built-in consistency checks."""

from .bath import (
    BathDiscretization,
    CavityModes,
    InterfaceClosure,
    RegionPartition,
    cavity_modes_1d,
    coupling_coefficients,
    decay_simulation,
    global_mode_frequencies,
    normal_mode_spectrum,
    port_continuum,
)
from .coupled import (
    MAX_DIM,
    CoupledHamiltonian,
    CouplingSpec,
    build_full_hamiltonian,
    build_nn_hamiltonian,
    coupling_strength,
    coupling_table,
    field_mode_rates,
    field_reduction_check,
    mode_rates,
    total_excitation_op,
)
from .dynamics import (
    ClassicalState,
    Trajectory,
    classical_trajectory,
    ehrenfest_check,
    ehrenfest_residual,
    evolve,
    first_return_period,
    secular_energy_ratio,
)
from .errors import (
    CapacityError,
    ConfigError,
    ContractViolationError,
    DimensionMismatchError,
    FieldCqedError,
    ModelError,
    NumericError,
    StepSizeError,
)
from .qops import Operator, StateVector, annihilation_op
from .transmon import (
    TransmonParams,
    TransmonSolution,
    TunnelingSign,
    anharmonicity,
    build_charge_hamiltonian,
    charge_dispersion,
    charge_matrix_element,
    charge_number_op,
    level_sweep,
    sin_phi_op,
    solve,
)
from .txline import (
    BoundaryCondition,
    LineParams,
    LongitudinalNorm,
    ModeSet,
    TEMCrossSection,
    compute_modes,
    energy_correspondence,
    matched_cross_section,
    mode_operator_coeffs,
    tem_cross_section,
)

__version__ = "0.1.0"

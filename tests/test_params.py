import numpy as np
import pytest

from fieldcqed.bath import RegionPartition
from fieldcqed.coupled import CouplingSpec
from fieldcqed.errors import ContractViolationError
from fieldcqed.transmon import TransmonParams
from fieldcqed.txline import LineParams, tem_cross_section

VALID = {
    TransmonParams: {"EC": 0.3, "EJ": 15.0, "ng": 0.2},
    CouplingSpec: {"beta": 0.2, "z0": 0.003, "path_gain": 1.0},
    LineParams: {"L_pul": 4e-7, "C_pul": 1.6e-10, "length": 0.0125},
    RegionPartition: {"cavity_length": 1.0, "wave_speed": 1.0},
    tem_cross_section: {"w": 1e-5, "d": 5e-6, "eps_r": 11.7},
}


@pytest.mark.parametrize("make, field, value", [
    (TransmonParams, "EJ", np.inf), (TransmonParams, "EJ", np.nan),
    (TransmonParams, "EC", np.inf), (TransmonParams, "ng", np.nan),
    (TransmonParams, "ng", -np.inf),
    (CouplingSpec, "path_gain", np.inf), (CouplingSpec, "path_gain", np.nan),
    (CouplingSpec, "z0", np.nan), (CouplingSpec, "z0", np.inf),
    (LineParams, "L_pul", np.inf), (LineParams, "C_pul", np.nan),
    (LineParams, "length", np.inf),
    (RegionPartition, "cavity_length", np.nan), (RegionPartition, "wave_speed", np.inf),
    (tem_cross_section, "w", np.inf), (tem_cross_section, "d", np.nan),
    (tem_cross_section, "eps_r", np.nan),
])
def test_parameters_must_be_finite(make, field, value):
    """Each parameter type refuses a non-finite value and names the field;
    the valid values build."""
    make(**VALID[make])
    with pytest.raises(ContractViolationError, match=f"^{field} must be"):
        make(**{**VALID[make], field: value})

"""The package imports no SciPy: its eigensolvers are NumPy's own LAPACK
and its physical constants are literals.  The tests may import SciPy, to
check those literals against it."""

import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

import fieldcqed
from fieldcqed import coupled, txline


def test_importing_the_package_and_its_cli_loads_no_scipy():
    code = ("import sys, fieldcqed, fieldcqed.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(fieldcqed.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60)
    assert (run.returncode, run.stdout.strip()) == (0, "[]"), run.stderr


def test_constant_literals_are_scipys_bit_for_bit():
    for mine, theirs in ((txline.epsilon_0, scipy.constants.epsilon_0),
                         (txline.hbar, scipy.constants.hbar),
                         (txline.mu_0, scipy.constants.mu_0),
                         (coupled.ELEMENTARY_CHARGE, scipy.constants.e)):
        assert mine.hex() == theirs.hex()
    assert coupled.TWO_E_OVER_HBAR.hex() == (2.0 * scipy.constants.e / scipy.constants.hbar).hex()

"""The benchmark's tracer wraps package functions by name from outside the
package (``bench/tracer.py``).  A name it reaches for that the package no
longer has stops every traced benchmark run, so this test installs the
tracer, checks that each planned name was wrapped, and checks that
``uninstall`` puts every original object back.  The tracer is read from its
file without changing ``sys.path`` or writing anything under ``bench/``."""

import inspect
import sys

import numpy

import fieldcqed
import fieldcqed.cli  # noqa: F401  (the tracer plans cli names only when cli is loaded)
from fieldcqed import checks, qops

def package_modules() -> dict:
    return {name.split(".")[-1]: mod for name, mod in sys.modules.items()
            if name == "fieldcqed" or name.startswith("fieldcqed.")}


def namespaces() -> list:
    """Every mapping the tracer may rebind or patch."""
    spaces = [vars(m) for m in package_modules().values()]
    spaces += [vars(numpy.linalg), checks.SUITES, vars(qops.Operator)]
    spaces += [vars(obj) for obj in vars(fieldcqed.txline).values()
               if inspect.isclass(obj) and obj.__module__ == fieldcqed.txline.__name__]
    return spaces


def snapshot() -> list:
    return [(space, dict(space)) for space in namespaces()]


def test_tracer_wraps_every_planned_name_and_restores_it(bench_module):
    tracer_mod = bench_module("tracer")
    mods = package_modules()
    originals = {(module, attr): getattr(mods[module], attr)
                 for _, module, attr, _, _ in tracer_mod._PLAN}
    before = snapshot()
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        for (module, attr), original in originals.items():
            assert getattr(mods[module], attr) is not original, f"{module}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for space, saved in before:
        assert space.keys() == saved.keys()
        changed = [key for key, value in saved.items() if space[key] is not value]
        assert not changed, changed


def test_tracer_suite_names_match_the_check_suites(bench_module):
    assert set(checks.SUITES) == set(bench_module("tracer").SUITE_NAMES)

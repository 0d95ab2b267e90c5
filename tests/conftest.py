"""Shared test configuration.

Property tests run under one deterministic hypothesis profile: the same
examples on every run (so a failure reproduces and tier-1 timing is
stable), a bounded example count, no per-example deadline (BLAS timing on
a shared host varies) and no example database written to disk.
"""

from hypothesis import settings

settings.register_profile("fieldcqed", derandomize=True, max_examples=40,
                          deadline=None, database=None)
settings.load_profile("fieldcqed")

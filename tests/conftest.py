"""Shared test settings.

One hypothesis profile for every property test: no per-example deadline,
since one example's time varies widely on a loaded machine; each test
keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("cstar", deadline=None)
settings.load_profile("cstar")

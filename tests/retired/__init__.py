"""Code taken out of ``src/`` because nothing but its own tests ran it.

What runs is what ships (ROADMAP aim 3, ``tests/test_what_runs.py``): the
guidance trajectory helpers (``deadreckoning.py``) had no caller in any
session, bench, example or tool.  Their unit tests are on the test floor,
so the module is parked here, verbatim, beside those tests.  Nothing
outside ``tests/`` may import from this package; the module leaves with
its tests as soon as a change has removals to spare (ROADMAP item 7 keeps
the queue).
"""

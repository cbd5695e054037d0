"""Code PR 19 took out of ``src/`` because nothing but its own tests ran it.

What runs is what ships (ROADMAP aim 3, ``tests/test_what_runs.py``): the
Schnorr signer and the guidance trajectory helpers had no caller in any
session, bench, example or tool.  Their unit tests are on
the test floor, which lets one PR drop only a few tests, so the modules
are parked here, verbatim, beside those tests.  Nothing outside ``tests/``
may import from this package; a module leaves with its test file as soon
as a PR has removals to spare (ROADMAP item 5 keeps the queue).
"""

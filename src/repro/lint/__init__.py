"""repro.lint — determinism & protocol-conformance static analysis.

The analyzer behind ``repro lint`` / ``python -m repro.lint``.  Pure
stdlib (``ast``); see ``docs/STATIC_ANALYSIS.md`` for the rule catalog
and the inline-ignore convention.
"""

"""Watchmen core: the paper's contribution.

The package re-exports only what callers import through it — the
config, the session, the reputation board, the admission estimates;
everything else is imported from its own submodule.

Re-exports resolve lazily (PEP 562): importing a single leaf such as
:mod:`repro.core.config` must not drag in the whole protocol stack, both
for import speed and because :mod:`repro.game` modules import paper
constants from ``repro.core.config`` — an eager ``__init__`` would
re-enter the partially-initialised ``repro.game`` package and crash.
"""

from importlib import import_module
from typing import Any

#: Public name -> defining submodule, resolved on first attribute access.
_EXPORTS = {
    "estimate_proxy_kbps": "repro.core.admission",
    "estimate_publisher_kbps": "repro.core.admission",
    "feasibility_test": "repro.core.admission",
    "WatchmenConfig": "repro.core.config",
    "WatchmenSession": "repro.core.protocol",
    "ReputationBoard": "repro.core.reputation",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    target = _EXPORTS.get(name)
    if target is not None:
        value = getattr(import_module(target), name)
        globals()[name] = value  # cache: subsequent lookups skip __getattr__
        return value
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")


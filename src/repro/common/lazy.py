"""Lazy package exports (PEP 562).

Every package ``__init__`` in ``repro`` names its public API in a table
instead of importing it: ``import repro.cluster.cluster`` then loads the
cluster model without the autotuner, and a result-cache hit never
imports the machine simulator.  A public name is imported the first
time it is read (``repro.run``, ``from repro.sim import Machine``) and
then cached in the package namespace, so later reads are plain
attribute lookups.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, object],
    exports: Mapping[str, Sequence[str]],
    modules: Optional[Mapping[str, str]] = None,
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package whose
    ``globals()`` is ``namespace``.

    ``exports`` maps a module path to the public names it defines;
    ``modules`` maps a public name to a module that is itself the export
    (``repro.systems`` is the module ``repro.sim.systems``).  Reading any
    other missing attribute raises ``AttributeError``, which is also
    what lets ``from package import submodule`` fall back to importing
    the submodule.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items() for name in names}
    module_exports = dict(modules or {})
    public = [*where, *module_exports]

    def __getattr__(name: str) -> object:
        if name in where:
            value = getattr(importlib.import_module(where[name]), name)
        elif name in module_exports:
            value = importlib.import_module(module_exports[name])
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(public))

    return public, __getattr__, __dir__

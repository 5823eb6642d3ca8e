"""Package namespaces that resolve their names on first access (PEP 562).

A package ``__init__`` that imports every submodule to re-export its names
makes each importer pay for all of them: ``from repro.ease import EASE``
would load the profiling runtime, and ``from repro.partitioning import
ALL_PARTITIONER_NAMES`` all eleven partitioners.  :func:`lazy_exports`
instead records which submodule defines each public name; a submodule is
imported the first time one of its names is read, and the value is then
stored in the package namespace, so later reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(namespace: Dict[str, object],
                 exports: Dict[str, Sequence[str]],
                 ) -> Tuple[List[str], Callable[[str], object],
                            Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of a package.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    relative submodule name (``".features"``) to the names it defines.
    An unknown name raises :class:`AttributeError`, so ``hasattr`` and
    ``unittest.mock.patch`` behave as on an eager package.
    """
    package = namespace["__name__"]
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return list(owner), __getattr__, __dir__

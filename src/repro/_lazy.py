"""Lazy package namespaces (PEP 562).

A package ``__init__`` lists, per submodule, the public names it
exports.  Importing the package imports none of them: a name's
submodule is imported on first access and the value stored in the
package's globals, so every later lookup is a plain attribute hit.
Start-up then pays only for the modules a command uses.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Callable, Dict, List, Sequence, Tuple


def load(module: str) -> ModuleType:
    """Import ``module`` and return it.

    Unlike :func:`importlib.import_module`, the import goes through the
    ``import`` statement's path, so ``python -X importtime`` reports it.
    """
    __import__(module)
    return sys.modules[module]


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``,
    which exports the names listed under each of its submodules."""
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(load(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)

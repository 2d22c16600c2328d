"""Package ``__init__``s that import their public names on first use.

A package whose ``__init__`` imports every submodule makes importing
any one submodule import all of them.  The worker processes boot by
importing one module each (``repro.llm.interpreter``,
``repro.service.cache``), and would otherwise import the whole
library first.  :func:`lazy_exports` gives a package a module-level
``__getattr__`` (PEP 562) that imports a public name from its
submodule on first access, so ``from repro.ion import IoNavigator``
and ``repro.ion.IoNavigator`` work as before.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """The ``__getattr__`` of ``package``; ``exports`` maps each
    submodule to the public names it defines."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__

"""Lazy package surfaces (PEP 562).

A package ``__init__`` that imports every public name eagerly makes
``import package.one_submodule`` cost the dependencies of *all* of them:
a live node process used to load every figure runner and the
scipy-backed baselines to run a stack that names none of them.
The packages with wide surfaces (``repro``, ``repro.experiments``,
``repro.chaos``, ``repro.live``, ``repro.baselines``) instead declare
which submodule defines each public name and resolve a name the first
time it is asked for::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.experiments.harness": ("Simulation", "SimulationConfig"),
    })

``from package import Name``, ``package.Name``, ``dir(package)`` and
``__all__`` behave as before; ``from package import submodule`` still
works because the import system falls back to importing the submodule
when ``__getattr__`` raises :class:`AttributeError`.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Mapping, Sequence


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module ``__getattr__``/``__dir__`` resolving ``exports`` on demand.

    Args:
        package: the ``__name__`` of the package being given the hooks.
        exports: dotted module → the public names it defines.
    """
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module), name)
        # Cache on the package so the hook runs once per name.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__

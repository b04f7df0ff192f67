"""scipy's compiled LAPACK module, without its package.

The package calls one compiled scipy kernel: ``dtrtrs`` from
``scipy.linalg._flapack`` (in ``blockla``). Importing that module the
usual way first runs ``scipy/linalg/__init__.py``, which takes about half
a second, more than a whole ``cascadepass add`` design step. ``_load``
reads the extension module straight from scipy's installed package
directory and registers it in ``sys.modules`` under its own name. A later
``import scipy.linalg`` then finds it there, so scipy and this package
share one copy; a module that scipy has already imported is used as it
is. Only the parent package's attribute is not set: reach the module by
an import, not as ``scipy.linalg._flapack``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _load(name: str):
    """The compiled module ``name`` of scipy, loaded without its package."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    directory = os.path.join(root, *name.split(".")[1:-1])
    finder = importlib.machinery.FileFinder(
        directory,
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled module {name} in {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


flapack = _load("scipy.linalg._flapack")

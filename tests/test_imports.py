"""Importing the package loads one compiled scipy module and no scipy
package, and every name a module exports exists.

The scipy checks run in a fresh interpreter, since the test session
itself has long since imported scipy.linalg and scipy.optimize.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cascadepass

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str):
    """The JSON value a fresh interpreter prints after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_package_loads_no_scipy_package():
    loaded = run_fresh(
        "import json, sys\n"
        "import cascadepass, cascadepass.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    assert loaded == ["scipy.linalg._flapack"]


SCIPY = "import scipy.linalg, scipy.optimize"
PACKAGE = "from cascadepass import blockla, lmi"


@pytest.mark.parametrize("first,second", [(SCIPY, PACKAGE), (PACKAGE, SCIPY)],
                         ids=["scipy-first", "package-first"])
def test_scipy_and_the_package_share_one_copy_of_each_kernel(first, second):
    shared = run_fresh(
        "import json, sys\n"
        f"{first}\n{second}\n"
        "import numpy as np\n"
        "res = scipy.optimize.minimize(lambda x: float(((x - 1.0) ** 2).sum()), np.zeros(3),\n"
        "                              method='L-BFGS-B')\n"
        "print(json.dumps({\n"
        "    'dtrtrs': blockla.flapack.dtrtrs is scipy.linalg.lapack.dtrtrs,\n"
        "    'registered': blockla.flapack is sys.modules['scipy.linalg._flapack'],\n"
        "    'minimized': bool(res.success) and bool(np.allclose(res.x, 1.0)),\n"
        "}))\n"
    )
    assert shared == dict.fromkeys(["dtrtrs", "registered", "minimized"], True)


def test_every_exported_name_resolves():
    # A public name deleted from a module must leave its __all__ and the
    # package's too.
    modules = [cascadepass] + [importlib.import_module(f"cascadepass.{info.name}")
                               for info in pkgutil.iter_modules(cascadepass.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []

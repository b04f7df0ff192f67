"""The package runs without scipy, and every name a module exports exists.

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

import cascadepass

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str, **variables):
    """The JSON value a fresh interpreter prints after running code, with
    the given environment variables set."""
    env = dict(os.environ, **variables)
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
    assert loaded == []


def test_the_cli_designs_grows_and_checks_with_scipy_blocked(tmp_path):
    # With sys.modules["scipy"] = None, any import of scipy raises ImportError.
    codes = run_fresh(
        "import contextlib, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from pathlib import Path\n"
        "from cascadepass import files\n"
        "from cascadepass.cli import execute\n"
        "from cascadepass.sample_cascades import addition_blocks, four_stage_cascade\n"
        f"tmp = Path({str(tmp_path)!r})\n"
        "three, four = str(tmp / 'three.json'), str(tmp / 'four.json')\n"
        "files.save_network(four_stage_cascade(3), three)\n"
        "files.save_network(four_stage_cascade(), four)\n"
        "files.save_addition(*addition_blocks(), tmp / 'add.json')\n"
        "with contextlib.redirect_stdout(sys.stderr):\n"
        "    codes = [\n"
        "        execute(['design', '--net', three, '--out', str(tmp / 's3.json')]),\n"
        "        execute(['add', '--state', str(tmp / 's3.json'), '--sub', str(tmp / 'add.json'),\n"
        "                 '--out', str(tmp / 's4.json')]),\n"
        "        execute(['check', '--state', str(tmp / 's4.json'), '--net', four]),\n"
        "    ]\n"
        "print(json.dumps(codes))\n"
    )
    assert codes == [0, 0, 0]


def test_every_exported_name_resolves():
    # A public name deleted from a module must leave its __all__ and the
    # package's too.
    modules = [cascadepass] + [importlib.import_module(f"cascadepass.{info.name}")
                               for info in pkgutil.iter_modules(cascadepass.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []

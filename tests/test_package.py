"""Package metadata tests."""

import os
import subprocess
import sys
import tomllib
from pathlib import Path

import xbarsim


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())
    assert xbarsim.__version__ == meta["project"]["version"]


def test_cli_import_loads_no_scipy_sparse():
    # both solver regimes factor through scipy.linalg.lapack alone
    src = str(Path(xbarsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, xbarsim.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"

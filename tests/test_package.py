"""Package metadata tests."""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import xbarsim


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())
    assert xbarsim.__version__ == meta["project"]["version"]


def run_python(code):
    """Run `code` in a fresh interpreter that imports this package's source;
    returns the JSON its last line of output holds."""
    src = str(Path(xbarsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy_sparse():
    # both solver regimes factor through LAPACK routines from scipy's
    # extension module scipy.linalg._flapack, loaded without the
    # scipy.linalg package, whose import costs about 19 MB
    code = ("import json, sys, xbarsim.cli; print(json.dumps(["
            "sorted(m for m in sys.modules if m.startswith('scipy.sparse')), "
            "[m in sys.modules for m in ('scipy.linalg._flapack', 'scipy.linalg', "
            "'scipy._lib._array_api')]]))")
    assert run_python(code) == [[], [True, False, False]]


# PathFinder answers the first request for the extension module with the
# code in {} (no spec, or the spec of a file that does not exist), so that
# xbarsim.circuit falls back to scipy.linalg.lapack, whose own import then
# finds the module as usual
HIDE_ONCE = """
import importlib.util
from importlib.machinery import EXTENSION_SUFFIXES, PathFinder
original = PathFinder.__dict__['find_spec']
def hide_once(cls, name, *args):
    if name != 'scipy.linalg._flapack':
        return original.__func__(cls, name, *args)
    PathFinder.find_spec = original
    return {}
PathFinder.find_spec = classmethod(hide_once)
import xbarsim.circuit
"""
# imports xbarsim first or scipy.linalg first, or makes xbarsim.circuit fall
# back because the extension module is not found or fails to load
LAPACK_LOADS = {
    "xbarsim-first": "import xbarsim.circuit",
    "scipy-linalg-first": "import scipy.linalg; import xbarsim.circuit",
    "not-found": HIDE_ONCE.format("None"),
    "load-fails": HIDE_ONCE.format(
        "importlib.util.spec_from_file_location(name, 'missing' + EXTENSION_SUFFIXES[0])"),
}


@pytest.mark.parametrize("load", sorted(LAPACK_LOADS))
def test_lapack_routines_are_scipy_linalg_lapack_routines(load):
    code = LAPACK_LOADS[load] + """
import json, sys
import numpy as np
from xbarsim.circuit import lapack, oracle_solve, simulate
from xbarsim.config import CrossbarConfig
linalg_loaded = 'scipy.linalg' in sys.modules
import scipy.linalg.lapack as reference
rng = np.random.default_rng(3)
config = CrossbarConfig(rows=8, cols=8)
g = rng.uniform(config.g_min, config.g_max, (8, 8))
v = rng.uniform(0.0, config.v_sense_max, 8)
got, ref = simulate(config, g, v).i_out, oracle_solve(config, g, v).i_out
print(json.dumps({
    "same": [getattr(lapack, f) is getattr(reference, f)
             for f in ("dpotrf", "dpotri", "dpotrs")],
    "err": float(np.abs(got - ref).max() / np.abs(ref).max()),
    "linalg_loaded": linalg_loaded,
}))
"""
    out = run_python(code)
    assert out["same"] == [True, True, True]
    assert out["err"] <= 1e-9
    # only the extension module's own load leaves scipy.linalg unimported
    assert out["linalg_loaded"] == (load != "xbarsim-first")

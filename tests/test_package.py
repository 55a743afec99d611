"""Package metadata tests."""

import tomllib
from pathlib import Path

import xbarsim


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())
    assert xbarsim.__version__ == meta["project"]["version"]

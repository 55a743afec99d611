"""Rewrite the golden reports that tests/test_golden.py compares against.

Run from the repository root: `PYTHONPATH=src python tests/golden/regenerate.py`.
Regenerating them changes the test's data: say which fields moved, and by
how much, where the change is recorded.
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, compare, produce  # noqa: E402

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        produce(Path(tmp) / "out")
        for line in compare(GOLDEN, Path(tmp) / "out") if GOLDEN.exists() else []:
            print(line)
        for run in Path(tmp, "out").iterdir():
            shutil.rmtree(GOLDEN / run.name, ignore_errors=True)
            shutil.copytree(run, GOLDEN / run.name)

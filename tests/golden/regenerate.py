"""Write the golden reports that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py [RUN ...]

It produces every run and prints how each run that already has golden files
differs from them (`compare`'s lines; none when they match). It writes the
runs that have no golden directory yet, and rewrites only the runs named on
the command line; an unknown name exits non-zero and lists the runs.
Rewriting a run changes the test's data: say which fields moved, and by how
much, where the change is recorded.
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, compare, produce  # noqa: E402


def main(names):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        produce(out)
        runs = sorted(p.name for p in out.iterdir())
        unknown = sorted(set(names) - set(runs))
        if unknown:
            sys.exit(f"unknown runs {unknown}; the runs are {runs}")
        written = [run for run in runs if not (GOLDEN / run).exists()]
        for run in written:
            shutil.copytree(out / run, GOLDEN / run)
        # the new runs now match, so these lines are the existing runs'
        for line in compare(GOLDEN, out):
            print(line)
        for run in sorted(set(names) - set(written)):
            shutil.rmtree(GOLDEN / run)
            shutil.copytree(out / run, GOLDEN / run)
            written.append(run)
    print(f"wrote {sorted(written)}" if written else "wrote nothing")


if __name__ == "__main__":
    main(sys.argv[1:])

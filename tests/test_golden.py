"""Golden reports: six fixed CLI runs compared with the files in tests/golden.

`produce` runs them into a directory, one subdirectory each:

- `layer-exp`: `layer-exp --kernel-shape 2x2x3x3 --input-hw 4`;
- `layer-exp-sweep`: `layer-exp --kernel-shape 3x3x8x8 --conv-amp-sweep`;
- `build-engine`: `build-engine` at 8 DAC/ADC bits, the engine loaded back
  and its `execute_batch` outputs on fixed inputs in `outputs.json`;
- `run-net`: `run-net --taps all --bits none,8` on
  `build_tiny_model(seed=2, channels=(3, 4), hw=6)` over 2 images, whose
  tap reports are `.npy` arrays;
- `simulate-grid`, `simulate-lumped`: `simulate` on a 6x5 grid crossbar
  (`r_wire` > 0, `r_in` = 0, a 500-ohm select transistor) and on a 6x5
  lumped one (`r_wire` = 0, `r_in` and `r_out` > 0).

`*.log` files, which hold a time stamp, are not kept. The comparison takes
structure, strings and integers exactly and floats within GOLDEN_RTOL of
each field's scale. A field is a CSV column, a field of a `.npy` structured
array, or a JSON key path with list positions left out. Its scale is the largest magnitude the golden file
holds in it, and at least 1: every float in these reports is an output,
of order 1, or an error or a fraction of an output range, whose unit is 1,
so that an error near 0 is held to 1e-12 of the output range. The
`simulate` runs are the exception. Their `i_out`, `v_top` and `v_bot` are
held to GOLDEN_RTOL of the field's own largest golden magnitude, with no
floor, since a floor of 1 would hide any change to currents of about
1e-5 A. Their `residual` is not compared: it must lie below RESIDUAL_TOL.
`python tests/golden/regenerate.py` rewrites the files.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from xbarsim import cli
from xbarsim.circuit import RESIDUAL_TOL
from xbarsim.engine import VmmEngine
from xbarsim.files import write_json
from xbarsim.metrics import gen_input, gen_kernel
from xbarsim.netrunner import build_tiny_model, save_model, save_tensor

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RTOL = 1e-12
# the simulate runs and their crossbars, all 6x5; `compare` holds their
# fields to their own scale and their residual below RESIDUAL_TOL
SIMULATE_RUNS = {
    "simulate-grid": {"r_in": 0.0, "r_transistor_on": 500.0},
    "simulate-lumped": {"r_wire": 0.0, "r_in": 2.0, "r_out": 3.0},
}


def produce(out):
    """Run the three golden runs into `out`, one subdirectory each."""
    out = Path(out)
    assert cli.main(["layer-exp", "--kernel-shape", "2x2x3x3", "--input-hw", "4",
                     "--out", str(out / "layer-exp")]) == 0
    assert cli.main(["layer-exp", "--kernel-shape", "3x3x8x8", "--conv-amp-sweep",
                     "--out", str(out / "layer-exp-sweep")]) == 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        save_tensor(work / "w.npy", gen_kernel(1, (3, 3, 3, 4), 0).reshape(27, 4))
        write_json(work / "cfg.json", {"dac_bits": 8, "adc_bits": 8, "seed": 3})
        assert cli.main(["build-engine", "--config", str(work / "cfg.json"),
                         "--weights", str(work / "w.npy"),
                         "--out", str(work / "engine.json")]) == 0
        X = np.random.default_rng(5).uniform(0.0, 1.0, size=(8, 27))
        outputs = VmmEngine.load(work / "engine.json").execute_batch(X)
        (out / "build-engine").mkdir()
        write_json(out / "build-engine" / "outputs.json", {"outputs": outputs.tolist()})

        save_model(build_tiny_model(seed=2, channels=(3, 4), hw=6), work / "tiny.json")
        (work / "imgs").mkdir()
        for i in range(2):
            save_tensor(work / "imgs" / f"img{i}.npy", gen_input((6, 6, 3), 0.3, 50 + i))
        assert cli.main(["run-net", "--model", str(work / "tiny.json"),
                         "--images", str(work / "imgs"), "--taps", "all",
                         "--bits", "none,8", "--out", str(out / "run-net")]) == 0

        rng = np.random.default_rng(11)
        save_tensor(work / "g.npy", rng.uniform(1.0 / 300e3, 1.0 / 15e3, size=(6, 5)))
        save_tensor(work / "v.npy", rng.uniform(0.0, 0.2, size=6))
        for run, crossbar in SIMULATE_RUNS.items():
            write_json(work / f"{run}.json", {"crossbar": crossbar})
            (out / run).mkdir()
            assert cli.main(["simulate", "--config", str(work / f"{run}.json"),
                             "--conductance", str(work / "g.npy"),
                             "--input", str(work / "v.npy"),
                             "--out", str(out / run / "solution.json")]) == 0
    for log in out.rglob("*.log"):
        log.unlink()


def _value(text):
    """A CSV cell as an int, else a float, else the string it is."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _json_leaves(node, field, where, leaves):
    """Append (field, where, value) for every leaf of a JSON document, and
    for each object its sorted keys and for each list its length; `where`
    is the leaf's path with its list positions."""
    if isinstance(node, dict):
        leaves.append((field + "{}", where, sorted(node)))
        for key, child in node.items():
            _json_leaves(child, f"{field}.{key}", f"{where}.{key}", leaves)
    elif isinstance(node, list):
        leaves.append((field + "[]", where, len(node)))
        for k, child in enumerate(node):
            _json_leaves(child, field + "[]", f"{where}[{k}]", leaves)
    else:
        leaves.append((field, where, node))


def report_leaves(path):
    """Every value of a CSV, .npy or JSON report as (field, where, value).
    A table, CSV or .npy, gives its header, its row count, then each row's
    fields; a structured array's field names act as its header."""
    path = Path(path)
    if path.suffix == ".npy":
        table = np.load(path, allow_pickle=False)
        header, rows = list(table.dtype.names), table.tolist()
    elif path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        rows = [list(map(_value, row)) for row in rows]
    else:
        leaves = []
        _json_leaves(json.loads(path.read_text()), "", "", leaves)
        return leaves
    leaves = [(":header", ":header", header), (":rows", ":rows", len(rows))]
    for k, row in enumerate(rows):
        leaves += [(f":{name}", f":{name} row {k}", value)
                   for name, value in zip(header, row)]
    return leaves


def compare(golden_dir, out_dir, rtol=GOLDEN_RTOL):
    """The differences of `out_dir` from `golden_dir`, one line each: missing
    or extra files, and for each field whose values differ in structure,
    string or integer, or by more than `rtol` of its scale, its largest
    change. An empty list means the reports match."""
    golden_dir, out_dir = Path(golden_dir), Path(out_dir)
    names, got = ({p.relative_to(root) for p in root.glob("*/*") if p.is_file()}
                  for root in (golden_dir, out_dir))
    problems = [f"{name}: missing" for name in sorted(names - got)]
    problems += [f"{name}: not in the golden files" for name in sorted(got - names)]
    for name in sorted(names & got):
        want, have = report_leaves(golden_dir / name), report_leaves(out_dir / name)
        if len(want) != len(have):
            problems.append(f"{name}: {len(have)} values, golden {len(want)}")
            continue
        simulated = name.parts[0] in SIMULATE_RUNS
        scale, worst = {}, {}
        for field, _, value in want:
            if isinstance(value, float) and math.isfinite(value):
                scale[field] = max(scale.get(field, 0.0 if simulated else 1.0), abs(value))
        for (field, where, a), (other, _, b) in zip(want, have):
            if other != field:
                problems.append(f"{name}{where}: field {other}, golden {field}")
                break
            if simulated and field == ".residual":
                if not (isinstance(b, float) and b < RESIDUAL_TOL):
                    problems.append(f"{name}.residual: {b!r}, not below {RESIDUAL_TOL}")
                continue
            if isinstance(a, float) and isinstance(b, float):
                change = 0.0 if a == b or (math.isnan(a) and math.isnan(b)) else abs(b - a)
                if change > worst.get(field, (0.0,))[0]:
                    worst[field] = (change, where, a, b)
            elif type(a) is not type(b) or a != b:
                problems.append(f"{name}{where}: {b!r}, golden {a!r}")
        for field, (change, where, a, b) in sorted(worst.items()):
            if not change <= rtol * scale.get(field, math.inf):
                problems.append(
                    f"{name}{field}: largest change {change:.3e} ({change / scale[field]:.3e} "
                    f"of its scale {scale[field]:.6g}) at {where}: {b!r}, golden {a!r}")
    return problems


def test_golden_reports_match(tmp_path):
    produce(tmp_path / "out")
    problems = compare(GOLDEN, tmp_path / "out")
    assert not problems, "reports differ from tests/golden:\n" + "\n".join(problems)


def test_compare_names_each_fields_largest_change(tmp_path):
    for root in ("a", "b"):
        (tmp_path / root / "run").mkdir(parents=True)
    (tmp_path / "a" / "run" / "r.csv").write_text("k,x,y\r\na,1.0,2.0\r\nb,3.0,4.0\r\n")
    (tmp_path / "b" / "run" / "r.csv").write_text("k,x,y\r\na,1.0,2.5\r\nc,3.0,4.0\r\n")
    (tmp_path / "a" / "run" / "s.json").write_text('{"m": [1.0, 2.0], "e": [1e-9], "n": 1}')
    (tmp_path / "b" / "run" / "s.json").write_text(
        '{"m": [1.0, 2.0000001], "e": [1.5e-9], "n": 1.0}')
    assert compare(tmp_path / "a", tmp_path / "a") == []
    problems = compare(tmp_path / "a", tmp_path / "b")
    assert problems[0] == "run/r.csv:k row 1: 'c', golden 'b'"
    assert problems[1].startswith("run/r.csv:y: largest change 5.000e-01 (1.250e-01 of")
    assert problems[2] == "run/s.json.n: 1.0, golden 1"
    # an error near 0 is held to its unit, 1, not to its own size
    assert problems[3].startswith("run/s.json.e[]: largest change 5.000e-10 (5.000e-10 of")
    assert problems[4].startswith("run/s.json.m[]: largest change 1.000e-07 (5.000e-08 of")
    assert len(problems) == 5
    # every float change lies within 0.2 of its field's scale
    assert compare(tmp_path / "a", tmp_path / "b", rtol=0.2) == [problems[0], problems[2]]


def test_compare_reads_npy_tables_as_csv_ones(tmp_path):
    dtype = np.dtype([("window", np.int64), ("x", float)])
    golden = np.array([(0, 0.5), (1, 1.0)], dtype)
    for root, table in (("a", golden), ("b", np.array([(0, 0.5), (2, 1.0 + 1e-13)], dtype)),
                        ("c", golden[:1]),
                        ("d", golden.astype([("column", np.int64), ("x", float)]))):
        (tmp_path / root / "run").mkdir(parents=True)
        np.save(tmp_path / root / "run" / "t.npy", table)
    assert compare(tmp_path / "a", tmp_path / "a") == []
    # integers exactly, floats within GOLDEN_RTOL of the field's scale
    assert compare(tmp_path / "a", tmp_path / "b") == ["run/t.npy:window row 1: 2, golden 1"]
    assert compare(tmp_path / "a", tmp_path / "c") == ["run/t.npy: 4 values, golden 6"]
    # the field names are the header
    assert compare(tmp_path / "a", tmp_path / "d")[0] == \
        "run/t.npy:header: ['column', 'x'], golden ['window', 'x']"


def test_compare_holds_simulate_fields_to_their_own_scale(tmp_path):
    golden = {"i_out": [2e-5, -1e-5], "v_top": [0.2], "v_bot": [0.01], "residual": 1e-16}
    for root, doc in (("a", golden),
                      ("b", {**golden, "i_out": [2e-5 * (1 + 1e-9), -1e-5]}),
                      ("c", {**golden, "residual": 1e-13}),
                      ("d", {**golden, "residual": 2 * RESIDUAL_TOL})):
        (tmp_path / root / "simulate-grid").mkdir(parents=True)
        write_json(tmp_path / root / "simulate-grid" / "solution.json", doc)
    # a change of 1e-9 relative to currents of 2e-5 A is caught: no floor of 1
    problems = compare(tmp_path / "a", tmp_path / "b")
    assert len(problems) == 1
    assert problems[0].startswith("simulate-grid/solution.json.i_out[]: largest change")
    # the residual is held below RESIDUAL_TOL, not compared
    assert compare(tmp_path / "a", tmp_path / "c") == []
    assert compare(tmp_path / "a", tmp_path / "d") == [
        f"simulate-grid/solution.json.residual: {2 * RESIDUAL_TOL!r}, not below {RESIDUAL_TOL}"]

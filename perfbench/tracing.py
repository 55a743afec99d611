"""In-memory span tracing of xbarsim, wired from outside the package.

`Tracer.install()` wraps the public functions of each module (`circuit`,
`engine`, `quantize`, `convmap`, `netrunner`, `cli`) and
`scipy.sparse.linalg.splu`. Several modules import names by value, so the
wrapper replaces every binding of the original object in every loaded
module, not just the defining one; `uninstall()` puts the originals back.

Each span records its name, start, end, parent span and the id of the
workload run it belongs to. Self time is a span's duration minus the time
its child spans cover. Counters (rows, iterations, clips, factor sizes)
are recorded by hooks at the same boundaries.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg

from xbarsim import circuit, cli, convmap, engine, netrunner, quantize

clock = time.perf_counter


def _rows(array):
    return np.atleast_2d(np.asarray(array)).shape[0]


def _on_splu(tracer, args, result, state):
    # SuperLU's own count of stored L+U entries; reading .L/.U would copy them
    tracer.counters["circuit.lu_nnz"] = max(tracer.counters["circuit.lu_nnz"],
                                            result.nnz)


def _on_currents(tracer, args, result, state):
    tracer.counters["circuit.currents_rows"] += _rows(args[1])


def _on_convert(tracer, args, result, state):
    c = tracer.counters
    c["engine.convert_iters"] += result.iterations
    c["engine.converged"] += int(result.converged)
    c["engine.clipped_devices"] += result.clipped_low + result.clipped_high
    if np.isfinite(result.col_error):   # max_iter=0 reports an infinite error
        c["engine.col_error_max"] = max(c["engine.col_error_max"], result.col_error)


def _on_execute(tracer, args, result, state):
    tracer.counters["engine.execute_rows"] += _rows(args[1])


def _clip_count(args):
    spec = args[1]
    if spec is None or spec.bits is None:
        return None
    return spec, spec.clip_count


def _quantizer_hook(kind):
    def hook(tracer, args, result, state):
        if state is None:
            return
        spec, before = state
        tracer.counters[f"quantize.{kind}_clips"] += spec.clip_count - before
        tracer.counters[f"quantize.{kind}_samples"] += np.size(args[0])
    return hook


def _on_window(tracer, args, result, state):
    tracer.counters["convmap.window_rows"] += result.shape[0]


def _on_infer(tracer, args, result, state):
    tracer.counters["netrunner.tap_rows"] += len(result[1].rows)


# (owner, attribute, span name, hook after the call, hook before the call)
TARGETS = [
    (circuit.CrossbarSolver, "__init__", "circuit.factor", None, None),
    (scipy.sparse.linalg, "splu", "circuit.splu", _on_splu, None),
    (circuit.CrossbarSolver, "transfer_matrix", "circuit.transfer", None, None),
    (circuit.CrossbarSolver, "currents", "circuit.currents", _on_currents, None),
    (circuit.CrossbarSolver, "solve", "circuit.solve", None, None),
    (engine, "build_engine", "engine.build", None, None),
    (engine, "convert", "engine.convert", _on_convert, None),
    (engine, "get_cali_para", "engine.calibrate", None, None),
    (engine, "evaluate_engine", "engine.evaluate", None, None),
    (engine, "optimize_conversion_signal", "engine.optimize_signal", None, None),
    (engine.VmmEngine, "execute_batch", "engine.execute", _on_execute, None),
    (quantize, "dac_quantize", "quantize.dac", _quantizer_hook("dac"), _clip_count),
    (quantize, "adc_quantize", "quantize.adc", _quantizer_hook("adc"), _clip_count),
    (convmap, "window_matrix", "convmap.window", _on_window, None),
    (netrunner, "run_inference", "netrunner.infer", _on_infer, None),
    (netrunner, "quantization_sweep", "netrunner.sweep", None, None),
    (cli, "main", "cli.command", None, None),
]


class Tracer:
    """Records spans and counters while installed; reports per-layer metrics."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index or None]
        self.counters = defaultdict(float)
        self.overhead_s = 0.0    # time spent in the tracing code itself
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, after=None, before=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            state = before(args) if before else None
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = start, end
            if after:
                after(self, args, result, state)
            self.overhead_s += (start - entered) + (clock() - end)
            return result
        return traced

    def install(self):
        """Wrap every target, replacing each binding of it in loaded modules."""
        by_id = {}
        for owner, attr, name, after, before in TARGETS:
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, after, before)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
            else:
                by_id[id(original)] = wrapped
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for key, value in list(namespace.items()):
                if id(value) in by_id:
                    self._patch(module, key, value, by_id[id(value)])

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, busy seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), covered in zip(self.spans, child_time):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        return out

    def span_records(self):
        return [{"run": self.run_id, "name": name, "start": start, "end": end,
                 "parent": parent}
                for name, start, end, parent in self.spans]


# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "circuit.factor_calls": "count", "circuit.factor_s": "s",
    "circuit.splu_s": "s", "circuit.assemble_s": "s",
    "circuit.lu_nnz": "count",
    "circuit.transfer_calls": "count", "circuit.transfer_s": "s",
    "circuit.currents_calls": "count", "circuit.currents_rows": "count",
    "circuit.currents_s": "s",
    "circuit.solve_calls": "count", "circuit.solve_s": "s",
    "engine.build_calls": "count", "engine.build_s": "s",
    "engine.convert_s": "s", "engine.convert_iters": "count",
    "engine.converged_ratio": "fraction", "engine.col_error_max": "fraction",
    "engine.clipped_devices": "count", "engine.calibrate_s": "s",
    "engine.execute_calls": "count", "engine.execute_rows": "count",
    "engine.execute_s": "s", "engine.execute_self_s": "s",
    "quantize.s": "s", "quantize.dac_clips": "count",
    "quantize.adc_clips": "count", "quantize.adc_clip_ratio": "fraction",
    "convmap.window_calls": "count", "convmap.window_rows": "count",
    "convmap.window_s": "s",
    "netrunner.infer_calls": "count", "netrunner.infer_s": "s",
    "netrunner.infer_self_s": "s", "netrunner.tap_rows": "count",
    "cli.command_s": "s", "cli.self_s": "s", "cli.report_bytes": "bytes",
    "trace.run_s": "s", "trace_overhead_s": "s",
}


def layer_metrics(tracer, iterations, run_s, report_bytes):
    """Per-layer metrics per workload iteration, named as in LAYER_METRICS."""
    t = tracer.totals()   # a defaultdict: spans that never ran read as zeros
    c = tracer.counters

    def calls(name):
        return t[name][0]

    def busy(name):
        return t[name][1]

    def own(name):
        return t[name][2]

    converts = calls("engine.convert")
    adc_samples = c["quantize.adc_samples"]
    total = {
        "circuit.factor_calls": calls("circuit.factor"),
        "circuit.factor_s": busy("circuit.factor"),
        "circuit.splu_s": busy("circuit.splu"),
        "circuit.assemble_s": busy("circuit.factor") - busy("circuit.splu"),
        "circuit.transfer_calls": calls("circuit.transfer"),
        "circuit.transfer_s": busy("circuit.transfer"),
        "circuit.currents_calls": calls("circuit.currents"),
        "circuit.currents_rows": c["circuit.currents_rows"],
        "circuit.currents_s": busy("circuit.currents"),
        "circuit.solve_calls": calls("circuit.solve"),
        "circuit.solve_s": busy("circuit.solve"),
        "engine.build_calls": calls("engine.build"),
        "engine.build_s": busy("engine.build"),
        "engine.convert_s": busy("engine.convert"),
        "engine.convert_iters": c["engine.convert_iters"],
        "engine.clipped_devices": c["engine.clipped_devices"],
        "engine.calibrate_s": busy("engine.calibrate"),
        "engine.execute_calls": calls("engine.execute"),
        "engine.execute_rows": c["engine.execute_rows"],
        "engine.execute_s": busy("engine.execute"),
        "engine.execute_self_s": own("engine.execute"),
        "quantize.s": busy("quantize.dac") + busy("quantize.adc"),
        "quantize.dac_clips": c["quantize.dac_clips"],
        "quantize.adc_clips": c["quantize.adc_clips"],
        "convmap.window_calls": calls("convmap.window"),
        "convmap.window_rows": c["convmap.window_rows"],
        "convmap.window_s": busy("convmap.window"),
        "netrunner.infer_calls": calls("netrunner.infer"),
        "netrunner.infer_s": busy("netrunner.infer"),
        "netrunner.infer_self_s": own("netrunner.infer"),
        "netrunner.tap_rows": c["netrunner.tap_rows"],
        "cli.command_s": busy("cli.command"),
        "cli.self_s": own("cli.command"),
        "cli.report_bytes": report_bytes,
        "trace_overhead_s": tracer.overhead_s,
    }
    out = {name: value / iterations for name, value in total.items()}
    # ratios, maxima and the run time are not summed over iterations
    out["circuit.lu_nnz"] = c["circuit.lu_nnz"]
    out["engine.converged_ratio"] = c["engine.converged"] / converts if converts else 0.0
    out["engine.col_error_max"] = c["engine.col_error_max"]
    out["quantize.adc_clip_ratio"] = (c["quantize.adc_clips"] / adc_samples
                                      if adc_samples else 0.0)
    out["trace.run_s"] = run_s
    return {name: out[name] for name in LAYER_METRICS}

"""Memristor-crossbar CNN inference simulator.

Circuit-accurate simulation of 1T1M crossbar vector-matrix multiplication
with wire parasitics, dense kernel mapping, iterative conductance
conversion, linear readout calibration, DAC/ADC quantization, and full-CNN
inference built on top of these engines.
"""

__version__ = "0.1.0"

from .config import CrossbarConfig
from .circuit import CrossbarSolver, simulate, ideal_vmm, oracle_solve
from .engine import VmmEngine, build_engine, convert, map_weights
from .errors import SolverError, ValidationError

__all__ = [
    "CrossbarConfig", "CrossbarSolver", "simulate", "ideal_vmm",
    "oracle_solve", "VmmEngine", "build_engine", "convert", "map_weights",
    "SolverError", "ValidationError", "__version__",
]

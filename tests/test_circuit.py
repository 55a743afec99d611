"""Crossbar nodal solver tests against independent dense oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xbarsim.circuit import (CrossbarSolver, ideal_vmm, oracle_solve, simulate)
from xbarsim.config import CrossbarConfig
from xbarsim.errors import ValidationError

G_MIN = 1.0 / 300_000.0
G_MAX = 1.0 / 15_000.0


# every regime of the solver: r_wire, (r_in, r_out), r_transistor_on
REGIMES = list(itertools.product((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 500.0)))


def random_instance(seed, max_rows=8, max_cols=8, r_wire=1.0, r_in=1.0, r_out=1.0,
                    r_transistor_on=0.0):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, max_rows + 1))
    cols = int(rng.integers(1, max_cols + 1))
    config = CrossbarConfig(rows, cols, r_wire=r_wire, r_in=r_in, r_out=r_out,
                            r_transistor_on=r_transistor_on)
    g = rng.uniform(G_MIN, G_MAX, size=(rows, cols))
    v = rng.uniform(0.0, config.v_sense_max, size=rows)
    return config, g, v


def rel_diff(a, b):
    scale = max(float(np.abs(b).max()), 1e-30)
    return float(np.abs(a - b).max()) / scale


def test_single_cell_default_parasitics():
    # series path: r_in + r_wire + device + r_wire + r_out = 15004 Ohm
    config = CrossbarConfig(1, 1)
    sol = simulate(config, [[1.0 / 15_000.0]], [0.2])
    assert sol.i_out[0] == pytest.approx(0.2 / 15_004.0, rel=1e-12)


def test_matches_dense_oracle_across_wire_resistances():
    for r_wire in (0.0, 0.5, 1.0, 5.0):
        for seed in range(25):
            config, g, v = random_instance(seed, r_wire=r_wire)
            sol = simulate(config, g, v)
            ref = oracle_solve(config, g, v)
            assert rel_diff(sol.i_out, ref.i_out) <= 1e-9


def test_matches_dense_oracle_zero_terminal_resistance():
    for r_wire, r_in, r_out, r_t in REGIMES:
        for seed in range(10):
            config, g, v = random_instance(seed, r_wire=r_wire, r_in=r_in, r_out=r_out,
                                           r_transistor_on=r_t)
            sol = simulate(config, g, v)
            ref = oracle_solve(config, g, v)
            assert rel_diff(sol.i_out, ref.i_out) <= 1e-9


def test_zero_parasitics_equals_ideal_vmm():
    for seed in range(20):
        config, g, v = random_instance(seed, r_wire=0.0, r_in=0.0, r_out=0.0)
        sol = simulate(config, g, v)
        assert rel_diff(sol.i_out, ideal_vmm(v, g)) <= 1e-12


def test_zero_input_gives_zero_current():
    config, g, _ = random_instance(3)
    sol = simulate(config, g, np.zeros(config.rows))
    assert np.abs(sol.i_out).max() <= 1e-15


def test_linear_superposition():
    config, g, _ = random_instance(7)
    rng = np.random.default_rng(11)
    v1 = rng.uniform(0.0, 0.1, size=config.rows)
    v2 = rng.uniform(0.0, 0.1, size=config.rows)
    solver = CrossbarSolver(config, g)
    i1 = solver.solve(v1).i_out
    i2 = solver.solve(v2).i_out
    i12 = solver.solve(v1 + v2).i_out
    assert rel_diff(i12, i1 + i2) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=1.0), seed=st.integers(0, 50))
def test_output_scales_linearly_with_input(scale, seed):
    config, g, v = random_instance(seed)
    solver = CrossbarSolver(config, g)
    base = solver.solve(v).i_out
    scaled = solver.solve(scale * v, check_range=False).i_out
    assert rel_diff(scaled, scale * base) <= 1e-10


def test_batch_currents_match_individual_solves():
    config, g, _ = random_instance(9)
    rng = np.random.default_rng(2)
    V = rng.uniform(0.0, config.v_sense_max, size=(6, config.rows))
    solver = CrossbarSolver(config, g)
    batch = solver.currents(V)
    for k in range(V.shape[0]):
        assert rel_diff(batch[k], solver.solve(V[k]).i_out) <= 1e-12


def test_transfer_matrix_matches_basis_inputs():
    for r_wire, r_in, r_out, r_t in REGIMES:
        config, g, _ = random_instance(13, r_wire=r_wire, r_in=r_in, r_out=r_out,
                                       r_transistor_on=r_t)
        solver = CrossbarSolver(config, g)
        T = solver.transfer_matrix()
        basis = np.eye(config.rows) * 0.1
        ref = solver.currents(basis, check_range=False) / 0.1
        assert rel_diff(T, ref) <= 1e-10


def test_transfer_matrix_ideal_is_conductance():
    config = CrossbarConfig(4, 3, r_wire=0.0, r_in=0.0, r_out=0.0)
    rng = np.random.default_rng(0)
    g = rng.uniform(G_MIN, G_MAX, size=(4, 3))
    assert np.array_equal(CrossbarSolver(config, g).transfer_matrix(), g)


def test_residual_is_small():
    config, g, v = random_instance(17)
    sol = simulate(config, g, v)
    assert sol.residual <= 1e-10


def test_rejects_bad_conductance_shape():
    config = CrossbarConfig(3, 3)
    with pytest.raises(ValidationError):
        simulate(config, np.full((2, 3), G_MIN), np.zeros(3))


def test_rejects_out_of_range_conductance():
    config = CrossbarConfig(2, 2)
    g = np.full((2, 2), G_MAX * 2.0)
    with pytest.raises(ValidationError):
        simulate(config, g, np.zeros(2))


def test_rejects_out_of_range_voltage():
    config = CrossbarConfig(2, 2)
    g = np.full((2, 2), G_MIN)
    with pytest.raises(ValidationError):
        simulate(config, g, [0.0, 0.3])
    with pytest.raises(ValidationError):
        simulate(config, g, [-0.01, 0.1])

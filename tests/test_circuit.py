"""Crossbar nodal solver tests against independent dense oracles."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import xbarsim.circuit
from xbarsim.circuit import (CrossbarSolver, _rung_blocks, _wire_neighbours,
                             ideal_vmm, oracle_solve, simulate)
from xbarsim.config import CrossbarConfig
from xbarsim.errors import SolverError, ValidationError

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
    # currents (V @ T) against the node-voltage path of solve
    for r_wire, r_in, r_out, r_t in REGIMES:
        config, g, _ = random_instance(9, r_wire=r_wire, r_in=r_in, r_out=r_out,
                                       r_transistor_on=r_t)
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
        ref = np.array([solver.solve(0.1 * e, check_range=False).i_out / 0.1
                        for e in np.eye(config.rows)])
        assert rel_diff(T, ref) <= 1e-10


def test_transfer_matrix_residual_checked_and_read_only(monkeypatch):
    grid = random_instance(5)[:2]
    lumped = random_instance(5, r_wire=0.0)[:2]
    for config, g in (grid, lumped):
        T = CrossbarSolver(config, g).transfer_matrix()
        with pytest.raises(ValueError):
            T[0, 0] = 0.0
    monkeypatch.setattr(xbarsim.circuit, "RESIDUAL_TOL", -1.0)
    for config, g in (grid, lumped):
        with pytest.raises(SolverError):
            CrossbarSolver(config, g).transfer_matrix()
        with pytest.raises(SolverError):
            CrossbarSolver(config, g).currents(np.zeros(config.rows))


@pytest.mark.parametrize("rows, cols", [(16, 160), (160, 160)])
def test_transfer_matrix_column_blocks_match_one_block(monkeypatch, rows, cols):
    rng = np.random.default_rng(rows + cols)
    for r_wire in (1.0, 0.0):
        config = CrossbarConfig(rows, cols, r_wire=r_wire)
        g = rng.uniform(G_MIN, G_MAX, size=(rows, cols))
        solver = CrossbarSolver(config, g)
        widths = []
        solve_free = solver._solve_free

        def recording_solve_free(rhs):
            widths.append(rhs.shape[1])
            return solve_free(rhs)

        monkeypatch.setattr(solver, "_solve_free", recording_solve_free)
        T = solver.transfer_matrix()
        # every column solved and residual-checked once, at most 64 at a time
        assert widths == [64, 64, 32]
        with monkeypatch.context() as m:
            m.setattr(xbarsim.circuit, "TRANSFER_BLOCK_COLS", cols)
            ref = CrossbarSolver(config, g).transfer_matrix()
        assert rel_diff(T, ref) <= 1e-12


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
    # a batch is rejected when any row is out of range, in either regime
    for r_wire in (1.0, 0.0):
        solver = CrossbarSolver(CrossbarConfig(2, 2, r_wire=r_wire), g)
        for bad in ([0.0, 0.3], [-0.01, 0.1]):
            with pytest.raises(ValidationError):
                solver.currents([[0.1, 0.1], bad])
        assert solver.currents([[0.1, 0.1], [0.0, 0.2]]).shape == (2, 2)


def test_rejects_non_finite_input():
    g = np.full((2, 2), G_MIN)
    for r_wire in (1.0, 0.0):
        config = CrossbarConfig(2, 2, r_wire=r_wire)
        solver = CrossbarSolver(config, g)
        for bad in ([np.nan, 0.1], [0.1, np.inf]):
            for check in (lambda v: simulate(config, g, v),
                          lambda v: oracle_solve(config, g, v),
                          lambda v: solver.currents([[0.1, 0.1], v])):
                with pytest.raises(ValidationError):
                    check(bad)
            # unchecked, the non-finite residual still stops the solve
            with pytest.raises(SolverError):
                solver.solve(bad, check_range=False)


def test_single_solves_reject_2d_input():
    config = CrossbarConfig(2, 2)
    g = np.full((2, 2), G_MIN)
    V = np.zeros((1, 2))
    for single in (simulate, oracle_solve,
                   lambda config, g, v: CrossbarSolver(config, g).solve(v)):
        with pytest.raises(ValidationError):
            single(config, g, V)
    assert CrossbarSolver(config, g).currents(V).shape == (1, 2)


# the grid regimes: (r_in, r_out) x r_transistor_on at r_wire = 1
GRID_REGIMES = [regime for regime in REGIMES if regime[0] > 0.0]


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (5, 1), (4, 9), (9, 4),
                                        (27, 16), (16, 40), (40, 16), (16, 160)])
def test_slab_solver_matches_sparse_reference(rows, cols):
    # row slabs, and column slabs where cols > rows, against spsolve on A;
    # 16x160 passes C to the solver in three sparse blocks
    rng = np.random.default_rng(100 * rows + cols)
    for r_wire, r_in, r_out, r_t in GRID_REGIMES:
        config = CrossbarConfig(rows, cols, r_wire=r_wire, r_in=r_in, r_out=r_out,
                                r_transistor_on=r_t)
        g = rng.uniform(G_MIN, G_MAX, size=(rows, cols))
        v = rng.uniform(0.0, config.v_sense_max, size=rows)
        solver = CrossbarSolver(config, g)
        A = solver._A.tocsc()
        sol = solver.solve(v)
        ref = spla.spsolve(A, solver._S @ v)
        assert rel_diff(np.r_[sol.v_top.ravel(), sol.v_bot.ravel()], ref) <= 1e-12
        adjoint = spla.spsolve(A, solver._C.toarray()).reshape(A.shape[0], cols)
        assert rel_diff(solver.transfer_matrix(), solver._S.T @ adjoint) <= 1e-12


def test_slab_block_failure_is_a_solver_error(monkeypatch):
    config, g, _ = random_instance(5)
    monkeypatch.setattr(xbarsim.circuit.lapack, "dpotrf",
                        lambda a, **kwargs: (a, 1))
    with pytest.raises(SolverError, match="singular crossbar system"):
        CrossbarSolver(config, g)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows, cols, r_wire", [
    # g_wire^2 = 1e4 per slab over 100 slabs: the Schur recursion must not
    # carry anything that grows with it
    (100, 4, 0.01),
    # the chain multipliers multiply to below 1e-308 across the 160-wide slabs
    (160, 160, 3e6)])
def test_slab_solver_extreme_wire_resistance(rows, cols, r_wire):
    rng = np.random.default_rng(rows)
    config = CrossbarConfig(rows, cols, r_wire=r_wire)
    g = rng.uniform(G_MIN, G_MAX, size=(rows, cols))
    v = rng.uniform(0.0, config.v_sense_max, size=rows)
    solver = CrossbarSolver(config, g)
    A = solver._A.tocsc()
    sol = solver.solve(v)
    ref = spla.spsolve(A, solver._S @ v)
    assert rel_diff(np.r_[sol.v_top.ravel(), sol.v_bot.ravel()], ref) <= 1e-12
    adjoint = spla.spsolve(A, solver._C.toarray()).reshape(A.shape[0], cols)
    assert rel_diff(solver.transfer_matrix(), solver._S.T @ adjoint) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("slabs, w, r_wire, underflows", [
    (3, 1, 1.0, False), (4, 16, 1.0, False), (3, 64, 0.5, False),
    (2, 64, 1e5, False), (2, 160, 3e6, True), (2, 400, 3e5, True)])
def test_rung_blocks_match_dense_inverse(slabs, w, r_wire, underflows):
    # K_k = D_k - G_k M_k^-1 G_k against a dense inverse of each tridiagonal
    # chain block M_k, also where the products of the chain multipliers
    # across a slab underflow
    rng = np.random.default_rng(w)
    g_wire = 1.0 / r_wire
    gd = rng.uniform(G_MIN, G_MAX, size=(slabs, w))
    chain = gd.T + g_wire * _wire_neighbours(w)[:, None]
    chain[0] += 1.0 / (1.0 + r_wire)
    rung = gd + g_wire * _wire_neighbours(slabs)[:, None]
    rung[-1] += 1.0 / (1.0 + r_wire)
    K, piv = _rung_blocks(gd, chain, rung, g_wire)
    assert (np.prod(g_wire / piv[:-1], axis=0).min() < np.finfo(float).tiny) == underflows
    off = g_wire * (np.eye(w, k=1) + np.eye(w, k=-1))
    for k in range(slabs):
        M_inv = np.linalg.inv(np.diag(chain[:, k]) - off)
        ref = np.diag(rung[k]) - gd[k][:, None] * M_inv * gd[k][None, :]
        assert rel_diff(K[k], np.triu(ref)) <= 1e-12


def coo_grid_matrix(config, g_dev):
    """The grid's A, stamped edge by edge in loops and summed by coo -> csc."""
    m, n = config.rows, config.cols
    g_w = 1.0 / config.r_wire
    entries = []

    def edge(a, b, gc):
        entries.extend([(a, a, gc), (a, b, -gc), (b, b, gc), (b, a, -gc)])

    for i in range(m):   # a terminal stamps only its node's diagonal
        entries.append((i * n, i * n, 1.0 / (config.r_in + config.r_wire)))
        for j in range(n - 1):
            edge(i * n + j, i * n + j + 1, g_w)
    for j in range(n):
        for i in range(m - 1):
            edge(m * n + i * n + j, m * n + (i + 1) * n + j, g_w)
        sink = m * n + (m - 1) * n + j
        entries.append((sink, sink, 1.0 / (config.r_out + config.r_wire)))
    for i in range(m):
        for j in range(n):
            edge(i * n + j, m * n + i * n + j, g_dev[i, j])
    rows, cols, vals = zip(*entries)
    return sp.coo_matrix((vals, (rows, cols)), shape=(2 * m * n,) * 2).tocsc()


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (5, 1), (27, 16), (16, 40)])
def test_cached_grid_pattern_matches_coo_assembly(rows, cols):
    # each resistance set builds its pattern once; the second draw of
    # conductances reuses it and fills only the devices
    rng = np.random.default_rng(rows * cols)
    for r_wire, r_in, r_out, r_t in ((1.0, 1.0, 1.0, 0.0), (0.5, 0.0, 2.0, 500.0)):
        config = CrossbarConfig(rows, cols, r_wire=r_wire, r_in=r_in, r_out=r_out,
                                r_transistor_on=r_t)
        for _ in range(2):
            solver = CrossbarSolver(config, rng.uniform(G_MIN, G_MAX, size=(rows, cols)))
            ref = coo_grid_matrix(config, solver.g_dev).toarray()
            np.testing.assert_array_max_ulp(solver._A.toarray(), ref, maxulp=1)
            # S and C are shared by every solver of the shape: no in-place writes
            for M in (solver._S, solver._C):
                assert not any(a.flags.writeable for a in (M.data, M.indices, M.indptr))

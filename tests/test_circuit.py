"""Crossbar nodal solver tests against independent dense oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import xbarsim.circuit
from xbarsim.circuit import (CrossbarSolver, _rung_blocks, _Sigmas, _wire_neighbours,
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


@pytest.mark.parametrize("r_wire", [1.0, 0.0], ids=["grid", "lumped"])
@pytest.mark.parametrize("r_t", [0.0, 500.0])
def test_solver_owns_read_only_conductances(r_wire, r_t):
    # writing to the caller's array after construction changes neither g nor
    # a later solve, on the grid factor made again after T released it; the
    # solver's own g and g_dev cannot be written
    config = CrossbarConfig(6, 5, r_wire=r_wire, r_transistor_on=r_t)
    rng = np.random.default_rng(12)
    g = rng.uniform(G_MIN, G_MAX, size=(6, 5))
    v = rng.uniform(0.0, config.v_sense_max, size=6)
    want = CrossbarSolver(config, g.copy()).solve(v)
    solver, before = CrossbarSolver(config, g), g.copy()
    T = solver.transfer_matrix().copy()
    g[:] = G_MIN
    assert np.array_equal(solver.g, before)
    got = solver.solve(v)
    for field in ("v_top", "v_bot", "i_out"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert np.array_equal(solver.transfer_matrix(), T)
    for array in (solver.g, solver.g_dev):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = G_MAX


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
        with pytest.raises(SolverError):
            CrossbarSolver(config, g).solve(np.full(config.rows, 0.1))


@pytest.mark.parametrize("rows, cols", [(16, 160), (160, 160)])
def test_transfer_matrix_column_blocks_match_one_block(monkeypatch, rows, cols):
    # a grid transfer solves as many adjoint columns at once as keep one
    # slab's (cols, k) voltages inside SLAB_BLOCK_BYTES: all 160 at the
    # default, 64, 64 and 32 at 8 * 160 * 64 bytes, every column solved and
    # residual-checked once, to the same T
    rng = np.random.default_rng(rows + cols)
    config = CrossbarConfig(rows, cols)
    g = rng.uniform(G_MIN, G_MAX, size=(rows, cols))
    widths, checked = [], []
    back_sweep = xbarsim.circuit._SlabFactor._back_sweep
    worst_residual = xbarsim.circuit._worst_residual

    def recording_back_sweep(self, *args, sink=None, **kwargs):
        widths.append(sink.shape[1])
        return back_sweep(self, *args, sink=sink, **kwargs)

    def recording_worst_residual(num2, den2):
        checked.append(len(num2))
        return worst_residual(num2, den2)

    monkeypatch.setattr(xbarsim.circuit._SlabFactor, "_back_sweep", recording_back_sweep)
    monkeypatch.setattr(xbarsim.circuit, "_worst_residual", recording_worst_residual)
    ref = CrossbarSolver(config, g).transfer_matrix()
    assert widths == [cols] and checked == [cols]
    widths.clear()
    checked.clear()
    monkeypatch.setattr(xbarsim.circuit, "SLAB_BLOCK_BYTES", 8 * cols * 64)
    T = CrossbarSolver(config, g).transfer_matrix()
    assert widths == [64, 64, 32] and checked == [cols]
    assert rel_diff(T, ref) <= 1e-12


@pytest.mark.parametrize("rows, cols, budget", [
    (1, 1, None), (1, 5, None), (5, 1, None), (27, 16, None), (144, 16, None),
    (288, 32, None), (576, 64, None),
    # column blocks of 64, 64 and 32, and of 218, 218 and 164
    (16, 160, 8 * 160 * 64), (2, 600, None)])
def test_steering_transfer_matches_its_chain_heads(monkeypatch, rows, cols, budget):
    # T from the rungs alone, g_src z_k^T G_k X_k, against g_src times the
    # chain heads that the checking sweep recovers from the same rungs:
    # within 1e-13 relative, entry by entry, in the default regime, with
    # inputs tied to the rows through a select transistor, and where the
    # chain multipliers underflow across a slab
    if budget:
        monkeypatch.setattr(xbarsim.circuit, "SLAB_BLOCK_BYTES", budget)
    heads, back_sweep = [], xbarsim.circuit._SlabFactor._back_sweep

    def recording_back_sweep(self, *args, **kwargs):
        got = back_sweep(self, *args, **kwargs)
        heads.append(self.g_src * got[0])
        return got

    monkeypatch.setattr(xbarsim.circuit._SlabFactor, "_back_sweep", recording_back_sweep)
    rng = np.random.default_rng(rows * cols)
    g = rng.uniform(G_MIN, G_MAX, size=(rows, cols))
    for xb in ({}, {"r_in": 0.0, "r_transistor_on": 500.0}, {"r_wire": 3e6}):
        solver = CrossbarSolver(CrossbarConfig(rows, cols, **xb), g)
        heads.clear()
        T = solver.transfer_matrix(check=False).copy()
        assert not heads
        solver.transfer_matrix()
        ref = np.concatenate(heads, axis=1)
        assert ref.shape == (rows, cols) and np.all(ref > 0.0)
        assert np.all(np.abs(T - ref) <= 1e-13 * ref)


def test_transfer_check_holds_t_to_its_chain_heads():
    # the check vouches for the T it is given: one entry 1e-11 off its
    # chain head is a SolverError, however small the residual
    rng = np.random.default_rng(27)
    lu = CrossbarSolver(CrossbarConfig(27, 16),
                        rng.uniform(G_MIN, G_MAX, size=(27, 16)))._lu
    T = lu.transfer()
    lu.check_transfer(T)
    T[13, 5] *= 1.0 + 1e-11
    with pytest.raises(SolverError, match="differs from its adjoint solves"):
        lu.check_transfer(T)


def test_an_unchecked_transfer_keeps_its_factor_until_it_is_checked(monkeypatch):
    # check=False hands out T unchecked and keeps the grid factor; T is
    # checked once, by the first call that asks for it or by `currents`,
    # and then the factor goes
    config, g, v = random_instance(5)
    checks, check_transfer = [], xbarsim.circuit._SlabFactor.check_transfer

    def counting_check(self, T):
        checks.append(T)
        return check_transfer(self, T)

    monkeypatch.setattr(xbarsim.circuit._SlabFactor, "check_transfer", counting_check)
    solver = CrossbarSolver(config, g)
    T = solver.transfer_matrix(check=False)
    assert solver.transfer_matrix(check=False) is T
    assert not checks and solver._lu is not None and not T.flags.writeable
    assert np.array_equal(solver.currents(v), v[None] @ T)
    assert len(checks) == 1 and checks[0] is T and solver._lu is None
    assert solver.transfer_matrix() is T and len(checks) == 1
    monkeypatch.setattr(xbarsim.circuit, "RESIDUAL_TOL", -1.0)
    for read in (lambda s: s.transfer_matrix(), lambda s: s.currents(v)):
        solver = CrossbarSolver(config, g)
        solver.transfer_matrix(check=False)
        with pytest.raises(SolverError, match="residual"):
            read(solver)


def test_transfer_and_solve_each_unpack_through_one_sigmas(monkeypatch):
    # a transfer's column blocks share one _Sigmas, so a one-slab array
    # unpacks its Sigma^-1 once however many blocks it takes, and a wider
    # one once a block; so do the column blocks of the sweep that checks
    # it; a solve's back sweep starts on the block of slabs its forward
    # sweep unpacked last
    made, fills = [], []

    class RecordingSigmas(_Sigmas):
        def __init__(self, inv, sym):
            super().__init__(inv, sym)
            made.append(self)

        def __getitem__(self, k):
            if not self._lo <= k < self._hi:
                fills.append(k)
            return super().__getitem__(k)

    monkeypatch.setattr(xbarsim.circuit, "_Sigmas", RecordingSigmas)
    rng = np.random.default_rng(160)
    # three blocks of 64, 64 and 32 columns with one slab's Sigma^-1 at a
    # time, then one block of 160 columns with five slabs' at a time
    three_blocks, one_block = 8 * 160 * 64, xbarsim.circuit.SLAB_BLOCK_BYTES
    for rows, budget, want in ((1, three_blocks, [0]),
                               (16, three_blocks, 3 * [*range(15, -1, -1)]),
                               (17, one_block, [16, 14, 9, 4])):
        with monkeypatch.context() as m:
            m.setattr(xbarsim.circuit, "SLAB_BLOCK_BYTES", budget)
            solver = CrossbarSolver(CrossbarConfig(rows, 160),
                                    rng.uniform(G_MIN, G_MAX, size=(rows, 160)))
            for check in (False, True):
                made.clear()
                fills.clear()
                solver.transfer_matrix(check=check)
                assert len(made) == 1 and fills == want
    made.clear()
    fills.clear()
    solver.solve(np.full(17, 0.1))
    # Sigma^-1 blocks of 5 slabs: 0-4, 5-9, 10-14, 15-16
    assert len(made) == 1 and fills == [0, 5, 10, 15, 14, 9, 4]


@pytest.mark.parametrize("rows, cols", [(1, 5), (9, 4), (27, 16), (40, 16)])
def test_transfer_slab_blocks_cover_every_node(monkeypatch, rows, cols):
    # blocks of 1, 2 and 7 slabs, with a partial block at the sinks, against
    # every slab in one block: the factor's Sigma^-1 store, the back sweep,
    # the chains and the residual give the same T, node voltages and output
    # currents bit for bit, and the same residual sums, so no block boundary
    # drops or repeats a node or a Schur complement
    rng = np.random.default_rng(rows * cols)
    g = rng.uniform(G_MIN, G_MAX, size=(rows, cols))
    # the residual sums the transfer's check, on one block of every column
    checked, worst_residual = [], xbarsim.circuit._worst_residual

    def recording_worst_residual(num2, den2):
        checked.append((num2, den2))
        return worst_residual(num2, den2)

    monkeypatch.setattr(xbarsim.circuit, "_worst_residual", recording_worst_residual)
    for r_wire, r_in, r_out, r_t in GRID_REGIMES:
        config = CrossbarConfig(rows, cols, r_wire=r_wire, r_in=r_in, r_out=r_out,
                                r_transistor_on=r_t)
        v = rng.uniform(0.0, config.v_sense_max, size=rows)
        runs = []
        for slabs in (1, 2, 7, rows):
            # a slab of the factor's rung blocks, of its unpacked Sigma^-1 and
            # of the transfer holds cols x cols values, of a solve cols
            monkeypatch.setattr(xbarsim.circuit, "SLAB_BLOCK_BYTES", slabs * cols * cols * 8)
            solver = CrossbarSolver(config, g)
            checked.clear()
            T = solver._lu.transfer()
            solver._lu.check_transfer(T)
            (num2, den2), = checked
            monkeypatch.setattr(xbarsim.circuit, "SLAB_BLOCK_BYTES", slabs * cols * 8)
            runs.append((solver._lu._inv, T, num2, den2, solver.solve(v)))
        inv_one, T_one, num2_one, den2_one, sol_one = runs.pop()
        assert np.all(num2_one > 0.0) and sol_one.residual > 0.0
        for inv, T, num2, den2, sol in runs:
            assert np.array_equal(inv, inv_one)
            assert np.array_equal(T, T_one) and np.array_equal(den2, den2_one)
            assert rel_diff(num2, num2_one) <= 1e-12
            for field in ("v_top", "v_bot", "i_out"):
                assert np.array_equal(getattr(sol, field), getattr(sol_one, field))
            assert sol.residual == pytest.approx(sol_one.residual, rel=1e-12)


def test_grid_factor_peak_memory_is_below_one_unpacked_store():
    # each Sigma_k^-1 is kept as its packed upper triangle (9.6 MB at
    # 576x64), and the rung blocks are made, inverted and packed a slab
    # block at a time, so building the factor peaks well under one unpacked
    # (rows, cols, cols) store (18.9 MB; 1.12x of it when the blocks were
    # made whole and mirrored)
    rng = np.random.default_rng(576)
    g = rng.uniform(G_MIN, G_MAX, size=(576, 64))
    tracemalloc.start()
    try:
        CrossbarSolver(CrossbarConfig(576, 64), g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 576 * 64 * 64 * 8


def test_grid_transfer_peak_memory_is_bounded_by_its_factor():
    # the back sweep keeps a window of rungs and unpacks Sigma^-1 a slab block
    # at a time, and the chains and residuals go through fixed-size slab
    # blocks, so no full solution or residual is ever made: well under one
    # unpacked Sigma^-1 store (6 of 18.9 MB at 576x64; 22.8 MB with every
    # rung stored, 75.8 MB with the whole solution)
    rng = np.random.default_rng(576)
    solver = CrossbarSolver(CrossbarConfig(576, 64),
                            rng.uniform(G_MIN, G_MAX, size=(576, 64)))
    tracemalloc.start()
    try:
        solver.transfer_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 576 * 64 * 64 * 8


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
    # the grid, the lumped model, and the lumped model with no free node,
    # where no residual is computed
    for xb in ({"r_wire": 1.0}, {"r_wire": 0.0},
               {"r_wire": 0.0, "r_in": 0.0, "r_out": 0.0}):
        config = CrossbarConfig(2, 2, **xb)
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


def grid_terminals(config):
    """The grid's source map S (2mn, m), each input into T(i,0), and sink map
    C (2mn, n), each output out of B(m-1,j), through r_in (r_out) plus one
    wire segment."""
    m, n = config.rows, config.cols
    S = np.zeros((2 * m * n, m))
    S[np.arange(m) * n, np.arange(m)] = 1.0 / (config.r_in + config.r_wire)
    C = np.zeros((2 * m * n, n))
    C[m * n + (m - 1) * n + np.arange(n), np.arange(n)] = 1.0 / (config.r_out + config.r_wire)
    return S, C


def check_against_sparse_reference(config, solver, v):
    """Node voltages of one solve and the transfer matrix against spsolve on
    the coo-assembled A with the test's own terminal maps."""
    A = coo_grid_matrix(config, solver.g_dev)
    S, C = grid_terminals(config)
    sol = solver.solve(v)
    ref = spla.spsolve(A, S @ v)
    assert rel_diff(np.r_[sol.v_top.ravel(), sol.v_bot.ravel()], ref) <= 1e-12
    adjoint = spla.spsolve(A, C).reshape(A.shape[0], config.cols)
    assert rel_diff(solver.transfer_matrix(), S.T @ adjoint) <= 1e-12


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (5, 1), (4, 9), (9, 4),
                                        (27, 16), (16, 40), (40, 16), (16, 160),
                                        (4, 256)])
def test_slab_solver_matches_sparse_reference(rows, cols):
    # the row slabs against spsolve on A, tall and wide; 4x256 (64:1) builds
    # 256-wide dense blocks
    rng = np.random.default_rng(100 * rows + cols)
    for r_wire, r_in, r_out, r_t in GRID_REGIMES:
        config = CrossbarConfig(rows, cols, r_wire=r_wire, r_in=r_in, r_out=r_out,
                                r_transistor_on=r_t)
        g = rng.uniform(G_MIN, G_MAX, size=(rows, cols))
        v = rng.uniform(0.0, config.v_sense_max, size=rows)
        solver = CrossbarSolver(config, g)
        # each Sigma_k^-1 unpacks, in a sweep down then up, to exactly
        # symmetric blocks whose upper triangles are the packed store
        lu = solver._lu
        sigmas = _Sigmas(lu._inv, lu._sym)
        for k in [*range(rows - 1, -1, -1), *range(rows)]:
            assert np.array_equal(sigmas[k], sigmas[k].T)
            assert np.array_equal(sigmas[k][np.triu_indices(cols)], lu._inv[k])
        check_against_sparse_reference(config, solver, v)


@pytest.mark.parametrize("r_wire", [1.0, 0.0], ids=["grid", "lumped"])
def test_slab_block_failure_is_a_solver_error(monkeypatch, r_wire):
    # the grid's slab blocks and the lumped block share LAPACK's Cholesky
    config, g, _ = random_instance(5, r_wire=r_wire)
    monkeypatch.setattr(xbarsim.circuit.lapack, "dpotrf",
                        lambda a, **kwargs: (a, 1))
    with pytest.raises(SolverError, match="singular crossbar system"):
        CrossbarSolver(config, g)


# the lumped regimes: (r_in, r_out) x r_transistor_on at r_wire = 0
LUMPED_REGIMES = [regime for regime in REGIMES if regime[0] == 0.0]


def lumped_reference(config, g_dev, V):
    """Node voltages (m + n, k), rows then columns, and output currents
    (n, k) of the lumped network for the inputs V (m, k), from the test's
    own stamps summed by coo -> csc: each device between its row and column
    node, r_in from each source into its row, r_out from each column to
    ground. A zero r_in fixes the row at its input and a zero r_out grounds
    the column; splu solves the remaining free nodes' block."""
    m, n = g_dev.shape
    g_in = 1.0 / config.r_in if config.r_in > 0.0 else 0.0
    g_out = 1.0 / config.r_out if config.r_out > 0.0 else 0.0
    entries = [(i, i, g_in) for i in range(m)] + [(m + j, m + j, g_out) for j in range(n)]
    for i in range(m):
        for j in range(n):
            gc = g_dev[i, j]
            entries.extend([(i, i, gc), (i, m + j, -gc), (m + j, m + j, gc), (m + j, i, -gc)])
    rows, cols, vals = zip(*entries)
    G = sp.coo_matrix((vals, (rows, cols)), shape=(m + n,) * 2).tocsc()
    free = np.flatnonzero(np.r_[np.full(m, g_in > 0.0), np.full(n, g_out > 0.0)])
    fixed = np.setdiff1d(np.arange(m + n), free)
    u = np.r_[V, np.zeros((n, V.shape[1]))]
    if len(free):
        b = np.r_[g_in * V, np.zeros((n, V.shape[1]))][free] - G[free][:, fixed] @ u[fixed]
        u[free] = spla.splu(G[free][:, free]).solve(b)
    i_out = g_out * u[m:] if g_out > 0.0 else g_dev.T @ u[:m]
    return u, i_out


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 7), (8, 5), (576, 64)])
def test_lumped_solver_matches_sparse_reference(rows, cols):
    # the dense Cholesky solve against splu on the test's own assembly, up
    # to 576x64, beyond the oracle's cells: T, and the node voltages and
    # output currents of one solve
    rng = np.random.default_rng(100 * rows + cols)
    for r_wire, r_in, r_out, r_t in LUMPED_REGIMES:
        config = CrossbarConfig(rows, cols, r_wire=r_wire, r_in=r_in, r_out=r_out,
                                r_transistor_on=r_t)
        g = rng.uniform(G_MIN, G_MAX, size=(rows, cols))
        v = rng.uniform(0.0, config.v_sense_max, size=rows)
        solver = CrossbarSolver(config, g)
        i_basis = lumped_reference(config, solver.g_dev, np.eye(rows))[1]
        assert rel_diff(solver.transfer_matrix(), i_basis.T) <= 1e-13
        u, i_out = lumped_reference(config, solver.g_dev, v[:, None])
        sol = solver.solve(v)
        assert rel_diff(sol.i_out, i_out[:, 0]) <= 1e-13
        ref = np.r_[np.repeat(u[:rows], cols, axis=1).ravel(),
                    np.repeat(u[None, rows:, 0], rows, axis=0).ravel()]
        assert rel_diff(np.r_[sol.v_top.ravel(), sol.v_bot.ravel()], ref) <= 1e-13


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
    check_against_sparse_reference(config, CrossbarSolver(config, g), v)


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


@pytest.mark.parametrize("block_slabs", [None, 2], ids=["one-block", "2-slab-blocks"])
@pytest.mark.parametrize("r_wire", [1.0, 0.5, 3e6])
@pytest.mark.parametrize("slabs", [3, 4, 5])
def test_store_holds_g_wire_times_schur_inverses(monkeypatch, slabs, r_wire, block_slabs):
    # the recursion runs on S_k = Sigma_k / g_wire, so each unpacked block
    # of the store is g_wire Sigma_k^-1, with Sigma_0 = K_0 and
    # Sigma_k = K_k - g_wire^2 Sigma_{k-1}^-1 made densely from the rung
    # blocks; also where a factor block carries its last S^-1 to the next
    w = 5
    if block_slabs:
        monkeypatch.setattr(xbarsim.circuit, "SLAB_BLOCK_BYTES", 8 * w * w * block_slabs)
    rng = np.random.default_rng(slabs)
    config = CrossbarConfig(slabs, w, r_wire=r_wire)
    solver = CrossbarSolver(config, rng.uniform(G_MIN, G_MAX, size=(slabs, w)))
    lu, gd, g_wire = solver._lu, solver.g_dev, 1.0 / r_wire
    chain = gd.T + g_wire * _wire_neighbours(w)[:, None]
    chain[0] += lu.g_src
    rung = gd + g_wire * _wire_neighbours(slabs)[:, None]
    rung[-1] += lu.g_sink
    K = _rung_blocks(gd, chain, rung, g_wire)[0]
    sigmas, sigma = _Sigmas(lu._inv, lu._sym), None
    for k in range(slabs):
        dense = K[k] + np.triu(K[k], 1).T
        sigma = dense if k == 0 else dense - g_wire ** 2 * np.linalg.inv(sigma)
        assert rel_diff(sigmas[k], g_wire * np.linalg.inv(sigma)) <= 1e-12


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (5, 1), (27, 16), (16, 40), (16, 160)])
def test_grid_matrices_match_coo_assembly(rows, cols):
    # the slab stencil's residual, over slab blocks of every size the
    # transfer could take, is coo_grid_matrix(...) @ x - b on random node
    # voltages x and terminal injections b
    rng = np.random.default_rng(rows * cols)
    m, n, k = rows, cols, 3
    for r_wire, r_in, r_out, r_t in ((1.0, 1.0, 1.0, 0.0), (0.5, 0.0, 2.0, 500.0),
                                     (3e6, 1.0, 1.0, 0.0)):
        config = CrossbarConfig(rows, cols, r_wire=r_wire, r_in=r_in, r_out=r_out,
                                r_transistor_on=r_t)
        solver = CrossbarSolver(config, rng.uniform(G_MIN, G_MAX, size=(rows, cols)))
        top, bot = rng.uniform(0.0, 0.2, size=(2, m, n, k))
        src, sink = rng.uniform(0.0, 1e-3, size=(m, k)), rng.uniform(0.0, 1e-3, size=(n, k))
        S, C = grid_terminals(config)
        b = (S > 0) @ src + (C > 0) @ sink
        ref = (coo_grid_matrix(config, solver.g_dev) @ np.r_[top.reshape(-1, k),
                                                            bot.reshape(-1, k)] - b)
        for step in sorted({1, 2, max(m - 1, 1), m}):
            # each block gets its rungs and those of the slabs beside it
            r_top, r_bot = zip(*(solver._lu._residual(top[lo:lo + step].copy(),
                                                      bot[max(lo - 1, 0):lo + step + 1],
                                                      lo, src=src, sink=sink)
                                 for lo in range(0, m, step)))
            got = np.r_[np.concatenate(r_top).reshape(-1, k),
                        np.concatenate(r_bot).reshape(-1, k)]
            assert rel_diff(got, ref) <= 1e-15

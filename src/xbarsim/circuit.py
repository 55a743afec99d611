"""Crossbar resistive-network solver.

Topology: each row i is a chain of top nodes T(i,0)..T(i,n-1) joined by
r_wire segments; the source v_in[i] drives T(i,0) through r_in plus one edge
wire segment. Each column j is a chain of bottom nodes B(0,j)..B(m-1,j);
B(m-1,j) sinks to ground through one edge wire segment plus r_out. The device
at (i,j) joins T(i,j) and B(i,j) with resistance 1/g[i,j] + r_transistor_on.

`CrossbarSolver` handles the two physical regimes of this network:

- grid (r_wire > 0): the Kirchhoff-current-law system over all 2*m*n grid
  nodes, assembled sparse and LU-factorized by SuperLU;
- lumped (r_wire == 0): each row and each column is a single node. A row is
  fixed to its input when r_in == 0 and a column is grounded when
  r_out == 0; the remaining nodes (at most m+n) form a small dense system.

Either regime is factorized once per conductance matrix and reused for any
number of input vectors. Two references check it: `ideal_vmm`, the exact
zero-parasitic product, and `oracle_solve`, a dense solve with independently
derived assembly for small arrays.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import CrossbarConfig
from .errors import SolverError, ValidationError

RESIDUAL_TOL = 1e-10
ORACLE_MAX_CELLS = 64


def check_conductances(config, g, tol=1e-9):
    """Validate a conductance matrix against config dimensions and bounds."""
    g = np.asarray(g, dtype=float)
    if g.shape != (config.rows, config.cols):
        raise ValidationError(
            f"conductance matrix shape {g.shape} does not match "
            f"{config.rows}x{config.cols} crossbar")
    if not np.all(np.isfinite(g)):
        raise ValidationError("conductance matrix contains non-finite entries")
    lo = config.g_min * (1.0 - tol)
    hi = config.g_max * (1.0 + tol)
    if g.min() < lo or g.max() > hi:
        raise ValidationError(
            f"conductances [{g.min():.4g}, {g.max():.4g}] outside device range "
            f"[{config.g_min:.4g}, {config.g_max:.4g}]")
    return g


def _check_inputs(config, v_in, slack=1e-9):
    v_in = np.asarray(v_in, dtype=float)
    if v_in.shape != (config.rows,):
        raise ValidationError(
            f"input vector length {v_in.shape} does not match {config.rows} rows")
    if v_in.min() < -slack or v_in.max() > config.v_sense_max * (1.0 + slack):
        raise ValidationError(
            f"inputs [{v_in.min():.4g}, {v_in.max():.4g}] outside "
            f"[0, {config.v_sense_max}] V")
    return v_in


@dataclass
class NodeSolution:
    """Solved node voltages and column output currents of one crossbar solve."""

    v_top: np.ndarray    # (rows, cols) top-wire node voltages, V
    v_bot: np.ndarray    # (rows, cols) bottom-wire node voltages, V
    i_out: np.ndarray    # (cols,) column output currents, A
    residual: float      # relative residual of the linear solve


class CrossbarSolver:
    """Factorized nodal solver for one (config, conductance matrix) pair.

    Building the solver validates inputs, assembles and LU-factorizes the
    nodal system of its regime once; `solve`/`currents` then only
    back-substitute, so many input vectors against the same conductances are
    cheap.
    """

    def __init__(self, config: CrossbarConfig, g):
        self.config = config
        self.g = check_conductances(config, g)
        if config.r_transistor_on > 0.0:
            self.g_dev = 1.0 / (1.0 / self.g + config.r_transistor_on)
        else:
            self.g_dev = self.g
        # the column sink path includes the edge wire segment
        self.r_term = config.r_out + config.r_wire
        self._grid = config.r_wire > 0.0
        if self._grid:
            self._factor_grid()
        else:
            self._factor_lumped()

    def _factor_grid(self):
        """Sparse system over the grid: top (i,j) -> i*n + j, bottom (i,j) ->
        m*n + i*n + j.

        Stamps come rows first (source edge, then wire segments), then columns
        (wire segments, then sink edge), then devices, each edge as
        (a,a), (a,b), (b,b), (b,a); this order fixes how `tocsc` sums them.
        """
        cfg = self.config
        m, n = cfg.rows, cfg.cols
        top = np.arange(m * n).reshape(m, n)
        bot = top + m * n

        def stamp(a, b, g):
            """(row, col, value) arrays, (lines, 4 * edges) each, of the edges
            a[l, e] -- b[l, e]."""
            g = np.broadcast_to(g, a.shape)
            return [np.stack(t, axis=-1).reshape(len(a), -1)
                    for t in ((a, a, b, b), (a, b, b, a), (g, -g, g, -g))]

        g_wire = 1.0 / cfg.r_wire
        src, sink = top[:, :1], bot[-1:].T   # T(i,0) per row, B(m-1,j) per column
        g_src = np.full((m, 1), 1.0 / (cfg.r_in + cfg.r_wire))
        g_sink = np.full((n, 1), 1.0 / self.r_term)
        # a terminal edge stamps only its grid node's diagonal
        rows = map(np.hstack, zip((src, src, g_src),
                                  stamp(top[:, :-1], top[:, 1:], g_wire)))
        cols = map(np.hstack, zip(stamp(bot.T[:, :-1], bot.T[:, 1:], g_wire),
                                  (sink, sink, g_sink)))
        i, j, v = (np.concatenate([r.ravel(), c.ravel(), d.ravel()])
                   for r, c, d in zip(rows, cols, stamp(top, bot, self.g_dev)))
        size = 2 * m * n
        self._A = sp.coo_matrix((v, (i, j)), shape=(size, size)).tocsc()
        self._S = sp.coo_matrix((g_src[:, 0], (top[:, 0], np.arange(m))),
                                shape=(size, m)).tocsc()
        try:
            self._lu = spla.splu(self._A)
        except RuntimeError as exc:
            raise SolverError(f"singular crossbar system: {exc}") from exc

    def _factor_lumped(self):
        """Dense system over the free row nodes, then the free column nodes."""
        cfg, gd = self.config, self.g_dev
        m, n = gd.shape
        rows_free, cols_free = cfg.r_in > 0.0, cfg.r_out > 0.0
        g_in = 1.0 / cfg.r_in if rows_free else 0.0
        g_out = 1.0 / cfg.r_out if cols_free else 0.0
        G = np.block([[np.diag(gd.sum(axis=1) + g_in), -gd],
                      [-gd.T, np.diag(gd.sum(axis=0) + g_out)]])
        # inputs drive free rows through r_in, or fixed rows' devices directly
        S = np.vstack([g_in * np.eye(m), np.zeros((n, m))]) if rows_free else -G[:, :m]
        free = np.r_[np.full(m, rows_free), np.full(n, cols_free)]
        self._A = G[np.ix_(free, free)]
        self._S = S[free]
        self._lu = sla.lu_factor(self._A)

    def _solve_nodes(self, V):
        """V (k, rows) -> (v_top, v_bot) each (k, rows, cols), residuals (k,)."""
        m, n = self.config.rows, self.config.cols
        k = V.shape[0]
        rhs = np.asarray(self._S @ V.T)  # (unknowns, k)
        x = self._lu.solve(rhs) if self._grid else sla.lu_solve(self._lu, rhs)
        num = np.linalg.norm(self._A @ x - rhs, axis=0)
        den = np.linalg.norm(rhs, axis=0)
        residuals = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        if self._grid:
            return x[:m * n].T.reshape(k, m, n), x[m * n:].T.reshape(k, m, n), residuals
        v_row = x[:m].T if self.config.r_in > 0.0 else V
        v_col = x[-n:].T if self.config.r_out > 0.0 else np.zeros((k, n))
        return (np.repeat(v_row[:, :, None], n, axis=2),
                np.repeat(v_col[:, None, :], m, axis=1), residuals)

    def _output_currents(self, v_top, v_bot):
        m = self.config.rows
        if self.r_term > 0.0:
            return v_bot[:, m - 1, :] / self.r_term
        # direct branch currents, fixed ascending-row accumulation
        k, _, n = v_top.shape
        acc = np.zeros((k, n))
        for i in range(m):
            acc += self.g_dev[i, :] * (v_top[:, i, :] - v_bot[:, i, :])
        return acc

    def transfer_matrix(self):
        """Exact input-to-output linear map T, (rows, cols): i_out = T' v_in.

        On the grid: one adjoint back-substitution per column on the existing
        factorization (the nodal matrix is symmetric). Lumped: the currents of
        unit basis inputs, which with both terminals ideal is g_dev exactly.
        """
        if not self._grid:
            return self.currents(np.eye(self.config.rows), check_range=False)
        n = self.config.cols
        E = np.zeros((self._A.shape[0], n))
        E[-n:] = np.eye(n) / self.r_term  # the sinks B(m-1, :) are the last n nodes
        return np.asarray(self._S.T @ self._lu.solve(E))

    def currents(self, V, check_range=True):
        """Batch solve: V (k, rows) -> output currents (k, cols)."""
        V = np.atleast_2d(np.asarray(V, dtype=float))
        if check_range:
            for v in V:
                _check_inputs(self.config, v)
        v_top, v_bot, residuals = self._solve_nodes(V)
        worst = float(residuals.max()) if len(residuals) else 0.0
        if worst > RESIDUAL_TOL:
            raise SolverError(f"solver residual {worst:.3g} above {RESIDUAL_TOL:.3g}",
                              residual=worst)
        return self._output_currents(v_top, v_bot)

    def solve(self, v_in, check_range=True) -> NodeSolution:
        v_in = np.asarray(v_in, dtype=float)
        if check_range:
            _check_inputs(self.config, v_in)
        V = v_in[None, :]
        v_top, v_bot, residuals = self._solve_nodes(V)
        residual = float(residuals[0])
        if residual > RESIDUAL_TOL:
            raise SolverError(f"solver residual {residual:.3g} above {RESIDUAL_TOL:.3g}",
                              residual=residual)
        i_out = self._output_currents(v_top, v_bot)[0]
        return NodeSolution(v_top=v_top[0], v_bot=v_bot[0], i_out=i_out,
                            residual=residual)


def simulate(config: CrossbarConfig, g, v_in) -> NodeSolution:
    """Solve the crossbar network for one input vector. Deterministic."""
    return CrossbarSolver(config, g).solve(v_in)


def ideal_vmm(v_in, g):
    """Exact v_in' * g with fixed ascending-row summation order."""
    v_in = np.asarray(v_in, dtype=float)
    g = np.asarray(g, dtype=float)
    if v_in.ndim != 1 or g.ndim != 2 or v_in.shape[0] != g.shape[0]:
        raise ValidationError(
            f"dimension mismatch: v_in {v_in.shape} vs g {g.shape}")
    acc = np.zeros(g.shape[1])
    for i in range(g.shape[0]):
        acc += v_in[i] * g[i, :]
    return acc


def oracle_solve(config: CrossbarConfig, g, v_in) -> NodeSolution:
    """Dense reference solve for small crossbars (rows*cols <= 64).

    Independently assembled: full 2*m*n nodal matrix solved by LAPACK
    partial-pivoting elimination when r_wire > 0; when r_wire == 0 each row
    and column collapses to a single node and the reduced (m+n) system is
    solved instead.
    """
    m, n = config.rows, config.cols
    if m * n > ORACLE_MAX_CELLS:
        raise ValidationError(f"oracle limited to {ORACLE_MAX_CELLS} cells, got {m * n}")
    g = check_conductances(config, g)
    v_in = _check_inputs(config, v_in)
    if config.r_transistor_on > 0.0:
        gd = 1.0 / (1.0 / g + config.r_transistor_on)
    else:
        gd = g

    if config.r_wire > 0.0:
        g_src = 1.0 / (config.r_in + config.r_wire)
        g_term = 1.0 / (config.r_out + config.r_wire)
        g_w = 1.0 / config.r_wire
        N = 2 * m * n
        top = lambda i, j: i * n + j
        bot = lambda i, j: m * n + i * n + j
        A = np.zeros((N, N))
        b = np.zeros(N)

        def stamp(u, v, gc):
            A[u, u] += gc
            A[v, v] += gc
            A[u, v] -= gc
            A[v, u] -= gc

        for i in range(m):
            A[top(i, 0), top(i, 0)] += g_src
            b[top(i, 0)] += g_src * v_in[i]
            for j in range(n - 1):
                stamp(top(i, j), top(i, j + 1), g_w)
        for j in range(n):
            for i in range(m - 1):
                stamp(bot(i, j), bot(i + 1, j), g_w)
            A[bot(m - 1, j), bot(m - 1, j)] += g_term
        for i in range(m):
            for j in range(n):
                stamp(top(i, j), bot(i, j), gd[i, j])

        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular dense system: {exc}") from exc
        v_top = x[:m * n].reshape(m, n)
        v_bot = x[m * n:].reshape(m, n)
        i_out = v_bot[m - 1, :] * g_term
        residual = float(np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300))
        return NodeSolution(v_top=v_top, v_bot=v_bot, i_out=i_out, residual=residual)

    # r_wire == 0: one top node per row, one bottom node per column
    row_fixed = config.r_in == 0.0
    col_gnd = config.r_out == 0.0
    if row_fixed and col_gnd:
        i_out = np.array([float(np.dot(v_in, gd[:, j])) for j in range(n)])
        v_top = np.repeat(v_in[:, None], n, axis=1)
        return NodeSolution(v_top=v_top, v_bot=np.zeros((m, n)), i_out=i_out,
                            residual=0.0)

    # unknowns: v_t (m, unless fixed) then v_b (n, unless grounded)
    nt = 0 if row_fixed else m
    nb = 0 if col_gnd else n
    A = np.zeros((nt + nb, nt + nb))
    b = np.zeros(nt + nb)
    g_in = 0.0 if row_fixed else 1.0 / config.r_in
    g_out = 0.0 if col_gnd else 1.0 / config.r_out
    if not row_fixed:
        for i in range(m):
            A[i, i] += g_in + gd[i, :].sum()
            b[i] += g_in * v_in[i]
            if not col_gnd:
                for j in range(n):
                    A[i, nt + j] -= gd[i, j]
    if not col_gnd:
        for j in range(n):
            A[nt + j, nt + j] += g_out + gd[:, j].sum()
            if row_fixed:
                b[nt + j] += float(np.dot(v_in, gd[:, j]))
            else:
                for i in range(m):
                    A[nt + j, i] -= gd[i, j]
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular dense system: {exc}") from exc
    v_t = v_in if row_fixed else x[:nt]
    v_b = np.zeros(n) if col_gnd else x[nt:]
    v_top = np.repeat(np.asarray(v_t)[:, None], n, axis=1)
    v_bot = np.repeat(np.asarray(v_b)[None, :], m, axis=0)
    if col_gnd:
        i_out = np.array([float(np.dot(v_t, gd[:, j])) for j in range(n)])
    else:
        i_out = v_b * g_out
    residual = float(np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300))
    return NodeSolution(v_top=v_top, v_bot=v_bot, i_out=i_out, residual=residual)

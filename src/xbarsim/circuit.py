"""Crossbar resistive-network solver.

Topology: each row i is a chain of top nodes T(i,0)..T(i,n-1) joined by
r_wire segments; the source v_in[i] drives T(i,0) through r_in plus one edge
wire segment. Each column j is a chain of bottom nodes B(0,j)..B(m-1,j);
B(m-1,j) sinks to ground through one edge wire segment plus r_out. The device
at (i,j) joins T(i,j) and B(i,j) with resistance 1/g[i,j] + r_transistor_on.

`CrossbarSolver` writes either physical regime of this network in one nodal
form over its free (unknown) node voltages x:

    A x = S v_in,    i_out = C^T x,

with A the symmetric Kirchhoff-current-law matrix, S the map from the
inputs to the currents they inject and C the map from the node voltages to
the column output currents. The regimes differ only in how they assemble
(A, S, C):

- grid (r_wire > 0): all 2*m*n grid nodes are free; S drives T(i,0) through
  r_in plus the edge segment and C reads B(m-1,j) through the edge segment
  plus r_out;
- lumped (r_wire == 0): each row and each column is a single node. A row is
  fixed to its input when r_in == 0 and a column is grounded when
  r_out == 0; the remaining nodes (at most m+n) are free. With neither free
  (r_in == r_out == 0) there is no unknown and the output is v_in @ g_dev.

A is factorized once per conductance matrix, and every solve on it is
residual-checked against A on every node; each grid solver writes its own
(A, S, C) straight into CSC. The grid is factorized by exact block
elimination over row slabs (`_SlabFactor`): each row touches the next only
through the column wires, so the dense blocks, each built in closed form,
are only n wide. The lumped system, at most m+n nodes, goes to
SuperLU. The network is linear, so its output currents are `v_in @ T` for
the transfer matrix T = S^T A^-1 C, which `transfer_matrix` computes once
from one adjoint solve per column, on C's sparse columns, and caches; batch
`currents` are that one product. Node voltages come only from `solve` (and
`simulate`). Two references check the solver: `ideal_vmm`, the exact
zero-parasitic product, and `oracle_solve`, a dense solve with
independently derived assembly for small arrays.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .config import CrossbarConfig
from .errors import SolverError, ValidationError

RESIDUAL_TOL = 1e-10
# adjoint right-hand sides `transfer_matrix` solves and residual-checks at
# once; each holds a (2*rows*cols, block) solution and residual
TRANSFER_BLOCK_COLS = 64
ORACLE_MAX_CELLS = 64
# relative slack on the device range and on the input range [0, v_sense_max]
CONDUCTANCE_TOL = INPUT_SLACK = 1e-9


def check_conductances(config, g):
    """Validate a conductance matrix against config dimensions and bounds."""
    g = np.asarray(g, dtype=float)
    if g.shape != (config.rows, config.cols):
        raise ValidationError(
            f"conductance matrix shape {g.shape} does not match "
            f"{config.rows}x{config.cols} crossbar")
    if not np.all(np.isfinite(g)):
        raise ValidationError("conductance matrix contains non-finite entries")
    lo = config.g_min * (1.0 - CONDUCTANCE_TOL)
    hi = config.g_max * (1.0 + CONDUCTANCE_TOL)
    if g.min() < lo or g.max() > hi:
        raise ValidationError(
            f"conductances [{g.min():.4g}, {g.max():.4g}] outside device range "
            f"[{config.g_min:.4g}, {config.g_max:.4g}]")
    return g


def _check_inputs(config, v_in, batch=False):
    """Validate one input vector (rows,), or a (k, rows) batch if `batch`."""
    v_in = np.asarray(v_in, dtype=float)
    if v_in.ndim not in ((1, 2) if batch else (1,)) or v_in.shape[-1] != config.rows:
        raise ValidationError(
            f"input shape {v_in.shape} does not match {config.rows} rows")
    if not np.isfinite(v_in).all():
        raise ValidationError("inputs contain non-finite values")
    if v_in.size and (v_in.min() < -INPUT_SLACK
                      or v_in.max() > config.v_sense_max * (1.0 + INPUT_SLACK)):
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


def _wire_neighbours(count):
    """Wire neighbours of each node of a chain of `count` nodes: 2 inside,
    1 at either end, 0 for a lone node."""
    k = np.full(count, 2.0)
    k[0] -= 1.0
    k[-1] -= 1.0
    return k


def _rung_blocks(gd, chain, rung, g_wire):
    """K_k = D_k - G_k M_k^-1 G_k, (slabs, w, w), upper triangle only, and the
    LDL^T pivots of the M_k (G_k: gd (slabs, w); D_k: rung (slabs, w); M_k:
    chain (w, slabs) on the diagonal, -g_wire beside it). M^-1 is
    semiseparable, (M^-1)_qq = 1 / (piv + back - chain) with backward pivots
    back, (M^-1)_pq = mult_p (M^-1)_{p+1,q} for p < q, mult = g_wire / piv:
    each row of G M^-1 G above the diagonal is the next row scaled, which
    stays in double range however small the products of mult get."""
    slabs, w = gd.shape
    piv, back = chain.copy(), chain.copy()
    for p in range(1, w):
        piv[p] -= g_wire ** 2 / piv[p - 1]
        back[-1 - p] -= g_wire ** 2 / back[-p]
    mult = g_wire / piv
    K, idx = np.zeros((slabs, w, w)), np.arange(w)
    K[:, idx, idx] = -gd * gd / (piv + back - chain).T
    ratio = gd[:, :-1] * mult[:-1].T / gd[:, 1:]
    for p in range(w - 2, -1, -1):
        np.multiply(ratio[:, p, None], K[:, p + 1, p + 1:], out=K[:, p, p + 1:])
    K[:, idx, idx] += rung
    return K, piv


class _SlabFactor:
    """Exact block elimination of the grid's A over slabs, with a sparse
    `solve(rhs)`.

    A slab k holds a chain of w wire nodes and w rung nodes. The chain is
    tridiagonal (block M_k: wire segments, its devices, a terminal at one
    end); rung node p ties only to its device and, through -g_w, to rung p
    of slabs k-1 and k+1 (diagonal D_k, a terminal on one end slab). With
    G_k the slab's device conductances, eliminating the chains leaves the
    dense SPD rung blocks K_k = D_k - G_k M_k^-1 G_k (`_rung_blocks`), coupled
    as a block-tridiagonal system whose Schur complements Sigma_0 = K_0,
    Sigma_k = K_k - g_w^2 Sigma_{k-1}^-1 are inverted once here. `solve`
    sweeps the rungs forward from the first slab it touches and back, then
    recovers the chains.

    Slabs are rows: the chain is the top row with the source at its start,
    the rungs are the bottom nodes, sinking below the last row, and the
    dense blocks are cols wide.
    """

    def __init__(self, g_dev, g_wire, g_src, g_sink):
        self._g_wire = g_wire
        slabs, w = g_dev.shape
        # chains are laid out (w, slabs, ...), rungs (slabs, w, ...)
        self._gd_chain, self._gd_rung = g_dev.T[:, :, None], g_dev[:, :, None]
        chain = g_dev.T + g_wire * _wire_neighbours(w)[:, None]
        rung = g_dev + g_wire * _wire_neighbours(slabs)[:, None]
        chain[0] += g_src
        rung[-1] += g_sink
        inv, piv = _rung_blocks(g_dev, chain, rung, g_wire)
        self._piv, self._mult = piv[:, :, None], (g_wire / piv)[:, :, None]
        # each Sigma_k^-1 in its K_k's place, its upper triangle mirrored down
        lower = np.tri(w, k=-1, dtype=bool)
        for k in range(slabs):
            if k:
                inv[k] -= g_wire ** 2 * inv[k - 1]
            # in place through the Fortran-ordered transpose: the Cholesky
            # factor reads, and the inverse fills, the upper triangle only
            c, info = lapack.dpotrf(inv[k].T, lower=1, clean=0, overwrite_a=1)
            if info == 0:
                c, info = lapack.dpotri(c, lower=1, overwrite_c=1)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"slab {k} block is not positive definite (LAPACK info {info})")
            inv[k][lower] = inv[k].T[lower]
        self._inv = inv

    def _chain_solve(self, r):
        """M_k z_k = r_k for every slab k at once, in place; r (w, slabs, k)."""
        mult = self._mult
        tmp = np.empty(r.shape[1:])
        for p in range(1, len(r)):
            r[p] += np.multiply(mult[p - 1], r[p - 1], out=tmp)
        r /= self._piv
        for p in range(len(r) - 2, -1, -1):
            r[p] += np.multiply(mult[p], r[p + 1], out=tmp)
        return r

    def solve(self, rhs):
        """A x = rhs for a (2*rows*cols, k) COO right-hand side without
        duplicate entries: the dense (2*rows*cols, k) solution."""
        x = np.zeros((2, *self._gd_rung.shape[:2], rhs.shape[1]))
        # (chain, rung) views of the solution: the top rows, the bottom nodes
        chain, rung = x[0].transpose(1, 0, 2), x[1]
        half, slab, pos = np.unravel_index(rhs.row, x.shape[:3])
        c = half == 0   # entries on a chain
        rung[slab[~c], pos[~c], rhs.col[~c]] = rhs.data[~c]
        if c.any():   # eliminate the chains' injections into the rungs
            z = np.zeros(chain.shape)
            z[pos[c], slab[c], rhs.col[c]] = rhs.data[c]
            rung += self._gd_rung * self._chain_solve(z).transpose(1, 0, 2)
        gw, inv = self._g_wire, self._inv
        # slabs before the first touched one stay zero through the forward sweep
        for k in range(slab.min() + 1 if len(slab) else len(rung), len(rung)):
            rung[k] += gw * (inv[k - 1] @ rung[k - 1])
        rung[-1] = inv[-1] @ rung[-1]
        for k in range(len(rung) - 2, -1, -1):
            rung[k] = inv[k] @ (rung[k] + gw * rung[k + 1])
        z = np.multiply(self._gd_chain, rung.transpose(1, 0, 2), order="C")
        z[pos[c], slab[c], rhs.col[c]] += rhs.data[c]
        chain[...] = self._chain_solve(z)
        return x.reshape(-1, x.shape[-1])


class CrossbarSolver:
    """Factorized nodal solver for one (config, conductance matrix) pair.

    Building the solver validates inputs, assembles the (A, S, C) form of
    its regime and factorizes A once: slab by slab for the grid, by SuperLU
    for the lumped model. `solve` back-substitutes for the node voltages of
    one input; `currents` multiplies a batch of inputs by the cached
    transfer matrix, so many input vectors against the same conductances
    cost one matrix product.
    """

    def __init__(self, config: CrossbarConfig, g):
        self.config = config
        self.g = check_conductances(config, g)
        if config.r_transistor_on > 0.0:
            self.g_dev = 1.0 / (1.0 / self.g + config.r_transistor_on)
        else:
            self.g_dev = self.g
        self._grid = config.r_wire > 0.0
        self._T = None
        try:
            self._A, self._S, self._C, self._lu = (
                self._factor_grid() if self._grid else self._factor_lumped())
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise SolverError(f"singular crossbar system: {exc}") from exc

    def _factor_grid(self):
        """(A, S, C) over top (i,j) -> i*n + j, bottom (i,j) -> m*n + i*n + j,
        written straight into CSC, and the slab factorization of A.

        A is symmetric, so column k lists node k's neighbours in ascending
        order: a top node's left wire, itself, its right wire and its device;
        a bottom node's device, the wire above, itself and the wire below.
        Slots past a wire's end are dropped. Each diagonal adds its device
        last, after its terminal and wires, as a coo -> csc sum of the edge
        stamps would."""
        cfg, gd = self.config, self.g_dev
        m, n = gd.shape
        mn, g_wire = m * n, 1.0 / cfg.r_wire
        # each terminal edge includes one wire segment
        g_src, g_sink = 1.0 / (cfg.r_in + cfg.r_wire), 1.0 / (cfg.r_out + cfg.r_wire)
        wires = np.stack(np.broadcast_arrays(_wire_neighbours(n), _wire_neighbours(m)[:, None]))
        g_diag = g_wire * wires
        g_diag[0, :, 0] += g_src
        g_diag[1, -1] += g_sink
        g_diag += gd
        top, bot = np.arange(2 * mn, dtype=np.int32).reshape(2, m, n)
        # four slots per node (2, m, n, 4); those past a wire's end get row -1
        row = np.stack((np.stack((top - 1, top, top + 1, bot), -1),
                        np.stack((top, bot - n, bot, bot + n), -1)))
        row[0, :, 0, 0] = row[0, :, -1, 2] = row[1, 0, :, 1] = row[1, -1, :, 3] = -1
        val = np.full(row.shape, -g_wire)
        val[0, ..., 1], val[1, ..., 2] = g_diag
        val[0, ..., 3] = val[1, ..., 0] = -gd
        kept = row >= 0
        indptr = np.r_[0, (wires + 2).cumsum()].astype(np.int32)   # wires, itself, device
        A = sp.csc_matrix((val[kept], row[kept], indptr), shape=(2 * mn,) * 2)
        # one entry per column: the source node T(i,0), the sink node B(m-1,j)
        S, C = (sp.csc_matrix((np.full(len(term), g), term, np.arange(len(term) + 1)),
                              shape=(2 * mn, len(term)))
                for term, g in ((top[:, 0], g_src), (bot[-1], g_sink)))
        return A, S, C, _SlabFactor(gd, g_wire, g_src, g_sink)

    def _factor_lumped(self):
        """(A, S, C) over the free row nodes, then the free column nodes, and
        the SuperLU factorization of A."""
        cfg, gd = self.config, self.g_dev
        m, n = gd.shape
        rows_free, cols_free = cfg.r_in > 0.0, cfg.r_out > 0.0
        g_in = 1.0 / cfg.r_in if rows_free else 0.0
        g_out = 1.0 / cfg.r_out if cols_free else 0.0
        G = np.block([[np.diag(gd.sum(axis=1) + g_in), -gd],
                      [-gd.T, np.diag(gd.sum(axis=0) + g_out)]])
        # inputs drive free rows through r_in, or fixed rows' devices directly;
        # outputs leave free columns through r_out, or grounded columns'
        # devices straight from the rows
        S = g_in * np.eye(m + n, m) if rows_free else -G[:, :m]
        C = g_out * np.eye(m + n, n, -m) if cols_free else -G[:, m:]
        self._free = np.r_[np.full(m, rows_free), np.full(n, cols_free)]
        A = sp.csc_matrix(G[np.ix_(self._free, self._free)])
        return (A, sp.csc_matrix(S[self._free]), sp.csc_matrix(C[self._free]),
                spla.splu(A))

    def _solve_free(self, rhs):
        """A x = rhs, sparse (unknowns, k): the free-node voltages x and the worst
        relative residual over the k columns, checked against RESIDUAL_TOL."""
        rhs = rhs.tocoo()
        # row-major once, so neither sparse product below copies x again
        x = np.ascontiguousarray(self._lu.solve(rhs if self._grid else rhs.toarray()))
        r = self._A @ x
        r[rhs.row, rhs.col] -= rhs.data
        num, den = np.sqrt([np.einsum("ij,ij->j", r, r),
                            np.bincount(rhs.col, rhs.data ** 2, minlength=rhs.shape[1])])
        worst = float((num / np.where(den > 0, den, np.inf)).max())
        if not worst <= RESIDUAL_TOL:   # also a NaN residual
            raise SolverError(f"solver residual {worst:.3g} above {RESIDUAL_TOL:.3g}",
                              residual=worst)
        return x, worst

    def transfer_matrix(self):
        """Exact input-to-output linear map T = S^T A^-1 C, (rows, cols):
        i_out = v_in @ T.

        Computed on the first call from one adjoint back-substitution per
        column on the existing factorization (A is symmetric), in blocks of
        TRANSFER_BLOCK_COLS sparse columns of C, each residual-checked, and
        cached read-only. With no free node T is g_dev exactly.
        """
        if self._T is None:
            if self._A.shape[0]:
                T = np.empty(self.g_dev.shape)
                for start in range(0, T.shape[1], TRANSFER_BLOCK_COLS):
                    block = slice(start, start + TRANSFER_BLOCK_COLS)
                    T[:, block] = self._S.T @ self._solve_free(self._C[:, block])[0]
            else:
                T = self.g_dev.copy()
            T.flags.writeable = False
            self._T = T
        return self._T

    def currents(self, V, check_range=True):
        """Batch output currents: V (k, rows) -> V @ T, (k, cols).

        No node voltages are computed; use `solve` for those.
        """
        V = np.atleast_2d(np.asarray(V, dtype=float))
        if check_range:
            _check_inputs(self.config, V, batch=True)
        return V @ self.transfer_matrix()

    def solve(self, v_in, check_range=True) -> NodeSolution:
        """Node voltages and output currents of one input vector."""
        v_in = np.asarray(v_in, dtype=float)
        if check_range:
            _check_inputs(self.config, v_in)
        x, residual = self._solve_free(sp.csc_matrix(self._S @ v_in[:, None]))
        x = x[:, 0]
        m, n = self.config.rows, self.config.cols
        if self._grid:
            v_top, v_bot = x[:m * n].reshape(m, n), x[m * n:].reshape(m, n)
        else:   # fixed rows hold their inputs, grounded columns sit at 0 V
            u = np.r_[v_in, np.zeros(n)]
            u[self._free] = x
            v_top = np.repeat(u[:m, None], n, axis=1)
            v_bot = np.repeat(u[None, m:], m, axis=0)
        i_out = self._C.T @ x if len(x) else v_in @ self.g_dev
        return NodeSolution(v_top=v_top, v_bot=v_bot, i_out=i_out,
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

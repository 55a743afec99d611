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
the column output currents. The regimes differ in how they hold (A, S, C):

- grid (r_wire > 0): all 2*m*n grid nodes are free; S drives T(i,0) through
  r_in plus the edge segment and C reads B(m-1,j) through the edge segment
  plus r_out. No matrix is assembled: A is applied node by node as the
  current each node sends out through its device, wires and terminal;
- lumped (r_wire == 0): each row and each column is a single node. A row is
  fixed to its input when r_in == 0 and a column is grounded when
  r_out == 0; the remaining nodes (at most m+n) are free, and (A, S, C) are
  assembled. With neither free (r_in == r_out == 0) there is no unknown and
  the output is v_in @ g_dev.

A is factorized once per conductance matrix. Every solve, and every
transfer matrix that a solver hands out, is residual-checked,
||A x - b|| / ||b|| per right-hand side over every node; the transfer
matrices a conversion steers on (`transfer_matrix(check=False)`) are not.
Once `transfer_matrix` has cached and checked T, the grid factor is
released, since `currents` reads only T; a later `solve` factorizes A
again, to the same bits. The solver keeps read-only copies of g and g_dev,
so a factor made again describes the array that T does.
The grid is factorized by exact block elimination over row slabs
(`_SlabFactor`): each row touches the next only through the column wires, so
the dense blocks, each built in closed form, are only n wide. The Schur
recursion runs in units of the wire conductance, on S_k = Sigma_k / g_wire,
so each slab's symmetric S_k^-1 = g_wire Sigma_k^-1 block, the map one sweep
step applies, is kept as its packed upper triangle, n(n+1)/2 values (9.6 MB
at 576x64 instead of 18.9 MB). The lumped system, at most m+n nodes, is
dense and gets a LAPACK Cholesky factor. The network is linear, so its
output currents are `v_in @ T` for the transfer matrix
T = S^T A^-1 C, which `transfer_matrix` computes once from one adjoint solve
per column and caches; batch `currents` are that one product. A grid solve
back-sweeps its rungs from the sinks up a block of slabs at a time
(`_rungs`), and recovers each block's chains and residual as soon as the
block's rungs and the rung of the slab above it are known (`_back_sweep`);
a sweep keeps only that window of rungs. A grid transfer takes each row of
T from its slab's rungs alone, and its check is a second sweep that
recovers the chains and the residual. One byte budget, SLAB_BLOCK_BYTES,
sizes every block (`_block_len`): the slabs the factor builds, inverts and
packs at once, the S^-1 a sweep unpacks at once, the slabs a back sweep
takes at once, and the adjoint columns a transfer or its check solves at
once. Each solve, each transfer and each check unpacks S^-1 through one
`_Sigmas`. Node voltages come only from `solve` (and `simulate`). Two
references check the solver: `ideal_vmm`, the exact zero-parasitic product,
and `oracle_solve`, a dense solve with independently derived assembly for
small arrays.

The LAPACK routines (`dpotrf`, `dpotri`, `dpotrs`) come from scipy's f2py
extension `scipy.linalg._flapack`, which `_load_lapack` loads without
executing the `scipy.linalg` package. `scipy.linalg.lapack` re-exports the
same function objects, but importing the package costs about 0.2 s and
19 MB more, 0.15 s and 18 MB of it in `scipy._lib._array_api`, whose
`array_api_compat` import pulls in `numpy.f2py` and `numpy.testing`.
scipy's top level and the extension, with its OpenBLAS, add under 10 MB and
about 0.04 s to numpy's 27 MB (scipy 1.17.1, one BLAS thread).
"""

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .config import CrossbarConfig
from .errors import SolverError, ValidationError


def _load_lapack():
    """scipy's LAPACK wrappers: the extension module `scipy.linalg._flapack`,
    loaded from scipy's `linalg` directory and recorded in `sys.modules`
    under its own name, without running `scipy/linalg/__init__.py`.

    The top-level `scipy` package is imported first: it is cheap, and its
    `_distributor_init` lets some wheels find their bundled OpenBLAS. When
    `scipy.linalg` is already imported, or the extension is not found or
    fails to load, this is `scipy.linalg.lapack`, whose routines are the
    same objects.
    """
    name = "scipy.linalg._flapack"
    if "scipy.linalg" not in sys.modules:
        import scipy
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(p, "linalg") for p in scipy.__path__])
        if spec is not None:
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError:
                pass
            else:
                return sys.modules.setdefault(name, module)
    from scipy.linalg import lapack
    return lapack


lapack = _load_lapack()

RESIDUAL_TOL = 1e-10
# relative agreement of a checked transfer matrix's entries with the chain
# heads of its adjoint solves; they agree within about 6e-15 (measured)
HEAD_TOL = 1e-12
# bytes of every grid block (`_block_len`): of the slabs the factor builds,
# inverts and packs, and a sweep unpacks, at once (8 w^2 bytes a slab); of
# the slabs' voltages a back sweep takes at once, whose window of rungs,
# chains, residual and wire currents take about four such blocks; and of one
# slab's voltages in the adjoint columns a transfer solves at once (8 w
# bytes a column)
SLAB_BLOCK_BYTES = 1 << 20
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


def _block_len(count, item_bytes):
    """How many items of item_bytes, 1 to count, a SLAB_BLOCK_BYTES block holds."""
    return min(count, max(1, SLAB_BLOCK_BYTES // item_bytes))


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


def _schur_inverses(K, prev, lo):
    """S_k^-1 = g_wire Sigma_k^-1 of slabs lo, lo+1, ... in place of their
    scaled rung blocks K (h, w, w), K_k / g_wire, upper triangles only: the
    recursion Sigma_k = K_k - g_wire^2 Sigma_{k-1}^-1 run on
    S_k = Sigma_k / g_wire is S_k = K_k / g_wire - S_{k-1}^-1, with prev the
    S^-1 of slab lo - 1 (None if lo is 0). The lower triangles, zero in K
    and in prev, stay zero."""
    for i, a in enumerate(K):
        if lo + i:
            a -= K[i - 1] if i else prev
        # in place through the Fortran-ordered transpose: the Cholesky factor
        # reads, and the inverse fills, the upper triangle only
        c, info = lapack.dpotrf(a.T, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            c, info = lapack.dpotri(c, lower=1, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"slab {lo + i} block is not positive definite (LAPACK info {info})")


def _packing(w):
    """Index maps of the packed upper triangle of a symmetric w x w matrix:
    the flat positions of its w(w+1)/2 entries, row by row, and the packed
    index of every entry (i, j), which is that of (j, i)."""
    i, j = np.triu_indices(w)
    sym = np.empty((w, w), dtype=np.intp)
    sym[i, j] = sym[j, i] = np.arange(len(i))
    return i * w + j, sym


class _Sigmas:
    """The S_k^-1 = g_wire Sigma_k^-1 of a packed store (slabs, w(w+1)/2),
    unpacked through sym as sweeps ask for them into one buffer of about
    SLAB_BLOCK_BYTES, a block of slabs at a time: a miss fills the block
    that holds k, blocks starting at multiples of the buffer's length, so a
    sweep either way unpacks each slab once, and a store that fits the
    buffer is unpacked once for all the sweeps that share it."""

    def __init__(self, inv, sym):
        self._inv, self._sym = inv, sym
        self._buf = np.empty((_block_len(len(inv), 8 * sym.size), *sym.shape))
        self._lo = self._hi = 0

    def __getitem__(self, k):
        if not self._lo <= k < self._hi:
            step = len(self._buf)
            self._lo = k - k % step
            self._hi = min(self._lo + step, len(self._inv))
            np.take(self._inv[self._lo:self._hi], self._sym, axis=1, mode="clip",
                    out=self._buf[:self._hi - self._lo])
        return self._buf[k - self._lo]


class _SlabFactor:
    """Exact block elimination of the grid's A over slabs, and A's slab
    stencil for residuals.

    A slab k holds a chain of w wire nodes and w rung nodes. The chain is
    tridiagonal (block M_k: wire segments, its devices, a terminal at one
    end); rung node p ties only to its device and, through -g_w, to rung p
    of slabs k-1 and k+1 (diagonal D_k, a terminal on one end slab). With
    G_k the slab's device conductances, eliminating the chains leaves the
    dense SPD rung blocks K_k = D_k - G_k M_k^-1 G_k (`_rung_blocks`), coupled
    as a block-tridiagonal system whose Schur complements Sigma_0 = K_0,
    Sigma_k = K_k - g_w^2 Sigma_{k-1}^-1 are inverted once here, a block of
    slabs at a time, upper triangles only (`_schur_inverses`). The recursion
    runs on S_k = Sigma_k / g_w, S_k = K_k / g_w - S_{k-1}^-1, so that an
    update takes no temporary and a sweep step no scaling. Each
    S_k^-1 = g_w Sigma_k^-1 is kept as its packed upper triangle, w(w+1)/2
    values, and the sweeps unpack it, bit for bit the symmetric block
    (`_Sigmas`). A solve sweeps the rungs forward, then back from the sinks
    up (`_rungs`), recovering the chains and the residual block by block as
    it goes (`_back_sweep`). A transfer back-sweeps the rungs alone and
    takes T from them (`transfer`); its check is a separate sweep that
    recovers the chains and the residual on every node, and holds T to the
    chains' heads (`check_transfer`). Every right-hand side is terminal injections:
    sources at the chains' heads, sinks at the last slab's rungs.

    Slabs are rows: the chain is the top row with the source at its start,
    the rungs are the bottom nodes, sinking below the last row, and the
    dense blocks are cols wide. Node voltages are laid out (slabs, w, k),
    for the chains as for the rungs.
    """

    def __init__(self, g_dev, g_wire, g_src, g_sink):
        self._g_wire, self.g_src, self.g_sink = g_wire, g_src, g_sink
        slabs, w = g_dev.shape
        self._gd = g_dev[:, :, None]
        chain = g_dev.T + g_wire * _wire_neighbours(w)[:, None]
        rung = g_dev + g_wire * _wire_neighbours(slabs)[:, None]
        chain[0] += g_src
        rung[-1] += g_sink
        upper, self._sym = _packing(w)
        self._piv = np.empty((slabs, w, 1))
        self._inv = np.empty((slabs, len(upper)))
        # the rung blocks are made, inverted and packed a block of slabs at a
        # time; prev carries the last S^-1 of a block to the next one
        step, prev = _block_len(slabs, 8 * w * w), None
        for lo in range(0, slabs, step):
            hi = min(lo + step, slabs)
            K, piv = _rung_blocks(g_dev[lo:hi], chain[:, lo:hi], rung[lo:hi], g_wire)
            self._piv[lo:hi, :, 0] = piv.T
            K /= g_wire
            _schur_inverses(K, prev, lo)
            np.take(K.reshape(hi - lo, -1), upper, axis=1, mode="clip",
                    out=self._inv[lo:hi])
            prev = K[-1].copy() if hi < slabs else None
            del K   # before the next block is made
        self._mult = g_wire / self._piv

    def _chain_solve(self, r, lo=0):
        """M_k z_k = r_k in place for the slabs k = lo, lo+1, ... of
        r (slabs, w, k)."""
        mult, piv = self._mult[lo:lo + len(r)], self._piv[lo:lo + len(r)]
        tmp = np.empty((len(r), r.shape[2]))
        for p in range(1, r.shape[1]):
            r[:, p] += np.multiply(mult[:, p - 1], r[:, p - 1], out=tmp)
        r /= piv
        for p in range(r.shape[1] - 2, -1, -1):
            r[:, p] += np.multiply(mult[:, p], r[:, p + 1], out=tmp)
        return r

    def _rungs(self, sig, y=None, sink=None):
        """Back-substitution of the forward-swept rung system from the sinks
        up, with the S^-1 of sig (a `_Sigmas`), a block of slabs at a time:
        yields lo, hi and the window win whose slot s - lo + 1 holds the
        rungs of slab s, lo - 1 <= s <= hi, as soon as the block's own rungs
        and the rung of the slab above it are known. Only that window of
        step + 2 slabs of rungs is kept, in one buffer of about
        SLAB_BLOCK_BYTES, made once. The right-hand side is y (slabs, w, k),
        which it overwrites above the last slab; or, with y None, sink (w, k)
        at the last slab alone, every slab above holding zeros. The store
        holds S_k^-1 = g_wire Sigma_k^-1, so a step is
        x_s = S_s^-1 (y_s / g_wire + x_{s+1}), one matmul into the window."""
        gw, slabs = self._g_wire, len(self._gd)
        last = (sink if y is None else y[-1]) / gw
        step = _block_len(slabs, last.nbytes)
        win = np.empty((step + 2, *last.shape))
        for lo in reversed(range(0, slabs, step)):
            hi, up = min(lo + step, slabs), min(lo, 1)
            h = hi - lo
            if hi == slabs:
                np.matmul(sig[slabs - 1], last, out=win[h])
            else:   # slabs hi - 1 and hi, solved with the block below
                win[h:h + 2] = win[:2]
            for s in range(hi - 2, lo - up - 1, -1):
                if y is None:
                    b = win[s - lo + 2]
                else:
                    b = y[s]
                    b /= gw
                    b += win[s - lo + 2]
                np.matmul(sig[s], b, out=win[s - lo + 1])
            yield lo, hi, win

    def _back_sweep(self, sig, y, src=None, sink=None, top=None):
        """The rungs from `_rungs`, and the chains and the residual from them
        block by block, in buffers of about SLAB_BLOCK_BYTES each, made once.
        The right-hand side is as for `_rungs`: y takes the rungs in place,
        with top (slabs, w, k) taking the chains. b is src (slabs, k) at the
        chains' heads and sink at the last slab's rungs. Returns the chains'
        head voltages (slabs, k) and the columns' sums of squares of the
        residual."""
        slabs, k = len(self._gd), (sink if y is None else y).shape[-1]
        heads, num2, work = np.empty((slabs, k)), np.zeros(k), None
        for lo, hi, win in self._rungs(sig, y, sink):
            if work is None:   # beside the window, one slot shorter
                work = np.empty((3, len(win) - 1, *win.shape[1:]))
            h, up = hi - lo, min(lo, 1)
            top_lo = np.multiply(self._gd[lo:hi], win[1:h + 1], out=work[2, :h])
            if src is not None:
                top_lo[:, 0] += src[lo:hi]
            self._chain_solve(top_lo, lo)
            heads[lo:hi] = top_lo[:, 0]
            if y is not None:
                y[lo:hi], top[lo:hi] = win[1:h + 1], top_lo
            for r in self._residual(top_lo, win[1 - up:h + 1 + (hi < slabs)], lo,
                                    src=src, sink=sink, work=work[:2]):
                num2 += np.einsum("ijk,ijk->k", r, r)
        return heads, num2

    def _residual(self, top, rung, lo, src=None, sink=None, work=None):
        """A x - b on the top and on the bottom nodes of slabs lo:lo+h, each
        (h, w, k), from their top voltages (h, w, k), which it overwrites with
        the top residual, and the rung voltages of slabs lo - 1 (if any) to
        lo + h (if any), the block's and its neighbours'; b is src (slabs, k)
        at the chains' heads and sink (w, k) at the last slab's rungs. Row by
        row, A x is the current each node sends out through its branches: its
        device, its wires, its terminal. The bottom residual and the wire
        currents go to work (2, >= h + 1, w, k)."""
        h, hi = len(top), lo + len(top)
        if work is None:
            work = np.empty((2, h + 1, *top.shape[1:]))
        # up = 1 if a slab lies above the block
        gw, up = self._g_wire, min(lo, 1)
        bot = rung[up:up + h]
        dev = np.subtract(top, bot, out=work[0, :h])
        dev *= self._gd[lo:hi]
        # wire currents along the chains, from node p to node p + 1
        wire = np.subtract(top[:, :-1], top[:, 1:], out=work[1, :h, :-1])
        wire *= gw
        head = self.g_src * top[:, 0]
        r_top = top
        np.add(dev[:, :-1], wire, out=r_top[:, :-1])
        r_top[:, -1] = dev[:, -1]
        r_top[:, 1:] -= wire
        r_top[:, 0] += head
        # wire currents down the rungs, wire[q] from slab lo - up + q into the
        # next
        wire = np.subtract(rung[:-1], rung[1:], out=work[1, :len(rung) - 1])
        wire *= gw
        r_bot = np.negative(dev, out=dev)
        r_bot[:len(wire) - up] += wire[up:]
        r_bot[1 - up:] -= wire[:h - 1 + up]
        if hi == len(self._gd):
            r_bot[-1] += self.g_sink * bot[-1]
            if sink is not None:
                r_bot[-1] -= sink
        if src is not None:
            r_top[:, 0] -= src[lo:hi]
        return r_top, r_bot

    def solve(self, v):
        """Node voltages for inputs v (slabs, k) at the sources: top and
        bottom (slabs, w, k), and the worst relative residual, checked."""
        sig = _Sigmas(self._inv, self._sym)
        src = self.g_src * v
        rung = np.zeros((*self._gd.shape[:2], src.shape[1]))
        rung[:, 0] = src
        # eliminate the chains' injections into the rungs, then sweep forward:
        # g_wire Sigma_{k-1}^-1 is the stored S_{k-1}^-1
        rung = self._gd * self._chain_solve(rung)
        for k in range(1, len(rung)):
            rung[k] += sig[k - 1] @ rung[k - 1]
        top = np.empty_like(rung)
        num2 = self._back_sweep(sig, rung, src=src, top=top)[1]
        return top, rung, _worst_residual(num2, np.einsum("ik,ik->k", src, src))

    def _sinks(self):
        """The adjoint right-hand sides of a transfer, a block of columns at a
        time, as many as keep one slab's (w, k) voltages inside
        SLAB_BLOCK_BYTES: start, stop and sink (w, stop - start), column j's
        g_sink at its last rung."""
        w = self._gd.shape[1]
        step = _block_len(w, 8 * w)
        for start in range(0, w, step):
            stop = min(start + step, w)
            sink = np.zeros((w, stop - start))
            sink[range(start, stop), range(stop - start)] = self.g_sink
            yield start, stop, sink

    def transfer(self):
        """T = g_src x_top[:, 0], (slabs, w), unchecked, from one adjoint
        solve per column with its sink as right-hand side (`_sinks`), every
        block back-swept on the rungs alone with one `_Sigmas`. A chain's
        head is z_k^T G_k X_k for its slab's rungs X_k, with z_k = M_k^-1 e_0
        the first row of the chain inverse, so each block of slabs of T is
        one batched matmul of the window with the rows g_src z_k^T G_k, made
        by one chain solve."""
        slabs, w = self._gd.shape[:2]
        z = np.zeros((slabs, w, 1))
        z[:, 0] = 1.0
        rows = (self.g_src * self._chain_solve(z) * self._gd).reshape(slabs, 1, w)
        sig, T = _Sigmas(self._inv, self._sym), np.empty((slabs, w))
        for start, stop, sink in self._sinks():
            for lo, hi, win in self._rungs(sig, sink=sink):
                np.matmul(rows[lo:hi], win[1:hi - lo + 1], out=T[lo:hi, None, start:stop])
        return T

    def check_transfer(self, T):
        """Check T, as `transfer` made it, against the adjoint solves it
        comes from, in a sweep that also recovers the chains (`_back_sweep`):
        the residual on every node against RESIDUAL_TOL, and every entry of
        T against g_src times its chain's head within HEAD_TOL relative.
        Raises SolverError if either fails."""
        w = self._gd.shape[1]
        sig, num2, agrees = _Sigmas(self._inv, self._sym), np.empty(w), True
        for start, stop, sink in self._sinks():
            heads, num2[start:stop] = self._back_sweep(sig, None, sink=sink)
            heads *= self.g_src
            agrees &= bool((np.abs(T[:, start:stop] - heads)
                            <= HEAD_TOL * np.abs(heads)).all())
        _worst_residual(num2, np.full(w, self.g_sink * self.g_sink))
        if not agrees:
            raise SolverError(f"transfer matrix differs from its adjoint solves "
                              f"by more than {HEAD_TOL:.3g} relative")


def _worst_residual(num2, den2):
    """The worst relative residual ||A x - b|| / ||b|| over the columns, from
    their sums of squares, checked against RESIDUAL_TOL."""
    num, den = np.sqrt([num2, den2])
    worst = float((num / np.where(den > 0, den, np.inf)).max())
    if not worst <= RESIDUAL_TOL:   # also a NaN residual
        raise SolverError(f"solver residual {worst:.3g} above {RESIDUAL_TOL:.3g}",
                          residual=worst)
    return worst


class CrossbarSolver:
    """Factorized nodal solver for one (config, conductance matrix) pair.

    Building the solver validates inputs, copies g (and g_dev) read-only
    and factorizes its regime's A: slab by slab for the grid, by a dense
    Cholesky factor for the lumped model, which also keeps its dense
    (A, S, C). `solve` back-substitutes for the node voltages of one input;
    `currents` multiplies a batch of inputs by the cached transfer matrix,
    so many input vectors against the same conductances cost one matrix
    product. Checking the cached T releases the grid factor, which `solve`
    makes again on demand and then keeps.
    """

    def __init__(self, config: CrossbarConfig, g):
        self.config = config
        # read-only copies: a factor made again must describe the same array
        self.g = check_conductances(config, np.array(g, dtype=float))
        if config.r_transistor_on > 0.0:
            self.g_dev = 1.0 / (1.0 / self.g + config.r_transistor_on)
        else:
            self.g_dev = self.g
        self.g.flags.writeable = self.g_dev.flags.writeable = False
        self._grid = config.r_wire > 0.0
        self._T, self._checked = None, False
        self._factor()

    def _factor(self):
        """Factorize the regime's A into `_lu`, a singular system as a
        SolverError."""
        config = self.config
        try:
            if self._grid:
                # each terminal edge includes one wire segment
                self._lu = _SlabFactor(self.g_dev, 1.0 / config.r_wire,
                                       1.0 / (config.r_in + config.r_wire),
                                       1.0 / (config.r_out + config.r_wire))
            else:
                self._A, self._S, self._C, self._lu = self._factor_lumped()
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular crossbar system: {exc}") from exc

    def _factor_lumped(self):
        """Dense (A, S, C) over the free row nodes, then the free column
        nodes, and the upper Cholesky factor of A."""
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
        A = G[np.ix_(self._free, self._free)]
        factor, info = lapack.dpotrf(A)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"lumped block is not positive definite (LAPACK info {info})")
        return A, S[self._free], C[self._free], factor

    def _solve_free(self, rhs):
        """Lumped A x = rhs (unknowns, k): the free-node voltages x and the
        worst relative residual over the k columns. LAPACK takes no
        right-hand side of 0 rows, so with no free node x is rhs itself."""
        x = lapack.dpotrs(self._lu, rhs)[0] if len(rhs) else rhs
        r = self._A @ x - rhs
        return x, _worst_residual(np.einsum("ij,ij->j", r, r),
                                  np.einsum("ij,ij->j", rhs, rhs))

    def transfer_matrix(self, check=True):
        """Exact input-to-output linear map T = S^T A^-1 C, (rows, cols):
        i_out = v_in @ T.

        Computed on the first call from one adjoint back-substitution per
        column on the existing factorization (A is symmetric) and cached
        read-only. The lumped regime solves every column in one `dpotrs` on
        the C it already holds, residual-checked on every node as it is
        solved. The grid, in `_SlabFactor.transfer`, back-sweeps a block of
        columns at a time, as many as keep one slab's voltages inside
        SLAB_BLOCK_BYTES (all of them up to 362 wide), on the rungs alone, a
        block of slabs at a time with only a window of rungs kept, and takes
        each row of T from its slab's rungs; a T with a non-finite entry is
        a SolverError at once. With no free node T is g_dev exactly.

        Every T this returns with `check` (the default), and every T that
        `currents` reads, has passed `_SlabFactor.check_transfer`: a second
        sweep recovers the chains, checks the residual on every node against
        RESIDUAL_TOL and T against the chains' heads, and then the grid
        factor is released. Either sweep's working set is a few slab blocks
        (3.2 MB for the transfer and 5.9 MB for its check at 576x64, against
        a packed S^-1 store of 9.6 MB, 18.9 MB unpacked). `check=False`
        returns the grid's T unchecked and keeps the factor for a later
        check; `engine.convert` takes it so on every pass and checks only
        the array it returns.
        """
        if self._T is None:
            if self._grid:
                T = self._lu.transfer()
                if not np.isfinite(T).all():
                    raise SolverError("transfer matrix has non-finite entries")
            elif len(self._A):
                T = self._S.T @ self._solve_free(self._C)[0]
            else:
                T = self.g_dev.copy()
            T.flags.writeable = False
            self._T, self._checked = T, not self._grid
        if check and not self._checked:
            # inference reads only T: the grid factor goes, and `solve`
            # makes it again
            self._lu.check_transfer(self._T)
            self._checked, self._lu = True, None
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
        """Node voltages and output currents of one input vector, on a grid
        factor made again if `transfer_matrix` released it."""
        v_in = np.asarray(v_in, dtype=float)
        if check_range:
            _check_inputs(self.config, v_in)
        m, n = self.config.rows, self.config.cols
        if self._lu is None:
            self._factor()
        if self._grid:
            # an unchecked non-finite input leaves a non-finite residual,
            # which the residual check rejects
            with np.errstate(invalid="ignore"):
                top, bot, residual = self._lu.solve(v_in[:, None])
            v_top, v_bot = top[..., 0], bot[..., 0]
            i_out = self._lu.g_sink * v_bot[-1]
        else:   # fixed rows hold their inputs, grounded columns sit at 0 V
            with np.errstate(invalid="ignore"):   # as for the grid
                x, residual = self._solve_free(self._S @ v_in[:, None])
            if not len(x) and not np.isfinite(v_in).all():
                # nothing was solved, so no residual can reject the input
                raise SolverError("non-finite input to a crossbar with no free node")
            x = x[:, 0]
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

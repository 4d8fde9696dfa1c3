"""The discrete mixed elastoplastic problem as a decoupled nonlinear system,
solved by a damped semi-smooth Newton method.

Unknowns are stacked as x = [u (d*M), p (L*N), lam (L*N)] with p in the
Lagrange (primal) basis and lam in the biorthogonal basis, so the multiplier
constraints decouple per dof block: |lam_i|_F <= sigma_i.

The Newton step is condensed to the displacements. D is diagonal, the Clarke
blocks of the complementarity rows are L x L per dof and C is block diagonal
over the elements, so (dp, dlam) are eliminated element by element (one
batched dense solve per block size) and each step factorizes only the
symmetric displacement-sized matrix K + B X B^T. Semi-smooth Newton is a
primal-dual active-set method (Hintermueller, Ito & Kunisch, SIAM J. Optim.
13, 2002): at an iterate with no active dof X = 0, so that step's matrix is
K. The step-length probes evaluate r1 and r2, which are affine, from one set
of sparse products per step. Every sparse factorization of the package goes
through `factorize`, and the condensed matrices of one system, which share a
pattern, share one ordering. `factorize` calls SuperLU's `gstrf` directly,
as `scipy.sparse.linalg.splu` does.
"""

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from . import _kernels
from ._kernels import _indptr
from .assembly import (element_groups, gauss_mass_matrix, group_quadrature,
                       plastic_functional)
from .mesh import require_dirichlet
from .polybasis import gauss_lagrange_1d, tensor_contract
from .space import (deviatoric_basis, deviatoric_dim, gauss_point_basis,
                    require_same_degrees)


# From the STAGNATION-th residual evaluation of a solve on, and after a
# full step that blows up, a Newton step also probes the step lengths
# t = 2^-1, ..., 2^-10 and takes the one of least merit.
PROBES = 0.5 ** np.arange(1, 11)
STAGNATION = 4


@dataclass
class NewtonConfig:
    rho: float = 1.0  # projection parameter of the complementarity rows
    tol: float = 1e-11
    max_iter: int = 60


@dataclass
class SolutionTriple:
    u: np.ndarray          # (d*M,)
    p: np.ndarray          # (L*N,)
    lam: np.ndarray        # (L*N,)
    converged: bool = True
    iterations: int = 0
    trace: list = field(default_factory=list)  # rows (it, |F|, merit, t, active)
    retries: int = 0  # failed steps retried with a shifted rho


def default_rho(material):
    return 2.0 * material.mu + material.hardening


def residual(system, qspace, u, p, lam, rho):
    """Stacked residual [K u - B p - l, -B^T u + C p + D lam, chi rows]."""
    L = system.L
    r1 = system.K @ u - system.B @ p - system.l
    r2 = -(system.B.T @ u) + system.C @ p + system.D * lam
    ch = _kernels.chi_blocks(p.reshape(-1, L), lam.reshape(-1, L),
                             qspace.bounds, rho)
    return np.concatenate([r1, r2, ch.ravel()])


SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


def load_superlu(where):
    """scipy's SuperLU extension in the directory `where`, loaded by its
    file, without `scipy.sparse.linalg`'s package `__init__` (the iterative
    solvers and `scipy.linalg`, about 0.05 s of a process start), and
    registered as SUPERLU for a later import. ImportError if none is there."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        spec = importlib.util.spec_from_file_location(
            SUPERLU, os.path.join(where, "_superlu" + suffix))
        if os.path.isfile(spec.origin):
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[SUPERLU] = module
            return module
    raise ImportError(f"no SuperLU extension (_superlu) in {where}")


_superlu = sys.modules.get(SUPERLU) or load_superlu(
    os.path.join(os.path.dirname(sp.__file__), "linalg", "_dsolve"))


def _splu(A, permc_spec, diag_pivot_thresh, options):
    """`scipy.sparse.linalg.splu(A, permc_spec, diag_pivot_thresh,
    options=options)` on a CSC matrix: the same input handling and the same
    `gstrf` call."""
    A.sum_duplicates()
    A = A.astype(np.float64, copy=False)
    n, m = A.shape
    if n != m:
        raise ValueError("can only factor square matrices")
    if max(n, A.indptr[-1]) > np.iinfo(np.intc).max:
        raise ValueError("index values too large for SuperLU")
    options = dict(DiagPivotThresh=diag_pivot_thresh, ColPerm=permc_spec,
                   PanelSize=None, Relax=None) | options
    return _superlu.gstrf(n, A.nnz, A.data, A.indices.astype(np.intc, copy=False),
                          A.indptr.astype(np.intc, copy=False), ilu=False,
                          csc_construct_func=sp.csc_array, options=options)


# the seam of every factorization, which tests and the benchmark's tracer replace
spla = SimpleNamespace(splu=_splu)


def factorize(A, ordered=False):
    """Sparse LU of A in SuperLU's symmetric mode (Li, ACM TOMS 31, 2005):
    minimum-degree ordering on A + A^T, and the diagonal pivot wherever it is
    at least 0.1 of its column's largest entry. On the symmetric positive
    definite systems of the package (K, the condensed Newton matrix, the
    scalar stiffness) every pivot is diagonal and the fill is Cholesky-like;
    an unsymmetric matrix is still partially pivoted. An ordered matrix (see
    `ElementBlocks`) is factorized in its own order, with no ordering
    computed. A singular matrix raises RuntimeError."""
    if A.format != "csc":
        A = sp.csc_matrix(A)
    return spla.splu(A, permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))


def elastic_solve(system):
    return factorize(system.K).solve(system.l)


@dataclass
class BlockGroup:
    """Element blocks of one size n: their q indices (G, n), the dense C
    blocks (G, n, n) and the dense columns of B on them (G, r, n), whose rows
    are the displacement unknowns each block reaches through B in ascending
    order; r is the largest count of the group, and a block that reaches
    fewer ends in zero rows."""
    idx: np.ndarray
    C: np.ndarray
    B: np.ndarray


class ElementBlocks:
    """The q unknowns of a mixed system split into the element blocks over
    which C is block diagonal, grouped by block size so that the dense
    per-element work is one batched call per group.

    The pattern of the condensed matrix K + B X B^T (X block diagonal over
    the elements) is fixed once per system: every pair of displacement
    unknowns one block reaches, and K's entries. K is scattered into that
    CSC pattern once (`_K`, one past the end for padding), and `_pos` holds
    the position in it of every entry of every element product
    B_e X_e B_e^T (padding rows: one past the end), so that each condensed
    matrix is a copy of `_K` with the products added in order. The blocks
    each displacement unknown reaches, and their transpose, come from B's
    sorted rows with numpy; the pattern, the dense B_e and the positions
    from scipy's sparse kernels on CSR arrays (`_kernels.csr_product`,
    `csr_sort`, `csr_transpose`, `csr_sum` and `csr_lookup`), with no
    sparse matrix formed. No index keys are formed, so no product of two
    indices can overflow. The blocks are renumbered once into the ordering
    of their first factorization, and every later condensed matrix is
    written and factorized in it (Davis, Direct Methods for Sparse Linear
    Systems, SIAM 2006, ch. 7)."""

    def __init__(self, system):
        L = system.L
        K, B, C = system.K, system.B, system.C
        if not (K.has_canonical_format and B.has_canonical_format
                and C.has_canonical_format):
            raise ValueError("K, B and C must be CSR matrices in canonical form")
        n_u = K.shape[0]
        n_q = C.shape[0]
        sizes = L * np.asarray(system.q_counts)
        if sizes.sum() != n_q:
            raise ValueError("q_counts do not cover the q unknowns")
        starts = np.cumsum(sizes) - sizes
        block = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        crow = np.repeat(np.arange(n_q), np.diff(C.indptr))  # C's CSR rows
        cblock = block[crow]
        if np.any(cblock != block[C.indices]):
            raise ValueError("C is not block diagonal over the elements")
        self.system = system
        self.Bt = B.T  # a view: B^T u without a copy of B
        self._order = self._next = None  # see factorization
        # the blocks of a row's entries of B ascend, as its columns do, so
        # the first entry of each row and of each block in it marks one
        # (unknown urow, block blk) pair, in row order with the blocks
        # ascending: the CSR arrays of reach^T. Their stable sort by block
        # gives reach: row e holds the unknowns block e reaches, ascending.
        eb = block[B.indices]
        first = np.ones(B.nnz, dtype=bool)
        first[1:] = eb[1:] != eb[:-1]
        first[B.indptr[:-1][B.indptr[:-1] < B.nnz]] = True
        at = np.flatnonzero(first)
        blk = eb[at]
        urow = (np.searchsorted(B.indptr, at, side="right") - 1).astype(np.int32)
        del eb, first, at
        reach = urow[np.argsort(blk, kind="stable")]
        count = np.bincount(blk, minlength=len(sizes))
        one = np.ones(len(blk))
        # the pattern: the pairs one block reaches, reach^T reach, united
        # with K's entries by one sparse add of CSC arrays. The pairs'
        # pattern is symmetric, so its CSR arrays are its CSC arrays, and
        # K's CSR transpose has K's. A pair counts 0.5 and K's entry k counts
        # k + 1, so the integer part of a sum is k + 1 on K's entries and 0
        # elsewhere.
        pairs = _kernels.csr_product(
            (_indptr(np.bincount(urow, minlength=n_u)).astype(np.int32), blk, one),
            (_indptr(count).astype(np.int32), reach, one), n_u)
        _kernels.csr_sort(pairs)
        pairs[2][:] = 0.5
        up, ui, ud = _kernels.csr_sum(pairs, _kernels.csr_transpose(
            (K.indptr, K.indices, np.arange(1.0, K.nnz + 1)), n_u), n_u)
        del pairs
        nnz = len(ui)
        self._indptr = up.astype(np.int32, copy=False)
        self._indices = ui.astype(np.int32, copy=False)
        kmark = ud.astype(np.int64) - 1  # k on K's entry k, else -1
        del up, ui, ud
        members = [np.flatnonzero(sizes == n) for n in np.unique(sizes)]
        width = [int(count[m].max()) for m in members]
        onK = np.flatnonzero(kmark >= 0)
        posK = np.empty(K.nnz, dtype=np.int64)
        posK[kmark[onK]] = onK
        del kmark, onK
        self._K = np.bincount(posK, weights=K.data, minlength=nnz + 1)
        del posK
        self._pos = np.empty(sum(len(m) * r * r for m, r in zip(members, width)),
                             dtype=np.int64)
        at = 0
        self.groups = []
        slot = np.empty(len(sizes), dtype=np.int64)
        for m, r in zip(members, width):
            G, n = len(m), sizes[m[0]]
            slot[m] = np.arange(G)
            idx = starts[m][:, None] + np.arange(n)
            Ce = np.zeros((G, n, n))
            on = sizes[cblock] == n
            b = cblock[on]
            Ce[slot[b], crow[on] - starts[b], C.indices[on] - starts[b]] = C.data[on]
            filled = np.arange(r) < count[m][:, None]
            # the lookups use B's index dtype, int32 like the pattern's, so
            # scipy makes no converted copies of them
            rows = np.zeros((G, r), dtype=B.indices.dtype)
            rows[filled] = reach[np.repeat(sizes == n, count)]
            # B_e[a, c] = B[rows[a], idx[c]]; the arrays kept are allocated
            # before the temporaries that fill them
            Be = np.empty((G, r, n))
            _kernels.csr_lookup((B.indptr, B.indices, B.data), n_q,
                                np.repeat(rows, n, axis=1),
                                np.tile(idx.astype(rows.dtype), r), Be)
            Be[~filled] = 0.0
            # entry (a, b) of B_e X_e B_e^T lands in column rows[b], row
            # rows[a]: entry (rows[b], rows[a]) of the CSC arrays read as CSR
            pos = self._pos[at:at + G * r * r].reshape(G, r, r)
            _kernels.csr_lookup((self._indptr, self._indices,
                                 np.arange(nnz, dtype=np.int64)), n_u,
                                np.tile(rows, r), np.repeat(rows, r, axis=1), pos)
            pos[~(filled[:, :, None] & filled[:, None, :])] = nnz
            at += G * r * r
            self.groups.append(BlockGroup(idx, Ce, Be))

    def condensed_matrix(self, X):
        """K + B X B^T in CSC, in the blocks' order: the batched products
        of each group's blocks X (G, n, n) added to K's scatter into the
        fixed pattern in order by one np.add.at, which sums each entry as
        np.bincount over K.data and then the products would."""
        data = self._K.copy()
        vals = np.empty(len(self._pos))
        at = 0
        for grp, Xg in zip(self.groups, X):
            G, r, _ = grp.B.shape
            np.matmul(grp.B @ Xg, grp.B.transpose(0, 2, 1),
                      out=vals[at:at + G * r * r].reshape(G, r, r))
            at += G * r * r
        np.add.at(data, self._pos, vals)
        return sp.csc_matrix((data[:-1], self._indices, self._indptr),
                             shape=self.system.K.shape)

    def factorization(self, X):
        """The factorization of `condensed_matrix(X)`, solving in the
        unknowns' order. The first that succeeds computes the ordering; the
        next renumbers the blocks first (beside the first it raised peak RSS)."""
        if self._next is not None:
            self._reorder(self._next)
        ordered = self._order is not None
        lu = factorize(self.condensed_matrix(X), ordered)
        if not ordered:
            self._next = lu.perm_c.copy()  # the view would keep lu alive
        return Factorization(lu, self._order if ordered else slice(None))

    def _reorder(self, order):
        """Renumbers unknown i to order[i]: two transposes of the renamed CSC
        arrays give new ones (matrices share the old) and each new entry's
        old position k, by which `_K` and `_pos` are re-indexed in place."""
        n, nnz = len(self._indptr) - 1, len(self._indices)
        p, i, k = _kernels.csr_transpose((self._indptr, order[self._indices],
                                          np.arange(nnz, dtype=self._indices.dtype)), n)
        self._indptr, self._indices, k = _kernels.csr_transpose((p, order[i], k), n)
        del p, i
        self._K[:-1] = self._K[k]  # the padding slot stays last
        new = np.empty(nnz + 1, dtype=k.dtype)
        new[k], new[nnz] = np.arange(nnz), nnz
        self._pos[:] = new[self._pos]
        self._order, self._next = order, None

    def condensed_solve(self, mats, rhs, f):
        """Solve K u - B q = f with q = g - X B^T u, where [X_e | g_e] =
        mats_e^{-1} rhs_e on every element block (rhs_e has one column more
        than mats_e), by one factorization of K + B X B^T. Returns (u, q)."""
        system = self.system
        sols = [np.linalg.solve(M, R) for M, R in zip(mats, rhs)]
        g = np.empty(system.C.shape[0])
        for grp, s in zip(self.groups, sols):
            g[grp.idx] = s[..., -1]
        u = self.factorization([s[..., :-1] for s in sols]).solve(f + system.B @ g)
        Btu = self.Bt @ u
        q = np.empty_like(g)
        for grp, s in zip(self.groups, sols):
            q[grp.idx] = s[..., -1] - (s[..., :-1] @ Btu[grp.idx][..., None])[..., 0]
        return u, q


@dataclass
class Factorization:
    """A sparse LU of a matrix with unknown i in row and column order[i]
    (slice(None): not renumbered), solving in the unknowns' order."""
    lu: object
    order: object

    def solve(self, b):
        bo = np.empty_like(b)
        bo[self.order] = b
        return self.lu.solve(bo)[self.order]


def _dof_block_diagonal(a):
    """(G, c, L, L) per-dof blocks as (G, cL, cL) block-diagonal matrices."""
    G, c, L, _ = a.shape
    out = np.zeros((G, c, L, c, L))
    np.einsum("gikil->gikl", out)[...] = a  # a writable view of the blocks
    return out.reshape(G, c * L, c * L)


def condensed_newton_step(blocks, dp, dl, F):
    """Newton step of the projection form with Clarke blocks (dp, dl) and
    residual F = [r1, r2, r3]. With dlam = D^{-1}(-r2 + B^T du - C dp) from
    the second row, the third row gives per element
    S_e dp = -r3 + Jl D^{-1} r2 - Jl D^{-1} B^T du, S_e = Jp_e - Jl_e D_e^{-1} C_e,
    and the first row becomes (K + B X B^T) du = -r1 + B g with
    X_e = S_e^{-1} Jl_e D_e^{-1}, g_e = S_e^{-1}(-r3 + Jl D^{-1} r2). With
    no active dof Jl = 0, so X = 0 and the step's matrix is K."""
    system = blocks.system
    L = system.L
    n_u = system.K.shape[0]
    n_q = system.C.shape[0]
    r1, r2, r3 = F[:n_u], F[n_u:n_u + n_q], F[n_u + n_q:]
    Dinv = 1.0 / system.D
    dlD = dl * Dinv[::L, None, None]  # Jl D^{-1} per dof
    b = -r3 + np.einsum("ikl,il->ik", dlD, r2.reshape(-1, L)).ravel()
    mats, rhs = [], []
    for grp in blocks.groups:
        G, n = grp.idx.shape
        dofs = grp.idx[:, ::L] // L
        S = _dof_block_diagonal(dp[dofs]) - (
            dlD[dofs] @ grp.C.reshape(G, n // L, L, n)).reshape(G, n, n)
        mats.append(S)
        rhs.append(np.concatenate([_dof_block_diagonal(dlD[dofs]),
                                   b[grp.idx][..., None]], axis=-1))
    du, dp_ = blocks.condensed_solve(mats, rhs, -r1)
    dlam = Dinv * (-r2 + blocks.Bt @ du - system.C @ dp_)
    return np.concatenate([du, dp_, dlam])


def _projection(p, lam, sigma, rho):
    """The equilibrated complementarity rows pi_i = lam_i -
    P_{|.|<=sigma_i}(w_i) with w_i = lam_i + rho p_i, and w, |w_i| and the
    active mask |w_i| >= sigma_i, for rows (N, L) or stacks of them (T, N, L)."""
    w = lam + rho * p
    nw = np.linalg.norm(w, axis=-1)
    act = ~(nw < sigma)
    scale = np.ones(nw.shape)
    scale[act] = np.broadcast_to(sigma, nw.shape)[act] / nw[act]
    return lam - scale[..., None] * w, w, nw, act


def _projection_rows(p, lam, sigma, rho):
    """The rows pi_i of `_projection`, the chi rows (chi_i = max(sigma_i,
    |w_i|) pi_i, evaluated as in chi_blocks so that |chi| is the same to the
    last bit), the Clarke blocks of pi and the active mask |w_i| >= sigma_i."""
    N, L = p.shape
    pi, w, nw, act = _projection(p, lam, sigma, rho)
    ch = np.maximum(sigma, nw)[:, None] * lam - sigma[:, None] * w
    eye = np.eye(L)
    dp = np.empty((N, L, L))
    dl = np.empty((N, L, L))
    dp[~act] = -rho * eye
    dl[~act] = 0.0
    if np.any(act):
        what = w[act] / nw[act][:, None]
        proj = eye - what[:, :, None] * what[:, None, :]
        fac = (sigma[act] / nw[act])[:, None, None]
        dl[act] = eye - fac * proj
        dp[act] = -rho * fac * proj
    return pi, ch, dp, dl, act


def solve_semismooth_newton(system, qspace, config=None, initial=None):
    """Damped semi-smooth Newton iteration on the decoupled system.

    The iteration runs on the row-equilibrated projection form of the
    complementarity rows (identical zero set to the chi rows, but uniformly
    scaled in the projection parameter). The merit is half the squared norm
    of that residual. The first STAGNATION - 1 steps are full steps unless
    the full step blows up (its merit is not finite or exceeds 1e6 times
    max(merit, 1)); from the STAGNATION-th residual evaluation on, and after
    any blow-up, the steps t in PROBES are probed as well and the step length
    of the least merit is taken (t = 1 first, then the longer steps first, on
    strictly smaller merit). The residual of the full step is evaluated
    directly and reused as the next iterate's. The probes of one step make
    one set of sparse products: r1 and r2 are affine in x, so at x + t delta
    they are r(x) + t r_lin(delta), and the projection rows of all probes
    are one batched evaluation at the points x + t delta. A step length
    t < 1 that is taken has its residual evaluated directly. The Clarke
    blocks and the chi rows are evaluated once per iterate.
    Convergence is declared on the max norm of the unscaled decoupled
    residual. The trace records (iteration, |F|_max, merit, step length,
    active-set size).
    Without `initial` the solve starts from x = 0: the active set is empty
    and r1, r2 are affine in u, so a full first step lands where it would
    from any u with p = lam = 0. Every step factorizes its own condensed
    matrix (the first's is K), in the ordering the first computed.
    A step whose factorization or element-block solve fails, or that is not
    finite, is retried once with rho shifted to 2 rho + 1 and counted in
    `retries`; a second failure raises.
    """
    require_dirichlet(qspace.mesh)
    cfg = config or NewtonConfig()
    rho = cfg.rho
    L = system.L
    n_q = system.C.shape[0]
    blocks = ElementBlocks(system)
    n_u = system.K.shape[0]
    x = (np.zeros(n_u + 2 * n_q) if initial is None
         else np.concatenate([np.asarray(v, dtype=float) for v in initial]))
    sigma = qspace.bounds

    def split(x):
        return x[:n_u], x[n_u:n_u + n_q], x[n_u + n_q:]

    def projection_residual(x):
        """The residual [r1, r2, pi rows] of the projection form."""
        u, p, lam = split(x)
        r1 = system.K @ u - system.B @ p - system.l
        r2 = -(blocks.Bt @ u) + system.C @ p + system.D * lam
        pi = _projection(p.reshape(-1, L), lam.reshape(-1, L), sigma, rho)[0]
        return np.concatenate([r1, r2, pi.ravel()])

    def probe_merits(x, F, delta):
        """The merits at x + t delta for t in PROBES: r1 and r2 from F and
        the linear part of delta, the projection rows in one batch."""
        _, p, lam = split(x)
        du, dp, dlam = split(delta)
        lin = np.concatenate([system.K @ du - system.B @ dp,
                              -(blocks.Bt @ du) + system.C @ dp + system.D * dlam])
        r = F[:n_u + n_q]
        rr = [float(v @ v) for v in (r + t * lin for t in PROBES)]
        pi = _projection((p + PROBES[:, None] * dp).reshape(len(PROBES), -1, L),
                         (lam + PROBES[:, None] * dlam).reshape(len(PROBES), -1, L),
                         sigma, rho)[0].reshape(len(PROBES), -1)
        return 0.5 * (np.array(rr) + np.einsum("ti,ti->t", pi, pi))

    trace = []
    retries = 0
    it = 0
    t_used = 1.0
    F = projection_residual(x)
    while True:
        u, p, lam = split(x)
        _, ch, dp, dl, act = _projection_rows(p.reshape(-1, L),
                                              lam.reshape(-1, L), sigma, rho)
        nF = float(np.abs(np.concatenate([F[:n_u + n_q], ch.ravel()])).max())
        merit = 0.5 * float(F @ F)
        trace.append((it, nF, merit, t_used, int(act.sum())))
        if nF <= cfg.tol or it >= cfg.max_iter:
            return SolutionTriple(u=u, p=p, lam=lam, converged=nF <= cfg.tol,
                                  iterations=it, trace=trace, retries=retries)
        try:
            delta = condensed_newton_step(blocks, dp, dl, F)
            if not np.all(np.isfinite(delta)):
                raise RuntimeError("non-finite Newton step")
        except (RuntimeError, np.linalg.LinAlgError):
            if retries:
                raise
            retries += 1
            rho = 2.0 * rho + 1.0  # shift the projection parameter once, retry
            F = projection_residual(x)
            continue
        t, F_full = 1.0, projection_residual(x + delta)
        best = 0.5 * float(F_full @ F_full)
        if (len(trace) >= STAGNATION or not np.isfinite(best)
                or best > 1e6 * max(merit, 1.0)):
            for tt, mp in zip(PROBES, probe_merits(x, F, delta)):
                if np.isfinite(mp) and mp < best:
                    t, best = float(tt), mp
        x = x + t * delta
        # the residual of the step taken is the next iterate's
        F = F_full if t == 1.0 else projection_residual(x)
        t_used = t
        it += 1


def write_trace_csv(triple, path):
    """The Newton trace as CSV, the floats in repr as the csv module writes
    them, with \\r\\n line ends; formatted in one operation."""
    rows = np.asarray(triple.trace, dtype=float).reshape(-1, 5)
    with open(path, "w", newline="") as fh:
        fh.write("iteration,residual_max,merit,step_length,active_set\r\n"
                 + ("%d,%r,%r,%r,%d\r\n" * len(rows)) % tuple(rows.ravel().tolist()))


# ---------------------------------------------------------------------------
# recovery, complementarity, admissible-set diagnostics
# ---------------------------------------------------------------------------

def deviator(mat):
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[-1]
    tr = np.trace(mat, axis1=-2, axis2=-1) / d
    return mat - tr[..., None, None] * np.eye(d)


def strain_values(gu, Jinv):
    """Symmetric gradients (..., m, d, d) of vector fields u from their
    reference gradients gu[..., k, a] = d u_k / d xhat_a and the inverse
    Jacobians Jinv (..., m, d, d)."""
    grad = gu @ Jinv
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


def tensor_values(vals, d):
    """Trace-free d x d tensors (..., d, d) from their components (..., L)
    over the deviatoric basis."""
    Phi = deviatoric_basis(d)
    return (vals @ Phi.reshape(len(Phi), d * d)).reshape(vals.shape[:-1] + (d, d))


class Fields:
    """The discrete fields of a mixed triple (u, p in primal coefficients, lam
    in dual coefficients or None), gathered once: per element degree, the
    displacement coefficients over the tensor shapes and the p and lam rows
    over the Gauss-point (Lagrange) basis. Elements are addressed by their
    positions in `mesh.active_ids()`, and grouped by `element_groups`."""

    def __init__(self, space, qspace, material, u, p, lam=None):
        d = space.dim
        L = deviatoric_dim(d)
        require_same_degrees(space, qspace)
        self.material = material
        self.dim = d
        self.deg = space.mesh.degree[space.mesh.active_ids()]
        self.with_lam = lam is not None
        U = np.asarray(u, dtype=float).reshape(-1, d)
        prows = np.asarray(p, dtype=float).reshape(qspace.ndof, L)
        lrows = None if lam is None else np.asarray(lam, dtype=float).reshape(
            qspace.ndof, L)
        self.slot = np.empty(len(self.deg), dtype=np.intp)
        self.groups = {}
        for (q,), sel in element_groups(space).items():
            self.slot[sel] = np.arange(len(sel))
            self.groups[q] = (
                space.element_coeffs(sel, U), qspace.element_rows(sel, prows),
                None if lrows is None else qspace.element_rows(sel, lrows,
                                                               dual=True))

    def rows(self, q, els):
        """(coef, p rows, lam rows or None) of elements els, all of degree q."""
        at = self.slot[els]
        return tuple(None if a is None else a[at] for a in self.groups[q])

    def stress(self, gu, pv, Jinv):
        """sigma(u, p) and the tensor p at points where u has reference
        gradients gu [.., k, a], p has deviatoric components pv [.., l] and
        the inverse Jacobians are Jinv."""
        pq = tensor_values(pv, self.dim)
        return self.material.stress(strain_values(gu, Jinv), pq), pq

    def _tables(self, els, ref):
        """Per element degree q among els: the positions `at` in els of its
        elements, the 1D shape values, their derivatives and the
        Gauss-Lagrange values at their reference points ref (r, m, d), one
        (len(at), m, -1) table per axis, and the elements' field rows."""
        d = self.dim
        m = ref.shape[1]
        for q in sorted(set(self.deg[els].tolist())):
            at = np.nonzero(self.deg[els] == q)[0]
            t = ref[at].reshape(-1, d)
            shape = (len(at), m, -1)
            vals, ders = [], []
            for a in range(d):
                v, dv = _kernels.shape_table(t[:, a], max(q, 1))
                vals.append(v.reshape(shape))
                ders.append(dv.reshape(shape))
            lag = [gauss_lagrange_1d(q, t[:, a])[0].reshape(shape) for a in range(d)]
            yield at, vals, ders, lag, self.rows(q, els[at])

    def values_at(self, els, ref):
        """The fields on elements els at their own reference points ref
        (r, m, d), or at points (m, d) shared by all: u values (r, m, d),
        reference gradients gu (r, m, d, d) with gu[.., k, a] = d u_k /
        d xhat_a, and the deviatoric components (r, m, L) of p and of lam
        (None when lam was not given); one evaluation per element degree.
        The fields are summed one axis at a time over 1D tables at the
        points, so one-off points make neither a per-point tensor table nor
        a cache entry."""
        d = self.dim
        ref = np.broadcast_to(ref, (len(els),) + np.shape(ref)[-2:])
        r, m, _ = ref.shape
        L = deviatoric_dim(d)
        u, gu, pv = np.empty((r, m, d)), np.empty((r, m, d, d)), np.empty((r, m, L))
        lv = np.empty(pv.shape) if self.with_lam else None
        for at, vals, ders, lag, (coef, prows, lrows) in self._tables(els, ref):
            u[at] = tensor_contract(vals, coef)
            gu[at] = _gradient(vals, ders, coef)
            pv[at] = tensor_contract(lag, prows)
            if lv is not None:
                lv[at] = tensor_contract(lag, lrows)
        return u, gu, pv, lv

    def stress_at(self, els, ref, Jinv):
        """Stress (r, m, d, d) of elements els at their own reference points
        ref (r, m, d), with inverse Jacobians Jinv there; only the gradients
        of u and the values of p are evaluated."""
        d = self.dim
        r, m, _ = ref.shape
        gu, pv = np.empty((r, m, d, d)), np.empty((r, m, deviatoric_dim(d)))
        for at, vals, ders, lag, (coef, prows, _) in self._tables(els, ref):
            gu[at] = _gradient(vals, ders, coef)
            pv[at] = tensor_contract(lag, prows)
        return self.stress(gu, pv, Jinv)[0]


def _gradient(vals, ders, coef):
    """Reference gradients [.., k, a] of the fields with tensor coefficients
    coef from per-axis 1D shape values and derivatives."""
    d = len(vals)
    return np.stack([tensor_contract(vals[:a] + [ders[a]] + vals[a + 1:], coef)
                     for a in range(d)], axis=-1)


def recover_multiplier(space, qspace, material, u, p):
    """Blockwise projection of dev(sigma(u,p) - H p) onto the strain space,
    returned as coefficients over the biorthogonal basis (flat, L-interleaved);
    one group of elements of equal degree at a time, by the Gauss rule of
    order p + 2."""
    fields = Fields(space, qspace, material, u, p)
    corners = space.mesh.corner_array(space.mesh.active_ids())
    Phi = deviatoric_basis(space.dim)
    out = np.empty((qspace.ndof, len(Phi)))
    for (q,), sel in element_groups(space).items():
        pts, w, Jinv = group_quadrature(corners[sel], q + 2)
        _, gu, pv, _ = fields.values_at(sel, pts)
        sig, pq = fields.stress(gu, pv, Jinv)
        comps = np.einsum("nqab,lab->nql",
                          deviator(sig - material.apply_hardening(pq)), Phi)
        dofs = qspace.element_dofs(sel)
        out[dofs] = np.einsum("qi,nq,nql->nil", gauss_point_basis(q, pts), w,
                              comps) / qspace.weights[dofs][..., None]
    return out.ravel()


@dataclass
class ComplementarityReport:
    feasibility: np.ndarray      # sigma_i - |lam_i|_F per dof
    alignment: np.ndarray        # lam_i : p_i - sigma_i |p_i|_F per dof
    elastic: np.ndarray          # bool: |lam_i| < sigma_i - tol
    plastic: np.ndarray          # bool mask of the rest
    max_violation: float

    @property
    def n_elastic(self):
        return int(np.sum(self.elastic))

    @property
    def n_plastic(self):
        return int(np.sum(self.plastic))


def check_complementarity(qspace, p, lam):
    """Per-dof feasibility / alignment numbers and elastic-plastic
    classification; a dof is elastic where |lam| < sigma_y (1 - 1e-8)."""
    L = deviatoric_dim(qspace.dim)
    pr = np.asarray(p, dtype=float).reshape(-1, L)
    lr = np.asarray(lam, dtype=float).reshape(-1, L)
    sig = qspace.bounds
    nl = np.linalg.norm(lr, axis=1)
    npn = np.linalg.norm(pr, axis=1)
    feas = sig - nl
    align = np.einsum("il,il->i", lr, pr) - sig * npn
    tol = 1e-8 * sig
    elastic = nl < sig - tol
    plastic = ~elastic
    viol = float(max(np.maximum(-feas, 0.0).max(initial=0.0),
                     np.abs(align).max(initial=0.0)))
    return ComplementarityReport(feasibility=feas, alignment=align,
                                 elastic=elastic, plastic=plastic,
                                 max_violation=viol)


def in_admissible_gauss(qspace, mu, tol=0.0):
    """Membership via the Frobenius bound at the Gauss points (primal coeffs)."""
    L = deviatoric_dim(qspace.dim)
    rows = np.asarray(mu, dtype=float).reshape(-1, L)
    return bool(np.all(np.linalg.norm(rows, axis=1) <= qspace.yield_stress + tol))


def in_admissible_weak(qspace, mu, q_samples, tol=0.0):
    """Membership via (mu, q) <= psi_hp(q) tested against sample fields q."""
    L = deviatoric_dim(qspace.dim)
    Mmu = gauss_mass_matrix(qspace) @ np.asarray(mu, dtype=float).reshape(-1, L)
    return all(float(np.sum(Mmu * q)) <= plastic_functional(qspace, q) + tol
               for q in (np.asarray(q, dtype=float).reshape(-1, L)
                         for q in q_samples))


def infsup_ratio(qspace, mu):
    """Ratio of the achieved supremum to ||mu||_0: the closed form takes v = 0
    and q the Riesz representer of the pairing in the Q mass inner product."""
    L = deviatoric_dim(qspace.dim)
    mu_rows = np.asarray(mu, dtype=float).reshape(-1, L)
    M = gauss_mass_matrix(qspace)
    Mmu = M @ mu_rows
    nrm_mu_sq = float(np.sum(mu_rows * Mmu))
    if nrm_mu_sq <= 0.0:
        raise ValueError("mu must be nonzero")
    riesz = factorize(M).solve(Mmu)
    Mq = M @ riesz
    sup_value = float(np.sum(mu_rows * Mq)) / np.sqrt(float(np.sum(riesz * Mq)))
    return sup_value / np.sqrt(nrm_mu_sq)

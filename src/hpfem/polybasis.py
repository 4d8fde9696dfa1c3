"""Reference-element tables: integrated-Legendre shape functions and their
tensor products on the reference cube [-1,1]^d, Gauss rules and the Lagrange
basis at Gauss nodes.

The tables depend only on (degree, points, dimension), so every builder is
wrapped in `reference_table`: it returns one read-only result per distinct
argument list from a bounded LRU cache, and the element loops in `assembly`,
`elliptic`, `estimator`, `plasticity`, `predictor` and `space` share them.
"""

import itertools
from functools import lru_cache, wraps

import numpy as np

from . import _kernels

MAX_DEGREE = 20

_NODE_TOL = 1e-13

TABLE_CACHE_SIZE = 128


def _exact(arg):
    """An argument as part of a cache key: arrays (and lists, as arrays) by
    dtype, shape and bytes, anything else, such as an integer, as it is."""
    if isinstance(arg, list):
        arg = np.asarray(arg)
    if isinstance(arg, np.ndarray):
        return ("array", arg.dtype.str, arg.shape, arg.tobytes())
    return arg


class _Call(tuple):
    """The cache key of one call, with the arguments attached for the build."""

    def __new__(cls, args, kwargs):
        key = super().__new__(cls, (tuple(map(_exact, args)), tuple(sorted(
            (name, _exact(value)) for name, value in kwargs.items()))))
        key.args = args
        key.kwargs = kwargs
        return key


def _read_only(out):
    if isinstance(out, np.ndarray):
        out.setflags(write=False)
    elif isinstance(out, tuple):
        for item in out:
            _read_only(item)
    return out


def reference_table(fn):
    """Memoize a table builder on its exact arguments, at most TABLE_CACHE_SIZE
    results, each returned read-only so that no caller can change a shared
    table. The undecorated builder stays reachable as `__wrapped__`."""
    @lru_cache(maxsize=TABLE_CACHE_SIZE)
    def build(call):
        out = _read_only(fn(*call.args, **call.kwargs))
        call.args = call.kwargs = None  # the cache keeps the key, not the inputs
        return out

    @wraps(fn)
    def cached(*args, **kwargs):
        return build(_Call(args, kwargs))

    cached.cache_info = build.cache_info
    return cached


def shape1d_second(t, jmax):
    """Second derivatives of psi_0..psi_jmax: psi_j'' = L_{j-1}' for j >= 2."""
    t = np.ascontiguousarray(np.asarray(t, dtype=float).ravel())
    jmax = max(jmax, 1)
    out = np.zeros((t.shape[0], jmax + 1))
    if jmax >= 2:
        _, ld = _kernels.legendre_table(t, jmax - 1)
        out[:, 2:] = ld[:, 1:jmax]
    return out


@reference_table
def gauss_rule(n):
    """1D Gauss-Legendre rule on [-1,1]: points (n,), weights (n,)."""
    if n < 1:
        raise ValueError("Gauss rule needs n >= 1")
    return np.polynomial.legendre.leggauss(n)


@reference_table
def tensor_indices(degree, dim):
    """All multi-indices (j_1..j_d) with 0 <= j_k <= degree, last component fastest."""
    rows = list(itertools.product(range(degree + 1), repeat=dim))
    return np.array(rows, dtype=np.intp).reshape(len(rows), dim)


@reference_table
def tensor_gauss(n, dim):
    """Tensor-product Gauss rule: points (n^d, d), weights (n^d,); last axis
    fastest. For dim = 0 (the facets of an interval) it is one point of
    weight 1."""
    x, w = gauss_rule(n)
    pts = np.array(list(itertools.product(x, repeat=dim)))
    wts = np.array([np.prod(c) for c in itertools.product(w, repeat=dim)])
    return pts.reshape(len(wts), dim), wts


def _tensor_product(m, axis_vals, axis_ders, indices):
    """Values (m, nb) and gradients (m, nb, d) of the tensor products of the
    per-axis tables (m, n) picked out by the multi-index rows (nb, d)."""
    d = len(axis_vals)
    vals = np.ones((m, indices.shape[0]))
    for a in range(d):
        vals *= axis_vals[a][:, indices[:, a]]
    grads = np.empty(vals.shape + (d,))
    for a in range(d):
        g = axis_ders[a][:, indices[:, a]].copy()
        for b in range(d):
            if b != a:
                g *= axis_vals[b][:, indices[:, b]]
        grads[:, :, a] = g
    return vals, grads


@reference_table
def tensor_shape_eval(points, indices, jmax=None):
    """Evaluate tensor shapes psi-hat_j at reference points.

    points: (m, d); indices: (nb, d) multi-index rows.
    Returns vals (m, nb) and grads (m, nb, d).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    indices = np.atleast_2d(np.asarray(indices, dtype=np.intp))
    if jmax is None:
        jmax = int(indices.max()) if indices.size else 1
    tables = [_kernels.shape_table(np.ascontiguousarray(points[:, a]), max(jmax, 1))
              for a in range(points.shape[1])]
    return _tensor_product(len(points), [v for v, _ in tables],
                           [dv for _, dv in tables], indices)


@reference_table
def stiffness_tensor(degree, dim, order):
    """The Poisson reference tensor of the tensor shapes of a degree by the
    tensor Gauss rule of order points per axis: T (d^2, nb^2) with
    T[a d + c, i nb + j] = sum_q w_q d_a psi-hat_i d_c psi-hat_j. On an
    affine map the stiffness is det J sum_{a,c} (J^-1 J^-T)_{ac} T_{ac}."""
    pts, wts = tensor_gauss(order, dim)
    _, G = tensor_shape_eval(pts, tensor_indices(degree, dim), jmax=max(degree, 1))
    m, nb, d = G.shape
    X = G.reshape(m, nb * d)
    T = ((X.T * wts) @ X).reshape(nb, d, nb, d)
    return T.transpose(1, 3, 0, 2).reshape(d * d, nb * nb)


def tensor_contract(tables, coef):
    """Sum factorization over per-point 1D tables: the values (r, m, k) of
    sum_j coef[r, j] prod_a tables[a][r, :, j_a], j running over the full
    tensor index set in `tensor_indices` order. tables are d arrays
    (r, m, n), one per axis; coef is (r, n^d, k). One axis is summed at a
    time, so no (r, m, n^d) table is formed."""
    r, m, n = tables[0].shape
    out = tables[0] @ coef.reshape(r, n, -1)
    for tab in tables[1:]:
        out = (tab[..., None, :] @ out.reshape(r, m, n, -1))[..., 0, :]
    return out


@reference_table
def tensor_shape_hessian(points, indices, jmax=None):
    """Reference second derivatives of tensor shapes: array (m, nb, d, d)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    indices = np.atleast_2d(np.asarray(indices, dtype=np.intp))
    m, d = points.shape
    nb = indices.shape[0]
    if jmax is None:
        jmax = int(indices.max()) if indices.size else 1
    jmax = max(jmax, 1)
    V, D, S = [], [], []
    for a in range(d):
        v, dv = _kernels.shape_table(np.ascontiguousarray(points[:, a]), jmax)
        V.append(v)
        D.append(dv)
        S.append(shape1d_second(points[:, a], jmax))
    H = np.empty((m, nb, d, d))
    for a in range(d):
        for b in range(a, d):
            if a == b:
                g = S[a][:, indices[:, a]].copy()
            else:
                g = D[a][:, indices[:, a]] * D[b][:, indices[:, b]]
            for c in range(d):
                if c != a and c != b:
                    g = g * V[c][:, indices[:, c]]
            H[:, :, a, b] = g
            H[:, :, b, a] = g
    return H


# ---------------------------------------------------------------------------
# Lagrange basis at Gauss nodes (barycentric evaluation)
# ---------------------------------------------------------------------------

@reference_table
def _bary_weights(p):
    x, _ = gauss_rule(p)
    w = np.ones(p)
    for i in range(p):
        w[i] = 1.0 / np.prod(x[i] - np.delete(x, i))
    return x, w


def gauss_lagrange_1d(p, t):
    """Values of the p Lagrange polynomials on the Gauss nodes, at points t: (m, p)."""
    x, w = _bary_weights(p)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    diff = t[:, None] - x[None, :]
    out = np.empty((len(t), p))
    hit = np.abs(diff) < _NODE_TOL
    reg = ~hit.any(axis=1)
    if reg.any():
        r = w[None, :] / diff[reg]
        out[reg] = r / r.sum(axis=1, keepdims=True)
    for row in np.nonzero(~reg)[0]:
        out[row] = hit[row].astype(float)
    return out


def gauss_lagrange_1d_deriv(p, t):
    """Derivatives of the Gauss-node Lagrange polynomials at points t: (m, p)."""
    x, w = _bary_weights(p)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    diff = t[:, None] - x[None, :]
    out = np.empty((len(t), p))
    hit = np.abs(diff) < _NODE_TOL
    reg = ~hit.any(axis=1)
    if reg.any():
        r = w[None, :] / diff[reg]
        s = r.sum(axis=1, keepdims=True)
        s2 = (r / diff[reg]).sum(axis=1, keepdims=True)
        out[reg] = (r / s) * (s2 / s - 1.0 / diff[reg])
    for row in np.nonzero(~reg)[0]:
        k = int(np.nonzero(hit[row])[0][0])
        drow = np.empty(p)
        for i in range(p):
            if i != k:
                drow[i] = (w[i] / w[k]) / (x[k] - x[i])
        drow[k] = 0.0
        drow[k] = -drow.sum()
        out[row] = drow
    return out


@reference_table
def gauss_lagrange_tensor(p, points):
    """Tensor Lagrange basis of degree p-1 per axis at the p^d Gauss nodes.

    points: (m, d). Returns vals (m, p^d) and grads (m, p^d, d); node ordering
    matches tensor_gauss(p, d).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = points.shape[1]
    return _tensor_product(len(points),
                           [gauss_lagrange_1d(p, points[:, a]) for a in range(d)],
                           [gauss_lagrange_1d_deriv(p, points[:, a]) for a in range(d)],
                           tensor_indices(p - 1, d))

"""Reference-element tables: integrated-Legendre shape functions and their
tensor products on the reference cube [-1,1]^d, Gauss rules and the Lagrange
basis at Gauss nodes.

Every tensor table is formed by one product rule, `_tensor_product`: the
entry of a multi-index j for a derivative of order k multiplies, along each
axis a, the 1D table of the derivative order taken along a, at column j_a.
It multiplies the tables of the differentiated axes first, in ascending axis
order, then the value tables of the other axes, in ascending order, so
values, gradients and Hessians of the integrated-Legendre shapes and of the
Gauss-node Lagrange basis are each one fixed sequence of products.

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


def _tensor_product(m, tables, indices, order):
    """The derivatives of one order (0 values, 1 gradients, 2 Hessians) of
    the tensor products picked out by the multi-index rows indices (nb, d),
    as an array (m, nb) + (d,) * order. tables[a][k] (m, n) is the k-th
    derivative table along axis a; each entry multiplies the tables of the
    differentiated axes, in ascending order, then the value tables of the
    other axes, in ascending order."""
    d = len(tables)
    out = np.empty((m, len(indices)) + (d,) * order)
    for axes in itertools.combinations_with_replacement(range(d), order):
        picked = [tables[a][axes.count(a)][:, indices[:, a]]
                  for a in sorted(range(d), key=lambda a: a not in axes)]
        g = picked[0] if picked else np.ones((m, len(indices)))
        for f in picked[1:]:
            g *= f
        for entry in set(itertools.permutations(axes)):
            out[(Ellipsis,) + entry] = g
    return out


def _shape_tables(points, indices, order):
    """Points (m, d) and multi-index rows (nb, d) as arrays, and the 1D
    shape tables psi_0..psi_jmax of each axis with their derivatives up to
    order (at most 2; psi_j'' = L_{j-1}' for j >= 2), jmax the largest index
    and at least 1: each column comes from a recurrence that does not depend
    on jmax."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    indices = np.atleast_2d(np.asarray(indices, dtype=np.intp))
    jmax = int(indices.max(initial=1))
    tables = []
    for a in range(points.shape[1]):
        t = np.ascontiguousarray(points[:, a])
        tables.append(_kernels.shape_table(t, jmax))
        if order == 2:
            second = np.zeros((len(t), jmax + 1))
            if jmax >= 2:
                second[:, 2:] = _kernels.legendre_table(t, jmax - 1)[1][:, 1:]
            tables[-1] += (second,)
    return points, indices, tables


@reference_table
def tensor_shape_eval(points, indices):
    """Evaluate tensor shapes psi-hat_j at reference points.

    points: (m, d); indices: (nb, d) multi-index rows.
    Returns vals (m, nb) and grads (m, nb, d).
    """
    points, indices, tables = _shape_tables(points, indices, 1)
    return tuple(_tensor_product(len(points), tables, indices, k) for k in (0, 1))


@reference_table
def stiffness_tensor(degree, dim, order):
    """The Poisson reference tensor of the tensor shapes of a degree by the
    tensor Gauss rule of order points per axis: T (d^2, nb^2) with
    T[a d + c, i nb + j] = sum_q w_q d_a psi-hat_i d_c psi-hat_j. On an
    affine map the stiffness is det J sum_{a,c} (J^-1 J^-T)_{ac} T_{ac}."""
    pts, wts = tensor_gauss(order, dim)
    _, G = tensor_shape_eval(pts, tensor_indices(degree, dim))
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
def tensor_shape_hessian(points, indices):
    """Reference second derivatives of tensor shapes: array (m, nb, d, d)."""
    points, indices, tables = _shape_tables(points, indices, 2)
    return _tensor_product(len(points), tables, indices, 2)


# ---------------------------------------------------------------------------
# Lagrange basis at Gauss nodes (barycentric evaluation)
# ---------------------------------------------------------------------------

@reference_table
def _bary_weights(p):
    """The p Gauss nodes x, their barycentric weights w and the derivatives
    D[k, i] of the Lagrange polynomial i at the node k."""
    x, _ = gauss_rule(p)
    w = np.ones(p)
    for i in range(p):
        w[i] = 1.0 / np.prod(x[i] - np.delete(x, i))
    D = np.zeros((p, p))
    for k in range(p):
        off = np.arange(p) != k
        D[k, off] = (w[off] / w[k]) / (x[k] - x[off])
        D[k, k] = -D[k].sum()
    return x, w, D


def gauss_lagrange_1d(p, t):
    """Values and derivatives (m, p) of the p Lagrange polynomials on the
    Gauss nodes at points t, by the barycentric formula away from the nodes
    and from the node rows of `_bary_weights` on them."""
    x, w, D = _bary_weights(p)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    diff = t[:, None] - x[None, :]
    val = np.empty((len(t), p))
    der = np.empty((len(t), p))
    hit = np.abs(diff) < _NODE_TOL
    reg = ~hit.any(axis=1)
    if reg.any():
        dr = diff[reg]
        r = w[None, :] / dr
        s = r.sum(axis=1, keepdims=True)
        val[reg] = q = r / s
        der[reg] = q * ((r / dr).sum(axis=1, keepdims=True) / s - 1.0 / dr)
    val[~reg] = hit[~reg]
    der[~reg] = D[hit[~reg].argmax(axis=1)]
    return val, der


@reference_table
def gauss_lagrange_tensor(p, points):
    """Tensor Lagrange basis of degree p-1 per axis at the p^d Gauss nodes.

    points: (m, d). Returns vals (m, p^d) and grads (m, p^d, d); node ordering
    matches tensor_gauss(p, d).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    tables = [gauss_lagrange_1d(p, t) for t in points.T]
    idx = tensor_indices(p - 1, points.shape[1])
    return tuple(_tensor_product(len(points), tables, idx, k) for k in (0, 1))

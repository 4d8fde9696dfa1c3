import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpfem import polybasis
from hpfem._kernels import legendre_table, shape_table
from hpfem.polybasis import (gauss_lagrange_1d, gauss_lagrange_tensor,
                             gauss_rule, tensor_gauss, tensor_indices,
                             tensor_shape_eval, tensor_shape_hessian)
from hpfem.problems import cube_mesh, interval_mesh, square_mesh
from hpfem.space import _expansion_operator, _restriction, constraint_coeffs


def legendre(j, t):
    """L_j at the points t, read from the kernel table."""
    return legendre_table(np.atleast_1d(np.asarray(t, dtype=float)), j)[0][:, j]


def integrated_legendre(j, t):
    """psi_j at the points t, read from the kernel shape table."""
    return shape_table(np.atleast_1d(np.asarray(t, dtype=float)), max(j, 1))[0][:, j]


class TestLegendre:
    def test_low_orders(self):
        assert legendre(0, 0.77) == 1.0
        assert abs(legendre(1, 0.3) - 0.3) < 1e-15
        assert abs(legendre(2, 0.5) - (-0.125)) < 1e-15

    def test_normalization(self):
        for j in range(9):
            assert abs(legendre(j, 1.0) - 1.0) < 1e-13
            assert abs(legendre(j, -1.0) - (-1.0) ** j) < 1e-13

    def test_orthogonality_by_quadrature(self):
        # 5-point Gauss integrates the degree-7 product L3 L4 exactly
        pts, wts = gauss_rule(5)
        val = sum(w * legendre(3, x) * legendre(4, x)
                  for x, w in zip(pts, wts))
        assert abs(val) < 1e-14

    def test_derivative_against_fd(self, rng):
        t = rng.uniform(-0.95, 0.95, 12)
        h = 1e-6
        for j in (2, 5, 9):
            d = legendre_table(t, j)[1][:, j]
            fd = (legendre(j, t + h) - legendre(j, t - h)) / (2 * h)
            np.testing.assert_allclose(d, fd, atol=1e-7)

    @given(st.integers(0, 15), st.floats(-1, 1))
    @settings(max_examples=80, deadline=None)
    def test_bounded_on_interval(self, j, t):
        assert abs(legendre(j, t)) <= 1.0 + 1e-12


class TestIntegratedLegendre:
    def test_vertex_functions(self):
        assert integrated_legendre(0, -1.0) == 1.0
        assert integrated_legendre(1, -1.0) == 0.0
        assert integrated_legendre(0, 1.0) == 0.0
        assert integrated_legendre(1, 1.0) == 1.0

    def test_quadratic_bubble(self):
        # psi_2(t) = (t^2 - 1)/2 by integrating L_1
        assert abs(integrated_legendre(2, 0.0) - (-0.5)) < 1e-15
        t = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(integrated_legendre(2, t), (t**2 - 1) / 2,
                                   atol=1e-15)

    def test_endpoint_zeros(self):
        for j in range(2, 12):
            assert abs(integrated_legendre(j, 1.0)) < 1e-14
            assert abs(integrated_legendre(j, -1.0)) < 1e-14

    def test_derivative_is_legendre(self, rng):
        t = rng.uniform(-1, 1, 17)
        vals, ders = shape_table(t, 8)
        for j in range(2, 9):
            np.testing.assert_allclose(ders[:, j], legendre(j - 1, t), atol=1e-14)

    def test_integral_definition(self):
        # quadrature of L_{j-1} from -1 to t reproduces psi_j
        pts, wts = gauss_rule(12)
        for j in (3, 6):
            for t in (-0.4, 0.2, 0.9):
                a, b = -1.0, t
                x = 0.5 * (b - a) * pts + 0.5 * (a + b)
                val = 0.5 * (b - a) * np.sum(wts * legendre(j - 1, x))
                assert abs(val - integrated_legendre(j, t)) < 1e-14

    def test_derivative_orthogonality(self):
        # the stated reason for the basis: psi_j' are Legendre polynomials
        pts, wts = gauss_rule(14)
        _, ders = shape_table(pts, 10)
        for j in range(2, 11):
            for k in range(2, 11):
                if j == k:
                    continue
                val = np.sum(wts * ders[:, j] * ders[:, k])
                assert abs(val) < 1e-13


class TestGauss:
    def test_one_point(self):
        pts, wts = gauss_rule(1)
        assert abs(pts[0]) < 1e-15 and abs(wts[0] - 2.0) < 1e-15

    def test_two_point(self):
        pts, wts = gauss_rule(2)
        np.testing.assert_allclose(sorted(pts), [-1 / np.sqrt(3), 1 / np.sqrt(3)],
                                   atol=1e-15)
        np.testing.assert_allclose(wts, [1.0, 1.0], atol=1e-15)

    def test_six_point_monomial(self):
        pts, wts = gauss_rule(6)
        val = np.sum(wts * pts**10)
        assert abs(val - 2.0 / 11.0) < 1e-14

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exactness(self, n):
        pts, wts = gauss_rule(n)
        for k in range(2 * n):
            moment = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(wts * pts**k) - moment) < 1e-13

    def test_weights_positive_sum_two(self):
        for n in (1, 4, 9):
            pts, wts = gauss_rule(n)
            assert np.all(wts > 0)
            assert abs(wts.sum() - 2.0) < 1e-14

    def test_tensor_rule(self):
        pts, wts = tensor_gauss(3, 2)
        assert pts.shape == (9, 2)
        assert abs(wts.sum() - 4.0) < 1e-14


class TestGaussLagrange:
    def test_delta_property(self):
        p = 3
        pts, _ = tensor_gauss(p, 2)
        vals, _ = gauss_lagrange_tensor(p, pts)
        np.testing.assert_allclose(vals, np.eye(p * p), atol=1e-13)

    def test_partition_of_unity(self, rng):
        x = rng.uniform(-1, 1, (20, 2))
        vals, _ = gauss_lagrange_tensor(4, x)
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-13)

    def test_two_node_closed_form(self):
        # basis function of the node -1/sqrt(3): (1 - sqrt(3) t)/2
        assert abs(gauss_lagrange_tensor(2, np.array([[0.0]]))[0][0, 0] - 0.5) < 1e-14
        t = 0.4
        assert abs(gauss_lagrange_1d(2, np.array([t]))[0][0, 0]
                   - (1 - np.sqrt(3) * t) / 2) < 1e-14

    def test_gradient_against_fd(self, rng):
        x = rng.uniform(-0.9, 0.9, (5, 2))
        _, grads = gauss_lagrange_tensor(3, x)
        h = 1e-6
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            vp, _ = gauss_lagrange_tensor(3, x + e)
            vm, _ = gauss_lagrange_tensor(3, x - e)
            np.testing.assert_allclose(grads[:, :, a], (vp - vm) / (2 * h),
                                       atol=1e-8)


class TestTensorShapes:
    def test_spanning_random_polynomial(self, rng):
        # expanding a random tensor polynomial of degree r reproduces it pointwise
        r, d = 4, 2
        cmono = rng.standard_normal((r + 1, r + 1))

        def poly(x):
            return sum(cmono[i, j] * x[:, 0]**i * x[:, 1]**j
                       for i in range(r + 1) for j in range(r + 1))

        # the 2D operator is the Kronecker product of the 1D one
        pts, _ = tensor_gauss(r + 1, d)
        coef = np.kron(*(_expansion_operator(r)[1],) * d) @ poly(pts)
        idx = tensor_indices(r, d)
        x = rng.uniform(-1, 1, (25, d))
        V, _ = tensor_shape_eval(x, idx)
        np.testing.assert_allclose(V @ coef, poly(x), atol=1e-12)

    def test_boundary_vanishing_iff_bubbles(self):
        idx = np.array([[2, 3], [1, 2], [3, 3]])
        edge_pts = np.array([[-1.0, 0.3], [1.0, -0.2], [0.5, 1.0], [0.1, -1.0]])
        V, _ = tensor_shape_eval(edge_pts, idx)
        assert np.abs(V[:, 0]).max() < 1e-15  # all bubble components
        assert np.abs(V[:, 2]).max() < 1e-15
        assert np.abs(V[:, 1]).max() > 1e-3  # contains a vertex factor


# ---------------------------------------------------------------------------
# the reference-table cache
# ---------------------------------------------------------------------------

_MESHES = {1: interval_mesh(), 2: square_mesh(), 3: cube_mesh()}


def _leaves(out):
    """The arrays of a table result, in a fixed order."""
    if isinstance(out, tuple):
        return [a for item in out for a in _leaves(item)]
    return [out]


def _assert_same_bits(got, want):
    got, want = _leaves(got), _leaves(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def _assert_bitwise(cached, plain):
    _assert_same_bits(cached, plain)
    assert not any(a.flags.writeable for a in _leaves(cached))


def _check(builder, *args, **kwargs):
    out = builder(*args, **kwargs)
    _assert_bitwise(out, builder.__wrapped__(*args, **kwargs))
    assert builder(*args, **kwargs) is out  # the second call is a cache hit
    return out


_points = st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.lists(st.floats(-1, 1), min_size=d, max_size=d),
                         min_size=1, max_size=6)))


class TestReferenceTableCache:
    @given(_points, st.integers(1, 6), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_cached_equals_uncached(self, dim_pts, degree, facet_seed):
        d, rows = dim_pts
        pts = np.array(rows, dtype=float)
        idx = _check(tensor_indices, degree, d)
        _check(gauss_rule, degree)
        _check(polybasis._bary_weights, degree)
        _check(tensor_gauss, degree + 1, d)
        _check(_expansion_operator, degree)
        # random points and the Gauss points of one full facet, embedded
        f = facet_seed % (2 * d)
        facet_pts = _MESHES[d].facet_embed(
            f, tensor_gauss(degree + 2, d - 1)[0] if d > 1 else np.zeros((1, 0)))
        for x in (pts, facet_pts):
            _check(tensor_shape_eval, x, idx)
            _check(tensor_shape_hessian, x, idx)
            _check(gauss_lagrange_tensor, degree, x)

    @given(st.integers(1, 3), st.integers(1, 6),
           st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3),
           st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_constraint_coeffs_off_centre(self, d, degree, z, child):
        zhat = np.array(z[:d])
        bits = tuple((child >> k) & 1 for k in range(d))
        idx = tensor_indices(degree, d)
        _check(constraint_coeffs, idx, bits, zhat, degree=degree)
        _check(constraint_coeffs, idx[-1], bits, zhat, degree=degree)
        _check(constraint_coeffs, idx, bits, tuple(z[:d]))
        _check(_restriction, degree, z[0], -1.0)

    def test_keys_are_exact(self):
        # arrays are keyed by dtype and bytes: another dtype, or -0.0 for 0.0,
        # is another table
        pts = np.array([[0.0, 0.5]])
        idx = tensor_indices(2, 2)
        v64 = tensor_shape_eval(pts, idx)
        assert tensor_shape_eval(pts.astype(np.float32), idx) is not v64
        assert tensor_shape_eval(np.array([[-0.0, 0.5]]), idx) is not v64
        assert tensor_shape_eval(pts.copy(), idx) is v64

    def test_results_are_read_only(self):
        vals, grads = tensor_shape_eval(np.array([[0.1, -0.3]]), tensor_indices(3, 2))
        for table in (vals, grads, tensor_gauss(3, 2)[0], gauss_rule(4)[1],
                      _expansion_operator(3)[1]):
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_cache_stays_bounded(self):
        bound = tensor_shape_eval.cache_info().maxsize
        idx = tensor_indices(2, 1)
        for t in np.linspace(-1.0, 1.0, bound + 50):
            tensor_shape_eval(np.array([[t]]), idx)
        assert tensor_shape_eval.cache_info().currsize == bound


# ---------------------------------------------------------------------------
# the product rule against the tabulation it replaced, bit for bit
# ---------------------------------------------------------------------------

def _old_tensor_product(m, axis_vals, axis_ders, indices):
    """Values and gradients as the two-table product formed them."""
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


def _old_shape_eval(points, indices, jmax):
    tables = [shape_table(np.ascontiguousarray(points[:, a]), jmax)
              for a in range(points.shape[1])]
    return _old_tensor_product(len(points), [v for v, _ in tables],
                               [dv for _, dv in tables], indices)


def _old_shape1d_second(t, jmax):
    out = np.zeros((t.shape[0], jmax + 1))
    if jmax >= 2:
        _, ld = legendre_table(np.ascontiguousarray(t), jmax - 1)
        out[:, 2:] = ld[:, 1:jmax]
    return out


def _old_shape_hessian(points, indices, jmax):
    """The Hessian's own triple product loop."""
    m, d = points.shape
    V, D, S = [], [], []
    for a in range(d):
        v, dv = shape_table(np.ascontiguousarray(points[:, a]), jmax)
        V.append(v)
        D.append(dv)
        S.append(_old_shape1d_second(points[:, a], jmax))
    H = np.empty((m, indices.shape[0], d, d))
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


def _old_lagrange_1d(p, t):
    x, w, _ = polybasis._bary_weights(p)
    diff = t[:, None] - x[None, :]
    out = np.empty((len(t), p))
    hit = np.abs(diff) < polybasis._NODE_TOL
    reg = ~hit.any(axis=1)
    if reg.any():
        r = w[None, :] / diff[reg]
        out[reg] = r / r.sum(axis=1, keepdims=True)
    for row in np.nonzero(~reg)[0]:
        out[row] = hit[row].astype(float)
    return out


def _old_lagrange_1d_deriv(p, t):
    """The separate barycentric derivative, with its own node handling."""
    x, w, _ = polybasis._bary_weights(p)
    diff = t[:, None] - x[None, :]
    out = np.empty((len(t), p))
    hit = np.abs(diff) < polybasis._NODE_TOL
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


def _oracle_points(rng, d, degree):
    """Random points, the corners, the Gauss nodes of the Lagrange basis
    (on them and 1e-15 off them) and of one order more, in d dimensions."""
    nodes = tensor_gauss(degree, d)[0]
    return np.concatenate([rng.uniform(-1.0, 1.0, (7, d)),
                           np.array(list(itertools.product((-1.0, 1.0), repeat=d)),
                                    dtype=float).reshape(2**d, d),
                           nodes, nodes + 1e-15, tensor_gauss(degree + 1, d)[0]])


class TestProductRuleOracle:
    @pytest.mark.parametrize("degree", range(1, 7))
    @pytest.mark.parametrize("d", range(4))
    def test_tables_match_old_tabulation(self, rng, d, degree):
        x = _oracle_points(rng, d, degree)
        idx = tensor_indices(degree, d)
        _assert_same_bits(tensor_shape_eval.__wrapped__(x, idx),
                          _old_shape_eval(x, idx, degree))
        _assert_same_bits(tensor_shape_hessian.__wrapped__(x, idx),
                          _old_shape_hessian(x, idx, degree))
        lag = [(_old_lagrange_1d(degree, t), _old_lagrange_1d_deriv(degree, t))
               for t in x.T]
        _assert_same_bits(gauss_lagrange_tensor.__wrapped__(degree, x),
                          _old_tensor_product(len(x), [v for v, _ in lag],
                                              [dv for _, dv in lag],
                                              tensor_indices(degree - 1, d)))
        t = x.ravel() if d else tensor_gauss(degree, 1)[0].ravel()
        _assert_same_bits(gauss_lagrange_1d(degree, t),
                          (_old_lagrange_1d(degree, t),
                           _old_lagrange_1d_deriv(degree, t)))

    @pytest.mark.parametrize("d", range(1, 4))
    def test_larger_jmax_gave_the_same_tables(self, rng, d):
        # the 1D tables reach the largest index; a larger jmax, as callers
        # passed, only adds columns that no index picks, for full, partial
        # and vertex index sets
        x = _oracle_points(rng, d, 3)
        for idx in (tensor_indices(3, d), tensor_indices(3, d)[:-1],
                    tensor_indices(1, d), tensor_indices(2, d)[::3]):
            top = max(int(idx.max()), 1)
            for jmax in (top + 1, top + 4):
                _assert_same_bits(tensor_shape_eval.__wrapped__(x, idx),
                                  _old_shape_eval(x, idx, jmax))
                _assert_same_bits(tensor_shape_hessian.__wrapped__(x, idx),
                                  _old_shape_hessian(x, idx, jmax))

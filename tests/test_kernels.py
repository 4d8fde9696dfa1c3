"""The numpy kernels against independent formulations: numpy's Legendre
series, and plain loop sums of the defining formulas."""

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from hpfem import _kernels


def _points(rng):
    return np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1, 1, 40)])


def _unit(j):
    c = np.zeros(j + 1)
    c[j] = 1.0
    return c


def test_legendre_tables_agree(rng):
    t = _points(rng)
    jmax = 12
    val, der = _kernels.legendre_table(t, jmax)
    assert val.shape == der.shape == (len(t), jmax + 1)
    for j in range(jmax + 1):
        np.testing.assert_allclose(val[:, j], npleg.legval(t, _unit(j)),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(der[:, j], npleg.legval(t, npleg.legder(_unit(j))),
                                   rtol=0, atol=1e-12)


def test_shape_tables_agree(rng):
    t = _points(rng)
    jmax = 10
    val, der = _kernels.shape_table(t, jmax)
    assert val.shape == der.shape == (len(t), jmax + 1)
    np.testing.assert_allclose(val[:, 0], 0.5 * (1.0 - t), rtol=0, atol=1e-16)
    np.testing.assert_allclose(val[:, 1], 0.5 * (1.0 + t), rtol=0, atol=1e-16)
    np.testing.assert_allclose(der[:, :2], np.broadcast_to([-0.5, 0.5], (len(t), 2)),
                               rtol=0, atol=0)
    for j in range(2, jmax + 1):
        # psi_j = int_{-1}^t L_{j-1}, psi_j' = L_{j-1}
        integ = npleg.legint(_unit(j - 1), lbnd=-1.0)
        np.testing.assert_allclose(val[:, j], npleg.legval(t, integ),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(der[:, j], npleg.legval(t, _unit(j - 1)),
                                   rtol=0, atol=1e-14)
    # a smaller jmax gives the leading columns of the same table
    v4, d4 = _kernels.shape_table(t, 4)
    np.testing.assert_array_equal(v4, val[:, :5])
    np.testing.assert_array_equal(d4, der[:, :5])


# -- plain loop sums of the defining formulas -------------------------------

def _loop_scalar_stiffness(dphi, w):
    nq, nb, d = dphi.shape
    A = np.zeros((nb, nb))
    for q in range(nq):
        for i in range(nb):
            for j in range(nb):
                A[i, j] += w[q] * sum(dphi[q, i, k] * dphi[q, j, k] for k in range(d))
    return A


def _loop_mass_matrix(phi, w):
    nq, nb = phi.shape
    M = np.zeros((nb, nb))
    for q in range(nq):
        for i in range(nb):
            for j in range(nb):
                M[i, j] += w[q] * phi[q, i] * phi[q, j]
    return M


def _loop_load_vector(phi, w, f):
    nq, nb = phi.shape
    f2 = f.reshape(nq, -1)
    out = np.zeros((nb, f2.shape[1]))
    for q in range(nq):
        for i in range(nb):
            for k in range(f2.shape[1]):
                out[i, k] += w[q] * f2[q, k] * phi[q, i]
    return out.reshape((nb,) + f.shape[1:])


def _loop_elastic_stiffness(dphi, w, lam, mu):
    nq, nb, d = dphi.shape
    K = np.zeros((nb * d, nb * d))
    for q in range(nq):
        for b in range(nb):
            for bp in range(nb):
                lap = sum(dphi[q, b, n] * dphi[q, bp, n] for n in range(d))
                for k in range(d):
                    for l in range(d):
                        v = (lam * dphi[q, b, k] * dphi[q, bp, l]
                             + mu * dphi[q, b, l] * dphi[q, bp, k])
                        if k == l:
                            v += mu * lap
                        K[b * d + k, bp * d + l] += w[q] * v
    return K


def _loop_coupling_block(dphi, w, phiq, S):
    nq, nb, d = dphi.shape
    nm, L = phiq.shape[1], S.shape[0]
    B = np.zeros((nb * d, nm * L))
    for q in range(nq):
        for b in range(nb):
            for k in range(d):
                for l in range(L):
                    s = w[q] * sum(S[l, k, n] * dphi[q, b, n] for n in range(d))
                    for m in range(nm):
                        B[b * d + k, m * L + l] += s * phiq[q, m]
    return B


def test_matrix_kernels_agree(rng):
    for d, nq, nb in ((2, 9, 6), (3, 8, 5)):
        dphi = rng.standard_normal((nq, nb, d))
        w = rng.uniform(0.1, 1.0, nq)
        phi = rng.standard_normal((nq, nb))
        f1 = rng.standard_normal(nq)
        f2 = rng.standard_normal((nq, d))
        L = (d - 1) * (d + 2) // 2
        S = rng.standard_normal((L, d, d))
        phiq = rng.standard_normal((nq, 4))
        np.testing.assert_allclose(_kernels.scalar_stiffness(dphi, w),
                                   _loop_scalar_stiffness(dphi, w), atol=1e-13)
        np.testing.assert_allclose(_kernels.mass_matrix(phi, w),
                                   _loop_mass_matrix(phi, w), atol=1e-13)
        for f in (f1, f2):
            out = _kernels.load_vector(phi, w, f)
            assert out.shape == (nb,) + f.shape[1:]
            np.testing.assert_allclose(out, _loop_load_vector(phi, w, f), atol=1e-13)
        np.testing.assert_allclose(_kernels.elastic_stiffness(dphi, w, 1.3, 0.7),
                                   _loop_elastic_stiffness(dphi, w, 1.3, 0.7),
                                   atol=1e-12)
        np.testing.assert_allclose(_kernels.coupling_block(dphi, w, phiq, S),
                                   _loop_coupling_block(dphi, w, phiq, S),
                                   atol=1e-12)


def _loop_chi_blocks(p, lam, sigma, rho):
    N, L = p.shape
    chi = np.empty((N, L))
    dp = np.zeros((N, L, L))
    dl = np.zeros((N, L, L))
    for i in range(N):
        w = [lam[i, a] + rho * p[i, a] for a in range(L)]
        nw = sum(v * v for v in w) ** 0.5
        m = max(nw, sigma[i])
        for a in range(L):
            chi[i, a] = m * lam[i, a] - sigma[i] * w[a]
        for a in range(L):
            if nw >= sigma[i]:  # active branch, also at the kink
                for b in range(L):
                    dl[i, a, b] = lam[i, a] * w[b] / nw
                    dp[i, a, b] = rho * lam[i, a] * w[b] / nw
                dl[i, a, a] += nw - sigma[i]
            dp[i, a, a] -= sigma[i] * rho
    return chi, dp, dl


@pytest.mark.parametrize("L", [2, 5])
def test_chi_kernels_agree(rng, L):
    N = 300
    p = rng.standard_normal((N, L))
    lam = rng.standard_normal((N, L))
    sigma = rng.uniform(0.2, 2.0, N)
    for rho in (0.01, 1.0, 50.0):
        got = _kernels.chi_blocks(p, lam, sigma, rho)
        for a, b in zip(got, _loop_chi_blocks(p, lam, sigma, rho)):
            np.testing.assert_allclose(a, b, atol=1e-12)
        chi, dp, dl = _kernels.chi_blocks(p, lam, sigma, rho, want_jacobian=False)
        np.testing.assert_array_equal(chi, got[0])
        assert dp is None and dl is None

"""The hot evaluation/assembly kernels, in numpy.

Every contraction is a fixed reshape followed by one matrix product, so the
per-call cost stays small for the element-sized arrays these run on.
"""

import numpy as np


def _legendre_values(t, jmax):
    """L_0..L_jmax at the points t (contiguous float64), shape (m, jmax+1)."""
    val = np.empty((t.shape[0], jmax + 1))
    val[:, 0] = 1.0
    if jmax >= 1:
        val[:, 1] = t
    for j in range(2, jmax + 1):
        val[:, j] = ((2 * j - 1) * t * val[:, j - 1] - (j - 1) * val[:, j - 2]) / j
    return val


def legendre_table(t, jmax):
    """Legendre values/derivatives L_0..L_jmax at the points t, shape (m, jmax+1)."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    val = _legendre_values(t, jmax)
    der = np.empty_like(val)
    der[:, 0] = 0.0
    if jmax >= 1:
        der[:, 1] = 1.0
    for j in range(2, jmax + 1):
        # L_j' = L_{j-2}' + (2j-1) L_{j-1}, stable at t = +-1
        der[:, j] = der[:, j - 2] + (2 * j - 1) * val[:, j - 1]
    return val, der


def shape_table(t, jmax):
    """1D shape functions at t: vertex (1-t)/2, (1+t)/2, then integrated-Legendre
    bubbles psi_j = (L_j - L_{j-2}) / (2j - 1) with psi_j' = L_{j-1}."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    m = t.shape[0]
    val = np.empty((m, jmax + 1))
    der = np.empty((m, jmax + 1))
    val[:, 0] = 0.5 * (1.0 - t)
    der[:, 0] = -0.5
    if jmax >= 1:
        val[:, 1] = 0.5 * (1.0 + t)
        der[:, 1] = 0.5
    if jmax >= 2:
        lv = _legendre_values(t, jmax)
        val[:, 2:] = (lv[:, 2:] - lv[:, :-2]) / (2 * np.arange(2, jmax + 1) - 1)
        der[:, 2:] = lv[:, 1:-1]
    return val, der


def scalar_stiffness(dphi, w):
    """sum_q w_q grad(phi_i) . grad(phi_j); dphi has shape (nq, nb, d)."""
    nq, nb, d = dphi.shape
    G = dphi.transpose(1, 0, 2).reshape(nb, nq * d)
    return (G * np.repeat(w, d)) @ G.T


def mass_matrix(phi, w):
    """sum_q w_q phi_i phi_j; phi has shape (nq, nb)."""
    return (phi.T * w) @ phi


def load_vector(phi, w, f):
    """sum_q w_q f_q phi_i; f has shape (nq,) or (nq, d) -> result (nb,) or (nb, d)."""
    if f.ndim == 1:
        return phi.T @ (w * f)
    return phi.T @ (w[:, None] * f)


def elastic_stiffness(dphi, w, lam, mu):
    """Local isotropic elasticity stiffness, interleaved dof order (node, component).

    Entry [(b,k),(b',l)] = sum_q w [lam d_k phi_b d_l phi_b'
        + mu (delta_kl grad phi_b . grad phi_b' + d_l phi_b d_k phi_b')].
    """
    nq, nb, d = dphi.shape
    X = dphi.reshape(nq, nb * d)
    # g[b, k, b', l] = sum_q w_q d_k phi_b d_l phi_b'
    g = ((X.T * w) @ X).reshape(nb, d, nb, d)
    K = lam * g + mu * g.transpose(0, 3, 2, 1)
    lap = mu * np.trace(g, axis1=1, axis2=3)
    for k in range(d):
        K[:, k, :, k] += lap
    return K.reshape(nb * d, nb * d)


def coupling_block(dphi, w, phiq, S):
    """Plastic-strain/displacement coupling block, rows (b,k) cols (m,l).

    Entry = sum_q w_q phiq_{q,m} sum_n S[l,k,n] dphi[q,b,n]; S[l] is the
    (constant) stress response of the l-th deviatoric basis matrix.
    """
    nq, nb, d = dphi.shape
    nm = phiq.shape[1]
    L = S.shape[0]
    # H[b, n, m] = sum_q w_q dphi[q, b, n] phiq[q, m]
    H = dphi.reshape(nq, nb * d).T @ (w[:, None] * phiq)
    H = H.reshape(nb, d, nm).transpose(0, 2, 1).reshape(nb * nm, d)
    # B[b, m, k, l] = sum_n H[b, n, m] S[l, k, n]
    B = (H @ S.transpose(2, 1, 0).reshape(d, d * L)).reshape(nb, nm, d, L)
    return B.transpose(0, 2, 1, 3).reshape(nb * d, nm * L)


def chi_blocks(p, lam, sigma, rho, want_jacobian=True):
    """Decoupled plastic complementarity residual and its Clarke-element blocks.

    p, lam: (N, L) coefficient rows; sigma: (N,). Returns chi (N, L) and, when
    requested, dchi/dp, dchi/dlam of shape (N, L, L). At the kink the active
    (norm) branch is selected.
    """
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    N, L = p.shape
    w = lam + rho * p
    nw = np.linalg.norm(w, axis=1)
    m = np.maximum(sigma, nw)
    chi = m[:, None] * lam - sigma[:, None] * w
    if not want_jacobian:
        return chi, None, None
    active = nw >= sigma
    eye = np.eye(L)
    dp = np.empty((N, L, L))
    dl = np.empty((N, L, L))
    dp[:] = -(sigma * rho)[:, None, None] * eye
    dl[:] = 0.0
    if np.any(active):
        wa = w[active]
        nwa = nw[active][:, None]
        what = wa / nwa
        outer = lam[active][:, :, None] * what[:, None, :]
        dl[active] = (nw[active] - sigma[active])[:, None, None] * eye + outer
        dp[active] += rho * outer
    return chi, dp, dl

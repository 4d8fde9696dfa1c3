"""The hot evaluation/assembly kernels, in numpy.

Every contraction is a fixed reshape followed by one matrix product. The
element-matrix kernels take optional leading element axes, so that assembly
calls each of them once per group of elements of equal degree.

The sparse kernels at the end run scipy's compiled CSR kernels on the CSR
arrays (indptr, indices, data) of their operands, without scipy's matrix
objects: on the small systems of an adaptive loop, the index-dtype checks,
copies and validation around each product, sum and lookup cost more than
the kernels. They give the arrays the matrix operations give.
"""

import math

import numpy as np
from scipy.sparse import _sparsetools


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
    """sum_q w_q grad(phi_i) . grad(phi_j); dphi has shape (..., nq, nb, d)
    and w (..., nq), with optional leading element axes."""
    *lead, nq, nb, d = dphi.shape
    G = np.swapaxes(dphi, -3, -2).reshape(*lead, nb, nq * d)
    return (G * np.repeat(w, d, axis=-1)[..., None, :]) @ np.swapaxes(G, -1, -2)


def affine_stiffness(geo, T):
    """Poisson stiffness (n, nb, nb) of n affine elements from their geometry
    factors geo (n, d^2), the flattened det J (J^-1 J^-T), and the reference
    tensor T (d^2, nb^2) of `polybasis.stiffness_tensor`."""
    nb = math.isqrt(T.shape[1])
    return (geo @ T).reshape(len(geo), nb, nb)


def mass_matrix(phi, w):
    """sum_q w_q phi_i phi_j; phi has shape (nq, nb), or (..., nq, nb) like
    the weights w (..., nq)."""
    return (np.swapaxes(phi, -1, -2) * w[..., None, :]) @ phi


def load_vector(phi, w, f):
    """sum_q w_q f_q phi_i; phi has shape (nq, nb), w (..., nq) and f (..., nq)
    or (..., nq, k) -> result (..., nb) or (..., nb, k)."""
    if f.ndim == w.ndim:
        return (w * f) @ phi
    return np.swapaxes(phi, -1, -2) @ (w[..., None] * f)


def elastic_stiffness(dphi, w, lam, mu):
    """Local isotropic elasticity stiffness, interleaved dof order (node, component),
    with optional leading element axes on dphi (..., nq, nb, d) and w (..., nq).

    Entry [(b,k),(b',l)] = sum_q w [lam d_k phi_b d_l phi_b'
        + mu (delta_kl grad phi_b . grad phi_b' + d_l phi_b d_k phi_b')].
    """
    *lead, nq, nb, d = dphi.shape
    X = dphi.reshape(*lead, nq, nb * d)
    # g[b, k, b', l] = sum_q w_q d_k phi_b d_l phi_b'
    g = ((np.swapaxes(X, -1, -2) * w[..., None, :]) @ X).reshape(
        *lead, nb, d, nb, d)
    K = lam * g + mu * np.swapaxes(g, -3, -1)
    lap = mu * np.trace(g, axis1=-3, axis2=-1)
    for k in range(d):
        K[..., :, k, :, k] += lap
    return K.reshape(*lead, nb * d, nb * d)


def coupling_block(dphi, w, phiq, S):
    """Plastic-strain/displacement coupling block, rows (b,k) cols (m,l), with
    optional leading element axes on dphi (..., nq, nb, d) and w (..., nq).

    Entry = sum_q w_q phiq_{q,m} sum_n S[l,k,n] dphi[q,b,n]; S[l] is the
    (constant) stress response of the l-th deviatoric basis matrix.
    """
    *lead, nq, nb, d = dphi.shape
    nm = phiq.shape[-1]
    L = S.shape[0]
    # H[b, n, m] = sum_q w_q dphi[q, b, n] phiq[q, m]
    H = np.swapaxes(dphi.reshape(*lead, nq, nb * d), -1, -2) @ (w[..., None] * phiq)
    H = np.swapaxes(H.reshape(*lead, nb, d, nm), -1, -2).reshape(*lead, nb * nm, d)
    # B[b, m, k, l] = sum_n H[b, n, m] S[l, k, n]
    B = (H @ S.transpose(2, 1, 0).reshape(d, d * L)).reshape(*lead, nb, nm, d, L)
    return np.swapaxes(B, -3, -2).reshape(*lead, nb * d, nm * L)


def chi_blocks(p, lam, sigma, rho):
    """Decoupled plastic complementarity residual chi (N, L) of coefficient
    rows p, lam (N, L) with bounds sigma (N,):
    chi = max(sigma, |lam + rho p|) lam - sigma (lam + rho p), row by row."""
    p = np.asarray(p, dtype=float)
    lam = np.asarray(lam, dtype=float)
    w = lam + rho * p
    m = np.maximum(sigma, np.linalg.norm(w, axis=1))
    return m[:, None] * lam - sigma[:, None] * w


# ---------------------------------------------------------------------------
# sparse kernels on CSR arrays
# ---------------------------------------------------------------------------

def _indptr(counts):
    """CSR row pointers of rows with counts entries."""
    return np.concatenate([[0], np.cumsum(counts)])


def _ranges(starts, counts):
    """The ranges starts[i] .. starts[i] + counts[i] - 1, concatenated."""
    ends = np.cumsum(counts)
    total = ends[-1] if ends.size else 0
    return np.repeat(starts + counts - ends, counts) + np.arange(total)


def _index_arrays(arrays, bound):
    """The index arrays in one dtype: int32 unless one of them is int64 or
    bound, a count of entries, needs int64, as scipy chooses."""
    idx = np.result_type(np.int32, *arrays)
    if bound > np.iinfo(np.int32).max:
        idx = np.int64
    return idx, [np.asarray(x, dtype=idx) for x in arrays]


def _trimmed(indptr, indices, data):
    """The CSR arrays with indices and data cut to the entries indptr
    counts; copies when that is under half of them, as scipy's pruning does,
    so that a bound far above the count holds no memory."""
    nnz = indptr[-1]
    if nnz < len(indices) // 2:
        return indptr, indices[:nnz].copy(), data[:nnz].copy()
    return indptr, indices[:nnz], data[:nnz]


def csr_product(a, b, ncol):
    """a @ b, b with ncol columns: the kernel of scipy's product, so each
    entry sums its products from 0 in the order of a's row, and, as A @ B,
    the indices come unsorted and exact zeros are dropped."""
    n = len(a[0]) - 1
    _, ia = _index_arrays((a[0], a[1], b[0], b[1]), 0)
    nnz = _sparsetools.csr_matmat_maxnnz(n, ncol, *ia)
    idx, (ap, ai, bp, bi) = _index_arrays(ia, nnz)
    indptr = np.empty(n + 1, dtype=idx)
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz, dtype=np.result_type(a[2], b[2]))
    _sparsetools.csr_matmat(n, ncol, ap, ai, a[2], bp, bi, b[2], indptr, indices,
                            data)
    return _trimmed(indptr, indices, data)


def csr_sort(a):
    """Sorts the indices of each row of a in place, with their data, by the
    kernel A.sort_indices() runs."""
    _sparsetools.csr_sort_indices(len(a[0]) - 1, a[0], a[1], a[2])


def csr_transpose(a, ncol):
    """The transpose of a, with ncol columns, by scipy's conversion kernel:
    its rows' indices come sorted."""
    n = len(a[0]) - 1
    idx, (ap, ai) = _index_arrays((a[0], a[1]), max(len(a[1]), ncol))
    indptr = np.empty(ncol + 1, dtype=idx)
    indices = np.empty(len(ai), dtype=idx)
    data = np.empty(len(ai), dtype=a[2].dtype)
    _sparsetools.csr_tocsc(n, ncol, ap, ai, a[2], indptr, indices, data)
    return indptr, indices, data


def csr_sum(a, b, ncol):
    """a + b, with ncol columns, by the kernel of scipy's sum: as A + B,
    the rows come sorted when both operands' are, and exact zeros are
    dropped."""
    n = len(a[0]) - 1
    idx, (ap, ai, bp, bi) = _index_arrays((a[0], a[1], b[0], b[1]),
                                          len(a[1]) + len(b[1]))
    indptr = np.empty(n + 1, dtype=idx)
    indices = np.empty(len(ai) + len(bi), dtype=idx)
    data = np.empty(len(indices), dtype=np.result_type(a[2], b[2]))
    _sparsetools.csr_plus_csr(n, ncol, ap, ai, a[2], bp, bi, b[2], indptr, indices,
                              data)
    return _trimmed(indptr, indices, data)


def csr_lookup(a, ncol, rows, cols, out):
    """out[...] = A[rows, cols] for A given by its CSR arrays, by the kernel
    A[rows, cols] runs once it has validated the indices, which are in range
    here by construction. rows and cols (shaped as out) take A's index
    dtype; out is contiguous, of A's data dtype."""
    _sparsetools.csr_sample_values(len(a[0]) - 1, ncol, a[0], a[1], a[2], rows.size,
                                   rows.ravel(), cols.ravel(), out.reshape(-1))

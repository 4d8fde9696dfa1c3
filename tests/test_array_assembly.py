"""Each plastic step's set-up formed from arrays, against the scipy paths it
replaced, kept here as test-local oracles, bit for bit (indptr, indices and
data with their dtypes, and rows whose indices strictly increase):

- `assemble_system`: K and B as the per-group Galerkin products, the first
  group's taken as it is and the later ones added in group order; B's blocks
  placed at their q columns instead of a product with the identity rows of
  the Gauss-point space; C block diagonal over the Gauss-point dofs; the
  loads scattered through P's arrays; D and l. The oracle starts each
  matrix from an empty one and adds every group's product to it, through
  the identity rows, and scatters the loads by the transposed rows.
- `assemble_scalar` and `gauss_mass_matrix` the same way.
- `element_groups`: one code per element instead of a row-wise unique.
- `_kernels.csr_product`, `csr_sort`, `csr_transpose` and `csr_sum` on CSR
  arrays: the arrays scipy's product, index sort, CSR transpose and sum
  give, with int32 and int64 indices, unsorted rows and exact zeros; and
  `csr_sum_duplicates` the arrays of scipy's `sum_duplicates()`.
- `ElementBlocks`: the pattern, K's scatter, the positions of the element
  products and every group's idx, C and B, against the construction through
  scipy's products, transposes and validated lookups.

The cases are the assembly-parity meshes (a 2D mesh with hanging nodes and
mixed degrees, the L-shape refined off-centre, a distorted non-affine mesh,
the cube with hanging faces) under volume and traction loads, the first
also with a material given by callbacks, and random refinements with random
degrees. Every assembly gathers the displacement rows of P once per
(degree, affinity) group, and a second one gives the same system.
"""
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (_mixed_loads, assembly_case, gauss_local_operator,
                      operator_matrix, random_refined_mesh, rows_increase,
                      scipy_matrix)
from hpfem import _kernels
from hpfem._kernels import (csr_product, csr_sort, csr_sum, csr_sum_duplicates,
                            csr_transpose)
from hpfem.assembly import (Loads, Material, QuadratureAccuracyWarning,
                            _stiffness_general, assemble_system, data_load,
                            element_groups, gauss_mass_matrix, group_quadrature)
from hpfem.elliptic import ScalarProblem, assemble_scalar, poisson_blocks
from hpfem.mesh import facet_measure, is_affine, map_jacobians, map_points
from hpfem.plasticity import ElementBlocks, Fields
from hpfem.polybasis import tensor_gauss, tensor_indices, tensor_shape_eval
from hpfem.space import (GaussPointSpace, ScalarSpace, deviatoric_basis,
                         deviatoric_dim, gauss_point_basis)

# ---------------------------------------------------------------------------
# the oracles: the scipy paths as they were
# ---------------------------------------------------------------------------


def element_groups_oracle(space, *keys):
    deg = space.mesh.degree[space.mesh.active_ids()]
    uniq, inv = np.unique(np.stack((deg,) + keys, axis=1), axis=0,
                          return_inverse=True)
    inv = inv.ravel()
    return {tuple(int(v) for v in key): np.nonzero(inv == j)[0]
            for j, key in enumerate(uniq)}


def galerkin_oracle(rows, blocks, cols=None):
    n, r, c = blocks.shape
    cols_at = np.broadcast_to(c * np.arange(n)[:, None, None] + np.arange(c),
                              blocks.shape)
    diag = sp.csr_matrix((blocks.ravel(), cols_at.ravel(),
                          np.arange(0, n * r * c + 1, c)), shape=(n * r, n * c))
    out = rows.T.tocsr() @ (diag @ (rows if cols is None else cols))
    out.sort_indices()
    return out


def boundary_load_oracle(space, corners, data, tags, ncomp=1):
    mesh = space.mesh
    d = mesh.dim
    act = mesh.active_ids()
    i, f = np.nonzero(np.isin(mesh.tags[act], list(tags)))
    key = mesh.degree[act][i] * 2 * d + f
    _, first = np.unique(key, return_index=True)
    out = np.zeros(ncomp * space.ndof)
    for k in key[np.sort(first)].tolist():
        (p, f), sel = divmod(k, 2 * d), i[key == k]
        t, wq = tensor_gauss(p + 2, d - 1)
        ref = mesh.facet_embed(f, t)
        dS, _ = facet_measure(map_jacobians(corners[sel], ref), f)
        V, _ = tensor_shape_eval(ref, tensor_indices(p, d))
        out += operator_matrix(space.local_operator(ncomp, sel)).T @ data_load(
            data, map_points(corners[sel], ref), wq * dS, V).ravel()
    return out


def gauss_mass_oracle(qspace, ncomp=1, coupling=None):
    coupling = np.eye(ncomp) if coupling is None else coupling
    M = sp.csr_matrix((ncomp * qspace.ndof, ncomp * qspace.ndof))
    for sel in element_groups_oracle(qspace).values():
        M += galerkin_oracle(gauss_local_operator(qspace, ncomp, sel),
                             np.kron(qspace.mass_blocks(sel), coupling))
    return M


def assemble_system_oracle(space, qspace, material, loads):
    mesh = space.mesh
    d = mesh.dim
    L = deviatoric_dim(d)
    Phi = deviatoric_basis(d)
    M = space.ndof
    N = qspace.ndof
    S = np.array([material.apply_elasticity(Phi[l]) for l in range(L)])
    G_CH = np.empty((L, L))
    for k in range(L):
        for l in range(L):
            G_CH[k, l] = float(np.tensordot(
                material.apply_elasticity(Phi[l]) + material.apply_hardening(Phi[l]),
                Phi[k]))
    act = np.array(mesh.active_ids())
    corners = mesh.corner_array(act)
    affine = is_affine(corners)
    K = sp.csr_matrix((d * M, d * M))
    B = sp.csr_matrix((d * M, L * N))
    C = sp.csr_matrix((L * N, L * N))
    lvec = np.zeros(d * M)
    for (p, aff), sel in element_groups_oracle(space, affine).items():
        pts, w, Jinv = group_quadrature(corners[sel], p + 2 - aff)
        idx = tensor_indices(p, d)
        _, G = tensor_shape_eval(pts, idx)
        dphi = G @ Jinv
        rows = operator_matrix(space.local_operator(d, sel))
        qrows = gauss_local_operator(qspace, L, sel)
        if material.elasticity is None:
            K += galerkin_oracle(rows, _kernels.elastic_stiffness(
                dphi, w, material.lam, material.mu))
        else:
            K += galerkin_oracle(rows, _stiffness_general(dphi, w, material))
        phiq = gauss_point_basis(p, pts)
        B += galerkin_oracle(rows, _kernels.coupling_block(dphi, w, phiq, S), qrows)
        C += galerkin_oracle(qrows, np.kron(qspace.mass_blocks(sel), G_CH))
        if loads.volume is not None:
            qpts, qw, _ = group_quadrature(corners[sel], p + 1 + loads.extra_order)
            V, _ = tensor_shape_eval(qpts, idx)
            lvec += rows.T @ data_load(loads.volume, map_points(corners[sel], qpts),
                                       qw, V).ravel()
    if loads.traction is not None:
        lvec += boundary_load_oracle(space, corners, loads.traction,
                                     loads.neumann_tags, d)
    return K, B, C, lvec


def assemble_scalar_oracle(space, problem):
    corners = space.mesh.corner_array(space.mesh.active_ids())
    A = sp.csr_matrix((space.ndof, space.ndof))
    b = np.zeros(space.ndof)
    for (p,), sel in element_groups_oracle(space).items():
        A_e, b_e = poisson_blocks(corners[sel], p, p + 1 + problem.extra_order,
                                  problem.volume)
        rows = operator_matrix(space.local_operator(1, sel))
        A += galerkin_oracle(rows, A_e)
        if problem.volume is not None:
            b += rows.T @ b_e.ravel()
    if problem.neumann is not None:
        b += boundary_load_oracle(space, corners, problem.neumann,
                                  problem.neumann_tags)
    return A, b


def element_blocks_oracle(system):
    """(indptr, indices, K scatter, positions, [(idx, C, B) per group]) of
    the ElementBlocks construction through scipy's products, transposes,
    row slicing and validated lookups."""
    L = system.L
    K, B, C = map(scipy_matrix, (system.K, system.B, system.C))
    n_q = C.shape[0]
    sizes = L * np.asarray(system.q_counts)
    starts = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(len(sizes)), sizes)
    crow = np.repeat(np.arange(n_q), np.diff(C.indptr))
    cblock = block[crow]
    reach = (sp.csr_matrix((np.ones(B.nnz), B.indices, B.indptr), shape=B.shape)
             @ sp.csr_matrix((np.ones(n_q), block, np.arange(n_q + 1)),
                             shape=(n_q, len(sizes)))).T.tocsr()
    count = np.diff(reach.indptr)
    pairs = reach.T @ reach
    pairs.sort_indices()
    pairs.data[:] = 0.5
    union = (sp.csc_matrix((pairs.data, pairs.indices, pairs.indptr),
                           shape=K.shape)
             + sp.csr_matrix((np.arange(1.0, K.nnz + 1), K.indices, K.indptr),
                             shape=K.shape).tocsc())
    nnz = union.nnz
    indptr = union.indptr.astype(np.int32, copy=False)
    indices = union.indices.astype(np.int32, copy=False)
    kmark = union.data.astype(np.int64) - 1
    members = [np.flatnonzero(sizes == n) for n in np.unique(sizes)]
    width = [int(count[m].max()) for m in members]
    onK = np.flatnonzero(kmark >= 0)
    posK = np.empty(K.nnz, dtype=np.int64)
    posK[kmark[onK]] = onK
    Kdata = np.bincount(posK, weights=K.data, minlength=nnz + 1)
    allpos = np.empty(sum(len(m) * r * r for m, r in zip(members, width)),
                      dtype=np.int64)
    where = sp.csr_matrix((np.arange(nnz, dtype=np.int32), indices, indptr),
                          shape=K.shape)
    at = 0
    groups = []
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
        rows = np.zeros((G, r), dtype=B.indices.dtype)
        rows[filled] = reach[m].indices
        Be = np.empty((G, r, n))
        Be[...] = np.asarray(B[np.repeat(rows, n, axis=1).ravel(),
                               np.tile(idx.astype(rows.dtype), r).ravel()]
                             ).reshape(G, r, n)
        Be[~filled] = 0.0
        pos = allpos[at:at + G * r * r].reshape(G, r, r)
        pos[...] = np.asarray(where[np.tile(rows, r).ravel(),
                                    np.repeat(rows, r, axis=1).ravel()]
                              ).reshape(G, r, r)
        pos[~(filled[:, :, None] & filled[:, None, :])] = nnz
        at += G * r * r
        groups.append((idx, Ce, Be))
    return indptr, indices, Kdata, allpos, groups


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------

def _callback_material():
    """Isotropic elasticity and hardening written as callbacks, so that the
    general stiffness and the callbacks' material terms run."""
    def elasticity(eps):
        tr = np.trace(eps, axis1=-2, axis2=-1)
        return 7.0 * tr[..., None, None] * np.eye(eps.shape[-1]) + 3.0 * eps

    return Material(lam=7.0, mu=1.5, hardening=1.0, yield_stress=0.35,
                    elasticity=elasticity, hardening_map=lambda q: 1.25 * q)


MIXED_CASES = ("square_hanging", "lshape", "distorted", "cube_hanging",
               "callbacks", "random0", "random1", "random2", "random3")


def mixed_case(name):
    """(space, qspace, material, loads, problem) of one case."""
    if name == "callbacks":
        space, qspace, _, loads, problem = assembly_case("square_hanging")
        return space, qspace, _callback_material(), loads, problem
    if name.startswith("random"):
        rng = np.random.default_rng(int(name[len("random"):]))
        m = random_refined_mesh(rng, n=3, max_degree=4, refinements=3,
                                dirichlet=True)
        volume, traction = _mixed_loads(2)
        material = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=0.35)
        problem = ScalarProblem(volume=lambda x: np.sin(x[:, 0]) + x[:, 1],
                                neumann=lambda x: x[:, 0] - 0.5)
        return (ScalarSpace(m), GaussPointSpace(m, material.yield_stress),
                material, Loads(volume=volume, traction=traction), problem)
    return assembly_case(name)


@pytest.fixture(params=MIXED_CASES)
def case(request):
    return mixed_case(request.param)


def _same_bits(have, want):
    have, want = np.asarray(have), np.asarray(want)
    assert have.dtype == want.dtype and have.shape == want.shape
    assert have.tobytes() == want.tobytes()


def _same_sparse(have, want):
    """A record against a record or CSR matrix: the same shape and arrays,
    and every row's indices strictly increasing."""
    assert have.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        _same_bits(getattr(have, attr), getattr(want, attr))
    assert rows_increase(have)


def _system(space, qspace, material, loads):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureAccuracyWarning)
        return assemble_system(space, qspace, material, loads)


# ---------------------------------------------------------------------------
# the tests
# ---------------------------------------------------------------------------

def test_element_groups_match_rowwise_unique(case):
    space, *_ = case
    rng = np.random.default_rng(1)
    n = len(space.mesh.active_ids())
    for keys in ((), (rng.random(n) < 0.5,), (rng.integers(-2, 3, n),
                                              rng.integers(0, 2, n))):
        have = element_groups(space, *keys)
        want = element_groups_oracle(space, *keys)
        assert list(have) == list(want)
        for key in want:
            _same_bits(have[key], want[key])


def test_mixed_system_matches_scipy_assembly(case):
    space, qspace, material, loads, _ = case
    if space.dim == 1:
        pytest.skip("the mixed problem has no plastic strain in 1D")
    system = _system(space, qspace, material, loads)
    K, B, C, lvec = assemble_system_oracle(space, qspace, material, loads)
    _same_sparse(system.K, K)
    _same_sparse(system.B, B)
    _same_sparse(system.C, C)
    _same_bits(system.l, lvec)
    _same_bits(system.D, np.repeat(qspace.weights, system.L))
    assert np.any(system.l != 0.0)


def test_scalar_system_matches_scipy_assembly(case):
    space, _, _, _, problem = case
    A, b = assemble_scalar(space, problem)
    A_ref, b_ref = assemble_scalar_oracle(space, problem)
    _same_sparse(A, A_ref)
    _same_bits(b, b_ref)


def test_gauss_mass_matrix_matches_scipy_products(case):
    _, qspace, *_ = case
    rng = np.random.default_rng(2)
    for ncomp in (1, 2, 5):
        _same_sparse(gauss_mass_matrix(qspace, ncomp),
                     gauss_mass_oracle(qspace, ncomp))
        # a coupling with exact zeros: they are dropped, as the products drop
        # them
        coupling = rng.standard_normal((ncomp, ncomp))
        coupling[::2, 1::2] = 0.0
        _same_sparse(gauss_mass_matrix(qspace, ncomp, coupling),
                     gauss_mass_oracle(qspace, ncomp, coupling))


def test_element_blocks_match_scipy_construction(case):
    space, qspace, material, loads, _ = case
    if space.dim == 1:
        pytest.skip("the mixed problem has no plastic strain in 1D")
    system = _system(space, qspace, material, loads)
    blocks = ElementBlocks(system)
    indptr, indices, Kdata, pos, groups = element_blocks_oracle(system)
    _same_bits(blocks._indptr, indptr)
    _same_bits(blocks._indices, indices)
    _same_bits(blocks._K, Kdata)
    _same_bits(blocks._pos, pos)
    assert len(blocks.groups) == len(groups)
    for grp, (idx, Ce, Be) in zip(blocks.groups, groups):
        _same_bits(grp.idx, idx)
        _same_bits(grp.C, Ce)
        _same_bits(grp.B, Be)


def test_second_assembly_gathers_no_operator_rows(monkeypatch):
    """Each mixed assembly gathers the displacement rows of each (degree,
    affinity) group once, and none for the loads; a second one on the same
    spaces gathers as many again and gives the same system."""
    space, qspace, material, loads, _ = mixed_case("lshape")
    built = []
    gather = ScalarSpace.local_operator

    def counted(self, *args):
        built.append(1)
        return gather(self, *args)

    monkeypatch.setattr(ScalarSpace, "local_operator", counted)
    first = _system(space, qspace, material, loads)
    groups = len(element_groups(space, is_affine(
        space.mesh.corner_array(space.mesh.active_ids()))))
    assert len(built) == groups
    again = _system(space, qspace, material, loads)
    assert len(built) == 2 * groups
    for key in ("K", "B", "C"):
        _same_sparse(getattr(again, key), getattr(first, key))
    _same_bits(again.l, first.l)


def test_degree_mismatch_raises():
    space, qspace, material, loads, _ = mixed_case("square_hanging")
    mesh = space.mesh
    act = mesh.active_ids()
    other = GaussPointSpace(mesh.with_degrees({act[0]: 4}), material.yield_stress)
    refined = GaussPointSpace(mesh.refine_element(act[-1]), material.yield_stress)
    u = np.zeros(space.dim * space.ndof)
    for qs in (other, refined):
        with pytest.raises(ValueError, match="same element degrees"):
            assemble_system(space, qs, material, loads)
        with pytest.raises(ValueError, match="same element degrees"):
            Fields(space, qs, material, u, np.zeros(2 * qs.ndof))


def _arrays(mat):
    return mat.indptr, mat.indices, mat.data


def _random_csr(rng, shape, idx):
    """A random CSR matrix with explicit zeros, unsorted rows and index
    dtype idx."""
    mat = sp.random(*shape, density=0.3, random_state=rng, format="csr")
    mat.data[::4] = 0.0
    mat.data[1::7] = -0.0
    for i in range(0, shape[0], 2):  # reverse every other row
        lo, hi = mat.indptr[i], mat.indptr[i + 1]
        mat.indices[lo:hi] = mat.indices[lo:hi][::-1].copy()
        mat.data[lo:hi] = mat.data[lo:hi][::-1].copy()
    mat.has_sorted_indices = False
    return sp.csr_matrix((mat.data, mat.indices.astype(idx), mat.indptr.astype(idx)),
                         shape=shape)


@pytest.mark.parametrize("idx", (np.int32, np.int64))
def test_csr_kernels_match_scipy(idx):
    rng = np.random.default_rng(4)
    a, b = _random_csr(rng, (13, 17), idx), _random_csr(rng, (17, 11), idx)
    c = _random_csr(rng, (13, 17), idx)
    for have, want in ((csr_product(_arrays(a), _arrays(b), 11), a @ b),
                       (csr_transpose(_arrays(a), 17), a.T.tocsr())):
        for h, w in zip(have, _arrays(want)):
            _same_bits(h, w)
    arrays = tuple(x.copy() for x in _arrays(a))
    csr_sort(arrays)
    a.sort_indices()
    for h, w in zip(arrays, _arrays(a)):
        _same_bits(h, w)
    c.sort_indices()
    for h, w in zip(csr_sum(_arrays(a), _arrays(c), 17), _arrays(a + c)):
        _same_bits(h, w)


@pytest.mark.parametrize("idx", (np.int32, np.int64))
def test_csr_sum_duplicates_matches_scipy(idx):
    """Sorted random rows with duplicate indices, empty rows and a row of
    one index only: merged in place, the arrays scipy's sum_duplicates()
    gives."""
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 9, 12)
    counts[[2, 7]] = 0
    counts[5] = 6
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(idx)
    indices = np.concatenate([np.sort(rng.integers(0, 6, n)) for n in counts])
    indices = indices.astype(idx)
    indices[indptr[5]:indptr[6]] = 4
    data = rng.standard_normal(len(indices))
    want = sp.csr_matrix((data.copy(), indices.copy(), indptr.copy()),
                         shape=(12, 6))
    # scipy's constructor narrows the index arrays: given back as they are
    want.indptr, want.indices = indptr.copy(), indices.copy()
    want.sum_duplicates()
    have = csr_sum_duplicates((indptr, indices, data), 6)
    assert have.shape == want.shape and have.nnz < len(indices)
    for h, w in zip(have, _arrays(want)):
        _same_bits(h, w)

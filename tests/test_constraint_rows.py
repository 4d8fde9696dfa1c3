"""The hanging-node constraint rows of `ScalarSpace`, formed in one pass per
(fine degree, coarse degree) group of interfaces, against the build with one
call per hanging interface that they replace, and their resolution with
numpy arrays against the one by scipy's sparse products, both kept here as
the oracles.

Every `space._constraint_rows` and `space._resolve_constraints` call of a
space build is checked: on every space-parity case, on meshes whose roots
differ in orientation, and on random 2D and 3D refinements with Dirichlet
facets, off-centre dividing points and hanging slots constrained to slots
that hang themselves (in 3D), the unresolved (slot, master slot,
coefficient) triples are equal bit for bit and in the same order, and so
are the arrays of the resolved operator T.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import hpfem.space as space_module
from conftest import ROTATED_CASES, rotated_roots_mesh, square_mesh
from hpfem.polybasis import tensor_indices
from hpfem.problems import cube_mesh, l_shape_mesh
from hpfem.space import _DROP, ScalarSpace, _restriction
from test_space_parity import SPACE_CASES, space_case


def constraint_rows_oracle(d, tab, hang, owner, slot, sign, in_degree, offsets,
                           deg):
    """The per-interface build, with the arguments of `_constraint_rows`:
    for each interface h that owns a hanging slot, in order, the coarse
    facet's in-degree shapes restricted to the fine facet, one 1D
    restriction per coarse facet axis, with slots and signs on both sides."""
    def facet_shapes(j, f):
        k, s = divmod(int(f), 2)
        idx = tensor_indices(int(deg[j]), d)
        on = np.nonzero(idx[:, k] == s)[0]
        return offsets[j] + on, np.delete(idx[on], k, axis=1)

    def rows(h):
        row = hang[h]
        i, j = tab.el[row], tab.nb[row]
        fine, t = facet_shapes(i, tab.facet[row])
        mine = owner[slot[fine]] == h
        fine, t = fine[mine], t[mine]
        coarse, m = facet_shapes(j, tab.nb_facet[row])
        keep = in_degree[slot[coarse]]
        coarse, m = coarse[keep], m[keep]
        p = int(max(deg[i], deg[j]))
        vals = sign[fine][:, None] * sign[coarse]
        for a, ((lo, hi), flip) in enumerate(zip(tab.nb_box[row].tolist(),
                                                 tab.flip[row].tolist())):
            R = _restriction(p, hi, lo) if flip else _restriction(p, lo, hi)
            vals = vals * R[m[None, :, a], t[:, tab.perm[row, a], None]]
        rr = np.repeat(slot[fine], len(coarse))
        cc = np.tile(slot[coarse], len(fine))
        keep = np.abs(vals.ravel()) > _DROP
        return rr[keep], cc[keep], vals.ravel()[keep]

    raw = [rows(h) for h in np.unique(owner[owner >= 0]).tolist()]
    return tuple(np.concatenate(part) for part in zip(*raw))


def resolve_oracle(R, T):
    """The resolution by scipy's sparse products: T with the rows of the
    slots R constrains set to R's rows times T, in dependency order,
    entries of magnitude at most _DROP dropped."""
    pending = np.unique(R.nonzero()[0])
    waiting = np.zeros(R.shape[0])
    waiting[pending] = 1.0
    while pending.size:
        blocked = abs(R[pending]) @ waiting > 0
        ready = pending[~blocked]
        if not ready.size:
            raise RuntimeError("cyclic hanging-node constraints")
        res = (R[ready] @ T).tocoo()
        keep = np.abs(res.data) > _DROP
        T = T + sp.csr_matrix((res.data[keep], (ready[res.row[keep]], res.col[keep])),
                              shape=T.shape)
        waiting[ready] = 0.0
        pending = pending[blocked]
    return T


def _same_bits(have, want):
    assert have.dtype == want.dtype and have.shape == want.shape
    assert have.tobytes() == want.tobytes()


@pytest.fixture
def checked(monkeypatch):
    """Check every `_constraint_rows` and `_resolve_constraints` call
    against its oracle; the list returned collects (number of triples,
    whether a master slot hangs itself) per call of the first."""
    calls = []
    rows, resolve = space_module._constraint_rows, space_module._resolve_constraints

    def compare_rows(*args):
        got = rows(*args)
        for have, want in zip(got, constraint_rows_oracle(*args)):
            _same_bits(have, want)
        calls.append((len(got[0]), bool(np.isin(got[1], got[0]).any())))
        return got

    def compare_resolve(R, T, ncol):
        got = resolve(R, T, ncol)
        n = len(T[0]) - 1
        want = resolve_oracle(sp.csr_matrix(R[::-1], shape=(n, n)),
                              sp.csr_matrix(T[::-1], shape=(n, ncol)))
        have = sp.csr_matrix(got[::-1], shape=(n, ncol))
        for attr in ("indptr", "indices", "data"):
            _same_bits(getattr(have, attr), getattr(want, attr))
        return got

    monkeypatch.setattr(space_module, "_constraint_rows", compare_rows)
    monkeypatch.setattr(space_module, "_resolve_constraints", compare_resolve)
    return calls


@pytest.mark.parametrize("case", SPACE_CASES)
def test_parity_cases_match_oracle(case, checked):
    space, _ = space_case(case)
    assert bool(checked) == bool(space.hanging_vertices())
    if case == "cube_nested":
        assert checked[0][1], "no master slot hangs itself"


@pytest.mark.parametrize("d, refine, degrees", ROTATED_CASES)
def test_rotated_roots_match_oracle(d, refine, degrees, checked):
    # hanging facets between roots of different orientation, where the
    # restriction runs along permuted and reversed axes
    ScalarSpace(rotated_roots_mesh(d, refine, degrees))
    assert checked and sum(n for n, _ in checked) > 0


def _random_mesh(d, seed):
    """Random refinements, a third of them off-centre, of a square, an
    L-shape or a cube mesh with a Dirichlet facet, skipping those that ask
    for a non-nested overlap, half of them of the finest elements, so that
    hanging nodes nest in 3D; random degrees 1-4."""
    rng = np.random.default_rng(seed)
    mesh = cube_mesh(2) if d == 3 else (square_mesh(2) if seed % 2 else l_shape_mesh())
    mesh.tag_boundary(lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
    for _ in range(6 if d == 2 else 4):
        act = np.array(mesh.active_ids())
        if rng.uniform() < 0.5:
            act = act[mesh.level[act] == mesh.level[act].max()]
        zhat = rng.uniform(-0.5, 0.5, d) if rng.uniform() < 0.33 else None
        refined = mesh.refine_element(int(rng.choice(act)), zhat)
        try:
            refined.facet_table()
        except ValueError:
            continue
        mesh = refined
    return mesh.with_degrees({e: int(rng.integers(1, 5)) for e in mesh.active_ids()})


@pytest.mark.parametrize("d", [2, 3])
def test_random_refinements_match_oracle(d, checked):
    for seed in range(10):
        ScalarSpace(_random_mesh(d, seed))
    rows = [n for n, _ in checked]
    assert len(rows) >= 8 and sum(rows) > 0
    # in 2D the closure by level refines the coarse neighbor a master
    # vertex hangs on before anything hangs on that vertex; in 3D a master
    # on a coarse edge can hang
    if d == 3:
        assert any(nested for _, nested in checked), "no master slot hangs itself"

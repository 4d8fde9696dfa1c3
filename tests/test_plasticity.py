import re
import sys
import warnings
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import hpfem.plasticity as plasticity
from conftest import distorted_quad_mesh, random_refined_mesh, square_mesh
from hpfem._kernels import chi_blocks
from hpfem.assembly import (Loads, Material, MixedSystem,
                            QuadratureAccuracyWarning,
                            assemble_system, bilinear_value,
                            plastic_functional, total_energy)
from hpfem.plasticity import (ElementBlocks, NewtonConfig,
                              check_complementarity,
                              condensed_newton_step, default_rho,
                              elastic_solve, factorize,
                              in_admissible_gauss, in_admissible_weak,
                              infsup_ratio, recover_multiplier, residual,
                              solve_semismooth_newton)
from hpfem.problems import cube_mesh, plastic_square
from hpfem.space import GaussPointSpace, ScalarSpace, deviatoric_basis


def clarke_blocks(p, lam, sigma, rho):
    """The blocks dchi/dp and dchi/dlam (N, L, L) of one Clarke element of
    the rows chi of `_kernels.chi_blocks` at coefficient rows p, lam (N, L)
    with bounds sigma (N,); at the kink the active (norm) branch is
    selected. The Newton iteration differentiates the projection form
    instead; these blocks are the oracle of the condensed step."""
    N, L = p.shape
    w = lam + rho * p
    nw = np.linalg.norm(w, axis=1)
    active = nw >= sigma
    eye = np.eye(L)
    dp = np.empty((N, L, L))
    dl = np.empty((N, L, L))
    dp[:] = -(sigma * rho)[:, None, None] * eye
    dl[:] = 0.0
    if np.any(active):
        what = w[active] / nw[active][:, None]
        outer = lam[active][:, :, None] * what[:, None, :]
        dl[active] = (nw[active] - sigma[active])[:, None, None] * eye + outer
        dp[active] += rho * outer
    return dp, dl


def generalized_jacobian(system, qspace, p, lam, rho):
    """One Clarke element of the decoupled residual as a sparse matrix (the
    active branch is selected at the kink). The Newton iteration never builds
    it; it is the oracle of the condensed step."""
    L = system.L
    dp, dl = clarke_blocks(p.reshape(-1, L), lam.reshape(-1, L),
                           qspace.bounds, rho)
    n_u = system.K.shape[0]
    n_q = system.C.shape[0]
    N = n_q // L
    base = L * np.arange(N)[:, None, None]
    rows = np.broadcast_to(base + np.arange(L)[None, :, None], (N, L, L)).ravel()
    cols = np.broadcast_to(base + np.arange(L)[None, None, :], (N, L, L)).ravel()
    Jp = sp.csr_matrix((dp.ravel(), (rows, cols)), shape=(n_q, n_q))
    Jl = sp.csr_matrix((dl.ravel(), (rows, cols)), shape=(n_q, n_q))
    Z = sp.csr_matrix((n_u, n_q))
    return sp.bmat([
        [system.K, -system.B, Z],
        [-system.B.T, system.C, sp.diags(system.D)],
        [Z.T, Jp, Jl],
    ], format="csc")


def chi(p_i, lam_i, sigma_i, rho):
    """Per-dof complementarity residual on trace-free symmetric matrices, the
    scalar reference of `_kernels.chi_blocks`.

    chi = max(sigma_i, |lam_i + rho p_i|_F) lam_i - sigma_i (lam_i + rho p_i);
    it vanishes exactly when |lam_i|_F <= sigma_i and lam_i : p_i = sigma_i |p_i|_F.
    """
    p_i = np.asarray(p_i, dtype=float)
    lam_i = np.asarray(lam_i, dtype=float)
    w = lam_i + rho * p_i
    m = max(sigma_i, float(np.linalg.norm(w)))
    return m * lam_i - sigma_i * w


def complementarity_predicate(p, lam, sigma, tol=1e-10):
    return (np.linalg.norm(lam) <= sigma + tol
            and abs(float(np.tensordot(lam, p)) - sigma * np.linalg.norm(p)) <= tol)


class TestChi:
    def test_zero_plastic_feasible(self):
        Phi = deviatoric_basis(2)
        lam = 0.4 * Phi[0]
        assert np.abs(chi(0 * lam, lam, 1.0, 2.0)).max() < 1e-15

    def test_nonzero_outside(self):
        Phi = deviatoric_basis(2)
        p = 2.0 * Phi[1]
        val = chi(p, 0 * p, 1.0, 1.0)  # rho |p| > sigma
        np.testing.assert_allclose(val, -1.0 * 1.0 * p, atol=1e-15)

    def test_equivalence_sweep(self, rng):
        # sign pattern of |chi| agrees with the complementarity predicate
        n = 4000
        samples = _chi_samples(rng, n, d=2)
        for p, lam, sigma, rho in samples:
            c = chi(p, lam, sigma, rho)
            pred = complementarity_predicate(p, lam, sigma)
            assert (np.linalg.norm(c) < 1e-10) == pred

    def test_coords_match_matrix_form(self, rng):
        Phi = deviatoric_basis(3)
        L = Phi.shape[0]
        for _ in range(50):
            pc = rng.standard_normal(L)
            lc = rng.standard_normal(L)
            sigma = float(rng.uniform(0.3, 2.0))
            rho = float(rng.uniform(0.1, 10.0))
            pm = np.einsum("l,lab->ab", pc, Phi)
            lm = np.einsum("l,lab->ab", lc, Phi)
            cm = chi(pm, lm, sigma, rho)
            cc = chi_blocks(pc[None, :], lc[None, :], np.array([sigma]), rho)
            np.testing.assert_allclose(np.einsum("l,lab->ab", cc[0], Phi), cm,
                                       atol=1e-13)


def _chi_samples(rng, n, d):
    Phi = deviatoric_basis(d)
    L = Phi.shape[0]
    out = []
    for i in range(n):
        sigma = float(rng.uniform(0.2, 2.0))
        rho = float(10.0 ** rng.uniform(-2, 2))
        kind = i % 3
        if kind == 0:  # generic
            p = np.einsum("l,lab->ab", rng.standard_normal(L), Phi)
            lam = np.einsum("l,lab->ab", rng.standard_normal(L), Phi)
        elif kind == 1:  # elastic feasible: p = 0, |lam| < sigma
            lam = np.einsum("l,lab->ab", rng.standard_normal(L), Phi)
            lam *= rng.uniform(0.0, 0.95) * sigma / max(np.linalg.norm(lam), 1e-30)
            p = 0.0 * lam
        else:  # plastic feasible: |lam| = sigma, p = c lam
            lam = np.einsum("l,lab->ab", rng.standard_normal(L), Phi)
            lam *= sigma / max(np.linalg.norm(lam), 1e-30)
            p = float(rng.uniform(0.05, 2.0)) / sigma * lam
        out.append((p, lam, sigma, rho))
    return out


class TestGeneralizedJacobian:
    def _system(self, rng):
        m = square_mesh(2, degree=1,
                        tagger=lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
        mat = Material(lam=1.0, mu=1.0, hardening=0.5, yield_stress=0.5)
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, mat.yield_stress)
        system = assemble_system(space, qs, mat, Loads())
        return system, qs

    def test_interior_branch_blocks(self, rng):
        dp, dl = clarke_blocks(np.zeros((3, 2)), 0.1 * np.ones((3, 2)),
                               np.ones(3), 2.5)
        for i in range(3):
            np.testing.assert_allclose(dp[i], -2.5 * np.eye(2), atol=1e-15)
            np.testing.assert_allclose(dl[i], 0.0, atol=1e-15)

    def test_active_branch_fd(self, rng):
        # directional derivatives match central differences away from the kink
        L = 2
        h = 1e-6
        for _ in range(20):
            p = rng.standard_normal(L)
            lam = rng.standard_normal(L)
            sigma = 0.3
            rho = 1.7
            w = lam + rho * p
            if np.linalg.norm(w) < sigma + 0.1:
                p *= (sigma + 0.5) / np.linalg.norm(w)
            dp, dl = clarke_blocks(p[None], lam[None], np.array([sigma]), rho)
            for a in range(L):
                e = np.zeros(L)
                e[a] = h
                cp = chi_blocks((p + e)[None], lam[None], np.array([sigma]), rho)
                cm = chi_blocks((p - e)[None], lam[None], np.array([sigma]), rho)
                np.testing.assert_allclose(dp[0][:, a], (cp - cm)[0] / (2 * h),
                                           atol=1e-5)
                cp = chi_blocks(p[None], (lam + e)[None], np.array([sigma]), rho)
                cm = chi_blocks(p[None], (lam - e)[None], np.array([sigma]), rho)
                np.testing.assert_allclose(dl[0][:, a], (cp - cm)[0] / (2 * h),
                                           atol=1e-5)

    def test_kink_selects_active_branch(self):
        # |lam + rho p| exactly sigma: blocks equal the active-branch formulas
        sigma, rho = 1.0, 2.0
        lam = np.array([sigma, 0.0])
        p = np.zeros(2)
        dp, dl = clarke_blocks(p[None], lam[None], np.array([sigma]), rho)
        what = np.array([1.0, 0.0])
        proj_active_dl = (np.linalg.norm(lam) - sigma) * np.eye(2) \
            + np.outer(lam, what)
        np.testing.assert_allclose(dl[0], proj_active_dl, atol=1e-14)
        np.testing.assert_allclose(dp[0], rho * np.outer(lam, what)
                                   - sigma * rho * np.eye(2), atol=1e-14)

    def test_sparse_assembly_shapes(self, rng):
        system, qs = self._system(rng)
        n = system.K.shape[0] + 2 * system.C.shape[0]
        H = generalized_jacobian(system, qs,
                                 rng.standard_normal(system.C.shape[0]),
                                 rng.standard_normal(system.C.shape[0]), 1.0)
        assert H.shape == (n, n)


def _benchmark(n=4, p=2, yield_stress=0.35):
    m = square_mesh(n, degree=p,
                    tagger=lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
    mat = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=yield_stress)

    def traction(x):
        out = np.zeros_like(x)
        on = np.abs(x[:, 0] - 1.0) < 1e-9
        out[on, 0] = 0.6
        out[on, 1] = 0.12
        return out

    loads = Loads(traction=traction)
    space = ScalarSpace(m)
    qs = GaussPointSpace(m, mat.yield_stress)
    system = assemble_system(space, qs, mat, loads)
    return m, mat, space, qs, system


class TestNewton:
    def test_elastic_regime_two_iterations(self):
        m, mat, space, qs, system = _benchmark(n=2, p=2, yield_stress=1e6)
        sol = solve_semismooth_newton(system, qs, NewtonConfig(rho=default_rho(
            Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=1e6))))
        assert sol.converged and sol.iterations <= 2
        assert np.abs(sol.p).max() < 1e-10
        np.testing.assert_allclose(sol.u, elastic_solve(system), atol=1e-10)

    def test_zero_data_zero_residual(self):
        m = square_mesh(1, degree=1, tagger=lambda c: "dirichlet")
        mat = Material()
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, 1.0)
        system = assemble_system(space, qs, mat, Loads())
        z = np.zeros(system.C.shape[0])
        F = residual(system, qs, np.zeros(system.K.shape[0]), z, z, 1.0)
        assert np.abs(F).max() == 0.0

    def test_plastic_solve_and_postconditions(self, rng):
        m, mat, space, qs, system = _benchmark()
        sol = solve_semismooth_newton(system, qs,
                                      NewtonConfig(rho=default_rho(mat)))
        assert sol.converged
        F = residual(system, qs, sol.u, sol.p, sol.lam, default_rho(mat))
        assert np.abs(F).max() < 1e-10
        rep = check_complementarity(qs, sol.p, sol.lam)
        assert rep.max_violation < 1e-9
        assert rep.n_plastic > 0 and rep.n_elastic > 0
        # feasibility |lam_i| <= sigma_i
        assert rep.feasibility.min() > -1e-10

    def test_variational_inequality_sampling(self, rng):
        m, mat, space, qs, system = _benchmark()
        sol = solve_semismooth_newton(system, qs,
                                      NewtonConfig(rho=default_rho(mat)))
        for _ in range(100):
            v = sol.u + rng.standard_normal(len(sol.u))
            q = sol.p + rng.standard_normal(len(sol.p))
            lhs = (bilinear_value(system, sol.u, sol.p, v - sol.u, q - sol.p)
                   + plastic_functional(qs, q) - plastic_functional(qs, sol.p))
            assert lhs - float(system.l @ (v - sol.u)) >= -1e-9

    def test_energy_minimization(self, rng):
        m, mat, space, qs, system = _benchmark(n=2)
        sol = solve_semismooth_newton(system, qs,
                                      NewtonConfig(rho=default_rho(mat)))
        E0 = total_energy(system, qs, sol.u, sol.p)
        for scale in (1e-3, 1e-1):
            for _ in range(25):
                du = rng.standard_normal(len(sol.u))
                dq = rng.standard_normal(len(sol.p))
                du *= scale / np.linalg.norm(du)
                dq *= scale / np.linalg.norm(dq)
                assert total_energy(system, qs, sol.u + du, sol.p + dq) >= E0 - 1e-12

    def test_rho_robustness(self):
        m, mat, space, qs, system = _benchmark(n=2, p=2)
        its = []
        for rho in (0.01, 1.0, 100.0):
            sol = solve_semismooth_newton(system, qs, NewtonConfig(rho=rho))
            assert sol.converged
            its.append(sol.iterations)
        assert max(its) - min(its) <= 2

    def test_superlinear_tail_reported(self, capsys):
        m, mat, space, qs, system = _benchmark()
        sol = solve_semismooth_newton(system, qs,
                                      NewtonConfig(rho=default_rho(mat)))
        tail = [row[1] for row in sol.trace[-4:]]
        ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
        print(f"superlinearity check: final residuals {tail}, ratios {ratios}")
        assert tail[-1] < 1e-10  # converged; ratios reported, not asserted

    def test_merit_decreases_over_run(self):
        m, mat, space, qs, system = _benchmark()
        sol = solve_semismooth_newton(system, qs,
                                      NewtonConfig(rho=default_rho(mat)))
        merits = [row[2] for row in sol.trace]
        assert merits[-1] < merits[0]
        # the convergent tail is monotone with full steps
        assert all(row[3] == 1.0 for row in sol.trace[-3:])
        assert merits[-1] <= merits[-2] <= merits[-3]

    def test_max_iter_returns_diagnostic(self):
        m, mat, space, qs, system = _benchmark()
        sol = solve_semismooth_newton(system, qs, NewtonConfig(rho=1.0, max_iter=1))
        assert not sol.converged
        assert sol.iterations == 1


# the package's own factorization, saved before any test replaces the seam
PACKAGE_SPLU = plasticity.spla.splu


class _FailingLinalg:
    """A stand-in for `plasticity.spla` whose splu raises for the first
    `failures` calls and then runs the package's own."""

    def __init__(self, failures):
        self.failures = failures

    def splu(self, A, *args, **kwargs):
        if self.failures:
            self.failures -= 1
            raise RuntimeError("Factor is exactly singular")
        return PACKAGE_SPLU(A, *args, **kwargs)


class TestRhoShiftRetry:
    def test_single_failure_is_retried_and_counted(self, monkeypatch):
        m, mat, space, qs, system = _benchmark()
        rho = default_rho(mat)
        assert solve_semismooth_newton(system, qs, NewtonConfig(rho=rho)).retries == 0
        # elastic_solve factorizes too: build the start before the failures
        zeros = np.zeros(system.C.shape[0])
        initial = (elastic_solve(system), zeros, zeros)
        monkeypatch.setattr(plasticity, "spla", _FailingLinalg(1))
        sol = solve_semismooth_newton(system, qs, NewtonConfig(rho=rho),
                                      initial=initial)
        assert sol.converged and sol.retries == 1
        F = residual(system, qs, sol.u, sol.p, sol.lam, 2.0 * rho + 1.0)
        assert np.abs(F).max() < 1e-10

    def test_failed_first_factorization_from_zero_is_retried(self, monkeypatch):
        # without `initial` the first factorization is the first step's,
        # inside the loop that retries
        m, mat, space, qs, system = _benchmark()
        monkeypatch.setattr(plasticity, "spla", _FailingLinalg(1))
        sol = solve_semismooth_newton(system, qs,
                                      NewtonConfig(rho=default_rho(mat)))
        assert sol.converged and sol.retries == 1

    def test_second_failure_raises(self, monkeypatch):
        m, mat, space, qs, system = _benchmark()
        zeros = np.zeros(system.C.shape[0])
        initial = (elastic_solve(system), zeros, zeros)
        monkeypatch.setattr(plasticity, "spla", _FailingLinalg(2))
        with pytest.raises(RuntimeError, match="singular"):
            solve_semismooth_newton(system, qs,
                                    NewtonConfig(rho=default_rho(mat)),
                                    initial=initial)


class TestFactorize:
    def test_symmetric_mode_on_a_newton_matrix(self, monkeypatch):
        mesh, mat, loads = plastic_square(n=8, degree=3)
        qs = GaussPointSpace(mesh, mat.yield_stress)
        system = assemble_system(ScalarSpace(mesh), qs, mat, loads)
        seen = []

        class Recorder(_FailingLinalg):
            def splu(self, A, *args, **kwargs):
                seen.append((A, kwargs))
                return super().splu(A, *args, **kwargs)

        monkeypatch.setattr(plasticity, "spla", Recorder(0))
        sol = solve_semismooth_newton(system, qs,
                                      NewtonConfig(rho=default_rho(mat)))
        monkeypatch.undo()
        # one factorization per Newton step: the first, from zero with an
        # empty active set, is of K itself
        assert sol.converged and len(seen) == sol.iterations
        assert all(kw["options"] == dict(SymmetricMode=True) for _, kw in seen)
        A = seen[-1][0]
        b = np.random.default_rng(11).standard_normal(A.shape[0])
        lu = factorize(A)
        ref = spla.spsolve(sp.csc_matrix(A), b)
        assert np.abs(lu.solve(b) - ref).max() <= 1e-12 * np.abs(ref).max()
        # diagonal pivots only, and minimum-degree fill: COLAMD with partial
        # pivoting (SuperLU's default) fills three times as much here
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
        default = spla.splu(sp.csc_matrix(A))
        assert lu.L.nnz + lu.U.nnz <= 0.5 * (default.L.nnz + default.U.nnz)
        singular = A.tolil()
        singular[0, :] = 0.0
        singular[:, 0] = 0.0
        with pytest.raises(RuntimeError, match="singular"):
            factorize(singular)

    def test_one_factorization_per_step_from_an_active_start(self, monkeypatch):
        m, mat, space, qs, system = _benchmark()
        n_q = system.C.shape[0]
        rng = np.random.default_rng(5)
        initial = (elastic_solve(system), 0.01 * rng.standard_normal(n_q),
                   qs.yield_stress * rng.standard_normal(n_q))
        calls = []

        class Counter(_FailingLinalg):
            def splu(self, A, *args, **kwargs):
                calls.append(A.shape)
                return super().splu(A, *args, **kwargs)

        monkeypatch.setattr(plasticity, "spla", Counter(0))
        sol = solve_semismooth_newton(system, qs,
                                      NewtonConfig(rho=default_rho(mat)),
                                      initial=initial)
        assert sol.converged and sol.trace[0][4] > 0
        assert len(calls) == sol.iterations


def _hex_hanging_mesh():
    mesh = cube_mesh(n=2, degree=2).refine_element(0)
    return mesh.tag_boundary(
        lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")


def _distorted_mesh():
    return distorted_quad_mesh(degree=2).tag_boundary(
        lambda c: "dirichlet" if c[0] < 0.01 else "neumann")


CONDENSATION_MESHES = {
    "square-p1": lambda: plastic_square(n=2, degree=1)[0],
    "square-p2": lambda: plastic_square(n=2, degree=2)[0],
    "square-p3": lambda: plastic_square(n=2, degree=3)[0],
    "distorted-p2": _distorted_mesh,
    "hex-hanging-p2": _hex_hanging_mesh,
}


# on plastic_square(n=4, degree=2), 192 entries of B X B^T lie outside K's
# pattern, which drops K's exact zeros
SCATTER_MESHES = {**CONDENSATION_MESHES,
                  "square-n4-p2": lambda: plastic_square(n=4, degree=2)[0]}


@lru_cache(maxsize=None)
def _condensation_case(name):
    """The system, its Gauss-point space and one ElementBlocks, shared by the
    tests: its first factorization reorders the blocks, so a test that reads
    the condensed matrix in the unknowns' order builds its own."""
    mesh = SCATTER_MESHES[name]()
    mat = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=0.35)
    qs = GaussPointSpace(mesh, mat.yield_stress)
    with warnings.catch_warnings():  # expected on the distorted mesh
        warnings.simplefilter("ignore", QuadratureAccuracyWarning)
        system = assemble_system(ScalarSpace(mesh), qs, mat, Loads())
    return system, qs, ElementBlocks(system)


def _mixed_rows(rng, N, L, sigma, rho):
    """(p, lam) rows with inactive (|lam + rho p| < sigma), active (> sigma)
    and exact-kink (p = 0, lam = +-sigma e_k) rows, each kind present."""
    kind = rng.permutation(np.arange(N) % 3)
    p = rng.standard_normal((N, L))
    w = rng.standard_normal((N, L))
    radius = np.where(kind == 0, rng.uniform(0.05, 0.95, N),
                      rng.uniform(1.05, 3.0, N)) * sigma
    w *= (radius / np.linalg.norm(w, axis=1))[:, None]
    lam = w - rho * p
    kink = np.flatnonzero(kind == 2)
    p[kink] = 0.0
    lam[kink] = 0.0
    lam[kink, rng.integers(L, size=len(kink))] = \
        sigma[kink] * rng.choice([-1.0, 1.0], size=len(kink))
    return p.ravel(), lam.ravel()


class TestProjectionRows:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), L=st.sampled_from([2, 5]),
           rho=st.sampled_from([0.01, 1.0, 100.0]))
    def test_chi_rows_and_zero_set(self, seed, L, rho):
        rng = np.random.default_rng(seed)
        N = 60
        sigma = rng.uniform(0.2, 2.0, N)
        p, lam = (v.reshape(N, L) for v in _mixed_rows(rng, N, L, sigma, rho))
        pi, ch, _, _, act = plasticity._projection_rows(p, lam, sigma, rho)
        ref = chi_blocks(p, lam, sigma, rho)
        np.testing.assert_array_equal(ch, ref)
        nw = np.linalg.norm(lam + rho * p, axis=1)
        np.testing.assert_array_equal(act, nw >= sigma)
        # chi_i = max(sigma_i, |w_i|) pi_i: both vanish on the same rows
        np.testing.assert_allclose(ch, np.maximum(sigma, nw)[:, None] * pi,
                                   atol=1e-12 * max(1.0, rho))


class TestCondensedStep:
    @pytest.mark.parametrize("name", sorted(CONDENSATION_MESHES))
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rho=st.sampled_from([0.01, 1.0, 100.0]))
    def test_matches_full_jacobian_solve(self, name, seed, rho):
        system, qs, blocks = _condensation_case(name)
        rng = np.random.default_rng(seed)
        L = system.L
        p, lam = _mixed_rows(rng, qs.ndof, L, qs.bounds, rho)
        u = rng.standard_normal(system.K.shape[0])
        F = residual(system, qs, u, p, lam, rho)
        dp, dl = clarke_blocks(p.reshape(-1, L), lam.reshape(-1, L), qs.bounds,
                               rho)
        step = condensed_newton_step(blocks, dp, dl, F)
        full = np.linalg.solve(
            generalized_jacobian(system, qs, p, lam, rho).toarray(), -F)
        assert np.abs(step - full).max() <= 1e-9 * np.abs(full).max()

    def test_condensed_matrix_is_displacement_sized_and_symmetric(self, monkeypatch):
        system, qs, _ = _condensation_case("hex-hanging-p2")
        blocks = ElementBlocks(system)  # the cached blocks may be reordered
        rng = np.random.default_rng(3)
        L = system.L
        p, lam = _mixed_rows(rng, qs.ndof, L, qs.bounds, 1.0)
        _, _, dp, dl, _ = plasticity._projection_rows(
            p.reshape(-1, L), lam.reshape(-1, L), qs.bounds, 1.0)
        seen = []

        class Recorder(_FailingLinalg):
            def splu(self, A, *args, **kwargs):
                seen.append(A)
                return super().splu(A, *args, **kwargs)

        F = np.concatenate([rng.standard_normal(system.K.shape[0]),
                            rng.standard_normal(2 * system.C.shape[0])])
        monkeypatch.setattr(plasticity, "spla", Recorder(0))
        condensed_newton_step(blocks, dp, dl, F)
        (A,) = seen
        assert A.shape == system.K.shape
        assert abs(A - A.T).max() <= 1e-12 * abs(A).max()

    @pytest.mark.parametrize("name", sorted(SCATTER_MESHES))
    def test_scattered_matrix_matches_sparse_products(self, name, monkeypatch):
        system, qs, _ = _condensation_case(name)
        blocks = ElementBlocks(system)  # the cached blocks may be reordered
        rng = np.random.default_rng(13)
        mats = [5 * np.eye(grp.C.shape[1]) + rng.random(grp.C.shape)
                for grp in blocks.groups]
        rhs = [rng.standard_normal(grp.C.shape[:2] + (grp.C.shape[1] + 1,))
               for grp in blocks.groups]
        seen = []

        class Recorder(_FailingLinalg):
            def splu(self, A, *args, **kwargs):
                seen.append(A)
                return super().splu(A, *args, **kwargs)

        monkeypatch.setattr(plasticity, "spla", Recorder(0))
        blocks.condensed_solve(mats, rhs, rng.standard_normal(system.K.shape[0]))
        (A,) = seen
        assert A.format == "csc"
        n_q = system.C.shape[0]
        X = sp.lil_matrix((n_q, n_q))
        for grp, M, R in zip(blocks.groups, mats, rhs):
            for ix, s in zip(grp.idx, np.linalg.solve(M, R)):
                X[np.ix_(ix, ix)] = s[:, :-1]
        BXB = system.B @ X.tocsr() @ system.B.T
        ref = system.K + BXB
        assert abs(A - ref).max() <= 1e-13 * abs(ref).max()
        # the pattern holds every entry of B X B^T, also where K has none
        stored = sp.csc_matrix((np.ones(A.nnz), A.indices, A.indptr),
                               shape=A.shape)
        outside = BXB.astype(bool) > system.K.astype(bool)
        assert (outside.multiply(stored)).nnz == outside.nnz
        if name == "square-n4-p2":
            assert outside.nnz > 0

    def test_condensed_solve_on_large_index_range(self):
        # more displacement unknowns than int32 products of two indices hold
        rng = np.random.default_rng(5)
        n_u, L = 50_000, 2
        q_counts = rng.integers(1, 4, size=30)
        sizes = L * q_counts
        n_q = int(sizes.sum())
        C = sp.block_diag([np.eye(n) + 0.1 * np.ones((n, n)) for n in sizes],
                          format="csr")
        B = sp.random(n_u, n_q, density=4.0 / n_u, random_state=rng,
                      format="csr")
        B = B + sp.csr_matrix((np.ones(n_q), (n_u - 1 - np.arange(n_q),
                                                np.arange(n_q))), shape=(n_u, n_q))
        K = sp.diags(1.0 + rng.random(n_u), format="csr")
        system = MixedSystem(K=K, B=B, C=C, D=np.ones(n_q), l=np.zeros(n_u),
                             L=L, q_counts=q_counts)
        blocks = ElementBlocks(system)
        mats = [5 * np.eye(grp.C.shape[1]) + rng.random(grp.C.shape)
                for grp in blocks.groups]
        rhs = [rng.standard_normal(grp.C.shape[:2] + (grp.C.shape[1] + 1,))
               for grp in blocks.groups]
        f = rng.standard_normal(n_u)
        u, q = blocks.condensed_solve(mats, rhs, f)

        X = np.zeros((n_q, n_q))
        g = np.zeros(n_q)
        for grp, M, R in zip(blocks.groups, mats, rhs):
            sol = np.linalg.solve(M, R)
            for ix, s in zip(grp.idx, sol):
                X[np.ix_(ix, ix)] = s[:, :-1]
                g[ix] = s[:, -1]
        # K u - B q = f and X B^T u + q = g
        full = sp.bmat([[K, -B], [sp.csr_matrix(X) @ B.T, sp.eye(n_q)]],
                       format="csc")
        ref = spla.spsolve(full, np.concatenate([f, g]))
        assert np.abs(u - ref[:n_u]).max() <= 1e-10 * np.abs(ref[:n_u]).max()
        assert np.abs(q - ref[n_u:]).max() <= 1e-10 * np.abs(ref[n_u:]).max()


class _Recorder(_FailingLinalg):
    """_FailingLinalg that records every call: [matrix, permc_spec,
    factorization], the factorization None for a failed call."""

    def __init__(self, failures):
        super().__init__(failures)
        self.calls = []

    def splu(self, A, *args, **kwargs):
        self.calls.append([A, kwargs["permc_spec"], None])
        self.calls[-1][2] = super().splu(A, *args, **kwargs)
        return self.calls[-1][2]


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def _ordering_system(name):
    """The plastic square (n=4, p=2) or the hanging-face cube (p=2), loaded
    so that the solve has active dofs."""
    if name == "square":
        _, mat, _, qs, system = _benchmark()
        return system, qs, mat
    mesh = _hex_hanging_mesh()
    mat = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=0.3)
    loads = Loads(traction=lambda x: np.where(np.abs(x[:, :1] - 1.0) < 1e-9,
                                              [0.5, 0.0, 0.1], 0.0))
    qs = GaussPointSpace(mesh, mat.yield_stress)
    return assemble_system(ScalarSpace(mesh), qs, mat, loads), qs, mat


class TestOrdering:
    """One minimum-degree ordering per mixed system: the first factorization
    orders the pattern, every later one is factorized in that order."""

    @pytest.mark.parametrize("name", ["square", "cube-hanging"])
    def test_one_ordering_per_solve(self, name, monkeypatch):
        system, qs, mat = _ordering_system(name)
        rec = _Recorder(0)
        monkeypatch.setattr(plasticity, "spla", rec)
        sol = solve_semismooth_newton(system, qs,
                                      NewtonConfig(rho=default_rho(mat)))
        monkeypatch.undo()
        assert sol.converged and max(row[4] for row in sol.trace) > 0
        specs = [spec for _, spec, _ in rec.calls]
        assert len(specs) == sol.iterations > 2
        assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (len(specs) - 1)
        # the ordering factorization is the first step's, of K itself
        A, _, first = rec.calls[0]
        assert abs(A - system.K).max() == 0.0
        order = first.perm_c
        for A, spec, lu in rec.calls:
            np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
            if spec == "NATURAL":
                np.testing.assert_array_equal(lu.perm_c, np.arange(A.shape[0]))
                # in the unknowns' order, factorized as before the ordering
                ref = factorize(A[order][:, order])
                assert abs(_fill(lu) - _fill(ref)) <= 1e-3 * _fill(ref)

    def test_failed_ordering_leaves_the_pattern_unpermuted(self, monkeypatch):
        m, mat, space, qs, system = _benchmark()
        zeros = np.zeros(system.C.shape[0])
        initial = (elastic_solve(system), zeros, zeros)
        rec = _Recorder(1)
        monkeypatch.setattr(plasticity, "spla", rec)
        sol = solve_semismooth_newton(system, qs,
                                      NewtonConfig(rho=default_rho(mat)),
                                      initial=initial)
        monkeypatch.undo()
        assert sol.converged and sol.retries == 1
        specs = [spec for _, spec, _ in rec.calls]
        assert specs == ["MMD_AT_PLUS_A"] * 2 + ["NATURAL"] * (len(specs) - 2)
        assert rec.calls[0][2] is None
        # the failed ordering and its retry both see the unknowns' order
        blocks = ElementBlocks(system)
        fresh = blocks.condensed_matrix([np.zeros_like(grp.C) for grp in blocks.groups])
        for A, _, _ in rec.calls[:2]:
            np.testing.assert_array_equal(A.indptr, fresh.indptr)
            np.testing.assert_array_equal(A.indices, fresh.indices)
        assert not np.array_equal(rec.calls[2][0].indices, fresh.indices)

    @pytest.mark.parametrize("name", sorted(SCATTER_MESHES))
    def test_ordered_matrix_is_the_permuted_one_bit_for_bit(self, name):
        system, _, _ = _condensation_case(name)
        blocks = ElementBlocks(system)
        rng = np.random.default_rng(17)
        X = [rng.standard_normal(grp.C.shape) for grp in blocks.groups]
        A = blocks.condensed_matrix(X)
        first = blocks.factorization([np.zeros_like(x) for x in X])
        assert first.order == slice(None)
        lu = blocks.factorization(X)
        order = lu.order
        permuted = blocks.condensed_matrix(X)
        back = permuted[order][:, order]
        assert back.nnz == A.nnz and (back != A).nnz == 0
        b = rng.standard_normal(A.shape[0])
        ref = spla.spsolve(A, b)
        assert np.abs(lu.solve(b) - ref).max() <= 1e-10 * np.abs(ref).max()


@lru_cache(maxsize=None)
def _newton_matrices():
    """K, the last (ordered) condensed matrix of one Newton solve on the
    plastic square (n=4, p=2), as the package factorized them, and an
    unsymmetric generalized Jacobian of that system, on which SuperLU's
    symmetric mode changes the factorization."""
    _, mat, _, qs, system = _benchmark()
    rec, saved = _Recorder(0), plasticity.spla
    plasticity.spla = rec
    try:
        sol = solve_semismooth_newton(system, qs, NewtonConfig(rho=default_rho(mat)))
    finally:
        plasticity.spla = saved
    assert sol.converged and rec.calls[-1][1] == "NATURAL"
    n_q = system.C.shape[0]
    rng = np.random.default_rng(5)
    J = generalized_jacobian(system, qs, 0.01 * rng.standard_normal(n_q),
                             qs.yield_stress * rng.standard_normal(n_q), 1.0)
    return sp.csc_matrix(system.K), rec.calls[-1][0], J


def _duplicated(A):
    """A in CSC with every entry stored as two halves, in a shuffled order
    within each column: the same matrix, in non-canonical form."""
    A = A.tocoo()
    rows, cols = np.tile(A.row, 2), np.tile(A.col, 2)
    order = np.random.default_rng(4).permutation(len(rows))
    order = order[np.argsort(cols[order], kind="stable")]
    indptr = np.searchsorted(cols[order], np.arange(A.shape[1] + 1))
    out = sp.csc_matrix((np.tile(0.5 * A.data, 2)[order], rows[order], indptr),
                        shape=A.shape)
    assert not out.has_canonical_format
    return out


def _assert_same_lu(a, b):
    """Two SuperLU factorizations are the same bit for bit."""
    assert np.array_equal(a.perm_r, b.perm_r)
    assert np.array_equal(a.perm_c, b.perm_c)
    for x, y in ((a.L, b.L), (a.U, b.U)):
        assert type(x) is type(y) and x.shape == y.shape
        for part in ("data", "indices", "indptr"):
            assert getattr(x, part).tobytes() == getattr(y, part).tobytes()
    rhs = np.random.default_rng(8).standard_normal((a.shape[0], 2))
    assert a.solve(rhs).tobytes() == b.solve(rhs).tobytes()


class TestDirectGstrf:
    """`factorize` calls SuperLU's gstrf itself; it must factorize exactly
    as scipy.sparse.linalg.splu does under the same options."""

    @staticmethod
    def scipy_lu(A, ordered=False):
        return spla.splu(sp.csc_matrix(A),
                         permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))

    @pytest.mark.parametrize("case", ["K", "condensed", "ordered", "csr",
                                      "duplicates", "unsymmetric"])
    def test_matches_splu_bit_for_bit(self, case):
        K, C, J = _newton_matrices()
        A = {"K": K, "unsymmetric": J}.get(case, C)
        ordered = case == "ordered"
        if case == "csr":
            given = A.tocsr()
        elif case == "duplicates":
            given = _duplicated(A)
            _assert_same_lu(factorize(given.copy()), factorize(A.copy()))
        else:
            given = A.copy()
        _assert_same_lu(factorize(given, ordered), self.scipy_lu(A, ordered))
        if case == "duplicates":
            assert given.has_canonical_format  # summed in place, as splu does

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            factorize(sp.csc_matrix(np.ones((2, 3))))

    def test_indices_too_large_for_intc(self):
        """An index array that does not fit in intc raises ValueError before
        gstrf runs. The matrix claims 2^31 entries in its last column
        without storing them, so that nothing reads past its arrays."""
        def tampered():
            A = sp.csc_matrix(np.eye(2))
            A.has_canonical_format = True
            A.indptr = np.array([0, 1, 2**31], dtype=np.int64)
            return A

        with pytest.raises(ValueError, match="too large for SuperLU"):
            factorize(tampered())
        with pytest.raises(ValueError, match="too large for SuperLU"):
            spla.splu(tampered())

    def test_loader_names_the_directory_without_an_extension(self, tmp_path):
        loaded = sys.modules[plasticity.SUPERLU]
        with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
            plasticity.load_superlu(str(tmp_path))
        assert sys.modules[plasticity.SUPERLU] is loaded


class TestResidualEvaluations:
    @staticmethod
    def _counted(monkeypatch):
        calls = {"clarke": 0, "projection": 0}
        rows, projection = plasticity._projection_rows, plasticity._projection

        def counted_rows(*args):
            calls["clarke"] += 1
            return rows(*args)

        def counted_projection(*args):
            calls["projection"] += 1
            return projection(*args)

        monkeypatch.setattr(plasticity, "_projection_rows", counted_rows)
        monkeypatch.setattr(plasticity, "_projection", counted_projection)
        return calls

    def test_clarke_blocks_once_per_iterate(self, monkeypatch):
        # criterion-3 case (2 refinements, p = 3, rho = 100): three damped steps
        mesh, mat, loads = plastic_square(n=2, degree=3)
        mesh = mesh.uniformly_refined().uniformly_refined()
        qs = GaussPointSpace(mesh, mat.yield_stress)
        system = assemble_system(ScalarSpace(mesh), qs, mat, loads)
        calls = self._counted(monkeypatch)
        sol = solve_semismooth_newton(system, qs, NewtonConfig(rho=100.0))
        assert sol.converged and sum(row[3] < 1.0 for row in sol.trace) > 0
        assert calls["clarke"] == sol.iterations + 1
        # residual-only evaluations: the start, the full step of every
        # iteration, one batched evaluation of all shrink probes for every
        # step from the STAGNATION-th evaluation on, and the direct
        # evaluation of every damped step taken
        probing = sol.iterations - plasticity.STAGNATION + 1
        damped = sum(row[3] < 1.0 for row in sol.trace)
        assert damped == 3
        assert (calls["projection"] - calls["clarke"]
                == 1 + sol.iterations + probing + damped)

    def test_retry_evaluates_once_more(self, monkeypatch):
        m, mat, space, qs, system = _benchmark()
        zeros = np.zeros(system.C.shape[0])
        initial = (elastic_solve(system), zeros, zeros)
        calls = self._counted(monkeypatch)
        monkeypatch.setattr(plasticity, "spla", _FailingLinalg(1))
        sol = solve_semismooth_newton(system, qs,
                                      NewtonConfig(rho=default_rho(mat)),
                                      initial=initial)
        assert sol.converged and sol.retries == 1
        assert calls["clarke"] == sol.iterations + 1 + sol.retries


class TestRecovery:
    def test_constant_strain_projection(self):
        # p = 0, eps(u) = Phi_1: lam = 2 mu Phi_1 exactly on affine meshes
        m = square_mesh(2, degree=2, tagger=lambda c: "neumann")
        mat = Material(lam=1.3, mu=0.9, hardening=0.4, yield_stress=1.0)
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, mat.yield_stress)
        Phi = deviatoric_basis(2)
        s = Phi[0]
        u = np.zeros(2 * space.ndof)
        for i, slot in enumerate(space.dofs):
            if slot[0] == "v":
                x = m.vertices[slot[1]]
                u[2 * i:2 * i + 2] = s @ x
        lam = recover_multiplier(space, qs, mat, u, np.zeros(2 * qs.ndof))
        lam_rows = lam.reshape(-1, 2)
        np.testing.assert_allclose(lam_rows[:, 0], 2 * mat.mu, atol=1e-11)
        np.testing.assert_allclose(lam_rows[:, 1], 0.0, atol=1e-11)

    def test_solver_consistency(self):
        m, mat, space, qs, system = _benchmark()
        sol = solve_semismooth_newton(system, qs,
                                      NewtonConfig(rho=default_rho(mat)))
        lam = recover_multiplier(space, qs, mat, sol.u, sol.p)
        assert np.abs(lam - sol.lam).max() < 1e-9

    def test_zero_solution(self):
        m, mat, space, qs, system = _benchmark(n=2)
        lam = recover_multiplier(space, qs, mat,
                                 np.zeros(system.K.shape[0]),
                                 np.zeros(system.C.shape[0]))
        assert np.abs(lam).max() == 0.0


class TestComplementarityReport:
    def test_cauchy_schwarz_equality_case(self):
        m = square_mesh(1, degree=1, tagger=lambda c: "neumann")
        qs = GaussPointSpace(m, yield_stress=1.0)
        n = np.array([1.0, 0.0]) / 1.0
        lam = np.zeros((qs.ndof, 2))
        p = np.zeros((qs.ndof, 2))
        lam[:, 0] = 1.0  # sigma * n
        p[:, 0] = 2.0    # 2 n
        rep = check_complementarity(qs, p, lam)
        assert rep.max_violation < 1e-14

    def test_elastic_classification(self):
        m, mat, space, qs, system = _benchmark(n=2, p=1, yield_stress=1e6)
        sol = solve_semismooth_newton(system, qs, NewtonConfig(rho=1.0))
        rep = check_complementarity(qs, sol.p, sol.lam)
        assert rep.n_elastic == qs.ndof and rep.n_plastic == 0


class TestInfSup:
    def test_ratio_is_one(self, rng):
        for _ in range(3):
            m = random_refined_mesh(rng)
            qs = GaussPointSpace(m, 1.0)
            for _ in range(5):
                mu = rng.standard_normal((qs.ndof, 2))
                assert abs(infsup_ratio(qs, mu) - 1.0) < 1e-10

    def test_zero_rejected(self, rng):
        m = random_refined_mesh(rng)
        qs = GaussPointSpace(m, 1.0)
        with pytest.raises(ValueError):
            infsup_ratio(qs, np.zeros((qs.ndof, 2)))

    def test_single_element_closed_form(self):
        m = square_mesh(1, degree=1, tagger=lambda c: "neumann")
        qs = GaussPointSpace(m, 1.0)
        mu = np.array([[0.7, -0.2]])
        # one constant dof: sup attained at q = mu with value |mu| sqrt(|T|)
        assert abs(infsup_ratio(qs, mu) - 1.0) < 1e-12


def admissible_q_samples(rng, qs, n=200):
    """Random test fields: half dense, half supported on a single random dof
    (a dense random field cannot certify a localized violation)."""
    out = []
    for k in range(n):
        if k % 2 == 0:
            out.append(rng.standard_normal((qs.ndof, 2)))
        else:
            q = np.zeros((qs.ndof, 2))
            q[int(rng.integers(qs.ndof))] = rng.standard_normal(2)
            out.append(q)
    return out


def admissible_candidates(rng, qs, n):
    """Strictly feasible or everywhere-violating candidates, so sampling-based
    weak membership is decision-equivalent with overwhelming probability."""
    out = []
    for k in range(n):
        mu = rng.standard_normal((qs.ndof, 2))
        nrm = np.linalg.norm(mu, axis=1, keepdims=True)
        if k % 2 == 0:
            mu *= rng.uniform(0.2, 0.95) * qs.yield_stress / nrm.max()
        else:
            mu *= rng.uniform(1.2, 3.0) * qs.yield_stress / nrm
        out.append(mu)
    return out


class TestAdmissibleSets:
    def test_gauss_vs_weak_on_det_affine(self, rng):
        m = square_mesh(2, degree=2, tagger=lambda c: "neumann")
        qs = GaussPointSpace(m, yield_stress=1.0)
        q_samples = admissible_q_samples(rng, qs)
        for mu in admissible_candidates(rng, qs, 50):
            g = in_admissible_gauss(qs, mu, tol=1e-12)
            w = in_admissible_weak(qs, mu, q_samples, tol=1e-12)
            assert g == w

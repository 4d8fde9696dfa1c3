import json
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (INDICATOR_CASES, INDICATOR_VARIANTS, element_quadrature,
                      gauss_eval_dual, indicator_case, plastic_field_at,
                      square_mesh)
from hpfem.assembly import Loads, Material, assemble_system, bilinear_value
from hpfem.estimator import (ErrorIndicators, compute_indicators, mark_dorfler,
                             mu_star_at, solve_auxiliary,
                             stress_divergence_values)
from hpfem.mesh import map_hessians, map_jacobians, map_points
from hpfem.plasticity import NewtonConfig, default_rho, solve_semismooth_newton
from hpfem.polybasis import tensor_indices, tensor_shape_eval, tensor_shape_hessian
from hpfem.problems import interval_mesh
from hpfem.space import (GaussPointSpace, ScalarSpace, deviatoric_basis,
                         gauss_point_basis)

PARENT_INDICATORS = os.path.join(os.path.dirname(__file__), "data",
                                 "indicators_parent.json")


def _interp_vertex_field(mesh, space, func):
    """Vector coefficients interpolating a (multi)linear field at the vertices."""
    u = np.zeros(mesh.dim * space.ndof)
    for i, slot in enumerate(space.dofs):
        if slot[0] == "v":
            u[mesh.dim * i:mesh.dim * i + mesh.dim] = func(mesh.vertices[slot[1]])
    return u


class TestVolumeResidual:
    def test_polynomial_exact_solution_zero_residual_part(self):
        # u in the space, polynomial data: all residual terms vanish
        mat = Material(lam=1.0, mu=1.0, hardening=1.0, yield_stress=1e9)
        m = square_mesh(2, degree=2, tagger=lambda c: "dirichlet")
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, mat.yield_stress)

        def force(x):
            # f = -div sigma(u) for u = (phi, phi), phi = x(1-x)y(1-y)
            x1, x2 = x[:, 0], x[:, 1]
            phixx = -2.0 * x2 * (1 - x2)
            phiyy = -2.0 * x1 * (1 - x1)
            phixy = (1 - 2 * x1) * (1 - 2 * x2)
            lam, mu = mat.lam, mat.mu
            f1 = -((lam + 2 * mu) * phixx + (lam + mu) * phixy + mu * phiyy)
            f2 = -((lam + 2 * mu) * phiyy + (lam + mu) * phixy + mu * phixx)
            return np.stack([f1, f2], axis=1)

        loads = Loads(volume=force)
        system = assemble_system(space, qs, mat, loads)
        sol = solve_semismooth_newton(system, qs, NewtonConfig(rho=1.0))
        assert sol.converged and np.abs(sol.p).max() < 1e-12
        ind = compute_indicators(space, qs, mat, loads, sol.u, sol.p, lam=None)
        assert ind.residual_part.max() < 1e-11
        assert ind.plastic_part.max() < 1e-10
        assert ind.oscillation.max() < 1e-20

    def test_divergence_free_for_constant_stress(self, rng):
        m = square_mesh(1, degree=1, tagger=lambda c: "neumann")
        mat = Material(lam=1.0, mu=1.0)
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, 1.0)
        u = _interp_vertex_field(m, space, lambda x: [0.1 * x[0], -0.05 * x[1]])
        pts = rng.uniform(-1, 1, (5, 2))
        corners = m.corner_array([0])
        idx = tensor_indices(space.mesh.degree[0], 2)
        _, G = tensor_shape_eval(pts, idx)
        _, GL = gauss_point_basis(1, pts, gradient=True)
        div = stress_divergence_values(
            mat, space.element_coeffs([0], u.reshape(-1, 2)),
            qs.element_rows([0], np.zeros((qs.ndof, 2))), G,
            tensor_shape_hessian(pts, idx), GL,
            np.linalg.inv(map_jacobians(corners, pts)),
            map_hessians(corners, pts))
        assert div.shape == (1, 5, 2)
        assert np.abs(div).max() < 1e-12


class TestParentParity:
    """The batched indicators against values recorded from the per-element
    implementation they replace (commit 8d52cf2), on the cases built by
    conftest.indicator_case: every part, to 1e-12 of the largest total."""

    @pytest.mark.parametrize("variant", sorted(INDICATOR_VARIANTS))
    @pytest.mark.parametrize("case", INDICATOR_CASES)
    def test_matches_recorded_indicators(self, case, variant):
        with open(PARENT_INDICATORS) as fh:
            ref = json.load(fh)[case][variant]
        space, qs, mat, loads, u, p, lam = indicator_case(case)
        given, mode = INDICATOR_VARIANTS[variant]
        ind = compute_indicators(space, qs, mat, loads, u, p,
                                 lam=lam if given else None, mu_mode=mode)
        assert ind.element_ids.tolist() == ref["element_ids"]
        scale = max(np.abs(ref["total"]))
        for part in ("residual_part", "plastic_part", "oscillation", "total"):
            np.testing.assert_allclose(getattr(ind, part), ref[part], rtol=0,
                                       atol=1e-12 * scale, err_msg=part)


class TestJumpTerm:
    def test_constant_jump_closed_form(self):
        # piecewise-linear displacement with a gradient kink across x = 1
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        from hpfem.mesh import Mesh
        m = Mesh.from_arrays(verts, [[0, 3, 1, 4], [1, 4, 2, 5]], dim=2,
                             default_tag="neumann")
        mat = Material(lam=1.0, mu=1.0, hardening=1.0, yield_stress=1e9)
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, mat.yield_stress)
        a = 3.0
        u = _interp_vertex_field(
            m, space,
            lambda x: [x[0] if x[0] <= 1 else 1 + a * (x[0] - 1), 0.0])
        ind = compute_indicators(space, qs, mat, Loads(), u,
                                 np.zeros(2 * qs.ndof), lam=None)
        lam_, mu_ = mat.lam, mat.mu
        # eps_xx jumps by a - 1: sigma_xx jump (lam + 2 mu)(a - 1), sigma_xy 0;
        # each element gets h_e/(2 p_e) s^2 |e| plus its (g = 0) boundary terms
        s = (lam_ + 2 * mu_) * (a - 1.0)
        jump = 0.5 * s**2
        left = jump + (lam_ + 2 * mu_) ** 2 + 2 * lam_**2
        right = jump + ((lam_ + 2 * mu_) * a) ** 2 + 2 * (lam_ * a) ** 2
        np.testing.assert_allclose(sorted(ind.residual_part),
                                   sorted([left, right]), rtol=1e-12)

    def test_interval_jump_closed_form(self):
        # a hat function on two clamped elements of (0, 1): u' = 1 left of
        # x = 1/2 and -1 right of it; the point facet has h_e = 1, p_e = 1
        m = interval_mesh(2, degree=1)
        mat = Material(lam=1.0, mu=1.0, hardening=1.0, yield_stress=1e9)
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, mat.yield_stress)
        u = np.zeros(space.ndof)
        u[space.dofs.index(("v", 1))] = 0.5
        ind = compute_indicators(space, qs, mat, Loads(), u, np.zeros(0))
        jump = (mat.lam + 2 * mat.mu) * (1.0 - (-1.0))  # [sigma n] at x = 1/2
        np.testing.assert_allclose(ind.residual_part, [0.5 * jump**2] * 2,
                                   rtol=1e-12)
        assert np.all(ind.plastic_part == 0.0)

    def test_hanging_interface_counts_once(self, rng):
        m = square_mesh(2, degree=1, tagger=lambda c: "dirichlet")
        m = m.refine_element(0)
        mat = Material(yield_stress=1e6)
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, mat.yield_stress)
        u = rng.standard_normal(2 * space.ndof) * 0.01
        ind = compute_indicators(space, qs, mat, Loads(), u,
                                 np.zeros(2 * qs.ndof), lam=None)
        assert np.all(ind.residual_part >= 0.0)
        assert np.isfinite(ind.total).all()


class TestNeumannRows:
    """A boundary facet adds a facet term exactly when its tag is in
    loads.neumann_tags: being a boundary facet that is not Dirichlet is not
    enough."""

    def test_closed_form_with_other_tag(self):
        # TestJumpTerm's kink, every boundary facet tagged "symmetry": only the
        # jump term is left, until "symmetry" becomes a Neumann tag
        from hpfem.mesh import Mesh
        verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        m = Mesh.from_arrays(verts, [[0, 3, 1, 4], [1, 4, 2, 5]], dim=2,
                             default_tag="symmetry")
        mat = Material(lam=1.0, mu=1.0, hardening=1.0, yield_stress=1e9)
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, mat.yield_stress)
        a = 3.0
        u = _interp_vertex_field(
            m, space,
            lambda x: [x[0] if x[0] <= 1 else 1 + a * (x[0] - 1), 0.0])
        s = (mat.lam + 2 * mat.mu) * (a - 1.0)
        jump = 0.5 * s**2
        left = jump + (mat.lam + 2 * mat.mu) ** 2 + 2 * mat.lam**2
        right = jump + ((mat.lam + 2 * mat.mu) * a) ** 2 + 2 * (mat.lam * a) ** 2
        for tags, want in (((), [jump, jump]), (("neumann",), [jump, jump]),
                           (("neumann", "symmetry"), [left, right])):
            ind = compute_indicators(space, qs, mat, Loads(neumann_tags=tags), u,
                                     np.zeros(2 * qs.ndof), lam=None)
            np.testing.assert_allclose(sorted(ind.residual_part), sorted(want),
                                       rtol=1e-12, err_msg=str(tags))
            assert np.all(ind.oscillation == 0.0)

    def test_tag_changes_exactly_the_touching_elements(self, rng):
        def tag(c):
            if c[0] < 1e-12:
                return "dirichlet"
            return "neumann" if c[0] > 1.0 - 1e-12 else "symmetry"

        m = square_mesh(3, degree=1, tagger=tag).refine_element(4).refine_element(0)
        m = m.with_degrees({e: 1 + i % 3 for i, e in enumerate(m.active_ids())})
        mat = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=0.35)
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, mat.yield_stress)
        u = 0.05 * rng.standard_normal(2 * space.ndof)
        p = 0.05 * rng.standard_normal(2 * qs.ndof)
        lam = 0.3 * rng.standard_normal(2 * qs.ndof)

        def traction(x):
            return np.stack([np.sin(5.0 * x[:, 0]) + x[:, 1],
                             np.cos(4.0 * x[:, 1]) * x[:, 0]], axis=1)

        old, new = (compute_indicators(space, qs, mat,
                                       Loads(traction=traction, neumann_tags=tags),
                                       u, p, lam)
                    for tags in (("neumann",), ("neumann", "symmetry")))
        act = m.active_ids()
        touching = np.array([("symmetry" in m.tags[e].tolist()) for e in act])
        assert 0 < touching.sum() < len(act)
        for part in ("residual_part", "oscillation"):
            diff = getattr(new, part) - getattr(old, part)
            scale = getattr(new, part).max()
            assert np.all(diff[touching] > 1e-12 * scale), part
            np.testing.assert_allclose(diff[~touching], 0.0, rtol=0,
                                       atol=1e-14 * scale, err_msg=part)
        np.testing.assert_array_equal(new.plastic_part, old.plastic_part)


class TestMuStar:
    def test_feasible_identity(self, rng):
        lam = rng.standard_normal((10, 2, 2)) * 0.1
        lam = 0.5 * (lam + lam.transpose(0, 2, 1))
        mu = mu_star_at(lam, np.zeros_like(lam), 10.0)
        np.testing.assert_allclose(mu, lam, atol=1e-14)

    def test_radial_projection(self):
        n = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2)
        lam = 2.0 * 1.5 * n[None, :, :]
        mu = mu_star_at(lam, np.zeros_like(lam), 1.5)
        np.testing.assert_allclose(mu[0], 1.5 * n, atol=1e-14)

    def test_feasibility_bound(self, rng):
        lam = rng.standard_normal((200, 2, 2))
        lam = 0.5 * (lam + lam.transpose(0, 2, 1))
        p = rng.standard_normal((200, 2, 2))
        p = 0.5 * (p + p.transpose(0, 2, 1))
        mu = mu_star_at(lam, p, 0.7)
        assert np.linalg.norm(mu, axis=(1, 2)).max() <= 0.7 + 1e-12

    def test_minimizes_pointwise_objective(self, rng):
        # E(mu) = |mu - lam|^2 - mu : p pointwise over the ball
        sigma = 0.9
        for _ in range(100):
            lam = rng.standard_normal((2, 2))
            lam = 0.5 * (lam + lam.T)
            p = rng.standard_normal((2, 2))
            p = 0.5 * (p + p.T)
            mu = mu_star_at(lam[None], p[None], sigma)[0]
            e_star = np.sum((mu - lam) ** 2) - np.tensordot(mu, p)
            for _ in range(20):
                nu = rng.standard_normal((2, 2))
                nu = 0.5 * (nu + nu.T)
                nrm = np.linalg.norm(nu)
                nu *= rng.uniform(0, 1) * sigma / nrm
                e_nu = np.sum((nu - lam) ** 2) - np.tensordot(nu, p)
                assert e_star <= e_nu + 1e-10


def _plastic_fixture(n=2, p=2):
    m = square_mesh(n, degree=p,
                    tagger=lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
    mat = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=0.35)

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
    sol = solve_semismooth_newton(system, qs, NewtonConfig(rho=default_rho(mat)))
    return m, mat, loads, space, qs, system, sol


class TestPlasticityIndicator:
    def test_parts_nonnegative(self):
        m, mat, loads, space, qs, system, sol = _plastic_fixture()
        ind = compute_indicators(space, qs, mat, loads, sol.u, sol.p, sol.lam)
        assert ind.residual_part.min() >= -1e-12
        assert ind.plastic_part.min() >= -1e-12
        assert ind.total.min() >= -1e-12

    def test_elastic_regime_contribution_small(self):
        m = square_mesh(2, degree=2,
                        tagger=lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
        mat = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=1e6)
        loads = Loads(traction=lambda x: np.where(
            np.abs(x[:, [0]] - 1.0) < 1e-9, 1.0, 0.0) * np.array([[0.6, 0.12]]))
        space = ScalarSpace(m)
        qs = GaussPointSpace(m, mat.yield_stress)
        system = assemble_system(space, qs, mat, loads)
        sol = solve_semismooth_newton(system, qs, NewtonConfig(rho=1.0))
        ind = compute_indicators(space, qs, mat, loads, sol.u, sol.p, lam=None)
        assert ind.plastic_part.max() < 1e-10

    def test_mu_star_beats_random_feasible_fields(self, rng):
        # E(mu) = ||mu - lam_N||^2 + psi(p_N) - (mu, p_N) over admissible mu
        m, mat, loads, space, qs, system, sol = _plastic_fixture()
        from hpfem.space import deviatoric_dim
        L = deviatoric_dim(2)
        lam_rows = sol.lam.reshape(-1, L)
        Phi = deviatoric_basis(2)
        sigma_y = qs.yield_stress

        def energy(mu_of):
            total = 0.0
            for eid in m.active_ids():
                pdeg = qs.mesh.degree[eid]
                _, pts, wts, det, _ = element_quadrature(m, eid, pdeg + 2)
                w = wts * det
                lam_vals = np.einsum("ql,lab->qab",
                                     gauss_eval_dual(qs, eid, lam_rows, pts), Phi)
                pq = plastic_field_at(qs, eid, sol.p, pts)
                mu = mu_of(eid, pts, lam_vals, pq)
                total += float(w @ (
                    np.einsum("qab,qab->q", mu - lam_vals, mu - lam_vals)
                    + sigma_y * np.linalg.norm(pq, axis=(1, 2))
                    - np.einsum("qab,qab->q", mu, pq)))
            return total

        e_star = energy(lambda eid, pts, lam, pq: mu_star_at(lam, pq, sigma_y))
        for _ in range(100):
            coef = rng.standard_normal((3, L))

            def feasible(eid, pts, lam, pq, coef=coef):
                x = map_points(m.corner_array([eid])[0], pts)
                comp = (coef[0][None, :] + x[:, [0]] * coef[1][None, :]
                        + x[:, [1]] * coef[2][None, :])
                field = np.einsum("ql,lab->qab", comp, Phi)
                return mu_star_at(field, np.zeros_like(field), sigma_y)

            assert e_star <= energy(feasible) + 1e-10


class TestAuxiliary:
    def test_consistency_with_mixed_solution(self):
        m, mat, loads, space, qs, system, sol = _plastic_fixture()
        us, ps = solve_auxiliary(system, sol.lam)
        assert np.abs(us - sol.u).max() < 1e-9
        assert np.abs(ps - sol.p).max() < 1e-9

    def test_zero_multiplier_unconstrained_minimum(self, rng):
        m, mat, loads, space, qs, system, sol = _plastic_fixture()
        us, ps = solve_auxiliary(system, np.zeros(system.C.shape[0]))
        # stationarity of 1/2 a - l: a((u*,p*),(v,q)) = l(v) for random (v,q)
        for _ in range(10):
            v = rng.standard_normal(len(us))
            q = rng.standard_normal(len(ps))
            lhs = bilinear_value(system, us, ps, v, q)
            assert abs(lhs - float(system.l @ v)) < 1e-9 * max(
                1.0, abs(lhs))

    def test_upper_bound_structure(self):
        # ||(u*-u_N, p*-p_N)||^2 + E(mu*) dominates the auxiliary gap at the
        # discrete solution (both sides ~0 there); smoke the wiring
        m, mat, loads, space, qs, system, sol = _plastic_fixture()
        us, ps = solve_auxiliary(system, sol.lam)
        gap = np.abs(us - sol.u).max() + np.abs(ps - sol.p).max()
        assert gap < 1e-9


class TestDorfler:
    def test_theta_one_takes_all_positive(self):
        assert mark_dorfler({0: 2.0, 1: 0.0, 2: 1.0}, 1.0) == [0, 2]

    def test_greedy_hand_trace(self):
        marked = mark_dorfler({0: 4.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}, 0.5)
        assert marked == [0]

    def test_tie_break_by_id(self):
        assert mark_dorfler({1: 2.0, 0: 2.0}, 0.4) == [0]

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            mark_dorfler({0: 1.0}, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_indicator_named(self, bad):
        # one NaN used to mark every element, one inf only itself
        with pytest.raises(ValueError, match=r"element\(s\) \[2\]"):
            mark_dorfler({1: 1.0, 2: bad, 3: 0.5, 4: 0.1}, 0.3)
        ind = ErrorIndicators(element_ids=np.array([5, 7]),
                              residual_part=np.zeros(2), plastic_part=np.zeros(2),
                              oscillation=np.zeros(2), total=np.array([bad, bad]))
        with pytest.raises(ValueError, match=r"\[5, 7\]"):
            mark_dorfler(ind, 0.5)

    @settings(max_examples=50, deadline=None)
    @given(levels=st.lists(st.integers(1, 50), min_size=1, max_size=12),
           theta=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
    def test_rounding_noise_keeps_mirror_ties(self, levels, theta, seed):
        # each value sits on a mirror pair of elements; summing their terms in
        # another order moves the twins apart by a few ulps
        rng = np.random.default_rng(seed)
        vals = np.repeat(np.asarray(levels, dtype=float) / 50.0, 2)
        exact = dict(zip(rng.permutation(len(vals)).tolist(), vals.tolist()))
        frac = np.cumsum(np.sort(vals)[::-1]) / vals.sum()
        assume(np.abs(frac - theta).min() > 1e-9)  # not a threshold question
        noisy = {e: v * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0))
                 for e, v in exact.items()}
        assert mark_dorfler(noisy, theta) == mark_dorfler(exact, theta)

    def test_minimality(self, rng):
        vals = {i: float(v) for i, v in enumerate(rng.uniform(0, 1, 20))}
        theta = 0.63
        marked = mark_dorfler(vals, theta)
        total = sum(vals.values())
        got = sum(vals[i] for i in marked)
        assert got >= theta * total
        assert got - min(vals[i] for i in marked) < theta * total

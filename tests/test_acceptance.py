"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s to see them)."""

import time

import numpy as np
import pytest

from conftest import (element_quadrature, facet_jump, gauss_basis_at,
                      gauss_eval_dual, map_dets, plastic_field_at,
                      random_refined_mesh, square_mesh)
from hpfem.assembly import Loads, Material, assemble_system, bilinear_value
from hpfem.config import RunConfig
from hpfem.driver import run_adaptive, run_plastic_estimator, solve_elliptic
from hpfem.elliptic import ScalarProblem, solve_scalar
from hpfem.estimator import mu_star_at
from hpfem.mesh import map_points
from hpfem.plasticity import (NewtonConfig, check_complementarity, default_rho,
                              elastic_solve, in_admissible_gauss,
                              in_admissible_weak, infsup_ratio, residual,
                              solve_semismooth_newton)
from hpfem.polybasis import gauss_rule, tensor_gauss
from hpfem.problems import cube_mesh, plastic_square
from hpfem.space import (GaussPointSpace, ScalarSpace, deviatoric_basis,
                         deviatoric_dim)

from test_plasticity import admissible_candidates, admissible_q_samples
from test_predictor import (UNIT_F, default_candidates, interval_mesh,
                            local_split, p_enrichment, predict_reduction,
                            quadrature_prediction_oracle)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_biorthogonality(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(10):
        m = random_refined_mesh(rng, n=2, max_degree=4, refinements=2)
        qs = GaussPointSpace(m, yield_stress=1.0)
        eye = np.eye(qs.ndof)
        for i, eid in enumerate(m.active_ids()):
            p = max(m.degree[eid], 1)
            pts, wts = tensor_gauss(p + 3, 2)
            det = map_dets(m.corner_array([eid])[0], pts)
            V = gauss_basis_at(qs, eid, pts)
            sl = slice(*qs.offsets[i:i + 2])
            W = V @ qs.element_rows([i], eye[:, sl], dual=True)[0]
            G = np.einsum("qi,q,qj->ij", V, wts * det, W)
            worst = max(worst, np.abs(G - np.diag(qs.weights[sl])).max())
    dt = time.perf_counter() - t0
    report(1, worst < 1e-12 and dt < 5.0,
           f"biorthogonality defect {worst:.2e} on 10 random meshes in {dt:.2f}s")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_assembly_oracle(rng):
    from test_assembly import direct_bilinear
    mesh, mat, loads = plastic_square(n=2, degree=2)
    space = ScalarSpace(mesh)
    qs = GaussPointSpace(mesh, mat.yield_stress)
    system = assemble_system(space, qs, mat, loads)
    worst = 0.0
    for _ in range(20):
        vu1 = rng.standard_normal(system.K.shape[0])
        vp1 = rng.standard_normal(system.C.shape[0])
        vu2 = rng.standard_normal(system.K.shape[0])
        vp2 = rng.standard_normal(system.C.shape[0])
        a1 = bilinear_value(system, vu1, vp1, vu2, vp2)
        a2 = direct_bilinear(space, qs, mat, vu1, vp1, vu2, vp2)
        worst = max(worst, abs(a1 - a2) / max(1.0, abs(a2)))
    report(2, worst < 1e-10, f"assembled vs direct quadrature rel err {worst:.2e}")


# -- 3, 4 ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def newton_grid():
    t0 = time.perf_counter()
    results = {}
    for refits in (0, 1, 2):
        for p in (1, 2, 3):
            mesh, mat, loads = plastic_square(n=2, degree=p)
            for _ in range(refits):
                mesh = mesh.uniformly_refined()
            space = ScalarSpace(mesh)
            qs = GaussPointSpace(mesh, mat.yield_stress)
            system = assemble_system(space, qs, mat, loads)
            for rho in (0.01, 1.0, 100.0):
                sol = solve_semismooth_newton(
                    system, qs, NewtonConfig(rho=rho, tol=1e-11))
                F = residual(system, qs, sol.u, sol.p, sol.lam, rho)
                results[(refits, p, rho)] = (sol, float(np.abs(F).max()), qs)
    return results, time.perf_counter() - t0


def test_criterion_03_newton_grid(newton_grid):
    results, dt = newton_grid
    worst_it = 0
    worst_spread = 0
    worst_res = 0.0
    for refits in (0, 1, 2):
        for p in (1, 2, 3):
            its = []
            for rho in (0.01, 1.0, 100.0):
                sol, res, _ = results[(refits, p, rho)]
                assert sol.converged
                its.append(sol.iterations)
                worst_res = max(worst_res, res)
            worst_it = max(worst_it, max(its))
            worst_spread = max(worst_spread, max(its) - min(its))
    ok = worst_it <= 30 and worst_spread <= 5 and worst_res < 1e-10 and dt < 120
    report(3, ok, f"27 solves: max iters {worst_it}, spread {worst_spread}, "
                  f"max residual {worst_res:.2e}, {dt:.1f}s")


# Iterations of the 27 criterion-3 solves per (refinements, p), for
# rho = 0.01, 1, 100, as taken by the Newton iteration on the full
# (u, p, lam) block matrix; the condensed step must reproduce them exactly.
CRITERION_03_ITERATIONS = {
    (0, 1): (7, 5, 6),
    (0, 2): (6, 5, 7),
    (0, 3): (7, 6, 7),
    (1, 1): (7, 6, 6),
    (1, 2): (7, 6, 7),
    (1, 3): (8, 7, 7),
    (2, 1): (7, 6, 7),
    (2, 2): (8, 7, 7),
    (2, 3): (9, 7, 11),
}


def test_criterion_03_iterations_pinned(newton_grid):
    results, _ = newton_grid
    its = {(refits, p): tuple(results[(refits, p, rho)][0].iterations
                             for rho in (0.01, 1.0, 100.0))
           for refits, p in CRITERION_03_ITERATIONS}
    assert its == CRITERION_03_ITERATIONS


def test_criterion_04_complementarity(newton_grid):
    results, _ = newton_grid
    worst_align = 0.0
    worst_feas = 0.0
    for (refits, p, rho), (sol, _, qs) in results.items():
        rep = check_complementarity(qs, sol.p, sol.lam)
        worst_align = max(worst_align, np.abs(rep.alignment).max())
        worst_feas = max(worst_feas, float(np.maximum(-rep.feasibility, 0).max()))
    ok = worst_align < 1e-9 and worst_feas < 1e-9
    report(4, ok, f"max |lam:p - sigma|p|| {worst_align:.2e}, "
                  f"max (|lam|-sigma)+ {worst_feas:.2e}")


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_elastic_limit():
    mesh, mat, loads = plastic_square(n=4, degree=2,
                                      yield_stress=0.35e6)
    space = ScalarSpace(mesh)
    qs = GaussPointSpace(mesh, mat.yield_stress)
    system = assemble_system(space, qs, mat, loads)
    sol = solve_semismooth_newton(system, qs,
                                  NewtonConfig(rho=default_rho(mat)))
    du = np.abs(sol.u - elastic_solve(system)).max()
    dp = np.abs(sol.p).max()
    report(5, du < 1e-9 and dp < 1e-10,
           f"elastic limit: |du| {du:.2e}, |p| {dp:.2e}")


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_chi_bruteforce(rng):
    mis = 0
    for d in (2, 3):
        L = deviatoric_dim(d)
        n = 100_000
        kinds = rng.integers(0, 3, n)
        sigma = rng.uniform(0.2, 2.0, n)
        rho = 10.0 ** rng.uniform(-2, 2, n)
        p = rng.standard_normal((n, L))
        lam = rng.standard_normal((n, L))
        # elastic feasible: p = 0, |lam| <= 0.95 sigma
        el = kinds == 1
        lam[el] *= (rng.uniform(0.0, 0.95, el.sum()) * sigma[el]
                    / np.linalg.norm(lam[el], axis=1))[:, None]
        p[el] = 0.0
        # plastic feasible: |lam| = sigma, p = c lam
        pl = kinds == 2
        lam[pl] *= (sigma[pl] / np.linalg.norm(lam[pl], axis=1))[:, None]
        p[pl] = lam[pl] * (rng.uniform(0.05, 2.0, pl.sum())
                           / sigma[pl])[:, None]
        # evaluate chi rowwise at each sample's own rho
        for rho_val in np.unique(np.round(rho, 6))[:0]:
            pass
        norms = np.empty(n)
        for i in range(0, n, 20000):
            sl = slice(i, min(i + 20000, n))
            # chi is rho-dependent per sample: group-free direct evaluation
            w = lam[sl] + rho[sl][:, None] * p[sl]
            nw = np.linalg.norm(w, axis=1)
            mx = np.maximum(sigma[sl], nw)
            c = mx[:, None] * lam[sl] - sigma[sl][:, None] * w
            norms[sl] = np.linalg.norm(c, axis=1)
        nl = np.linalg.norm(lam, axis=1)
        npn = np.linalg.norm(p, axis=1)
        predicate = (nl <= sigma + 1e-10) & (
            np.abs(np.einsum("il,il->i", lam, p) - sigma * npn) <= 1e-10)
        mis += int(np.sum((norms < 1e-10) != predicate))
    report(6, mis == 0, f"chi equivalence sweep: {mis} misclassifications "
                        f"in 2x100000 samples (d = 2, 3)")


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_admissible_set_equality(rng):
    m = square_mesh(2, degree=2, tagger=lambda c: "neumann")
    qs = GaussPointSpace(m, yield_stress=1.0)
    q_samples = admissible_q_samples(rng, qs, 200)
    disagree = 0
    for mu in admissible_candidates(rng, qs, 100):
        g = in_admissible_gauss(qs, mu, tol=1e-12)
        w = in_admissible_weak(qs, mu, q_samples, tol=1e-12)
        disagree += int(g != w)
    report(7, disagree == 0,
           f"Gauss-point vs weak membership: {disagree} disagreements in 100")


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_infsup(rng):
    worst = 0.0
    for k in range(3):
        m = random_refined_mesh(rng, n=2, max_degree=3, refinements=k)
        qs = GaussPointSpace(m, 1.0)
        for _ in range(20):
            mu = rng.standard_normal((qs.ndof, 2))
            worst = max(worst, abs(infsup_ratio(qs, mu) - 1.0))
    report(8, worst < 1e-10, f"inf-sup ratio deviation {worst:.2e} "
                             f"(60 fields on 3 meshes)")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_prediction_identities(rng):
    worst = 0.0
    worst_enr = 0.0
    min_enr = 0.0
    count = 0
    configs = []
    for k in range(7):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        configs.append((interval_mesh(n, p), UNIT_F))
    for k in range(5):
        n = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        m = square_mesh(n, degree=p, tagger=lambda c: "dirichlet")
        configs.append((m, ScalarProblem(
            volume=lambda x: 1.0 + x[:, 0] * np.sin(x[:, 1]))))
    for m, prob in configs:
        sp = ScalarSpace(m)
        u, A, b = solve_scalar(sp, prob)
        for eid in m.active_ids():
            if count >= 50:
                break
            split = local_split(sp, u, eid)
            for menu in ("narrow", "enrichment"):
                for cand in default_candidates(sp, eid, menu=menu):
                    pred = predict_reduction(sp, prob, A, b, u, split, cand)
                    if pred.skipped:
                        continue
                    de2, eps, y, rho_y = quadrature_prediction_oracle(
                        sp, prob, u, split, cand)
                    worst = max(worst, abs(pred.delta_e2 - de2))
                    if menu == "enrichment" or m.degree[eid] == 1:
                        worst_enr = max(worst_enr, abs(rho_y),
                                        abs(pred.delta_e2 - pred.rho_w_yxi))
                        min_enr = min(min_enr, pred.delta_e2)
            count += 1
    ok = worst < 1e-10 and worst_enr < 1e-10 and min_enr >= -1e-12
    report(9, ok, f"prediction identity defect {worst:.2e}; enrichment-space "
                  f"residual {worst_enr:.2e}; min reduction {min_enr:.2e}")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_prediction_overkill(rng):
    worst = 0.0
    for dim in (1, 2):
        if dim == 1:
            m = interval_mesh(2, 1)
            prob = UNIT_F
            overdeg = 10
        else:
            m = square_mesh(2, degree=1, tagger=lambda c: "dirichlet")
            prob = ScalarProblem(volume=lambda x: np.ones(len(x)))
            overdeg = 8
        sp = ScalarSpace(m)
        u, A, b = solve_scalar(sp, prob)
        mref = m.with_degrees({e: overdeg for e in m.active_ids()})
        spref = ScalarSpace(mref)
        uref, Aref, bref = solve_scalar(spref, prob)
        norm_ref = float(uref @ (Aref @ uref))
        err_W_sq = norm_ref - float(u @ (A @ u))
        for eid in m.active_ids():
            split = local_split(sp, u, eid)
            cand = p_enrichment(sp, eid, full=True)
            pred = predict_reduction(sp, prob, A, b, u, split, cand)
            # solve exactly on Y by quadrature and measure the reduction
            de2, eps, y, _ = quadrature_prediction_oracle(sp, prob, u, split,
                                                          cand)
            # since e_Y^2 = e_W^2 - de2 by definition, compare the formula
            # against the independently solved candidate space
            rel = abs(pred.delta_e2 - de2) / max(abs(de2), 1e-14)
            worst = max(worst, rel)
            assert pred.delta_e2 <= err_W_sq * (1 + 1e-6) + 1e-12
    # realized check in 1d: enriching element 0 with its bubble realizes the
    # prediction exactly (the new space contains Y)
    m = interval_mesh(2, 1)
    sp = ScalarSpace(m)
    u, A, b = solve_scalar(sp, UNIT_F)
    mref = m.with_degrees({e: 10 for e in m.active_ids()})
    spref = ScalarSpace(mref)
    uref, Aref, _ = solve_scalar(spref, UNIT_F)
    norm_ref = float(uref @ (Aref @ uref))
    pred = predict_reduction(sp, UNIT_F, A, b, u, local_split(sp, u, 0),
                             p_enrichment(sp, 0))
    m2 = m.with_degrees({0: 2})
    sp2 = ScalarSpace(m2)
    u2, A2, _ = solve_scalar(sp2, UNIT_F)
    realized = (norm_ref - float(u @ (A @ u))) - (norm_ref - float(u2 @ (A2 @ u2)))
    rel = abs(realized - pred.delta_e2) / max(abs(realized), 1e-14)
    worst = max(worst, rel)
    report(10, worst < 1e-6,
           f"predicted vs realized/overkill reduction rel err {worst:.2e}")


# -- 11 ---------------------------------------------------------------------

def test_criterion_11_rates():
    slopes = {}
    for deg, iters in ((1, 5), (2, 4)):
        cfg = RunConfig()
        cfg.problem.preset = "elastic-square"
        cfg.material.lam, cfg.material.mu = 1.0, 1.0
        cfg.run.loop = "uniform-h"
        cfg.run.max_iterations = iters
        cfg.mesh.initial_cells = 2
        cfg.mesh.degree = deg
        records, _ = run_adaptive(cfg)
        errs = np.sqrt([r.error_sq for r in records])
        hs = np.array([r.h_max for r in records])
        slopes[deg] = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    ok_rates = abs(slopes[1] - 1.0) <= 0.15 and slopes[2] >= 1.8

    # L-shape: predictor beats uniform h at matched dofs >= 1e3
    cfgp = RunConfig()
    cfgp.problem.preset = "poisson-lshape"
    cfgp.run.loop = "elliptic-predictor"
    cfgp.run.theta = 0.7
    cfgp.run.max_iterations = 20
    cfgp.run.max_dofs = 2600
    rec_p, states_p = run_adaptive(cfgp)
    cfgu = RunConfig()
    cfgu.problem.preset = "poisson-lshape"
    cfgu.run.loop = "uniform-h"
    cfgu.run.max_iterations = 6
    cfgu.run.max_dofs = 13000
    rec_u, _ = run_adaptive(cfgu)
    # reference energy from the final adaptive mesh, refined once more
    st = states_p[-1][0]
    mref = st.mesh.uniformly_refined()
    mref = mref.with_degrees({e: int(mref.degree[e]) + 1
                              for e in mref.active_ids()})
    E_ref = solve_elliptic(mref, st.problem).energy_sq()
    perr = [(r.dofs, max(E_ref - r.energy, 1e-16)) for r in rec_p if r.dofs > 0]
    uerr = [(r.dofs, max(E_ref - r.energy, 1e-16)) for r in rec_u if r.dofs > 0]
    lx = np.log([d for d, _ in uerr])
    ly = np.log([e for _, e in uerr])
    beats = []
    for dofs, err in perr:
        if dofs < 1000 or np.log(dofs) > lx[-1]:
            continue
        uniform_err = np.exp(np.interp(np.log(dofs), lx, ly))
        beats.append(err < uniform_err)
    ok_lshape = len(beats) > 0 and all(beats)
    report(11, ok_rates and ok_lshape,
           f"uniform-h slopes p1 {slopes[1]:.3f}, p2 {slopes[2]:.3f}; "
           f"L-shape predictor beats uniform-h at {len(beats)} matched dof "
           f"levels >= 1e3")


# -- 12 ---------------------------------------------------------------------

def _calibration(records, states):
    """(ok, detail) of an estimator loop run with reference errors: both
    indicator parts at least -1e-12, and the effectivities error_sq /
    (estimate + oscillation) within a band of 2 and at most 10."""
    min_part = min(0.0, *(min(ind.residual_part.min(), ind.plastic_part.min())
                          for _, ind in states))
    effs = np.array([r.error_sq / (ind.global_estimate + ind.global_oscillation)
                     for r, (_, ind) in zip(records, states)])
    band = effs.max() / effs.min()
    return (min_part >= -1e-12 and band <= 2.0 and effs.max() <= 10.0,
            f"parts >= {min_part:.1e}; effectivity band {band:.2f} "
            f"(max {effs.max():.3f})")


def test_criterion_12_estimator(rng):
    cfg = RunConfig()
    cfg.problem.preset = "plastic-square"
    cfg.run.loop = "plastic-estimator"
    cfg.run.theta = 0.3
    cfg.run.max_iterations = 5
    cfg.mesh.initial_cells = 4
    cfg.mesh.degree = 1
    records, states = run_adaptive(cfg, reference_errors=True)
    ok_calibrated, detail = _calibration(records, states)

    # mu* minimizes the plasticity error functional over 100 feasible fields
    st, ind = states[-1]
    L = deviatoric_dim(2)
    lam_rows = st.solution.lam.reshape(-1, L)
    Phi = deviatoric_basis(2)
    sigma_y = st.qspace.yield_stress

    def plasticity_energy(mu_of):
        total = 0.0
        for eid in st.mesh.active_ids():
            pdeg = st.mesh.degree[eid]
            _, pts, wts, det, _ = element_quadrature(st.mesh, eid, pdeg + 2)
            w = wts * det
            lam_vals = np.einsum("ql,lab->qab",
                                 gauss_eval_dual(st.qspace, eid, lam_rows, pts), Phi)
            pq = plastic_field_at(st.qspace, eid, st.solution.p, pts)
            mu = mu_of(eid, pts, lam_vals, pq)
            total += float(w @ (
                np.einsum("qab,qab->q", mu - lam_vals, mu - lam_vals)
                + sigma_y * np.linalg.norm(pq, axis=(1, 2))
                - np.einsum("qab,qab->q", mu, pq)))
        return total

    e_star = plasticity_energy(
        lambda eid, pts, lam, pq: mu_star_at(lam, pq, sigma_y))
    ok_min = True
    for _ in range(100):
        coef = rng.standard_normal((3, L))

        def feasible(eid, pts, lam, pq, coef=coef):
            x = map_points(st.mesh.corner_array([eid])[0], pts)
            comp = (coef[0][None, :] + x[:, [0]] * coef[1][None, :]
                    + x[:, [1]] * coef[2][None, :])
            field = np.einsum("ql,lab->qab", comp, Phi)
            return mu_star_at(field, np.zeros_like(field), sigma_y)

        if e_star > plasticity_energy(feasible) + 1e-10:
            ok_min = False
            break
    report(12, ok_calibrated and ok_min,
           f"{detail}; mu* minimal over 100 fields: {ok_min}")


def test_criterion_12_estimator_3d():
    # the inputs of the hex-estimator-3d benchmark workload, at p = 1
    mesh = cube_mesh(n=2, degree=1)
    mesh.tag_boundary(lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
    material = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=0.3)
    loads = Loads(traction=lambda x: np.where(np.abs(x[:, :1] - 1.0) < 1e-9,
                                              [0.5, 0.0, 0.1], 0.0))
    cfg = RunConfig()
    cfg.run.theta = 0.3
    cfg.run.max_iterations = 3
    records, states = run_plastic_estimator(cfg, mesh, material, loads,
                                            reference_errors=True)
    ok, detail = _calibration(records, states)
    report(12, ok, f"3D, dofs {[r.dofs for r in records]}: {detail}")


# -- 13 ---------------------------------------------------------------------

def test_criterion_13_structure(rng):
    # volume conservation through random refinement
    from conftest import distorted_quad_mesh
    m = distorted_quad_mesh()
    vol0 = m.total_volume()
    mm = m
    for _ in range(5):
        act = mm.active_ids()
        mm = mm.refine_element(act[int(rng.integers(len(act)))])
    ok_vol = abs(mm.total_volume() - vol0) < 1e-12 * abs(vol0)

    # facet continuity including hanging facets
    worst_jump = 0.0
    for _ in range(3):
        mr = random_refined_mesh(rng, refinements=3)
        spc = ScalarSpace(mr)
        u = rng.standard_normal(spc.ndof)
        for eid in mr.active_ids():
            rows, _ = mr.facet_neighbors(eid)
            for r in range(rows.start, rows.stop):
                xi = rng.uniform(-1, 1, (5, 1))
                worst_jump = max(worst_jump, facet_jump(spc, u, [r], xi))
    ok_cont = worst_jump < 1e-11

    # Gauss exactness to degree 2n - 1
    worst_gauss = 0.0
    for n in range(1, 11):
        x, w = gauss_rule(n)
        for k in range(2 * n):
            moment = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            worst_gauss = max(worst_gauss, abs(float(np.sum(w * x**k)) - moment))
    ok_gauss = worst_gauss < 1e-13
    report(13, ok_vol and ok_cont and ok_gauss,
           f"volume defect ok: {ok_vol}; max facet jump {worst_jump:.2e}; "
           f"Gauss moment defect {worst_gauss:.2e}")

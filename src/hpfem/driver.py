"""Run orchestration: one-shot solves, the estimator-driven elastoplastic
h-adaptive loop, the predictor-driven elliptic hp-adaptive loop, uniform
refinement loops, convergence tables and exports.

The two adaptive loops are deliberately independent: the elastoplastic loop is
steered by the residual estimator only, the elliptic loop by predicted error
reductions only (each function advertises what it consults in its `consults`
attribute).
"""

import csv
import os
import time
from dataclasses import dataclass

import numpy as np

from . import estimator as est
from . import predictor as pred
from .assembly import (assemble_system, element_groups, group_quadrature,
                       strain, total_energy)
from .config import RunConfig
from .elliptic import energy_error_sq, solve_scalar
from .mesh import Mesh, map_jacobians, map_points, point_set_diameters, positions_of
from .plasticity import (Fields, NewtonConfig, default_rho,
                         solve_semismooth_newton, strain_values,
                         write_trace_csv)
from .problems import (elastic_square_manufactured, plastic_square,
                       poisson_1d_singular, poisson_lshape)
from .space import GaussPointSpace, ScalarSpace, deviatoric_dim


class SolverFailure(RuntimeError):
    pass


def _h_max(mesh):
    """The largest diameter of an active element."""
    return float(point_set_diameters(mesh.corner_array(mesh.active_ids())).max())


@dataclass
class PlasticState:
    mesh: Mesh
    space: ScalarSpace
    qspace: GaussPointSpace
    system: object
    solution: object
    material: object
    loads: object

    @property
    def total_dofs(self):
        return self.system.K.shape[0] + 2 * self.system.C.shape[0]

    def energy(self):
        return total_energy(self.system, self.qspace,
                            self.solution.u, self.solution.p)


@dataclass
class EllipticState:
    mesh: Mesh
    space: ScalarSpace
    problem: object
    u: np.ndarray
    A: object
    b: np.ndarray

    @property
    def total_dofs(self):
        return self.space.ndof

    def energy_sq(self):
        return float(self.u @ (self.A @ self.u))


@dataclass
class RunRecord:
    iteration: int
    dofs: int
    h_max: float
    energy: float
    newton_iterations: int
    estimate: float
    error_sq: float
    marked: int
    wall_time: float = 0.0

    CSV_FIELDS = ("iteration", "dofs", "h_max", "energy",
                  "newton_iterations", "estimate", "error_sq", "marked")

    def csv_row(self):
        return [self.iteration, self.dofs, f"{self.h_max:.17g}",
                f"{self.energy:.17g}", self.newton_iterations,
                f"{self.estimate:.17g}", f"{self.error_sq:.17g}", self.marked]


def solve_plastic(mesh, material, loads, newton=None):
    space = ScalarSpace(mesh)
    qspace = GaussPointSpace(mesh, material.yield_stress)
    system = assemble_system(space, qspace, material, loads)
    cfg = newton or NewtonConfig(rho=default_rho(material))
    sol = solve_semismooth_newton(system, qspace, cfg)
    if not sol.converged:
        raise SolverFailure(
            f"semi-smooth Newton did not converge in {cfg.max_iter} iterations")
    return PlasticState(mesh=mesh, space=space, qspace=qspace, system=system,
                        solution=sol, material=material, loads=loads)


def solve_elliptic(mesh, problem):
    space = ScalarSpace(mesh)
    u, A, b = solve_scalar(space, problem)
    return EllipticState(mesh=mesh, space=space, problem=problem, u=u, A=A, b=b)


# ---------------------------------------------------------------------------
# reference (overkill) errors
# ---------------------------------------------------------------------------

def refined_state_error(state):
    """Error of a plastic state against the same problem solved on the
    uniformly refined mesh with degrees raised by one:
    ||(du, dp)||^2 + ||dlam||_0^2 by quadrature on the fine mesh."""
    fine_mesh = state.mesh.uniformly_refined()
    act = fine_mesh.active_ids()
    fine_mesh = fine_mesh.with_degrees(dict(zip(act, fine_mesh.degree[act] + 1)))
    ref = solve_plastic(fine_mesh, state.material, state.loads)
    return plastic_error_sq(state, ref), ref


def _coarse_maps(fine_mesh, eids, coarse_mesh):
    """The coarse elements containing the elements eids of a mesh refined
    from coarse_mesh, and the affine maps into their reference coordinates.
    Refinement keeps the ids of the elements the two meshes share, so the
    coarse element of eid is its nearest ancestor, eid included, that is
    active in coarse_mesh. Returns their ids and (scale, shift), each (n, d),
    with xhat_coarse = scale xhat + shift, from the reference boxes of both
    in their common root."""
    n = len(coarse_mesh.root)
    active = np.append(coarse_mesh.first_child < 0, False)
    parent = fine_mesh.parent
    anc = np.array(eids)
    while (up := np.flatnonzero(~active[np.minimum(anc, n)])).size:
        if np.any(anc[up] < 0):
            raise ValueError("the fine mesh is not refined from the coarse mesh")
        anc[up] = parent[anc[up]]
    box, cbox = fine_mesh.boxes[eids], coarse_mesh.boxes[anc]
    width = cbox[..., 1] - cbox[..., 0]
    # exactly xhat_coarse = xhat where the boxes agree
    return (anc, (box[..., 1] - box[..., 0]) / width,
            (box.sum(-1) - cbox.sum(-1)) / width)


def plastic_error_sq(coarse, fine):
    """Combined-norm error ||du||^2 + ||eps(du)||^2 + ||dp||^2 + ||dlam||^2
    between two plastic states on nested meshes, by the Gauss rule of order
    p + 2 on the fine elements, one fine degree at a time."""
    act = fine.mesh.active_ids()
    anc, scale, shift = _coarse_maps(fine.mesh, act, coarse.mesh)
    fields, cfields = (Fields(s.space, s.qspace, s.material, s.solution.u,
                              s.solution.p, s.solution.lam) for s in (fine, coarse))
    cpos = positions_of(coarse.mesh.active_ids(), anc)
    corners, ccorners = fine.mesh.corner_array(act), coarse.mesh.corner_array(anc)
    total = 0.0
    for (q,), sel in element_groups(fine.space).items():
        pts, w, Jinv = group_quadrature(corners[sel], q + 2)
        cref = pts * scale[sel, None] + shift[sel, None]
        u, gu, pv, lv = fields.values_at(sel, pts)
        cu, cgu, cpv, clv = cfields.values_at(cpos[sel], cref)
        deps = strain_values(gu, Jinv) - strain_values(
            cgu, np.linalg.inv(map_jacobians(ccorners[sel], cref)))
        total += float(np.einsum("nq,nqk->", w, (u - cu) ** 2)
                       + np.einsum("nq,nqab->", w, deps ** 2)
                       + np.einsum("nq,nql->", w, (pv - cpv) ** 2 + (lv - clv) ** 2))
    return total


# ---------------------------------------------------------------------------
# adaptive loops
# ---------------------------------------------------------------------------

def _build_problem(cfg: RunConfig):
    pb, ms, mt = cfg.problem, cfg.mesh, cfg.material
    if pb.preset == "plastic-square":
        mesh, material, loads = plastic_square(
            n=ms.initial_cells, degree=ms.degree, lam=mt.lam, mu=mt.mu,
            hardening=mt.hardening, yield_stress=mt.yield_stress,
            pull=pb.pull, shear=pb.shear)
        for _ in range(ms.initial_refinements):
            mesh = mesh.uniformly_refined()
        return ("plastic", mesh, material, loads, None)
    if pb.preset == "elastic-square":
        mesh, material, loads, disp, dgrad = elastic_square_manufactured(
            n=ms.initial_cells, degree=ms.degree, lam=mt.lam, mu=mt.mu)
        for _ in range(ms.initial_refinements):
            mesh = mesh.uniformly_refined()
        return ("elastic", mesh, material, loads, (disp, dgrad))
    if pb.preset == "poisson-1d":
        mesh, problem = poisson_1d_singular(alpha=pb.alpha, n=ms.initial_cells,
                                            degree=ms.degree)
    elif pb.preset == "poisson-lshape":
        mesh, problem = poisson_lshape(degree=ms.degree)
    else:
        raise ValueError(pb.preset)
    for _ in range(ms.initial_refinements):
        mesh = mesh.uniformly_refined()
    return ("elliptic", mesh, None, None, problem)


def _newton_config(cfg: RunConfig, material):
    rho = cfg.newton.rho if cfg.newton.rho > 0 else default_rho(material)
    return NewtonConfig(rho=rho, tol=cfg.newton.tol, max_iter=cfg.newton.max_iter)


def run_adaptive(cfg: RunConfig, outdir=None, reference_errors=False):
    """Dispatch on the configured loop; returns (records, final_state)."""
    kind, mesh, material, loads, extra = _build_problem(cfg)
    loop = cfg.run.loop
    if loop in ("plastic-estimator",):
        if kind != "plastic":
            raise ValueError("plastic-estimator needs the plastic-square preset")
        return run_plastic_estimator(cfg, mesh, material, loads, outdir,
                                     reference_errors)
    if loop == "elliptic-predictor":
        if kind != "elliptic":
            raise ValueError("elliptic-predictor needs a Poisson preset")
        return run_elliptic_predictor(cfg, mesh, extra, outdir)
    return run_uniform(cfg, kind, mesh, material, loads, extra, outdir)


def run_plastic_estimator(cfg, mesh, material, loads, outdir=None,
                          reference_errors=False):
    records = []
    states = []
    for it in range(cfg.run.max_iterations):
        t0 = time.perf_counter()
        state = solve_plastic(mesh, material, loads, _newton_config(cfg, material))
        ind = est.compute_indicators(state.space, state.qspace, material, loads,
                                     state.solution.u, state.solution.p,
                                     state.solution.lam)
        err_sq = float("nan")
        if reference_errors:
            err_sq, _ = refined_state_error(state)
        marked = est.mark_dorfler(ind, cfg.run.theta)
        rec = RunRecord(iteration=it, dofs=state.total_dofs,
                        h_max=_h_max(mesh),
                        energy=state.energy(),
                        newton_iterations=state.solution.iterations,
                        estimate=ind.global_estimate, error_sq=err_sq,
                        marked=len(marked), wall_time=time.perf_counter() - t0)
        records.append(rec)
        states.append((state, ind))
        if outdir:
            export_plastic_state(state, ind, os.path.join(outdir, f"iter{it:03d}"),
                                 marked=marked)
        if state.total_dofs >= cfg.run.max_dofs:
            break
        if cfg.run.tol > 0 and ind.global_estimate <= cfg.run.tol:
            break
        if not marked or it == cfg.run.max_iterations - 1:
            break
        mesh = mesh.refine_many(marked)
    if outdir:
        write_records(records, outdir)
    return records, states


run_plastic_estimator.consults = ("estimator",)


def run_elliptic_predictor(cfg, mesh, problem, outdir=None):
    records = []
    states = []
    for it in range(cfg.run.max_iterations):
        t0 = time.perf_counter()
        state = solve_elliptic(mesh, problem)
        space = state.space
        chosen = pred.choose_enrichment(
            space, problem, state.A, state.b, state.u,
            {eid: pred.default_candidates(space, eid, menu="enrichment")
             for eid in mesh.active_ids()})
        predictions = {eid: best for eid, (best, _) in chosen.items()}
        gains = {eid: max(pr.delta_e2, 0.0) for eid, pr in predictions.items()}
        marked = est.mark_dorfler(gains, cfg.run.theta)
        err_sq = float("nan")
        if problem.exact_grad is not None:
            err_sq = energy_error_sq(space, state.u, problem.exact_grad)
        rec = RunRecord(iteration=it, dofs=space.ndof,
                        h_max=_h_max(mesh),
                        energy=state.energy_sq(),
                        newton_iterations=0,
                        estimate=sum(gains.values()), error_sq=err_sq,
                        marked=len(marked), wall_time=time.perf_counter() - t0)
        records.append(rec)
        states.append((state, predictions))
        if outdir:
            dump_predictions(predictions, marked,
                             os.path.join(outdir, f"pred{it:03d}.csv"))
        if space.ndof >= cfg.run.max_dofs or it == cfg.run.max_iterations - 1:
            break
        if not marked or cfg.run.tol > 0 and rec.estimate <= cfg.run.tol:
            break
        mesh = pred.apply_enrichment(mesh, [predictions[eid] for eid in marked])
    if outdir:
        write_records(records, outdir)
    return records, states


run_elliptic_predictor.consults = ("predictor",)


def run_uniform(cfg, kind, mesh, material, loads, extra, outdir=None):
    records = []
    states = []
    for it in range(cfg.run.max_iterations):
        t0 = time.perf_counter()
        if kind in ("plastic", "elastic"):
            state = solve_plastic(mesh, material, loads,
                                  _newton_config(cfg, material))
            dofs = state.total_dofs
            energy = state.energy()
            nit = state.solution.iterations
            err_sq = float("nan")
            if kind == "elastic" and extra is not None:
                err_sq = elastic_energy_error_sq(state, extra[0], extra[1])
        else:
            state = solve_elliptic(mesh, extra)
            dofs = state.total_dofs
            energy = state.energy_sq()
            nit = 0
            err_sq = (energy_error_sq(state.space, state.u, extra.exact_grad)
                      if extra.exact_grad is not None else float("nan"))
        rec = RunRecord(iteration=it, dofs=dofs,
                        h_max=_h_max(mesh),
                        energy=energy, newton_iterations=nit,
                        estimate=float("nan"), error_sq=err_sq,
                        marked=len(mesh.active_ids()),
                        wall_time=time.perf_counter() - t0)
        records.append(rec)
        states.append(state)
        if dofs >= cfg.run.max_dofs or it == cfg.run.max_iterations - 1:
            break
        if cfg.run.loop == "uniform-h":
            mesh = mesh.uniformly_refined()
        else:
            act = mesh.active_ids()
            mesh = mesh.with_degrees(dict(zip(act, mesh.degree[act] + 1)))
    if outdir:
        write_records(records, outdir)
    return records, states


run_uniform.consults = ()


def elastic_energy_error_sq(state, disp, disp_grad):
    """a-norm error of an (essentially elastic) state against an analytic
    field, by the Gauss rule of order p + 3, one degree at a time."""
    sol, d = state.solution, state.mesh.dim
    fields = Fields(state.space, state.qspace, state.material, sol.u, sol.p)
    corners = state.mesh.corner_array(state.mesh.active_ids())
    total = 0.0
    for (q,), sel in element_groups(state.space).items():
        pts, w, Jinv = group_quadrature(corners[sel], q + 3)
        g = np.asarray(disp_grad(map_points(corners[sel], pts).reshape(-1, d)),
                       dtype=float).reshape(Jinv.shape)
        diff = strain(g) - strain_values(fields.values_at(sel, pts)[1], Jinv)
        total += float(np.einsum("nq,nqab,nqab->", w,
                                 state.material.apply_elasticity(diff), diff))
    return total


# ---------------------------------------------------------------------------
# tables and exports
# ---------------------------------------------------------------------------

def convergence_table(records, use="error_sq"):
    """Rows (dofs, value, rate); the rate compares successive records through
    log(e_i/e_{i+1}) / log(h_i/h_{i+1}) when h changes, else against dofs."""
    rows = []
    vals = []
    for r in records:
        v = getattr(r, use)
        vals.append(np.sqrt(v) if use in ("error_sq", "estimate") else v)
    for i, r in enumerate(records):
        rate = float("nan")
        if i > 0 and vals[i] > 0 and vals[i - 1] > 0:
            h0, h1 = records[i - 1].h_max, r.h_max
            if abs(h0 - h1) > 1e-14 * max(h0, h1):
                rate = np.log(vals[i - 1] / vals[i]) / np.log(h0 / h1)
            else:
                d0, d1 = records[i - 1].dofs, r.dofs
                rate = np.log(vals[i - 1] / vals[i]) / np.log(d1 / d0)
        rows.append((r.dofs, vals[i], rate))
    return rows


def format_table(rows):
    lines = [f"{'dofs':>10} {'value':>14} {'rate':>8}"]
    for dofs, val, rate in rows:
        lines.append(f"{dofs:>10d} {val:>14.6e} {rate:>8.3f}")
    return "\n".join(lines)


def write_records(records, outdir):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "records.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(RunRecord.CSV_FIELDS)
        for r in records:
            wr.writerow(r.csv_row())
    with open(os.path.join(outdir, "timings.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["iteration", "wall_time"])
        for r in records:
            wr.writerow([r.iteration, f"{r.wall_time:.6f}"])


def read_records(path):
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(RunRecord(
                iteration=int(row["iteration"]), dofs=int(row["dofs"]),
                h_max=float(row["h_max"]), energy=float(row["energy"]),
                newton_iterations=int(row["newton_iterations"]),
                estimate=float(row["estimate"]),
                error_sq=float(row["error_sq"]), marked=int(row["marked"])))
    return records


def dump_predictions(predictions, marked, path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    marked = set(marked)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["element", "kind", "size", "delta_e2", "chosen"])
        for eid in sorted(predictions):
            pr = predictions[eid]
            wr.writerow([eid, pr.candidate.kind, pr.candidate.size,
                         f"{pr.delta_e2:.17g}", int(eid in marked)])


def dump_indicators(ind, marked, path):
    """One CSV row per element (id, the three parts in %.17g, marked or not),
    as the csv module writes them, with \\r\\n line ends; formatted in one
    operation."""
    ids = np.asarray(ind.element_ids)
    rows = np.column_stack([ids, ind.residual_part, ind.plastic_part,
                            ind.oscillation, np.isin(ids, list(marked))])
    with open(path, "w", newline="") as fh:
        fh.write("element,eta_sq,plastic_sq,osc_sq,marked\r\n"
                 + ("%d,%.17g,%.17g,%.17g,%d\r\n" * len(rows))
                 % tuple(rows.ravel().tolist()))


def export_plastic_state(state, indicators, outdir, marked=()):
    os.makedirs(outdir, exist_ok=True)
    mesh = state.mesh
    act = mesh.active_ids()
    L = deviatoric_dim(mesh.dim)
    # the weighted mean of |p| over each element's Gauss-point dofs
    w, start = state.qspace.weights, state.qspace.offsets[:-1]
    pnorm = (np.add.reduceat(w * np.linalg.norm(state.solution.p.reshape(-1, L),
                                                axis=1), start)
             / np.add.reduceat(w, start))
    cell = {"degree": mesh.degree[act],
            "plastic_norm": pnorm}
    if indicators is not None:
        cell["eta_sq"] = indicators.total
    point = {}
    uv = np.stack([state.space.vertex_values(state.solution.u[k::mesh.dim])
                   for k in range(mesh.dim)], axis=1)
    point["displacement"] = np.nan_to_num(uv)
    mesh.write_vtk(os.path.join(outdir, "state.vtk"), cell_data=cell,
                   point_data=point)
    mesh.write_text(os.path.join(outdir, "mesh.txt"))
    write_trace_csv(state.solution, os.path.join(outdir, "newton_trace.csv"))
    if indicators is not None:
        dump_indicators(indicators, marked, os.path.join(outdir, "indicators.csv"))

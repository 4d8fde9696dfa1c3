"""Run orchestration: one-shot solves, the estimator-driven elastoplastic
h-adaptive loop, the predictor-driven elliptic hp-adaptive loop, uniform
refinement loops, convergence tables and exports.

All run kinds share one loop, `_loop`, with one stop rule and one record
format; each run kind supplies only its step. The two adaptive steps are
deliberately independent: the elastoplastic step is steered by the residual
estimator only, the elliptic step by predicted error reductions only (each
loop advertises what it consults in its `consults` attribute).
"""

import csv
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import estimator as est
from . import predictor as pred
from .assembly import (assemble_system, element_groups, group_quadrature,
                       strain, total_energy)
from .config import ConfigError, RunConfig
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
    """One step of a run. records.csv holds the fields that records compare
    by, in this order; timings.csv holds the iteration and the wall time."""
    iteration: int
    dofs: int
    h_max: float
    energy: float
    newton_iterations: int
    estimate: float
    error_sq: float
    marked: int
    wall_time: float = field(default=0.0, compare=False)


_COLUMNS = tuple(f for f in fields(RunRecord) if f.compare)
_TIMINGS = _COLUMNS[:1] + tuple(f for f in fields(RunRecord) if not f.compare)


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

# preset: (kind, builder, {builder keyword: the (section, key) it is read
# from}). Every preset also reads [problem] preset, [mesh] degree and
# initial_refinements; the plastic and elastic kinds read [newton].
_PRESETS = {
    "plastic-square": ("plastic", plastic_square, {
        "n": ("mesh", "initial_cells"), "lam": ("material", "lam"),
        "mu": ("material", "mu"), "hardening": ("material", "hardening"),
        "yield_stress": ("material", "yield_stress"),
        "pull": ("problem", "pull"), "shear": ("problem", "shear")}),
    "elastic-square": ("elastic", elastic_square_manufactured, {
        "n": ("mesh", "initial_cells"), "lam": ("material", "lam"),
        "mu": ("material", "mu")}),
    "poisson-1d": ("elliptic", poisson_1d_singular, {
        "alpha": ("problem", "alpha"), "n": ("mesh", "initial_cells")}),
    "poisson-lshape": ("elliptic", poisson_lshape, {}),
}


def _build_problem(cfg: RunConfig):
    """(kind, mesh, material, loads, extra) of the configured preset;
    ConfigError for an unknown preset or for a key set away from its default
    that the preset does not read."""
    if cfg.problem.preset not in _PRESETS:
        raise ConfigError(f"unknown preset '{cfg.problem.preset}' "
                          f"(choose from {tuple(_PRESETS)})")
    kind, builder, args = _PRESETS[cfg.problem.preset]
    reads = {("problem", "preset"), ("mesh", "degree"),
             ("mesh", "initial_refinements"), *args.values()}
    if kind != "elliptic":
        reads |= {("newton", f.name) for f in fields(cfg.newton)}
    default = RunConfig()
    for name in ("problem", "material", "mesh", "newton"):
        section, base = getattr(cfg, name), getattr(default, name)
        for key in (f.name for f in fields(section)):
            if ((name, key) not in reads
                    and getattr(section, key) != getattr(base, key)):
                raise ConfigError(f"[{name}] {key} is not read by the preset "
                                  f"'{cfg.problem.preset}'")
    built = builder(degree=cfg.mesh.degree,
                    **{arg: getattr(getattr(cfg, name), key)
                       for arg, (name, key) in args.items()})
    material = loads = None
    if kind == "elliptic":
        mesh, extra = built
    else:
        mesh, material, loads, *extra = built
    for _ in range(cfg.mesh.initial_refinements):
        mesh = mesh.uniformly_refined()
    return kind, mesh, material, loads, extra


def _newton_config(cfg: RunConfig, material):
    rho = cfg.newton.rho if cfg.newton.rho > 0 else default_rho(material)
    return NewtonConfig(rho=rho, tol=cfg.newton.tol, max_iter=cfg.newton.max_iter)


def run_adaptive(cfg: RunConfig, outdir=None, reference_errors=False):
    """Dispatch on the configured loop; returns (records, final_state)."""
    kind, mesh, material, loads, extra = _build_problem(cfg)
    loop = cfg.run.loop
    if loop == "plastic-estimator":
        if kind != "plastic":
            raise ConfigError("plastic-estimator needs the plastic-square preset")
        return run_plastic_estimator(cfg, mesh, material, loads, outdir,
                                     reference_errors)
    if loop == "elliptic-predictor":
        if kind != "elliptic":
            raise ConfigError("elliptic-predictor needs a Poisson preset")
        return run_elliptic_predictor(cfg, mesh, extra, outdir)
    return run_uniform(cfg, kind, mesh, material, loads, extra, outdir)


def _loop(cfg, mesh, step, outdir):
    """SOLVE-ESTIMATE-MARK-REFINE, shared by all run kinds; returns (records,
    states). step(it, mesh) returns the record's (dofs, energy,
    newton_iterations, estimate, error_sq), the state to keep, the marked
    elements, a function writing the step's files under outdir (or None)
    and a function building the next mesh. A record's wall time runs from
    the start of its step until it is built, without the exports. The loop
    stops when dofs reach max_dofs, at the last iteration, when nothing is
    marked, or when tol > 0 and the estimate is at most tol."""
    run = cfg.run
    records, states = [], []
    for it in range(run.max_iterations):
        t0 = time.perf_counter()
        (dofs, *values), state, marked, export, refine = step(it, mesh)
        rec = RunRecord(it, dofs, _h_max(mesh), *values, len(marked),
                        time.perf_counter() - t0)
        records.append(rec)
        states.append(state)
        if outdir and export:
            export(outdir)
        if (dofs >= run.max_dofs or it == run.max_iterations - 1
                or not rec.marked or run.tol > 0 and rec.estimate <= run.tol):
            break
        mesh = refine()
    if outdir:
        write_records(records, outdir)
    return records, states


def run_plastic_estimator(cfg, mesh, material, loads, outdir=None,
                          reference_errors=False):
    def step(it, mesh):
        state = solve_plastic(mesh, material, loads, _newton_config(cfg, material))
        sol = state.solution
        ind = est.compute_indicators(state.space, state.qspace, material, loads,
                                     sol.u, sol.p, sol.lam)
        err_sq = refined_state_error(state)[0] if reference_errors else np.nan
        marked = est.mark_dorfler(ind, cfg.run.theta)
        return ((state.total_dofs, state.energy(), sol.iterations,
                 ind.global_estimate, err_sq), (state, ind), marked,
                lambda out: export_plastic_state(
                    state, ind, os.path.join(out, f"iter{it:03d}"), marked=marked),
                lambda: mesh.refine_many(marked))
    return _loop(cfg, mesh, step, outdir)


run_plastic_estimator.consults = ("estimator",)


def run_elliptic_predictor(cfg, mesh, problem, outdir=None):
    def step(it, mesh):
        state = solve_elliptic(mesh, problem)
        space = state.space
        chosen = pred.choose_enrichment(
            space, problem, state.A, state.b, state.u,
            {eid: pred.default_candidates(space, eid, menu="enrichment")
             for eid in mesh.active_ids()})
        predictions = {eid: best for eid, (best, _) in chosen.items()}
        gains = {eid: max(pr.delta_e2, 0.0) for eid, pr in predictions.items()}
        marked = est.mark_dorfler(gains, cfg.run.theta)
        return ((space.ndof, state.energy_sq(), 0, sum(gains.values()),
                 _scalar_error_sq(state)), (state, predictions), marked,
                lambda out: dump_predictions(
                    predictions, marked, os.path.join(out, f"pred{it:03d}.csv")),
                lambda: pred.apply_enrichment(
                    mesh, [predictions[eid] for eid in marked]))
    return _loop(cfg, mesh, step, outdir)


run_elliptic_predictor.consults = ("predictor",)


def run_uniform(cfg, kind, mesh, material, loads, extra, outdir=None):
    def step(it, mesh):
        if kind == "elliptic":
            state = solve_elliptic(mesh, extra)
            values = (state.energy_sq(), 0, np.nan, _scalar_error_sq(state))
        else:
            state = solve_plastic(mesh, material, loads,
                                  _newton_config(cfg, material))
            err_sq = (np.nan if not extra
                      else elastic_energy_error_sq(state, *extra))
            values = (state.energy(), state.solution.iterations, np.nan, err_sq)
        act = mesh.active_ids()
        refine = (mesh.uniformly_refined if cfg.run.loop == "uniform-h" else
                  lambda: mesh.with_degrees(dict(zip(act, mesh.degree[act] + 1))))
        return (state.total_dofs, *values), state, act, None, refine
    return _loop(cfg, mesh, step, outdir)


run_uniform.consults = ()


def _scalar_error_sq(state):
    """The energy error of an elliptic state, NaN without an exact gradient."""
    grad = state.problem.exact_grad
    return np.nan if grad is None else energy_error_sq(state.space, state.u, grad)


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

def convergence_table(records):
    """Rows (dofs, value, rate); the value is sqrt(error_sq) when a record has
    a finite error_sq, else sqrt(estimate). The rate compares successive
    records through log(e_i/e_{i+1}) / log(h_i/h_{i+1}) when h changes, else
    against dofs."""
    use_error = any(np.isfinite(r.error_sq) for r in records)
    rows = []
    vals = [np.sqrt(r.error_sq if use_error else r.estimate) for r in records]
    for i, r in enumerate(records):
        rate = float("nan")
        if i > 0 and vals[i] > 0 and vals[i - 1] > 0:
            h0, h1 = records[i - 1].h_max, r.h_max
            d0, d1 = records[i - 1].dofs, r.dofs
            if abs(h0 - h1) > 1e-14 * max(h0, h1):
                rate = np.log(vals[i - 1] / vals[i]) / np.log(h0 / h1)
            elif d0 > 0 and d1 > 0 and d0 != d1:
                rate = np.log(vals[i - 1] / vals[i]) / np.log(d1 / d0)
        rows.append((r.dofs, vals[i], rate))
    return rows


def format_table(rows):
    lines = [f"{'dofs':>10} {'value':>14} {'rate':>8}"]
    for dofs, val, rate in rows:
        lines.append(f"{dofs:>10d} {val:>14.6e} {rate:>8.3f}")
    return "\n".join(lines)


def write_records(records, outdir):
    """records.csv with floats in %.17g, so that it is byte-deterministic,
    and timings.csv with the wall times in %.6f."""
    os.makedirs(outdir, exist_ok=True)
    for name, columns, spec in (("records.csv", _COLUMNS, ".17g"),
                                ("timings.csv", _TIMINGS, ".6f")):
        with open(os.path.join(outdir, name), "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(f.name for f in columns)
            wr.writerows([format(getattr(r, f.name), spec) if f.type is float
                          else getattr(r, f.name) for f in columns]
                         for r in records)


def read_records(path):
    """The records of the records.csv at path. A missing or unparsable
    value raises ValueError naming the file, the line and the column."""
    def value(f, row, line):
        text = row.get(f.name)
        try:
            return f.type(text)
        except (TypeError, ValueError):
            what = f"no {f.name}" if text is None else f"{f.name} {text!r}"
            raise ValueError(f"{path}, line {line}: {what}") from None

    with open(path, newline="") as fh:
        rows = csv.DictReader(fh)
        return [RunRecord(**{f.name: value(f, row, rows.line_num) for f in _COLUMNS})
                for row in rows]


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

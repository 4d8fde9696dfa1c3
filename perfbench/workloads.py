"""The benchmark workloads: inputs made from a seed, the run, and the output
checks.

Seed 0 gives the stated inputs exactly. Other seeds perturb only the load
data: every load component is scaled by a factor in [1 - 0.5%, 1 + 0.5%], and
on the L-shape the volume load becomes f = 1 + 0.01 g(x) with a smooth g drawn
from the seed. The perturbations are small so that the amount of work hardly
depends on the seed: at +-2% the 7-iteration Newton solve of
plastic-solve-large took 6 iterations for one seed in five. The library only
ever receives the generated inputs.

Each workload is built in two parts, so that the caller can time them apart:
`prepare(name, seed)` builds the mesh, problem and configuration (set-up),
and the returned `Case.run(outdir)` drives hpfem and checks every output.
"""

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

import hpfem.driver as drv
from hpfem.assembly import Loads, Material
from hpfem.config import RunConfig
from hpfem.plasticity import check_complementarity, default_rho, residual
from hpfem.problems import cube_mesh, plastic_square, poisson_lshape

LOAD_JITTER = 0.005
F_JITTER = 0.01
INDICATOR_FLOOR = -1e-12
DELTA_FLOOR = -1e-12
COMPLEMENTARITY_TOL = 1e-9
ENERGY_RTOL = 1e-10

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Sizes are chosen so one repetition takes a few seconds on a 2-core box with
# the numpy fallback kernels; see README.md for the reasons behind each.
LSHAPE_MAX_DOFS = 200
LSHAPE_MAX_ITERATIONS = 20
EST2D_ITERATIONS = 6
LARGE_CELLS = 12
LARGE_DEGREE = 3
HEX_ITERATIONS = 2

WORKLOADS = ("lshape-predictor", "plastic-estimator-2d",
             "plastic-solve-large", "hex-estimator-3d")


@dataclass
class Outcome:
    """What one repetition did and which of its checks failed."""

    dofs: list                      # per step (one entry for a single solve)
    newton: list                    # Newton iterations per plastic solve
    energy: float                   # energy of the final state
    step_wall: list                 # RunRecord.wall_time per step
    failures: list = field(default_factory=list)   # (operation, check name)
    bytes_written: int = 0

    @property
    def attempted(self):
        return max(len(self.dofs), 1)

    @property
    def failed(self):
        return len({op for op, _ in self.failures})

    @property
    def newton_its(self):
        # The elliptic problem is linear: one Galerkin solve is one Newton
        # step, so the count is never 0 and still repeats exactly.
        return sum(self.newton) if self.newton else len(self.dofs)

    def fail(self, op, name):
        self.failures.append((int(op), name))


@dataclass
class Case:
    name: str
    seed: int
    inputs: dict                    # the generated load data, for the record
    run: object                     # callable(outdir) -> Outcome
    writes_output: bool = False


def load_factors(seed, n):
    if seed == 0:
        return [1.0] * n
    rng = np.random.default_rng(seed)
    return [float(x) for x in 1.0 + LOAD_JITTER * rng.uniform(-1.0, 1.0, n)]


def prepare(name, seed):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return {"lshape-predictor": _lshape_predictor,
            "plastic-estimator-2d": _plastic_estimator_2d,
            "plastic-solve-large": _plastic_solve_large,
            "hex-estimator-3d": _hex_estimator_3d}[name](seed)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _lshape_predictor(seed):
    mesh, problem = poisson_lshape(degree=1)
    inputs = {"f": "1"}
    if seed:
        rng = np.random.default_rng(seed)
        k = rng.uniform(0.5, 1.5, 2) * rng.choice((-1.0, 1.0), 2)
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        problem = dataclasses.replace(
            problem, volume=lambda x: 1.0 + F_JITTER * np.sin(x @ k + phase))
        inputs = {"f": f"1 + {F_JITTER} sin({k[0]:.6f} x + {k[1]:.6f} y "
                       f"+ {phase:.6f})"}
    cfg = RunConfig()
    cfg.problem.preset = "poisson-lshape"
    cfg.run.loop = "elliptic-predictor"
    cfg.run.theta = 0.7
    cfg.run.max_iterations = LSHAPE_MAX_ITERATIONS
    cfg.run.max_dofs = LSHAPE_MAX_DOFS

    def run(outdir):
        records, states = drv.run_elliptic_predictor(cfg, mesh, problem)
        out = Outcome(dofs=[r.dofs for r in records], newton=[],
                      energy=records[-1].energy,
                      step_wall=[r.wall_time for r in records])
        for i, (_, predictions) in enumerate(states):
            chosen = [p.delta_e2 for p in predictions.values() if not p.skipped]
            if chosen and min(chosen) < DELTA_FLOOR:
                out.fail(i, "delta_e2_nonnegative")
            if i and records[i].energy < records[i - 1].energy * (1 - 1e-12):
                out.fail(i, "energy_nondecreasing")
        if records[-1].dofs < cfg.run.max_dofs:
            out.fail(len(records) - 1, "reaches_max_dofs")
        return out

    return Case(name="lshape-predictor", seed=seed, inputs=inputs, run=run)


def _traction(components):
    """Traction on the face x = 1 of the unit cube; other Neumann faces are free."""
    comps = np.asarray(components, dtype=float)

    def traction(x):
        out = np.zeros_like(x)
        out[np.abs(x[:, 0] - 1.0) < 1e-9] = comps
        return out

    return traction


def _plastic_estimator_2d(seed):
    fp, fs = load_factors(seed, 2)
    pull, shear = 0.6 * fp, 0.12 * fs
    mesh, material, loads = plastic_square(n=4, degree=2, pull=pull,
                                           shear=shear)
    cfg = RunConfig()
    cfg.mesh.initial_cells = 4
    cfg.mesh.degree = 2
    cfg.run.theta = 0.3
    cfg.run.max_iterations = EST2D_ITERATIONS

    def run(outdir):
        records, states = drv.run_plastic_estimator(cfg, mesh, material,
                                                    loads, outdir)
        out = _plastic_outcome(records, states, material)
        out.bytes_written = _check_exports(out, outdir, len(records))
        return out

    return Case(name="plastic-estimator-2d", seed=seed,
                inputs={"pull": pull, "shear": shear}, run=run,
                writes_output=True)


def _plastic_solve_large(seed):
    fp, fs = load_factors(seed, 2)
    pull, shear = 0.6 * fp, 0.12 * fs
    mesh, material, loads = plastic_square(n=LARGE_CELLS, degree=LARGE_DEGREE,
                                           pull=pull, shear=shear)

    def run(outdir):
        state = drv.solve_plastic(mesh, material, loads)
        rec = drv.RunRecord(iteration=0, dofs=state.total_dofs, h_max=0.0,
                            energy=state.energy(),
                            newton_iterations=state.solution.iterations,
                            estimate=0.0, error_sq=0.0, marked=0)
        out = _plastic_outcome([rec], [(state, None)], material)
        out.step_wall = []  # a single solve, no adaptive loop
        return out

    return Case(name="plastic-solve-large", seed=seed,
                inputs={"pull": pull, "shear": shear}, run=run)


def _hex_estimator_3d(seed):
    fx, fz = load_factors(seed, 2)
    tx, tz = 0.5 * fx, 0.1 * fz
    mesh = cube_mesh(n=2, degree=2)
    mesh.tag_boundary(lambda c: "dirichlet" if c[0] < 1e-12 else "neumann")
    material = Material(lam=10.0, mu=5.0, hardening=1.0, yield_stress=0.3)
    loads = Loads(traction=_traction((tx, 0.0, tz)))
    cfg = RunConfig()
    cfg.run.theta = 0.3
    cfg.run.max_iterations = HEX_ITERATIONS

    def run(outdir):
        records, states = drv.run_plastic_estimator(cfg, mesh, material, loads)
        return _plastic_outcome(records, states, material)

    return Case(name="hex-estimator-3d", seed=seed,
                inputs={"traction": [tx, 0.0, tz]}, run=run)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _plastic_outcome(records, states, material):
    """Checks every plastic solve: convergence, residual, complementarity,
    indicator signs, and strictly increasing dofs."""
    out = Outcome(dofs=[r.dofs for r in records],
                  newton=[r.newton_iterations for r in records],
                  energy=records[-1].energy,
                  step_wall=[r.wall_time for r in records])
    tol = RunConfig().newton.tol
    rho = default_rho(material)
    for i, (state, ind) in enumerate(states):
        sol = state.solution
        if not sol.converged:
            out.fail(i, "newton_converged")
        r = residual(state.system, state.qspace, sol.u, sol.p, sol.lam, rho)
        if not np.abs(r).max() <= tol:
            out.fail(i, "residual_below_tol")
        rep = check_complementarity(state.qspace, sol.p, sol.lam)
        if not rep.max_violation < COMPLEMENTARITY_TOL:
            out.fail(i, "complementarity")
        if ind is not None and not all(
                np.all(part >= INDICATOR_FLOOR) for part in
                (ind.residual_part, ind.plastic_part, ind.oscillation, ind.total)):
            out.fail(i, "indicators_nonnegative")
        if i and records[i].dofs <= records[i - 1].dofs:
            out.fail(i, "dofs_increase")
    return out


def _check_exports(out, outdir, steps):
    """The loop writes records.csv plus one directory of exports per step."""
    with open(os.path.join(outdir, "records.csv")) as fh:
        if sum(1 for _ in fh) != steps + 1:
            out.fail(steps - 1, "records_csv_rows")
    for it in range(steps):
        sub = os.path.join(outdir, f"iter{it:03d}")
        for fname in ("state.vtk", "mesh.txt", "newton_trace.csv",
                      "indicators.csv"):
            if not os.path.isfile(os.path.join(sub, fname)):
                out.fail(it, f"export_{fname}")
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(outdir) for f in files)


def reference_values(out):
    return {"dofs": out.dofs, "newton": out.newton, "energy": out.energy}


def check_reference(name, out, path=REFERENCE_PATH):
    """Seed 0 only: the stored step count and dof trajectory (exact), Newton
    iterations per solve (exact) and final energy (relative 1e-10)."""
    with open(path) as fh:
        ref = json.load(fh)[name]
    last = len(out.dofs) - 1
    if out.dofs != ref["dofs"]:
        out.fail(last, "reference_dofs")
    if out.newton != ref["newton"]:
        out.fail(last, "reference_newton")
    if not abs(out.energy - ref["energy"]) <= ENERGY_RTOL * abs(ref["energy"]):
        out.fail(last, "reference_energy")

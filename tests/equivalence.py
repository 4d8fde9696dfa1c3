"""The equivalence argument for re-recording the plastic-path fixture
(tests/data/newton_parent.json): two checkouts run the same plastic cases
and the Poisson predictor loops, and a change that only reorders
floating-point work must give the same Newton runs and the same adaptive
runs, and a change that only reorders integer bookkeeping the same
operators bit for bit.

    python tests/equivalence.py REV

REV is a git revision of this repository (the parent of a change). It is
extracted with `git archive` into a temporary directory, and it and the
working tree each run in a subprocess, single-threaded, on:

- the solve and matrix cases of tests/test_newton_parity.py (each checkout's
  own copy of that file);
- the perfbench workloads at seeds 0 and 9173: the three plastic ones and
  `lshape-predictor`, whose Poisson solves and predictions read the field
  through `ScalarSpace.element_coeffs` as the plastic path does;
- acceptance criterion 11's L-shape predictor loop (`poisson-lshape`,
  `elliptic-predictor`, theta 0.7, at most 20 steps, to 2 600 dofs);
- three random enrichment walks (seeds 0, 1, 2): 12 p- or hp-enrichments
  of random elements of a 2 x 2 square mesh, each applied by
  `predictor.apply_enrichment` and followed by a space build. Unlike the
  loops above, where no raise leaves a neighbor two degrees behind, they
  make the degree closure raise;
- the predictor parity cases of tests/test_predictor_parity.py (each
  checkout's own copy of that file): every element's candidates of both
  menus through `predictor.choose_enrichment`.

For every case it checks that
- every Newton solve has the same convergence flag, retry count and number
  of trace rows, and equal iteration numbers, step lengths and active-set
  sizes on every row;
- the final |F| of every solve is at most 1e-11 on both sides;
- the energies of every solve, and the final energy of every workload,
  agree within 1e-12 relative;
- the dof trajectories, the marked element sets and the failed benchmark
  checks (the seed-0 reference checks included) are identical;
- the values each marking step is given (the indicator totals, or the
  predicted gains) agree within 1e-12 of that step's largest value;
- the condensed matrices of the matrix cases are bit-identical;
- the local-to-global operator P (indptr, indices, data) of every
  `ScalarSpace` a case builds is bit-identical, space by space (SHA-256
  digests of the arrays), and so is the active mesh it is built on (the
  corners, boxes, degrees and tags of the active elements, and the
  vertices);
- so are the assembled matrices and loads, solve by solve and choice by
  choice: K, B, C (indptr, indices, data) and l of every mixed system a
  Newton solve is given, and A_W and b_W of every `choose_enrichment`
  call. The digests read the attributes that scipy matrices and the
  package's records share, index dtypes included;
- the enrichments handed to `predictor.apply_enrichment` (element, kind
  and dividing point of every prediction) are identical;
- every prediction of the predictor parity cases has the same skip reason,
  and its delta_e2, eps and y agree within 1e-12 of max(|value|, 1).

It prints, per case, the number of spaces built, the number of solves, the
largest final |F| of the working tree and the largest relative deviations
- of |F| and of the merit over all trace rows, and of the merit over the
  rows with |F| above 1e-8 (SIGNAL), which are not rounding noise;
- of |F| and of the merit over the rows with |F| above 1e-8 after the start
  (row 1 and later): a change of the starting point moves row 0 by design,
  so these are the figures that argue such a change;
- of the energy, over all solves, and of the marked values, relative to
  each step's largest value;
- of the predicted delta_e2 of the predictor parity cases.

For the predictor cases it prints, on the working tree, the smallest flip
margin of an element's choice over all steps: the distance between the gap
of its best and runner-up predicted reductions and the tie tolerance of
`predictor._best` (TIE_RTOL times the larger reduction), relative to the
larger reduction and in units of TIE_RTOL. A margin at or below MARK_RTOL /
TIE_RTOL (0.01) means that a change the gains' check lets pass can flip a
choice. It exits with status 1 if a check fails. It is not a test module,
so pytest does not collect it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("plastic-estimator-2d", "plastic-solve-large", "hex-estimator-3d",
             "lshape-predictor")
SEEDS = (0, 9173)
F_TOL = 1e-11
SIGNAL = 1e-8  # trace rows with |F| above it are not rounding noise
ENERGY_RTOL = 1e-12
MARK_RTOL = 1e-12  # marked values, relative to each step's largest value
PREDICTION_RTOL = 1e-12  # predictions, relative to max(|value|, 1)
WALK_SEEDS, WALK_STEPS = (0, 1, 2), 12


def _digest(a):
    a = np.ascontiguousarray(a)
    return f"{a.dtype.str}:{hashlib.sha256(a.tobytes()).hexdigest()}"


def _mesh_digest(mesh):
    """One SHA-256 digest of the active elements' corners, boxes, degrees
    and tags, and of the vertices."""
    act = np.flatnonzero(mesh.first_child < 0)
    h = hashlib.sha256(json.dumps(mesh.tags[act].tolist()).encode())
    for a in (mesh.corners[act], mesh.boxes[act], mesh.degree[act], mesh.vertices):
        h.update(_digest(a).encode())
    return h.hexdigest()


def _flip_margin(preds, tie_rtol):
    """The distance between the gap of the two largest reductions of the
    live predictions and `_best`'s tie tolerance, relative to the larger
    reduction, in units of tie_rtol; None below two nonzero reductions."""
    d = sorted((pr.delta_e2 for pr in preds if not pr.skipped), reverse=True)
    top = max(abs(d[0]), abs(d[1])) if len(d) > 1 else 0.0
    if not top:
        return None
    return abs(d[0] - d[1] - tie_rtol * top) / top / tie_rtol


def run_cases(root):
    """Every case on the checkout at root, as {case: record}."""
    for sub in ("perfbench", "tests", "src"):
        sys.path.insert(0, os.path.join(root, sub))
    import hpfem
    if not os.path.abspath(hpfem.__file__).startswith(os.path.join(root, "src")):
        raise ImportError(f"hpfem was imported from {hpfem.__file__}")
    import hpfem.driver as drv
    import hpfem.estimator as est
    import hpfem.plasticity as pl
    import hpfem.predictor as pred
    import test_newton_parity as parity
    import test_predictor_parity as pparity
    import hpfem.space
    import workloads
    from hpfem.assembly import total_energy
    from hpfem.config import RunConfig
    from hpfem.elliptic import solve_scalar
    from hpfem.problems import square_mesh

    solves, marked, values, spaces, meshes, chosen, margins, matrices = (
        [] for _ in range(8))
    real_solve, real_mark = pl.solve_semismooth_newton, est.mark_dorfler
    real_space = hpfem.space.ScalarSpace.__init__
    real_choose, real_apply = pred.choose_enrichment, pred.apply_enrichment

    def digests(*arrays):
        """The digests of vectors, and of the indptr, indices and data of
        matrices."""
        return [_digest(x) for a in arrays for x in (
            (a.indptr, a.indices, a.data) if hasattr(a, "indptr") else (a,))]

    def solve(system, qspace, *args, **kwargs):
        matrices.append(digests(system.K, system.B, system.C, system.l))
        sol = real_solve(system, qspace, *args, **kwargs)
        solves.append({"converged": bool(sol.converged), "retries": sol.retries,
                       "trace": [[float(v) for v in row] for row in sol.trace],
                       "energy": total_energy(system, qspace, sol.u, sol.p)})
        return sol

    def mark(indicators, *args, **kwargs):
        out = real_mark(indicators, *args, **kwargs)
        marked.append(sorted(int(e) for e in out))
        values.append([float(v) for v in (
            indicators.total if isinstance(indicators, est.ErrorIndicators)
            else (indicators[e] for e in sorted(indicators)))])
        return out

    def space(self, mesh):
        real_space(self, mesh)
        spaces.append([_digest(a) for a in self.P])
        meshes.append(_mesh_digest(mesh))

    def choose(space, problem, A_W, b_W, *args, **kwargs):
        matrices.append(digests(A_W, b_W))
        out = real_choose(space, problem, A_W, b_W, *args, **kwargs)
        margins.extend(g for g in (_flip_margin(preds, est.TIE_RTOL)
                                   for _, preds in out.values()) if g is not None)
        return out

    def apply(mesh, predictions):
        chosen.append([[int(c.element), c.kind, None if c.zhat is None
                        else [float(z) for z in c.zhat]]
                       for c in (pr.candidate for pr in predictions)])
        return real_apply(mesh, predictions)

    for module in (pl, drv, parity):
        module.solve_semismooth_newton = solve
    est.mark_dorfler = mark
    hpfem.space.ScalarSpace.__init__ = space
    pred.choose_enrichment, pred.apply_enrichment = choose, apply

    def case_result(**result):
        out = {"solves": list(solves), "marked": list(marked),
               "values": list(values), "P": list(spaces), "mesh": list(meshes),
               "chosen": list(chosen), "flip_margin": min(margins, default=None),
               "matrices": list(matrices), **result}
        for seen in (solves, marked, values, spaces, meshes, chosen, margins,
                     matrices):
            seen.clear()
        return out

    results = {}
    for case in parity.SOLVE_CASES:
        parity.solve(case)
        results[case] = case_result()
    for case in parity.MATRIX_CASES:
        A = parity.condensed(case)
        results[case] = case_result(matrix=[_digest(getattr(A, key))
                                            for key in ("indptr", "indices", "data")])
    for name in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as outdir:
                out = workloads.prepare(name, seed).run(outdir)
            if seed == 0:
                workloads.check_reference(name, out)
            results[f"{name}@{seed}"] = case_result(
                dofs=out.dofs, energy=out.energy,
                failures=sorted(map(list, out.failures)))
    cfg = RunConfig()
    cfg.problem.preset = "poisson-lshape"
    cfg.run.loop = "elliptic-predictor"
    cfg.run.theta = 0.7
    cfg.run.max_iterations = 20
    cfg.run.max_dofs = 2600
    records, _ = drv.run_adaptive(cfg)
    results["criterion-11-lshape"] = case_result(
        dofs=[r.dofs for r in records], energy=records[-1].energy)
    for seed in WALK_SEEDS:
        rng = np.random.default_rng(seed)
        mesh = square_mesh(2, 2, tagger=lambda c: "neumann")
        for _ in range(WALK_STEPS):
            act = mesh.active_ids()
            eid = act[int(rng.integers(len(act)))]
            hp = rng.uniform() < 0.4
            cand = pred.EnrichmentCandidate(kind="hp" if hp else "p", element=eid,
                                            zhat=(0.0, 0.0) if hp else None)
            mesh = pred.apply_enrichment(mesh, [pred.Prediction(
                candidate=cand, delta_e2=0.0, eps=0.0, y=np.zeros(0), rho_w_yxi=0.0)])
            hpfem.space.ScalarSpace(mesh)
        results[f"enrichment-walk@{seed}"] = case_result()
    for case in pparity.CASES:
        space, problem, cands = pparity.prediction_case(case)
        u, A, b = solve_scalar(space, problem)
        out = pred.choose_enrichment(space, problem, A, b, u, cands)
        results[f"predictor-{case}"] = case_result(predictions=[
            [pr.skipped, pr.delta_e2, pr.eps, np.asarray(pr.y).tolist()]
            for eid in sorted(out) for pr in out[eid][1]])
    return results


def _in_subprocess(root):
    env = dict(os.environ, PYTHONPATH="", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                           root], env=env, check=True, capture_output=True,
                          text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a - b)


def compare(old, new):
    """(problems, figures) of one case: the failed checks, and the largest
    final |F| of new and the largest relative deviations."""
    problems = []
    if old["P"] != new["P"]:
        problems.append(f"P not bit-identical ({len(old['P'])} and "
                        f"{len(new['P'])} spaces)")
    if old["mesh"] != new["mesh"]:
        problems.append("meshes not bit-identical")
    if old["matrices"] != new["matrices"]:
        problems.append(f"assembled matrices not bit-identical ({len(old['matrices'])} "
                        f"and {len(new['matrices'])} systems)")
    if "matrix" in old:
        if old["matrix"] != new["matrix"]:
            problems.append("condensed matrix not bit-identical")
        return problems, {}
    for key in ("dofs", "marked", "failures", "chosen"):
        if old.get(key) != new.get(key):
            problems.append(f"{key} differ: {old.get(key)} != {new.get(key)}")
    figs = {"final_F": 0.0, "F_dev": 0.0, "merit_dev": 0.0, "merit_dev_8": 0.0,
            "F_dev_1": 0.0, "merit_dev_1": 0.0, "energy_dev": 0.0, "mark_dev": 0.0,
            "pred_dev": 0.0}
    preds_old, preds_new = old.get("predictions", []), new.get("predictions", [])
    if len(preds_old) != len(preds_new):
        problems.append(f"{len(preds_old)} != {len(preds_new)} predictions")
    for k, (a, b) in enumerate(zip(preds_old, preds_new)):
        if a[0] != b[0] or len(a[3]) != len(b[3]):
            problems.append(f"prediction {k}: skip {a[0]!r} != {b[0]!r} "
                            f"or {len(a[3])} != {len(b[3])} entries of y")
            continue
        figs["pred_dev"] = max(figs["pred_dev"], _rel(b[1], a[1]))
        ref, have = np.array([a[1], a[2], *a[3]]), np.array([b[1], b[2], *b[3]])
        if not np.all(np.abs(have - ref) <= PREDICTION_RTOL
                      * np.maximum(np.abs(ref), 1.0)):
            problems.append(f"prediction {k}: delta_e2, eps or y off")
    for k, (a, b) in enumerate(zip(old.get("values", []), new.get("values", []))):
        if len(a) != len(b):
            problems.append(f"marking {k}: {len(a)} != {len(b)} values")
            continue
        if a:
            a, b = np.array(a), np.array(b)
            scale = np.abs(a).max()
            dev = float(np.abs(b - a).max() / scale if scale else np.abs(b - a).max())
            figs["mark_dev"] = max(figs["mark_dev"], dev)
            if not dev <= MARK_RTOL:
                problems.append(f"marking {k}: values {dev:.3g} relative off")
    if "energy" in old:
        figs["energy_dev"] = _rel(new["energy"], old["energy"])
        if not figs["energy_dev"] <= ENERGY_RTOL:
            problems.append(f"final energy {figs['energy_dev']:.3g} relative off")
    if len(old["solves"]) != len(new["solves"]):
        problems.append(f"{len(old['solves'])} != {len(new['solves'])} solves")
        return problems, figs
    for k, (a, b) in enumerate(zip(old["solves"], new["solves"])):
        for key in ("converged", "retries"):
            if a[key] != b[key]:
                problems.append(f"solve {k}: {key} {a[key]} != {b[key]}")
        if len(a["trace"]) != len(b["trace"]):
            problems.append(f"solve {k}: {len(a['trace'])} != "
                            f"{len(b['trace'])} trace rows")
            continue
        for row, (ra, rb) in enumerate(zip(a["trace"], b["trace"])):
            if (ra[0], ra[3], ra[4]) != (rb[0], rb[3], rb[4]):
                problems.append(f"solve {k}: row {ra} != {rb}")
            F_dev, merit_dev = _rel(rb[1], ra[1]), _rel(rb[2], ra[2])
            figs["F_dev"] = max(figs["F_dev"], F_dev)
            figs["merit_dev"] = max(figs["merit_dev"], merit_dev)
            if ra[1] > SIGNAL:
                figs["merit_dev_8"] = max(figs["merit_dev_8"], merit_dev)
                if row:
                    figs["F_dev_1"] = max(figs["F_dev_1"], F_dev)
                    figs["merit_dev_1"] = max(figs["merit_dev_1"], merit_dev)
        for side, trace in (("old", a["trace"]), ("new", b["trace"])):
            if not trace[-1][1] <= F_TOL:
                problems.append(f"solve {k}: final |F| {trace[-1][1]:.3g} "
                                f"> {F_TOL} ({side})")
        figs["final_F"] = max(figs["final_F"], b["trace"][-1][1])
        dev = _rel(b["energy"], a["energy"])
        figs["energy_dev"] = max(figs["energy_dev"], dev)
        if not dev <= ENERGY_RTOL:
            problems.append(f"solve {k}: energy {dev:.3g} relative off")
    return problems, figs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="git revision to compare against")
    ap.add_argument("--child", metavar="ROOT", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(run_cases(args.child)))
        return 0
    if not args.rev:
        ap.error("a git revision is required")
    with tempfile.TemporaryDirectory() as parent:
        tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                              args.rev], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent], input=tar, check=True)
        old = _in_subprocess(parent)
    new = _in_subprocess(ROOT)
    failed = False
    print(f"{'case':26s} {'spaces':>6s} {'solves':>6s} {'final |F|':>10s} {'|F| dev':>9s} "
          f"{'merit dev':>9s} {'(|F|>1e-8)':>10s} {'|F| dev1+':>10s} "
          f"{'merit dev1+':>11s} {'energy dev':>10s} "
          f"{'mark dev':>9s} {'dE2 dev':>9s} {'flip mrg':>9s}  result")
    for case in old:
        problems, figs = compare(old[case], new[case])
        failed |= bool(problems)
        cols = (f"{len(new[case]['P']):6d} {len(new[case].get('solves', [])):6d} "
                + (" ".join(f"{figs[k]:{w}.2e}" for k, w in
                            (("final_F", 10), ("F_dev", 9), ("merit_dev", 9),
                             ("merit_dev_8", 10), ("F_dev_1", 10),
                             ("merit_dev_1", 11), ("energy_dev", 10),
                             ("mark_dev", 9), ("pred_dev", 9)))
                  if figs else f"{'':95s}")
                + (f" {'':9s}" if new[case]["flip_margin"] is None
                   else f" {new[case]['flip_margin']:9.2e}"))
        print(f"{case:26s} {cols}  {'; '.join(problems) or 'equivalent'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

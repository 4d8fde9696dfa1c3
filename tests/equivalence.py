"""The equivalence argument for re-recording the plastic-path fixture
(tests/data/newton_parent.json): two checkouts run the same plastic cases
and the Poisson predictor loop, and a change that only reorders
floating-point work must give the same Newton runs and the same adaptive
runs.

    python tests/equivalence.py REV

REV is a git revision of this repository (the parent of a change). It is
extracted with `git archive` into a temporary directory, and it and the
working tree each run in a subprocess, single-threaded, on:

- the solve and matrix cases of tests/test_newton_parity.py (each checkout's
  own copy of that file);
- the perfbench workloads at seeds 0 and 9173: the three plastic ones and
  `lshape-predictor`, whose Poisson solves and predictions read the field
  through `ScalarSpace.element_coeffs` as the plastic path does.

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
- the condensed matrices of the matrix cases are bit-identical.

It prints, per case, the largest final |F| of the working tree and the
largest relative deviations of |F|, of the merit (over all trace rows, and
over the rows with |F| above 1e-8, which are not rounding noise), of the
energy, over all solves, and of the marked values, relative to each step's
largest value, and exits with status 1 if a check fails. It is not
a test module, so pytest does not collect it.
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


def _digest(a):
    a = np.ascontiguousarray(a)
    return f"{a.dtype.str}:{hashlib.sha256(a.tobytes()).hexdigest()}"


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
    import test_newton_parity as parity
    import workloads
    from hpfem.assembly import total_energy

    solves, marked, values = [], [], []
    real_solve, real_mark = pl.solve_semismooth_newton, est.mark_dorfler

    def solve(system, qspace, *args, **kwargs):
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

    for module in (pl, drv, parity):
        module.solve_semismooth_newton = solve
    est.mark_dorfler = mark

    results = {}
    for case in parity.SOLVE_CASES:
        solves.clear()
        parity.solve(case)
        results[case] = {"solves": list(solves)}
    for case in parity.MATRIX_CASES:
        A = parity.condensed(case)
        results[case] = {"matrix": [_digest(getattr(A, key))
                                    for key in ("indptr", "indices", "data")]}
    for name in WORKLOADS:
        for seed in SEEDS:
            solves.clear()
            marked.clear()
            values.clear()
            with tempfile.TemporaryDirectory() as outdir:
                out = workloads.prepare(name, seed).run(outdir)
            if seed == 0:
                workloads.check_reference(name, out)
            results[f"{name}@{seed}"] = {
                "solves": list(solves), "dofs": out.dofs, "marked": list(marked),
                "values": list(values), "energy": out.energy,
                "failures": sorted(map(list, out.failures))}
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
    if "matrix" in old:
        if old["matrix"] != new["matrix"]:
            problems.append("condensed matrix not bit-identical")
        return problems, {}
    for key in ("dofs", "marked", "failures"):
        if old.get(key) != new.get(key):
            problems.append(f"{key} differ: {old.get(key)} != {new.get(key)}")
    figs = {"final_F": 0.0, "F_dev": 0.0, "merit_dev": 0.0, "merit_dev_8": 0.0,
            "energy_dev": 0.0, "mark_dev": 0.0}
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
        for ra, rb in zip(a["trace"], b["trace"]):
            if (ra[0], ra[3], ra[4]) != (rb[0], rb[3], rb[4]):
                problems.append(f"solve {k}: row {ra} != {rb}")
            figs["F_dev"] = max(figs["F_dev"], _rel(rb[1], ra[1]))
            figs["merit_dev"] = max(figs["merit_dev"], _rel(rb[2], ra[2]))
            if ra[1] > SIGNAL:
                figs["merit_dev_8"] = max(figs["merit_dev_8"], _rel(rb[2], ra[2]))
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
    print(f"{'case':26s} {'solves':>6s} {'final |F|':>10s} {'|F| dev':>9s} "
          f"{'merit dev':>9s} {'(|F|>1e-8)':>10s} {'energy dev':>10s} "
          f"{'mark dev':>9s}  result")
    for case in old:
        problems, figs = compare(old[case], new[case])
        failed |= bool(problems)
        cols = (f"{len(new[case].get('solves', [])):6d} "
                + (" ".join(f"{figs[k]:{w}.2e}" for k, w in
                            (("final_F", 10), ("F_dev", 9), ("merit_dev", 9),
                             ("merit_dev_8", 10), ("energy_dev", 10),
                             ("mark_dev", 9)))
                  if figs else f"{'':60s}"))
        print(f"{case:26s} {cols}  {'; '.join(problems) or 'equivalent'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

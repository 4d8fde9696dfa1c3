"""One repetition of one workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 [--spans PATH]

Prints one JSON object as its last line of output. Set-up time runs from the
first statement of this file through importing numpy, scipy and hpfem and
building the workload's mesh, problem and configuration; wall time runs from
the first call into the workload to its checked result. Right before and
right after the workload, the child times a fixed reference computation
(`reference_s`), so the parent can scale both times to a common machine
speed. Exit code 3 means the set-up itself failed (for example, hpfem is not
importable); a failure inside the workload is reported in the JSON instead.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_FAILED = 3


def _setup(workload, seed):
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import hpfem
    import hpfem.driver  # noqa: F401
    if not os.path.abspath(hpfem.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hpfem was imported from {hpfem.__file__}, "
                          f"not from {SRC}")
    import workloads
    case = workloads.prepare(workload, seed)
    versions = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                "hpfem": hpfem.__version__}
    return case, versions, int(hpfem.IS_COMPILED)


def reference_s():
    """Seconds for a fixed mix of the kinds of work hpfem does: interpreter
    loops around small dense numpy calls, and sparse LU factorizations (median
    of three timings). Keep it unchanged: scaled figures are only comparable
    under the same reference."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    a = np.eye(6) * 4.0 + 1.0
    b = np.arange(6.0)
    n = 40
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    A = (sp.kron(sp.eye(n), T) + sp.kron(T, sp.eye(n))).tocsc()
    rhs = np.ones(n * n)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(2000):
            x = np.linalg.solve(a, b)
            acc += float(x @ x) + sum(j * j for j in range(40))
        for _ in range(4):
            acc += spla.splu(A).solve(rhs)[0]
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    try:
        case, versions, compiled = _setup(args.workload, args.seed)
    except Exception:
        traceback.print_exc()
        return SETUP_FAILED
    setup_s = time.perf_counter() - T_START

    import tracing
    import workloads
    tracer = None
    run = case.run
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.traced(tracing.ROOT_SPAN, run)

    outdir = None
    if case.writes_output:
        scratch = os.path.join(ROOT, ".perfbench", "tmp")
        os.makedirs(scratch, exist_ok=True)
        outdir = tempfile.mkdtemp(dir=scratch)
    ref_before = reference_s()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    out = None
    error = None
    try:
        out = run(outdir)
        if args.seed == 0:
            workloads.check_reference(case.name, out)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc()
        error = f"exception: {type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    ref_after = reference_s()
    if outdir:
        shutil.rmtree(outdir, ignore_errors=True)

    res = {"workload": case.name, "seed": case.seed, "inputs": case.inputs,
           "traced": bool(args.trace), "setup_s": setup_s, "wall_s": wall_s,
           "cpu_s": cpu_s, "reference_s": 0.5 * (ref_before + ref_after),
           "reference_before_s": ref_before, "reference_after_s": ref_after,
           "versions": versions,
           "kernels_compiled": compiled,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if out is None:
        res.update(attempted=1, failed=1, failures=[[0, error]], dofs=[],
                   newton=[], newton_its=0)
    else:
        res.update(attempted=out.attempted, failed=out.failed,
                   failures=out.failures, dofs=out.dofs, newton=out.newton,
                   newton_its=out.newton_its, energy=out.energy)
    if tracer is not None:
        if out is not None:
            layers = tracing.layer_metrics(tracer, out, compiled)
            res["layers"] = {k: v for k, (v, _) in layers.items()}
            res["units"] = {k: u for k, (_, u) in layers.items()}
            res["self_sum_s"] = sum(tracer.self_times()[0].values())
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

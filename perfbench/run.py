"""hpfem benchmark: end-to-end metrics per workload, or per-layer metrics
from traced runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh process (perfbench/child.py), one at a time,
as a user of `hpfem adapt` pays it. Repetitions are started until the next
one would end after S seconds (at least MIN_REPS). The last line of output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it print the environment, every metric with its unit and sample
count, and every failed check by name. A full record of the run is saved to
.perfbench/results/.

--trace 0 reports the end-to-end metrics, medians over repetitions:
  wall_s       first call into the workload to its checked result
  setup_s      importing numpy, scipy and hpfem and building the inputs
  peak_rss_mb  peak resident memory of the repetition's process
  newton_its   semi-smooth Newton iterations over the workload's solves
               (one per linear Galerkin solve on lshape-predictor)
  ok_frac      1 - fail_frac: operations (adaptive steps or solves) that
               passed every check, over those attempted
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see tracing.layer_metrics), plus
trace.wall_s, trace.overhead_frac and the unscaled proc.* figures.

Times are in reference seconds. Each repetition times a fixed reference
computation right before and after the workload, and its times are scaled by
REFERENCE_NOMINAL_S / reference_s. The speed of a shared machine drifts by
tens of percent over minutes, and the scaling removes most of that drift from
the comparison of two runs. The proc.* metrics are not scaled.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(ROOT, ".perfbench", "results")

MIN_REPS = 3          # per kind of repetition (untraced, traced)
DEADLINE_S = 170.0    # the whole run ends within this, whatever --seconds says
SELF_SUM_TOL = 0.05   # self times must add up to the traced wall time
REFERENCE_NOMINAL_S = 0.035  # reference time of the machine times are scaled to


def child_env():
    env = dict(os.environ)
    # BLAS threads are fixed before numpy is imported in the child.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


class SetupFailed(RuntimeError):
    pass


def run_child(args, traced, timeout):
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced))]
    if traced:  # the spans of the last traced repetition are kept
        cmd += ["--spans", os.path.join(
            RESULTS, f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "attempted": 1, "failed": 1,
                "failures": [[0, f"timeout after {timeout:.0f} s"]]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SetupFailed(f"repetition exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def run_reps(args):
    """Repetitions one at a time until the time is used up."""
    kinds = [False, True] if args.trace else [False]
    reps = {k: [] for k in kinds}
    durations = []
    t_begin = time.perf_counter()
    while True:
        kind = min(kinds, key=lambda k: len(reps[k]))
        elapsed = time.perf_counter() - t_begin
        enough = all(len(reps[k]) >= MIN_REPS for k in kinds)
        typical = statistics.median(durations) if durations else 0.0
        if enough and elapsed + typical > args.seconds:
            break
        if elapsed + typical > DEADLINE_S:
            break
        t0 = time.perf_counter()
        rep = run_child(args, kind, timeout=max(DEADLINE_S - elapsed, 1.0))
        durations.append(time.perf_counter() - t0)
        reps[kind].append(rep)
    return reps


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def scaled(rep, seconds):
    """Seconds at the speed where the reference computation takes
    REFERENCE_NOMINAL_S."""
    return seconds * REFERENCE_NOMINAL_S / rep["reference_s"]


def scaled_median(reps, key):
    return statistics.median(scaled(r, r[key]) for r in reps)


def aggregate(args, reps):
    """Metrics, attempted and failed counts, and named failed checks."""
    plain = [r for r in reps[False] if "wall_s" in r]
    all_reps = [r for rs in reps.values() for r in rs]
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    failures = sorted({name for r in all_reps for _, name in r["failures"]})

    def repeat(label, values):
        if len(set(values)) > 1:
            failures.append(f"{label}_repeats")

    metrics, units, samples = {}, {}, {}
    if not args.trace:
        for key, unit, stat in (("wall_s", "s", scaled_median),
                                ("setup_s", "s", scaled_median),
                                ("peak_rss_mb", "MB", median_of)):
            metrics[key] = stat(plain, key) if plain else float("nan")
            units[key] = unit
            samples[key] = len(plain)
        its = [r["newton_its"] for r in plain]
        repeat("newton_its", its)
        metrics["newton_its"] = its[0] if its else float("nan")
        units["newton_its"] = "count"
        samples["newton_its"] = len(its)
        metrics["ok_frac"] = 1.0 - failed / attempted
        units["ok_frac"] = "ratio"
        samples["ok_frac"] = attempted
    else:
        traced = [r for r in reps[True] if "layers" in r]
        for name in (traced[0]["layers"] if traced else ()):
            vals = [r["layers"][name] for r in traced]
            if traced[0]["units"][name] == "s":
                metrics[name] = statistics.median(
                    scaled(r, v) for r, v in zip(traced, vals))
            else:
                repeat(name, vals)
                metrics[name] = vals[0]
            units[name] = traced[0]["units"][name]
            samples[name] = len(vals)
        for r in traced:
            if abs(r["self_sum_s"] / r["wall_s"] - 1.0) > SELF_SUM_TOL:
                failures.append("self_times_sum_to_wall")
        if plain and traced:
            metrics["trace.wall_s"] = scaled_median(traced, "wall_s")
            metrics["trace.overhead_frac"] = (
                metrics["trace.wall_s"] / scaled_median(plain, "wall_s") - 1.0)
            metrics["proc.wall_s"] = median_of(plain, "wall_s")
            metrics["proc.cpu_s"] = median_of(plain, "cpu_s")
            metrics["proc.reference_s"] = median_of(plain, "reference_s")
            for name, unit, n in (("trace.wall_s", "s", len(traced)),
                                  ("trace.overhead_frac", "ratio", len(traced)),
                                  ("proc.wall_s", "s", len(plain)),
                                  ("proc.cpu_s", "s", len(plain)),
                                  ("proc.reference_s", "s", len(plain))):
                units[name] = unit
                samples[name] = n
        else:
            failures.append("no_traced_result")
    backends = {r["kernels_compiled"] for r in all_reps if "kernels_compiled" in r}
    if len(backends) > 1:
        failures.append("kernel_backend_changed")
    return metrics, units, samples, attempted, failed, sorted(set(failures))


def environment(reps):
    first = next((r for rs in reps.values() for r in rs if "versions" in r), {})
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(),
            "numpy": first.get("versions", {}).get("numpy"),
            "scipy": first.get("versions", {}).get("scipy"),
            "git_commit": git_commit(),
            "kernels_compiled": first.get("kernels_compiled")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hpfem", "__init__.py")):
        sys.stderr.write(f"no hpfem sources under {ROOT}/src\n")
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    try:
        reps = run_reps(args)
    except SetupFailed as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    metrics, units, samples, attempted, failed, failures = aggregate(args, reps)
    env = environment(reps)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(env)}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6g} {units[name]:6s} (n={samples[name]})")
    print(f"{'fail_frac':40s} {failed / attempted:16.6g} ratio  "
          f"({failed}/{attempted} operations)")
    for name in failures:
        print(f"FAILED {name}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": metrics, "units": units, "samples": samples,
              "failures": failures, "repetitions": reps}
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not failures and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

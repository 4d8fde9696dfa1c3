"""Compare two sets of saved benchmark records.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records that perfbench/run.py saves in
.perfbench/results/ (copy that directory aside after running the seeds of one
commit). For every workload and trace mode present on both sides, prints each
metric's median over the records, the base side's quartile spread as a share
of its median, and the relative change of the median. Refuses, with exit code
2, to compare records whose kernel backends differ.
"""

import glob
import json
import os
import statistics
import sys


def load(directory):
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path) as fh:
            rec = json.load(fh)
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {rec["env"]["kernels_compiled"]
                for side in (base, new) for recs in side.values() for rec in recs}
    if len(backends) > 1:
        sys.stderr.write("refusing to compare: kernel backends differ "
                         f"(kernels_compiled in {sorted(backends)})\n")
        return 2
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"## {workload} trace={trace} "
              f"(base n={len(base[key])}, new n={len(new[key])})")
        for name, unit in base[key][0]["units"].items():
            b = [r["metrics"][name] for r in base[key] if name in r["metrics"]]
            n = [r["metrics"][name] for r in new[key] if name in r["metrics"]]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn / mb - 1.0) if mb else float("nan")
            print(f"{name:40s} {mb:14.6g} {mn:14.6g} {unit:6s} "
                  f"change {change:+8.2%}  base spread {spread(b):7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

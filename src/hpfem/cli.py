"""Command-line driver: solve | adapt | table | export.

Exit codes: 0 success, 2 solver failure, 3 bad configuration or a missing or
malformed records.csv.
"""

import argparse
import os
import sys

from .config import _LOOPS, ConfigError, RunConfig, dump_config, load_config
from .driver import (SolverFailure, convergence_table, export_plastic_state,
                     format_table, read_records, run_adaptive, solve_plastic)


def _common(sub):
    sub.add_argument("--config", help="path to a run configuration file")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--loop", choices=_LOOPS, default=None,
                     help="override the adaptive loop type")


def build_parser():
    ap = argparse.ArgumentParser(prog="hpfem")
    subs = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "adapt", "table", "export"):
        _common(subs.add_parser(name))
    return ap


def _load(args):
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = RunConfig()
    if args.loop is not None:
        cfg.run.loop = args.loop
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    try:
        if args.command == "solve":
            cmd_solve(cfg, args.out)
        elif args.command == "adapt":
            records, _ = run_adaptive(cfg, outdir=args.out)
            print(format_table(convergence_table(records)))
        elif args.command == "table":
            try:
                records = read_records(os.path.join(args.out, "records.csv"))
            except OSError as exc:
                print(f"no run records: {exc}", file=sys.stderr)
                return 3
            except ValueError as exc:
                print(f"malformed run records: {exc}", file=sys.stderr)
                return 3
            print(format_table(convergence_table(records)))
        elif args.command == "export":
            cmd_export(cfg, args.out)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    return 0


def _build_state(cfg):
    from .driver import _build_problem, _newton_config
    kind, mesh, material, loads, extra = _build_problem(cfg)
    if kind not in ("plastic", "elastic"):
        raise ConfigError("solve/export need an elastoplastic or elastic preset")
    return solve_plastic(mesh, material, loads, _newton_config(cfg, material))


def cmd_solve(cfg, outdir):
    state = _build_state(cfg)
    os.makedirs(outdir, exist_ok=True)
    export_plastic_state(state, None, outdir)
    with open(os.path.join(outdir, "config.echo"), "w") as fh:
        fh.write(dump_config(cfg))
    print(f"solved: {state.total_dofs} dofs, "
          f"{state.solution.iterations} Newton iterations, "
          f"energy {state.energy():.12g}")


def cmd_export(cfg, outdir):
    from . import estimator as est
    state = _build_state(cfg)
    ind = est.compute_indicators(state.space, state.qspace, state.material,
                                 state.loads, state.solution.u,
                                 state.solution.p, state.solution.lam)
    export_plastic_state(state, ind, outdir)
    from .assembly import export_matrix_market
    export_matrix_market(state.system.K, os.path.join(outdir, "stiffness.mtx"))
    print(f"exported state to {outdir}")


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters recorded around calls into hpfem's modules.

Nothing inside `src/hpfem` is changed: `install` replaces the module and
class attributes that callers actually look up at call time with wrappers
that record a span (name, start, end, parent) or bump a counter. Spans are
kept in memory and written out once, when the repetition ends. Self time is
computed from the span tree, so nested spans are never counted twice.
"""

import json
import time
from collections import Counter

import numpy as np

KERNELS = ("legendre_table", "shape_table", "scalar_stiffness", "mass_matrix",
           "load_vector", "elastic_stiffness", "coupling_block", "chi_blocks")

ROOT_SPAN = "bench.run"


class Tracer:
    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = [-1]
        self.counters = Counter()

    def traced(self, name, fn):
        """fn wrapped in a span called name."""
        names, start, end, parent, stack = (self.names, self.start, self.end,
                                            self.parent, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, name, fn=None):
        """Replace owner.attr by a traced version of fn (default: itself)."""
        setattr(owner, attr, self.traced(name, fn or getattr(owner, attr)))

    def count_calls(self, owner, attr, key):
        real = getattr(owner, attr)
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return real(*args, **kwargs)

        setattr(owner, attr, counted)

    # -- span tree -----------------------------------------------------------

    def self_times(self):
        """(self seconds, calls) per span name."""
        n = len(self.names)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        covered = np.zeros(n + 1)  # slot n collects top-level spans
        np.add.at(covered, np.where(parent < 0, n, parent), dur)
        own = dur - covered[:n]
        self_s, calls = Counter(), Counter()
        for name, s in zip(self.names, own.tolist()):
            self_s[name] += s
            calls[name] += 1
        return self_s, calls

    def total(self, name):
        return sum(e - s for nm, s, e in zip(self.names, self.start, self.end)
                   if nm == name)

    def write(self, path):
        table = sorted(set(self.names))
        ids = {nm: i for i, nm in enumerate(table)}
        with open(path, "w") as fh:
            json.dump({"names": table, "fields": ["name", "start", "end", "parent"],
                       "spans": [[ids[nm], s, e, p] for nm, s, e, p in
                                 zip(self.names, self.start, self.end,
                                     self.parent)]}, fh)


class _LinalgProxy:
    """Stands in for scipy.sparse.linalg inside hpfem.plasticity, so that only
    the Newton factorizations are traced."""

    def __init__(self, module, tracer):
        self._module = module
        counters = tracer.counters

        def splu(A, *args, **kwargs):
            counters["plasticity.factor_nnz"] += int(A.nnz)
            counters["plasticity.factor_n"] += int(A.shape[0])
            return module.splu(A, *args, **kwargs)

        self.splu = tracer.traced("plasticity.factor", splu)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer):
    """Wrap the attributes hpfem's callers use. `hpfem.driver` imports
    assemble_system, solve_semismooth_newton and solve_scalar by name, and the
    predictor imports constraint_coeffs by name, so those are wrapped where
    they are looked up; kernels are reached as hpfem._kernels.<fn>."""
    import hpfem._kernels as kernels
    import hpfem.driver as drv
    import hpfem.estimator as est
    import hpfem.plasticity as pl
    import hpfem.predictor as pred
    from hpfem.mesh import Mesh
    from hpfem.space import GaussPointSpace, ScalarSpace

    t = tracer
    counters = t.counters

    t.patch(drv, "run_plastic_estimator", "driver.loop")
    t.patch(drv, "run_elliptic_predictor", "driver.loop")
    t.patch(drv, "solve_plastic", "driver.solve")

    real_predict = pred.predict_reduction

    def predict_reduction(*args, **kwargs):
        pr = real_predict(*args, **kwargs)
        counters["predictor.skipped"] += pr.skipped is not None
        return pr

    t.patch(pred, "choose_enrichment", "predictor.choose")
    t.patch(pred, "predict_reduction", "predictor.bordered", predict_reduction)
    t.patch(pred, "representation_matrices", "predictor.representation")
    t.patch(pred, "child_local_matrices", "predictor.child_local")
    t.patch(pred, "local_split", "predictor.local_split")
    t.patch(pred, "apply_enrichment", "predictor.apply_enrichment")
    t.patch(pred, "enforce_degree_comparability", "predictor.degree_closure")
    t.count_calls(pred, "constraint_coeffs", "predictor.constraint_coeffs_calls")

    t.patch(Mesh, "refine_element", "mesh.refine")
    t.patch(Mesh, "refine_many", "mesh.refine")
    t.patch(Mesh, "facet_neighbors", "mesh.facet_neighbors")
    t.patch(drv, "export_plastic_state", "mesh.export")
    t.patch(drv, "write_records", "mesh.export")

    t.patch(ScalarSpace, "__init__", "space.scalar_build")
    t.patch(GaussPointSpace, "__init__", "space.gauss_build")

    t.patch(drv, "assemble_system", "assembly.assemble")
    t.patch(drv, "solve_scalar", "elliptic.solve")

    real_newton = drv.solve_semismooth_newton

    def newton(*args, **kwargs):
        sol = real_newton(*args, **kwargs)
        counters["plasticity.iterations"] += sol.iterations
        # trace rows are (iteration, |F|_max, merit, step length, active set)
        counters["plasticity.damped_steps"] += sum(row[3] < 1.0 for row in sol.trace)
        return sol

    t.patch(drv, "solve_semismooth_newton", "plasticity.newton", newton)
    t.patch(pl, "elastic_solve", "plasticity.elastic_solve")
    pl.spla = _LinalgProxy(pl.spla, t)

    t.patch(est, "compute_indicators", "estimator.indicators")
    t.patch(est, "mark_dorfler", "estimator.mark")

    for fn in KERNELS:
        t.patch(kernels, fn, f"kernels.{fn}")


def layer_metrics(tracer, outcome, kernels_compiled):
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    self_s, calls = tracer.self_times()
    c = tracer.counters
    m = {}

    def sec(metric, span):
        m[metric] = (self_s[span], "s")

    def cnt(metric, value):
        m[metric] = (int(value), "count")

    for part in ("choose", "representation", "child_local", "bordered",
                 "local_split", "apply_enrichment", "degree_closure"):
        sec(f"predictor.{part}_s", f"predictor.{part}")
    candidates = calls["predictor.bordered"]
    cnt("predictor.candidates", candidates)
    cnt("predictor.skipped", c["predictor.skipped"])
    m["predictor.skip_ratio"] = (
        c["predictor.skipped"] / candidates if candidates else 0.0, "ratio")
    cnt("predictor.constraint_coeffs_calls", c["predictor.constraint_coeffs_calls"])
    cnt("predictor.apply_enrichment_calls", calls["predictor.apply_enrichment"])

    for part in ("refine", "facet_neighbors"):
        sec(f"mesh.{part}_s", f"mesh.{part}")
        cnt(f"mesh.{part}_calls", calls[f"mesh.{part}"])
    sec("mesh.export_s", "mesh.export")
    m["mesh.bytes_written"] = (int(outcome.bytes_written), "B")

    sec("space.scalar_build_s", "space.scalar_build")
    sec("space.gauss_build_s", "space.gauss_build")
    cnt("space.builds", calls["space.scalar_build"] + calls["space.gauss_build"])

    sec("assembly.assemble_s", "assembly.assemble")
    cnt("assembly.calls", calls["assembly.assemble"])
    sec("elliptic.solve_s", "elliptic.solve")

    sec("plasticity.newton_s", "plasticity.newton")
    sec("plasticity.factor_s", "plasticity.factor")
    cnt("plasticity.factor_calls", calls["plasticity.factor"])
    cnt("plasticity.factor_nnz", c["plasticity.factor_nnz"])
    cnt("plasticity.factor_n", c["plasticity.factor_n"])
    sec("plasticity.elastic_solve_s", "plasticity.elastic_solve")
    cnt("plasticity.retries",
        calls["plasticity.factor"] - c["plasticity.iterations"])
    cnt("plasticity.damped_steps", c["plasticity.damped_steps"])

    sec("estimator.indicators_s", "estimator.indicators")
    cnt("estimator.calls", calls["estimator.indicators"])
    sec("estimator.mark_s", "estimator.mark")

    for fn in KERNELS:
        cnt(f"kernels.{fn}_calls", calls[f"kernels.{fn}"])
        sec(f"kernels.{fn}_s", f"kernels.{fn}")
    cnt("kernels.compiled", kernels_compiled)

    step_s = sum(outcome.step_wall)
    cnt("driver.steps", len(outcome.step_wall))
    m["driver.step_s"] = (step_s, "s")
    m["driver.between_steps_s"] = (
        tracer.total("driver.loop") - step_s if outcome.step_wall else 0.0, "s")
    m["driver.self_s"] = (self_s["driver.loop"] + self_s["driver.solve"], "s")
    sec("bench.check_s", ROOT_SPAN)
    return m

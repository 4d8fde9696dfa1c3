"""Predicted reductions against values recorded from the per-candidate
predictor the batched pass replaces (commit 170c000): delta_e2, eps, y,
rho_w_yxi and the skip reason of every candidate of both default menus on
every element of the cases below, each to 1e-12 of max(|value|, 1), through
the step-level `choose_enrichment` and through the one-candidate
`predict_reduction`.

Running this file as a script (with the package on the path) writes the
recording of the checked-out code to tests/data/predictions_parent.json.
"""

import json
import os

import numpy as np
import pytest

from conftest import distorted_quad_mesh, random_refined_mesh
from hpfem.elliptic import ScalarProblem, solve_scalar
from hpfem.predictor import (choose_enrichment, default_candidates,
                             hp_enrichment, local_split, p_enrichment,
                             predict_reduction)
from hpfem.problems import cube_mesh, interval_mesh, square_mesh
from hpfem.space import ScalarSpace

PARENT_PREDICTIONS = os.path.join(os.path.dirname(__file__), "data",
                                  "predictions_parent.json")
RTOL = 1e-12
CASES = ("interval_p1", "interval_p2", "interval_p3", "interval_local",
         "random_refined", "distorted", "cube_hanging", "custom", "zero_load")


def _left_dirichlet(c):
    return "dirichlet" if c[0] < 1e-12 else "neumann"


def prediction_case(name):
    """(space, problem, {eid: candidates}) of one parity case."""
    smooth = ScalarProblem(volume=lambda x: np.sin(3.0 * x[:, 0]) + x[:, -1],
                           neumann=lambda x: np.cos(x[:, 0]) + 0.3 * x[:, -1])
    if name.startswith("interval"):
        # one element of degree 3 carries an entirely local solution
        m = (interval_mesh(1, degree=3) if name == "interval_local"
             else interval_mesh(4, degree=int(name[-1])))
        problem = ScalarProblem(volume=lambda x: np.exp(x[:, 0]))
    elif name == "random_refined":
        m = random_refined_mesh(np.random.default_rng(5), n=2, max_degree=4,
                                refinements=3, dirichlet=True)
        problem = smooth
    elif name == "distorted":
        m = distorted_quad_mesh().with_degrees({0: 2, 1: 3})
        m.tag_boundary(lambda c: "dirichlet" if c[0] < 0.5 else "neumann")
        problem = ScalarProblem(
            volume=lambda x: np.exp(x[:, 0]) * np.sin(3.0 * x[:, 1]),
            extra_order=5)
    elif name == "cube_hanging":
        m = cube_mesh(2, degree=2)
        m.tag_boundary(_left_dirichlet)
        m = m.refine_element(0)
        m = m.with_degrees({e: 1 + i % 2 for i, e in enumerate(m.active_ids())})
        problem = smooth
    elif name in ("custom", "zero_load"):
        m = square_mesh(2, degree=2, tagger=_left_dirichlet)
        m = m.with_degrees({0: 3})
        problem = smooth if name == "custom" else ScalarProblem()
    else:
        raise ValueError(name)
    space = ScalarSpace(m)
    cands = {eid: (default_candidates(space, eid)
                   + default_candidates(space, eid, menu="enrichment"))
             for eid in m.active_ids()}
    if name == "custom":
        for eid in m.active_ids():
            p = space.mesh.degree[eid]
            cands[eid] += [
                hp_enrichment(space, eid, zhat=(0.3, -0.2)),
                hp_enrichment(space, eid, zhat=(-0.5, 0.25), degree_rule=lambda
                              axes, loc: [(2,) * len(axes), (p + 1,) * len(axes)]
                              if axes else [()]),
                p_enrichment(space, eid, rule=[(2, p + 1), (p + 2, 2)])]
    return space, problem, cands


def _values(pr):
    return {"delta_e2": pr.delta_e2, "eps": pr.eps, "y": np.asarray(pr.y).tolist(),
            "rho_w_yxi": pr.rho_w_yxi, "skipped": pr.skipped}


def record(name):
    """The predictions of one case, one candidate at a time, as
    {eid: [values per candidate]}."""
    space, problem, cands = prediction_case(name)
    u, A, b = solve_scalar(space, problem)
    out = {}
    for eid, cs in cands.items():
        split = local_split(space, u, eid)
        out[str(eid)] = [_values(predict_reduction(space, problem, A, b, u,
                                                   split, c)) for c in cs]
    return out


def _assert_close(got, want, where):
    assert got["skipped"] == want["skipped"], where
    for key in ("delta_e2", "eps", "rho_w_yxi", "y"):
        have, ref = np.asarray(got[key], float), np.asarray(want[key], float)
        assert have.shape == ref.shape, (where, key)
        tol = RTOL * np.maximum(np.abs(ref), 1.0)
        assert np.all(np.abs(have - ref) <= tol), (where, key, have, ref)


@pytest.fixture(scope="module")
def parent():
    with open(PARENT_PREDICTIONS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", CASES)
def test_step_pass_matches_recorded_predictions(case, parent):
    space, problem, cands = prediction_case(case)
    u, A, b = solve_scalar(space, problem)
    chosen = choose_enrichment(space, problem, A, b, u, cands)
    ref = parent[case]
    assert sorted(map(str, chosen)) == sorted(ref)
    for eid, (_, preds) in chosen.items():
        assert [pr.candidate for pr in preds] == cands[eid]
        for k, pr in enumerate(preds):
            _assert_close(_values(pr), ref[str(eid)][k], (case, eid, k))


@pytest.mark.parametrize("case", CASES)
def test_one_candidate_view_matches_recorded_predictions(case, parent):
    got = record(case)
    assert got.keys() == parent[case].keys()
    for eid, preds in got.items():
        for k, values in enumerate(preds):
            _assert_close(values, parent[case][eid][k], (case, eid, k))


if __name__ == "__main__":
    with open(PARENT_PREDICTIONS, "w") as fh:
        json.dump({case: record(case) for case in CASES}, fh,
                  separators=(",", ":"))

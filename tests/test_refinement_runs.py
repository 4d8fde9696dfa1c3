"""The enrichments of the predictor loop, applied in runs, against the
one-at-a-time loop they replace, kept here as the oracle.

`predictor.apply_enrichment` refines each maximal run of hp marks in one
`Mesh.refine_many` pass, with one dividing point per element, and raises p
marks one at a time; the oracle applies every mark as its own snapshot. Both
skip an element an earlier mark's closure already refined. The mesh columns,
the vertices, `records.csv` and every `pred*.csv` are compared exactly, on
criterion 11's predictor loop, on the `lshape-predictor` benchmark inputs of
seeds 0 and 9173, and on random marked sequences in 2D and 3D with mixed p
and hp marks and off-centre dividing points.
"""

import os
import sys

import numpy as np
import pytest

import hpfem.driver as drv
import hpfem.predictor as pred
from conftest import square_mesh
from hpfem.config import RunConfig
from hpfem.predictor import (EnrichmentCandidate, Prediction, apply_enrichment,
                             enforce_degree_comparability)
from hpfem.problems import cube_mesh, l_shape_mesh

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import workloads  # noqa: E402

COLUMNS = ("vertices", "root", "level", "degree", "parent", "first_child",
           "corners", "boxes")


def one_at_a_time(mesh, predictions):
    """The oracle: (the mesh after each chosen enrichment in turn, each its
    own snapshot, the number of marks skipped because an earlier closure
    refinement had refined their element)."""
    skipped = 0
    for pr in predictions:
        cand = pr.candidate
        eid = cand.element
        if mesh.first_child[eid] >= 0:
            skipped += 1
            continue
        if cand.kind == "hp":
            mesh = mesh.refine_element(eid, np.asarray(cand.zhat))
        else:
            mesh = enforce_degree_comparability(mesh, {eid: mesh.degree[eid] + 1})
    return mesh, skipped


def assert_same_mesh(have, want):
    for col in COLUMNS:
        a, b = getattr(have, col), getattr(want, col)
        assert a.dtype == b.dtype and a.shape == b.shape, col
        assert a.tobytes() == b.tobytes(), col
    assert have.tags.tolist() == want.tags.tolist()
    assert have._vreg == want._vreg


def _loop(run, outdir, monkeypatch, oracle):
    """(meshes of the steps, the output files but timings.csv) of one run
    of the predictor loop into outdir."""
    with monkeypatch.context() as mp:
        if oracle:
            mp.setattr(pred, "apply_enrichment",
                       lambda mesh, predictions: one_at_a_time(mesh, predictions)[0])
        _, states = run(str(outdir))
    files = {name: (outdir / name).read_bytes() for name in sorted(os.listdir(outdir))
             if name != "timings.csv"}
    return [state.mesh for state, _ in states], files


def _criterion_11(outdir):
    cfg = RunConfig()
    cfg.problem.preset = "poisson-lshape"
    cfg.run.loop = "elliptic-predictor"
    cfg.run.theta = 0.7
    cfg.run.max_iterations = 20
    cfg.run.max_dofs = 2600
    return drv.run_adaptive(cfg, outdir)


class _Inputs(Exception):
    pass


def _benchmark_inputs(seed, monkeypatch):
    """(cfg, mesh, problem) of the lshape-predictor workload of seed, as its
    run hands them to the loop."""
    def grab(cfg, mesh, problem, outdir=None):
        raise _Inputs(cfg, mesh, problem)

    with monkeypatch.context() as mp:
        mp.setattr(drv, "run_elliptic_predictor", grab)
        with pytest.raises(_Inputs) as caught:
            workloads.prepare("lshape-predictor", seed).run(None)
    return caught.value.args


@pytest.mark.parametrize("case", ["criterion-11", "lshape-seed-0",
                                  "lshape-seed-9173"])
def test_loop_matches_one_at_a_time(case, tmp_path, monkeypatch):
    if case == "criterion-11":
        run = _criterion_11
    else:
        cfg, mesh, problem = _benchmark_inputs(int(case.rsplit("-", 1)[1]),
                                               monkeypatch)

        def run(outdir):
            return drv.run_elliptic_predictor(cfg, mesh, problem, outdir)

    (tmp_path / "runs").mkdir()
    (tmp_path / "oracle").mkdir()
    meshes, files = _loop(run, tmp_path / "runs", monkeypatch, oracle=False)
    want_meshes, want_files = _loop(run, tmp_path / "oracle", monkeypatch,
                                    oracle=True)
    assert files == want_files
    assert any(name.startswith("pred") for name in files)
    assert len(meshes) == len(want_meshes) > 2
    for have, want in zip(meshes, want_meshes):
        assert_same_mesh(have, want)


def _marks(rng, mesh, zhat):
    """Random chosen enrichments of a random half of the active elements, in
    random order: p, or hp at the point zhat of the sequence (where
    same-level neighbors split at one point, their dividing lines meet) or,
    now and then, at a random point."""
    d = mesh.dim
    act = mesh.active_ids()
    eids = rng.permutation(act)[:max(1, len(act) // 2)].tolist()
    out = []
    for eid in eids:
        u = rng.uniform()
        if u < 0.35:
            cand = EnrichmentCandidate(kind="p", element=eid, zhat=None)
        else:
            z = zhat if u < 0.95 else tuple(rng.uniform(-0.5, 0.5, d))
            cand = EnrichmentCandidate(kind="hp", element=eid, zhat=z)
        out.append(Prediction(candidate=cand, delta_e2=0.0, eps=0.0,
                              y=np.zeros(0), rho_w_yxi=0.0))
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_random_marks_match_one_at_a_time(d):
    runs = skipped = compared = off = non_nested = 0
    for seed in range(16 if d == 2 else 12):
        rng = np.random.default_rng(100 * d + seed)
        mesh = {2: l_shape_mesh() if seed % 4 < 2 else square_mesh(3),
                3: cube_mesh(2)}[d]
        # centres on even seeds, one off-centre point on odd ones
        zhat = tuple(rng.uniform(-0.5, 0.5, d)) if seed % 2 else (0.0,) * d
        for _ in range(4 if d == 2 else 3):
            marks = _marks(rng, mesh, zhat)
            kinds = [pr.candidate.kind for pr in marks]
            runs += sum(a == b == "hp" for a, b in zip(kinds, kinds[1:]))
            try:
                want, n = one_at_a_time(mesh, marks)
                want.facet_table()
            except ValueError as err:
                # off-centre points that ask for a non-nested overlap: the
                # runs leave one too, caught at the next adjacency read
                assert "non-nested facet overlap" in str(err)
                with pytest.raises(ValueError, match="non-nested facet overlap"):
                    apply_enrichment(mesh, marks).facet_table()
                non_nested += 1
                break
            have = apply_enrichment(mesh, marks)
            assert_same_mesh(have, want)
            skipped += n
            compared += 1
            off += any(pr.candidate.zhat not in (None, (0.0,) * d) for pr in marks)
            mesh = have
    # the sequences hold runs of refinements, closures that consume later
    # marks, enough nested steps to compare, off-centre ones among them, and
    # steps that end non-nested
    print(f"d = {d}: {runs} hp runs, {skipped} marks skipped, {compared} steps "
          f"compared, {off} with off-centre points, {non_nested} non-nested")
    assert runs > 0 and skipped > 0 and non_nested > 0
    assert compared >= 15 and off >= 5

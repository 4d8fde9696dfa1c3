import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

import hpfem.plasticity as plasticity
from hpfem.config import ConfigError, RunConfig, dump_config, parse_config
from hpfem.driver import (RunRecord, _build_problem, _newton_config,
                          convergence_table,
                          format_table, plastic_error_sq, read_records,
                          run_adaptive, run_elliptic_predictor,
                          run_plastic_estimator, run_uniform, solve_elliptic,
                          solve_plastic, write_records)
from hpfem.problems import plastic_square, poisson_lshape


class TestConfig:
    def test_roundtrip_lossless(self):
        cfg = RunConfig()
        cfg.run.theta = 0.25
        cfg.mesh.degree = 3
        text = dump_config(cfg)
        cfg2 = parse_config(text)
        assert dump_config(cfg2) == text

    def test_unknown_key_rejected(self):
        # [run] seed and threads are gone: nothing read them
        for text in ("[run]\nnot_a_key = 1\n", "[run]\nseed = 0\n",
                     "[run]\nthreads = 2\n"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nope]\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("[run]\ntheta = fast\n")

    def test_bad_loop_rejected(self):
        with pytest.raises(ConfigError, match="unknown loop"):
            parse_config("[run]\nloop = nonsense\n")

    @pytest.mark.parametrize("preset, section, key, value", [
        ("poisson-lshape", "mesh", "initial_cells", 5),
        ("poisson-1d", "material", "lam", 2.0),
        ("plastic-square", "problem", "alpha", 2.0),
    ])
    def test_key_the_preset_does_not_read(self, preset, section, key, value):
        cfg = RunConfig()
        cfg.problem.preset = preset
        setattr(getattr(cfg, section), key, value)
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} is not read"):
            _build_problem(cfg)
        # the default value is accepted, as it changes nothing
        setattr(getattr(cfg, section), key, getattr(getattr(RunConfig(), section), key))
        _build_problem(cfg)

    def test_unknown_preset_rejected(self):
        cfg = RunConfig()
        cfg.problem.preset = "nope"
        with pytest.raises(ConfigError, match="unknown preset 'nope'"):
            _build_problem(cfg)

    @pytest.mark.parametrize("preset", ["plastic-square", "elastic-square",
                                        "poisson-1d", "poisson-lshape"])
    def test_every_accepted_key_is_read(self, preset):
        # a key _build_problem accepts away from its default changes the
        # mesh, the solved energy or the Newton settings; keeps the preset
        # table in step with the builders and _newton_config
        def outcome(cfg):
            kind, mesh, material, loads, extra = _build_problem(cfg)
            act = mesh.active_ids()
            if kind == "elliptic":
                newton, energy = None, solve_elliptic(mesh, extra).energy_sq()
            else:
                newton = _newton_config(cfg, material)
                energy = solve_plastic(mesh, material, loads, newton).energy()
            return (mesh.corner_array(act).tolist(), mesh.degree[act].tolist(),
                    energy, newton)

        cfg = RunConfig()
        cfg.problem.preset = preset
        base = outcome(cfg)
        for name in ("problem", "material", "mesh", "newton"):
            for f in fields(getattr(cfg, name)):
                if f.name == "preset":
                    continue
                cfg = RunConfig()
                cfg.problem.preset = preset
                section = getattr(cfg, name)
                value = getattr(section, f.name)
                setattr(section, f.name, type(value)(1.5 * value + 1))
                try:
                    changed = outcome(cfg)
                except ConfigError as exc:
                    assert f"[{name}] {f.name} is not read" in str(exc)
                    continue
                assert changed != base, (name, f.name)

    def test_comments_and_blanks(self):
        cfg = parse_config("# leading\n[run]\n\ntheta = 0.75  # trailing\n")
        assert cfg.run.theta == 0.75


def _small_cfg(**kw):
    cfg = RunConfig()
    cfg.mesh.initial_cells = 2
    cfg.run.max_iterations = kw.pop("iters", 3)
    for k, v in kw.items():
        setattr(cfg.run, k, v)
    return cfg


class TestLoops:
    def test_estimator_loop_monotone(self):
        cfg = _small_cfg(iters=5)
        cfg.mesh.initial_cells = 4
        cfg.run.theta = 0.3
        records, _ = run_adaptive(cfg)
        assert len(records) == 5
        ests = [r.estimate for r in records]
        assert all(ests[i] >= ests[i + 1] for i in range(len(ests) - 1))
        dofs = [r.dofs for r in records]
        assert all(dofs[i] < dofs[i + 1] for i in range(len(dofs) - 1))

    def test_predictor_loop_energy_monotone(self):
        cfg = _small_cfg(iters=5)
        cfg.problem.preset = "poisson-lshape"
        cfg.run.loop = "elliptic-predictor"
        records, _ = run_adaptive(cfg)
        energies = [r.energy for r in records]
        assert all(energies[i] <= energies[i + 1] + 1e-14
                   for i in range(len(energies) - 1))

    def test_uniform_p_loop(self):
        cfg = _small_cfg(iters=2)
        cfg.problem.preset = "poisson-1d"
        cfg.run.loop = "uniform-p"
        records, states = run_adaptive(cfg)
        assert records[1].dofs > records[0].dofs
        assert records[1].h_max == records[0].h_max

    def test_predictor_loop_1d_singular(self):
        cfg = _small_cfg(iters=6)
        cfg.problem.preset = "poisson-1d"
        cfg.problem.alpha = 1.5
        cfg.run.loop = "elliptic-predictor"
        records, states = run_adaptive(cfg)
        errs = [r.error_sq for r in records]
        assert errs[-1] < errs[0]
        assert all(e == e for e in errs)  # exact solution known: no NaN

    def test_estimator_loop_stops_when_nothing_is_marked(self):
        # without load every indicator is zero, so no element is marked and
        # a next step would solve the same mesh again
        cfg = _small_cfg(iters=4)
        mesh, material, loads = plastic_square(n=2, pull=0.0, shear=0.0)
        records, _ = run_plastic_estimator(cfg, mesh, material, loads)
        assert [(r.marked, r.estimate) for r in records] == [(0, 0.0)]

    def test_predictor_loop_stops_when_nothing_is_marked(self):
        # f = 0 gives u = 0 and no predicted reduction on any element
        cfg = _small_cfg(iters=4)
        mesh, problem = poisson_lshape()
        problem.volume = lambda x: np.zeros(len(x))
        records, _ = run_elliptic_predictor(cfg, mesh, problem)
        assert [(r.marked, r.estimate) for r in records] == [(0, 0.0)]

    def test_loop_separation_flags(self):
        assert run_plastic_estimator.consults == ("estimator",)
        assert run_elliptic_predictor.consults == ("predictor",)
        assert run_uniform.consults == ()

    def test_loop_preset_mismatch(self):
        cfg = _small_cfg()
        cfg.problem.preset = "poisson-lshape"
        cfg.run.loop = "plastic-estimator"
        with pytest.raises(ValueError):
            run_adaptive(cfg)


# (loop, preset): the dofs of the first four steps of each loop at its
# defaults, from 2 cells of degree 1:
#   plastic-estimator  28, 44, 78, 146  (estimates 1.82, 1.82, 1.58, 1.42)
#   elliptic-predictor  1,  2,  4,   5  (estimates 5.8e-2, 5.6e-4, ...)
#   uniform-h          18, 82, 354, 1474
#   uniform-p           1,  3,  5,   7
STOP_CASES = {
    "plastic-estimator": ("plastic-square",
                          {"max_dofs": (44, 2, 44), "tol": (1.6, 3, 78)}),
    "elliptic-predictor": ("poisson-1d",
                           {"max_dofs": (2, 2, 2), "tol": (1e-3, 2, 2)}),
    "uniform-h": ("elastic-square",
                  {"max_dofs": (82, 2, 82), "tol": (1e300, 4, 1474)}),
    "uniform-p": ("poisson-1d",
                  {"max_dofs": (3, 2, 3), "tol": (1e300, 4, 7)}),
}
LAST_OF_THREE = {"plastic-estimator": 78, "elliptic-predictor": 4,
                 "uniform-h": 354, "uniform-p": 5}


@pytest.mark.parametrize("loop", sorted(STOP_CASES))
@pytest.mark.parametrize("stop", ["max_iterations", "max_dofs", "tol"])
def test_stop_rule(loop, stop):
    """Every loop stops at the first step whose dofs reach max_dofs, at its
    last iteration, or when tol > 0 and the estimate is at most tol; the
    uniform loops have no estimate, so tol never stops them."""
    cfg = _small_cfg(iters=4)
    cfg.run.loop = loop
    cfg.problem.preset, cases = STOP_CASES[loop]
    if stop == "max_iterations":
        cfg.run.max_iterations = 3
        n, last = 3, LAST_OF_THREE[loop]
    else:
        value, n, last = cases[stop]
        setattr(cfg.run, stop, value)
    records, states = run_adaptive(cfg)
    assert (len(records), records[-1].dofs) == (n, last)
    assert len(states) == n


class TestDirichletRequired:
    """Without a Dirichlet facet the Poisson and elasticity systems are
    singular; both solves refuse them before any factorization (before, the
    L-shape returned max |u| = 6.8e15 and the plastic solve ran 60 Newton
    iterations)."""

    @pytest.fixture
    def no_factorization(self, monkeypatch):
        class Refuse:
            def splu(self, *args, **kwargs):
                raise AssertionError("factorized")
        monkeypatch.setattr(plasticity, "spla", Refuse())

    def test_scalar_path(self, no_factorization):
        mesh, problem = poisson_lshape(degree=2)
        with pytest.raises(ValueError, match="no Dirichlet boundary"):
            solve_elliptic(mesh.tag_boundary(lambda c: "neumann"), problem)

    def test_mixed_path(self, no_factorization):
        mesh, material, loads = plastic_square(n=2, degree=2)
        with pytest.raises(ValueError, match="no Dirichlet boundary"):
            solve_plastic(mesh.tag_boundary(lambda c: "neumann"), material,
                          loads)


class TestDeterminism:
    def test_records_byte_identical(self, tmp_path):
        cfg = _small_cfg()
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_adaptive(cfg, outdir=out1)
        run_adaptive(cfg, outdir=out2)
        rec1 = open(os.path.join(out1, "records.csv"), "rb").read()
        rec2 = open(os.path.join(out2, "records.csv"), "rb").read()
        assert rec1 == rec2


class TestReferenceError:
    """plastic_error_sq on nested meshes that share active elements below
    the roots."""

    def _states(self):
        mesh, material, loads = plastic_square(n=2)
        coarse = solve_plastic(mesh.refine_element(0), material, loads)
        child = coarse.mesh.first_child[0]
        fine = solve_plastic(coarse.mesh.refine_element(child), material, loads)
        return coarse, fine

    def test_state_against_itself_is_zero(self):
        coarse, _ = self._states()
        assert plastic_error_sq(coarse, coarse) == 0.0

    def test_locally_refined_pair(self):
        coarse, fine = self._states()
        err = plastic_error_sq(coarse, fine)
        assert np.isfinite(err) and err > 0.0

    def test_unnested_meshes_raise(self):
        coarse, fine = self._states()
        with pytest.raises(ValueError):
            plastic_error_sq(fine, coarse)


class TestTables:
    def test_rate_one(self):
        records = [RunRecord(iteration=i, dofs=10 * 4**i, h_max=1.0 / 2**i,
                             energy=0.0, newton_iterations=0, estimate=0.0,
                             error_sq=(0.3 / 2**i) ** 2, marked=0)
                   for i in range(4)]
        rows = convergence_table(records)
        for dofs, val, rate in rows[1:]:
            assert abs(rate - 1.0) < 1e-12

    def test_rate_two(self):
        records = [RunRecord(iteration=i, dofs=10 * 4**i, h_max=1.0 / 2**i,
                             energy=0.0, newton_iterations=0, estimate=0.0,
                             error_sq=(0.3 / 4**i) ** 2, marked=0)
                   for i in range(4)]
        rows = convergence_table(records)
        for dofs, val, rate in rows[1:]:
            assert abs(rate - 2.0) < 1e-12

    def test_zero_and_equal_dofs_give_no_rate(self):
        # the L-shape at degree 1 has no free dof at step 0: every vertex
        # is on the Dirichlet boundary
        records = [RunRecord(iteration=i, dofs=d, h_max=1.0, energy=0.0,
                             newton_iterations=0, estimate=0.1 / (i + 1),
                             error_sq=np.nan, marked=1)
                   for i, d in enumerate([0, 3, 3, 12])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = convergence_table(records)
        rates = [rate for _, _, rate in rows]
        assert np.isnan(rates[:3]).all()
        # sqrt(estimate) falls by sqrt(4/3) while the dofs grow by 4
        assert rates[3] == pytest.approx(0.5 * np.log(4 / 3) / np.log(4))
        assert "nan" in format_table(rows)

    def test_empty_run_header_only(self, tmp_path):
        write_records([], str(tmp_path))
        lines = open(tmp_path / "records.csv").read().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("iteration,")

    def test_read_back(self, tmp_path):
        cfg = _small_cfg(iters=2)
        run_adaptive(cfg, outdir=str(tmp_path))
        records = read_records(str(tmp_path / "records.csv"))
        assert len(records) == 2
        assert records[0].dofs > 0
        fmt = format_table(convergence_table(records))
        assert "dofs" in fmt


class TestExports:
    def test_state_export_files(self, tmp_path):
        from hpfem.problems import plastic_square
        from hpfem.driver import export_plastic_state
        mesh, mat, loads = plastic_square(n=2, degree=1)
        state = solve_plastic(mesh, mat, loads)
        export_plastic_state(state, None, str(tmp_path))
        assert (tmp_path / "state.vtk").exists()
        assert (tmp_path / "mesh.txt").exists()
        assert (tmp_path / "newton_trace.csv").exists()
        text = (tmp_path / "state.vtk").read_text().splitlines()
        ncells = int([ln for ln in text if ln.startswith("CELLS")][0].split()[1])
        assert ncells == len(mesh.active_ids())

    def test_plastic_norm_is_weighted_mean(self, tmp_path):
        from hpfem.driver import export_plastic_state
        mesh, mat, loads = plastic_square(n=2, degree=2)
        mesh = mesh.refine_element(0)
        mesh = mesh.with_degrees({e: 1 + i % 3
                                  for i, e in enumerate(mesh.active_ids())})
        state = solve_plastic(mesh, mat, loads)
        export_plastic_state(state, None, str(tmp_path))
        text = (tmp_path / "state.vtk").read_text().splitlines()
        at = text.index("SCALARS plastic_norm double 1") + 2
        got = np.array(text[at:at + len(mesh.active_ids())], dtype=float)
        rows = state.solution.p.reshape(state.qspace.ndof, -1)
        want = []
        for i in range(len(mesh.active_ids())):
            sl = slice(*state.qspace.offsets[i:i + 2])
            w = state.qspace.weights[sl]
            want.append((w * np.linalg.norm(rows[sl], axis=1)).sum() / w.sum())
        assert max(want) > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_mesh_reimport_identical_topology(self, tmp_path):
        from hpfem.problems import plastic_square
        from hpfem.mesh import Mesh
        mesh, _, _ = plastic_square(n=2, degree=2)
        path = str(tmp_path / "m.txt")
        mesh.write_text(path)
        back = Mesh.read_text(path)
        assert len(back.active_ids()) == len(mesh.active_ids())
        a = sorted(tuple(np.round(np.mean(
            mesh.corner_array([e])[0], axis=0), 12))
            for e in mesh.active_ids())
        b = sorted(tuple(np.round(np.mean(
            back.corner_array([e])[0], axis=0), 12))
            for e in back.active_ids())
        assert a == b


def _assert_rectangular(path):
    """Every row of a CSV file has as many columns as its header."""
    import csv
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) >= 2, path
    assert {len(r) for r in rows[1:]} == {len(rows[0])}, path


class TestCsvColumns:
    def test_newton_trace(self, tmp_path):
        from hpfem.plasticity import write_trace_csv
        from hpfem.problems import plastic_square
        state = solve_plastic(*plastic_square(n=2, degree=2))
        path = str(tmp_path / "newton_trace.csv")
        write_trace_csv(state.solution, path)
        _assert_rectangular(path)
        with open(path) as fh:
            assert fh.readline().strip() == \
                "iteration,residual_max,merit,step_length,active_set"

    def test_records_and_timings(self, tmp_path):
        records = [RunRecord(iteration=i, dofs=10 + i, h_max=0.5, energy=1.0,
                             newton_iterations=3, estimate=0.1, error_sq=0.2,
                             marked=1, wall_time=0.01) for i in range(2)]
        write_records(records, str(tmp_path))
        _assert_rectangular(str(tmp_path / "records.csv"))
        _assert_rectangular(str(tmp_path / "timings.csv"))

    def test_indicators(self, tmp_path):
        from hpfem.driver import dump_indicators
        from hpfem.estimator import compute_indicators
        from hpfem.problems import plastic_square
        mesh, mat, loads = plastic_square(n=2, degree=2)
        state = solve_plastic(mesh, mat, loads)
        sol = state.solution
        ind = compute_indicators(state.space, state.qspace, mat, loads,
                                 sol.u, sol.p, sol.lam)
        path = str(tmp_path / "indicators.csv")
        dump_indicators(ind, ind.element_ids[:1].tolist(), path)
        _assert_rectangular(path)

    def test_predictions(self, tmp_path):
        cfg = _small_cfg(iters=1)
        cfg.problem.preset = "poisson-lshape"
        cfg.run.loop = "elliptic-predictor"
        run_adaptive(cfg, outdir=str(tmp_path))
        _assert_rectangular(str(tmp_path / "pred000.csv"))


class TestCLI:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "hpfem.cli", *args],
                              capture_output=True, text=True)

    def test_solve_ok(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[mesh]\ninitial_cells = 2\n")
        r = self._run("solve", "--config", str(cfgfile), "--out",
                      str(tmp_path / "out"))
        assert r.returncode == 0, r.stderr
        assert "solved" in r.stdout

    def _adapt_and_table(self, tmp_path, text):
        """The stdouts of `hpfem adapt` on config text and of `hpfem table`
        on its output, which must be equal."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text)
        out = str(tmp_path / "out")
        r = self._run("adapt", "--config", str(cfgfile), "--out", out)
        assert r.returncode == 0, r.stderr
        r2 = self._run("table", "--out", out)
        assert r2.returncode == 0, r2.stderr
        assert "dofs" in r2.stdout
        assert r.stdout == r2.stdout
        return r2.stdout

    def test_adapt_and_table(self, tmp_path):
        self._adapt_and_table(tmp_path, "[mesh]\ninitial_cells = 2\n"
                                        "[run]\nmax_iterations = 2\n")

    def test_adapt_and_table_uniform_p(self, tmp_path):
        # the estimate of a uniform loop is NaN: both tables show error_sq
        out = self._adapt_and_table(
            tmp_path, "[problem]\npreset = elastic-square\n"
                      "[run]\nloop = uniform-p\nmax_iterations = 3\n")
        values = [float(line.split()[1]) for line in out.splitlines()[1:]]
        assert len(values) == 3 and np.isfinite(values).all()
        assert values[0] > values[1] > values[2] > 0.0

    def test_unread_key_exit_3(self, tmp_path):
        cfgfile = tmp_path / "lshape.cfg"
        cfgfile.write_text("[problem]\npreset = poisson-lshape\n"
                           "[mesh]\ninitial_cells = 5\n")
        r = self._run("adapt", "--config", str(cfgfile), "--out",
                      str(tmp_path / "o"), "--loop", "elliptic-predictor")
        assert r.returncode == 3
        assert "[mesh] initial_cells is not read by the preset" in r.stderr

    @pytest.mark.parametrize("command, text, message", [
        ("solve", "[mesh]\ninitial_cells = 0",
         "[mesh] initial_cells = 0 must be at least 1"),
        ("solve", "[mesh]\ndegree = 0", "[mesh] degree = 0 must be in 1..20"),
        ("solve", "[mesh]\ndegree = 21", "[mesh] degree = 21 must be in 1..20"),
        ("solve", "[material]\nyield_stress = -1", "yield stress must be positive"),
        ("solve", "[material]\nmu = 0", "need mu > 0"),
        ("solve", "[mesh]\ninitial_refinements = -1",
         "[mesh] initial_refinements = -1 must be at least 0"),
        ("adapt", "[run]\nmax_iterations = 0",
         "[run] max_iterations = 0 must be at least 1"),
        ("solve", "[newton]\nmax_iter = 0", "[newton] max_iter = 0 must be at least 1"),
        ("solve", "[newton]\nmax_iter = -3", "[newton] max_iter = -3 must be at least 1"),
        ("solve", "[newton]\ntol = 0",
         "[newton] tol = 0.0 must be a finite number above 0"),
        ("solve", "[newton]\ntol = -1e-11",
         "[newton] tol = -1e-11 must be a finite number above 0"),
        ("solve", "[newton]\ntol = nan",
         "[newton] tol = nan must be a finite number above 0"),
        ("solve", "[newton]\nrho = -1",
         "[newton] rho = -1.0 must be a finite number of at least 0"),
        ("solve", "[newton]\nrho = nan",
         "[newton] rho = nan must be a finite number of at least 0"),
        # NaN passes every range check, and inf makes a singular factor
        ("solve", "[material]\nmu = nan", "[material] mu = nan must be a finite number"),
        ("solve", "[material]\nyield_stress = nan",
         "[material] yield_stress = nan must be a finite number"),
        ("solve", "[material]\nlam = inf", "[material] lam = inf must be a finite number"),
        ("solve", "[material]\nhardening = inf",
         "[material] hardening = inf must be a finite number"),
        ("solve", "[problem]\npull = nan", "[problem] pull = nan must be a finite number"),
    ], ids=["cells_0", "degree_0", "degree_21", "yield_negative", "mu_0",
            "refinements_negative", "iterations_0", "max_iter_0", "max_iter_negative",
            "tol_0", "tol_negative", "tol_nan", "rho_negative", "rho_nan", "mu_nan",
            "yield_nan", "lam_inf", "hardening_inf", "pull_nan"])
    def test_value_out_of_range_exit_3(self, tmp_path, command, text, message):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(text + "\n")
        r = self._run(command, "--config", str(cfgfile), "--out", str(tmp_path / "o"))
        assert r.returncode == 3, r.stderr
        assert message in r.stderr and "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()

    def test_table_without_records_exit_3(self, tmp_path):
        r = self._run("table", "--out", str(tmp_path))
        assert r.returncode == 3
        assert "records.csv" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("row, message", [
        (None, "line 2: no iteration"),
        ("0,ten,0.5,1,0,0.1,nan,2", "line 2: dofs 'ten'"),
        ("0,10,0.5", "line 2: no energy"),
    ], ids=["foreign_columns", "bad_value", "short_row"])
    def test_table_malformed_records_exit_3(self, tmp_path, row, message):
        header = ",".join(f.name for f in fields(RunRecord) if f.compare)
        text = "foo,bar\n1,2\n" if row is None else f"{header}\n{row}\n"
        (tmp_path / "records.csv").write_text(text)
        r = self._run("table", "--out", str(tmp_path))
        assert r.returncode == 3
        assert "malformed run records" in r.stderr and message in r.stderr
        assert str(tmp_path / "records.csv") in r.stderr
        assert "Traceback" not in r.stderr

    def test_config_error_exit_3(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("[run]\nbogus = 1\n")
        r = self._run("solve", "--config", str(cfgfile))
        assert r.returncode == 3

    def test_loop_preset_mismatch_exit_3(self, tmp_path):
        cfgfile = tmp_path / "lshape.cfg"
        cfgfile.write_text("[problem]\npreset = poisson-lshape\n")
        r = self._run("adapt", "--config", str(cfgfile), "--out",
                      str(tmp_path / "o"), "--loop", "plastic-estimator")
        assert r.returncode == 3
        assert "plastic-estimator needs the plastic-square preset" in r.stderr

    def test_solver_failure_exit_2(self, tmp_path):
        cfgfile = tmp_path / "hard.cfg"
        cfgfile.write_text("[mesh]\ninitial_cells = 2\n"
                           "[newton]\nmax_iter = 1\ntol = 1e-14\n")
        r = self._run("solve", "--config", str(cfgfile))
        assert r.returncode == 2

    def test_loop_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[problem]\npreset = poisson-1d\n"
                           "[run]\nmax_iterations = 2\nloop = uniform-h\n")
        r = self._run("adapt", "--config", str(cfgfile), "--out",
                      str(tmp_path / "o"), "--loop", "uniform-p")
        assert r.returncode == 0, r.stderr

    def test_export_subcommand(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[mesh]\ninitial_cells = 2\n")
        out = str(tmp_path / "exp")
        r = self._run("export", "--config", str(cfgfile), "--out", out)
        assert r.returncode == 0, r.stderr
        assert os.path.exists(os.path.join(out, "stiffness.mtx"))
        assert os.path.exists(os.path.join(out, "indicators.csv"))

import os
import subprocess
import sys

import numpy as np
import pytest

from hpfem.config import (ConfigError, RunConfig, dump_config, load_config,
                          parse_config)
from hpfem.driver import (RunRecord, convergence_table, format_table,
                          read_records, run_adaptive, run_elliptic_predictor,
                          run_plastic_estimator, run_uniform, solve_plastic,
                          write_records)


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


class TestDeterminism:
    def test_records_byte_identical(self, tmp_path):
        cfg = _small_cfg()
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_adaptive(cfg, outdir=out1)
        run_adaptive(cfg, outdir=out2)
        rec1 = open(os.path.join(out1, "records.csv"), "rb").read()
        rec2 = open(os.path.join(out2, "records.csv"), "rb").read()
        assert rec1 == rec2


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
        fmt = format_table(convergence_table(records, use="estimate"))
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

    def test_mesh_reimport_identical_topology(self, tmp_path):
        from hpfem.problems import plastic_square
        from hpfem.mesh import Mesh
        mesh, _, _ = plastic_square(n=2, degree=2)
        path = str(tmp_path / "m.txt")
        mesh.write_text(path)
        back = Mesh.read_text(path)
        assert len(back.active_ids()) == len(mesh.active_ids())
        a = sorted(tuple(np.round(np.mean(
            [mesh.vertices[c] for c in mesh.elements[e].corners], axis=0), 12))
            for e in mesh.active_ids())
        b = sorted(tuple(np.round(np.mean(
            [back.vertices[c] for c in back.elements[e].corners], axis=0), 12))
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

    def test_adapt_and_table(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[mesh]\ninitial_cells = 2\n"
                           "[run]\nmax_iterations = 2\n")
        out = str(tmp_path / "out")
        r = self._run("adapt", "--config", str(cfgfile), "--out", out)
        assert r.returncode == 0, r.stderr
        r2 = self._run("table", "--out", out)
        assert r2.returncode == 0
        assert "dofs" in r2.stdout

    def test_config_error_exit_3(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("[run]\nbogus = 1\n")
        r = self._run("solve", "--config", str(cfgfile))
        assert r.returncode == 3

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

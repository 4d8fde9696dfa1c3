"""The step's exports, written in bulk, against the per-row writers they
replaced, kept here as oracles, byte for byte: `Mesh.write_vtk`,
`Mesh.write_text`, `driver.dump_indicators` and `plasticity.write_trace_csv`,
on a 2D mesh with hanging nodes and mixed degrees, a refined 3D cube with
hanging faces whose coordinates hold negative zeros, and a 1D interval, with
NaN, infinite, negative-zero and tiny values in the data.
"""
import csv

import numpy as np
import pytest

from hpfem.driver import dump_indicators
from hpfem.estimator import ErrorIndicators
from hpfem.mesh import _VTK_CELL, Mesh, facet_corner_rows
from hpfem.plasticity import SolutionTriple, write_trace_csv
from hpfem.problems import cube_mesh, interval_mesh, square_mesh


def write_vtk_oracle(mesh, path, cell_data=None, point_data=None):
    d = mesh.dim
    vtk_type, order = _VTK_CELL[d]
    act = mesh.active_ids()
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nhpfem export\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(mesh.vertices)} double\n")
        for v in mesh.vertices:
            coords = list(v) + [0.0] * (3 - d)
            fh.write(" ".join(f"{x:.17g}" for x in coords) + "\n")
        ncell = len(act)
        npts = 2**d
        fh.write(f"CELLS {ncell} {ncell * (npts + 1)}\n")
        for ids in mesh.corners[act][:, order].tolist():
            fh.write(f"{npts} " + " ".join(str(i) for i in ids) + "\n")
        fh.write(f"CELL_TYPES {ncell}\n")
        for _ in act:
            fh.write(f"{vtk_type}\n")
        if cell_data:
            fh.write(f"CELL_DATA {ncell}\n")
            for name, arr in cell_data.items():
                arr = np.asarray(arr, dtype=float)
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for x in arr:
                    fh.write(f"{x:.17g}\n")
        if point_data:
            fh.write(f"POINT_DATA {len(mesh.vertices)}\n")
            for name, arr in point_data.items():
                arr = np.asarray(arr, dtype=float)
                if arr.ndim == 1:
                    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    for x in arr:
                        fh.write(f"{x:.17g}\n")
                else:
                    fh.write(f"VECTORS {name} double\n")
                    for row in arr:
                        coords = list(row) + [0.0] * (3 - len(row))
                        fh.write(" ".join(f"{x:.17g}" for x in coords) + "\n")


def write_text_oracle(mesh, path):
    d = mesh.dim
    with open(path, "w") as fh:
        fh.write(f"# hpfem mesh, dim = {d}\n")
        fh.write("VERTICES\n")
        for v in mesh.vertices:
            fh.write(" ".join(f"{x:.17g}" for x in v) + "\n")
        fh.write("ELEMENTS\n")
        act = np.array(mesh.active_ids(), dtype=np.intp)
        for ids, p in zip(mesh.corners[act].tolist(), mesh.degree[act].tolist()):
            fh.write(" ".join(str(c) for c in ids) + f" {p}\n")
        fh.write("BOUNDARY\n")
        tags = mesh.tags[act]
        i, f = np.nonzero(np.not_equal(tags, None))
        ids = mesh.corners[act[i][:, None], facet_corner_rows(d)[f]]
        for row, tag in zip(ids.tolist(), tags[i, f]):
            fh.write(" ".join(str(c) for c in row) + f" {tag}\n")


def dump_indicators_oracle(ind, marked, path):
    marked = set(marked)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["element", "eta_sq", "plastic_sq", "osc_sq", "marked"])
        for i, eid in enumerate(ind.element_ids):
            wr.writerow([int(eid), f"{ind.residual_part[i]:.17g}",
                         f"{ind.plastic_part[i]:.17g}",
                         f"{ind.oscillation[i]:.17g}", int(int(eid) in marked)])


def write_trace_oracle(triple, path):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["iteration", "residual_max", "merit", "step_length",
                     "active_set"])
        for row in triple.trace:
            wr.writerow(row)


def _tag(c):
    return "dirichlet" if c[0] < 1e-12 else "neumann"


def export_mesh(name):
    """A 2D mesh with hanging nodes and mixed degrees, a cube refined once
    (hanging faces) whose zero coordinates are negative zeros, or an
    interval."""
    if name == "square_hanging":
        m = square_mesh(2, 1, tagger=_tag).refine_element(0)
        m = m.refine_element(m.active_ids()[0])
        return m.with_degrees({e: 1 + i % 3 for i, e in enumerate(m.active_ids())})
    if name == "cube_hanging":
        cube = cube_mesh(2)
        verts = cube.vertices.copy()
        verts[verts == 0.0] = -0.0
        m = Mesh.from_arrays(verts, cube.corners, dim=3, degrees=2)
        return m.tag_boundary(_tag).refine_element(0)
    if name == "interval":
        return interval_mesh(3, degree=2).tag_boundary(_tag)
    raise ValueError(name)


SPECIAL = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -1.0 / 3.0,
                    1e300, 0.1, 2.0])


def _values(rng, shape):
    """Random values with the special ones spread over them."""
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    flat = out.reshape(-1)
    flat[::3] = np.resize(SPECIAL, flat[::3].shape)
    return out


@pytest.fixture(params=("square_hanging", "cube_hanging", "interval"))
def mesh(request):
    return export_mesh(request.param)


def test_write_vtk_matches_per_row_writer(mesh, tmp_path):
    rng = np.random.default_rng(3)
    n, nv, d = len(mesh.active_ids()), len(mesh.vertices), mesh.dim
    cell = {"degree": mesh.degree[mesh.active_ids()], "eta": _values(rng, n)}
    point = {"u": _values(rng, (nv, d)), "s": _values(rng, nv),
             "wide": _values(rng, (nv, 4))}
    for cell_data, point_data in ((cell, point), (None, None), ({}, point)):
        have, want = tmp_path / "have.vtk", tmp_path / "want.vtk"
        mesh.write_vtk(str(have), cell_data=cell_data, point_data=point_data)
        write_vtk_oracle(mesh, str(want), cell_data, point_data)
        assert have.read_bytes() == want.read_bytes()


def test_write_text_matches_per_row_writer(mesh, tmp_path):
    have, want = tmp_path / "have.txt", tmp_path / "want.txt"
    mesh.write_text(str(have))
    write_text_oracle(mesh, str(want))
    assert have.read_bytes() == want.read_bytes()
    if mesh.dim == 3:
        assert b"-0 " in have.read_bytes()


def test_dump_indicators_matches_csv_writer(mesh, tmp_path):
    rng = np.random.default_rng(5)
    ids = np.array(mesh.active_ids())
    parts = [_values(rng, len(ids)) for _ in range(4)]
    ind = ErrorIndicators(ids, *parts)
    for marked in ([], ids[::2].tolist(), [np.int64(ids[-1])], set(ids[:1].tolist())):
        have, want = tmp_path / "have.csv", tmp_path / "want.csv"
        dump_indicators(ind, marked, str(have))
        dump_indicators_oracle(ind, marked, str(want))
        assert have.read_bytes() == want.read_bytes()


def test_write_trace_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(7)
    vals = _values(rng, (12, 3))
    trace = [(it, float(a), float(b), float(t), int(k)) for it, (a, b, t), k in
             zip(range(12), vals, rng.integers(0, 500, 12))]
    for rows in (trace, trace[:1], []):
        triple = SolutionTriple(u=np.zeros(1), p=np.zeros(1), lam=np.zeros(1),
                                trace=rows)
        have, want = tmp_path / "have.csv", tmp_path / "want.csv"
        write_trace_csv(triple, str(have))
        write_trace_oracle(triple, str(want))
        assert have.read_bytes() == want.read_bytes()

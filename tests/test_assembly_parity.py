"""The assembled matrices and loads against values recorded from the
per-element assembly they replace (commit a311d56), on the cases built by
conftest.assembly_case: the mixed blocks K, B, C, l, D and q_counts, the norm
matrices, the Poisson matrix and load, and the child matrices of one p- and
one hp-candidate, each to 1e-13 of its largest entry.

Running this file as a script (with the package on the path) writes the
recording of the checked-out code to tests/data/assembly_parent.json.gz
(compact JSON, gzip-compressed).
"""

import gzip
import io
import json
import os
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (ASSEMBLY_CASES, assemble_norm_matrices, assembly_case,
                      scipy_matrix)
from hpfem.assembly import QuadratureAccuracyWarning, assemble_system
from hpfem.elliptic import assemble_scalar
from hpfem.predictor import (child_local_matrices, hp_enrichment,
                             p_enrichment, representation_matrices)

PARENT_ASSEMBLY = os.path.join(os.path.dirname(__file__), "data",
                               "assembly_parent.json.gz")
RTOL = 1e-13
SYMMETRIC = ("K", "C", "Mv", "Sv", "Mq", "A")
SPARSE = SYMMETRIC + ("B",)


def _entries(mat, symmetric):
    """The nonzero entries of a sparse matrix in CSR form, only its upper
    triangle when it is symmetric."""
    mat = sp.csr_matrix(mat)
    if symmetric:
        mat = sp.triu(mat, format="csr")
    mat.eliminate_zeros()
    mat.sort_indices()
    return {"shape": list(mat.shape), "indptr": mat.indptr.tolist(),
            "indices": mat.indices.tolist(), "data": mat.data.tolist()}


def _dense(entries, symmetric):
    out = sp.csr_matrix((entries["data"], entries["indices"],
                         entries["indptr"]), shape=entries["shape"]).toarray()
    return out + np.triu(out, 1).T if symmetric else out


def record(case):
    """Everything the fixture holds for one case, from the current code."""
    space, qspace, material, loads, problem = assembly_case(case)
    A, b = assemble_scalar(space, problem)
    out = {"A": _entries(scipy_matrix(A), True), "b": b.tolist()}
    if space.dim > 1:  # the mixed problem has no plastic strain in 1D
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureAccuracyWarning)
            system = assemble_system(space, qspace, material, loads)
        Mv, Sv, Mq = assemble_norm_matrices(space, qspace)
        K, B, C = map(scipy_matrix, (system.K, system.B, system.C))
        out.update(K=K, B=B, C=C, l=system.l.tolist(),
                   D=system.D.tolist(), q_counts=system.q_counts.tolist(),
                   non_affine=[int(e) for e in system.non_affine],
                   Mv=Mv, Sv=Sv, Mq=Mq)
        for key in ("K", "B", "C", "Mv", "Sv", "Mq"):
            out[key] = _entries(out[key], key in SYMMETRIC)
    eid = space.mesh.active_ids()[-1]
    zhat = (0.25, -0.4, 0.1)[:space.dim]
    for kind, cand in (("p", p_enrichment(space, eid)),
                       ("hp", hp_enrichment(space, eid, zhat=zhat))):
        A_loc, b_loc = child_local_matrices(representation_matrices(space, cand),
                                            problem)
        out[f"child_{kind}_A"] = np.asarray(A_loc).tolist()
        out[f"child_{kind}_b"] = np.asarray(b_loc).tolist()
    return out


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_matches_recorded_assembly(case):
    with gzip.open(PARENT_ASSEMBLY, "rt") as fh:
        ref = json.load(fh)[case]
    got = record(case)
    assert got.keys() == ref.keys()
    for key in {"q_counts", "non_affine"} & set(ref):
        assert got[key] == ref[key], key
    for key in sorted(set(ref) - {"q_counts", "non_affine"}):
        if key in SPARSE:
            assert got[key]["shape"] == ref[key]["shape"], key
            want = _dense(ref[key], key in SYMMETRIC)
            have = _dense(got[key], key in SYMMETRIC)
        else:
            want, have = np.asarray(ref[key]), np.asarray(got[key])
        assert have.shape == want.shape, key
        scale = max(np.abs(want).max(initial=0.0), 1e-300)
        np.testing.assert_allclose(have, want, rtol=0, atol=RTOL * scale,
                                   err_msg=key)


if __name__ == "__main__":
    with gzip.GzipFile(PARENT_ASSEMBLY, "wb", mtime=0) as raw, \
            io.TextIOWrapper(raw) as fh:
        json.dump({case: record(case) for case in ASSEMBLY_CASES}, fh,
                  separators=(",", ":"))

"""Locally predicted energy-error reductions for hp-adaptivity on symmetric
elliptic variational equations.

For each element Q the Galerkin solution splits into an interior part and the
remainder; candidate low-dimensional spaces are spanned by the remainder plus
enrichment functions (new higher-degree interior bubbles, or functions glued
over a dividing-point refinement of Q and associated with its internal nodes).
The exact decrease of the squared energy error incurred by re-solving in such
a space comes from a small bordered linear system assembled from per-child
representation matrices, so many candidates can be compared per element at
negligible cost and without any a posteriori error estimator.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .assembly import data_load, group_quadrature
from .estimator import TIE_RTOL
from .mesh import corner_bits, map_points
from .polybasis import tensor_indices, tensor_shape_eval
from .space import constraint_coeffs


@dataclass
class LocalSplit:
    element: int
    interior_dofs: np.ndarray     # global dof ids with support inside the element
    u_local: np.ndarray           # coefficients (full length, zero elsewhere)
    u_rest: np.ndarray            # u - u_local

    @property
    def degenerate(self):
        # entirely local, nonzero solution: the candidate space loses a dim
        return not np.any(self.u_rest) and bool(np.any(self.u_local))


def local_split(space, u, eid):
    """Decompose u into the interior-supported part on eid and the rest."""
    ids = space.interior_dofs(eid)
    u_local = np.zeros_like(u)
    u_local[ids] = u[ids]
    return LocalSplit(element=eid, interior_dofs=ids,
                      u_local=u_local, u_rest=u - u_local)


# ---------------------------------------------------------------------------
# enrichment candidates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnrichmentCandidate:
    kind: str                 # 'p' or 'hp'
    element: int
    zhat: tuple | None        # dividing point for 'hp'
    p_multis: tuple = ()      # multi-index set for 'p'
    hp_nodes: tuple = ()      # ((axes, loc, pdist), ...) for 'hp'
    degree_cap: int = 0       # per-axis degree of the child representation

    @property
    def size(self):
        return len(self.p_multis) + len(self.hp_nodes)


def p_enrichment(space, eid, rule=None, full=False):
    """Interior bubbles of degree p+1.

    The narrow rule (default) takes the new bubbles only: 2 <= j_k <= p+1 with
    max j_k = p+1; with full=True the existing bubbles are included as well, so
    the candidate space contains the local part and the predicted reduction is
    guaranteed nonnegative (an enrichment rather than a replacement space).
    """
    p = space.degrees[eid]
    if rule is None:
        multis = tuple(m for m in itertools.product(range(2, p + 2),
                                                    repeat=space.dim)
                       if full or max(m) == p + 1)
    else:
        multis = tuple(tuple(int(j) for j in m) for m in rule)
        if any(min(m) < 2 for m in multis):
            raise ValueError("p-enrichment multi-indices need all components >= 2")
    if not multis:
        raise ValueError("empty p-enrichment index set")
    return EnrichmentCandidate(kind="p", element=eid, zhat=None,
                               p_multis=multis, degree_cap=max(max(m) for m in multis))


def internal_nodes(dim):
    """(axes, loc) tuples of the internal nodes of a dividing-point refinement:
    the r-dimensional ones number C(d, r) * 2^r."""
    out = []
    for r in range(dim + 1):
        for axes in itertools.combinations(range(dim), r):
            for loc in itertools.product((0, 1), repeat=r):
                out.append((axes, loc))
    return out


def hp_enrichment(space, eid, zhat=None, degree_rule=None, full=False):
    """Enrichment functions glued over the children of a dividing-point
    refinement, one per internal node and degree distribution.

    The narrow default carries one distribution per node (the element degree in
    every direction; nodes needing bubbles are skipped at p = 1). full=True
    takes all distributions with 2 <= p_k <= p, whose span contains every
    continuous piecewise polynomial of the refinement vanishing on the element
    boundary, and with it the local part: predictions become nonnegative.
    """
    d = space.dim
    p = space.degrees[eid]
    if zhat is None:
        zhat = (0.0,) * d
    zhat = tuple(float(z) for z in zhat)
    nodes = []
    for axes, loc in internal_nodes(d):
        r = len(axes)
        if degree_rule is not None:
            dists = [tuple(int(x) for x in dist) for dist in degree_rule(axes, loc)]
        elif full:
            dists = [dist for dist in itertools.product(range(2, p + 1), repeat=r)]
            if r == 0:
                dists = [()]
        else:
            dists = [(p,) * r] if (r == 0 or p >= 2) else []
        for dist in dists:
            if any(pk < 2 for pk in dist):
                raise ValueError("hp degree distributions need p_k >= 2")
            nodes.append((axes, loc, dist))
    if not nodes:
        raise ValueError("empty hp-enrichment set")
    cap = max([p] + [max(dist) for _, _, dist in nodes if dist])
    return EnrichmentCandidate(kind="hp", element=eid, zhat=zhat,
                               hp_nodes=tuple(nodes), degree_cap=cap)


def node_children(node, dim):
    """Child bit-rows supporting the enrichment function of an internal node."""
    axes, loc, _ = node
    bits = corner_bits(dim)
    rows = []
    for row, b in enumerate(bits):
        if all(b[a] == loc[j] for j, a in enumerate(axes)):
            rows.append(row)
    return rows


def node_child_multi(node, child_bits):
    """The tensor multi-index the enrichment takes on one supporting child."""
    axes, loc, dist = node
    d = len(child_bits)
    multi = [0] * d
    for k in range(d):
        if k in axes:
            multi[k] = dist[axes.index(k)]
        else:
            multi[k] = 1 - child_bits[k]
    return tuple(multi)


# ---------------------------------------------------------------------------
# representation matrices and local assembly
# ---------------------------------------------------------------------------

@dataclass
class RepresentationMatrices:
    rows: np.ndarray          # global dofs with support on the element
    C_Q: np.ndarray           # (ndofs_on_Q, n_parent) at the unified degree
    B: list                   # per child: (n_parent, n_child) constraint coeffs
    C: list                   # per child: C_Q @ B_i
    D: list                   # per child: (L, n_child) enrichment rows
    child_corners: np.ndarray  # (2^d, 2^d, d) corner array of the children
    child_bits: np.ndarray
    degree: int               # unified per-axis degree of the representation


def representation_matrices(space, candidate):
    """C_Q, B_i, C_i = C_Q B_i and the enrichment rows D_i on each child."""
    eid = candidate.element
    mesh = space.mesh
    d = space.dim
    p = space.degrees[eid]
    P = max(candidate.degree_cap, p)
    zhat = np.zeros(d) if candidate.zhat is None else np.asarray(candidate.zhat)
    bits = corner_bits(d)
    # the children's corners are the parent's images of the 3^d grid points
    # (-1, zhat_k, 1) per axis; child b has corners at grid index b + corner
    grid = np.array(list(itertools.product(*[(-1.0, z, 1.0) for z in zhat])))
    at = (bits[:, None, :] + bits[None, :, :]) @ 3 ** np.arange(d - 1, -1, -1)
    child_corners = map_points(mesh.corner_array([eid])[0], grid)[at]
    idx_P = tensor_indices(P, d)
    col_of = {tuple(m): i for i, m in enumerate(idx_P)}
    n_parent = len(idx_P)

    grows, cmat = space.connectivity(eid)
    C_Q = np.zeros((len(grows), n_parent))
    idx_p = space.local_indices(eid)
    for j, m in enumerate(idx_p):
        C_Q[:, col_of[tuple(m)]] = cmat[:, j]

    B, C, D = [], [], []
    L = candidate.size
    support = [set(node_children(node, d)) for node in candidate.hp_nodes]
    for row, b in enumerate(bits):
        Bi = constraint_coeffs(idx_P, tuple(b), zhat, degree=P)
        B.append(Bi)
        C.append(C_Q @ Bi)
        Di = np.zeros((L, n_parent))
        if candidate.kind == "p":
            for k, m in enumerate(candidate.p_multis):
                Di[k, :] = Bi[col_of[m], :]
        else:
            for k, node in enumerate(candidate.hp_nodes):
                if row in support[k]:
                    Di[k, col_of[node_child_multi(node, tuple(b))]] = 1.0
        D.append(Di)
    return RepresentationMatrices(rows=grows, C_Q=C_Q, B=B, C=C, D=D,
                                  child_corners=child_corners, child_bits=bits,
                                  degree=P)


def child_local_matrices(rep, problem):
    """Poisson stiffness (2^d, nb, nb) and load (2^d, nb) of the children
    over the unified representation basis, at the Gauss rule of order
    P + 1 + problem.extra_order like the global load."""
    P = rep.degree
    idx = tensor_indices(P, rep.child_corners.shape[-1])
    pts, w, Jinv = group_quadrature(rep.child_corners, P + 1 + problem.extra_order)
    V, G = tensor_shape_eval(pts, idx, jmax=max(P, 1))
    A_loc = _kernels.scalar_stiffness(G @ Jinv, w)
    if problem.volume is None:
        return A_loc, np.zeros((len(w), len(idx)))
    return A_loc, data_load(problem.volume, map_points(rep.child_corners, pts),
                            w, V)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

@dataclass
class Prediction:
    candidate: EnrichmentCandidate
    delta_e2: float
    eps: float
    y: np.ndarray
    rho_w_yxi: float          # residual of the enrichment combination
    skipped: str | None = None

    @classmethod
    def skip(cls, candidate, reason):
        return cls(candidate=candidate, delta_e2=0.0, eps=0.0,
                   y=np.zeros(0), rho_w_yxi=0.0, skipped=reason)


def predict_reduction(space, problem, A_W, b_W, u_W, split, candidate,
                      rep=None, locals_=None):
    """Assemble and solve the bordered prediction system for one candidate.

    A_W, b_W are the assembled global form and load; u_W the Galerkin solution.
    Returns the predicted squared-error reduction with its certificate data.
    """
    if split.degenerate:
        return Prediction.skip(candidate, "entirely local solution")
    if rep is None:
        rep = representation_matrices(space, candidate)
    if locals_ is None:
        locals_ = child_local_matrices(rep, problem)
    A_loc, b_loc = locals_
    L = candidate.size
    A = np.zeros((L, L))
    bvec = np.zeros(L)
    cvec = np.zeros(L)
    cloc = np.zeros(L)
    u_rest_rows = split.u_rest[rep.rows]
    u_loc_rows = split.u_local[rep.rows]
    for Di, Ai, bi, Ci in zip(rep.D, A_loc, b_loc, rep.C):
        DA = Di @ Ai
        A += DA @ Di.T
        bvec += Di @ bi
        cvec += DA @ (Ci.T @ u_rest_rows)
        cloc += DA @ (Ci.T @ u_loc_rows)
    norm_W_sq = float(u_W @ (A_W @ u_W))
    norm_loc_sq = float(split.u_local @ (A_W @ split.u_local))
    delta = float(b_W @ split.u_local) - norm_loc_sq
    a00 = norm_W_sq - norm_loc_sq - 2.0 * delta
    M = np.zeros((L + 1, L + 1))
    M[0, 0] = a00
    M[0, 1:] = cvec
    M[1:, 0] = cvec
    M[1:, 1:] = A
    rhs = np.concatenate([[delta], bvec - cvec])
    try:
        sol = np.linalg.solve(M, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    scale = max(np.abs(rhs).max(), np.abs(M).max(), 1.0)
    if np.abs(M @ sol - rhs).max() > 1e-8 * scale:
        return Prediction.skip(candidate, "singular bordered system")
    eps, y = float(sol[0]), sol[1:]
    delta_e2 = float(y @ (bvec - cvec)) - norm_loc_sq + eps * delta
    rho_w = float(y @ (bvec - cvec - cloc))
    return Prediction(candidate=candidate, delta_e2=delta_e2, eps=eps, y=y,
                      rho_w_yxi=rho_w)


def choose_enrichment(space, problem, A_W, b_W, u_W, eid, candidates=None):
    """Evaluate candidates on one element and return (best, all predictions);
    ties (within TIE_RTOL of the larger reduction, at least 1e-14) prefer
    the p-enrichment, then the earlier candidate."""
    if candidates is None:
        candidates = default_candidates(space, eid)
    split = local_split(space, u_W, eid)
    preds = [predict_reduction(space, problem, A_W, b_W, u_W, split, c)
             for c in candidates]
    best = None
    for pr in preds:
        if pr.skipped:
            continue
        if best is None:
            best = pr
            continue
        tol = max(1e-14, TIE_RTOL * max(abs(pr.delta_e2), abs(best.delta_e2)))
        if pr.delta_e2 > best.delta_e2 + tol:
            best = pr
        elif (abs(pr.delta_e2 - best.delta_e2) <= tol
              and best.candidate.kind == "hp" and pr.candidate.kind == "p"):
            best = pr
    if best is None:
        best = Prediction.skip(candidates[0], "all candidates skipped")
    return best, preds


def default_candidates(space, eid, menu="narrow"):
    """One p- and one hp-candidate; the 'enrichment' menu uses the superset
    index rules, which keep the candidate spaces above the local part."""
    full = menu == "enrichment"
    out = [p_enrichment(space, eid, full=full)]
    try:
        out.append(hp_enrichment(space, eid, full=full))
    except ValueError:
        pass
    return out


def apply_enrichment(mesh, prediction):
    """Apply the chosen enrichment: raise the degree or refine at the dividing
    point (children inherit the degree), then re-enforce degree comparability."""
    cand = prediction.candidate
    eid = cand.element
    if cand.kind == "p":
        mesh = mesh.with_degrees({eid: mesh.elements[eid].degree + 1})
    else:
        mesh = mesh.refine_element(eid, np.asarray(cand.zhat))
    return enforce_degree_comparability(mesh)


def enforce_degree_comparability(mesh, bound=1):
    """Raise lagging neighbor degrees until facet-neighbor degrees differ by
    at most the bound."""
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 100:
            raise RuntimeError("degree comparability did not stabilize")
        raises = {}
        for eid in mesh.active_ids():
            p = mesh.elements[eid].degree
            for info in mesh.facet_neighbors(eid):
                if info.kind != "interior":
                    continue
                for piece in info.pieces:
                    q = mesh.elements[piece.neighbor].degree
                    if p - q > bound:
                        raises[piece.neighbor] = max(raises.get(piece.neighbor, 0),
                                                     p - bound)
        if raises:
            mesh = mesh.with_degrees(raises)
            changed = True
    return mesh

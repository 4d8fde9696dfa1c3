"""Locally predicted energy-error reductions for hp-adaptivity on symmetric
elliptic variational equations.

For each element Q the Galerkin solution splits into an interior part and the
remainder; candidate low-dimensional spaces are spanned by the remainder plus
enrichment functions (new higher-degree interior bubbles, or functions glued
over a dividing-point refinement of Q and associated with its internal nodes).
The exact decrease of the squared energy error incurred by re-solving in such
a space comes from a small bordered linear system assembled from per-child
representation matrices, so many candidates can be compared per element at
negligible cost and without any a posteriori error estimator. The
representation matrices are reference tables per candidate content and
element degree, and a step predicts all its candidates in one pass per
such group of elements.
"""

import itertools
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .elliptic import poisson_blocks
from .estimator import TIE_RTOL
from .mesh import corner_bits, map_points, positions_of
from .polybasis import reference_table, tensor_indices
from .space import constraint_coeffs


@dataclass
class LocalSplit:
    interior_dofs: np.ndarray     # global dof ids with support inside the element
    u_local: np.ndarray           # coefficients (full length, zero elsewhere)
    u_rest: np.ndarray            # u - u_local


def local_split(space, u, eid):
    """Decompose u into the interior-supported part on eid and the rest."""
    ids = space.interior_dofs(positions_of(space.mesh.active_ids(), [eid]))[0]
    u_local = np.zeros_like(u)
    u_local[ids] = u[ids]
    return LocalSplit(interior_dofs=ids, u_local=u_local, u_rest=u - u_local)


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

    @property
    def content(self):
        """The candidate but its element: candidates of equal content on
        elements of one degree share their reference tables."""
        return (self.kind, self.zhat, self.p_multis, self.hp_nodes, self.degree_cap)


def p_enrichment(space, eid, rule=None, full=False):
    """Interior bubbles of degree p+1.

    The narrow rule (default) takes the new bubbles only: 2 <= j_k <= p+1 with
    max j_k = p+1; with full=True the existing bubbles are included as well, so
    the candidate space contains the local part and the predicted reduction is
    guaranteed nonnegative (an enrichment rather than a replacement space).
    """
    p = int(space.mesh.degree[eid])
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
    return [(axes, loc) for r in range(dim + 1)
            for axes in itertools.combinations(range(dim), r)
            for loc in itertools.product((0, 1), repeat=r)]


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
    p = int(space.mesh.degree[eid])
    zhat = (0.0,) * d if zhat is None else tuple(float(z) for z in zhat)
    nodes = []
    for axes, loc in internal_nodes(d):
        r = len(axes)
        if degree_rule is not None:
            dists = [tuple(int(x) for x in dist) for dist in degree_rule(axes, loc)]
        elif full:
            dists = list(itertools.product(range(2, p + 1), repeat=r))
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


# ---------------------------------------------------------------------------
# representation matrices and local assembly
# ---------------------------------------------------------------------------

@reference_table
def representation_table(dim, degree, kind, zhat, p_multis, hp_nodes, degree_cap):
    """The reference tables of one candidate content on elements of one
    degree, over the children of the dividing-point refinement at zhat (at
    the centre for 'p') and in the tensor basis of the unified degree
    P = max(degree_cap, degree): R (2^d, (P+1)^d, (degree+1)^d), which
    restricts the element's shape coefficients to each child, D (2^d, L,
    (P+1)^d), the enrichment functions on each child, and the reference
    corners (2^d, 2^d, d) of the children."""
    P = max(degree_cap, degree)
    bits = corner_bits(dim)
    z = np.zeros(dim) if zhat is None else np.asarray(zhat)
    B = np.stack([constraint_coeffs(tensor_indices(P, dim), tuple(b), z, degree=P)
                  for b in bits])

    def col(multis):
        return np.ravel_multi_index(np.asarray(multis).T, (P + 1,) * dim)

    if kind == "p":
        D = B[:, col(p_multis)]
    else:
        # an internal node's function is the tensor shape of degree dist_k
        # along its axes and the hat towards the node along the others, on
        # the children next to the node
        D = np.zeros((len(bits), len(hp_nodes), (P + 1) ** dim))
        for k, (axes, loc, dist) in enumerate(hp_nodes):
            on = np.all(bits[:, list(axes)] == loc, axis=1)
            multis = 1 - bits[on]
            multis[:, list(axes)] = dist
            D[on, k, col(multis)] = 1.0
    # corner c of child b lies at (-1, z_k, 1)[b_k + c_k] along axis k
    corners = np.choose(bits[:, None] + bits[None], (-1.0, z, 1.0))
    return np.swapaxes(B[:, col(tensor_indices(degree, dim))], 1, 2), D, corners


@dataclass
class RepresentationMatrices:
    R: np.ndarray             # (2^d, n_child, nb) element shapes on each child
    D: np.ndarray             # (2^d, L, n_child) enrichment rows on each child
    child_corners: np.ndarray  # (n 2^d, 2^d, d) children, element by element
    degree: int               # unified per-axis degree of the representation


def representation_matrices(space, candidate, eids=None):
    """The candidate's reference tables and the corner array of the
    children of its element, or of the elements eids of its degree."""
    p = int(space.mesh.degree[candidate.element])
    R, D, xhat = representation_table(space.dim, p, *candidate.content)
    corners = space.mesh.corner_array([candidate.element] if eids is None else eids)
    return RepresentationMatrices(
        R=R, D=D, child_corners=map_points(corners, xhat.reshape(-1, space.dim)
                                           ).reshape((-1,) + xhat.shape[1:]),
        degree=max(candidate.degree_cap, p))


def child_local_matrices(rep, problem):
    """Poisson stiffness (n 2^d, nb, nb) and load (n 2^d, nb) of the
    children over the unified representation basis, at the Gauss rule of
    order P + 1 + problem.extra_order like the global load, by
    `poisson_blocks`: the affine children's stiffness from the cached
    reference tensor, the others' by quadrature, in blocks of
    `elliptic.GRADIENT_BLOCK` gradient entries."""
    P = rep.degree
    return poisson_blocks(rep.child_corners, P, P + 1 + problem.extra_order,
                          problem.volume)


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


def _solve_bordered(M, rhs):
    """Solutions (n, L + 1) of a stack of bordered systems by one stacked
    solve; if one matrix is singular, every system is solved alone, and
    least squares solves those that stay singular."""
    try:
        sol = np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        sol = np.full_like(rhs, np.nan)
    for k in np.flatnonzero(~np.isfinite(sol).all(axis=1)):
        sol[k] = (_solve_bordered(M[k:k + 1], rhs[k:k + 1])[0] if len(M) > 1
                  else np.linalg.lstsq(M[k], rhs[k], rcond=None)[0])
    return sol


def _predict(space, problem, A_W, b_W, u_W, u_int, candidates):
    """The predictions of a list of candidates, one pass per group of equal
    content on elements of equal degree; u_int is u_W on the interior dofs
    of (at least) the candidates' elements and zero on all other dofs.

    A group's child matrices come from one quadrature, its bordered systems
    from batched contractions and one stacked solve. A candidate whose
    system is singular falls back to least squares, and is skipped if the
    residual stays above 1e-8 of the system's scale."""
    elements = np.array([c.element for c in candidates], dtype=np.intp)
    pos = positions_of(space.mesh.active_ids(), elements)
    groups = defaultdict(list)
    for i, (c, p) in enumerate(zip(candidates, space.mesh.degree[elements].tolist())):
        groups[(p,) + c.content].append(i)
    out = [None] * len(candidates)
    Au = None
    for idx in map(np.array, groups.values()):
        ids = space.interior_dofs(pos[idx])
        nnz = np.count_nonzero(u_int[ids], axis=1)
        local = (nnz > 0) & (nnz == np.count_nonzero(u_W))  # u_W - u_loc = 0
        for i in idx[local]:
            out[i] = Prediction.skip(candidates[i], "entirely local solution")
        if local.all():
            continue
        if Au is None:  # the first group with systems to solve
            Au, norm_W_sq = A_W @ u_int, float(u_W @ (A_W @ u_W))
        idx, ids = idx[~local], ids[~local]
        eids = elements[idx]
        rep = representation_matrices(space, candidates[idx[0]], eids)
        A_loc, b_loc = child_local_matrices(rep, problem)
        n, (nc, L, nb) = len(eids), rep.D.shape
        DA = rep.D @ A_loc.reshape(n, nc, nb, nb)
        A = (DA @ np.swapaxes(rep.D, 1, 2)).sum(axis=1)
        bvec = (rep.D @ b_loc.reshape(n, nc, nb, 1)).sum(axis=1)[..., 0]
        # the children's coefficients of the remainder and of the local part
        U = space.element_coeffs(pos[idx], np.stack([u_W - u_int, u_int], axis=1))
        cvec, cloc = np.moveaxis((DA @ (rep.R @ U[:, None])).sum(axis=1), -1, 0)
        u_loc = u_int[ids]
        norm_loc_sq = np.einsum("nk,nk->n", u_loc, Au[ids])
        delta = np.einsum("nk,nk->n", u_loc, b_W[ids]) - norm_loc_sq
        a00 = norm_W_sq - norm_loc_sq - 2.0 * delta
        M = np.empty((n, L + 1, L + 1))
        M[:, 0, 0], M[:, 0, 1:], M[:, 1:, 0], M[:, 1:, 1:] = a00, cvec, cvec, A
        rhs = np.concatenate([delta[:, None], bvec - cvec], axis=1)
        sol = _solve_bordered(M, rhs)
        scale = np.maximum(np.abs(rhs).max(axis=1), np.abs(M).max(axis=(1, 2)))
        singular = (np.abs((M @ sol[..., None])[..., 0] - rhs).max(axis=1)
                    > 1e-8 * np.maximum(scale, 1.0))
        eps, y = sol[:, 0], sol[:, 1:]
        delta_e2 = np.einsum("nl,nl->n", y, bvec - cvec) - norm_loc_sq + eps * delta
        rho_w = np.einsum("nl,nl->n", y, bvec - cvec - cloc)
        for k, i in enumerate(idx):
            out[i] = (Prediction.skip(candidates[i], "singular bordered system")
                      if singular[k] else
                      Prediction(candidate=candidates[i], delta_e2=float(delta_e2[k]),
                                 eps=float(eps[k]), y=y[k], rho_w_yxi=float(rho_w[k])))
    return out


def predict_reduction(space, problem, A_W, b_W, u_W, split, candidate):
    """The predicted squared-error reduction of one candidate, with its
    certificate data, from the assembled global form A_W and load b_W, the
    Galerkin solution u_W and split = local_split(space, u_W,
    candidate.element): the one-candidate view of `choose_enrichment`."""
    return _predict(space, problem, A_W, b_W, u_W, split.u_local, [candidate])[0]


def _best(preds):
    """(best, preds): ties within TIE_RTOL of the larger reduction prefer
    the p-enrichment, then the earlier candidate."""
    live = [pr for pr in preds if not pr.skipped]
    if not live:
        return Prediction.skip(preds[0].candidate, "all candidates skipped"), preds
    best = live[0]
    for pr in live[1:]:
        tol = TIE_RTOL * max(abs(pr.delta_e2), abs(best.delta_e2))
        if pr.delta_e2 > best.delta_e2 + tol:
            best = pr
        elif (abs(pr.delta_e2 - best.delta_e2) <= tol
              and best.candidate.kind == "hp" and pr.candidate.kind == "p"):
            best = pr
    return best, preds


def choose_enrichment(space, problem, A_W, b_W, u_W, candidates):
    """Predict the candidates {eid: [candidates]} of one step in one pass;
    returns {eid: (best, predictions)}, the best by `_best`."""
    u_int = np.zeros_like(u_W)
    ids = space.interior_dofs()
    u_int[ids] = u_W[ids]
    preds = iter(_predict(space, problem, A_W, b_W, u_W, u_int,
                          [c for cs in candidates.values() for c in cs]))
    return {eid: _best([next(preds) for _ in cs]) for eid, cs in candidates.items()}


@lru_cache(maxsize=None)
def _default_templates(dim, degree, full):
    """The default candidates of the elements of one dimension and degree,
    on a stand-in element -1 for `default_candidates` to replace."""
    one = SimpleNamespace(dim=dim, mesh=SimpleNamespace(degree={-1: degree}))
    out = [p_enrichment(one, -1, full=full)]
    try:
        out.append(hp_enrichment(one, -1, full=full))
    except ValueError:
        pass
    return tuple(out)


def default_candidates(space, eid, menu="narrow"):
    """One p- and one hp-candidate; the 'enrichment' menu uses the superset
    index rules, which keep the candidate spaces above the local part. The
    candidates are cached templates per dimension, degree and menu, stamped
    with the element."""
    return [replace(c, element=eid) for c in _default_templates(
        space.dim, int(space.mesh.degree[eid]), menu == "enrichment")]


def apply_enrichment(mesh, predictions):
    """Apply the chosen enrichments, in order, to the elements an earlier one
    has not already refined: refine at the dividing point, or raise the
    degree and with it the lagging neighbor degrees. Each maximal run of
    refinements is one `Mesh.refine_many` pass, with one dividing point per
    element; raises go one at a time, since a raise before a refinement
    gives the children the raised degree, and a raise changes which
    neighbors lag at the next. Refinement keeps comparable degrees
    comparable: children inherit their parent's degree, and every new facet
    pair lies inside an old one."""
    for hp, run in itertools.groupby((pr.candidate for pr in predictions),
                                     key=lambda cand: cand.kind == "hp"):
        run = list(run)
        if hp:
            mesh = mesh.refine_many([c.element for c in run], [c.zhat for c in run])
            continue
        for cand in run:
            eid = cand.element
            if mesh.first_child[eid] < 0:
                mesh = enforce_degree_comparability(mesh, {eid: mesh.degree[eid] + 1})
    return mesh


def enforce_degree_comparability(mesh, degrees):
    """One snapshot of mesh with the degrees {eid: p} and the least raise of
    lagging degrees after which facet neighbors differ by at most one, where
    only pairs at the elements of degrees may differ by more."""
    deg = dict(degrees)
    work = list(deg)
    tab = mesh.facet_table()
    # no round limit: the worklist empties, since degrees only rise and
    # never above the largest
    while work:
        eid = work.pop()
        low = deg.get(eid, mesh.degree[eid]) - 1
        rows, _ = mesh.facet_neighbors(eid)
        for nb in tab.act[tab.nb[rows]].tolist():
            if deg.get(nb, mesh.degree[nb]) < low:
                deg[nb] = low
                work.append(nb)
    return mesh.with_degrees(deg)

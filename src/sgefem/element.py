"""The local displacement element and its nodal basis.

The shape space on a triangle K is

    V(K) = P2(K; R^2) + b_K P1(K; R^2) + b_K^2 P0(K; R^2),

a 20-dimensional space (b_K is the cubic bubble, the product of the
barycentric coordinates).  Both components share the same 10-dimensional
scalar space, for which every modal function is a single barycentric
monomial:

    l1^2, l2^2, l3^2, l1 l2, l1 l3, l2 l3   (spans P2)
    b_K, b_K l1, b_K l2                     (spans b_K P1)
    b_K^2

The scalar degrees of freedom are the values at the 3 vertices, the
values at the 3 edge midpoints, the mean normal derivative over each
edge (against the global edge normal, normalized by the edge length)
and the mean over the triangle.  A vector DoF is a scalar DoF applied
to one component; vector index = 2 * scalar index + component.

Because point values and means of barycentric monomials do not depend
on the triangle, only the three normal-derivative rows of the DoF
matrix vary with geometry, which keeps the batched construction cheap.

Each barycentric derivative of a modal monomial is a monomial too, so
one table, :func:`modal_derivatives`, holds the element's calculus:
:func:`modal_tables` evaluates it at points and
:func:`sgefem.assembly.reference_moments` integrates it exactly.
"""

import numpy as np

from .quadrature import rule_for_degree, edge_rule

#: exponent triples (a, b, c) of the scalar modal monomials l1^a l2^b l3^c
MODAL_EXPONENTS = ((2, 0, 0), (0, 2, 0), (0, 0, 2),
                   (1, 1, 0), (1, 0, 1), (0, 1, 1),
                   (1, 1, 1), (2, 1, 1), (1, 2, 1),
                   (2, 2, 2))

#: the barycentric partials of the first derivatives, of the distinct
#: second derivatives (the column order of the reference moments) and of
#: every second derivative (row-major, for the (3, 3) Hessian tables)
FIRST_PARTIALS = ((0,), (1,), (2,))
SECOND_PARTIALS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_ORDERED_PAIRS = tuple((s, u) for s in range(3) for u in range(3))

#: quadrature degrees for the DoF functionals
_EDGE_DOF_DEGREE = 5      # normal derivative of degree-6 functions on an edge
_MEAN_DOF_DEGREE = 6      # element mean of degree-6 functions

#: largest length-scaled condition number accepted for a DoF matrix
_COND_LIMIT = 1e10


class SingularElementError(ValueError):
    """DoF matrix numerically singular (degenerate triangle)."""


def modal_derivatives(partials):
    """Barycentric derivatives of the modal monomials as monomials:
    coefficients (10, k) and exponent triples (10, k, 3), one per tuple
    of partials in ``partials``; a vanishing derivative has coefficient
    0."""
    exps = np.repeat(np.array(MODAL_EXPONENTS)[:, None], len(partials),
                     axis=1)
    coef = np.ones(exps.shape[:2])
    for k, d in enumerate(partials):
        for s in d:
            coef[:, k] *= exps[:, k, s]
            exps[:, k, s] -= 1
    return coef, np.maximum(exps, 0)


def modal_tables(bary, order):
    """Values and barycentric derivatives of the 10 scalar monomials:
    the table of :func:`modal_derivatives` evaluated at the points.

    Parameters
    ----------
    bary : (npts, 3) array of barycentric coordinates
    order : 0, 1 or 2

    Returns
    -------
    val : (npts, 10)
    dbary : (npts, 10, 3), first partials w.r.t. each coordinate
        (only for order >= 1)
    d2bary : (npts, 10, 3, 3), second partials (only for order == 2)
    """
    L = np.asarray(bary, dtype=float)
    # powers of each coordinate, exponent 0..2
    P = np.ones((len(L), 3, 3))
    P[:, :, 1] = L
    P[:, :, 2] = L * L
    tables = []
    for partials in (((),), FIRST_PARTIALS, _ORDERED_PAIRS)[:order + 1]:
        coef, exps = modal_derivatives(partials)
        table = np.zeros((len(L), 10, len(partials)))
        for k, d in enumerate(partials):
            # fixed product order, differentiated coordinates first and
            # then the others ascending: the tables' last bits depend on it
            factors = sorted(set(d)) + [s for s in range(3) if s not in d]
            for j in np.flatnonzero(coef[:, k]):
                v = coef[j, k]
                for s in factors:
                    v = v * P[:, s, exps[j, k, s]]
                table[:, j, k] = v
        tables.append(table)
    tables[0] = tables[0][:, :, 0]
    if order == 2:
        tables[2] = tables[2].reshape(len(L), 10, 3, 3)
    return tables[0] if order == 0 else tuple(tables)


# universal ingredients of the DoF matrix ---------------------------------

def _universal_rows():
    """Rows 0-5 (point values) and 9 (element mean) of the scalar DoF
    matrix, identical for every triangle."""
    pts = np.array([
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],   # vertices
        [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0],   # midpoints
    ])
    rows = np.zeros((10, 10))
    rows[:6] = modal_tables(pts, 0)
    rule = rule_for_degree(_MEAN_DOF_DEGREE)
    rows[9] = rule.weights @ modal_tables(rule.points, 0)
    return rows


_UNIVERSAL_ROWS = _universal_rows()

# modal gradients and weights at the Gauss points of the three edges, for
# the normal-derivative rows; edge s runs from local vertex (s+1) to (s+2)
_EDGE_T, EDGE_WEIGHTS = edge_rule(_EDGE_DOF_DEGREE)


def _edge_point_tables():
    pts = []
    for s in range(3):
        lam = np.zeros((len(_EDGE_T), 3))
        lam[:, (s + 1) % 3] = 1.0 - _EDGE_T
        lam[:, (s + 2) % 3] = _EDGE_T
        pts.append(lam)
    bary = np.vstack(pts)                        # (3*g, 3)
    _, dbary = modal_tables(bary, 1)
    return dbary.reshape(3, len(_EDGE_T), 10, 3)  # (edge, gauss, modal, coord)


EDGE_DBARY = _edge_point_tables()


def batched_scalar_dof_matrices(mesh, tris=None):
    """Scalar DoF matrices (len(tris), 10, 10) for the given triangles.

    Only the three normal-derivative rows depend on the triangle: entry
    (6+s, j) is sum_u dbary[j, u] (grad(l_u) . n_s) averaged over the
    Gauss points of edge s, with n_s the global normal of that edge.
    """
    if tris is None:
        tris = np.arange(mesh.num_triangles)
    tris = np.asarray(tris)
    G = mesh.bary_grads[tris]                          # (T, 3, 2)
    normals = mesh.edge_normal[mesh.edge_of_triangle[tris]]  # (T, 3, 2)

    M = np.broadcast_to(_UNIVERSAL_ROWS, (len(tris), 10, 10)).copy()
    # gn[t, e, u] = grad(l_u) . n_e
    gn = np.einsum("tux,tex->teu", G, normals)
    # mean over gauss points of sum_u dbary[e, g, j, u] * gn[t, e, u]
    M[:, 6:9] = np.einsum("egju,teu,g->tej", EDGE_DBARY, gn, EDGE_WEIGHTS)
    return M


def _scaled_conditions(M, h):
    """:func:`scaled_conditions` of the DoF matrices M (T, 10, 10) of
    triangles with diameters h, from a scaled copy of M."""
    M = M.copy()
    M[:, 6:9] *= h[:, None, None]
    cond = np.full(len(M), np.inf)
    finite = np.isfinite(M).all(axis=(1, 2))
    sv = np.linalg.svd(M[finite], compute_uv=False)
    regular = sv[:, -1] > 0.0
    cond[np.flatnonzero(finite)[regular]] = sv[regular, 0] / sv[regular, -1]
    return cond


def scaled_conditions(mesh):
    """2-norm condition numbers of the length-scaled scalar DoF matrices,
    one per triangle, from a stacked SVD.

    The normal-derivative rows are multiplied by the triangle diameter so
    that every row is dimensionless.  A triangle whose matrix is not
    finite (zero area, non-finite vertices) or exactly singular maps to
    inf; nothing is raised.
    """
    return _scaled_conditions(batched_scalar_dof_matrices(mesh),
                              mesh.h_of_triangle)


def batched_scalar_coeff(mesh):
    """Nodal coefficients (T, 10, 10) of every triangle: column j of
    ``coeff[t]`` expands nodal shape function j in the modal monomials.
    They are computed once per shape class of the mesh (see
    :class:`sgefem.mesh.Mesh`), from its first triangle, so the rows of
    one class are equal.

    Raises :class:`SingularElementError` when a length-scaled DoF matrix
    has condition number above 1e10 (see :func:`scaled_conditions`).
    """
    reps = mesh.shape_rep
    M = batched_scalar_dof_matrices(mesh, reps)
    cond = _scaled_conditions(M, mesh.h_of_triangle[reps])
    if not np.all(cond <= _COND_LIMIT):
        raise SingularElementError(
            "DoF matrix nearly singular (condition number %.3e)"
            % cond.max())
    return np.linalg.inv(M).take(mesh.shape_of_triangle, axis=0)

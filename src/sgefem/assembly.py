"""Assembly of the discrete bilinear forms and load vectors.

The displacement form is

    a_h(u, v) = 2 mu [ (eps(u), eps(v)) + iota^2 (grad_h eps(u), grad_h eps(v)) ]

with eps the symmetric gradient, the coupling form is

    b_h(v, q) = (div v, q) + iota^2 (grad_h div v, grad q)

and the pressure form is c(p, q) = [(p, q) + iota^2 (grad p, grad q)] / lambda.
All matrices split into an iota-independent part plus iota^2 times a
second part; the ``*_parts`` functions expose the split so parameter
sweeps can reuse one assembly, and loads are assembled part by part
for the same reason.  lambda never enters the displacement
blocks: it only scales c, which is what makes the method locking-free.

Strain tensors are built entrywise from the scalar shape-function
gradients and Hessians and contracted over all components with einsum;
element kernels are scattered into COO triplets and reduced to CSR with
a stable lexicographic sort, so the result is deterministic and the
block system is symmetric bit for bit.
"""

import functools

import numpy as np
from scipy.sparse import csr_matrix

from .element import modal_tables
from .quadrature import rule_for_degree

_CHUNK = 256

#: quadrature degrees; the (eps, eps) integrand multiplies two degree-5
#: gradients, so the stiffness needs degree 10, and Example-2 style
#: polynomial loads f . phi reach degree 11, so loads use degree 12
DEGREE_STIFFNESS = 10
DEGREE_COUPLING = 6
DEGREE_LOAD = 12


@functools.lru_cache(maxsize=None)
def modal_rule(degree, order):
    """Quadrature rule of the given degree and the modal tables at its
    points (read-only: the cache hands them to every caller)."""
    rule = rule_for_degree(degree)
    tables = modal_tables(rule.points, order)
    for t in tables if order else (tables,):
        t.setflags(write=False)
    return rule, tables


def chunks(num_triangles):
    """Triangle index batches bounding the size of per-point tables."""
    for lo in range(0, num_triangles, _CHUNK):
        yield np.arange(lo, min(lo + _CHUNK, num_triangles))


def scalar_tables(mesh, coeff, tris, degree, order):
    """Nodal values/derivatives at the quadrature points of a chunk.

    ``coeff`` holds the nodal coefficients of all triangles (see
    :func:`~sgefem.element.batched_scalar_coeff`).  Returns (rule,
    tables) where tables is (val,) for order 0, (val, grad) for order 1,
    (val, grad, hess) for order 2 with shapes (Tc, q, 10),
    (Tc, q, 10, 2), (Tc, q, 10, 2, 2).
    """
    rule, modal = modal_rule(degree, order)
    C = coeff[tris]                             # (Tc, 10, 10)
    G = mesh.bary_grads[tris]                   # (Tc, 3, 2)
    if order == 0:
        val = modal
        return rule, (np.einsum("qj,tji->tqi", val, C),)
    if order == 1:
        val, dbary = modal
        grad = np.einsum("qjs,tsx,tji->tqix", dbary, G, C,
                         optimize=True)
        return rule, (np.einsum("qj,tji->tqi", val, C), grad)
    val, dbary, d2bary = modal
    grad = np.einsum("qjs,tsx,tji->tqix", dbary, G, C, optimize=True)
    mh = np.einsum("qjsu,tsx,tuy->tqjxy", d2bary, G, G, optimize=True)
    hess = np.einsum("tqjxy,tji->tqixy", mh, C)
    return rule, (np.einsum("qj,tji->tqi", val, C), grad, hess)


def _accumulate_csr(rows, cols, vals, shape):
    """Deterministic COO -> CSR: stable sort by (row, col), then sum runs.

    Emission order is preserved inside each (row, col) group, so entries
    at (r, c) and (c, r) of a symmetric assembly see their summands in
    the same order and the result is symmetric bit for bit.
    """
    rows = np.concatenate(rows) if isinstance(rows, list) else rows
    cols = np.concatenate(cols) if isinstance(cols, list) else cols
    vals = np.concatenate(vals) if isinstance(vals, list) else vals
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.nonzero(first)[0]
    data = np.add.reduceat(vals, starts)
    urows = rows[starts]
    ucols = cols[starts]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, urows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return csr_matrix((data, ucols, indptr), shape=shape)


def _scatter(kernels, row_dofs, col_dofs, out):
    """Append masked COO triplets of a batch of dense kernels."""
    Tc, nr, nc = kernels.shape
    r = np.repeat(row_dofs[:, :, None], nc, axis=2)
    c = np.repeat(col_dofs[:, None, :], nr, axis=1)
    mask = (r >= 0) & (c >= 0)
    out[0].append(r[mask])
    out[1].append(c[mask])
    out[2].append(kernels[mask])


def _vector_strain_tables(grad, hess=None):
    """Entrywise strain tensors of the 20 vector shape functions.

    eps[t, q, i, a, b] = (d_a phi_b + d_b phi_a)/2 for vector DoF
    i = 2 * scalar + component, from the scalar tables; deps adds the
    leading derivative index when a Hessian table is given.
    """
    Tc, q = grad.shape[:2]
    g = np.zeros((Tc, q, 20, 2, 2))
    for c in (0, 1):
        g[:, :, c::2, c, :] = grad
    eps = 0.5 * (g + g.swapaxes(3, 4))
    if hess is None:
        return eps
    gg = np.zeros((Tc, q, 20, 2, 2, 2))
    for c in (0, 1):
        gg[:, :, c::2, :, c, :] = hess
    deps = 0.5 * (gg + gg.swapaxes(4, 5))
    return eps, deps


def _symmetrize(k):
    # einsum reduces (i, j) and (j, i) through different BLAS paths; the
    # explicit average restores exact (bitwise) kernel symmetry
    return 0.5 * (k + k.swapaxes(1, 2))


def kernel_a_parts(mesh, coeff, tris):
    """Element kernels of the two integrals of a_h for a batch of
    triangles: (eps, eps) and (grad eps, grad eps), each (Tc, 20, 20)."""
    rule, (_, grad, hess) = scalar_tables(mesh, coeff, tris,
                                          DEGREE_STIFFNESS, 2)
    eps, deps = _vector_strain_tables(grad, hess)
    w = rule.weights[None, :] * mesh.area[tris][:, None]
    k0 = np.einsum("tq,tqiab,tqjab->tij", w, eps, eps, optimize=True)
    k2 = np.einsum("tq,tqizab,tqjzab->tij", w, deps, deps, optimize=True)
    return _symmetrize(k0), _symmetrize(k2)


def assemble_a_parts(mesh, coeff, vmap):
    """The two integrals of a_h without material factors:
    (eps, eps) and (grad eps, grad eps).  a_h = 2 mu (first + iota^2 second).
    """
    n = vmap.n_u
    out0 = ([], [], [])
    out2 = ([], [], [])
    for tris in chunks(mesh.num_triangles):
        k0, k2 = kernel_a_parts(mesh, coeff, tris)
        dofs = vmap.cell_dofs[tris]
        _scatter(k0, dofs, dofs, out0)
        _scatter(k2, dofs, dofs, out2)
    return (_accumulate_csr(*out0, shape=(n, n)),
            _accumulate_csr(*out2, shape=(n, n)))


def kernel_b_parts(mesh, coeff, tris):
    """Element kernels (Tc, 3, 20) of (div v, q) and (grad div v, grad q);
    rows are the local P1 pressure functions."""
    rule, (_, grad, hess) = scalar_tables(mesh, coeff, tris,
                                          DEGREE_COUPLING, 2)
    lam_vals = rule.points                          # P1 basis = barycentric
    w = rule.weights[None, :] * mesh.area[tris][:, None]
    # div phi_(2s+c) = grad[..., s, c]
    div = np.empty(grad.shape[:2] + (20,))
    for c in (0, 1):
        div[:, :, c::2] = grad[..., c]
    k0 = np.einsum("tq,tqj,ql->tlj", w, div, lam_vals, optimize=True)
    gdiv = np.empty(hess.shape[:2] + (20, 2))
    for c in (0, 1):
        gdiv[:, :, c::2, :] = hess[..., c]
    G = mesh.bary_grads[tris]
    k2 = np.einsum("tq,tqjz,tlz->tlj", w, gdiv, G, optimize=True)
    return k0, k2


def assemble_b_parts(mesh, coeff, vmap, qmap):
    """(div v, q) and (grad div v, grad q); b_h = first + iota^2 second."""
    out0 = ([], [], [])
    out2 = ([], [], [])
    for tris in chunks(mesh.num_triangles):
        k0, k2 = kernel_b_parts(mesh, coeff, tris)
        rows = qmap.cell_dofs[tris]
        cols = vmap.cell_dofs[tris]
        _scatter(k0, rows, cols, out0)
        _scatter(k2, rows, cols, out2)
    shape = (qmap.n_p, vmap.n_u)
    return (_accumulate_csr(*out0, shape=shape),
            _accumulate_csr(*out2, shape=shape))


def assemble_pressure_parts(mesh, qmap):
    """P1 mass and stiffness matrices on the free pressure DoFs."""
    rule = rule_for_degree(2)
    lam = rule.points
    mass_loc = np.einsum("q,qa,qb->ab", rule.weights, lam, lam)
    mass_loc = 0.5 * (mass_loc + mass_loc.T)
    n = qmap.n_p
    outm = ([], [], [])
    outk = ([], [], [])
    G = mesh.bary_grads
    area = mesh.area
    dofs = qmap.cell_dofs
    km = area[:, None, None] * mass_loc[None, :, :]
    kk = _symmetrize(area[:, None, None] * np.einsum("taz,tbz->tab", G, G))
    _scatter(km, dofs, dofs, outm)
    _scatter(kk, dofs, dofs, outk)
    return (_accumulate_csr(*outm, shape=(n, n)),
            _accumulate_csr(*outk, shape=(n, n)))


def assemble_load(mesh, coeff, vmap, load):
    """Load vectors of the parts of a load and the Gram matrix of the parts.

    ``load`` maps points (npts, 2) to a tuple of m part values, each
    (npts, 2), so that one evaluation per chunk serves every part.
    Returns F (m, n_u) with F[k, i] = (f_k, phi_i) over the free DoFs,
    and G (m, m) with G[k, l] = (f_k, f_l).
    """
    F = G = None
    for tris in chunks(mesh.num_triangles):
        rule, (val,) = scalar_tables(mesh, coeff, tris, DEGREE_LOAD, 0)
        pts = np.einsum("qs,tsx->tqx", rule.points, mesh.tri_coords[tris])
        parts = [fv.reshape(pts.shape) for fv in load(pts.reshape(-1, 2))]
        if F is None:
            F = np.zeros((len(parts), vmap.n_u))
            G = np.zeros((len(parts), len(parts)))
        w = rule.weights[None, :] * mesh.area[tris][:, None]
        dofs = vmap.cell_dofs[tris]
        mask = dofs >= 0
        for k, fv in enumerate(parts):
            loc = np.empty((len(tris), 20))
            for c in (0, 1):
                loc[:, c::2] = np.einsum("tq,tq,tqi->ti", w, fv[..., c], val)
            np.add.at(F[k], dofs[mask], loc[mask])
            for l in range(k + 1):
                G[k, l] += float(np.einsum("tq,tqa->", w, fv * parts[l]))
                G[l, k] = G[k, l]
    return F, G


def assemble_norm_gram_parts(mesh, coeff, vmap):
    """Gradient and second-derivative Gram matrices of the displacement
    space (the iota-split of G_V).  The second seminorm sums one term
    per second-derivative multi-index, so the mixed derivative is
    counted once."""
    n = vmap.n_u
    out1 = ([], [], [])
    out2 = ([], [], [])
    for tris in chunks(mesh.num_triangles):
        rule, (_, grad, hess) = scalar_tables(mesh, coeff, tris,
                                              DEGREE_STIFFNESS, 2)
        w = rule.weights[None, :] * mesh.area[tris][:, None]
        k1 = _symmetrize(np.einsum("tq,tqix,tqjx->tij", w, grad, grad,
                                   optimize=True))
        full = np.einsum("tq,tqixy,tqjxy->tij", w, hess, hess,
                         optimize=True)
        mixed = np.einsum("tq,tqi,tqj->tij", w, hess[..., 0, 1],
                          hess[..., 0, 1], optimize=True)
        k2 = _symmetrize(full - mixed)
        dofs = vmap.cell_dofs[tris]
        # vector Gram = scalar Gram on each component
        for kern, out in ((k1, out1), (k2, out2)):
            vk = np.zeros((len(tris), 20, 20))
            for c in (0, 1):
                vk[:, c::2, c::2] = kern
            _scatter(vk, dofs, dofs, out)
    return (_accumulate_csr(*out1, shape=(n, n)),
            _accumulate_csr(*out2, shape=(n, n)))


def mean_constraint_vector(mesh, qmap):
    """Integrals of the pressure basis functions (the zero-mean row)."""
    m = np.zeros(qmap.n_p)
    dofs = qmap.cell_dofs
    mask = dofs >= 0
    contrib = np.repeat(mesh.area[:, None] / 3.0, 3, axis=1)
    np.add.at(m, dofs[mask], contrib[mask])
    return m

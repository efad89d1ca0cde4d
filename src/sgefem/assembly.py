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

Every scalar modal function is a barycentric monomial and the triangles
are affine, so each stiffness and coupling integral is a
triangle-independent reference moment of the monomials' barycentric
derivatives: :func:`reference_moments` integrates exactly the one
derivative table, :func:`sgefem.element.modal_derivatives`, that
:func:`sgefem.element.modal_tables` evaluates at points.  The moments
are contracted with the barycentric gradients and then with the nodal
coefficients C as C^T Q C, giving the scalar Grams of first and second
derivatives, the kernels of the norm Grams of the scalar space, from
which the 20 x 20 vector kernels are filled (Kirby, Knepley, Logg and
Scott, SIAM J. Sci. Comput. 27, 2005).  No quadrature-point axis enters
the per-element work, and it runs once per shape class of the mesh (see
:class:`sgefem.mesh.Mesh`), in chunks of classes: triangles of
bitwise-equal geometry have equal kernels, and a uniform mesh has two
classes.  A kernel function takes the nodal coefficients ``coeff``
(Tc, 10, 10) of the batch ``tris`` it is given.

Kernels reach CSR through a :class:`ScatterPlan` built once per
assembly call for its (row map, column map) and shared by both parts.
It sorts one key per (row entity, column entity) pair of a triangle by
one stable argsort, a quarter of the vector DoF pairs, gathers each
pair's component block from its triangle's class kernel, sums the
blocks of each run in triangle order by one reduceat and puts each sum
at a CSR position given in closed form.  The result is deterministic,
the block system is symmetric bit for bit, and the parts of one plan
share one pattern.  :func:`assemble_a_parts` and
:func:`assemble_b_parts` return the plan and the class kernels, from
which :meth:`ScatterPlan.combine` forms each iota-combination without
keeping the summed parts; the other assemblies return the summed
parts, on which :func:`combine_parts` forms it.  Both give the same
matrix bit for bit.
"""

import functools
import math

import numpy as np
from scipy.sparse import csr_matrix

from .element import (FIRST_PARTIALS, SECOND_PARTIALS,
                      modal_derivatives, modal_tables)
from .quadrature import rule_for_degree

_CHUNK = 256

#: quadrature degree of loads and errors: Example-2 style polynomial
#: loads f . phi reach degree 11
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
    """Triangle index batches bounding the size of per-chunk temporaries."""
    for lo in range(0, num_triangles, _CHUNK):
        yield np.arange(lo, min(lo + _CHUNK, num_triangles))


# the six distinct barycentric pairs (s, u), s <= u, and the three
# distinct physical second derivatives (xx, xy, yy)
_PAIR_S, _PAIR_U = np.array(SECOND_PARTIALS).T
_HESS_X = np.array([0, 0, 1])
_HESS_Y = np.array([0, 1, 1])


#: k! for the exponents of products of two modal derivatives
_FACTORIAL = np.array([math.factorial(k) for k in range(15)], dtype=float)


def _moments(coef, exps):
    """coef * (1/|K|) int_K l1^a l2^b l3^c = coef 2 a! b! c! / (a+b+c+2)!;
    numerator and denominator are exact integers below 2^53, so the one
    division rounds the exact value correctly."""
    return (coef * 2.0 * _FACTORIAL[exps].prod(axis=-1)
            / _FACTORIAL[exps.sum(axis=-1) + 2])


@functools.lru_cache(maxsize=None)
def reference_moments():
    """Triangle-independent moments of the modal monomials' barycentric
    derivatives, over the reference triangle with unit measure.

    With d_s the barycentric partials and a = (s, u) a distinct pair:

    - r1 (100, 9):  r1[(m, n), (s, u)] = int d_s psi_m d_u psi_n
    - r2 (100, 36): r2[(m, n), (a, b)] = int d2_a psi_m d2_b psi_n
    - b1 (30, 3):   b1[(l, m), s] = int lambda_l d_s psi_m
    - b2 (10, 6):   b2[m, a] = int d2_a psi_m

    Each integrand is a barycentric polynomial, so the moments are
    exact rationals (correctly rounded here) rather than quadrature sums.
    Built on first use and read-only.
    """
    c1, e1 = modal_derivatives(FIRST_PARTIALS)
    c2, e2 = modal_derivatives(SECOND_PARTIALS)
    r1 = _moments(c1[:, None, :, None] * c1[None, :, None, :],
                  e1[:, None, :, None] + e1[None, :, None, :])
    r2 = _moments(c2[:, None, :, None] * c2[None, :, None, :],
                  e2[:, None, :, None] + e2[None, :, None, :])
    b1 = _moments(c1[None], e1[None] + np.eye(3, dtype=int)[:, None, None])
    b2 = _moments(c2, e2)
    tables = (r1.reshape(100, 9), r2.reshape(100, 36), b1.reshape(30, 3), b2)
    for t in tables:
        t.setflags(write=False)
    return tables


def hessian_map(G):
    """P (Tc, 6, 3) taking the distinct barycentric second partials of a
    function to its physical (xx, xy, yy) ones: D_k f = sum_a d2_a f
    P[a, k], the off-diagonal pairs counting both orders."""
    a = G[:, _PAIR_S][..., _HESS_X] * G[:, _PAIR_U][..., _HESS_Y]
    b = G[:, _PAIR_U][..., _HESS_X] * G[:, _PAIR_S][..., _HESS_Y]
    return np.where((_PAIR_S == _PAIR_U)[:, None], a, a + b)


def _scalar_grams(mesh, coeff, tris):
    """Element Gram matrices of the scalar nodal functions of a chunk.

    Returns S (Tc, 2, 2, 10, 10) with S[x, y, i, j] = int d_x phi_i
    d_y phi_j, and H (Tc, 3, 3, 10, 10) with H[k, l, i, j] = int D_k
    phi_i D_l phi_j over the second derivatives D = (xx, xy, yy).  The
    reference moments are contracted with the barycentric gradients by
    one product each (Q), then with the nodal coefficients as C^T Q C.
    """
    r1, r2, _, _ = reference_moments()
    Tc = len(tris)
    area = mesh.area[tris][:, None, None, None, None]
    G = mesh.bary_grads[tris]
    P = hessian_map(G)
    g1 = area * G[:, :, None, :, None] * G[:, None, :, None, :]  # [s,u,x,y]
    g2 = area * P[:, :, None, :, None] * P[:, None, :, None, :]  # [a,b,k,l]
    q1 = r1 @ g1.reshape(Tc, 9, 4).transpose(1, 0, 2).reshape(9, -1)
    q2 = r2 @ g2.reshape(Tc, 36, 9).transpose(1, 0, 2).reshape(36, -1)
    Q = np.concatenate([q1.reshape(10, 10, Tc, 4),
                        q2.reshape(10, 10, Tc, 9)], axis=3)
    Q = np.ascontiguousarray(Q.transpose(2, 0, 3, 1))     # [t, m, kl, n]
    QC = (Q.reshape(Tc, 130, 10) @ coeff).reshape(Tc, 10, 130)
    grams = (coeff.swapaxes(1, 2) @ QC).reshape(Tc, 10, 13, 10)
    grams = grams.transpose(0, 2, 1, 3)                     # [t, kl, i, j]
    return (grams[:, :4].reshape(Tc, 2, 2, 10, 10),
            grams[:, 4:].reshape(Tc, 3, 3, 10, 10))


def _symmetrize(k):
    # the Grams of (i, j) and (j, i) come from different products; the
    # explicit average restores exact (bitwise) kernel symmetry
    return 0.5 * (k + k.swapaxes(1, 2))


def _strain_kernel(S):
    """Vector kernel (Tc, 20, 20) of sum_ab int e_ab(phi_I) e_ab(phi_J)
    from the scalar Grams S[d, c] of a gradient: entry (2i+c, 2j+d) is
    (delta_cd tr S + S[d, c]) / 2 at (i, j)."""
    K = 0.5 * S.transpose(0, 3, 2, 4, 1)                   # [t, i, c, j, d]
    half_trace = 0.5 * (S[:, 0, 0] + S[:, 1, 1])
    for c in (0, 1):
        K[:, :, c, :, c] += half_trace
    return _symmetrize(K.reshape(len(S), 20, 20))


def kernel_a_parts(mesh, coeff, tris):
    """Element kernels of the two integrals of a_h for a batch of
    triangles: (eps, eps) and (grad eps, grad eps), each (Tc, 20, 20).

    The second is the strain kernel of M[d, c] = sum_z int d_zd phi_i
    d_zc phi_j, which are the (xx, xy) and (xy, yy) blocks of H."""
    S, H = _scalar_grams(mesh, coeff, tris)
    return _strain_kernel(S), _strain_kernel(H[:, :2, :2] + H[:, 1:, 1:])


def kernel_norm_gram_parts(mesh, coeff, tris):
    """Element kernels (Tc, 10, 10) of the gradient and second-derivative
    Grams of the scalar space; the second sums one term per
    second-derivative multi-index, so the mixed derivative counts once."""
    S, H = _scalar_grams(mesh, coeff, tris)
    return (_symmetrize(S[:, 0, 0] + S[:, 1, 1]),
            _symmetrize(H[:, 0, 0] + H[:, 1, 1] + H[:, 2, 2]))


def kernel_b_parts(mesh, coeff, tris):
    """Element kernels (Tc, 3, 20) of (div v, q) and (grad div v, grad q);
    rows are the local P1 pressure functions (the barycentric
    coordinates).  Column 2j+c holds int lambda_l d_c phi_j and
    sum_z int d_zc phi_j d_z lambda_l."""
    _, _, b1, b2 = reference_moments()
    Tc = len(tris)
    area = mesh.area[tris][:, None, None, None]
    G = mesh.bary_grads[tris]
    Ct = coeff.swapaxes(1, 2)[:, None]                      # [t, 1, j, m]
    k0 = Ct @ (b1 @ G).reshape(Tc, 3, 10, 2)                # [t, l, j, c]
    hm = b2 @ hessian_map(G)                                # [t, m, k]
    # sum_z G[l, z] D_zc psi_m, with (z, c) -> k = (xx, xy, yy)
    gd = (G[:, :, None, None, 0] * hm[:, None, :, :2]
          + G[:, :, None, None, 1] * hm[:, None, :, 1:])
    k2 = Ct @ gd
    return ((area * k0).reshape(Tc, 3, 20),
            (area * k2).reshape(Tc, 3, 20))


def _index_type(bound):
    """int32 when every index is below ``bound``, as scipy keeps its
    CSR index arrays; int64 otherwise."""
    return np.int32 if bound < 2 ** 31 else np.int64


class ScatterPlan:
    """COO -> CSR map of one (row DoF map, column DoF map) pair, for
    element kernels given once per shape class.

    A DoF map puts node s (a scalar entity) at the DoFs k s + c of its
    k ``components`` and local DoF k i + c at local node i of
    ``cell_nodes``: a class kernel (nr k_r, nc k_c) is a k_r x k_c block
    per pair of local nodes.  Triangle t contributes the kernel of class
    ``classes[t]``; pairs with an eliminated node (-1) are masked out.
    One stable argsort of a key per (row node, column node) pair of a
    triangle orders the pairs by (row, col) and, inside a run of equal
    keys, by triangle.  The plan holds each pair's class-kernel block
    (``take``) and each run's first pair (``starts``); :meth:`csr` sums
    the gathered blocks of all runs, entry (c, d) by entry, by one
    reduceat, which adds a run as a 1-D reduceat of its summands does.
    CSR row k_r r + c holds the runs f_r, ..., f_r + n_r - 1 of node r:
    entry (c, d) of run k is at k_r k_c f_r + c k_c n_r + k_c (k - f_r)
    + d, which ``order`` gives per block of k_c entries.  So each entry
    is the sum of a stable lexsort of the per-triangle entries, bit for
    bit, (r, c) and (c, r) of a symmetric assembly add the same summands
    in the same order, and all matrices of one plan share its
    ``indices`` and ``indptr``.  Every index array is int32 where its
    values fit.
    """

    def __init__(self, row_map, col_map, shape, classes):
        rows, cols = row_map.cell_nodes, col_map.cell_nodes
        cr, cc = self.blocks = row_map.components, col_map.components
        nr, nc = rows.shape[1], cols.shape[1]
        self.shape, n_cols = shape, shape[1] // cc
        mask = (rows[:, :, None] >= 0) & (cols[:, None, :] >= 0)
        key = (rows[:, :, None] * n_cols + cols[:, None, :])[mask]
        # takes, starts and places among the sums are below these
        small = _index_type(max(len(key), (classes.max(initial=0) + 1)
                                * nr * nc, cr * len(key)))
        order = np.argsort(key, kind="stable")
        self.take = ((classes[:, None, None] * nr + np.arange(nr)[:, None])
                     * nc + np.arange(nc))[mask][order].astype(small)
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))  # keys >= 0
        row, col = divmod(key[starts], n_cols)          # of each run
        self.starts = starts.astype(small)
        del key, order, starts

        # block b (of k_c entries) of CSR row k_r r + c is run k = b -
        # (k_r - 1) f_r - c n_r: row c R + k of the sums, R = nruns
        nruns = len(row)
        runs = np.bincount(row, minlength=shape[0] // cr)
        shift = (np.arange(cr) * (nruns - runs[:, None])
                 - (cr - 1) * (np.cumsum(runs) - runs)[:, None])
        nb = np.repeat(runs, cr)                # blocks per CSR row
        order = np.arange(cr * nruns) + np.repeat(shift.ravel(), nb)
        # scipy keeps int32 indices when they fit; matching its choice
        # avoids a per-matrix copy and keeps the arrays shared
        idx = _index_type(max(shape[0], shape[1], cr * cc * nruns))
        self.indices = (cc * col.astype(idx)[order % nruns, None]
                        + np.arange(cc, dtype=idx)).ravel()
        self.indptr = np.zeros(shape[0] + 1, dtype=idx)
        np.cumsum(cc * nb, out=self.indptr[1:])
        self.order = order.astype(small)

    def _sums(self, kernels):
        """The summed blocks (k_r, runs, k_c) of the class kernels
        (K, nr k_r, nc k_c), in run order."""
        cr, cc = self.blocks
        K, rows, cols = kernels.shape
        blocks = kernels.reshape(K, rows // cr, cr, cols // cc, cc)
        blocks = blocks.transpose(2, 0, 1, 3, 4).reshape(cr, -1, cc)
        return np.add.reduceat(np.take(blocks, self.take, axis=1),
                               self.starts, axis=1)

    def _matrix(self, sums):
        data = np.take(sums.reshape(-1, self.blocks[1]), self.order, axis=0)
        return csr_matrix((data.ravel(), self.indices, self.indptr),
                          shape=self.shape)

    def csr(self, kernels):
        """The assembled matrix of the class kernels (K, nr k_r, nc k_c)."""
        return self._matrix(self._sums(kernels))

    def parts(self, kernels):
        """The assembled matrix of each part's class kernels."""
        return tuple(self.csr(k) for k in kernels)

    def combine(self, kernels, iota2, scale=1.0):
        """scale (first + iota2 second) of the parts whose class kernels
        are ``kernels`` = (first, second).  It is the arithmetic of
        :func:`combine_parts` on their :meth:`parts`, entry by entry, on
        the sums before their one reorder, so the data are the same bit
        for bit, but no summed part outlives the call."""
        first, second = kernels
        sums = self._sums(second)
        sums *= iota2
        sums += self._sums(first)
        sums *= scale
        return self._matrix(sums)


def combine_parts(first, second, iota2, scale=1.0):
    """scale (first + iota2 second) of two parts of one pattern, such as
    the :meth:`ScatterPlan.parts` of one plan, as a matrix that holds the
    first part's ``indices`` and ``indptr``.  The data are those of
    scipy's sum bit for bit; unlike it, an entry that cancels to zero
    stays stored."""
    if not (np.array_equal(first.indptr, second.indptr)
            and np.array_equal(first.indices, second.indices)):
        raise ValueError("the parts do not share one pattern")
    return csr_matrix(((first.data + iota2 * second.data) * scale,
                       first.indices, first.indptr), shape=first.shape)


def _assemble_pair(kernel, mesh, coeff, row_map, col_map, shape):
    """The scatter plan and the class kernels (2, K, rows, cols) of both
    parts of a kernel pair, computed once per shape class in chunks of
    classes."""
    reps = mesh.shape_rep
    kernels = np.empty((2, len(reps)) + tuple(
        m.cell_nodes.shape[1] * m.components for m in (row_map, col_map)))
    for batch in chunks(len(reps)):
        kernels[0, batch], kernels[1, batch] = kernel(mesh, coeff[batch],
                                                      reps[batch])
    return ScatterPlan(row_map, col_map, shape, mesh.shape_of_triangle), \
        kernels


def assemble_a_parts(mesh, coeff, vmap):
    """The scatter plan and class kernels of the two integrals of a_h
    without material factors: (eps, eps) and (grad eps, grad eps).
    a_h = 2 mu (first + iota^2 second), which
    :meth:`ScatterPlan.combine` assembles."""
    n = vmap.n_u
    return _assemble_pair(kernel_a_parts, mesh, coeff, vmap, vmap, (n, n))


def assemble_b_parts(mesh, coeff, vmap, qmap):
    """The scatter plan and class kernels of (div v, q) and
    (grad div v, grad q); b_h = first + iota^2 second."""
    return _assemble_pair(kernel_b_parts, mesh, coeff, qmap, vmap,
                          (qmap.n_p, vmap.n_u))


def kernel_pressure_parts(mesh, coeff, tris):
    """P1 mass and stiffness kernels (Tc, 3, 3) of a batch of triangles
    (``coeff`` is not read: P1 functions need no nodal coefficients)."""
    rule = rule_for_degree(2)
    lam = rule.points
    mass_loc = np.einsum("q,qa,qb->ab", rule.weights, lam, lam)
    mass_loc = 0.5 * (mass_loc + mass_loc.T)
    G = mesh.bary_grads[tris]
    area = mesh.area[tris][:, None, None]
    return (area * mass_loc,
            _symmetrize(area * np.einsum("taz,tbz->tab", G, G)))


def assemble_pressure_parts(mesh, qmap):
    """P1 mass and stiffness matrices on the free pressure DoFs."""
    n, K = qmap.n_p, len(mesh.shape_rep)
    plan, kernels = _assemble_pair(kernel_pressure_parts, mesh,
                                   np.empty((K, 0)), qmap, qmap, (n, n))
    return plan.parts(kernels)


def assemble_load(mesh, coeff, vmap, load):
    """Load vectors of the parts of a load and the Gram matrix of the parts.

    ``load`` maps points (npts, 2) to a tuple of m part values, each
    (npts, 2), so that one evaluation per chunk serves every part; a part
    given as None is identically zero, and its load vector and Gram
    entries stay zero without being assembled.
    Returns F (m, n_u) with F[k, i] = (f_k, phi_i) over the free DoFs,
    and G (m, m) with G[k, l] = (f_k, f_l).
    """
    rule, modal = modal_rule(DEGREE_LOAD, 0)
    # the nodal functions at the rule's points, once per shape class
    shape_val = np.einsum("qj,tji->tqi", modal, coeff)
    F = G = None
    for tris in chunks(mesh.num_triangles):
        val = shape_val[mesh.shape_of_triangle[tris]]
        pts = np.einsum("qs,tsx->tqx", rule.points, mesh.tri_coords[tris])
        parts = [None if fv is None else fv.reshape(pts.shape)
                 for fv in load(pts.reshape(-1, 2))]
        if F is None:
            F = np.zeros((len(parts), vmap.n_u))
            G = np.zeros((len(parts), len(parts)))
        w = rule.weights[None, :] * mesh.area[tris][:, None]
        nodes = vmap.cell_nodes[tris]
        mask = nodes >= 0
        for k, fv in enumerate(parts):
            if fv is None:
                continue
            # component c of entity s is DoF 2 s + c, so F[k, c::2]
            for c in (0, 1):
                loc = np.einsum("tq,tq,tqi->ti", w, fv[..., c], val)
                np.add.at(F[k, c::2], nodes[mask], loc[mask])
            for l in range(k + 1):
                if parts[l] is not None:
                    G[k, l] += float(np.einsum("tq,tqa->", w, fv * parts[l]))
                    G[l, k] = G[k, l]
    return F, G


def assemble_norm_gram_parts(mesh, coeff, vmap):
    """Gradient and second-derivative Gram matrices g1, g2 of the scalar
    space on the free scalar entities of ``vmap``.  The norm of V_h acts
    on each component alone, so its Gram matrix is
    G_V = (g1 + iota^2 g2) kron I_2."""
    n = vmap.n_u // 2
    plan, kernels = _assemble_pair(kernel_norm_gram_parts, mesh, coeff,
                                   vmap.scalar, vmap.scalar, (n, n))
    return plan.parts(kernels)


def mean_constraint_vector(mesh, qmap):
    """Integrals of the pressure basis functions (the zero-mean row)."""
    nodes = qmap.cell_nodes
    mask = nodes >= 0
    third = np.repeat(mesh.area[:, None] / 3.0, 3, axis=1)
    return np.bincount(nodes[mask], third[mask], minlength=qmap.n_p)

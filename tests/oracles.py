"""Independent reference computations used as test oracles.

The quadrature and calculus oracles deliberately avoid the code paths of
the package under test: exact barycentric moments come from the
factorial formula, the reference quadrature is a conical-product
Gauss-Jacobi rule built from scipy's Jacobi nodes instead of the
symmetric triangle tables, and the monomial tables come from
per-monomial branches instead of the package's derivative table.  The
per-point basis evaluator and the local interpolant take only the
nodal coefficients from the package; they evaluate one triangle at
arbitrary physical points and apply the DoF functionals by their own
quadrature, where the package works on batches at fixed quadrature
points.

The unsplit body forces (with their material parameters), pointwise
field values and gradients, and the inf-sup constant of one mesh and
iota are the references the package's split and batched forms are
checked against; no production path needs them.  So are the
quadrature-point element kernels with the lexsort COO accumulation
(which the reference-moment kernels and the scatter plan replaced),
the per-edge weak-continuity loop (which the batched check replaced),
the bordered sparse LU with iterative refinement (which the
projected conjugate gradients on the pressures replaced), the dense
inf-sup computation with its generalized eigenvalue helper (which the
sparse factorization of G_V replaced), the displacement error
seminorms with the per-point derivative maps (which one table of the
nodal functions' derivatives per shape class replaced), the P1 pressure
norm by quadrature (which the pressure Gram matrix replaced), and the
per-triangle loop over the edges of the mesh (which one stable argsort
replaced).  The dense packed jet sums every product term over every
stored row, where the package's jets store only their support and skip
the terms outside it.  The nested dissection recursion cuts one part
at a time, where the package cuts every part of a level at once.
"""

import numpy as np
from math import factorial, sqrt
from scipy.linalg import cho_factor, cho_solve, cholesky, eigh
from scipy.special import roots_jacobi, roots_legendre

from scipy.sparse import csr_matrix
from scipy.sparse.linalg import norm as sparse_norm, splu

from sgefem.assembly import DEGREE_LOAD, chunks, modal_rule
from sgefem.discretization import Discretization
from sgefem.element import (MODAL_EXPONENTS, batched_scalar_coeff,
                            batched_scalar_dof_matrices, modal_tables)
from sgefem.manufactured import monomials
from sgefem.quadrature import edge_rule, rule_for_degree
from sgefem.verify import _infsup_parts


def bary_moment(a, b, c):
    """(1/|K|) * integral over K of l1^a l2^b l3^c (exact, any triangle)."""
    return 2.0 * factorial(a) * factorial(b) * factorial(c) \
        / factorial(a + b + c + 2)


def loop_modal_tables(bary, order):
    """Values and barycentric derivatives of the 10 scalar monomials by
    per-monomial branches: the tables that evaluating the derivative
    table of ``sgefem.element.modal_derivatives`` replaced, bit for bit.

    Returns val (npts, 10), and for order >= 1 dbary (npts, 10, 3), and
    for order 2 d2bary (npts, 10, 3, 3).
    """
    L = np.asarray(bary, dtype=float)
    q = L.shape[0]
    # powers of each coordinate, exponent 0..2
    P = np.ones((q, 3, 3))
    P[:, :, 1] = L
    P[:, :, 2] = L * L

    val = np.empty((q, 10))
    dbary = np.empty((q, 10, 3)) if order >= 1 else None
    d2bary = np.empty((q, 10, 3, 3)) if order >= 2 else None

    for j, exp in enumerate(MODAL_EXPONENTS):
        facs = [P[:, s, exp[s]] for s in range(3)]
        val[:, j] = facs[0] * facs[1] * facs[2]
        if order >= 1:
            for s in range(3):
                a = exp[s]
                if a == 0:
                    dbary[:, j, s] = 0.0
                else:
                    others = [P[:, u, exp[u]] for u in range(3) if u != s]
                    dbary[:, j, s] = a * P[:, s, a - 1] * others[0] * others[1]
        if order >= 2:
            for s in range(3):
                for u in range(s, 3):
                    a, b = exp[s], exp[u]
                    if s == u:
                        if a < 2:
                            term = np.zeros(q)
                        else:
                            others = [P[:, w, exp[w]] for w in range(3)
                                      if w != s]
                            term = a * (a - 1) * others[0] * others[1]
                    else:
                        if a == 0 or b == 0:
                            term = np.zeros(q)
                        else:
                            w = 3 - s - u
                            term = (a * b * P[:, s, a - 1] * P[:, u, b - 1]
                                    * P[:, w, exp[w]])
                    d2bary[:, j, s, u] = term
                    d2bary[:, j, u, s] = term

    if order == 0:
        return val
    if order == 1:
        return val, dbary
    return val, dbary, d2bary


def conical_rule(p):
    """Conical-product rule on the reference triangle, exact to degree 2p-1.

    Returns barycentric points (p*p, 3) and weights summing to 1.
    Built via the Duffy map from [0,1]^2: Gauss-Jacobi(1,0) in the radial
    direction absorbs the Jacobian.
    """
    xj, wj = roots_jacobi(p, 1.0, 0.0)
    xl, wl = roots_legendre(p)
    r = (1.0 - xj) / 2.0       # radial; (1-x)/2 turns the Jacobi
    s = (xl + 1.0) / 2.0       # angular      weight (1-x) into r
    wr = wj / 4.0
    ws = wl / 2.0
    pts, wts = [], []
    for i in range(p):
        for k in range(p):
            x = r[i] * s[k]
            y = r[i] * (1.0 - s[k])
            pts.append((1.0 - x - y, x, y))
            wts.append(2.0 * wr[i] * ws[k])
    return np.array(pts), np.array(wts)


def quad_triangle(func_xy, verts, p=10):
    """Integrate func_xy(x, y) over the triangle with the conical rule."""
    pts, wts = conical_rule(p)
    verts = np.asarray(verts, dtype=float)
    xy = pts @ verts
    d1 = verts[1] - verts[0]
    d2 = verts[2] - verts[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    vals = func_xy(xy[:, 0], xy[:, 1])
    return area * np.sum(wts * vals)


def fd_derivative(f, x, y, ix, iy, h=1e-2, levels=4):
    """Mixed partial d^(ix+iy) f / dx^ix dy^iy by Richardson-extrapolated
    central differences.  f maps (x, y) scalars to a scalar."""

    def central(g, t, step, order):
        if order == 0:
            return g(t)
        gm = lambda s: central(g, s, step, order - 1)
        return (gm(t + step) - gm(t - step)) / (2.0 * step)

    def dxy(step):
        gx = lambda xx: central(lambda yy: f(xx, yy), y, step, iy)
        return central(gx, x, step, ix)

    # Richardson on the h^2 error expansion
    vals = [dxy(h / 2 ** k) for k in range(levels)]
    table = list(vals)
    for m in range(1, levels):
        fac = 4.0 ** m
        table = [(fac * table[i + 1] - table[i]) / (fac - 1.0)
                 for i in range(len(table) - 1)]
    return table[0]


def eval_basis(mesh, k, x, order):
    """Evaluate the 20 vector shape functions of triangle ``k`` at
    physical points x (2,) or (npts, 2).

    order 0: values (..., 20, 2); order 1 adds gradients (..., 20, 2, 2)
    with grad[i, a, b] = d(phi_i)_a / dx_b; order 2 adds Hessians
    (..., 20, 2, 2, 2) with hess[i, a, b, c] = d^2 (phi_i)_a / dx_b dx_c.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    G = mesh.bary_grads[k]
    C = batched_scalar_coeff(mesh)[mesh.shape_of_triangle[k]]
    centroid = mesh.tri_coords[k].mean(axis=0)
    bary = 1.0 / 3.0 + (x.reshape(-1, 2) - centroid) @ G.T
    tables = modal_tables(bary, order)
    if order == 0:
        tables = (tables,)
    scalar = [tables[0] @ C]
    if order >= 1:
        grad = np.einsum("qjs,sx->qjx", tables[1], G)
        scalar.append(np.einsum("qjx,ji->qix", grad, C))
    if order == 2:
        hess = np.einsum("qjsu,sx,uy->qjxy", tables[2], G, G)
        scalar.append(np.einsum("qjxy,ji->qixy", hess, C))

    out = []
    for table in scalar:
        # scalar shape i, component c -> vector dof 2 i + c
        vec = np.zeros((len(bary), 20, 2) + table.shape[2:])
        for c in (0, 1):
            vec[:, c::2, c] = table
        out.append(vec[0] if single else vec)
    return out[0] if order == 0 else tuple(out)


def local_interpolant(mesh, k, value_fn, grad_fn):
    """Apply the 20 DoF functionals of triangle ``k`` to a smooth vector
    field, with Gauss-Legendre edge means and the conical-product rule
    for the element mean.

    ``value_fn(x)`` maps (npts, 2) points to (npts, 2) values;
    ``grad_fn(x)`` to (npts, 2, 2) gradients with grad[i, a, b]
    = d u_a / dx_b.  Returns the 20 DoF values in local order.
    """
    verts = mesh.tri_coords[k]
    dofs = np.empty(20)
    dofs[0:6:2], dofs[1:6:2] = value_fn(verts).T
    mids = 0.5 * (verts[[1, 2, 0]] + verts[[2, 0, 1]])
    dofs[6:12:2], dofs[7:12:2] = value_fn(mids).T

    t, w = roots_legendre(4)
    t, w = (t + 1.0) / 2.0, w / 2.0
    normals = mesh.edge_normal[mesh.edge_of_triangle[k]]
    for s in range(3):
        a, b = verts[(s + 1) % 3], verts[(s + 2) % 3]
        pts = np.outer(1.0 - t, a) + np.outer(t, b)
        dn = grad_fn(pts) @ normals[s]                # (g, 2)
        dofs[12 + 2 * s:14 + 2 * s] = w @ dn

    pts, wts = conical_rule(5)                        # exact to degree 9
    dofs[18:20] = wts @ value_fn(pts @ verts)
    return dofs


class ProblemParams:
    """Material parameters mu > 0, lambda >= 0, 0 <= iota <= 1."""

    def __init__(self, mu=1.0, lam=1.0, iota=1.0):
        if not mu > 0:
            raise ValueError("mu must be positive")
        if not 0 <= lam <= 1e12:
            raise ValueError("lambda must lie in [0, 1e12]")
        if not 0.0 <= iota <= 1.0:
            raise ValueError("iota must lie in [0, 1]")
        self.mu = float(mu)
        self.lam = float(lam)
        self.iota = float(iota)


def field_value(field, x):
    """u at points x (..., 2), shape (..., 2)."""
    j1, j2 = field.jets(x)
    return np.stack([j1.value, j2.value], axis=-1)


def field_gradient(field, x):
    """du_a/dx_b at points x (..., 2), shape (..., 2, 2)."""
    jets = field.jets(x)
    g = np.empty(np.asarray(x).shape[:-1] + (2, 2))
    for a, j in enumerate(jets):
        g[..., a, 0] = j.partial(1, 0)
        g[..., a, 1] = j.partial(0, 1)
    return g


class DenseJet:
    """Bivariate Taylor polynomial truncated at total degree ``degree``,
    packed as one row of ``c`` per exponent of ``monomials(degree)``.

    Every row is stored and every product sums all its terms, in the
    (k, l) order of a[k, l] b[i - k, j - l]; the series builds t^k as
    the package does.  While every coefficient is finite, where the
    package's jet stores an exponent its coefficient is this one's up to
    the sign of an exact zero, and where it stores none this one's is
    zero.
    """

    def __init__(self, c, degree):
        self.c = c
        self.degree = degree

    @classmethod
    def variables(cls, x, degree):
        x = np.asarray(x, dtype=float)
        rows = monomials(degree)
        jets = []
        for axis in (0, 1):
            c = np.zeros((len(rows),) + x.shape[:-1])
            c[0] = x[..., axis]
            c[rows.index((1 - axis, axis))] = 1.0
            jets.append(cls(c, degree))
        return tuple(jets)

    @property
    def value(self):
        return self.c[0]

    def coeff(self, i, j):
        return self.c[monomials(self.degree).index((i, j))]

    def __add__(self, other):
        if isinstance(other, DenseJet):
            return DenseJet(self.c + other.c, self.degree)
        c = self.c.copy()
        c[0] = c[0] + other
        return DenseJet(c, self.degree)

    __radd__ = __add__

    def __neg__(self):
        return DenseJet(-self.c, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, DenseJet):
            return DenseJet(self.c * other, self.degree)
        rows = monomials(self.degree)
        out = np.zeros(np.broadcast_shapes(self.c.shape, other.c.shape))
        for r, (i, j) in enumerate(rows):
            for k in range(i + 1):
                for l in range(j + 1):
                    out[r] += (self.c[rows.index((k, l))]
                               * other.c[rows.index((i - k, j - l))])
        return DenseJet(out, self.degree)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def _series(self, derivatives):
        t = DenseJet(self.c.copy(), self.degree)
        t.c[0] = 0.0
        powers = [None, t]
        c = derivatives[1 % len(derivatives)] * t.c
        for k in range(2, self.degree + 1):
            half = powers[k // 2]
            tk = half * half if k % 2 == 0 else powers[k - 1] * t
            powers.append(tk)
            c = c + (derivatives[k % len(derivatives)]
                     / float(factorial(k))) * tk.c
        c[0] = c[0] + derivatives[0]
        return DenseJet(c, self.degree)

    def exp(self):
        return self._series((np.exp(self.value),))

    def sin(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._series((s, c, -s, -c))

    def cos(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._series((c, -s, -c, s))


def _divergence_parts(j1, j2):
    """grad(div u) and grad(laplace(div u)) from component jets."""
    gdiv = (j1.partial(2, 0) + j2.partial(1, 1),
            j1.partial(1, 1) + j2.partial(0, 2))
    glapdiv = (j1.partial(4, 0) + j2.partial(3, 1)
               + j1.partial(2, 2) + j2.partial(1, 3),
               j1.partial(3, 1) + j2.partial(2, 2)
               + j1.partial(1, 3) + j2.partial(0, 4))
    return gdiv, glapdiv


def body_force_sge(field, params, divergence_free=True):
    """f = -div sigma(u) + iota^2 div(laplace(sigma(u))) as a callable.

    With sigma(u) = 2 mu eps(u) + lambda (div u) I this expands to
    -mu lap(u) - (mu+lambda) grad(div u) plus iota^2 times the
    bilaplacian counterpart; for a field declared divergence-free (both
    study fields are) the grad(div) terms are dropped identically, so
    lambda never enters.
    """
    mu, lam, i2 = params.mu, params.lam, params.iota ** 2

    def f(x):
        j1, j2 = field.jets(x)
        out = np.empty(np.asarray(x).shape[:-1] + (2,))
        for a, j in enumerate((j1, j2)):
            lap = j.partial(2, 0) + j.partial(0, 2)
            bilap = (j.partial(4, 0) + 2.0 * j.partial(2, 2)
                     + j.partial(0, 4))
            out[..., a] = -mu * lap + i2 * mu * bilap
        if not divergence_free:
            gdiv, glapdiv = _divergence_parts(j1, j2)
            for a in (0, 1):
                out[..., a] += (mu + lam) * (-gdiv[a] + i2 * glapdiv[a])
        return out

    return f


def body_force_elasticity(field, params, divergence_free=True):
    """f = -mu lap(u) - (mu+lambda) grad(div u); the classical limit load.

    For a field declared divergence-free this is -mu lap(u), independent
    of both lambda and iota.
    """
    mu, lam = params.mu, params.lam

    def f(x):
        j1, j2 = field.jets(x)
        out = np.empty(np.asarray(x).shape[:-1] + (2,))
        out[..., 0] = -mu * (j1.partial(2, 0) + j1.partial(0, 2))
        out[..., 1] = -mu * (j2.partial(2, 0) + j2.partial(0, 2))
        if not divergence_free:
            gdiv, _ = _divergence_parts(j1, j2)
            for a in (0, 1):
                out[..., a] -= (mu + lam) * gdiv[a]
        return out

    return f


def min_generalized_eig(K, G):
    """Smallest eigenvalue of K x = theta G x with G SPD."""
    K = np.asarray(K, dtype=float)
    G = np.asarray(G, dtype=float)
    try:
        cholesky(G)
    except np.linalg.LinAlgError:
        raise ValueError("G is not symmetric positive definite")
    vals = eigh(K, G, eigvals_only=True)
    return float(vals[0])


def dense_infsup_from_parts(parts, iota):
    """beta_h from the parts of ``sgefem.verify._infsup_parts``, with a
    dense Cholesky factorization of G_V: the route the sparse one in
    ``sgefem.verify._infsup_from_parts`` replaced."""
    (b0, b2), (g1, g2), (mp, kp), Z = parts
    i2 = iota ** 2
    Bd = (b0 + i2 * b2).toarray()
    GV = (g1 + i2 * g2).toarray()
    GQ = (mp + i2 * kp).toarray()
    try:
        cf = cho_factor(GV)
    except np.linalg.LinAlgError:
        raise ValueError("G_V is not symmetric positive definite")
    K = Bd @ cho_solve(cf, Bd.T)
    K = 0.5 * (K + K.T)
    theta = min_generalized_eig(Z.T @ K @ Z, Z.T @ GQ @ Z)
    return sqrt(max(theta, 0.0))


def estimate_infsup(mesh, iota):
    """The discrete inf-sup constant beta_h at the given iota.

    beta_h^2 is the smallest eigenvalue of (B G_V^{-1} B^T) q
    = theta G_Q q on the mean-zero pressure subspace, computed densely.
    """
    return dense_infsup_from_parts(_infsup_parts(Discretization(mesh)),
                                   iota)


# quadrature-point element kernels and the lexsort COO accumulation: the
# assembly path the reference-moment kernels and the scatter plan replaced

#: the (eps, eps) integrand multiplies two degree-5 gradients; the
#: coupling integrand a degree-5 divergence and a linear pressure
DEGREE_STIFFNESS = 10
DEGREE_COUPLING = 6

def scalar_tables(mesh, C, tris, degree):
    """Values, gradients (Tc, q, 10, 2) and Hessians (Tc, q, 10, 2, 2)
    of the scalar nodal functions at the points of the degree rule, for
    the triangles ``tris`` with nodal coefficients C (Tc, 10, 10), as the
    package's kernels take them."""
    rule, (val, dbary, d2bary) = modal_rule(degree, 2)
    G = mesh.bary_grads[tris]
    grad = np.einsum("qjs,tsx,tji->tqix", dbary, G, C, optimize=True)
    mh = np.einsum("qjsu,tsx,tuy->tqjxy", d2bary, G, G, optimize=True)
    hess = np.einsum("tqjxy,tji->tqixy", mh, C)
    return rule, (np.einsum("qj,tji->tqi", val, C), grad, hess)


def vector_strain_tables(grad, hess):
    """Strain eps[t, q, i, a, b] of the 20 vector shape functions and its
    gradient deps[t, q, i, z, a, b] = d_z eps_ab."""
    Tc, q = grad.shape[:2]
    g = np.zeros((Tc, q, 20, 2, 2))
    for c in (0, 1):
        g[:, :, c::2, c, :] = grad
    eps = 0.5 * (g + g.swapaxes(3, 4))
    gg = np.zeros((Tc, q, 20, 2, 2, 2))
    for c in (0, 1):
        gg[:, :, c::2, :, c, :] = hess
    deps = 0.5 * (gg + gg.swapaxes(4, 5))
    return eps, deps


def _symmetrize(k):
    return 0.5 * (k + k.swapaxes(1, 2))


def quadrature_kernel_a_parts(mesh, coeff, tris):
    """(eps, eps) and (grad eps, grad eps) kernels (Tc, 20, 20) summed
    over the degree-10 points."""
    rule, (_, grad, hess) = scalar_tables(mesh, coeff, tris,
                                          DEGREE_STIFFNESS)
    eps, deps = vector_strain_tables(grad, hess)
    w = rule.weights[None, :] * mesh.area[tris][:, None]
    k0 = np.einsum("tq,tqiab,tqjab->tij", w, eps, eps, optimize=True)
    k2 = np.einsum("tq,tqizab,tqjzab->tij", w, deps, deps, optimize=True)
    return _symmetrize(k0), _symmetrize(k2)


def quadrature_kernel_b_parts(mesh, coeff, tris):
    """(div v, q) and (grad div v, grad q) kernels (Tc, 3, 20) summed
    over the degree-6 points."""
    rule, (_, grad, hess) = scalar_tables(mesh, coeff, tris,
                                          DEGREE_COUPLING)
    w = rule.weights[None, :] * mesh.area[tris][:, None]
    div = np.empty(grad.shape[:2] + (20,))
    for c in (0, 1):
        div[:, :, c::2] = grad[..., c]
    k0 = np.einsum("tq,tqj,ql->tlj", w, div, rule.points, optimize=True)
    gdiv = np.empty(hess.shape[:2] + (20, 2))
    for c in (0, 1):
        gdiv[:, :, c::2, :] = hess[..., c]
    G = mesh.bary_grads[tris]
    k2 = np.einsum("tq,tqjz,tlz->tlj", w, gdiv, G, optimize=True)
    return k0, k2


def quadrature_kernel_norm_gram_parts(mesh, coeff, tris):
    """Gradient and second-derivative Gram kernels (Tc, 20, 20) summed
    over the degree-10 points; the mixed derivative counts once."""
    rule, (_, grad, hess) = scalar_tables(mesh, coeff, tris,
                                          DEGREE_STIFFNESS)
    w = rule.weights[None, :] * mesh.area[tris][:, None]
    k1 = _symmetrize(np.einsum("tq,tqix,tqjx->tij", w, grad, grad,
                               optimize=True))
    full = np.einsum("tq,tqixy,tqjxy->tij", w, hess, hess, optimize=True)
    mixed = np.einsum("tq,tqi,tqj->tij", w, hess[..., 0, 1],
                      hess[..., 0, 1], optimize=True)
    k2 = _symmetrize(full - mixed)
    out = []
    for kern in (k1, k2):
        vk = np.zeros((len(tris), 20, 20))
        for c in (0, 1):
            vk[:, c::2, c::2] = kern
        out.append(vk)
    return tuple(out)


def lexsort_csr(kernels, row_dofs, col_dofs, shape):
    """Deterministic COO -> CSR of a batch of dense kernels: masked
    triplets in emission order, a stable lexsort by (row, col), then
    the sum of each run."""
    Tc, nr, nc = kernels.shape
    r = np.repeat(row_dofs[:, :, None], nc, axis=2)
    c = np.repeat(col_dofs[:, None, :], nr, axis=1)
    mask = (r >= 0) & (c >= 0)
    rows, cols, vals = r[mask], c[mask], kernels[mask]
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.nonzero(first)[0]
    data = np.add.reduceat(vals, starts)
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, rows[starts] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return csr_matrix((data, cols[starts], indptr), shape=shape)


def loop_weak_continuity(mesh, flip_edge=None):
    """The weak-continuity measure of :func:`sgefem.verify.
    check_weak_continuity`, one interior edge at a time with a dict of
    jumps per global entity."""
    coeff = batched_scalar_coeff(mesh)[mesh.shape_of_triangle]
    if flip_edge is not None:
        k = int(mesh.triangles_of_edge[flip_edge, 0])
        s = int(np.where(mesh.edge_of_triangle[k] == flip_edge)[0][0])
        M0 = batched_scalar_dof_matrices(mesh, [k])[0]
        M0[6 + s] *= -1.0
        coeff[k] = np.linalg.inv(M0)
    t, w = edge_rule(5)
    V, E, T = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    etri = mesh.edge_of_triangle
    entities = np.concatenate([mesh.triangles, V + etri, V + E + etri,
                               (V + 2 * E + np.arange(T))[:, None]], axis=1)
    worst = 0.0
    for e in np.where(~mesh.edge_is_boundary)[0]:
        lo, hi = mesh.edges[e]
        pts = np.outer(1.0 - t, mesh.vertices[lo]) \
            + np.outer(t, mesh.vertices[hi])
        jumps = {}
        scale = 0.0
        for side, k in enumerate(mesh.triangles_of_edge[e]):
            G = mesh.bary_grads[k]
            centroid = mesh.tri_coords[k].mean(axis=0)
            bary = 1.0 / 3.0 + (pts - centroid) @ G.T
            _, dbary = modal_tables(bary, 1)
            grad = np.einsum("qjs,sx,ji->qix", dbary, G, coeff[k])
            scale = max(scale, float(np.max(np.abs(grad))))
            integ = mesh.edge_length[e] * np.einsum("q,qix->ix", w, grad)
            sgn = 1.0 if side == 0 else -1.0
            for j in range(10):
                g = int(entities[k, j])
                jumps[g] = jumps.get(g, 0.0) + sgn * integ[j]
        m = max(float(np.max(np.abs(v))) for v in jumps.values())
        worst = max(worst, m / (scale * mesh.edge_length[e]))
    return worst


def bordered_lu_solve(system, tol=1e-10):
    """(u, p, xi, backward error) of a saddle system by one sparse LU of
    the bordered matrix (symmetric-mode ordering, relaxed diagonal
    pivoting) and up to three steps of iterative refinement."""
    S = system.block_matrix()
    rhs = system.full_rhs()
    norm_S = sparse_norm(S, np.inf)

    def backward_error(x):
        return np.linalg.norm(S @ x - rhs) \
            / (norm_S * np.linalg.norm(x) + np.linalg.norm(rhs))

    lu = splu(S, permc_spec="MMD_AT_PLUS_A",
              options={"SymmetricMode": True, "DiagPivotThresh": 0.001})
    x = lu.solve(rhs)
    for _ in range(3):
        if backward_error(x) <= tol:
            break
        x = x + lu.solve(rhs - S @ x)
    n_u, n_p = system.n_u, system.n_p
    return x[:n_u], x[n_u:n_u + n_p], float(x[-1]), backward_error(x)


def per_point_error_seminorms(mesh, coeff, vmap, u_h, exact):
    """(|e|_1, |e|_{2,h}) of ``sgefem.manufactured.error_norms``, with
    the class coefficients ``coeff`` expanded to every triangle and the
    barycentric derivatives of u_h mapped by a 2x3 product (gradients)
    and two 3x3 products (Hessians) per point."""
    rule, (_, dbary, d2bary) = modal_rule(DEGREE_LOAD, 2)
    q = rule.npts
    d1 = dbary.transpose(0, 2, 1).reshape(-1, 10)
    d2 = d2bary.transpose(0, 2, 3, 1).reshape(-1, 10)
    uext = np.concatenate([np.asarray(u_h, dtype=float), [0.0]])
    s1 = s2 = 0.0
    for tris, (ge, he) in zip(chunks(mesh.num_triangles), exact,
                              strict=True):
        Tc = len(tris)
        G = mesh.bary_grads[tris]
        C = coeff[mesh.shape_of_triangle[tris]]
        M = C @ uext[vmap.cell_dofs[tris]].reshape(Tc, 10, 2)
        db = (d1 @ M).reshape(Tc, q, 3, 2)
        gh = db.swapaxes(2, 3) @ G[:, None]
        hb = (d2 @ M).reshape(Tc, q, 3, 3, 2).transpose(0, 1, 4, 2, 3)
        hh = G.swapaxes(1, 2)[:, None, None] @ hb @ G[:, None, None]
        e1 = gh - ge
        e2 = hh[..., (0, 0, 1), (0, 1, 1)] - he
        w = rule.weights[None, :] * mesh.area[tris][:, None]
        s1 += float(np.einsum("tq,tqab->", w, e1 ** 2))
        s2 += float(np.einsum("tq,tqak->", w, e2 ** 2))
    return sqrt(s1), sqrt(s2)


def quadrature_pressure_norm(mesh, qmap, p_h, iota):
    """(||p_h||_0^2 + iota^2 |p_h|_1^2)^{1/2} of a P1 pressure by the
    degree-12 rule, one chunk of triangles at a time: the pressure error
    ``sgefem.manufactured.error_norms`` integrated before E_p came from
    the pressure Gram matrix."""
    rule = rule_for_degree(DEGREE_LOAD)
    q = rule.npts
    pext = np.concatenate([np.asarray(p_h, dtype=float), [0.0]])
    sp0 = sp1 = 0.0
    for tris in chunks(mesh.num_triangles):
        w = rule.weights[None, :] * mesh.area[tris][:, None]
        pl = pext[qmap.cell_dofs[tris]]
        ep = np.einsum("qs,ts->tq", rule.points, pl)
        gep = np.einsum("ts,tsx->tx", pl, mesh.bary_grads[tris])
        gep = np.broadcast_to(gep[:, None, :], (len(tris), q, 2))
        sp0 += float(np.einsum("tq,tq->", w, ep ** 2))
        sp1 += float(np.einsum("tq,tqx->", w, gep ** 2))
    return sqrt(sp0 + iota ** 2 * sp1)


def loop_triangles_of_edge(mesh):
    """(E, 2) incident triangles of each edge by a loop over the
    triangles in order, keeping the first two (-1 where there is no
    second): the table the mesh now builds with one stable argsort."""
    out = np.full((mesh.num_edges, 2), -1, dtype=np.int64)
    counts = np.zeros(mesh.num_edges, dtype=np.int64)
    for t in range(mesh.num_triangles):
        for s in range(3):
            e = mesh.edge_of_triangle[t, s]
            if counts[e] < 2:
                out[e, counts[e]] = t
            counts[e] += 1
    return out


def recursive_dissection(points, cells, leaf=8):
    """The numbering of ``sgefem.space.dissection_numbers`` by recursion
    over the parts, one at a time, with the neighbours of every node as
    sets.  Returns (number, siblings): the number of each node, and the
    (low, high) node lists of the two parts each cut leaves."""
    n = len(points)
    neighbours = [set() for _ in range(n)]
    for cell in cells:
        held = [v for v in cell if v >= 0]
        for v in held:
            neighbours[v].update(held)
    number = np.full(n, -1, dtype=np.int64)
    siblings = []

    def dissect(nodes, start):
        xy = points[nodes]
        extent = xy.max(axis=0) - xy.min(axis=0)
        axis = 1 if extent[1] > extent[0] else 0
        nodes = [nodes[i] for i in np.argsort(xy[:, axis], kind="stable")]
        v = points[nodes, axis]
        m = v[len(nodes) // 2]
        high = v >= m if v[0] < m else v > m
        if len(nodes) <= leaf or not high.any():
            number[nodes] = start + np.arange(len(nodes))
            return
        hs = {x for x, h in zip(nodes, high) if h}
        ls = set(nodes) - hs
        layer_high = [x for x in nodes if x in hs and neighbours[x] & ls]
        layer_low = [x for x in nodes if x in ls and neighbours[x] & hs]
        sep = layer_high if len(layer_high) <= len(layer_low) else layer_low
        number[sep] = start + len(nodes) - len(sep) + np.arange(len(sep))
        rest = set(nodes) - set(sep)
        low = [x for x in nodes if x in ls & rest]
        high = [x for x in nodes if x in hs & rest]
        siblings.append((low, high))
        if low:
            dissect(low, start)
        if high:
            dissect(high, start + len(low))

    if n:
        dissect(list(range(n)), 0)
    return number, siblings

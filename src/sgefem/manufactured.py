"""Closed-form test fields, their derivatives, and discrete error norms.

Body forces for the gradient model need fourth derivatives of the
exact displacement.  Rather than transcribing hand-derived formulas,
each field is evaluated in a small jet arithmetic: a truncated Taylor
expansion of total degree 4 is propagated through the closed-form
expression, and any mixed partial up to order 4 is read off the
coefficients exactly.  A trailing batch axis lets one call produce
jets at every quadrature point of a mesh chunk at once.
"""

import math
from typing import NamedTuple

import numpy as np

from .assembly import DEGREE_LOAD, chunks, modal_rule
from .quadrature import rule_for_degree

_DEG = 4
_PAIRS = tuple((i, j) for i in range(_DEG + 1) for j in range(_DEG + 1)
               if i + j <= _DEG)


class Jet2:
    """Bivariate Taylor polynomial of total degree <= 4.

    ``c[i, j]`` is the coefficient of (x-x0)^i (y-y0)^j; axes beyond
    the first two carry a batch of expansion points.  Entries with
    i + j > 4 are kept at zero, so products truncate by construction.
    """

    __slots__ = ("c", "point")

    def __init__(self, c, point):
        self.c = c
        self.point = point

    @classmethod
    def variables(cls, x):
        """Coordinate jets (x1, x2) expanded at points x of shape (..., 2)."""
        x = np.asarray(x, dtype=float)
        batch = x.shape[:-1]
        jets = []
        for axis in (0, 1):
            c = np.zeros((_DEG + 1, _DEG + 1) + batch)
            c[0, 0] = x[..., axis]
            c[1 - axis, axis] = 1.0
            jets.append(cls(c, x))
        return tuple(jets)

    @property
    def value(self):
        return self.c[0, 0]

    def partial(self, i, j):
        """The mixed partial d^{i+j} f / dx^i dy^j at the expansion point."""
        return self.c[i, j] * float(math.factorial(i) * math.factorial(j))

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.c + other.c, self.point)
        c = self.c.copy()
        c[0, 0] = c[0, 0] + other
        return Jet2(c, self.point)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.c, self.point)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.c * other, self.point)
        a, b = self.c, other.c
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        for i, j in _PAIRS:
            for k in range(i + 1):
                for l in range(j + 1):
                    out[i, j] += a[k, l] * b[i - k, j - l]
        return Jet2(out, self.point)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not (isinstance(n, int) and n >= 1):
            raise ValueError("only positive integer powers")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def _series(self, f0, f1, f2, f3, f4):
        """sum_k f_k t^k / k! where t = self - self.value (nilpotent)."""
        t = Jet2(self.c.copy(), self.point)
        t.c[0, 0] = 0.0
        t2 = t * t
        t3 = t2 * t
        t4 = t2 * t2
        c = (f1 * t.c + (f2 / 2.0) * t2.c + (f3 / 6.0) * t3.c
             + (f4 / 24.0) * t4.c)
        c[0, 0] = c[0, 0] + f0
        return Jet2(c, self.point)

    def exp(self):
        e = np.exp(self.value)
        return self._series(e, e, e, e, e)

    def sin(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._series(s, c, -s, -c, s)

    def cos(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._series(c, -s, -c, s, c)


class AnalyticField:
    """A named exact displacement field on the unit square."""

    def __init__(self, name, builder, divergence_free):
        self.name = name
        self.divergence_free = divergence_free
        self._builder = builder

    def jets(self, x):
        """Degree-4 jets (u1, u2) at points x of shape (..., 2)."""
        x1, x2 = Jet2.variables(x)
        return self._builder(x1, x2)


def _example1(x1, x2):
    # smooth, divergence-free, clamped: u and its normal derivative
    # vanish on the whole boundary
    g = (2.0 * math.pi * x1).cos().exp()
    s2y = (2.0 * math.pi * x2).sin()
    sy = (math.pi * x2).sin()
    u1 = 3.0 * (g - math.e) ** 2 * s2y * sy
    u2 = 8.0 * (g * g - math.e * g) * (2.0 * math.pi * x1).sin() * sy ** 3
    return u1, u2


def _example2(x1, x2):
    # divergence-free, zero on the boundary, but with a nonzero normal
    # derivative there: the driver of the boundary layer in the limit
    # of vanishing gradient parameter
    u1 = -1.0 * x1 ** 2 * (1.0 - x1) ** 2 * x2 * (1.0 - x2) * (1.0 - 2.0 * x2)
    u2 = x1 * (1.0 - x1) * (1.0 - 2.0 * x1) * x2 ** 2 * (1.0 - x2) ** 2
    return u1, u2


FIELDS = {
    "example1": AnalyticField("example1", _example1, divergence_free=True),
    "example2": AnalyticField("example2", _example2, divergence_free=True),
}


def field_by_name(name):
    try:
        return FIELDS[name]
    except KeyError:
        raise ValueError("unknown field %r (choose from %s)"
                         % (name, ", ".join(sorted(FIELDS))))


def load_parts(example, x):
    """The study load of ``example`` at points x (..., 2), split as
    f = mu (f0 + iota^2 f2) and returned as (f0, f2) from one jets call.

    example1 is driven by the strain gradient load
    f = -div sigma(u) + iota^2 div(lap sigma(u)), so f0 = -lap u and
    f2 = bilap u; example2 by the elasticity limit load
    f = -div sigma(u), so f0 = -lap u and f2 = 0, the limit its
    boundary layer is measured against.  Both fields are divergence
    free, so the grad(div u) terms vanish and lambda does not enter.
    """
    j1, j2 = field_by_name(example).jets(x)
    f0 = np.empty(np.asarray(x).shape[:-1] + (2,))
    f2 = np.zeros_like(f0)
    for a, j in enumerate((j1, j2)):
        f0[..., a] = -(j.partial(2, 0) + j.partial(0, 2))
        if example == "example1":
            f2[..., a] = (j.partial(4, 0) + 2.0 * j.partial(2, 2)
                          + j.partial(0, 4))
    return f0, f2


class ExactTables(NamedTuple):
    """Derivatives of an exact field at the error quadrature points.

    ``chunks`` holds one (grad, hess) pair per batch of
    :func:`~sgefem.assembly.chunks`: grad (Tc, q, 2, 2) with
    grad[..., a, b] = du_a/dx_b, and hess (Tc, q, 2, 3) with the
    distinct second derivatives (xx, xy, yy) of each component u_a.
    """
    chunks: tuple
    divergence_free: bool


def exact_tables(mesh, field):
    """The :class:`ExactTables` of ``field`` at the degree-12 points of
    ``mesh``, from one jets call per chunk of triangles."""
    rule = rule_for_degree(DEGREE_LOAD)
    out = []
    for tris in chunks(mesh.num_triangles):
        pts = np.einsum("qs,tsx->tqx", rule.points, mesh.tri_coords[tris])
        shape = pts.shape[:2]
        grad = np.empty(shape + (2, 2))
        hess = np.empty(shape + (2, 3))
        for a, j in enumerate(field.jets(pts.reshape(-1, 2))):
            for k, (dx, dy) in enumerate(((1, 0), (0, 1))):
                grad[..., a, k] = j.partial(dx, dy).reshape(shape)
            for k, (dx, dy) in enumerate(((2, 0), (1, 1), (0, 2))):
                hess[..., a, k] = j.partial(dx, dy).reshape(shape)
        out.append((grad, hess))
    return ExactTables(tuple(out), field.divergence_free)


def error_norms(mesh, coeff, vmap, u_h, exact, iota, p_h=None, qmap=None,
                lam=1.0):
    """Discrete errors of a solve against an exact field.

    Returns (|e|_1, |e|_{2,h}, ||e||_{V,h}, ||e_p||_Q) where e = u_h - u,
    ||e||_{V,h}^2 = |e|_1^2 + iota^2 |e|_{2,h}^2, and the pressure error
    is measured against p = lambda div u in the norm
    (||.||_0^2 + iota^2 |.|_1^2)^{1/2}.  ``coeff`` holds the nodal
    coefficients of all triangles; ``exact`` holds the field's
    derivatives from :func:`exact_tables`, so the field itself is not
    evaluated here and one table serves every solve on the mesh.
    Pressure terms are zero unless both ``p_h`` and ``qmap`` are given.
    The broken seminorm |e|_{2,h} sums one squared term per
    second-derivative multi-index (the mixed derivative counts once).

    Per chunk, the local DoFs are first turned into modal coefficients
    M = C u_loc, so the derivatives of u_h come from the modal tables
    and the barycentric gradients by a few batched products, without
    tabulating the 10 shape functions at every point.
    """
    rule, (_, dbary, d2bary) = modal_rule(DEGREE_LOAD, 2)
    q = rule.npts
    # (q*3, 10) and (q*9, 10): barycentric derivatives of the monomials
    d1 = dbary.transpose(0, 2, 1).reshape(-1, 10)
    d2 = d2bary.transpose(0, 2, 3, 1).reshape(-1, 10)
    uext = np.concatenate([np.asarray(u_h, dtype=float), [0.0]])
    pressure = p_h is not None and qmap is not None
    if pressure:
        pext = np.concatenate([np.asarray(p_h, dtype=float), [0.0]])
    s1 = s2 = sp0 = sp1 = 0.0
    for tris, (ge, he) in zip(chunks(mesh.num_triangles), exact.chunks,
                              strict=True):
        Tc = len(tris)
        G = mesh.bary_grads[tris]                               # (Tc, 3, 2)
        M = coeff[tris] @ uext[vmap.cell_dofs[tris]].reshape(Tc, 10, 2)
        db = (d1 @ M).reshape(Tc, q, 3, 2)                      # [s, a]
        gh = db.swapaxes(2, 3) @ G[:, None]                     # [a, x]
        hb = (d2 @ M).reshape(Tc, q, 3, 3, 2).transpose(0, 1, 4, 2, 3)
        hh = G.swapaxes(1, 2)[:, None, None] @ hb @ G[:, None, None]
        e1 = gh - ge
        e2 = hh[..., (0, 0, 1), (0, 1, 1)] - he                 # xx, xy, yy
        w = rule.weights[None, :] * mesh.area[tris][:, None]
        s1 += float(np.einsum("tq,tqab->", w, e1 ** 2))
        s2 += float(np.einsum("tq,tqak->", w, e2 ** 2))

        if pressure:
            pl = pext[qmap.cell_dofs[tris]]
            ep = np.einsum("qs,ts->tq", rule.points, pl)
            gep = np.einsum("ts,tsx->tx", pl, G)
            gep = np.broadcast_to(gep[:, None, :], (Tc, q, 2)).copy()
            if not exact.divergence_free:
                # p = lambda div u and its gradient, from the same tables
                ep = ep - lam * (ge[..., 0, 0] + ge[..., 1, 1])
                gep[..., 0] -= lam * (he[..., 0, 0] + he[..., 1, 1])
                gep[..., 1] -= lam * (he[..., 0, 1] + he[..., 1, 2])
            sp0 += float(np.einsum("tq,tq->", w, ep ** 2))
            sp1 += float(np.einsum("tq,tqx->", w, gep ** 2))

    i2 = iota ** 2
    return (math.sqrt(s1), math.sqrt(s2), math.sqrt(s1 + i2 * s2),
            math.sqrt(sp0 + i2 * sp1))

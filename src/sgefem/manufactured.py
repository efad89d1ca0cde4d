"""Closed-form test fields, their derivatives, and discrete error norms.

Body forces for the gradient model need fourth derivatives of the
exact displacement.  Rather than transcribing hand-derived formulas,
each field is evaluated in a small jet arithmetic: a Taylor expansion
truncated at a chosen total degree d is propagated through the
closed-form expression, and any mixed partial up to order d is read off
the coefficients exactly.  Each consumer asks for the degree it reads:
4 for the strain gradient load, 2 for the elasticity load and the
error tables.  A jet stores only the coefficients that can be nonzero,
keyed by their exponents (a coordinate has two, a function of x2 alone
no x1 term), so sums and scalings touch only those and products skip
every term with an absent factor.  Each coefficient is an array over a
batch of expansion points, so one call produces jets at every
quadrature point of a mesh chunk at once.
"""

import functools
import math

import numpy as np

from .assembly import DEGREE_LOAD, chunks, hessian_map, modal_rule
from .element import SECOND_PARTIALS
from .quadrature import rule_for_degree


@functools.cache
def monomials(degree):
    """The exponents (i, j) with i + j <= degree, i ascending, then j."""
    return tuple((i, j) for i in range(degree + 1)
                 for j in range(degree + 1 - i))


@functools.lru_cache(maxsize=256)
def _product_terms(degree, ka, kb):
    """The truncated product of jets keyed by the exponent sets ka and
    kb: one (out, pairs) entry per output exponent that gets a term, in
    :func:`monomials` order, where pairs are the (a, b) exponents of its
    terms with both factors present, in the (k, l) order of the full sum
    over a[k, l] b[i - k, j - l]."""
    terms = []
    for i, j in monomials(degree):
        pairs = tuple(((k, l), (i - k, j - l)) for k in range(i + 1)
                      for l in range(j + 1)
                      if (k, l) in ka and (i - k, j - l) in kb)
        if pairs:
            terms.append(((i, j), pairs))
    return tuple(terms)


class Jet2:
    """Bivariate Taylor polynomial truncated at total degree ``degree``.

    ``c`` maps an exponent (i, j) with i + j <= ``degree`` to the
    coefficient of (x-x0)^i (y-y0)^j, an array over a batch of
    expansion points.  Its keys are the support: the coefficient of
    every absent exponent is exactly zero.  A skipped product term is
    therefore an exact zero, and a running sum that starts at +0.0
    never becomes -0.0, so skipping it leaves every sum bitwise
    unchanged.  The coefficients of degree <= d' of a degree-d jet are
    bitwise those of its degree-d' twin.  Jets share coefficient arrays
    (a sum keeps the array of an exponent only one operand has), so no
    array is ever written in place.
    """

    __slots__ = ("c", "degree")

    def __init__(self, c, degree):
        self.c = c
        self.degree = degree

    @classmethod
    def variables(cls, x, degree=4):
        """Coordinate jets (x1, x2) of the given degree expanded at points
        x of shape (..., 2)."""
        if not (isinstance(degree, int) and degree >= 1):
            raise ValueError("jet degree must be a positive integer")
        x = np.asarray(x, dtype=float)
        return tuple(cls({(0, 0): x[..., axis].copy(),
                          (1 - axis, axis): np.ones(x.shape[:-1])}, degree)
                     for axis in (0, 1))

    @property
    def value(self):
        return self.coeff(0, 0)

    def coeff(self, i, j):
        """The Taylor coefficient of (x-x0)^i (y-y0)^j."""
        if i + j > self.degree:
            raise ValueError("order %d exceeds the jet degree %d"
                             % (i + j, self.degree))
        if (i, j) in self.c:
            return self.c[i, j]
        return np.zeros_like(next(iter(self.c.values())))

    def partial(self, i, j):
        """The mixed partial d^{i+j} f / dx^i dy^j at the expansion point."""
        return self.coeff(i, j) * float(math.factorial(i)
                                        * math.factorial(j))

    def _same_degree(self, other):
        if other.degree != self.degree:
            raise ValueError("jets of degrees %d and %d do not combine"
                             % (self.degree, other.degree))

    def __add__(self, other):
        if not isinstance(other, Jet2):
            return Jet2({**self.c, (0, 0): self.value + other}, self.degree)
        self._same_degree(other)
        c = dict(self.c)
        for e, v in other.c.items():
            c[e] = c[e] + v if e in c else v
        return Jet2(c, self.degree)

    __radd__ = __add__

    def __neg__(self):
        return Jet2({e: -v for e, v in self.c.items()}, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return Jet2({e: v * other for e, v in self.c.items()},
                        self.degree)
        self._same_degree(other)
        a, b = self.c, other.c
        c = {}
        for e, pairs in _product_terms(self.degree, frozenset(a),
                                       frozenset(b)):
            s = 0.0
            for ka, kb in pairs:
                s = s + a[ka] * b[kb]
            c[e] = s
        return Jet2(c, self.degree)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not (isinstance(n, int) and n >= 1):
            raise ValueError("only positive integer powers")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def _series(self, derivatives):
        """sum_k f_k t^k / k! over k <= degree, where t = self - self.value
        (nilpotent) and f_k = derivatives[k % len(derivatives)] is the
        k-th derivative of the function at the value.  t^k for even k is
        the square of t^(k/2), otherwise t^(k-1) t."""
        t = Jet2({e: v for e, v in self.c.items() if e != (0, 0)},
                 self.degree)
        f1 = derivatives[1 % len(derivatives)]
        c = {e: f1 * v for e, v in t.c.items()}
        powers = [None, t]
        for k in range(2, self.degree + 1):
            half = powers[k // 2]
            tk = half * half if k % 2 == 0 else powers[k - 1] * t
            powers.append(tk)
            fk = derivatives[k % len(derivatives)] / float(math.factorial(k))
            for e, v in tk.c.items():
                c[e] = c.get(e, 0.0) + fk * v
        c[0, 0] = 0.0 + derivatives[0]
        return Jet2(c, self.degree)

    def exp(self):
        return self._series((np.exp(self.value),))

    def sin(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._series((s, c, -s, -c))

    def cos(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self._series((c, -s, -c, s))


class AnalyticField:
    """An exact displacement field (u1, u2) = builder(x1, x2) on the unit
    square."""

    def __init__(self, builder):
        self._builder = builder

    def jets(self, x, degree=4):
        """Jets (u1, u2) of the given degree at points x of shape (..., 2)."""
        x1, x2 = Jet2.variables(x, degree)
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
    "example1": AnalyticField(_example1),
    "example2": AnalyticField(_example2),
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
    boundary layer is measured against; f2 is then None, the mark of a
    part that is identically zero.  Both fields are divergence free, so
    the grad(div u) terms vanish and lambda does not enter.  The jets
    are of degree 4 where f2 needs the bilaplacian, else 2.
    """
    gradient_load = example == "example1"
    j1, j2 = field_by_name(example).jets(x, degree=4 if gradient_load
                                         else 2)
    f0 = np.empty(np.asarray(x).shape[:-1] + (2,))
    f2 = np.empty_like(f0) if gradient_load else None
    for a, j in enumerate((j1, j2)):
        f0[..., a] = -(j.partial(2, 0) + j.partial(0, 2))
        if gradient_load:
            f2[..., a] = (j.partial(4, 0) + 2.0 * j.partial(2, 2)
                          + j.partial(0, 4))
    return f0, f2


def exact_tables(mesh, field):
    """Derivatives of ``field`` at the degree-12 points of ``mesh``, one
    (grad, hess) pair per batch of :func:`~sgefem.assembly.chunks`: grad
    (Tc, q, 2, 2) with grad[..., a, b] = du_a/dx_b, and hess (Tc, q, 2, 3)
    with the distinct second derivatives (xx, xy, yy) of each component
    u_a; from one degree-2 jets call per chunk of triangles."""
    rule = rule_for_degree(DEGREE_LOAD)
    out = []
    for tris in chunks(mesh.num_triangles):
        pts = np.einsum("qs,tsx->tqx", rule.points, mesh.tri_coords[tris])
        shape = pts.shape[:2]
        grad = np.empty(shape + (2, 2))
        hess = np.empty(shape + (2, 3))
        for a, j in enumerate(field.jets(pts.reshape(-1, 2), degree=2)):
            for k, (dx, dy) in enumerate(((1, 0), (0, 1))):
                grad[..., a, k] = j.partial(dx, dy).reshape(shape)
            for k, (dx, dy) in enumerate(((2, 0), (1, 1), (0, 2))):
                hess[..., a, k] = j.partial(dx, dy).reshape(shape)
        out.append((grad, hess))
    return tuple(out)


def error_norms(mesh, coeff, vmap, u_h, exact, iota):
    """Discrete displacement errors of a solve against an exact field.

    Returns (|e|_1, |e|_{2,h}, ||e||_{V,h}) where e = u_h - u and
    ||e||_{V,h}^2 = |e|_1^2 + iota^2 |e|_{2,h}^2.  ``coeff`` holds the nodal
    coefficients of the mesh's shape classes (see
    :func:`sgefem.element.batched_scalar_coeff`); ``exact`` holds the
    field's derivatives from :func:`exact_tables`, so the field itself is
    not evaluated here and one table serves every solve on the mesh.
    The broken seminorm |e|_{2,h} sums one squared term per
    second-derivative multi-index (the mixed derivative counts once).

    The Cartesian gradients and (xx, xy, yy) derivatives of the nodal
    functions at the points depend only on the shape class, so one
    table (K, 10, q*5) holds them for every class; per chunk, the
    derivatives of u_h are one batched product of the local DoFs with
    the tables of their triangles' classes.
    """
    rule, (_, dbary, d2bary) = modal_rule(DEGREE_LOAD, 2)
    q, K = rule.npts, len(mesh.shape_rep)
    G = mesh.bary_grads[mesh.shape_rep]                        # (K, 3, 2)
    pair_s, pair_u = np.array(SECOND_PARTIALS).T
    # the monomials' derivatives [class, q, monomial, (x, y, xx, xy, yy)]
    modal = np.concatenate(
        [dbary @ G[:, None],
         d2bary[..., pair_s, pair_u] @ hessian_map(G)[:, None]], axis=3)
    table = coeff.swapaxes(1, 2) \
        @ modal.transpose(0, 2, 1, 3).reshape(K, 10, q * 5)
    # the DoFs of u_h by scalar entity; node -1 reads the appended zeros
    uext = np.append(u_h, [0.0, 0.0]).reshape(-1, 2)
    s1 = s2 = 0.0
    for tris, (ge, he) in zip(chunks(mesh.num_triangles), exact,
                              strict=True):
        dofs = uext[vmap.cell_nodes[tris]].swapaxes(1, 2)     # [t, a, i]
        d = dofs @ table[mesh.shape_of_triangle[tris]]         # [t, a, q*5]
        d = d.reshape(len(tris), 2, q, 5).swapaxes(1, 2)       # [t, q, a, 5]
        e1 = d[..., :2] - ge
        e2 = d[..., 2:] - he
        w = rule.weights[None, :] * mesh.area[tris][:, None]
        s1 += float(np.einsum("tq,tqab->", w, e1 ** 2))
        s2 += float(np.einsum("tq,tqak->", w, e2 ** 2))
    return math.sqrt(s1), math.sqrt(s2), math.sqrt(s1 + iota ** 2 * s2)

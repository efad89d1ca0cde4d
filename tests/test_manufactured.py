import copy
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from sgefem.assembly import assemble_load
from sgefem.discretization import Discretization
from sgefem.element import batched_scalar_coeff
from sgefem.manufactured import (FIELDS, AnalyticField, Jet2, error_norms,
                                 exact_tables, field_by_name, monomials)
from sgefem.linalg import solve_saddle
from sgefem.mesh import Mesh, build_uniform_unit_square
from sgefem.space import cell_entities
from oracles import (DenseJet, ProblemParams, body_force_elasticity,
                     body_force_sge, fd_derivative, field_gradient,
                     field_value, local_interpolant,
                     per_point_error_seminorms, quad_triangle,
                     quadrature_pressure_norm)


def jet_of_poly(coeffs, x):
    """Evaluate a 2D polynomial (coeffs[i, j] of x^i y^j) in jet
    arithmetic at points x."""
    x1, x2 = Jet2.variables(x)
    acc = 0.0 * x1
    for i in range(coeffs.shape[0]):
        for j in range(coeffs.shape[1]):
            if coeffs[i, j] == 0.0:
                continue
            term = coeffs[i, j] * (x1 ** i if i else 1.0) \
                * (x2 ** j if j else 1.0)
            acc = acc + term if isinstance(term, Jet2) else acc + term
    return acc


def boundary_samples(m):
    """m points per side of the unit square with inward unit normals."""
    t = np.linspace(0.0, 1.0, m + 2)[1:-1]
    z = np.zeros(m)
    o = np.ones(m)
    pts = np.concatenate([np.stack(s, axis=1) for s in
                          [(t, z), (t, o), (z, t), (o, t)]])
    nrm = np.concatenate([np.tile(v, (m, 1)) for v in
                          [(0, 1), (0, -1), (1, 0), (-1, 0)]]).astype(float)
    return pts, nrm


def test_constant_embeds_with_zero_higher_coefficients():
    x1, _ = Jet2.variables(np.array([0.4, 0.9]))
    j = 0.0 * x1 + 3.5
    assert j.coeff(0, 0) == 3.5
    for i, j_ in monomials(j.degree)[1:]:
        assert np.all(j.coeff(i, j_) == 0.0)


def test_monomial_taylor_coefficient_at_shifted_point():
    x1, x2 = Jet2.variables(np.array([1.0, 1.0]))
    j = x1 ** 2 * x2
    # d2/dxdy (x^2 y) = 2x = 2 at (1,1), and the x*y coefficient is
    # that value divided by 1!1!
    assert j.coeff(1, 1) == pytest.approx(2.0, abs=1e-14)
    assert j.partial(1, 1) == pytest.approx(2.0, abs=1e-14)


def test_truncation_keeps_high_coefficients_zero():
    # a degree-4 jet holds one coefficient per monomial with i + j <= 4
    # and nothing above: the coefficients of higher degree are zero by
    # construction and cannot be asked for
    x1, x2 = Jet2.variables(np.array([0.3, 0.8]))
    j = (x1 ** 2 + x2 ** 2 + x1 * x2) ** 2
    assert monomials(4) == tuple((i, j_) for i in range(5)
                                 for j_ in range(5) if i + j_ <= 4)
    assert set(j.c) == set(monomials(4))
    for i, j_ in ((5, 0), (3, 2), (0, 5)):
        with pytest.raises(ValueError, match="exceeds the jet degree"):
            j.coeff(i, j_)


@given(st.lists(st.integers(-3, 3), min_size=9, max_size=9),
       st.lists(st.integers(-3, 3), min_size=9, max_size=9),
       st.floats(0.05, 0.95), st.floats(0.05, 0.95))
@settings(max_examples=50, deadline=None)
def test_jet_partials_exact_on_polynomials(ca, cb, x, y):
    a = np.array(ca, dtype=float).reshape(3, 3)
    b = np.array(cb, dtype=float).reshape(3, 3)
    pt = np.array([x, y])
    jp = jet_of_poly(a, pt) * jet_of_poly(b, pt)
    prod = np.zeros((5, 5))
    for i in range(3):
        for j in range(3):
            prod[i:i + 3, j:j + 3] += a[i, j] * b
    for i in range(5):
        for j in range(5 - i):
            d = npoly.polyder(npoly.polyder(prod, i, axis=0), j, axis=1)
            want = npoly.polyval2d(x, y, d)
            assert jp.partial(i, j) == pytest.approx(want, abs=1e-9,
                                                     rel=1e-9)


def test_power_takes_positive_integers_only():
    x1, _ = Jet2.variables(np.array([0.5, 0.5]))
    assert (x1 ** 3).coeff(3, 0) == 1.0
    for n in (0, -1, 2.0):
        with pytest.raises(ValueError, match="positive integer"):
            x1 ** n


def test_degree_is_validated_and_never_mixed():
    x = np.array([0.5, 0.5])
    for degree in (0, 2.0):
        with pytest.raises(ValueError, match="degree"):
            Jet2.variables(x, degree)
    a, _ = Jet2.variables(x, 2)
    b, _ = Jet2.variables(x, 4)
    for combine in (lambda: a + b, lambda: a * b):
        with pytest.raises(ValueError, match="do not combine"):
            combine()


#: random compositions of +, *, sin, cos and exp over the coordinates,
#: constants and the components of both study fields
_LEAVES = st.one_of(
    st.sampled_from(["x1", "x2", "example1.u1", "example1.u2",
                     "example2.u1", "example2.u2"]),
    st.floats(-2.0, 2.0))
EXPRESSIONS = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["add", "mul"]), sub, sub),
        st.tuples(st.sampled_from(["neg", "sin", "cos", "exp"]), sub)),
    max_leaves=6)
POINTS = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                  min_size=1, max_size=4)


@np.errstate(all="ignore")
def evaluate(expr, x, degree, seen, jet=Jet2):
    """The jet (or scalar) of ``expr`` at points x in the arithmetic of
    the class ``jet``; every jet formed on the way is appended to
    ``seen``.  An expression may overflow (exp of exp) or go invalid
    (inf - inf): numpy stays silent and the callers ``assume`` finite
    jets."""
    if isinstance(expr, float):
        return expr
    if isinstance(expr, str):
        if expr in ("x1", "x2"):
            out = jet.variables(x, degree)[expr == "x2"]
        else:
            name, component = expr.split(".")
            field = FIELDS[name]
            u = field.jets(x, degree) if jet is Jet2 \
                else field._builder(*jet.variables(x, degree))
            out = u[component == "u2"]
    else:
        op, *args = expr
        vals = [evaluate(a, x, degree, seen, jet) for a in args]
        if op == "add":
            out = vals[0] + vals[1]
        elif op == "mul":
            out = vals[0] * vals[1]
        elif op == "neg":
            out = -vals[0]
        elif isinstance(vals[0], jet):
            out = getattr(vals[0], op)()
        else:
            out = float(getattr(np, op)(vals[0]))
    if isinstance(out, jet):
        seen.append(out)
    return out


def _finite_jets(expr, x, degree):
    seen = []
    out = evaluate(expr, x, degree, seen)
    assume(isinstance(out, Jet2))
    assume(all(np.all(np.isfinite(v)) for j in seen for v in j.c.values()))
    return out, seen


@given(EXPRESSIONS, POINTS)
@settings(max_examples=150, deadline=None)
@np.errstate(all="ignore")      # a partial of a finite jet may overflow
def test_degree_2_partials_are_bitwise_those_of_degree_4(expr, pts):
    x = np.array(pts)
    j4, _ = _finite_jets(expr, x, 4)
    j2 = evaluate(expr, x, 2, [])
    for i, j in monomials(2):
        assert j2.partial(i, j).tobytes() == j4.partial(i, j).tobytes()
    assert set(j2.c) == {ij for ij in j4.c if sum(ij) <= 2}


@given(EXPRESSIONS, EXPRESSIONS, POINTS, st.sampled_from([2, 4]))
@settings(max_examples=150, deadline=None)
@np.errstate(all="ignore")      # a product of finite jets may overflow
def test_support_skipping_product_is_bitwise_the_full_sum(ea, eb, pts,
                                                          degree):
    x = np.array(pts)
    a, _ = _finite_jets(ea, x, degree)
    b, _ = _finite_jets(eb, x, degree)
    product = a * b
    for i, j in monomials(degree):
        full = np.zeros(x.shape[:-1])
        for k in range(i + 1):
            for l in range(j + 1):
                full += a.coeff(k, l) * b.coeff(i - k, j - l)
        assert product.coeff(i, j).tobytes() == full.tobytes()


@given(EXPRESSIONS, POINTS, st.sampled_from([2, 4]))
@settings(max_examples=150, deadline=None)
def test_coefficients_outside_the_support_are_zero(expr, pts, degree):
    # a support that leaves out a coefficient the arithmetic fills
    # would let products drop its terms silently; the dense jet sums
    # every term, so each stored coefficient must be its coefficient
    # (x + 0.0 equates only the two zeros: a sum keeps an exponent
    # only one operand has as it is, where the dense sum adds +0.0)
    # and each absent one must be zero there
    x = np.array(pts)
    seen, dense = [], []
    evaluate(expr, x, degree, dense, DenseJet)
    assume(all(np.all(np.isfinite(d.c)) for d in dense))
    evaluate(expr, x, degree, seen)
    for jet, ref in zip(seen, dense, strict=True):
        for i, j in monomials(degree):
            if (i, j) in jet.c:
                assert ((jet.c[i, j] + 0.0).tobytes()
                        == (ref.coeff(i, j) + 0.0).tobytes())
            else:
                assert np.all(ref.coeff(i, j) == 0.0)


def test_coeff_outside_the_keys_is_zero_of_the_batch_shape():
    x = np.linspace(0.1, 0.9, 12).reshape(2, 3, 2)
    _, x2 = Jet2.variables(x)
    j = (x2 * x2).sin()
    # a function of x2 alone stores no x1 term
    assert set(j.c) == {(0, k) for k in range(5)}
    for i, k in ((1, 0), (2, 1), (4, 0)):
        assert j.coeff(i, k).tobytes() == np.zeros((2, 3)).tobytes()


def test_exp_sin_cos_taylor_coefficients():
    x1, _ = Jet2.variables(np.array([0.0, 0.0]))
    e = x1.exp()
    s = x1.sin()
    c = x1.cos()
    for k in range(5):
        assert e.coeff(k, 0) == pytest.approx(1.0 / math.factorial(k),
                                              rel=1e-14)
    assert np.allclose([s.coeff(k, 0) for k in range(5)],
                       [0, 1, 0, -1 / 6, 0], atol=1e-15)
    assert np.allclose([c.coeff(k, 0) for k in range(5)],
                       [1, 0, -0.5, 0, 1 / 24], atol=1e-15)


def test_composition_series_at_nonzero_point():
    pt = np.array([0.4, 0.25])
    x1, x2 = Jet2.variables(pt)
    j = (x1 + 2.0 * x2).sin()
    arg = 0.4 + 2.0 * 0.25
    cycle = [math.sin, math.cos, lambda t: -math.sin(t),
             lambda t: -math.cos(t), math.sin]
    for i in range(5):
        for jj in range(5 - i):
            want = cycle[i + jj](arg) * 2.0 ** jj
            assert j.partial(i, jj) == pytest.approx(want, abs=1e-12)


def test_example1_partials_match_finite_differences():
    def u1(x, y):
        return (3.0 * (np.exp(np.cos(2 * np.pi * x)) - np.e) ** 2
                * np.sin(2 * np.pi * y) * np.sin(np.pi * y))

    j1, _ = FIELDS["example1"].jets(np.array([0.3, 0.7]))
    for ix in range(5):
        for iy in range(5 - ix):
            got = j1.partial(ix, iy)
            want = fd_derivative(u1, 0.3, 0.7, ix, iy)
            tol = 1e-4 if ix + iy == 4 else 1e-6
            assert got == pytest.approx(want, rel=tol, abs=tol)


def test_divergence_free_at_random_points():
    rng = np.random.default_rng(7)
    x = rng.random((1000, 2))
    for field in FIELDS.values():
        j1, j2 = field.jets(x)
        div = j1.partial(1, 0) + j2.partial(0, 1)
        assert np.max(np.abs(div)) < 1e-12


def test_example1_is_clamped():
    pts, nrm = boundary_samples(100)
    field = FIELDS["example1"]
    vals = field_value(field, pts)
    dn = np.einsum("nab,nb->na", field_gradient(field, pts), nrm)
    assert np.max(np.abs(vals)) + np.max(np.abs(dn)) < 1e-12


def test_example2_slips_on_the_boundary():
    pts, nrm = boundary_samples(100)
    field = FIELDS["example2"]
    assert np.max(np.abs(field_value(field, pts))) < 1e-12
    dn = np.einsum("nab,nb->na", field_gradient(field, pts), nrm)
    assert np.max(np.abs(dn)) > 1e-3


def test_field_by_name():
    assert field_by_name("example1") is FIELDS["example1"]
    with pytest.raises(ValueError, match="unknown field"):
        field_by_name("example3")


def test_linear_field_has_zero_force():
    lin = AnalyticField(lambda x1, x2: (2.0 * x1 + x2, x1 - 3.0 * x2))
    x = np.array([[0.2, 0.4], [0.9, 0.1]])
    prm = ProblemParams(2.0, 5.0, 0.5)
    assert np.all(body_force_sge(lin, prm, divergence_free=False)(x) == 0.0)
    assert np.all(body_force_elasticity(lin, prm,
                                        divergence_free=False)(x) == 0.0)


def test_quadratic_force_closed_form():
    quad = AnalyticField(lambda x1, x2: (x1 ** 2, 0.0 * x2))
    x = np.array([[0.3, 0.6], [0.8, 0.2]])
    for iota in (0.0, 0.37, 1.0):
        f = body_force_sge(quad, ProblemParams(1.0, 0.0, iota),
                           divergence_free=False)(x)
        assert np.allclose(f, [[-4.0, 0.0]] * 2, atol=1e-13)


def test_sge_force_matches_fd_operator():
    def u(x, y):
        g = np.exp(np.cos(2 * np.pi * x))
        return np.array([
            3.0 * (g - np.e) ** 2 * np.sin(2 * np.pi * y) * np.sin(np.pi * y),
            8.0 * (g * g - np.e * g) * np.sin(2 * np.pi * x)
            * np.sin(np.pi * y) ** 3])

    mu, iota = 1.0, 1e-1
    force = body_force_sge(FIELDS["example1"], ProblemParams(mu, 1.0, iota))

    def fd_force(x, y):
        want = np.empty(2)
        for a in (0, 1):
            ua = lambda s, t: u(s, t)[a]
            lap = fd_derivative(ua, x, y, 2, 0) + fd_derivative(ua, x, y, 0, 2)
            bilap = (fd_derivative(ua, x, y, 4, 0)
                     + 2.0 * fd_derivative(ua, x, y, 2, 2)
                     + fd_derivative(ua, x, y, 0, 4))
            want[a] = -mu * lap + iota ** 2 * mu * bilap
        return want

    # both components are odd about the center lines, so the force
    # vanishes at (0.5, 0.5); there the check is only that jet and FD
    # agree within the FD noise floor relative to the force scale
    scale = np.linalg.norm(force(np.array([0.3, 0.7])))
    center = force(np.array([0.5, 0.5]))
    assert np.linalg.norm(center) < 1e-10 * scale
    assert np.linalg.norm(fd_force(0.5, 0.5)) < 1e-5 * scale

    got = force(np.array([0.3, 0.7]))
    want = fd_force(0.3, 0.7)
    assert np.linalg.norm(got - want) < 1e-4 * np.linalg.norm(want)


def example2_poly_coeffs():
    """Coefficient matrices (x-degree along axis 0) of the two
    components of the boundary-layer field."""
    q = npoly.polymul([0, 0, 1], npoly.polymul([1, -1], [1, -1]))
    r = npoly.polymul([0, 1], npoly.polymul([1, -1], [1, -2]))
    c1 = -np.outer(q, r)
    c2 = np.outer(r, q)
    return c1, c2


def test_elasticity_force_matches_polynomial_oracle():
    c1, c2 = example2_poly_coeffs()
    rng = np.random.default_rng(3)
    x = rng.random((10, 2))
    mu = 1.7
    f = body_force_elasticity(FIELDS["example2"],
                              ProblemParams(mu, 1e8, 1e-6))(x)
    for a, c in enumerate((c1, c2)):
        lap = npoly.polyval2d(x[:, 0], x[:, 1],
                              npoly.polyder(c, 2, axis=0)) \
            + npoly.polyval2d(x[:, 0], x[:, 1],
                              npoly.polyder(c, 2, axis=1))
        assert np.allclose(f[:, a], -mu * lap, rtol=1e-12, atol=1e-12)


def test_elasticity_force_ignores_lambda_and_iota():
    rng = np.random.default_rng(11)
    x = rng.random((20, 2))
    field = FIELDS["example2"]
    fa = body_force_elasticity(field, ProblemParams(1.0, 1.0, 1e-8))(x)
    fb = body_force_elasticity(field, ProblemParams(1.0, 1e8, 1e-4))(x)
    assert np.array_equal(fa, fb)


def test_sge_force_ignores_lambda_for_divergence_free_fields():
    rng = np.random.default_rng(12)
    x = rng.random((20, 2))
    field = FIELDS["example1"]
    fa = body_force_sge(field, ProblemParams(1.0, 1.0, 1e-1))(x)
    fb = body_force_sge(field, ProblemParams(1.0, 1e8, 1e-1))(x)
    assert np.array_equal(fa, fb)


def test_example2_force_vanishes_at_center():
    f = body_force_elasticity(FIELDS["example2"],
                              ProblemParams(1.0, 1.0, 1e-6))
    assert f(np.array([0.5, 0.5]))[0] == 0.0


class _FullMap:
    """All-DoFs variant of the displacement map (no elimination)."""

    def __init__(self, mesh):
        ent = cell_entities(mesh)
        cd = np.empty((mesh.num_triangles, 20), dtype=np.int64)
        cd[:, 0::2] = 2 * ent
        cd[:, 1::2] = 2 * ent + 1
        self.cell_dofs = cd
        self.n_u = 2 * (mesh.num_vertices + 2 * mesh.num_edges
                        + mesh.num_triangles)


def test_error_norms_reproduce_quadratic_field():
    # P2 is contained in the local space and its interpolant is
    # single-valued, so interpolating a global quadratic field must
    # reproduce it up to roundoff
    p2 = AnalyticField(lambda x1, x2: (x1 ** 2 + 0.5 * x1 * x2,
                                       x2 ** 2 - x1))

    def valuef(x):
        return field_value(p2, x)

    def gradf(x):
        return field_gradient(p2, x)

    mesh = build_uniform_unit_square(3)
    fmap = _FullMap(mesh)
    u_full = np.zeros(fmap.n_u)
    for k in range(mesh.num_triangles):
        u_full[fmap.cell_dofs[k]] = local_interpolant(
            mesh, k, valuef, gradf)
    coeff = batched_scalar_coeff(mesh)
    e1, e2, ev = error_norms(mesh, coeff, fmap, u_full,
                             exact_tables(mesh, p2), 0.5)
    assert e1 < 1e-10 and e2 < 1e-10 and ev < 1e-10


def test_error_norms_match_gram_matrices_for_zero_field():
    # the example only feeds the exact tables of d.errors, which E_p
    # does not read
    d = Discretization(build_uniform_unit_square(4), "example1")
    vmap, qmap = d.vmap, d.qmap
    iota = 0.3
    (g1, g2), (mp, kp) = d.norm_gram_parts, d.pressure_parts
    GV, GQ = g1 + iota ** 2 * g2, mp + iota ** 2 * kp
    rng = np.random.default_rng(5)
    u_h = rng.standard_normal(vmap.n_u)
    p_h = rng.standard_normal(qmap.n_p)
    zero = AnalyticField(lambda x1, x2: (0.0 * x1, 0.0 * x2))
    _, _, ev = error_norms(d.mesh, d.coeff, vmap, u_h,
                           exact_tables(d.mesh, zero), iota)
    epq = d.errors(u_h, p_h, iota)[3]
    assert ev == pytest.approx(math.sqrt(u_h @ (GV @ u_h)), rel=1e-10)
    assert epq == pytest.approx(math.sqrt(p_h @ (GQ @ p_h)), rel=1e-10)


@functools.cache
def uniform_solve(example, iota):
    """The discretization of the uniform n = 16 mesh and its solution
    at (mu, lambda) = (1, 1e4)."""
    d = Discretization(build_uniform_unit_square(16), example)
    u, p, _ = solve_saddle(d.system(1.0, 1e4, iota))
    return d, u, p


@pytest.mark.parametrize("example,iota", [("example1", 1.0),
                                          ("example2", 1e-6)])
def test_error_norms_class_tables_are_the_per_point_maps(example, iota):
    # the class tables and the per-point products of the oracle round
    # differently, on the solved fields of the uniform study meshes and
    # on a jittered mesh with a random field
    d, u, p = uniform_solve(example, iota)
    e1, e2, _, _ = d.errors(u, p, iota)
    want = per_point_error_seminorms(d.mesh, d.coeff, d.vmap, u, d.exact)
    assert e1 == pytest.approx(want[0], rel=1e-14)
    assert e2 == pytest.approx(want[1], rel=1e-14)

    mesh = build_uniform_unit_square(4)
    rng = np.random.default_rng(12)
    verts = mesh.vertices.copy()
    inner = ~mesh.vertex_is_boundary
    verts[inner] += rng.uniform(-0.25, 0.25, (inner.sum(), 2)) / 4
    j = Discretization(Mesh(verts, mesh.triangles))
    tables = exact_tables(j.mesh, FIELDS[example])
    u_r = rng.standard_normal(j.vmap.n_u)
    e1, e2, _ = error_norms(j.mesh, j.coeff, j.vmap, u_r, tables, iota)
    want = per_point_error_seminorms(j.mesh, j.coeff, j.vmap, u_r, tables)
    assert e1 == pytest.approx(want[0], rel=1e-14)
    assert e2 == pytest.approx(want[1], rel=1e-14)


@pytest.mark.parametrize("example,iota", [("example1", 1.0),
                                          ("example1", 0.1),
                                          ("example2", 1e-6)])
def test_error_norms_do_not_depend_on_how_triangles_share_classes(example,
                                                                  iota):
    # the uniform mesh's 2 classes against one class per triangle: each
    # triangle reads bitwise equal tables either way
    d, u, _ = uniform_solve(example, iota)
    assert len(d.mesh.shape_rep) == 2
    own = copy.copy(d.mesh)
    own.shape_rep = own.shape_of_triangle = np.arange(own.num_triangles)
    assert error_norms(own, batched_scalar_coeff(own), d.vmap, u, d.exact,
                       iota) \
        == error_norms(d.mesh, d.coeff, d.vmap, u, d.exact, iota)


def test_error_norms_load_normalization():
    d = Discretization(build_uniform_unit_square(2), "example2")
    fnorm = d.load_norm(1.0, 1e-6)

    c1, c2 = example2_poly_coeffs()
    want = 0.0
    for c in (c1, c2):
        lx = npoly.polyder(c, 2, axis=0)
        ly = npoly.polyder(c, 2, axis=1)

        def f2(x, y):
            v = npoly.polyval2d(x, y, lx) + npoly.polyval2d(x, y, ly)
            return v * v

        for verts in ([(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]):
            want += quad_triangle(f2, verts, p=10)
    assert fnorm == pytest.approx(math.sqrt(want), rel=1e-13)


def test_error_norms_combination_identity():
    d = Discretization(build_uniform_unit_square(2), "example1")
    rng = np.random.default_rng(9)
    u_h = rng.standard_normal(d.vmap.n_u)
    iota = 0.2
    e1, e2, ev, epq = d.errors(u_h, np.zeros(d.qmap.n_p), iota)
    assert ev == pytest.approx(math.hypot(e1, iota * e2), rel=1e-14)
    assert epq == 0.0


@pytest.mark.parametrize("n", [4, 16])
def test_pressure_error_is_the_quadrature_norm(n):
    # E_p from the pressure Gram matrix against the P1 pressure
    # integrated with the degree-12 rule, on a jittered mesh
    mesh = build_uniform_unit_square(n)
    rng = np.random.default_rng(n)
    verts = mesh.vertices.copy()
    inner = ~mesh.vertex_is_boundary
    verts[inner] += rng.uniform(-0.25, 0.25, (inner.sum(), 2)) / n
    d = Discretization(Mesh(verts, mesh.triangles), "example1")
    u_h = rng.standard_normal(d.vmap.n_u)
    p_h = rng.standard_normal(d.qmap.n_p)
    for iota in (1.0, 0.3, 1e-2, 1e-8):
        assert d.errors(u_h, p_h, iota)[3] == pytest.approx(
            quadrature_pressure_norm(d.mesh, d.qmap, p_h, iota), rel=1e-13)


def test_load_split_matches_direct_assembly():
    # F = mu (F0 + iota^2 F2) and ||f|| from the parts against assembling
    # and integrating the unsplit body force of each iota directly
    mu = 1.3
    d1 = Discretization(build_uniform_unit_square(4), "example1")
    for iota in (1.0, 1e-1, 1e-8):
        force = body_force_sge(FIELDS["example1"],
                               ProblemParams(mu, 1.0, iota))
        F, G = assemble_load(d1.mesh, d1.coeff, d1.vmap,
                             lambda x: (force(x),))
        split = d1.system(mu, 1.0, iota).rhs_u
        assert np.max(np.abs(split - F[0])) <= 1e-13 * np.max(np.abs(F[0]))
        assert d1.load_norm(mu, iota) == pytest.approx(math.sqrt(G[0, 0]),
                                                       rel=1e-13)
    d2 = Discretization(build_uniform_unit_square(4), "example2")
    (_, F2), G2 = d2.load
    assert np.all(F2 == 0.0) and G2[0, 1] == G2[1, 1] == 0.0


def test_errors_evaluate_exact_field_once_per_mesh(monkeypatch):
    # the exact tables are shared by every cell measured on a mesh
    calls = []
    jets = AnalyticField.jets

    def counting(self, x, degree=4):
        calls.append(len(x))
        return jets(self, x, degree)

    monkeypatch.setattr(AnalyticField, "jets", counting)
    mesh = build_uniform_unit_square(4)
    rng = np.random.default_rng(4)
    cells = [1.0, 1e-1, 1e-8]
    counts = []
    for num_cells in (1, 3):
        d = Discretization(mesh, "example1")
        u_h = rng.standard_normal(d.vmap.n_u)
        p_h = rng.standard_normal(d.qmap.n_p)
        del calls[:]
        for iota in cells[:num_cells]:
            d.errors(u_h, p_h, iota)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sgefem.element
from sgefem.assembly import reference_moments
from sgefem.discretization import Discretization
from sgefem.linalg import solve_saddle
from sgefem.mesh import Mesh, build_uniform_unit_square
from sgefem.element import (SingularElementError, batched_scalar_coeff,
                            batched_scalar_dof_matrices, modal_tables,
                            scaled_conditions)
from sgefem.quadrature import edge_rule, rule_for_degree
from oracles import eval_basis, local_interpolant, loop_modal_tables
from test_mesh import relabeled
from test_space import flipped


def triangle_mesh(verts):
    return Mesh(np.asarray(verts, dtype=float), np.array([[0, 1, 2]]))


def reference_mesh():
    return triangle_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def bary_setup(verts):
    """Independent barycentric coordinates: solve the affine system."""
    A = np.vstack([np.asarray(verts, dtype=float).T, np.ones(3)])

    def bary(x):
        rhs = np.column_stack([x, np.ones(len(x))])
        return np.linalg.solve(A, rhs.T).T

    grads = np.linalg.inv(A)[:, :2]          # rows: grad lambda_s
    return bary, grads


def test_dof_matrix_invertible_on_reference():
    M = batched_scalar_dof_matrices(reference_mesh())[0]
    assert M.shape == (10, 10)
    assert abs(np.linalg.det(M)) > 0


def test_condition_number_regression():
    # SVD of the length-scaled matrix; frozen baseline
    cond = scaled_conditions(reference_mesh())[0]
    assert cond == pytest.approx(7232.2082, rel=1e-4)


def test_duality_through_interpolation():
    # apply the DoF functionals (via local_interpolant, which goes through
    # physical-space quadrature) to each nodal shape function
    m = reference_mesh()
    worst = 0.0
    for j in range(20):
        vals = lambda x: eval_basis(m, 0, x, 0)[:, j, :]
        grads = lambda x: eval_basis(m, 0, x, 1)[1][:, j, :, :]
        d = local_interpolant(m, 0, vals, grads)
        target = np.zeros(20)
        target[j] = 1.0
        worst = max(worst, np.max(np.abs(d - target)))
    assert worst < 1e-9


def test_constant_field_reproduction():
    m = triangle_mesh([[0.1, 0.2], [0.9, 0.3], [0.4, 1.1]])
    const = np.array([2.5, -1.25])
    d = local_interpolant(m, 0, lambda x: np.tile(const, (len(x), 1)),
                          lambda x: np.zeros((len(x), 2, 2)))
    pts = np.array([[0.5, 0.5], [0.4, 0.6], [0.45, 0.55]])
    rec = np.einsum("qjc,j->qc", eval_basis(m, 0, pts, 0), d)
    assert np.max(np.abs(rec - const)) < 1e-12


def test_p2_field_reproduction():
    m = triangle_mesh([[0.0, 0.0], [2.0, 0.2], [0.5, 1.5]])
    verts = m.tri_coords[0]

    def v(x):
        x1, x2 = x[:, 0], x[:, 1]
        return np.stack([1 + 2 * x1 - x2 + x1 * x2 - x2 ** 2,
                         0.5 - x1 + 3 * x2 + x1 ** 2], axis=1)

    def gv(x):
        x1, x2 = x[:, 0], x[:, 1]
        g = np.empty((len(x), 2, 2))
        g[:, 0, 0] = 2 + x2
        g[:, 0, 1] = -1 + x1 - 2 * x2
        g[:, 1, 0] = -1 + 2 * x1
        g[:, 1, 1] = 3.0
        return g

    d = local_interpolant(m, 0, v, gv)
    pts = verts.mean(axis=0) + 0.3 * (verts - verts.mean(axis=0))
    rec = np.einsum("qjc,j->qc", eval_basis(m, 0, pts, 0), d)
    assert np.max(np.abs(rec - v(pts))) < 1e-10


def test_bubble_field_reproduction():
    # b_K (alpha + beta l1) e1 + gamma b_K^2 e2, gradients derived by hand
    verts = np.array([[0.2, 0.1], [1.1, 0.4], [0.3, 0.9]])
    m = triangle_mesh(verts)
    bary, grads = bary_setup(verts)
    alpha, beta, gamma = 0.7, -1.3, 2.1

    def v(x):
        lam = bary(x)
        b = lam.prod(axis=1)
        return np.stack([b * (alpha + beta * lam[:, 0]),
                         gamma * b * b], axis=1)

    def gv(x):
        lam = bary(x)
        b = lam.prod(axis=1)
        # grad b = sum_s prod_{t != s} lam_t grad lam_s
        gb = np.zeros((len(x), 2))
        for s in range(3):
            others = lam[:, (s + 1) % 3] * lam[:, (s + 2) % 3]
            gb += np.outer(others, grads[s])
        g = np.empty((len(x), 2, 2))
        g[:, 0, :] = (gb * (alpha + beta * lam[:, [0]])
                      + np.outer(b * beta, grads[0]))
        g[:, 1, :] = 2.0 * b[:, None] * gb * gamma
        return g

    d = local_interpolant(m, 0, v, gv)
    pts = verts.mean(axis=0) + np.array([[0.0, 0.0], [0.05, -0.02],
                                         [-0.04, 0.06]])
    rec = np.einsum("qjc,j->qc", eval_basis(m, 0, pts, 0), d)
    assert np.max(np.abs(rec - v(pts))) < 1e-10


def test_gradient_matches_finite_differences():
    m = triangle_mesh([[0.0, 0.0], [1.0, 0.1], [0.3, 0.8]])
    pts = np.array([[0.4, 0.3], [0.35, 0.25]])
    _, grad = eval_basis(m, 0, pts, 1)
    step = 1e-5 * m.h
    for d in range(2):
        dx = np.zeros(2)
        dx[d] = step
        vp = eval_basis(m, 0, pts + dx, 0)
        vm = eval_basis(m, 0, pts - dx, 0)
        fd = (vp - vm) / (2 * step)
        scale = np.max(np.abs(grad[..., d])) + 1.0
        assert np.max(np.abs(fd - grad[..., d])) / scale < 1e-6


def test_hessian_matches_finite_differences():
    m = triangle_mesh([[0.0, 0.0], [1.0, 0.1], [0.3, 0.8]])
    pts = np.array([[0.4, 0.3]])
    _, grad, hess = eval_basis(m, 0, pts, 2)
    step = 1e-5 * m.h
    for d in range(2):
        dx = np.zeros(2)
        dx[d] = step
        _, gp = eval_basis(m, 0, pts + dx, 1)
        _, gm = eval_basis(m, 0, pts - dx, 1)
        fd = (gp - gm) / (2 * step)
        scale = np.max(np.abs(hess[..., d])) + 1.0
        assert np.max(np.abs(fd - hess[..., d])) / scale < 1e-5


def test_p2_modal_hessians_constant():
    # the 6 quadratic monomials have constant second derivatives
    G = triangle_mesh([[0.0, 0.0], [1.3, 0.2], [0.4, 1.1]]).bary_grads[0]
    pts = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.1, 0.8, 0.1]])
    _, _, d2 = modal_tables(pts, 2)
    hess = np.einsum("qjsu,sx,uy->qjxy", d2, G, G)
    for j in range(6):
        assert np.max(np.abs(hess[:, j] - hess[0, j])) < 1e-13


def test_trace_single_valued_across_shared_edge():
    # shape functions attached to shared DoFs have identical traces from
    # either side; shape functions of non-shared DoFs vanish on the edge
    m = build_uniform_unit_square(2)
    e = int(np.nonzero(~m.edge_is_boundary)[0][0])
    t0, t1 = m.triangles_of_edge[e]
    va, vb = m.edges[e]
    t = np.linspace(0.05, 0.95, 7)
    pts = np.outer(1 - t, m.vertices[va]) + np.outer(t, m.vertices[vb])

    def local_value_dofs(tri_idx):
        tri = list(m.triangles[tri_idx])
        le = list(m.edge_of_triangle[tri_idx]).index(e)
        return {"lo": tri.index(va), "hi": tri.index(vb), "mid": 3 + le,
                "nd": 6 + le}

    l0 = local_value_dofs(t0)
    l1 = local_value_dofs(t1)
    v0 = eval_basis(m, t0, pts, 0)
    v1 = eval_basis(m, t1, pts, 0)
    for key in ("lo", "hi", "mid", "nd"):
        for comp in (0, 1):
            tr0 = v0[:, 2 * l0[key] + comp, :]
            tr1 = v1[:, 2 * l1[key] + comp, :]
            assert np.max(np.abs(tr0 - tr1)) < 1e-11, key


def test_normal_derivative_mean_is_kronecker():
    # independent edge quadrature of grad(phi_j) . n over each edge
    m = triangle_mesh([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
    verts = m.tri_coords[0]
    normals = m.edge_normal[m.edge_of_triangle[0]]
    tg, wg = np.polynomial.legendre.leggauss(4)
    tg = (tg + 1) / 2
    wg = wg / 2
    for s in range(3):
        a, b = verts[(s + 1) % 3], verts[(s + 2) % 3]
        pts = np.outer(1 - tg, a) + np.outer(tg, b)
        _, grad = eval_basis(m, 0, pts, 1)
        dn = np.einsum("qjab,b->qja", grad, normals[s])
        mean = np.einsum("q,qja->ja", wg, dn)
        for j in range(20):
            expect = 1.0 if j // 2 == 6 + s else 0.0
            comp = j % 2
            assert abs(mean[j, comp] - expect * (1 if comp == j % 2 else 0)) \
                < 1e-10


def test_degenerate_triangle_raises():
    m = triangle_mesh([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-14]])
    with pytest.raises(SingularElementError):
        batched_scalar_coeff(m)


def test_one_degenerate_triangle_in_a_mesh_raises():
    # a degenerate triangle is a shape class of its own, so its DoF
    # matrix is still checked
    m = build_uniform_unit_square(4)
    V = m.num_vertices
    verts = np.concatenate([m.vertices,
                            [[2.0, 0.0], [3.0, 0.0], [4.0, 1e-14]]])
    tris = np.concatenate([m.triangles, [[V, V + 1, V + 2]]])
    with np.errstate(divide="ignore", invalid="ignore"):
        mesh = Mesh(verts, tris)
    assert len(mesh.shape_rep) == 3
    with pytest.raises(SingularElementError):
        batched_scalar_coeff(mesh)


def test_clockwise_triangles_are_named_and_zero_area_stays_singular():
    # a clockwise mesh has negative areas and a negative definite A,
    # whose solve would break down without naming the cause
    m = build_uniform_unit_square(8)
    d = Discretization(Mesh(m.vertices, m.triangles[:, [0, 2, 1]]),
                       "example2")
    with pytest.raises(ValueError, match="clockwise"):
        solve_saddle(d.system(1.0, 1e4, 1e-6))
    with np.errstate(divide="ignore", invalid="ignore"):
        flat = triangle_mesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert flat.area[0] == 0.0
    with pytest.raises(SingularElementError, match="singular"):
        batched_scalar_coeff(flat)


@pytest.mark.parametrize("kind", ["relabeled", "flipped"])
def test_class_coefficients_are_the_per_triangle_coefficients(kind):
    m = relabeled(4) if kind == "relabeled" else flipped(5)
    assert len(m.shape_rep) < m.num_triangles
    assert np.array_equal(batched_scalar_coeff(m)[m.shape_of_triangle],
                          np.linalg.inv(batched_scalar_dof_matrices(m)))


def test_batched_matches_single():
    m = build_uniform_unit_square(3)
    batched = batched_scalar_dof_matrices(m)
    coeff = batched_scalar_coeff(m)[m.shape_of_triangle]
    for k in (0, 7, 12):
        M0 = batched_scalar_dof_matrices(m, [k])[0]
        assert np.max(np.abs(batched[k] - M0)) < 1e-14
        assert np.max(np.abs(coeff[k] @ M0 - np.eye(10))) < 1e-9


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=25, deadline=None)
def test_unisolvence_random_shape_regular(seed):
    rng = np.random.default_rng(seed)
    while True:
        verts = rng.uniform(0.0, 1.0, (3, 2))
        e = np.array([verts[2] - verts[1], verts[0] - verts[2],
                      verts[1] - verts[0]])
        lens = np.hypot(e[:, 0], e[:, 1])
        d1 = verts[1] - verts[0]
        d2 = verts[2] - verts[0]
        area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
        if area <= 0:
            verts = verts[[0, 2, 1]]
            area = -area
        inradius = area / (0.5 * lens.sum())
        if lens.max() / (2 * inradius) <= 5.0:
            break
    cond = scaled_conditions(triangle_mesh(verts))[0]
    assert np.isfinite(cond)
    assert cond < 1e6


def _edge_gauss_points():
    """The barycentric points of the normal-derivative DoF rows: the
    Gauss points of each edge s, from local vertex s+1 to s+2."""
    t, _ = edge_rule(sgefem.element._EDGE_DOF_DEGREE)
    pts = np.zeros((3, len(t), 3))
    for s in range(3):
        pts[s, :, (s + 1) % 3] = 1.0 - t
        pts[s, :, (s + 2) % 3] = t
    return pts.reshape(-1, 3)


def test_modal_tables_are_the_loop_tables_bit_for_bit():
    rng = np.random.default_rng(17)
    xy = rng.uniform(-0.5, 1.5, (2000, 2))      # some outside the triangle
    point_sets = {
        "degree-12 rule": rule_for_degree(12).points,
        "vertices and midpoints": np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
             [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]),
        "edge gauss points": _edge_gauss_points(),
        "random": np.column_stack([xy, 1.0 - xy.sum(axis=1)]),
    }
    assert (point_sets["random"] < 0.0).any()
    for name, pts in point_sets.items():
        for order in (0, 1, 2):
            got, want = modal_tables(pts, order), loop_modal_tables(pts,
                                                                    order)
            if order == 0:
                got, want = (got,), (want,)
            for g, w in zip(got, want, strict=True):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), \
                    (name, order)


def test_reference_moments_are_frozen_bit_for_bit():
    # the exact moments are correctly rounded rationals, so their bytes
    # are fixed on every IEEE platform
    digest = hashlib.sha256()
    for table in reference_moments():
        digest.update(table.tobytes())
    assert digest.hexdigest() == ("be08a137c130025d7f05d91b18684ac2"
                                  "d56df8be66f0f7c840156335ecec1ce4")


def test_coefficients_build_the_dof_matrices_once(monkeypatch):
    calls = []
    build = sgefem.element.batched_scalar_dof_matrices

    def counting(mesh, tris=None):
        calls.append(None)
        return build(mesh, tris)

    monkeypatch.setattr(sgefem.element, "batched_scalar_dof_matrices",
                        counting)
    m = build_uniform_unit_square(3)
    coeff = batched_scalar_coeff(m)
    assert len(calls) == 1
    M = build(m)
    assert np.array_equal(coeff[m.shape_of_triangle], np.linalg.inv(M))

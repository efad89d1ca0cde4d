import numpy as np
import pytest
from scipy.linalg import eigh

from sgefem.assembly import (ScatterPlan, assemble_load,
                             assemble_pressure_parts, chunks, combine_parts,
                             kernel_a_parts, kernel_b_parts,
                             kernel_norm_gram_parts, kernel_pressure_parts,
                             mean_constraint_vector, modal_rule,
                             reference_moments)
from sgefem.discretization import Discretization
from sgefem.element import batched_scalar_dof_matrices
from sgefem.linalg import spd_factor
from sgefem.mesh import Mesh, build_uniform_unit_square
from oracles import (DEGREE_COUPLING, DEGREE_STIFFNESS, ProblemParams,
                     conical_rule, eval_basis, lexsort_csr,
                     quadrature_kernel_a_parts, quadrature_kernel_b_parts,
                     quadrature_kernel_norm_gram_parts)
from test_space import flipped


def setup(n):
    """Discretization of the n x n mesh with the example2 load (the
    matrices do not depend on it)."""
    return Discretization(build_uniform_unit_square(n), "example2")


def jittered(n=3, seed=1):
    """Discretization of the n x n mesh with every interior vertex moved
    by up to a quarter cell, so that no two triangles share a shape."""
    mesh = build_uniform_unit_square(n)
    rng = np.random.default_rng(seed)
    verts = mesh.vertices.copy()
    inner = ~mesh.vertex_is_boundary
    verts[inner] += rng.uniform(-0.25, 0.25, (inner.sum(), 2)) / n
    jittered_mesh = Mesh(verts, mesh.triangles)
    assert np.all(jittered_mesh.area > 0.0)
    return Discretization(jittered_mesh)


def batch_kernels(kernel, d, tris):
    """The kernels of ``d``'s triangles ``tris``, given their class
    coefficients as the assembly does."""
    return kernel(d.mesh, d.coeff[d.mesh.shape_of_triangle[tris]], tris)


def oracle_kernel_a(mesh, k, mu, iota, p=7):
    """Naive per-point kernel via eval_basis and a Gauss-Jacobi rule
    (exact to degree 2p-1 = 13)."""
    pts, wts = conical_rule(p)
    xy = pts @ mesh.tri_coords[k]
    _, grad, hess = eval_basis(mesh, k, xy, 2)
    K = np.zeros((20, 20))
    for q in range(len(wts)):
        eps = 0.5 * (grad[q] + grad[q].swapaxes(1, 2))
        # deps[i, z, a, b] = d_z eps_ab; hess[i, a, b, c] = d_b d_c phi_a
        deps = np.empty((20, 2, 2, 2))
        for z in range(2):
            for a in range(2):
                for b in range(2):
                    deps[:, z, a, b] = 0.5 * (hess[q][:, a, z, b]
                                              + hess[q][:, b, z, a])
        term = (np.einsum("iab,jab->ij", eps, eps)
                + iota ** 2 * np.einsum("izab,jzab->ij", deps, deps))
        K += 2.0 * mu * wts[q] * mesh.area[k] * term
    return K


def oracle_kernel_b(mesh, k, iota, p=7):
    pts, wts = conical_rule(p)
    xy = pts @ mesh.tri_coords[k]
    _, grad, hess = eval_basis(mesh, k, xy, 2)
    K = np.zeros((3, 20))
    for q in range(len(wts)):
        div = grad[q, :, 0, 0] + grad[q, :, 1, 1]
        gdiv = hess[q, :, 0, 0, :] + hess[q, :, 1, 1, :]
        for l in range(3):
            K[l] += wts[q] * mesh.area[k] * (
                div * pts[q, l] + iota ** 2 * gdiv @ mesh.bary_grads[k, l])
    return K


def oracle_kernel_norm_gram(mesh, k, p=7):
    """Gradient and second-derivative Gram kernels of triangle k, the
    mixed derivative counted once."""
    pts, wts = conical_rule(p)
    xy = pts @ mesh.tri_coords[k]
    _, grad, hess = eval_basis(mesh, k, xy, 2)
    second = hess[..., [0, 0, 1], [0, 1, 1]]          # xx, xy, yy
    w = wts * mesh.area[k]
    return (np.einsum("q,qiab,qjab->ij", w, grad, grad),
            np.einsum("q,qiak,qjak->ij", w, second, second))


def rel_error(got, expect):
    return np.max(np.abs(got - expect)) / np.max(np.abs(expect))


def test_kernel_a_matches_oracle():
    d = setup(2)
    mu, iota = 1.0, 0.3
    k0, k2 = batch_kernels(kernel_a_parts, d, np.array([3]))
    production = 2.0 * mu * (k0[0] + iota ** 2 * k2[0])
    oracle = oracle_kernel_a(d.mesh, 3, mu, iota)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(production - oracle)) / scale < 1e-12


def test_kernel_a_elasticity_limit():
    # iota = 0 drops the strain-gradient term entirely
    d = setup(2)
    k0, _ = batch_kernels(kernel_a_parts, d, np.array([5]))
    oracle = oracle_kernel_a(d.mesh, 5, 0.5, 0.0)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(2.0 * 0.5 * k0[0] - oracle)) / scale < 1e-12


def test_kernel_b_matches_oracle():
    d = setup(2)
    iota = 0.15
    k0, k2 = batch_kernels(kernel_b_parts, d, np.array([4]))
    production = k0[0] + iota ** 2 * k2[0]
    oracle = oracle_kernel_b(d.mesh, 4, iota)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(production - oracle)) / scale < 1e-12


def test_kernel_a_matches_oracle_on_jittered_mesh():
    d = jittered()
    mu, iota = 1.0, 0.3
    tris = np.arange(d.mesh.num_triangles)
    k0, k2 = batch_kernels(kernel_a_parts, d, tris)
    for k in tris:
        production = 2.0 * mu * (k0[k] + iota ** 2 * k2[k])
        assert rel_error(production,
                         oracle_kernel_a(d.mesh, k, mu, iota)) < 1e-12


def test_kernel_a_elasticity_limit_on_jittered_mesh():
    d = jittered()
    tris = np.arange(d.mesh.num_triangles)
    k0, _ = batch_kernels(kernel_a_parts, d, tris)
    for k in tris:
        assert rel_error(2.0 * 0.5 * k0[k],
                         oracle_kernel_a(d.mesh, k, 0.5, 0.0)) < 1e-12


def test_kernel_b_matches_oracle_on_jittered_mesh():
    d = jittered()
    iota = 0.15
    tris = np.arange(d.mesh.num_triangles)
    k0, k2 = batch_kernels(kernel_b_parts, d, tris)
    for k in tris:
        assert rel_error(k0[k] + iota ** 2 * k2[k],
                         oracle_kernel_b(d.mesh, k, iota)) < 1e-12


def test_kernel_norm_gram_matches_oracle_on_jittered_mesh():
    d = jittered()
    tris = np.arange(d.mesh.num_triangles)
    k1, k2 = batch_kernels(kernel_norm_gram_parts, d, tris)
    for k in tris:
        o1, o2 = oracle_kernel_norm_gram(d.mesh, k)
        assert rel_error(k1[k], o1) < 1e-12
        assert rel_error(k2[k], o2) < 1e-12


@pytest.mark.parametrize("make", [lambda: setup(4), jittered],
                         ids=["uniform", "jittered"])
def test_kernels_match_quadrature_kernels(make):
    # the degree-10 and degree-6 rules are exact for these integrands,
    # so the quadrature sums differ from the exact moments by roundoff;
    # that of the quadrature grad-div kernel reaches 5e-13 (it does not
    # cancel where the exact kernel vanishes, see the test below)
    disc = make()
    tris = np.arange(disc.mesh.num_triangles)
    coeff = disc.coeff[disc.mesh.shape_of_triangle]
    for production, reference, tols in (
            (kernel_a_parts, quadrature_kernel_a_parts, (1e-13, 1e-13)),
            (kernel_b_parts, quadrature_kernel_b_parts, (1e-13, 1e-12)),
            (kernel_norm_gram_parts, quadrature_kernel_norm_gram_parts,
             (1e-13, 1e-13))):
        for got, expect, tol in zip(production(disc.mesh, coeff, tris),
                                    reference(disc.mesh, coeff, tris),
                                    tols, strict=True):
            assert rel_error(got, expect) < tol


def test_reference_moments_match_quadrature():
    r1, r2, b1, b2 = reference_moments()
    pairs = ([0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2])
    rule, (_, d1, d2) = modal_rule(DEGREE_STIFFNESS, 2)
    w, h = rule.weights, d2[..., pairs[0], pairs[1]]
    for got, expect in (
            (r1, np.einsum("q,qms,qnu->mnsu", w, d1, d1).reshape(100, 9)),
            (r2, np.einsum("q,qma,qnb->mnab", w, h, h).reshape(100, 36))):
        assert rel_error(got, expect) < 1e-14
    rule, (_, d1, d2) = modal_rule(DEGREE_COUPLING, 2)
    w = rule.weights
    assert rel_error(b1, np.einsum("q,ql,qms->lms", w, rule.points,
                                   d1).reshape(30, 3)) < 1e-14
    assert rel_error(b2, np.einsum("q,qma->ma", w,
                                   d2[..., pairs[0], pairs[1]])) < 1e-14


def test_grad_div_kernel_vanishes_on_midpoint_and_mean_functions():
    # int_K d_zc phi = mean over the boundary of d_c phi n_z, and the
    # gradient of a midpoint-value or cell-mean function has zero edge
    # means (its vertex values and normal-derivative means vanish)
    for d in (setup(16), jittered()):
        tris = np.arange(d.mesh.num_triangles)
        _, k2 = batch_kernels(kernel_b_parts, d, tris)
        scale = np.abs(k2).max(axis=(1, 2))
        cols = np.r_[6:12, 18:20]
        assert np.all(np.abs(k2[:, :, cols]).max(axis=(1, 2))
                      < 1e-13 * scale)


def plan_cases(d):
    """(row map, column map, shape) of the three scatter plans."""
    v, q = d.vmap, d.qmap
    return ((v, v, (v.n_u, v.n_u)), (q, v, (q.n_p, v.n_u)),
            (q, q, (q.n_p, q.n_p)))


def assert_same_csr(got, expect):
    assert got.shape == expect.shape
    assert np.array_equal(got.indptr, expect.indptr)
    assert np.array_equal(got.indices, expect.indices)
    assert np.array_equal(got.data, expect.data)      # bit for bit


def without_zeros(m):
    m = m.copy()
    m.eliminate_zeros()
    return m


PLAN_MESHES = {"uniform": lambda: setup(4), "jittered": jittered,
               "flipped": lambda: Discretization(flipped(4))}


def test_scatter_plan_matches_lexsort_accumulation():
    # the plan gathers each triangle's entries from its class kernel
    rng = np.random.default_rng(7)
    for make in PLAN_MESHES.values():
        d = make()
        classes = d.mesh.shape_of_triangle
        for rows, cols, shape in plan_cases(d):
            kernels = rng.standard_normal((len(d.mesh.shape_rep),
                                           rows.cell_dofs.shape[1],
                                           cols.cell_dofs.shape[1]))
            assert_same_csr(
                ScatterPlan(rows, cols, shape, classes).csr(kernels),
                lexsort_csr(kernels[classes], rows.cell_dofs,
                            cols.cell_dofs, shape))


@pytest.mark.parametrize("kind", sorted(PLAN_MESHES))
def test_diagonal_plan_scatters_only_the_component_blocks(kind):
    d = PLAN_MESHES[kind]()
    classes = d.mesh.shape_of_triangle
    v, shape = d.vmap, (d.vmap.n_u, d.vmap.n_u)
    rng = np.random.default_rng(8)
    kernels = rng.standard_normal((len(d.mesh.shape_rep), 20, 20))
    blocks = kernels.copy()
    blocks[:, 0::2, 1::2] = blocks[:, 1::2, 0::2] = 0.0
    got = ScatterPlan(v, v, shape, classes, diagonal=True).csr(kernels)
    assert_same_csr(got, without_zeros(lexsort_csr(
        blocks[classes], v.cell_dofs, v.cell_dofs, shape)))
    assert np.all((got.indices - np.repeat(np.arange(shape[0]),
                                           np.diff(got.indptr))) % 2 == 0)


def test_assembled_parts_are_the_lexsort_sums_of_their_kernels():
    d = jittered()
    tris = np.arange(d.mesh.num_triangles)
    (v, _, shape_v), (q, _, shape_b), _ = plan_cases(d)
    for parts, kernels, rows, cols, shape, zeros in (
            (d.a_parts, kernel_a_parts, v, v, shape_v, False),
            # the norm Grams couple no components and store none of the
            # cross-component zeros
            (d.norm_gram_parts, kernel_norm_gram_parts, v, v, shape_v,
             True),
            (d.b_parts, kernel_b_parts, q, v, shape_b, False)):
        for got, k in zip(parts, batch_kernels(kernels, d, tris),
                          strict=True):
            expect = lexsort_csr(k, rows.cell_dofs, cols.cell_dofs, shape)
            assert_same_csr(got, without_zeros(expect) if zeros else expect)


def per_triangle_parts(d):
    """The a, b, norm-Gram and pressure parts and the coefficients of
    ``d`` from per-triangle DoF matrices and kernels, scattered by
    :func:`oracles.lexsort_csr`."""
    mesh, T = d.mesh, d.mesh.num_triangles
    coeff = np.linalg.inv(batched_scalar_dof_matrices(mesh))
    (v, _, shape_v), (q, _, shape_b), (_, _, shape_q) = plan_cases(d)

    def scatter(kernel, rows, cols, shape):
        ks = [kernel(mesh, coeff[tris], tris) for tris in chunks(T)]
        return tuple(lexsort_csr(np.concatenate(k), rows.cell_dofs,
                                 cols.cell_dofs, shape) for k in zip(*ks))

    return {"coeff": coeff,
            "a": scatter(kernel_a_parts, v, v, shape_v),
            "b": scatter(kernel_b_parts, q, v, shape_b),
            "norm_gram": tuple(map(without_zeros, scatter(
                kernel_norm_gram_parts, v, v, shape_v))),
            "pressure": scatter(kernel_pressure_parts, q, q, shape_q)}


def test_class_assembly_is_the_per_triangle_assembly_at_n16():
    """Per-class kernels on the two shapes of the uniform n = 16 mesh
    against the kernels of every triangle.  Equal inputs give equal
    kernels, so the parts agree bit for bit, except the second-derivative
    parts a2 and g2: the scalar Grams' H of a batch of <= 4 triangles
    comes from OpenBLAS's small-matrix path of ``r2 @ g2``, whose sums
    round differently from its path for batches of >= 8 (seen with
    OpenBLAS 0.3.31), so those agree to roundoff of their largest
    entry."""
    d = setup(16)
    assert len(d.mesh.shape_rep) == 2
    ref = per_triangle_parts(d)
    assert np.array_equal(d.coeff[d.mesh.shape_of_triangle], ref["coeff"])
    got = {"a": d.a_parts, "b": d.b_parts, "norm_gram": d.norm_gram_parts,
           "pressure": d.pressure_parts}
    for name, second_to_roundoff in (("a", True), ("b", False),
                                     ("norm_gram", True),
                                     ("pressure", False)):
        for k, (g, e) in enumerate(zip(got[name], ref[name], strict=True)):
            if k == 1 and second_to_roundoff:
                assert np.array_equal(g.indptr, e.indptr)
                assert np.array_equal(g.indices, e.indices)
                assert np.abs(g.data - e.data).max() \
                    <= 1e-15 * np.abs(e.data).max()
            else:
                assert_same_csr(g, e)


def test_a_and_g_are_the_sums_of_their_parts_on_one_pattern():
    # A = 2 mu (a0 + iota^2 a2) and G = M_p + iota^2 K_p hold their
    # parts' index arrays and equal scipy's sums bit for bit
    for n in (4, 16):
        d = setup(n)
        a0, a2 = d.a_parts
        mp, kp = d.pressure_parts
        for iota in (1.0, 1e-1, 1e-6, 1e-8):
            f = d.factors(1.3, iota)
            i2 = iota ** 2
            for got, expect, first in ((f.A, 2.0 * 1.3 * (a0 + i2 * a2), a0),
                                       (f.G, mp + i2 * kp, mp)):
                assert_same_csr(got, expect)
                assert np.shares_memory(got.indices, first.indices)
                assert np.shares_memory(got.indptr, first.indptr)


def test_factoring_a_leaves_its_parts_unchanged():
    d = setup(8)
    a0, _ = d.a_parts
    before = [x.tobytes() for x in (a0.data, a0.indices, a0.indptr)]
    spd_factor(d.factors(1.0, 1e-2).A)
    assert [x.tobytes() for x in (a0.data, a0.indices, a0.indptr)] == before


def test_combine_parts_rejects_two_patterns():
    d = setup(4)
    with pytest.raises(ValueError, match="one pattern"):
        combine_parts(d.a_parts[0], d.norm_gram_parts[0], 1.0)


def test_parts_of_one_call_share_their_pattern():
    d = jittered()
    for first, second in (d.a_parts, d.b_parts, d.pressure_parts,
                          d.norm_gram_parts):
        assert np.shares_memory(first.indices, second.indices)
        assert np.shares_memory(first.indptr, second.indptr)


def test_a_symmetric_and_positive():
    d = setup(3)
    A = d.system(1.0, 1.0, 0.1).A
    diff = (A - A.T).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(d.vmap.n_u)
        assert x @ (A @ x) > 0


def test_a_iota_linearity():
    d = setup(2)
    A0 = d.system(1.0, 1.0, 0.0).A.toarray()
    A1 = d.system(1.0, 1.0, 1.0).A.toarray()
    Ai = d.system(1.0, 1.0, 0.37).A.toarray()
    recon = (1 - 0.37 ** 2) * A0 + 0.37 ** 2 * A1
    assert np.max(np.abs(Ai - recon)) < 1e-14 * np.max(np.abs(A1))


def test_b_iota_split_is_exact():
    d = setup(2)
    b0 = d.system(1.0, 1.0, 0.0).B.toarray()
    bi = d.system(1.0, 1.0, 0.2).B.toarray()
    p0, p2 = d.b_parts
    assert np.max(np.abs(b0 - p0.toarray())) == 0.0
    recon = p0.toarray() + 0.04 * p2.toarray()
    assert np.max(np.abs(bi - recon)) < 1e-15 * np.max(np.abs(bi))


def test_b_full_row_rank():
    B = setup(4).system(1.0, 1.0, 0.01).B.toarray()
    sv = np.linalg.svd(B, compute_uv=False)
    assert sv[-1] > 1e-10


def test_c_scaling_and_spd():
    d = setup(3)
    C1 = d.system(1.0, 2.0, 0.1).C
    C2 = d.system(1.0, 4.0, 0.1).C
    assert np.max(np.abs((C1 - 2.0 * C2).toarray())) < 1e-18
    rng = np.random.default_rng(11)
    x = rng.standard_normal(d.qmap.n_p)
    assert x @ (C1 @ x) > 0
    diff = (C1 - C1.T).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_c_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        setup(2).system(1.0, 0.0, 0.1)


def test_pressure_mass_against_closed_form():
    # P1 mass kernel is |K|/12 * (2 on the diagonal, 1 off); n=2 has a
    # single interior vertex supported on 6 triangles of area 1/8
    d = setup(2)
    mp, kp = assemble_pressure_parts(d.mesh, d.qmap)
    assert mp.shape == (1, 1)
    assert abs(mp[0, 0] - 6 * 2 * (1.0 / 8.0) / 12.0) < 1e-15
    m = mean_constraint_vector(d.mesh, d.qmap)
    assert abs(m[0] - 6 * (1.0 / 8.0) / 3.0) < 1e-15


def load_vector(d, f):
    """Load vector of a single-part load ``f``."""
    F, _ = assemble_load(d.mesh, d.coeff, d.vmap, lambda x: (f(x),))
    return F[0]


def test_load_zero():
    d = setup(2)
    F = load_vector(d, lambda x: np.zeros((len(x), 2)))
    assert np.all(F == 0.0)


def test_load_constant_hits_element_means():
    d = setup(2)
    mesh, vmap = d.mesh, d.vmap
    F = load_vector(d, lambda x: np.tile([1.0, 0.0], (len(x), 1)))
    expect = np.zeros(vmap.n_u)
    for t in range(mesh.num_triangles):
        expect[vmap.cell_dofs[t, 18]] = mesh.area[t]
    assert np.max(np.abs(F - expect)) < 1e-15


def test_load_polynomial_matches_high_degree_oracle():
    # degree-5 polynomial force times degree-6 shapes: degree-11 integrand
    d = setup(2)
    mesh, vmap = d.mesh, d.vmap

    def f(x):
        x1, x2 = x[:, 0], x[:, 1]
        return np.stack([x1 ** 2 * x2 ** 3, x1 ** 5 - x2 ** 4], axis=1)

    F = load_vector(d, f)

    pts, wts = conical_rule(7)          # exact to degree 13
    expect = np.zeros(vmap.n_u)
    for t in range(mesh.num_triangles):
        xy = pts @ mesh.tri_coords[t]
        vals = eval_basis(mesh, t, xy, 0)        # (q, 20, 2)
        fv = f(xy)
        loc = mesh.area[t] * np.einsum("q,qic,qc->i", wts, vals, fv)
        dofs = vmap.cell_dofs[t]
        mask = dofs >= 0
        expect[dofs[mask]] += loc[mask]
    assert np.max(np.abs(F - expect)) < 1e-12 * np.max(np.abs(expect))


def norm_grams(d, iota):
    """G_V and G_Q at iota from the parts."""
    (g1, g2), (mp, kp) = d.norm_gram_parts, d.pressure_parts
    return g1 + iota ** 2 * g2, mp + iota ** 2 * kp


def test_norm_grams_shapes_and_gq_matches_lambda_c():
    d = setup(3)
    iota = 0.05
    GV, GQ = norm_grams(d, iota)
    lam = 7.0
    C = d.system(1.0, lam, iota).C
    assert np.max(np.abs((GQ - lam * C).toarray())) \
        < 1e-14 * np.max(np.abs(GQ.toarray()))
    rng = np.random.default_rng(5)
    x = rng.standard_normal(d.vmap.n_u)
    g1 = norm_grams(d, 0.0)[0]
    assert x @ (GV @ x) >= x @ (g1 @ x) - 1e-12


def test_coercivity_constant_against_korn_bound():
    # min eigenvalue of A x = theta (2 mu G_V) x stays above 1 - 1/sqrt(2)
    d = setup(4)
    mu = 1.0
    for iota in (1.0, 1e-2):
        A = d.system(mu, 1.0, iota).A.toarray()
        GV = norm_grams(d, iota)[0].toarray()
        theta = eigh(A, 2.0 * mu * GV, eigvals_only=True)[0]
        assert theta >= 1.0 - 1.0 / np.sqrt(2.0) - 1e-9


def test_block_system_symmetric_bit_for_bit():
    system = setup(3).system(1.0, 100.0, 0.1)
    A, C = system.A, system.C
    for M in (A, C):
        diff = (M - M.T).tocoo()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(mu=0.0)
    with pytest.raises(ValueError):
        ProblemParams(iota=2.0)
    with pytest.raises(ValueError):
        ProblemParams(lam=-1.0)

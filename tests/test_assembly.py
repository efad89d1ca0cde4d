import math
from functools import partial

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse import csr_matrix, kron

from sgefem.assembly import (ScatterPlan, assemble_load,
                             assemble_pressure_parts, chunks, combine_parts,
                             kernel_a_parts, kernel_b_parts,
                             kernel_norm_gram_parts, kernel_pressure_parts,
                             mean_constraint_vector, modal_rule,
                             reference_moments)
from sgefem.discretization import Discretization
from sgefem.element import batched_scalar_dof_matrices
from sgefem.linalg import SaddleSystem, _row_sums, spd_factor
from sgefem.manufactured import load_parts
from sgefem.mesh import Mesh, build_uniform_unit_square
from oracles import (DEGREE_COUPLING, DEGREE_STIFFNESS, ProblemParams,
                     cell_dofs, conical_rule, eval_basis, lexsort_csr,
                     per_dof_load, quadrature_kernel_a_parts,
                     quadrature_kernel_b_parts,
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
        # the vector oracle's Grams act on each component alone
        o1, o2 = oracle_kernel_norm_gram(d.mesh, k)
        assert rel_error(np.kron(k1[k], np.eye(2)), o1) < 1e-12
        assert rel_error(np.kron(k2[k], np.eye(2)), o2) < 1e-12


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
    """(row map, column map, shape) of the four scatter plans: the a-,
    b- and pressure parts and the scalar norm Grams."""
    v, q, s = d.vmap, d.qmap, d.vmap.scalar
    n_s = v.n_u // 2
    return ((v, v, (v.n_u, v.n_u)), (q, v, (q.n_p, v.n_u)),
            (q, q, (q.n_p, q.n_p)), (s, s, (n_s, n_s)))


def assert_same_csr(got, expect):
    assert got.shape == expect.shape
    assert np.array_equal(got.indptr, expect.indptr)
    assert np.array_equal(got.indices, expect.indices)
    assert np.array_equal(got.data, expect.data)      # bit for bit


def component_blocks(m):
    """The entries of m in its (c, c) component blocks, the row and
    column DoFs of one parity."""
    m = m.tocoo()
    keep = (m.row - m.col) % 2 == 0
    return csr_matrix((m.data[keep], (m.row[keep], m.col[keep])),
                      shape=m.shape)


def fans():
    """Discretization of the unit square as two fans: the left half's
    12 triangles around (1/4, 1/2) and the right half's 18 around
    (3/4, 1/2), which share the points of x = 1/2.  The diagonal runs of
    the two centres add 12 and 18 summands, past the lengths (9 and 17)
    at which numpy's reduceat changes how it groups a run."""
    index, tris = {}, []
    for x0, x1, m, k in ((0.0, 0.5, 2, 4), (0.5, 1.0, 4, 6)):
        # the rectangle's boundary counterclockwise from (x0, 0): m
        # segments on the bottom and the top, k on the side x = x1 and 4
        # on the side x = x0
        xs = np.linspace(x0, x1, m + 1)
        ring = ([(x, 0.0) for x in xs[:-1]]
                + [(x1, y) for y in np.linspace(0.0, 1.0, k + 1)[:-1]]
                + [(x, 1.0) for x in xs[:0:-1]]
                + [(x0, y) for y in np.linspace(1.0, 0.0, 5)[:-1]])
        ids = [index.setdefault((float(x), float(y)), len(index))
               for x, y in [((x0 + x1) / 2, 0.5)] + ring]
        tris += [(ids[0], a, b) for a, b in zip(ids[1:], ids[2:] + ids[1:2])]
    return Discretization(Mesh(np.array(list(index)), np.array(tris)),
                          "example2")


PLAN_MESHES = {"uniform": lambda: setup(4), "jittered": jittered,
               "flipped": lambda: Discretization(flipped(4)), "fans": fans}


def test_fans_put_interior_vertices_in_12_and_18_triangles():
    # the run of a free vertex's diagonal pair adds one summand per
    # triangle of the vertex
    mesh = fans().mesh
    count = np.bincount(mesh.triangles.ravel())
    assert sorted(count[~mesh.vertex_is_boundary])[-2:] == [12, 18]


def test_fans_a_and_g_symmetric_bit_for_bit():
    d = fans()
    for M in (d.factors(0.1).A,
              combine_parts(*d.norm_gram_parts, 0.01)):
        diff = (M - M.T).tocoo()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_scatter_plan_holds_one_index_per_pair_and_per_run():
    # 8 B per entity pair and per run, 12 B per stored entry (its column
    # and its place among the sums) and the row pointers: the indices of
    # the plan's gathers and sums do not grow with the component blocks
    d = setup(16)
    v = d.vmap
    plan = ScatterPlan(v, v, (v.n_u, v.n_u), d.mesh.shape_of_triangle)
    pairs = ((v.cell_nodes >= 0).sum(axis=1) ** 2).sum()
    stored = d.a_parts[0].nnz
    held = sum(x.nbytes for x in vars(plan).values()
               if isinstance(x, np.ndarray))
    assert held <= (8 * (pairs + stored // 4) + 12 * stored
                    + plan.indptr.nbytes)


def test_scatter_plan_matches_lexsort_accumulation():
    # the plan gathers each triangle's entries from its class kernel
    rng = np.random.default_rng(7)
    for make in PLAN_MESHES.values():
        d = make()
        classes = d.mesh.shape_of_triangle
        for rows, cols, shape in plan_cases(d):
            kernels = rng.standard_normal((len(d.mesh.shape_rep),
                                           cell_dofs(rows).shape[1],
                                           cell_dofs(cols).shape[1]))
            assert_same_csr(
                ScatterPlan(rows, cols, shape, classes).csr(kernels),
                lexsort_csr(kernels[classes], cell_dofs(rows),
                            cell_dofs(cols), shape))


@pytest.mark.parametrize("kind", sorted(PLAN_MESHES))
def test_scalar_norm_grams_times_i2_are_the_vector_grams(kind):
    # g kron I_2 against the vector Grams the norm Grams were: each class
    # kernel on the (c, c) blocks of the interleaved DoFs, scattered by
    # the lexsort accumulation, bit for bit
    d = PLAN_MESHES[kind]()
    mesh, v = d.mesh, d.vmap
    dofs = cell_dofs(v)
    class_kernels = kernel_norm_gram_parts(mesh, d.coeff, mesh.shape_rep)
    for g, k in zip(d.norm_gram_parts, class_kernels, strict=True):
        vector = np.zeros((len(k), 20, 20))
        for c in (0, 1):
            vector[:, c::2, c::2] = k
        expect = lexsort_csr(vector[mesh.shape_of_triangle], dofs, dofs,
                             (v.n_u, v.n_u))
        assert_same_csr(kron(g, np.eye(2), format="csr"),
                        component_blocks(expect))


def test_assembled_parts_are_the_lexsort_sums_of_their_kernels():
    d = jittered()
    tris = np.arange(d.mesh.num_triangles)
    (v, _, shape_v), (q, _, shape_b), _, (s, _, shape_s) = plan_cases(d)
    for parts, kernels, rows, cols, shape in (
            (d.a_parts, kernel_a_parts, v, v, shape_v),
            (d.norm_gram_parts, kernel_norm_gram_parts, s, s, shape_s),
            (d.b_parts, kernel_b_parts, q, v, shape_b)):
        for got, k in zip(parts, batch_kernels(kernels, d, tris),
                          strict=True):
            assert_same_csr(got, lexsort_csr(k, cell_dofs(rows),
                                             cell_dofs(cols), shape))


def per_triangle_parts(d):
    """The a, b, norm-Gram and pressure parts and the coefficients of
    ``d`` from per-triangle DoF matrices and kernels, scattered by
    :func:`oracles.lexsort_csr`."""
    mesh, T = d.mesh, d.mesh.num_triangles
    coeff = np.linalg.inv(batched_scalar_dof_matrices(mesh))
    (v, _, shape_v), (q, _, shape_b), (_, _, shape_q), (s, _, shape_s) = \
        plan_cases(d)

    def scatter(kernel, rows, cols, shape):
        ks = [kernel(mesh, coeff[tris], tris) for tris in chunks(T)]
        return tuple(lexsort_csr(np.concatenate(k), cell_dofs(rows),
                                 cell_dofs(cols), shape) for k in zip(*ks))

    return {"coeff": coeff,
            "a": scatter(kernel_a_parts, v, v, shape_v),
            "b": scatter(kernel_b_parts, q, v, shape_b),
            "norm_gram": scatter(kernel_norm_gram_parts, s, s, shape_s),
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
    # A = 2 (a0 + iota^2 a2), B = b0 + iota^2 b2 and
    # G = M_p + iota^2 K_p hold their parts' index arrays; A and G equal
    # scipy's sums bit for bit, and so does B without the zeros that b0
    # stores and scipy's sum drops
    for n in (4, 16):
        d = setup(n)
        a0, a2 = d.a_parts
        b0, b2 = d.b_parts
        mp, kp = d.pressure_parts
        for iota in (1.0, 1e-1, 1e-6, 1e-8):
            f = d.factors(iota)
            i2 = iota ** 2
            for got, first in ((f.A, a0), (f.B, b0), (f.G, mp)):
                assert np.shares_memory(got.indices, first.indices)
                assert np.shares_memory(got.indptr, first.indptr)
            assert_same_csr(f.A, 2.0 * (a0 + i2 * a2))
            assert_same_csr(f.G, mp + i2 * kp)
            assert np.array_equal(f.B.data, b0.data + i2 * b2.data)
            got, expect = f.B.tocoo(), (b0 + i2 * b2).tocoo()
            kept = got.data != 0.0
            for mine, scipys in ((got.row, expect.row), (got.col, expect.col),
                                 (got.data, expect.data)):
                assert np.array_equal(mine[kept], scipys)


def _scipy_abs_sums(M, axis):
    return np.asarray(abs(M).sum(axis=axis)).ravel()


@pytest.mark.parametrize("kind", sorted(PLAN_MESHES))
def test_combined_matrices_read_as_scipys_sums(kind):
    # B, G_Q and C on their source's index arrays: the reads that the
    # solver, the errors and the inf-sup check make of them are bitwise
    # those of scipy's b0 + i2 b2, mp + i2 kp and G / lam, but for the
    # |B| row sums: reduceat groups a row's summands by position, so the
    # zeros that B keeps move them by a few ulps; the bordered matrix's
    # infinity norm, which the displacement rows set, stays
    d = Discretization(PLAN_MESHES[kind]().mesh, "example2")
    (b0, b2), (mp, kp) = d.b_parts, d.pressure_parts
    rng = np.random.default_rng(7)
    u = rng.standard_normal(d.vmap.n_u)
    p = rng.standard_normal(d.qmap.n_p)
    X = rng.standard_normal((d.vmap.n_u, 3))
    for iota in (1.0, 1e-1, 1e-6, 1e-8):
        i2 = iota ** 2
        f = d.factors(iota)
        B, G = f.B, f.G
        sB, sG = b0 + i2 * b2, mp + i2 * kp
        assert B.nnz == b0.nnz
        assert np.array_equal(B @ u, sB @ u)
        assert np.array_equal(B.T @ p, sB.T @ p)
        assert np.array_equal(B @ X, sB @ X)
        assert np.array_equal(B.toarray(), sB.toarray())
        rows_u = _scipy_abs_sums(f.A, 1) + _scipy_abs_sums(sB, 0)
        assert np.array_equal(f.abs_sums[0], rows_u)
        rows_b = _scipy_abs_sums(sB, 1)
        assert np.array_equal(f.abs_sums[1], _scipy_abs_sums(B, 1))
        assert np.allclose(f.abs_sums[1], rows_b, rtol=1e-14, atol=0.0)
        assert p @ (G @ p) == p @ (sG @ p)
        assert d.errors(u, p, iota)[3] == math.sqrt(p @ (sG @ p))
        assert np.array_equal(combine_parts(mp, kp, i2).toarray(),
                              sG.toarray())
        for lam in (1.0, 1e4, 1e8):
            system = SaddleSystem(f, lam)
            C, sC = system.C, G / lam
            assert np.shares_memory(C.indices, G.indices)
            assert np.shares_memory(C.indptr, G.indptr)
            assert_same_csr(C, sC)
            assert np.array_equal(C @ p, sC @ p)
            rows_c = _scipy_abs_sums(sC, 1)
            assert np.array_equal(_row_sums(C), rows_c)
            abs_m = np.abs(f.m)
            assert system.norm_inf == max(rows_u.max(), abs_m.sum(),
                                          (rows_b + rows_c + abs_m).max())


def test_factoring_a_leaves_its_parts_unchanged():
    d = setup(8)
    a0, _ = d.a_parts
    before = [x.tobytes() for x in (a0.data, a0.indices, a0.indptr)]
    spd_factor(d.factors(1e-2).A)
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
    A = d.factors(0.1).A
    diff = (A - A.T).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(d.vmap.n_u)
        assert x @ (A @ x) > 0


def test_a_iota_linearity():
    d = setup(2)
    A0 = d.factors(0.0).A.toarray()
    A1 = d.factors(1.0).A.toarray()
    Ai = d.factors(0.37).A.toarray()
    recon = (1 - 0.37 ** 2) * A0 + 0.37 ** 2 * A1
    assert np.max(np.abs(Ai - recon)) < 1e-14 * np.max(np.abs(A1))


def test_b_iota_split_is_exact():
    d = setup(2)
    b0 = d.factors(0.0).B.toarray()
    bi = d.factors(0.2).B.toarray()
    p0, p2 = d.b_parts
    assert np.max(np.abs(b0 - p0.toarray())) == 0.0
    recon = p0.toarray() + 0.04 * p2.toarray()
    assert np.max(np.abs(bi - recon)) < 1e-15 * np.max(np.abs(bi))


def test_b_full_row_rank():
    B = setup(4).factors(0.01).B.toarray()
    sv = np.linalg.svd(B, compute_uv=False)
    assert sv[-1] > 1e-10


def test_c_scaling_and_spd():
    d = setup(3)
    f = d.factors(0.1)
    C1 = SaddleSystem(f, 2.0).C
    C2 = SaddleSystem(f, 4.0).C
    assert np.max(np.abs((C1 - 2.0 * C2).toarray())) < 1e-18
    rng = np.random.default_rng(11)
    x = rng.standard_normal(d.qmap.n_p)
    assert x @ (C1 @ x) > 0
    diff = (C1 - C1.T).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_c_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        SaddleSystem(setup(2).factors(0.1), 0.0)


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
    dofs = cell_dofs(vmap)
    for t in range(mesh.num_triangles):
        expect[dofs[t, 18]] = mesh.area[t]
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
    all_dofs = cell_dofs(vmap)
    for t in range(mesh.num_triangles):
        xy = pts @ mesh.tri_coords[t]
        vals = eval_basis(mesh, t, xy, 0)        # (q, 20, 2)
        fv = f(xy)
        loc = mesh.area[t] * np.einsum("q,qic,qc->i", wts, vals, fv)
        dofs = all_dofs[t]
        mask = dofs >= 0
        expect[dofs[mask]] += loc[mask]
    assert np.max(np.abs(F - expect)) < 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("example", ["example1", "example2"])
def test_load_is_the_per_dof_accumulation(example):
    # F scattered by scalar entity against np.add.at over the
    # interleaved DoFs, bit for bit, on a uniform and a jittered mesh
    for mesh in (setup(8).mesh, jittered(5).mesh):
        d = Discretization(mesh, example)
        F, G = d.load
        ref_F, ref_G = per_dof_load(d.mesh, d.coeff, d.vmap,
                                    partial(load_parts, example))
        assert np.array_equal(F, ref_F) and np.array_equal(G, ref_G)


def norm_grams(d, iota):
    """G_V = (g1 + iota^2 g2) kron I_2 and G_Q at iota from the parts."""
    (g1, g2), (mp, kp) = d.norm_gram_parts, d.pressure_parts
    return (kron(g1 + iota ** 2 * g2, np.eye(2), format="csr"),
            mp + iota ** 2 * kp)


def test_norm_grams_shapes_and_gq_matches_lambda_c():
    d = setup(3)
    iota = 0.05
    GV, GQ = norm_grams(d, iota)
    lam = 7.0
    C = SaddleSystem(d.factors(iota), lam).C
    assert np.max(np.abs((GQ - lam * C).toarray())) \
        < 1e-14 * np.max(np.abs(GQ.toarray()))
    rng = np.random.default_rng(5)
    x = rng.standard_normal(d.vmap.n_u)
    g1 = norm_grams(d, 0.0)[0]
    assert x @ (GV @ x) >= x @ (g1 @ x) - 1e-12


def test_coercivity_constant_against_korn_bound():
    # min eigenvalue of A x = theta (2 G_V) x stays above 1 - 1/sqrt(2)
    d = setup(4)
    for iota in (1.0, 1e-2):
        A = d.factors(iota).A.toarray()
        GV = norm_grams(d, iota)[0].toarray()
        theta = eigh(A, 2.0 * GV, eigvals_only=True)[0]
        assert theta >= 1.0 - 1.0 / np.sqrt(2.0) - 1e-9


def test_block_system_symmetric_bit_for_bit():
    system = SaddleSystem(setup(3).factors(0.1), 100.0)
    A, C = system.factors.A, system.C
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

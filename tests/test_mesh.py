import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgefem.mesh import Mesh, build_uniform_unit_square
from oracles import loop_triangles_of_edge
from test_space import flipped, jittered


def edge_sign(m):
    """(T, 3): +1 where the counterclockwise traversal of local edge s
    (opposite local vertex s) runs from the lower to the higher vertex
    index, else -1."""
    tri = m.triangles
    pairs = np.stack([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]],
                     axis=1)
    return np.where(pairs[..., 0] < pairs[..., 1], 1, -1)


def test_smallest_mesh_counts():
    m = build_uniform_unit_square(1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.num_edges == 5


def test_n2_counts_and_euler():
    m = build_uniform_unit_square(2)
    assert (m.num_vertices, m.num_triangles, m.num_edges) == (9, 8, 16)
    assert m.num_vertices - m.num_edges + m.num_triangles == 1


def test_n16_counts():
    m = build_uniform_unit_square(16)
    assert m.num_vertices == 289
    assert m.num_triangles == 512
    assert m.num_edges == 800


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_counting_formulas(n):
    m = build_uniform_unit_square(n)
    assert m.num_vertices == (n + 1) ** 2
    assert m.num_triangles == 2 * n * n
    assert m.num_edges == 3 * n * n + 2 * n
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    assert int(m.edge_is_boundary.sum()) == 4 * n
    assert int((~m.vertex_is_boundary).sum()) == (n - 1) ** 2
    assert abs(m.h - np.sqrt(2.0) / n) < 1e-14


def test_rejects_n_zero():
    with pytest.raises(ValueError):
        build_uniform_unit_square(0)


def test_areas_sum_to_one():
    for n in (1, 3, 8):
        m = build_uniform_unit_square(n)
        assert abs(m.area.sum() - 1.0) < 1e-13
        assert np.all(m.area > 0)


def test_frame_reference_like_triangle():
    m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 1, 2]]))
    assert abs(m.area[0] - 0.5) < 1e-15
    # barycentric gradients: lambda_0 = 1-x-y etc.
    assert np.allclose(m.bary_grads[0, 0], [-1.0, -1.0])
    assert np.allclose(m.bary_grads[0, 1], [1.0, 0.0])
    assert np.allclose(m.bary_grads[0, 2], [0.0, 1.0])


def test_bary_grads_sum_to_zero():
    m = build_uniform_unit_square(3)
    assert np.max(np.abs(m.bary_grads.sum(axis=1))) < 1e-13


def test_bary_partition_of_unity_at_vertices():
    m = build_uniform_unit_square(2)
    verts, grads = m.tri_coords[3], m.bary_grads[3]
    # lambda_s(vertex t) = delta_st: check by affine reconstruction
    for s in range(3):
        for t in range(3):
            # affine form: lambda_s(x) = lambda_s(centroid) + grad . (x-c)
            c = verts.mean(axis=0)
            val = (1.0 / 3.0) + grads[s] @ (verts[t] - c)
            assert abs(val - (1.0 if s == t else 0.0)) < 1e-13


def test_edge_lengths_on_n2():
    m = build_uniform_unit_square(2)
    lens = np.unique(np.round(m.edge_length, 12))
    assert np.allclose(lens, [0.5, np.sqrt(2.0) / 2.0])


def test_global_normal_single_valued():
    m = build_uniform_unit_square(4)
    for e in range(m.num_edges):
        t0, t1 = m.triangles_of_edge[e]
        if t1 < 0:
            continue
        # both triangles look the normal up from the same edge table,
        # so check the orientation bookkeeping instead: the two signs
        # must be opposite
        s0 = edge_sign(m)[t0][list(m.edge_of_triangle[t0]).index(e)]
        s1 = edge_sign(m)[t1][list(m.edge_of_triangle[t1]).index(e)]
        assert s0 * s1 == -1


def test_outward_normal_orientation():
    # sign * global normal must point out of the triangle
    m = build_uniform_unit_square(3)
    sign = edge_sign(m)
    midpoint = 0.5 * (m.vertices[m.edges[:, 0]] + m.vertices[m.edges[:, 1]])
    for k in (0, 5, 11):
        centroid = m.tri_coords[k].mean(axis=0)
        for s in range(3):
            e = m.edge_of_triangle[k, s]
            out = sign[k, s] * m.edge_normal[e]
            assert out @ (midpoint[e] - centroid) > 0


def test_triangles_of_edge_match_the_loop_oracle():
    # uniform meshes, and a triangle set in which one edge has three
    # incident triangles, of which the first two are kept
    meshes = [build_uniform_unit_square(n) for n in (1, 2, 5, 16)]
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [-1.0, -1.0]])
    meshes.append(Mesh(verts, np.array([[0, 1, 2], [1, 3, 2], [2, 1, 4]])))
    for m in meshes:
        want = loop_triangles_of_edge(m)
        assert m.triangles_of_edge.dtype == want.dtype
        assert np.array_equal(m.triangles_of_edge, want)
    assert (meshes[-1].triangles_of_edge == [[0, 1]]).all(axis=1).any()


def shape_inputs(m):
    """Per triangle, the bytes of every input of the element and kernel
    code: barycentric gradients, area, edge normals and diameter."""
    T = m.num_triangles
    rows = np.concatenate([m.bary_grads.reshape(T, 6), m.area[:, None],
                           m.edge_normal[m.edge_of_triangle].reshape(T, 6),
                           m.h_of_triangle[:, None]], axis=1)
    return [row.tobytes() for row in rows]


@pytest.mark.parametrize("n, classes", [(2, 2), (4, 2), (16, 2), (5, 18)])
def test_shape_classes_of_uniform_meshes(n, classes):
    m = build_uniform_unit_square(n)
    assert len(m.shape_rep) == classes
    assert m.shape_of_triangle.shape == (m.num_triangles,)


def test_every_jittered_triangle_is_its_own_class():
    m = jittered(5)
    assert np.array_equal(m.shape_rep, np.arange(m.num_triangles))
    assert np.array_equal(m.shape_of_triangle, np.arange(m.num_triangles))


def relabeled(n, seed=5):
    """The uniform mesh with its vertices numbered at random, so that
    congruent triangles can see opposite global edge normals."""
    m = build_uniform_unit_square(n)
    perm = np.random.default_rng(seed).permutation(m.num_vertices)
    verts = np.empty_like(m.vertices)
    verts[perm] = m.vertices
    return Mesh(verts, perm[m.triangles])


@pytest.mark.parametrize("make", [lambda: flipped(6),
                                  lambda: build_uniform_unit_square(7),
                                  lambda: relabeled(4)],
                         ids=["flipped", "uniform", "relabeled"])
def test_shape_classes_are_the_classes_of_equal_inputs(make):
    m = make()
    inputs = shape_inputs(m)
    cls, rep = m.shape_of_triangle, m.shape_rep
    # members share their representative's inputs bit for bit, and
    # different classes have different inputs
    assert all(inputs[t] == inputs[rep[c]] for t, c in enumerate(cls))
    assert len(set(inputs)) == len(rep)
    # each representative is its class's first triangle, and classes are
    # numbered in the order of those
    first = [int(np.flatnonzero(cls == c)[0]) for c in range(len(rep))]
    assert np.array_equal(rep, first)
    assert np.all(np.diff(rep) > 0)


def test_edge_normals_split_congruent_triangles():
    # the relabeled mesh has the two shapes of the uniform one, but the
    # global normals of their edges point either way
    m = relabeled(4)
    geometry = {np.concatenate([m.bary_grads[t].ravel(), [m.area[t]]])
                .tobytes() for t in range(m.num_triangles)}
    assert len(geometry) == 2
    assert len(m.shape_rep) > 2


def test_shape_classes_are_deterministic():
    a, b = flipped(8), flipped(8)
    assert np.array_equal(a.shape_of_triangle, b.shape_of_triangle)
    assert np.array_equal(a.shape_rep, b.shape_rep)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgefem.mesh import Mesh, build_uniform_unit_square
from oracles import loop_triangles_of_edge


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

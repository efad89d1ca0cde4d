import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgefem.mesh import Mesh, build_uniform_unit_square


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
        s0 = m.edge_sign[t0][list(m.edge_of_triangle[t0]).index(e)]
        s1 = m.edge_sign[t1][list(m.edge_of_triangle[t1]).index(e)]
        assert s0 * s1 == -1


def test_outward_normal_orientation():
    # sign * global normal must point out of the triangle
    m = build_uniform_unit_square(3)
    for k in (0, 5, 11):
        centroid = m.tri_coords[k].mean(axis=0)
        for s in range(3):
            e = m.edge_of_triangle[k, s]
            out = m.edge_sign[k, s] * m.edge_normal[e]
            assert out @ (m.edge_midpoint[e] - centroid) > 0

import numpy as np
import pytest

from sgefem.mesh import build_uniform_unit_square
from sgefem.space import build_qdofmap, build_vdofmap


def test_vdof_count_n2():
    m = build_uniform_unit_square(2)
    vmap = build_vdofmap(m)
    # 2 * 1 interior vertex + 4 * 8 interior edges + 2 * 8 triangles
    assert vmap.n_u == 50


def test_vdof_count_n1():
    m = build_uniform_unit_square(1)
    vmap = build_vdofmap(m)
    # no interior vertex, single interior edge (the diagonal)
    assert vmap.n_u == 8


def test_vdof_count_formula():
    for n in (2, 3, 5, 16):
        m = build_uniform_unit_square(n)
        vmap = build_vdofmap(m)
        interior_edges = int((~m.edge_is_boundary).sum())
        expect = 2 * (n - 1) ** 2 + 4 * interior_edges + 2 * m.num_triangles
        assert vmap.n_u == expect


def test_every_free_dof_referenced():
    m = build_uniform_unit_square(3)
    vmap = build_vdofmap(m)
    cd = vmap.cell_dofs
    seen = np.bincount(cd[cd >= 0], minlength=vmap.n_u)
    assert np.all(seen >= 1)
    # shared edge DoFs are referenced by exactly two triangles
    counts = np.bincount(cd[:, 6:18][cd[:, 6:18] >= 0],
                         minlength=vmap.n_u)
    interior_edge_dofs = counts[counts > 0]
    assert np.all(interior_edge_dofs == 2)


def test_cell_dofs_shared_between_neighbors():
    m = build_uniform_unit_square(4)
    vmap = build_vdofmap(m)
    for e in np.nonzero(~m.edge_is_boundary)[0][:10]:
        t0, t1 = m.triangles_of_edge[e]
        s0 = list(m.edge_of_triangle[t0]).index(e)
        s1 = list(m.edge_of_triangle[t1]).index(e)
        for base in (6, 12):   # midpoint block, normal-derivative block
            for c in (0, 1):
                d0 = vmap.cell_dofs[t0, base + 2 * s0 + c]
                d1 = vmap.cell_dofs[t1, base + 2 * s1 + c]
                assert d0 == d1 >= 0


def test_boundary_dofs_eliminated():
    m = build_uniform_unit_square(3)
    vmap = build_vdofmap(m)
    for t in range(m.num_triangles):
        tri = m.triangles[t]
        for lv in range(3):
            expect_gone = m.vertex_is_boundary[tri[lv]]
            for c in (0, 1):
                assert (vmap.cell_dofs[t, 2 * lv + c] < 0) == expect_gone
        for le in range(3):
            e = m.edge_of_triangle[t, le]
            for base in (6, 12):
                for c in (0, 1):
                    got = vmap.cell_dofs[t, base + 2 * le + c] < 0
                    assert got == m.edge_is_boundary[e]
        # element means are never eliminated
        assert np.all(vmap.cell_dofs[t, 18:] >= 0)


def test_gather_scatter_round_trip():
    m = build_uniform_unit_square(3)
    vmap = build_vdofmap(m)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(vmap.n_u)
    # gather to cells and scatter back (same index both ways): identity
    back = np.zeros_like(x)
    cd = vmap.cell_dofs
    mask = cd >= 0
    back[cd[mask]] = x[cd[mask]]
    assert np.array_equal(back, x)


def test_qdof_counts():
    assert build_qdofmap(build_uniform_unit_square(16)).n_p == 225
    assert build_qdofmap(build_uniform_unit_square(2)).n_p == 1


def test_qdof_rejects_no_interior_vertex():
    with pytest.raises(ValueError):
        build_qdofmap(build_uniform_unit_square(1))


def test_qdof_cell_map_consistent():
    m = build_uniform_unit_square(4)
    qmap = build_qdofmap(m)
    for t in range(m.num_triangles):
        for lv in range(3):
            v = m.triangles[t, lv]
            assert qmap.cell_dofs[t, lv] == qmap.vertex_index[v]
            if m.vertex_is_boundary[v]:
                assert qmap.cell_dofs[t, lv] == -1

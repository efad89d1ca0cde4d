import numpy as np
import pytest

from oracles import cell_dofs, recursive_dissection
from sgefem.discretization import Discretization
from sgefem.linalg import spd_factor
from sgefem.mesh import Mesh, build_uniform_unit_square
from sgefem.space import (build_qdofmap, build_vdofmap, cell_entities,
                          dissection_numbers)


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
    cd = cell_dofs(vmap)
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
                d0 = cell_dofs(vmap)[t0, base + 2 * s0 + c]
                d1 = cell_dofs(vmap)[t1, base + 2 * s1 + c]
                assert d0 == d1 >= 0


def test_boundary_dofs_eliminated():
    m = build_uniform_unit_square(3)
    vmap = build_vdofmap(m)
    for t in range(m.num_triangles):
        tri = m.triangles[t]
        for lv in range(3):
            expect_gone = m.vertex_is_boundary[tri[lv]]
            for c in (0, 1):
                assert (cell_dofs(vmap)[t, 2 * lv + c] < 0) == expect_gone
        for le in range(3):
            e = m.edge_of_triangle[t, le]
            for base in (6, 12):
                for c in (0, 1):
                    got = cell_dofs(vmap)[t, base + 2 * le + c] < 0
                    assert got == m.edge_is_boundary[e]
        # element means are never eliminated
        assert np.all(cell_dofs(vmap)[t, 18:] >= 0)


def test_gather_scatter_round_trip():
    m = build_uniform_unit_square(3)
    vmap = build_vdofmap(m)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(vmap.n_u)
    # gather to cells and scatter back (same index both ways): identity
    back = np.zeros_like(x)
    cd = cell_dofs(vmap)
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
            assert qmap.cell_nodes[t, lv] == qmap.vertex_index[v]
            if m.vertex_is_boundary[v]:
                assert qmap.cell_nodes[t, lv] == -1


def jittered(n, seed=3):
    mesh = build_uniform_unit_square(n)
    rng = np.random.default_rng(seed)
    verts = mesh.vertices.copy()
    inner = ~mesh.vertex_is_boundary
    verts[inner] += rng.uniform(-0.25, 0.25, (inner.sum(), 2)) / n
    return Mesh(verts, mesh.triangles)


def flipped(n):
    # every third cell's diagonal flipped to run from its lower-right to
    # its upper-left corner
    mesh = build_uniform_unit_square(n)
    tris = mesh.triangles.copy()
    for c in range(0, n * n, 3):
        ll, lr, ur = tris[2 * c]
        ul = tris[2 * c + 1, 2]
        tris[2 * c], tris[2 * c + 1] = (ll, lr, ul), (lr, ur, ul)
    return Mesh(mesh.vertices, tris)


MESHES = {"uniform": build_uniform_unit_square, "jittered": jittered,
          "flipped": flipped}


def dissection_input(mesh):
    """The nodes the displacement map numbers: the free scalar entities
    at vertices, edge midpoints (twice) and centroids, coupled by the
    cells; and the number the map gave each."""
    vmap = build_vdofmap(mesh)
    ent = cell_entities(mesh)
    free = np.concatenate([~mesh.vertex_is_boundary, ~mesh.edge_is_boundary,
                           ~mesh.edge_is_boundary,
                           np.ones(mesh.num_triangles, dtype=bool)])
    mid = mesh.vertices[mesh.edges].mean(axis=1)
    points = np.concatenate([mesh.vertices, mid, mid,
                             mesh.tri_coords.mean(axis=1)])
    index = np.full(len(free), -1)
    index[free] = np.arange(free.sum())
    given = np.full(len(free), -1)
    given[ent.ravel()] = cell_dofs(vmap)[:, 0::2].ravel() // 2
    return points[free], index[ent], given[free]


@pytest.mark.parametrize("kind", sorted(MESHES))
@pytest.mark.parametrize("n", range(2, 9))
def test_dof_maps_are_bijections(kind, n):
    mesh = MESHES[kind](n)
    vmap, qmap = build_vdofmap(mesh), build_qdofmap(mesh)
    # every free entity has its own pair of DoFs, and they fill 0..n_u-1
    ent = cell_entities(mesh)
    cd = cell_dofs(vmap)
    free = cd[:, 0::2] >= 0
    pairs = np.unique(np.stack([ent[free], cd[:, 0::2][free]]), axis=1)
    assert len(np.unique(pairs[0])) == len(np.unique(pairs[1])) \
        == pairs.shape[1] == vmap.n_u // 2
    assert np.array_equal(np.sort(pairs[1]), 2 * np.arange(vmap.n_u // 2))
    assert np.array_equal(cd[:, 1::2][free], cd[:, 0::2][free] + 1)
    assert np.array_equal(vmap.vertex_nodes[mesh.triangles],
                          vmap.cell_nodes[:, :3])
    # interior vertices are numbered 0..n_p-1, each once
    inner = qmap.vertex_index[~mesh.vertex_is_boundary]
    assert np.array_equal(np.sort(inner), np.arange(qmap.n_p))
    assert np.all(qmap.vertex_index[mesh.vertex_is_boundary] == -1)


@pytest.mark.parametrize("kind", sorted(MESHES))
def test_dof_maps_are_deterministic(kind):
    mesh = MESHES[kind](7)
    assert np.array_equal(cell_dofs(build_vdofmap(mesh)),
                          cell_dofs(build_vdofmap(mesh)))
    assert np.array_equal(build_qdofmap(mesh).vertex_index,
                          build_qdofmap(mesh).vertex_index)


@pytest.mark.parametrize("kind", sorted(MESHES))
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_numbering_is_the_recursive_dissection(kind, n):
    # the maps number as the part-by-part recursion does, and no cell
    # holds free nodes of two sibling parts of any cut
    mesh = MESHES[kind](n)
    points, cells, given = dissection_input(mesh)
    number, siblings = recursive_dissection(points, cells)
    assert np.array_equal(given, number)
    assert np.array_equal(dissection_numbers(points, cells), number)
    assert len(siblings) > 0
    for low, high in siblings:
        side = np.zeros(len(points) + 1, dtype=np.int8)
        side[low], side[high] = 1, 2
        held = side[cells]          # -1 reads the last slot, always 0
        assert not np.any((held == 1).any(axis=1) & (held == 2).any(axis=1))

    inner = ~mesh.vertex_is_boundary
    index = np.full(mesh.num_vertices, -1)
    index[inner] = np.arange(inner.sum())
    number, _ = recursive_dissection(mesh.vertices[inner],
                                     index[mesh.triangles])
    assert np.array_equal(build_qdofmap(mesh).vertex_index[inner], number)


def test_dissection_guards_the_fill_of_a():
    # L+U of A at n = 32 (the minimum-degree ordering it replaced: 2.59M)
    f = Discretization(build_uniform_unit_square(32),
                       "example2").factors(1e-6)
    lu = spd_factor(f.A)
    assert lu.L.nnz + lu.U.nnz <= 2_200_000

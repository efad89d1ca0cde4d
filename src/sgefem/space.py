"""Global numbering of displacement and pressure unknowns.

Displacement DoFs live on entities: one value per vertex, one midpoint
value and one mean normal derivative per edge, one mean per triangle,
each in two components.  Entities on the boundary are eliminated
(homogeneous boundary conditions); triangle means never are.  Pressure
unknowns are the values at interior vertices; the zero-mean condition is
not eliminated here but handled by a multiplier row in the solver.
"""

import numpy as np


def cell_entities(mesh):
    """(T, 10) global entity of each local scalar DoF, numbered vertices
    first, then edges (midpoint values), edges again (normal means) and
    triangles (means): V + 2 E + T entities."""
    V, E, T = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    etri = mesh.edge_of_triangle
    return np.concatenate([mesh.triangles, V + etri, V + E + etri,
                           (V + 2 * E + np.arange(T))[:, None]], axis=1)


class VDofMap:
    """Displacement DoF map.

    Attributes
    ----------
    n_u : number of free (global) displacement DoFs
    cell_dofs : (T, 20) int, global index per local DoF, -1 if eliminated
    vertex_dofs : (V, 2) int, global index of each vertex-value DoF
    """

    def __init__(self, mesh):
        V, T = mesh.num_vertices, mesh.num_triangles
        free = np.concatenate([~mesh.vertex_is_boundary,
                               ~mesh.edge_is_boundary,      # midpoint values
                               ~mesh.edge_is_boundary,      # normal means
                               np.ones(T, dtype=bool)])     # cell means
        scalar_index = np.full(free.shape, -1, dtype=np.int64)
        scalar_index[free] = np.arange(free.sum())
        self.n_u = int(2 * free.sum())

        scal = scalar_index[cell_entities(mesh)]            # (T, 10)
        cd = np.empty((T, 20), dtype=np.int64)
        cd[:, 0::2] = np.where(scal >= 0, 2 * scal, -1)
        cd[:, 1::2] = np.where(scal >= 0, 2 * scal + 1, -1)
        self.cell_dofs = cd

        vs = scalar_index[:V]
        self.vertex_dofs = np.stack(
            [np.where(vs >= 0, 2 * vs, -1), np.where(vs >= 0, 2 * vs + 1, -1)],
            axis=1)


class QDofMap:
    """Pressure DoF map (P1 at interior vertices).

    Attributes: ``n_p``, ``vertex_index`` (V,) with -1 at boundary
    vertices, and ``cell_dofs`` (T, 3) per local vertex.
    """

    def __init__(self, mesh):
        interior = ~mesh.vertex_is_boundary
        if not interior.any():
            raise ValueError("pressure space is empty: the mesh has no "
                             "interior vertex")
        idx = np.full(mesh.num_vertices, -1, dtype=np.int64)
        idx[interior] = np.arange(interior.sum())
        self.n_p = int(interior.sum())
        self.vertex_index = idx
        self.cell_dofs = idx[mesh.triangles]


def build_vdofmap(mesh):
    """Displacement DoF map with boundary elimination."""
    return VDofMap(mesh)


def build_qdofmap(mesh):
    """Pressure DoF map; rejects meshes without interior vertices."""
    return QDofMap(mesh)

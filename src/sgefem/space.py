"""Global numbering of displacement and pressure unknowns.

Scalar DoFs live on entities: one value per vertex, one midpoint value
and one mean normal derivative per edge, one mean per triangle.  The
displacement space is the scalar space times R^2: free entity s holds
the DoFs 2 s and 2 s + 1.  Entities on the boundary are eliminated
(homogeneous boundary conditions); triangle means never are.  Pressure
unknowns are the values at interior vertices; the zero-mean condition is
not eliminated here but handled by a multiplier row in the solver.

The global numbering is the fill-reducing ordering of the sparse
factors (George, SIAM J. Numer. Anal. 10, 1973; Lipton, Rose and
Tarjan, SIAM J. Numer. Anal. 16, 1979): :func:`dissection_numbers`
numbers the free entities of either space by geometric nested
dissection, so :func:`sgefem.linalg.spd_factor` factors in the natural
order.  The nodes are the free entities at their vertex, edge midpoint
or centroid, coupled when a cell holds both.  Each part of them is cut
at the median of its longer coordinate extent; the nodes of one side
that share a cell with the other side form the separator, and the
separator is numbered after both halves.  Parts of at most
``LEAF_NODES`` nodes are numbered in coordinate order.
"""

from types import SimpleNamespace

import numpy as np

#: parts of at most this many nodes are not cut
LEAF_NODES = 8


def cell_entities(mesh):
    """(T, 10) global entity of each local scalar DoF, numbered vertices
    first, then edges (midpoint values), edges again (normal means) and
    triangles (means): V + 2 E + T entities."""
    V, E, T = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    etri = mesh.edge_of_triangle
    return np.concatenate([mesh.triangles, V + etri, V + E + etri,
                           (V + 2 * E + np.arange(T))[:, None]], axis=1)


def dissection_numbers(points, cells):
    """Nested dissection number of each node: points (N, 2) holds the
    node coordinates, cells (T, k) the nodes of each cell (-1 for none);
    two nodes are coupled when a cell holds both.

    Every part is sorted by the coordinate of its longer extent (x on a
    tie; equal coordinates keep the part's order) and, if it has more
    than ``LEAF_NODES`` nodes, cut at the median m of that coordinate:
    the low side is the nodes below m, or at or below m when none lies
    below.  Of the two sides, the nodes coupled to the other side form a
    boundary layer; the smaller layer (the high one on a tie) is the
    separator.  The part's numbers are the low side's remaining nodes,
    then the high side's, then the separator in the sorted order, and
    each side is a part of the next level.  A part that is not cut is
    numbered in the sorted order.  The first part is all nodes in index
    order, and all parts of a level are cut at once.

    Two remaining nodes that share a cell are always in one part (a
    separator leaves no cell across its cut), so a cell couples two
    sides when it holds remaining nodes of both.
    """
    n = len(points)
    # dense ranks stand in for the coordinates: equal values, equal ranks
    ranks = np.concatenate([np.unique(points[:, k], return_inverse=True)[1]
                            for k in (0, 1)])
    cells = np.where(cells >= 0, cells, n).T    # (k, T); node n: no node
    side = np.zeros(n + 1, dtype=np.int8)   # 1 low, 2 high, 0 numbered
    number = np.empty(n, dtype=np.int64)
    # the nodes not numbered yet, grouped by part and the parts in order
    nodes = np.arange(n)
    size = np.array([n])                    # nodes of each part
    start = np.zeros(1, dtype=np.int64)     # first number of each part
    while nodes.size:
        num_parts = len(size)
        part = np.repeat(np.arange(num_parts), size)
        first = np.cumsum(size) - size
        xy = points.take(nodes, axis=0)
        extent = np.maximum.reduceat(xy, first) \
            - np.minimum.reduceat(xy, first)
        r = ranks.take(nodes + n * (extent[:, 1] > extent[:, 0]).take(part))
        order = np.argsort(part * n + r, kind="stable")
        nodes, r = nodes.take(order), r.take(order)
        median = r.take(first + size // 2)
        high = r >= (median + (r.take(first) == median)).take(part)
        # the high side is a tail of the sorted part: empty if its last
        # node is low
        cut = (size > LEAF_NODES) & high.take(first + size - 1)

        side[nodes] = 1 + high
        both = np.bitwise_or.reduce(side.take(cells), axis=0) == 3
        layer = np.zeros(n + 1, dtype=bool)
        layer[cells[:, both]] = True
        layer = layer.take(nodes)
        child = 2 * part + high                 # (part, side) of a node
        low_high = np.bincount(child[layer], minlength=2 * num_parts)
        sep_high = low_high[1::2] <= low_high[0::2]
        # a part that is not cut is all separator
        sep = ~cut.take(part) | (layer & (high == sep_high.take(part)))
        in_sep, done = part[sep], nodes[sep]
        number[done] = (start + size - np.cumsum(np.bincount(
            in_sep, minlength=num_parts))).take(in_sep) \
            + np.arange(len(in_sep))
        side[done] = 0

        # the sides' remaining nodes, low before high, are the next parts
        rest = ~sep
        nodes = nodes[rest]
        size = np.bincount(child[rest], minlength=2 * num_parts)
        start = np.stack([start, start + size[0::2]], axis=1).ravel()
        used = size > 0
        start, size = start[used], size[used]
    return number


def _numbered(free, points, cells):
    """Index (-1 where not free) of every node, numbered by
    :func:`dissection_numbers` over the free nodes."""
    index = np.full(free.shape, -1, dtype=np.int64)
    index[free] = np.arange(free.sum())
    index[free] = dissection_numbers(points[free], index[cells])
    return index


class VDofMap:
    """Displacement DoF map, the scalar space times R^2: of the ``n_u``
    DoFs, free scalar entity s (numbered by nested dissection) holds
    2 s + c for its ``components`` c = 0, 1, so a vector of them is
    ``u.reshape(-1, 2)`` by entity.  ``cell_nodes`` (T, 10) holds the
    free entity of each local scalar DoF, -1 if eliminated (local DoF
    2 i + c is global DoF 2 cell_nodes[:, i] + c), ``vertex_nodes``
    (V,) that of each vertex, and ``scalar`` is the scalar space's map:
    ``cell_nodes`` with one component."""

    components = 2

    def __init__(self, mesh):
        T = mesh.num_triangles
        free = np.concatenate([~mesh.vertex_is_boundary,
                               ~mesh.edge_is_boundary,      # midpoint values
                               ~mesh.edge_is_boundary,      # normal means
                               np.ones(T, dtype=bool)])     # cell means
        midpoints = mesh.vertices[mesh.edges].mean(axis=1)
        points = np.concatenate([mesh.vertices, midpoints, midpoints,
                                 mesh.tri_coords.mean(axis=1)])
        entities = cell_entities(mesh)
        scalar_index = _numbered(free, points, entities)
        self.n_u = int(2 * free.sum())
        self.cell_nodes = scalar_index[entities]
        self.vertex_nodes = scalar_index[:mesh.num_vertices]
        self.scalar = SimpleNamespace(cell_nodes=self.cell_nodes,
                                      components=1)


class QDofMap:
    """Pressure DoF map (P1 at interior vertices, numbered by nested
    dissection).

    Attributes: ``n_p``, ``vertex_index`` (V,) with -1 at boundary
    vertices, and ``cell_nodes`` (T, 3) per local vertex; each vertex
    holds one DoF, so ``components`` is 1.
    """

    components = 1

    def __init__(self, mesh):
        interior = ~mesh.vertex_is_boundary
        if not interior.any():
            raise ValueError("pressure space is empty: the mesh has no "
                             "interior vertex")
        idx = _numbered(interior, mesh.vertices, mesh.triangles)
        self.n_p = int(interior.sum())
        self.vertex_index = idx
        self.cell_nodes = idx[mesh.triangles]


def build_vdofmap(mesh):
    """Displacement DoF map with boundary elimination."""
    return VDofMap(mesh)


def build_qdofmap(mesh):
    """Pressure DoF map; rejects meshes without interior vertices."""
    return QDofMap(mesh)

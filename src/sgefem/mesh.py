"""Conforming triangulations of the unit square.

Vertices, edges and triangles are numbered globally; edges are stored
with the lower vertex index first, which fixes a global tangent
(low to high) and a global normal (tangent rotated by -90 degrees).
Every consumer of edge normals sees the same vector regardless of which
incident triangle it came from.
"""

import numpy as np


class Mesh:
    """Triangulation with adjacency and affine geometry tables.

    The element is an affine family, so triangles of equal geometry have
    equal element matrices.  Two triangles share a *shape class* when
    every per-triangle input of the element and kernel code is bitwise
    equal: ``bary_grads``, ``area``, the ``edge_normal`` of their three
    edges and ``h_of_triangle``.  ``shape_of_triangle`` (T,) holds the
    class of each triangle, numbered in the order of first appearance,
    and ``shape_rep`` (K,) the first triangle of each class; per-element
    work runs once per class.  A uniform mesh has 2 classes, a mesh with
    no repeated shape T.

    Parameters
    ----------
    vertices : (V, 2) array
        Vertex coordinates.
    triangles : (T, 3) int array
        Vertex indices per triangle, counterclockwise.  The edges (vertex
        index pairs, lower first) are derived from the triangles.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        tri = self.triangles

        # edges of each triangle; local edge s is opposite local vertex s
        pairs = np.stack([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]],
                         axis=1)                     # (T, 3, 2)
        # one int64 key per (lower, higher) pair sorts as the pair does
        V = len(self.vertices)
        keys, inverse = np.unique(pairs.min(axis=2) * V + pairs.max(axis=2),
                                  return_inverse=True)
        self.edges = np.stack(divmod(keys, V), axis=1)
        self.edge_of_triangle = inverse.reshape(-1, 3)

        # incident triangles per edge in triangle order, at most two
        # (-1 marks an absent second one)
        E = len(self.edges)
        flat = self.edge_of_triangle.ravel()
        order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=E)
        starts = np.cumsum(counts) - counts
        rank = np.arange(len(flat)) - starts[flat[order]]
        keep = rank < 2
        self.triangles_of_edge = np.full((E, 2), -1, dtype=np.int64)
        self.triangles_of_edge[flat[order][keep], rank[keep]] = \
            order[keep] // 3

        self.edge_is_boundary = counts == 1
        self.vertex_is_boundary = np.zeros(len(self.vertices), dtype=bool)
        bnd = self.edges[self.edge_is_boundary]
        self.vertex_is_boundary[bnd.ravel()] = True

        self._build_geometry()

    def _build_geometry(self):
        xy = self.vertices[self.triangles]          # (T, 3, 2)
        self.tri_coords = xy
        d1 = xy[:, 1] - xy[:, 0]
        d2 = xy[:, 2] - xy[:, 0]
        self.area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

        # grad(lambda_s) = rot_ccw(p_{s+2} - p_{s+1}) / (2 area), with
        # rot_ccw (x, y) = (-y, x)
        e = xy[:, [2, 0, 1]] - xy[:, [1, 2, 0]]
        self.bary_grads = np.stack([-e[..., 1], e[..., 0]], axis=-1) \
            / (2.0 * self.area)[:, None, None]

        ev = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        self.edge_length = np.hypot(ev[:, 0], ev[:, 1])
        tangent = ev / self.edge_length[:, None]
        # global normal: tangent rotated by -90 degrees
        self.edge_normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)

        tri_edge_len = self.edge_length[self.edge_of_triangle]
        self.h_of_triangle = tri_edge_len.max(axis=1)
        self.h = float(self.h_of_triangle.max()) if len(self.triangles) else 0.0
        self._build_shapes()

    def _build_shapes(self):
        # every per-triangle input of the element and kernel code, one
        # row per triangle, compared as raw bytes by one np.unique
        T = len(self.triangles)
        rows = np.concatenate([
            self.bary_grads.reshape(T, 6), self.area[:, None],
            self.edge_normal[self.edge_of_triangle].reshape(T, 6),
            self.h_of_triangle[:, None]], axis=1)
        _, first, inverse = np.unique(
            rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))),
            return_index=True, return_inverse=True)
        # classes numbered in the order of their first triangles
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.shape_rep = first[order]
        self.shape_of_triangle = rank[inverse.ravel()]

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_triangles(self):
        return len(self.triangles)


def build_uniform_unit_square(n):
    """Uniform triangulation of (0,1)^2 with n x n cells, each split by
    the diagonal from its lower-left to its upper-right corner.

    Produces (n+1)^2 vertices, 2 n^2 triangles, 3 n^2 + 2 n edges and
    mesh size h = sqrt(2)/n.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    ij = np.arange(n + 1, dtype=float) / n
    X, Y = np.meshgrid(ij, ij)                       # Y slow, X fast
    vertices = np.stack([X.ravel(), Y.ravel()], axis=1)

    # cell (ix, iy) has lower-left vertex iy (n + 1) + ix and the two
    # triangles (ll, lr, ur) and (ll, ur, ul)
    ll = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    lr, ul, ur = ll + 1, ll + n + 1, ll + n + 2
    tris = np.stack([ll, lr, ur, ll, ur, ul], axis=1).reshape(-1, 3)
    return Mesh(vertices, tris)

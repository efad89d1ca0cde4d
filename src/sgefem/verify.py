"""Executable checks of the element's structural properties.

Three families of checks back the solver: unisolvence of the 20 DoFs
(via the condition number of the length-scaled DoF matrix), weak
continuity of the broken gradient (the edge-jump integrals that make
the nonconforming consistency argument work), and positivity plus
parameter robustness of the discrete inf-sup constant.  Thresholds are
regression anchors established by the first verified run, not model
constants.
"""

import math

import numpy as np
from scipy.linalg import eigh, null_space

from .assembly import combine_parts
from .discretization import Discretization
from .element import (EDGE_DBARY, EDGE_WEIGHTS, batched_scalar_dof_matrices,
                      scaled_conditions)
from .linalg import spd_factor
from .mesh import Mesh, build_uniform_unit_square
from .space import cell_entities

#: regression bound on the length-scaled DoF-matrix condition number of
#: shape-regular triangles (aspect <= 5); the reference triangle sits
#: near 7.24e3 and random samples stay two orders of magnitude lower
#: than this
UNISOLVENCE_COND_BOUND = 1e6
WEAK_CONTINUITY_TOL = 1e-10
#: regression bounds on inf-sup variation (not model constants)
INFSUP_IOTA_RATIO_BOUND = 4.0
INFSUP_MESH_RATIO_BOUND = 2.0

INFSUP_IOTAS = (1.0, 1e-2, 1e-4, 1e-6)
#: bytes of one dense block of B^T's columns in the inf-sup check; the
#: block, its solve and their copies bound the check's working set (one
#: block covers every column up to n = 16)
INFSUP_BLOCK_BYTES = 2 ** 24


class CheckResult:
    __slots__ = ("name", "value", "threshold", "op", "passed")

    def __init__(self, name, value, threshold, op):
        self.name = name
        self.value = float(value)
        self.threshold = float(threshold)
        self.op = op
        if op == "<=":
            self.passed = self.value <= self.threshold
        elif op == ">":
            self.passed = self.value > self.threshold
        else:
            raise ValueError("op must be '<=' or '>'")


class VerificationReport:
    """Named check results plus free-form notes."""

    def __init__(self):
        self.entries = []
        self.notes = []

    def add(self, name, value, threshold, op="<="):
        self.entries.append(CheckResult(name, value, threshold, op))

    def extend(self, other):
        self.entries.extend(other.entries)
        self.notes.extend(other.notes)

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def as_text(self):
        width = max([len(e.name) for e in self.entries] + [5])
        lines = ["%-*s  %12s  %2s %12s  status" % (width, "check", "value",
                                                   "", "threshold")]
        for e in self.entries:
            lines.append("%-*s  %12.6e  %2s %12.6e  %s"
                         % (width, e.name, e.value, e.op, e.threshold,
                            "pass" if e.passed else "FAIL"))
        for note in self.notes:
            lines.append("note: " + note)
        lines.append("overall: %s" % ("pass" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"

    def as_csv(self):
        return "check,value,threshold,pass\n" + "".join(
            "%s,%.6e,%.6e,%s\n" % (e.name, e.value, e.threshold,
                                   "true" if e.passed else "false")
            for e in self.entries)


_REFERENCE_TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def _triangle_set_mesh(triangles):
    """One mesh holding every triangle of a (k, 3, 2) vertex array as its
    own component, each oriented counterclockwise."""
    verts = np.array(triangles, dtype=float)
    d1 = verts[:, 1] - verts[:, 0]
    d2 = verts[:, 2] - verts[:, 0]
    clockwise = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] < 0.0
    verts[clockwise] = verts[clockwise][:, [0, 2, 1]]
    return Mesh(verts.reshape(-1, 2),
                np.arange(3 * len(verts)).reshape(-1, 3))


def random_shape_regular_triangles(count, seed=0, aspect_limit=5.0):
    """Random triangles with aspect ratio (longest edge over twice the
    inradius) at most ``aspect_limit``."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        verts = rng.uniform(0.0, 1.0, (3, 2))
        e = verts[[2, 0, 1]] - verts[[1, 2, 0]]
        lens = np.hypot(e[:, 0], e[:, 1])
        d1 = verts[1] - verts[0]
        d2 = verts[2] - verts[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        if area == 0.0:
            continue
        inradius = area / (0.5 * lens.sum())
        if lens.max() / (2.0 * inradius) <= aspect_limit:
            out.append(verts)
    return np.array(out)


def check_unisolvence(triangles=None, count=100, seed=0):
    """Condition-number survey of the DoF matrices of a triangle set.

    Degenerate triangles are reported (counted as singular), never
    thrown.
    """
    if triangles is None:
        triangles = random_shape_regular_triangles(count, seed)
    with np.errstate(divide="ignore", invalid="ignore"):
        # degenerate triangles give non-finite geometry, reported as inf
        conds = scaled_conditions(_triangle_set_mesh(
            np.concatenate([[_REFERENCE_TRIANGLE],
                            np.reshape(triangles, (-1, 3, 2))])))
    ref, conds = conds[0], conds[1:]
    report = VerificationReport()
    report.add("unisolvence_reference_cond", ref, UNISOLVENCE_COND_BOUND)
    singular = int(np.sum(~np.isfinite(conds)))
    report.add("unisolvence_singular_count", singular, 0.5)
    finite = conds[np.isfinite(conds)]
    if finite.size:
        report.add("unisolvence_max_cond", float(finite.max()),
                   UNISOLVENCE_COND_BOUND)
    return report


class NotAnInteriorEdge(ValueError):
    """The edge named for fault injection has no second triangle whose
    gradient could jump across it."""


def check_weak_continuity(disc, flip_edge=None, label=""):
    """Maximum edge-jump integral of the broken gradient, relative to
    the local gradient scale, over all interior edges of the mesh of
    ``disc`` (a :class:`Discretization`) and all basis functions
    supported there.

    ``flip_edge`` negates the normal-derivative DoF row of one triangle
    adjacent to that edge before inverting; it exists to demonstrate
    that the check catches orientation-sign bugs, and must name an
    interior edge (else :class:`NotAnInteriorEdge`).
    """
    mesh = disc.mesh
    coeff = disc.coeff[mesh.shape_of_triangle]   # per triangle, for the flip
    if flip_edge is not None:
        if not (0 <= flip_edge < mesh.num_edges
                and not mesh.edge_is_boundary[flip_edge]):
            raise NotAnInteriorEdge("edge %r is not an interior edge"
                                    % (flip_edge,))
        k = int(mesh.triangles_of_edge[flip_edge, 0])
        s = int(np.where(mesh.edge_of_triangle[k] == flip_edge)[0][0])
        M0 = batched_scalar_dof_matrices(mesh, [k])[0]
        M0[6 + s] *= -1.0
        coeff[k] = np.linalg.inv(M0)

    inner = np.flatnonzero(~mesh.edge_is_boundary)
    tri = mesh.triangles_of_edge[inner]                        # (n, 2)
    # each side reads the element's edge table at its local edge index;
    # it walks the edge in its own direction, but the Gauss rule is
    # symmetric, so the jump integral and the scale do not depend on it
    local = np.argmax(mesh.edge_of_triangle[tri] == inner[:, None, None], 2)
    G = mesh.bary_grads[tri]                                   # (n, 2, 3, 2)
    # grad[e, side, q, i, x] of scalar nodal function i on either side
    grad = coeff[tri].swapaxes(2, 3)[:, :, None] \
        @ (EDGE_DBARY[local] @ G[:, :, None])
    scale = np.abs(grad).max(axis=(1, 2, 3, 4))
    length = mesh.edge_length[inner]
    integ = length[:, None, None, None] * np.einsum("q,esqix->esix",
                                                    EDGE_WEIGHTS, grad)
    integ[:, 1] *= -1.0
    # sum both sides per (edge, global entity), then the largest jump
    n_entities = mesh.num_vertices + 2 * mesh.num_edges + mesh.num_triangles
    key = np.arange(len(inner))[:, None, None] * n_entities \
        + cell_entities(mesh)[tri]
    ukey, inv = np.unique(key.ravel(), return_inverse=True)
    jumps = np.zeros((len(ukey), 2))
    np.add.at(jumps, inv, integ.reshape(-1, 2))
    largest = np.zeros(len(inner))
    np.maximum.at(largest, ukey // n_entities, np.abs(jumps).max(axis=1))
    worst = float(np.max(largest / (scale * length), initial=0.0))

    report = VerificationReport()
    report.add("weak_continuity_rel_jump" + label, worst,
               WEAK_CONTINUITY_TOL)
    return report


def _infsup_parts(disc):
    if disc.qmap.n_p < 2:
        raise ValueError("inf-sup estimation needs at least two pressure "
                         "unknowns (n >= 3)")
    Z = null_space(disc.mean_constraint[None, :])
    plan, kernels = disc.b_parts
    return plan.parts(kernels), disc.norm_gram_parts, disc.pressure_parts, Z


def _infsup_from_parts(parts, iota):
    """beta_h at ``iota`` through the solver's sparse factor of the scalar
    norm Gram g = g1 + iota^2 g2 of G_V = g kron I_2, never made dense; a
    pivot <= 0 means that g, and so G_V, is not SPD."""
    (b0, b2), (g1, g2), (mp, kp), Z = parts
    i2 = iota ** 2
    try:
        lu = spd_factor(combine_parts(g1, g2, i2))
        spd = np.array_equal(lu.perm_r, lu.perm_c) \
            and np.all(lu.U.diagonal() > 0.0)
    except RuntimeError:    # an exactly zero pivot
        spd = False
    if not spd:
        raise ValueError("G_V is not symmetric positive definite")
    B = combine_parts(b0, b2, i2)
    # K = B G_V^-1 B^T one block of pressure columns at a time, each by
    # one solve with g: row s of the right-hand side and of the solution
    # holds the rows 2 s and 2 s + 1 side by side
    n_p, n_u = B.shape
    width = max(1, INFSUP_BLOCK_BYTES // (8 * n_u))
    K = np.empty((n_p, n_p))
    for j in range(0, n_p, width):
        rhs = B[j:j + width].toarray().T.reshape(n_u // 2, -1)
        K[:, j:j + width] = B @ lu.solve(rhs).reshape(n_u, -1)
    K = 0.5 * (K + K.T)
    GQ = combine_parts(mp, kp, i2).toarray()
    theta = eigh(Z.T @ K @ Z, Z.T @ GQ @ Z, eigvals_only=True)[0]
    return math.sqrt(max(theta, 0.0))


def run_verification(seed=0, flip_edge=None, continuity_ns=(2, 4, 8),
                     infsup_ns=(4, 8), infsup_iotas=INFSUP_IOTAS):
    """The full check suite: unisolvence survey, weak continuity, and
    the inf-sup sweep over iota and mesh size.

    ``flip_edge`` injects an orientation fault into the first
    weak-continuity mesh (the check must then fail).
    """
    report = VerificationReport()
    report.extend(check_unisolvence(seed=seed))

    betas = {}
    for n in dict.fromkeys(tuple(continuity_ns) + tuple(infsup_ns)):
        disc = Discretization(build_uniform_unit_square(n))
        if n in continuity_ns:
            report.extend(check_weak_continuity(
                disc, flip_edge=flip_edge if n == continuity_ns[0] else None,
                label="_n%d" % n))
        if n in infsup_ns:
            parts = _infsup_parts(disc)
            for iota in infsup_iotas:
                betas[n, iota] = _infsup_from_parts(parts, iota)
        disc = parts = None     # release this mesh before the next is built
    for n in infsup_ns:
        for iota in infsup_iotas:
            report.add("infsup_beta_n%d_iota%g" % (n, iota), betas[n, iota],
                       0.0, op=">")
    for a, b in zip(infsup_ns, infsup_ns[1:]):
        for iota in infsup_iotas:
            ratio = betas[b, iota] / betas[a, iota]
            report.add("infsup_mesh_ratio_n%d_n%d_iota%g" % (a, b, iota),
                       max(ratio, 1.0 / ratio), INFSUP_MESH_RATIO_BOUND)
    if len(infsup_iotas) > 1:
        for n in infsup_ns:
            vals = [betas[n, iota] for iota in infsup_iotas]
            report.add("infsup_iota_ratio_n%d" % n, max(vals) / min(vals),
                       INFSUP_IOTA_RATIO_BOUND)

    report.notes.append(
        "the pressure norm uses the quadratic form "
        "(||q||_0^2 + iota^2 |q|_1^2)^(1/2), equivalent to the sum form "
        "||q||_0 + iota |q|_1 within a factor sqrt(2)")
    return report

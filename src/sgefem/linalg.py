"""The saddle-point solver and its sparse SPD factorization.

The discrete problem is the symmetric indefinite block system

    [ A   B^T  0 ] [u  ]   [rhs_u]
    [ B  -C    m ] [p  ] = [0    ]
    [ 0   m^T  0 ] [xi ]   [0    ]

where m holds the integrals of the pressure basis functions, so the last
row enforces the zero-mean condition on p and xi is its multiplier.

A = 2 mu (a0 + iota^2 a2) is symmetric positive definite and does not
depend on lambda, and by the discrete inf-sup condition the pressure
Schur complement B A^-1 B^T + C is spectrally equivalent, uniformly in
h, iota and lambda, to (1/(2 mu) + 1/lambda) G with G = M_p + iota^2 K_p,
and conjugate gradients do not change when the preconditioner is scaled,
so G alone serves every lambda.  So A and G are factored once per
(mu, iota) (:class:`SaddleFactors`, shared by the lambda cells of that
iota), and each cell runs conjugate gradients on the pressures
(:func:`projected_pcg`), preconditioned by G and projected onto the
zero-mean pressures; every iteration costs one solve with A, and the
iteration count stays small for every h, iota and lambda.  There is no
second solver path: a failed factorization, or an iteration that misses
the tolerance, raises :class:`SolverBreakdown`.
"""

from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu
# unused: bound only for the linalg.fallback target of perfbench/tracer.py
from scipy.sparse.linalg import minres  # noqa: F401

#: iteration cap of :func:`projected_pcg`; the inf-sup bound keeps the
#: count near 10 on every mesh, iota and lambda of the studies
MAX_ITER = 50
#: backward error at which the iteration has reached the roundoff floor
BACKWARD_FLOOR = 1e-16
#: iterations without a new smallest backward error after which
#: :func:`projected_pcg` stops: CG decreases the error in the Schur
#: complement's norm, so the residual may rise for a step before the
#: floor is reached
STALL_STEPS = 3


class SolverBreakdown(RuntimeError):
    """Factorization failure, or an iteration that missed the tolerance;
    carries the backward error and the iteration count it reached."""

    def __init__(self, message, residual, iterations):
        super().__init__("%s (achieved backward error %.3e after %d "
                         "iterations)" % (message, residual, iterations))
        self.residual = residual
        self.iterations = iterations


def spd_factor(M):
    """Sparse LU of a symmetric positive definite M, for the solver and
    the inf-sup check: a symmetric fill-reducing ordering and diagonal
    pivots only, so the row and column permutations agree and U's
    diagonal holds the LDL^T pivots.  As M is symmetric, the CSC view
    M.T of a CSR M is factored, without a copy."""
    return splu(M.T, permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True, "DiagPivotThresh": 0.0})


class SaddleFactors:
    """The lambda-independent part of the saddle systems of one
    (mu, iota): A, the pressure Gram matrix G, the mean-constraint
    vector m, and the factors of A and G, each built on first use and
    then shared by every system that holds this object."""

    def __init__(self, A, G, m):
        self.A = A
        self.G = G
        self.m = m

    @cached_property
    def solve_a(self):
        return spd_factor(self.A).solve

    @cached_property
    def _projected_g(self):
        solve_g = spd_factor(self.G).solve
        gm = solve_g(self.m)
        return solve_g, gm, self.m @ gm

    def precondition(self, r):
        """G^-1 r, projected G-orthogonally onto the zero-mean
        pressures (so the m-component of r is ignored)."""
        solve_g, gm, mgm = self._projected_g
        z = solve_g(r)
        return z - ((self.m @ z) / mgm) * gm

    def drop_mean_row(self, r):
        """r without its m-component, which the multiplier xi takes up;
        left in, it swamps the roundoff of r @ precondition(r)."""
        return r - ((self.m @ r) / (self.m @ self.m)) * self.m


class SaddleSystem:
    """Blocks of the saddle-point problem of one lambda over the free
    DoFs: A, m and their factors come from ``factors`` (a
    :class:`SaddleFactors`, shared by the lambda cells of one iota)."""

    def __init__(self, factors, B, C, rhs_u):
        n_u, n_p = factors.A.shape[0], factors.m.shape[0]
        if B.shape != (n_p, n_u) or C.shape != (n_p, n_p) \
                or rhs_u.shape != (n_u,):
            raise ValueError("inconsistent block dimensions")
        self.factors = factors
        self.B, self.C, self.rhs_u = B, C, rhs_u
        self.n_u, self.n_p = n_u, n_p

    @property
    def A(self):
        return self.factors.A

    @property
    def m(self):
        return self.factors.m

    def block_matrix(self):
        """The bordered (n_u + n_p + 1) sparse matrix, which the solver
        never forms (perfbench/ and the test oracles read it)."""
        mcol = sparse.csr_matrix(self.m.reshape(-1, 1))
        zcol = sparse.csr_matrix((self.n_u, 1))
        return sparse.bmat([[self.A, self.B.T, zcol],
                            [self.B, -self.C, mcol],
                            [None, mcol.T, None]], format="csc")

    def full_rhs(self):
        return np.concatenate([self.rhs_u, np.zeros(self.n_p + 1)])

    @cached_property
    def norm_inf(self):
        """||S||_inf of the bordered matrix, from the blocks' row sums."""
        def row_sums(M, axis=1):
            return np.asarray(abs(M).sum(axis=axis)).ravel()

        abs_m = np.abs(self.m)
        rows_u = row_sums(self.A) + row_sums(self.B, axis=0)
        rows_p = row_sums(self.B) + row_sums(self.C) + abs_m
        return max(rows_u.max(initial=0.0), rows_p.max(initial=0.0),
                   abs_m.sum())

    def backward_error(self, u, p, xi):
        """Normwise backward error ||Sx - b|| / (||S|| ||x|| + ||b||) of
        x = (u, p, xi); the plain residual over ||b|| has a roundoff
        floor of eps ||S|| ||x|| that an accurate solve cannot
        undercut."""
        r_u = self.A @ u + self.B.T @ p - self.rhs_u
        r_p = self.B @ u - self.C @ p + xi * self.m
        r_m = self.m @ p
        num = np.sqrt(r_u @ r_u + r_p @ r_p + r_m * r_m)
        x_norm = np.sqrt(u @ u + p @ p + xi * xi)
        return num / (self.norm_inf * x_norm + np.linalg.norm(self.rhs_u))

    def multiplier(self, u, p):
        """The xi that best fits the pressure rows B u - C p + m xi = 0."""
        return float(self.m @ (self.C @ p - self.B @ u)) \
            / float(self.m @ self.m)


def projected_pcg(system):
    """Conjugate gradients on (B A^-1 B^T + C) p = B A^-1 rhs_u over the
    zero-mean pressures, preconditioned by the system's projected G.

    u = A^-1 (rhs_u - B^T p) is updated with the same A-solve as the
    search direction, so each iteration costs one solve with A.  The
    iteration stops at the roundoff floor of the full system's backward
    error: when it reaches ``BACKWARD_FLOOR``, has not decreased for
    ``STALL_STEPS`` iterations, or ``MAX_ITER`` iterations have run.
    Returns (u, p, xi, iterations, backward error) of the iterate with
    the smallest backward error, iterations counting up to that iterate.
    """
    f = system.factors
    B, C = system.B, system.C
    u = f.solve_a(system.rhs_u)
    p = np.zeros(system.n_p)
    # B A^-1 rhs_u - (B A^-1 B^T + C) p at p = 0, up to a multiple of m
    r = f.drop_mean_row(B @ u)
    xi = system.multiplier(u, p)
    best = (u, p, xi, 0, system.backward_error(u, p, xi))
    z = f.precondition(r)
    rz = r @ z
    d = z
    stalled = 0
    for it in range(1, MAX_ITER + 1):
        # rz = 0 at the start when the zero-mean space is {0} (n = 2)
        if not (rz > 0 and best[4] > BACKWARD_FLOOR
                and stalled < STALL_STEPS):
            break
        w = f.solve_a(B.T @ d)
        q = B @ w + C @ d
        alpha = rz / (d @ q)
        p = p + alpha * d
        u = u - alpha * w
        r = f.drop_mean_row(r - alpha * q)
        xi = system.multiplier(u, p)
        err = system.backward_error(u, p, xi)
        if err < best[4]:
            best = (u, p, xi, it, err)
            stalled = 0
        else:
            stalled += 1
        z = f.precondition(r)
        rz_next = r @ z
        d = z + (rz_next / rz) * d
        rz = rz_next
    return best


def solve_saddle(system, tol=1e-10):
    """Solve the bordered saddle system to a backward error <= tol.

    Returns (u, p, xi).  The returned p satisfies the zero-mean
    constraint to 1e-12 * ||p||.  Raises :class:`SolverBreakdown` when
    a factorization fails or the projected conjugate gradients miss the
    tolerance.
    """
    if not 1e-14 < tol < 1e-6:
        raise ValueError("tol must lie in (1e-14, 1e-6)")
    if np.linalg.norm(system.rhs_u) == 0.0:
        return (np.zeros(system.n_u), np.zeros(system.n_p), 0.0)

    try:
        u, p, xi, iterations, err = projected_pcg(system)
    except (RuntimeError, MemoryError) as exc:
        raise SolverBreakdown("factorization failed: %s" % exc,
                              np.inf, 0) from exc
    if not err <= tol:
        raise SolverBreakdown("projected CG missed the tolerance %.1e"
                              % tol, err, iterations)

    drift = abs(system.m @ p)
    if drift > 1e-12 * max(np.linalg.norm(p), 1e-300):
        # project out the constraint drift (exact correction direction)
        p = p - (system.m @ p) / (system.m @ system.m) * system.m
    return u, p, xi

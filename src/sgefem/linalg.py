"""The saddle-point solver and its sparse SPD factorization.

The discrete problem is the symmetric indefinite block system

    [ A   B^T  0 ] [u  ]   [rhs_u]
    [ B  -C    m ] [p  ] = [0    ]
    [ 0   m^T  0 ] [xi ]   [0    ]

where m holds the integrals of the pressure basis functions, so the last
row enforces the zero-mean condition on p and xi is its multiplier.

A = 2 (a0 + iota^2 a2), in units of mu, is symmetric positive definite,
and it, B and rhs_u do not depend on lambda; lambda enters only C =
G / lambda, with G = M_p + iota^2 K_p; A, B and G hold their iota-parts'
index arrays, and C holds G's.  Eliminating u leaves (S_0 + G / lambda) p =
B A^-1 rhs_u on the zero-mean pressures, with S_0 = B A^-1 B^T.  By the
discrete inf-sup condition S_0 is positive definite there and spectrally
equivalent to G, uniformly in h and iota, so conjugate gradients
preconditioned by G converge in a few steps; and every finite lambda
only shifts the preconditioned operator, G^-1 (S_0 + G / lambda) =
G^-1 S_0 + (1/lambda) I, which keeps its Krylov spaces and improves its
conditioning.  So one sequence serves every lambda of an iota:
:class:`SaddleFactors` factors A and G once, and :func:`shifted_pcg`
runs the projected conjugate gradients of the lambda = infinity system
once, one solve with A per step, while every lambda advances in
lockstep by the shifted-CG recurrences (Jegerlehner, hep-lat/9612014;
Frommer, Computing 70 (2003)), with vector work only and no stored
step.  The solves with A per iota are those of the lambda that
needs the most steps, however many lambdas there are.  There is no
second solver path: a failed factorization, or an iteration that
misses ``TOLERANCE``, raises :class:`SolverBreakdown`.
"""

import ctypes
import weakref
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu
# unused: bound only for the linalg.fallback target of perfbench/tracer.py
from scipy.sparse.linalg import minres  # noqa: F401

#: the backward error at which :func:`solve_saddle` accepts a solve
TOLERANCE = 1e-10
#: iteration cap of :func:`shifted_pcg`; the inf-sup bound keeps the
#: count near 10 on every mesh, iota and lambda of the studies
MAX_ITER = 50
#: backward error at which the iteration has reached the roundoff floor
BACKWARD_FLOOR = 1e-16
#: iterations without a new smallest backward error after which a
#: lambda of :func:`shifted_pcg` stops: CG decreases the error in the
#: Schur complement's norm, so the residual may rise for a step before
#: the floor is reached
STALL_STEPS = 3
#: SuperLU's options for :func:`spd_factor`: the natural column order,
#: diagonal pivots only, and panels of 2 columns in place of SuperLU's
#: built-in 20.  The panel's work arrays grow as its width times the
#: order and are still held beside the finished L and U when ``gstrf``
#: returns, so they set each factorization's peak; a narrower panel
#: changes only the order of the updates, not the supernodes, the fill
#: or a factor's stored count.  The width may not exceed 20: SuperLU
#: sizes some of its arrays by its built-in width, and a wider panel
#: overruns them.  ``Relax`` stays at SuperLU's default, since it sets
#: the supernodes and so the fill.  2 is the narrowest of 1, 2, 4 and 8
#: that factors example2's A at n = 32 and 64 within 5% of the time at
#: 20 (README "Memory").
SUPERLU_OPTIONS = {"ColPerm": "NATURAL", "SymmetricMode": True,
                   "DiagPivotThresh": 0.0, "PanelSize": 2}


class SolverBreakdown(RuntimeError):
    """Factorization failure, or an iteration that missed the tolerance;
    carries the backward error and the iteration count it reached."""

    def __init__(self, message, residual, iterations):
        super().__init__("%s (achieved backward error %.3e after %d "
                         "iterations)" % (message, residual, iterations))
        self.residual = residual
        self.iterations = iterations


def _row_sums(M):
    """Row sums of |M|, bit for bit those of ``abs(M).sum(axis=1)`` for
    a CSR M without duplicate entries (as the assembled matrices are):
    the reduction of M's nonempty rows that scipy runs, on |M.data|
    alone, where scipy's abs(M) would copy M's index arrays too."""
    sums = np.zeros(M.shape[0])
    rows = np.flatnonzero(np.diff(M.indptr))
    sums[rows] = np.add.reduceat(np.abs(M.data), M.indptr[rows])
    return sums


def _bind_malloc_trim():
    """glibc's malloc_trim, bound once, or None where the C library has
    none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_MALLOC_TRIM = _bind_malloc_trim()


def spd_factor(M):
    """Sparse LU of a symmetric positive definite M, for the solver and
    the inf-sup check: in the natural order, which is fill-reducing
    because the DoF maps number the unknowns by nested dissection
    (:mod:`sgefem.space`), with diagonal pivots only, so the row and
    column permutations agree and U's diagonal holds the LDL^T pivots,
    and in narrow panels (``SUPERLU_OPTIONS``), so the work arrays held
    beside the finished factor are small.
    As M is symmetric, the CSC view M.T of a CSR M is factored, without
    a copy.  Non-finite entries raise RuntimeError, as a failed
    factorization does; SuperLU is not given them.  Each factorization
    starts on a trimmed heap, which lowers the peak it sets: glibc trims
    its heap only from the top, and only past a threshold that it raises
    as large blocks are freed, so the pages of freed arrays (and of a
    previous factor's workspace) can stay resident beside the factor
    allocated next, whose large blocks it maps on their own.  Where the
    C library has no malloc_trim, there is no trim."""
    if not np.isfinite(M.data).all():
        raise RuntimeError("the matrix has non-finite entries")
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    return splu(M.T, options=SUPERLU_OPTIONS)


class SaddleFactors:
    """The lambda-independent part of the saddle systems of one iota:
    A, B, the pressure Gram matrix G, the mean-constraint vector m and
    the load rhs_u; the factors of A and G, each built on first use;
    and weak references (so they are freed by refcount with their last
    system) to the systems on them not solved yet.

    ``abs_sums`` holds the lambda-independent parts of the bordered
    matrix's infinity norm: the row sums of |A| plus the column sums of
    |B| (added in row order, as ``abs(B).sum(axis=0)`` does), the row
    sums of |B|, and |m|.  They are formed here, before A is factored,
    so no copy of A is made beside its factor."""

    def __init__(self, A, B, G, m, rhs_u):
        n_u, n_p = A.shape[0], m.shape[0]
        if B.shape != (n_p, n_u) or G.shape != (n_p, n_p) \
                or rhs_u.shape != (n_u,):
            raise ValueError("inconsistent block dimensions")
        self.A, self.B, self.G, self.m, self.rhs_u = A, B, G, m, rhs_u
        self.n_u, self.n_p = n_u, n_p
        self.abs_sums = (_row_sums(A) + np.bincount(
            B.indices, np.abs(B.data), minlength=n_u), _row_sums(B),
            np.abs(m))
        self.unsolved = []

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
    """The saddle-point problem of one lambda over the free DoFs: A, B,
    m, rhs_u and the factors come from ``factors`` (a
    :class:`SaddleFactors`, shared by the lambda cells of one iota);
    the pressure block is C = G / lambda, a shift of 1 / lambda of the
    lambda = infinity system.  C is scipy's ``G / lam`` on G's index
    arrays.  lambda = inf, the incompressible limit, is C = 0.
    ``result`` is None until :func:`solve_saddle`."""

    def __init__(self, factors, lam):
        if not lam > 0:
            raise ValueError("the mixed form needs lambda > 0")
        self.shift = 1.0 / lam
        if not self.shift < np.inf:     # 1 / 1e-310 overflows
            raise ValueError("the mixed form needs a finite 1 / lambda")
        G = factors.G
        self.factors = factors
        self.C = sparse.csr_matrix((G.data * self.shift, G.indices,
                                    G.indptr), shape=G.shape)
        self.result = None
        factors.unsolved.append(weakref.ref(self))

    def block_matrix(self):
        """The bordered (n_u + n_p + 1) sparse matrix, which the solver
        never forms (perfbench/ and the test oracles read it)."""
        f = self.factors
        mcol = sparse.csr_matrix(f.m.reshape(-1, 1))
        zcol = sparse.csr_matrix((f.n_u, 1))
        return sparse.bmat([[f.A, f.B.T, zcol],
                            [f.B, -self.C, mcol],
                            [None, mcol.T, None]], format="csc")

    def full_rhs(self):
        f = self.factors
        return np.concatenate([f.rhs_u, np.zeros(f.n_p + 1)])

    @cached_property
    def norm_inf(self):
        """||S||_inf of the bordered matrix, from the blocks' row sums;
        only those of C are this lambda's own."""
        rows_u, rows_b, abs_m = self.factors.abs_sums
        rows_p = rows_b + _row_sums(self.C) + abs_m
        return max(rows_u.max(initial=0.0), rows_p.max(initial=0.0),
                   abs_m.sum())

    def backward_error(self, u, p):
        """(xi, err) of the iterate (u, p): the multiplier xi that best
        fits the pressure rows B u - C p + m xi = 0, and the normwise
        backward error ||Sx - b|| / (||S|| ||x|| + ||b||) of
        x = (u, p, xi); the plain residual over ||b|| has a roundoff
        floor of eps ||S|| ||x|| that an accurate solve cannot
        undercut."""
        f = self.factors
        bu, cp = f.B @ u, self.C @ p
        xi = float(f.m @ (cp - bu)) / float(f.m @ f.m)
        r_u = f.A @ u + f.B.T @ p - f.rhs_u
        r_p = bu - cp + xi * f.m
        r_m = f.m @ p
        num = np.sqrt(r_u @ r_u + r_p @ r_p + r_m * r_m)
        x_norm = np.sqrt(u @ u + p @ p + xi * xi)
        return xi, num / (self.norm_inf * x_norm + np.linalg.norm(f.rhs_u))


def _shifted_cg(system, u, rz):
    """One lambda of :func:`shifted_pcg`: a generator that yields True
    while it needs the next step (alpha_k, beta_k, z_k, y_k,
    r_{k+1} . z_{k+1}) of the lambda = infinity sequence, which is sent
    to it, and False once it has set ``system.result``.  With shift
    sigma = 1/lambda, the residual of step k is zeta_k times the base
    residual, and d and w = A^-1 B^T d follow from z_k and y_k, so the
    iterate (u, p), u = A^-1 (rhs_u - B^T p), costs vector work only."""
    sigma = system.shift
    p = np.zeros(system.factors.n_p)
    xi, err = system.backward_error(u, p)
    best = (u, p, xi, 0, err)
    # zeta_{k-1}, zeta_k, alpha_{k-1}, beta_{k-1} with zeta_{-1} = 1
    zeta_prev = zeta = alpha_prev = 1.0
    beta_prev = 0.0
    d = w = None
    stalled = 0
    for it in range(1, MAX_ITER + 1):
        # rz = 0 at the start when the zero-mean space is {0} (n = 2)
        if not (rz > 0 and best[4] > BACKWARD_FLOOR
                and stalled < STALL_STEPS):
            break
        alpha, beta, z, y, rz = yield True
        if d is None:
            d, w = z, y
        else:
            beta_s = (zeta / zeta_prev) ** 2 * beta_prev
            d = zeta * z + beta_s * d
            w = zeta * y + beta_s * w
        zeta_next = zeta * zeta_prev * alpha_prev / (
            alpha * beta_prev * (zeta_prev - zeta)
            + zeta_prev * alpha_prev * (1.0 + sigma * alpha))
        alpha_s = alpha * zeta_next / zeta
        p = p + alpha_s * d
        u = u - alpha_s * w
        xi, err = system.backward_error(u, p)
        if err < best[4]:
            best = (u, p, xi, it, err)
            stalled = 0
        else:
            stalled += 1
        zeta_prev, zeta = zeta, zeta_next
        alpha_prev, beta_prev = alpha, beta
    system.result = best
    yield False


def shifted_pcg(systems):
    """Conjugate gradients on (B A^-1 B^T + C) p = B A^-1 rhs_u over the
    zero-mean pressures, preconditioned by the projected G, for systems
    on one factors object, as one family.

    The lambda = infinity sequence (C = 0) starts at p = 0, where
    u_0 = A^-1 rhs_u, and takes a step, one solve with A, while a
    lambda still needs it; as d_k = z_k + beta_{k-1} d_{k-1},
    y_k = w_k - beta_{k-1} w_{k-1} with w = A^-1 B^T d needs no solve
    of its own.  A lambda stops at the roundoff floor of the full
    system's backward error: when it reaches ``BACKWARD_FLOOR``, has
    not decreased for ``STALL_STEPS`` iterations, or ``MAX_ITER``
    iterations have run.  Sets, and returns, each system's ``result``:
    (u, p, xi, iterations, backward error) of the iterate with the
    smallest backward error, iterations counting up to that iterate.
    """
    f = systems[0].factors
    u = f.solve_a(f.rhs_u)
    r = f.drop_mean_row(f.B @ u)
    z = f.precondition(r)
    rz = r @ z
    running = [_shifted_cg(system, u, rz) for system in systems]
    # step k, the direction d_k, beta_{k-1} and w_{k-1}
    step, d, beta, w_prev = None, z, 0.0, None
    while True:
        running = [cg for cg in running if cg.send(step)]
        if not running:
            return [system.result for system in systems]
        w = f.solve_a(f.B.T @ d)
        q = f.B @ w
        alpha = rz / (d @ q)
        y = w if w_prev is None else w - beta * w_prev
        r = f.drop_mean_row(r - alpha * q)
        z_next = f.precondition(r)
        rz_next = r @ z_next
        beta = rz_next / rz
        step = (alpha, beta, z, y, rz_next)
        z, rz, d, w_prev = z_next, rz_next, z_next + beta * d, w


def solve_saddle(system):
    """Solve the bordered saddle system to a backward error <= TOLERANCE.

    Returns (u, p, xi).  The first call solves, as one family, every
    live unsolved system on its factors, each keeping its ``result``.
    The returned p satisfies the zero-mean constraint to 1e-12 * ||p||.
    Raises :class:`SolverBreakdown` when a factorization fails or the
    projected conjugate gradients miss the tolerance.
    """
    f = system.factors
    if np.linalg.norm(f.rhs_u) == 0.0:
        return (np.zeros(f.n_u), np.zeros(f.n_p), 0.0)

    if system.result is None:
        family = [s for s in (ref() for ref in f.unsolved) if s is not None]
        try:
            shifted_pcg(family)
        except (RuntimeError, MemoryError) as exc:
            raise SolverBreakdown("factorization failed: %s" % exc,
                                  np.inf, 0) from exc
        f.unsolved = []
    u, p, xi, iterations, err = system.result
    if not err <= TOLERANCE:
        raise SolverBreakdown("projected CG missed the tolerance %.1e"
                              % TOLERANCE, err, iterations)

    if abs(f.m @ p) > 1e-12 * max(np.linalg.norm(p), 1e-300):
        p = f.drop_mean_row(p)      # the constraint drift
    return u, p, xi

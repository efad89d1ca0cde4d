"""The saddle-point solver and the dense generalized eigenvalue helper.

The discrete problem is the symmetric indefinite block system

    [ A   B^T  0 ] [u  ]   [rhs_u]
    [ B  -C    m ] [p  ] = [0    ]
    [ 0   m^T  0 ] [xi ]   [0    ]

where m holds the integrals of the pressure basis functions, so the last
row enforces the zero-mean condition on p and xi is its multiplier.
The default path is a sparse LU factorization (scipy's SuperLU with a
fill-reducing column ordering); a preconditioned MINRES serves as the
fallback when the factorization fails or loses too much accuracy.
"""

import numpy as np
from scipy import sparse
from scipy.linalg import cholesky, eigh
from scipy.sparse.linalg import LinearOperator, minres, splu


class SolverBreakdown(RuntimeError):
    """Factorization failure or iteration stagnation; carries the
    relative residual that was achieved."""

    def __init__(self, message, residual):
        super().__init__("%s (achieved relative residual %.3e)"
                         % (message, residual))
        self.residual = residual


class SaddleSystem:
    """Blocks of the saddle-point problem over the free DoFs."""

    def __init__(self, A, B, C, m, rhs_u):
        self.A = A.tocsr() if sparse.issparse(A) else sparse.csr_matrix(A)
        self.B = B.tocsr() if sparse.issparse(B) else sparse.csr_matrix(B)
        self.C = C.tocsr() if sparse.issparse(C) else sparse.csr_matrix(C)
        self.m = np.asarray(m, dtype=float)
        self.rhs_u = np.asarray(rhs_u, dtype=float)
        n_u, n_p = self.A.shape[0], self.C.shape[0]
        if self.B.shape != (n_p, n_u) or self.m.shape != (n_p,) \
                or self.rhs_u.shape != (n_u,):
            raise ValueError("inconsistent block dimensions")
        self.n_u = n_u
        self.n_p = n_p

    def block_matrix(self):
        """The bordered (n_u + n_p + 1) sparse matrix."""
        mcol = sparse.csr_matrix(self.m.reshape(-1, 1))
        zcol = sparse.csr_matrix((self.n_u, 1))
        return sparse.bmat([[self.A, self.B.T, zcol],
                            [self.B, -self.C, mcol],
                            [None, mcol.T, None]], format="csc")

    def full_rhs(self):
        return np.concatenate([self.rhs_u, np.zeros(self.n_p + 1)])


def _backward_error(S, x, rhs, norm_S):
    """Normwise backward error ||Sx - b|| / (||S|| ||x|| + ||b||); the
    plain residual over ||b|| has a roundoff floor of eps ||S|| ||x||
    that an accurate solve cannot undercut."""
    num = np.linalg.norm(S @ x - rhs)
    return num / (norm_S * np.linalg.norm(x) + np.linalg.norm(rhs))


def _minres_fallback(system, S, rhs, tol):
    """MINRES on the bordered system with a block-diagonal Jacobi
    preconditioner (MINRES needs a symmetric positive definite
    preconditioner, so the diagonals are clamped to be positive)."""
    d_a = system.A.diagonal()
    d_c = system.C.diagonal() + np.abs(system.m)
    d_a = np.where(d_a > 0, d_a, 1.0)
    d_c = np.where(d_c > 0, d_c, 1.0)
    border = system.m @ (system.m / d_c)
    scale = np.concatenate([1.0 / d_a, 1.0 / d_c,
                            [1.0 / border if border > 0 else 1.0]])
    M = LinearOperator(S.shape, matvec=lambda v: scale * v)
    try:
        x, _ = minres(S, rhs, rtol=tol, M=M,
                      maxiter=min(50 * S.shape[0], 5000))
    except ValueError as exc:
        raise SolverBreakdown("MINRES fallback failed: %s" % exc, np.inf)
    return x


def solve_saddle(system, tol=1e-10):
    """Solve the bordered saddle system to a backward error <= tol.

    Returns (u, p, xi).  The returned p satisfies the zero-mean
    constraint to 1e-12 * ||p||.  Raises :class:`SolverBreakdown` when
    neither the direct factorization nor the MINRES fallback reaches
    the tolerance.
    """
    if not 1e-14 < tol < 1e-6:
        raise ValueError("tol must lie in (1e-14, 1e-6)")
    rhs = system.full_rhs()
    if np.linalg.norm(rhs) == 0.0:
        return (np.zeros(system.n_u), np.zeros(system.n_p), 0.0)

    S = system.block_matrix()
    norm_S = sparse.linalg.norm(S, np.inf)
    x = None
    try:
        # symmetric-mode ordering keeps the fill moderate despite the
        # dense constraint border (COLAMD degenerates on that row)
        lu = splu(S, permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True,
                           "DiagPivotThresh": 0.001})
        x = lu.solve(rhs)
        # a few steps of iterative refinement recover the digits the
        # relaxed pivoting gives up on ill-conditioned systems
        for _ in range(3):
            if not np.all(np.isfinite(x)):
                x = None
                break
            if _backward_error(S, x, rhs, norm_S) <= tol:
                break
            x = x + lu.solve(rhs - S @ x)
    except (RuntimeError, MemoryError):
        x = None

    if x is None or _backward_error(S, x, rhs, norm_S) > tol:
        x = _minres_fallback(system, S, rhs, tol)
        res = _backward_error(S, x, rhs, norm_S)
        if not np.all(np.isfinite(x)) or res > tol:
            raise SolverBreakdown("direct solve and MINRES fallback both "
                                  "missed the tolerance", res)

    u = x[:system.n_u]
    p = x[system.n_u:system.n_u + system.n_p]
    xi = float(x[-1])
    drift = abs(system.m @ p)
    if drift > 1e-12 * max(np.linalg.norm(p), 1e-300):
        # project out the constraint drift (exact correction direction)
        p = p - (system.m @ p) / (system.m @ system.m) * system.m
    return u, p, xi


def min_generalized_eig(K, G):
    """Smallest eigenvalue of K x = theta G x with G SPD."""
    K = np.asarray(K, dtype=float)
    G = np.asarray(G, dtype=float)
    try:
        cholesky(G)
    except np.linalg.LinAlgError:
        raise ValueError("G is not symmetric positive definite")
    vals = eigh(K, G, eigvals_only=True)
    return float(vals[0])

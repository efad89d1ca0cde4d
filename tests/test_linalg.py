import numpy as np
import pytest

from sgefem.discretization import Discretization
from sgefem.linalg import (SaddleSystem, SolverBreakdown, min_generalized_eig,
                           solve_saddle)
from sgefem.mesh import build_uniform_unit_square


def example2_system(n=2, mu=1.0, lam=1.0, iota=1e-2):
    disc = Discretization(build_uniform_unit_square(n), "example2")
    return disc.system(mu, lam, iota)


def test_homogeneous_rhs_gives_zero():
    sys_ = example2_system()
    sys_.rhs_u = np.zeros_like(sys_.rhs_u)
    u, p, xi = solve_saddle(sys_)
    assert np.all(u == 0.0) and np.all(p == 0.0) and xi == 0.0


def test_solution_matches_dense_lu_oracle():
    sys_ = example2_system()
    u, p, xi = solve_saddle(sys_, tol=1e-12)
    S = sys_.block_matrix().toarray()
    x = np.linalg.solve(S, sys_.full_rhs())
    got = np.concatenate([u, p, [xi]])
    assert np.linalg.norm(got - x) < 1e-10 * np.linalg.norm(x)


def test_energy_identity():
    sys_ = example2_system()
    u, p, _ = solve_saddle(sys_)
    lhs = u @ (sys_.A @ u) + p @ (sys_.C @ p)
    rhs = sys_.rhs_u @ u
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_pressure_mean_constraint():
    sys_ = example2_system(n=4)
    _, p, _ = solve_saddle(sys_)
    assert abs(sys_.m @ p) <= 1e-12 * np.linalg.norm(p)


def test_residual_of_block_system():
    sys_ = example2_system(n=4, lam=1e8, iota=1e-8)
    tol = 1e-10
    u, p, xi = solve_saddle(sys_, tol=tol)
    S = sys_.block_matrix()
    rhs = sys_.full_rhs()
    x = np.concatenate([u, p, [xi]])
    assert np.linalg.norm(S @ x - rhs) <= tol * np.linalg.norm(rhs)


def test_fixed_point_under_residual_correction():
    sys_ = example2_system(n=2)
    tol = 1e-10
    u, p, xi = solve_saddle(sys_, tol=tol)
    x = np.concatenate([u, p, [xi]])
    r = sys_.full_rhs() - sys_.block_matrix() @ x
    sys_.rhs_u = sys_.rhs_u + r[:sys_.n_u]
    u2, p2, xi2 = solve_saddle(sys_, tol=tol)
    x2 = np.concatenate([u2, p2, [xi2]])
    assert np.linalg.norm(x2 - x) <= tol * np.linalg.norm(x)


def test_scale_equivariance():
    sys_ = example2_system(n=2)
    u, p, xi = solve_saddle(sys_)
    sys_.rhs_u = 8.0 * sys_.rhs_u
    u8, p8, xi8 = solve_saddle(sys_)
    # scaling by a power of two is exact through every solver operation
    assert np.array_equal(u8, 8.0 * u)
    assert np.array_equal(p8, 8.0 * p)
    assert xi8 == 8.0 * xi


def test_tolerance_range_enforced():
    sys_ = example2_system()
    with pytest.raises(ValueError, match="tol"):
        solve_saddle(sys_, tol=1e-5)
    with pytest.raises(ValueError, match="tol"):
        solve_saddle(sys_, tol=1e-15)


def test_inconsistent_blocks_rejected():
    sys_ = example2_system()
    with pytest.raises(ValueError, match="dimensions"):
        SaddleSystem(sys_.A, sys_.B[:, :-2], sys_.C, sys_.m, sys_.rhs_u)


def test_block_matrix_is_symmetric():
    S = example2_system().block_matrix()
    assert (S != S.T).nnz == 0


def test_breakdown_signaled_for_singular_system():
    n = 6
    A = np.zeros((n, n))
    B = np.zeros((2, n))
    C = np.eye(2)
    sys_ = SaddleSystem(A, B, C, np.ones(2), np.ones(n))
    with pytest.raises(SolverBreakdown):
        solve_saddle(sys_)


def test_min_generalized_eig_trivial_cases():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((10, 10))
    G = M @ M.T + 10 * np.eye(10)
    assert min_generalized_eig(G, G) == pytest.approx(1.0, rel=1e-12)
    assert min_generalized_eig(np.zeros((10, 10)), G) \
        == pytest.approx(0.0, abs=1e-12)
    assert min_generalized_eig(np.diag([4.0, 9.0]), np.eye(2)) \
        == pytest.approx(4.0, rel=1e-14)


def test_min_generalized_eig_rejects_indefinite_g():
    with pytest.raises(ValueError, match="positive definite"):
        min_generalized_eig(np.eye(3), np.diag([1.0, -1.0, 1.0]))


def test_min_generalized_eig_residual():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((30, 30))
    K = M @ M.T
    N = rng.standard_normal((30, 30))
    G = N @ N.T + 30 * np.eye(30)
    theta = min_generalized_eig(K, G)
    assert theta >= 0.0
    # the null vector of (K - theta G) certifies the pair
    _, s, Vt = np.linalg.svd(K - theta * G)
    v = Vt[-1]
    assert np.linalg.norm(K @ v - theta * (G @ v)) \
        <= 1e-9 * np.linalg.norm(K)

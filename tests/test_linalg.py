import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import norm as sparse_norm

import sgefem.linalg
from oracles import bordered_lu_solve, min_generalized_eig
from sgefem.discretization import Discretization
from sgefem.linalg import (SaddleFactors, SaddleSystem, SolverBreakdown,
                           projected_pcg, solve_saddle, spd_factor)
from sgefem.mesh import build_uniform_unit_square

GRID_IOTAS = (1.0, 1e-2, 1e-8)
GRID_LAMBDAS = (1.0, 1e4, 1e8)


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
        SaddleSystem(sys_.factors, sys_.B[:, :-2], sys_.C, sys_.rhs_u)


def test_block_matrix_is_symmetric():
    S = example2_system().block_matrix()
    assert (S != S.T).nnz == 0


def test_breakdown_signaled_for_singular_system():
    n = 6
    A = sparse.csr_matrix((n, n))
    B = sparse.csr_matrix((2, n))
    C = sparse.identity(2, format="csr")
    sys_ = SaddleSystem(SaddleFactors(A, C, np.ones(2)), B, C, np.ones(n))
    with pytest.raises(SolverBreakdown) as exc:
        solve_saddle(sys_)
    # the factorization of A fails before the first iteration
    assert exc.value.residual == np.inf and exc.value.iterations == 0


def test_pcg_miss_is_a_breakdown_carrying_its_record(monkeypatch):
    sys_ = example2_system(n=8, lam=1e4)
    monkeypatch.setattr(sgefem.linalg, "MAX_ITER", 1)
    _, _, _, iterations, err = projected_pcg(sys_)
    assert err > 1e-10
    with pytest.raises(SolverBreakdown) as exc:
        solve_saddle(sys_, tol=1e-10)
    assert exc.value.residual == err
    assert exc.value.iterations == iterations


# At mu = 100, A dominates ||S||, so the normwise backward error weighs
# the pressure rows by ||B|| / ||A|| and reaches its 1e-16 floor with u
# off by up to 3.3e-8 relative (the bordered LU: 9e-12).  At mu = 0.01
# the m-component of the pressure residual is large against the rest;
# left in, its roundoff ended the iteration at a backward error of 2e-15.
@pytest.mark.parametrize("n,mu,u_rtol", [(2, 1.0, 1e-8), (4, 1.0, 1e-8),
                                         (8, 1.0, 1e-8), (16, 1.0, 1e-8),
                                         (8, 0.01, 1e-8), (8, 100.0, 1e-7)])
@pytest.mark.parametrize("example", ["example1", "example2"])
def test_pcg_matches_bordered_lu_oracle(example, n, mu, u_rtol):
    disc = Discretization(build_uniform_unit_square(n), example)
    for iota in GRID_IOTAS:
        for lam in GRID_LAMBDAS:
            sys_ = disc.system(mu, lam, iota)
            u, p, xi = solve_saddle(sys_)
            u_ref, p_ref, _, err_ref = bordered_lu_solve(sys_)
            assert np.linalg.norm(u - u_ref) \
                <= u_rtol * np.linalg.norm(u_ref), (iota, lam)
            assert sys_.backward_error(u, p, xi) <= 1e-15, (iota, lam)
            assert err_ref <= 1e-15, (iota, lam)


def test_factors_preconditioning_with_c_give_the_same_iterates():
    sys_ = example2_system(n=8, lam=1e4)
    bare = SaddleSystem(SaddleFactors(sys_.A, sys_.C, sys_.m), sys_.B,
                        sys_.C, sys_.rhs_u)
    u, _, _, iterations, err = projected_pcg(bare)
    u_ref, _, _, iterations_ref, _ = projected_pcg(sys_)
    # C = G / lambda, and scaling the preconditioner leaves CG unchanged
    assert iterations == iterations_ref
    assert err <= 1e-15
    assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)


def test_pcg_continues_past_a_rise_of_the_backward_error():
    sys_ = example2_system(n=8, lam=1e4)
    _, _, _, iterations_ref, err_ref = projected_pcg(sys_)
    assert iterations_ref >= 3
    true_error = sys_.backward_error
    calls = []

    def rising_once(u, p, xi):
        # the second iterate reads as worse than the first
        calls.append(None)
        err = true_error(u, p, xi)
        return 1e3 * err if len(calls) == 3 else err

    sys_.backward_error = rising_once
    _, _, _, iterations, err = projected_pcg(sys_)
    assert (iterations, err) == (iterations_ref, err_ref)


def test_backward_error_from_blocks_matches_bordered_matrix():
    sys_ = example2_system(n=4, lam=1e4, iota=1e-2)
    S, b = sys_.block_matrix(), sys_.full_rhs()
    norm_S = sparse_norm(S, np.inf)
    assert sys_.norm_inf == pytest.approx(norm_S, rel=1e-14)
    x = np.random.default_rng(5).standard_normal(S.shape[0])
    want = np.linalg.norm(S @ x - b) \
        / (norm_S * np.linalg.norm(x) + np.linalg.norm(b))
    got = sys_.backward_error(x[:sys_.n_u], x[sys_.n_u:-1], x[-1])
    assert got == pytest.approx(want, rel=1e-12)


def test_pcg_starts_converged_when_mean_zero_space_is_trivial():
    # n = 2 has one pressure unknown, so the only zero-mean pressure is 0
    sys_ = example2_system(n=2)
    assert sys_.n_p == 1
    u, p, _, iterations, err = projected_pcg(sys_)
    assert iterations == 0 and np.all(p == 0.0)
    assert err <= 1e-15


def test_pcg_iterations_robust_in_h_iota_lambda():
    # the inf-sup bound makes G an h-, iota- and lambda-uniform
    # preconditioner of the pressure Schur complement
    worst = {}
    for n in (8, 16, 32, 64):
        disc = Discretization(build_uniform_unit_square(n), "example1")
        for iota in GRID_IOTAS:
            for lam in GRID_LAMBDAS:
                _, _, _, iterations, err = projected_pcg(
                    disc.system(1.0, lam, iota))
                assert err <= 1e-15, (n, iota, lam)
                worst[n, iota, lam] = iterations
    assert max(worst.values()) <= 12, worst


def test_a_factored_once_per_iota_and_released(monkeypatch):
    splu = sgefem.linalg.splu
    factored = []

    def counting_splu(M, *args, **kwargs):
        factored.append(M.shape[0])
        return splu(M, *args, **kwargs)

    monkeypatch.setattr(sgefem.linalg, "splu", counting_splu)
    disc = Discretization(build_uniform_unit_square(4), "example1")
    n_u = disc.vmap.n_u
    first = None
    for iota in (1.0, 1e-8):
        for lam in (1.0, 1e4, 1e8):
            sys_ = disc.system(1.0, lam, iota)
            solve_saddle(sys_)
            if first is None:
                first = weakref.ref(sys_.factors)
        del sys_
        if iota == 1.0:
            assert first() is not None
    assert factored.count(n_u) == 2
    assert first() is None


@pytest.mark.parametrize("mu", [0.0, -1.0])
def test_system_rejects_non_positive_mu(mu):
    disc = Discretization(build_uniform_unit_square(2), "example2")
    with pytest.raises(ValueError, match="mu"):
        disc.system(mu, 1.0, 1e-2)


@pytest.mark.parametrize("which", ["A", "G"])
def test_spd_factor_of_the_transpose_view_is_the_csc_copy(which):
    # a bitwise-symmetric CSR matrix's transpose holds its CSC arrays,
    # so factoring that view instead of a copy changes no bit
    disc = Discretization(build_uniform_unit_square(8), "example1")
    M = getattr(disc.factors(1.0, 1e-2), which)
    assert (M != M.T).nnz == 0
    view = M.T
    assert np.shares_memory(view.data, M.data)
    assert np.shares_memory(view.indices, M.indices)
    rhs = np.random.default_rng(8).standard_normal((M.shape[0], 3))
    copied = sgefem.linalg.splu(
        M.tocsc(), permc_spec="MMD_AT_PLUS_A",
        options={"SymmetricMode": True, "DiagPivotThresh": 0.0})
    assert np.array_equal(spd_factor(M).solve(rhs), copied.solve(rhs))


# the dense generalized eigenvalue helper of the inf-sup oracle
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

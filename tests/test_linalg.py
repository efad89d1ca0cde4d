import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import norm as sparse_norm

import sgefem.discretization
import sgefem.linalg
from oracles import (bordered_lu_solve, min_generalized_eig,
                     mu_scaled_factors)
from sgefem.cli import DEFAULT_IOTAS
from sgefem.discretization import Discretization
from sgefem.linalg import (SaddleFactors, SaddleSystem, SolverBreakdown,
                           shifted_pcg, solve_saddle, spd_factor)
from sgefem.mesh import Mesh, build_uniform_unit_square

GRID_IOTAS = (1.0, 1e-2, 1e-8)
GRID_LAMBDAS = (1.0, 1e4, 1e8)


def example2_system(n=2, lam=1.0, iota=1e-2):
    disc = Discretization(build_uniform_unit_square(n), "example2")
    return SaddleSystem(disc.factors(iota), lam)


def with_load(sys_, rhs_u, lam):
    """The system of ``sys_`` (built with ``lam``) with the load
    ``rhs_u``, on factors of its own."""
    f = sys_.factors
    return SaddleSystem(SaddleFactors(f.A, f.B, f.G, f.m, rhs_u), lam)


def test_homogeneous_rhs_gives_zero():
    sys_ = example2_system(lam=1.0)
    sys_ = with_load(sys_, np.zeros(sys_.factors.n_u), 1.0)
    u, p, xi = solve_saddle(sys_)
    assert np.all(u == 0.0) and np.all(p == 0.0) and xi == 0.0


def test_solution_matches_dense_lu_oracle():
    sys_ = example2_system()
    u, p, xi = solve_saddle(sys_)
    S = sys_.block_matrix().toarray()
    x = np.linalg.solve(S, sys_.full_rhs())
    got = np.concatenate([u, p, [xi]])
    assert np.linalg.norm(got - x) < 1e-10 * np.linalg.norm(x)


def test_energy_identity():
    sys_ = example2_system()
    u, p, _ = solve_saddle(sys_)
    lhs = u @ (sys_.factors.A @ u) + p @ (sys_.C @ p)
    rhs = sys_.factors.rhs_u @ u
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_pressure_mean_constraint():
    sys_ = example2_system(n=4)
    _, p, _ = solve_saddle(sys_)
    assert abs(sys_.factors.m @ p) <= 1e-12 * np.linalg.norm(p)


def test_residual_of_block_system():
    sys_ = example2_system(n=4, lam=1e8, iota=1e-8)
    tol = sgefem.linalg.TOLERANCE
    u, p, xi = solve_saddle(sys_)
    S = sys_.block_matrix()
    rhs = sys_.full_rhs()
    x = np.concatenate([u, p, [xi]])
    assert np.linalg.norm(S @ x - rhs) <= tol * np.linalg.norm(rhs)


def test_fixed_point_under_residual_correction():
    sys_ = example2_system(n=2, lam=1.0)
    tol = sgefem.linalg.TOLERANCE
    u, p, xi = solve_saddle(sys_)
    x = np.concatenate([u, p, [xi]])
    r = sys_.full_rhs() - sys_.block_matrix() @ x
    f = sys_.factors
    sys_ = with_load(sys_, f.rhs_u + r[:f.n_u], 1.0)
    u2, p2, xi2 = solve_saddle(sys_)
    x2 = np.concatenate([u2, p2, [xi2]])
    assert np.linalg.norm(x2 - x) <= tol * np.linalg.norm(x)


def test_scale_equivariance():
    sys_ = example2_system(n=2, lam=1.0)
    u, p, xi = solve_saddle(sys_)
    u8, p8, xi8 = solve_saddle(with_load(sys_, 8.0 * sys_.factors.rhs_u,
                                         1.0))
    # scaling by a power of two is exact through every solver operation
    assert np.array_equal(u8, 8.0 * u)
    assert np.array_equal(p8, 8.0 * p)
    assert xi8 == 8.0 * xi


def test_inconsistent_blocks_rejected():
    f = example2_system().factors
    with pytest.raises(ValueError, match="dimensions"):
        SaddleFactors(f.A, f.B[:, :-2], f.G, f.m, f.rhs_u)


def test_block_matrix_is_symmetric():
    S = example2_system().block_matrix()
    assert (S != S.T).nnz == 0


def test_breakdown_signaled_for_singular_system():
    n = 6
    A = sparse.csr_matrix((n, n))
    B = sparse.csr_matrix((2, n))
    C = sparse.identity(2, format="csr")
    sys_ = SaddleSystem(SaddleFactors(A, B, C, np.ones(2), np.ones(n)), 1.0)
    with pytest.raises(SolverBreakdown) as exc:
        solve_saddle(sys_)
    # the factorization of A fails before the first iteration
    assert exc.value.residual == np.inf and exc.value.iterations == 0


def test_pcg_miss_is_a_breakdown_carrying_its_record(monkeypatch):
    sys_ = example2_system(n=8, lam=1e4)
    monkeypatch.setattr(sgefem.linalg, "MAX_ITER", 1)
    _, _, _, iterations, err = shifted_pcg([sys_])[0]
    assert err > 1e-10
    with pytest.raises(SolverBreakdown) as exc:
        solve_saddle(sys_)
    assert exc.value.residual == err
    assert exc.value.iterations == iterations


# The solver on the blocks of a shear modulus mu (Discretization.solve
# solves the mu = 1 blocks at lambda / mu instead).
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
        f = mu_scaled_factors(disc, mu, iota)
        # the first solve solves the three lambdas as one family
        systems = [SaddleSystem(f, lam) for lam in GRID_LAMBDAS]
        for lam, sys_ in zip(GRID_LAMBDAS, systems):
            u, p, xi = solve_saddle(sys_)
            u_ref, p_ref, _, err_ref = bordered_lu_solve(sys_)
            assert np.linalg.norm(u - u_ref) \
                <= u_rtol * np.linalg.norm(u_ref), (iota, lam)
            assert sys_.backward_error(u, p)[1] <= 1e-15, (iota, lam)
            assert err_ref <= 1e-15, (iota, lam)


def test_factors_preconditioning_with_c_give_the_same_iterates():
    sys_ = example2_system(n=8, lam=1e4)
    f = sys_.factors
    bare = SaddleSystem(SaddleFactors(f.A, f.B, sys_.C, f.m, f.rhs_u), 1.0)
    u, _, _, iterations, err = shifted_pcg([bare])[0]
    u_ref, _, _, iterations_ref, _ = shifted_pcg([sys_])[0]
    # bare takes C = G / lambda for its preconditioner, at shift 1, and
    # scaling the preconditioner by lambda and the shift by 1 / lambda
    # together leaves CG unchanged
    assert iterations == iterations_ref
    assert err <= 1e-15
    assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)


def test_solve_drops_a_drifted_mean(monkeypatch):
    # an iterate whose p drifted off the zero-mean constraint is
    # returned with its m-component dropped
    sys_ = example2_system(n=4)
    m = sys_.factors.m
    u0, p0, _ = solve_saddle(sys_)
    assert abs(m @ p0) <= 1e-12 * np.linalg.norm(p0)

    def drifting(systems):
        for system in systems:
            u, p, xi, iterations, err = shifted_pcg([system])[0]
            system.result = (u, p + 1e-3 * np.linalg.norm(p) * m, xi,
                             iterations, err)

    monkeypatch.setattr(sgefem.linalg, "shifted_pcg", drifting)
    # a new system: sys_ keeps the result of its first solve
    u, p, _ = solve_saddle(SaddleSystem(sys_.factors, 1.0))
    assert np.array_equal(u, u0)
    assert abs(m @ p) <= 1e-12 * np.linalg.norm(p)
    assert np.max(np.abs(p - p0)) <= 1e-12 * np.max(np.abs(p0))


def test_pcg_continues_past_a_rise_of_the_backward_error():
    sys_ = example2_system(n=8, lam=1e4)
    _, _, _, iterations_ref, err_ref = shifted_pcg([sys_])[0]
    assert iterations_ref >= 3
    true_error = sys_.backward_error
    calls = []

    def rising_once(u, p):
        # the second iterate reads as worse than the first
        calls.append(None)
        xi, err = true_error(u, p)
        return xi, 1e3 * err if len(calls) == 3 else err

    sys_.backward_error = rising_once
    _, _, _, iterations, err = shifted_pcg([sys_])[0]
    assert (iterations, err) == (iterations_ref, err_ref)


def test_backward_error_from_blocks_matches_bordered_matrix():
    sys_ = example2_system(n=4, lam=1e4, iota=1e-2)
    S, b = sys_.block_matrix(), sys_.full_rhs()
    norm_S = sparse_norm(S, np.inf)
    assert sys_.norm_inf == pytest.approx(norm_S, rel=1e-14)
    n_u = sys_.factors.n_u
    x = np.random.default_rng(5).standard_normal(S.shape[0])
    xi, got = sys_.backward_error(x[:n_u], x[n_u:-1])
    # xi is the least-squares multiplier of the pressure rows
    pressure_rows = slice(n_u, -1)
    r_drawn = (S @ x - b)[pressure_rows]
    x[-1] = xi
    r_fit = (S @ x - b)[pressure_rows]
    assert np.linalg.norm(r_fit) <= np.linalg.norm(r_drawn)
    want = np.linalg.norm(S @ x - b) \
        / (norm_S * np.linalg.norm(x) + np.linalg.norm(b))
    assert got == pytest.approx(want, rel=1e-12)


def test_pcg_starts_converged_when_mean_zero_space_is_trivial():
    # n = 2 has one pressure unknown, so the only zero-mean pressure is 0
    sys_ = example2_system(n=2)
    assert sys_.factors.n_p == 1
    u, p, _, iterations, err = shifted_pcg([sys_])[0]
    assert iterations == 0 and np.all(p == 0.0)
    assert err <= 1e-15


def test_pcg_iterations_robust_in_h_iota_lambda():
    # the inf-sup bound makes G an h-, iota- and lambda-uniform
    # preconditioner of the pressure Schur complement
    worst = {}
    for n in (8, 16, 32, 64):
        disc = Discretization(build_uniform_unit_square(n), "example1")
        for iota in GRID_IOTAS:
            f = disc.factors(iota)
            family = shifted_pcg([SaddleSystem(f, lam)
                                  for lam in GRID_LAMBDAS])
            for lam, (_, _, _, iterations, err) in zip(GRID_LAMBDAS, family):
                assert err <= 1e-15, (n, iota, lam)
                worst[n, iota, lam] = iterations
    assert max(worst.values()) <= 12, worst


def test_a_factored_once_per_iota_and_released(monkeypatch):
    splu = sgefem.linalg.splu
    make = sgefem.discretization.SaddleFactors
    factored, made = [], []

    def counting_splu(M, *args, **kwargs):
        factored.append(M.shape[0])
        return splu(M, *args, **kwargs)

    def recording(*args):
        f = make(*args)
        made.append(weakref.ref(f))
        return f

    monkeypatch.setattr(sgefem.linalg, "splu", counting_splu)
    monkeypatch.setattr(sgefem.discretization, "SaddleFactors", recording)
    disc = Discretization(build_uniform_unit_square(4), "example1")
    n_u = disc.vmap.n_u
    # refcounting alone must free the factors: a reference cycle
    # between them and their systems keeps them
    gc.disable()
    try:
        cells = disc.solve(1.0, (1.0, 1e4, 1e8), (1.0, 1e-8))
        assert factored.count(n_u) == 2
        assert len(made) == 2 and all(r() is None for r in made)
    finally:
        gc.enable()
    assert len(cells) == 6
    assert not any(isinstance(c, Exception) for c in cells.values())


def test_a_breakdown_holds_no_factors(monkeypatch):
    # a cell's breakdown is kept without the frames of its traceback or
    # of the failure it wraps, which would hold A's factor
    factor = sgefem.linalg.spd_factor
    make = sgefem.discretization.SaddleFactors
    made = []

    def failing_g(M):
        if M.shape[0] == disc.qmap.n_p:
            raise RuntimeError("forced")
        return factor(M)

    def recording(*args):
        f = make(*args)
        made.append(weakref.ref(f))
        return f

    monkeypatch.setattr(sgefem.linalg, "spd_factor", failing_g)
    monkeypatch.setattr(sgefem.discretization, "SaddleFactors", recording)
    disc = Discretization(build_uniform_unit_square(4), "example1")
    gc.disable()
    try:
        cells = disc.solve(1.0, (1.0, 1e4), (1.0, 1e-8))
        assert len(made) == 2 and all(r() is None for r in made)
    finally:
        gc.enable()
    for cell in cells.values():
        assert isinstance(cell, SolverBreakdown)
        assert str(cell).startswith("factorization failed: forced")


def test_released_parts_are_rebuilt_for_a_later_iota(monkeypatch):
    # solve drops the a- and b-parts once its last iota has combined
    # them; a later iota rebuilds them into the matrices a fresh mesh
    # gives
    assemble = sgefem.discretization.assemble_a_parts
    built = []

    def counting(*args):
        built.append(1)
        return assemble(*args)

    monkeypatch.setattr(sgefem.discretization, "assemble_a_parts", counting)
    disc = Discretization(build_uniform_unit_square(4), "example1")
    disc.solve(1.0, [1e4], [1.0])
    assert "a_parts" not in vars(disc) and "b_parts" not in vars(disc)
    assert len(built) == 1
    got = disc.factors(1e-8)
    assert len(built) == 2
    monkeypatch.undo()
    fresh = Discretization(build_uniform_unit_square(4),
                           "example1").factors(1e-8)
    for name in ("A", "B", "G"):
        M, R = getattr(got, name), getattr(fresh, name)
        for array in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(M, array), getattr(R, array)), \
                (name, array)
    assert np.array_equal(got.rhs_u, fresh.rhs_u)
    u, p, _ = solve_saddle(SaddleSystem(got, 1e4))
    u_ref, p_ref, _ = solve_saddle(SaddleSystem(fresh, 1e4))
    assert np.array_equal(u, u_ref) and np.array_equal(p, p_ref)


def test_a_solves_per_iota_do_not_depend_on_the_lambdas(monkeypatch):
    splu = sgefem.linalg.splu
    solves = []

    class CountedFactor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(len(rhs))
            return self.lu.solve(rhs)

    monkeypatch.setattr(sgefem.linalg, "splu",
                        lambda *args, **kwargs:
                        CountedFactor(splu(*args, **kwargs)))

    def a_solves(lams, iota):
        disc = Discretization(build_uniform_unit_square(8), "example1")
        f = disc.factors(iota)
        solves.clear()
        # the first solve solves the lambdas alive as one family
        for sys_ in [SaddleSystem(f, lam) for lam in lams]:
            solve_saddle(sys_)
        return solves.count(disc.vmap.n_u)

    for iota in GRID_IOTAS:
        alone = [a_solves([lam], iota) for lam in GRID_LAMBDAS]
        together = a_solves(GRID_LAMBDAS, iota)
        # the lambdas share one sequence, as long as the longest needs
        assert together == max(alone) == alone[-1], (iota, alone, together)


@pytest.mark.parametrize("mu", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("example", ["example1", "example2"])
def test_a_lambda_solved_alone_or_in_a_family_changes_no_bit(example, mu):
    # each lambda reads the same steps of the lambda = infinity sequence,
    # whichever lambdas run beside it and in whatever order
    disc = Discretization(build_uniform_unit_square(8), example)
    for iota in GRID_IOTAS:
        f = mu_scaled_factors(disc, mu, iota)
        together = shifted_pcg([SaddleSystem(f, lam) for lam in GRID_LAMBDAS])
        alone = [shifted_pcg([SaddleSystem(f, lam)])[0]
                 for lam in GRID_LAMBDAS]
        backward = shifted_pcg([SaddleSystem(f, lam)
                                for lam in GRID_LAMBDAS[::-1]])[::-1]
        for lam, want, *got in zip(GRID_LAMBDAS, together, alone,
                                   backward):
            for u, p, xi, iterations, err in got:
                assert np.array_equal(u, want[0]), (iota, lam)
                assert np.array_equal(p, want[1]), (iota, lam)
                assert (xi, iterations, err) == want[2:], (iota, lam)


def test_solve_holds_no_vector_per_step():
    # example1 at lambda = 1e4, iota = 1, n = 32 takes 9 steps; with A
    # and G factored, the solve's numpy arrays peak at a fixed number of
    # n_u-vectors (9.6 here), which would grow by one per step if each
    # step's A^-1 B^T z_k were kept
    disc = Discretization(build_uniform_unit_square(32), "example1")
    f = disc.factors(1.0)
    f.solve_a                           # factors A
    f.precondition(np.zeros(f.n_p))     # and G
    sys_ = SaddleSystem(f, 1e4)
    tracemalloc.start()
    try:
        solve_saddle(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sys_.result[3] == 9
    assert peak < 12 * f.n_u * 8


def test_lambda_order_changes_no_bit():
    def sweep(lams):
        disc = Discretization(build_uniform_unit_square(8), "example1")
        out = {}
        for iota in GRID_IOTAS:
            f = disc.factors(iota)
            systems = [SaddleSystem(f, lam) for lam in lams]
            for lam, sys_ in zip(lams, systems):
                out[iota, lam] = solve_saddle(sys_) + (sys_.result[3],)
        return out

    up, down = sweep(GRID_LAMBDAS), sweep(GRID_LAMBDAS[::-1])
    for key, (u, p, xi, iterations) in up.items():
        u2, p2, xi2, iterations2 = down[key]
        assert np.array_equal(u, u2) and np.array_equal(p, p2), key
        assert (xi, iterations) == (xi2, iterations2), key


@pytest.mark.parametrize("mu", [0.0, -1.0])
def test_system_rejects_non_positive_mu(mu):
    disc = Discretization(build_uniform_unit_square(2), "example2")
    with pytest.raises(ValueError, match="mu"):
        disc.solve(mu, [1e4], [1e-2])


@pytest.mark.parametrize("mu", [np.inf, np.nan])
def test_system_rejects_non_finite_mu(mu):
    disc = Discretization(build_uniform_unit_square(2), "example2")
    with pytest.raises(ValueError, match="finite mu"):
        disc.solve(mu, [1e4], [1e-2])


@pytest.mark.parametrize("lam, iota", [(np.nan, 1e-2), (1e4, np.nan),
                                       (1e4, np.inf), (1e4, -np.inf)],
                         ids=["lambda-nan", "iota-nan", "iota-inf",
                              "iota-minus-inf"])
def test_invalid_lambda_or_iota_is_a_value_error(lam, iota):
    # refused before anything is combined or factored, not returned as
    # a solver breakdown
    disc = Discretization(build_uniform_unit_square(2), "example2")
    with pytest.raises(ValueError, match="lambda > 0|finite iota"):
        SaddleSystem(disc.factors(iota), lam)
    with pytest.raises(ValueError, match="lambda > 0|finite iota"):
        disc.solve(1.0, [lam], [iota])


@pytest.mark.parametrize("mu", [1e4, 1e8])
def test_solve_resolves_the_pressure_at_a_large_mu(mu):
    # on the blocks of mu, A = 2 mu (...) sets ||S|| in the backward
    # error that stops CG, which met its floor with p off by 4.5e-3 at
    # mu = 1e4 and at p = 0 at 1e8; solved at lambda / mu, p is that of
    # the bordered LU of those blocks.  The LU's own p is off by 1.6e-8
    # and 1.9e-4 until refined (its normwise backward error is 1e-18
    # from the start, as p is small against u), so all three refinement
    # steps are taken, which bring it within 1e-10 of a dense solve
    # refined in long double
    disc = Discretization(build_uniform_unit_square(8), "example1")
    u, p = disc.solve(mu, [1e4], [1.0])[1e4, 1.0]
    system = SaddleSystem(mu_scaled_factors(disc, mu, 1.0), 1e4)
    u_ref, p_ref, _, _ = bordered_lu_solve(system, tol=0.0)
    assert np.linalg.norm(p - p_ref) <= 1e-8 * np.linalg.norm(p_ref)
    assert np.linalg.norm(u - u_ref) <= 1e-8 * np.linalg.norm(u_ref)


def test_incompressible_limit_and_iota_zero_are_solved():
    disc = Discretization(build_uniform_unit_square(4), "example2")
    cells = disc.solve(1.0, [np.inf], [0.0, 1e-2])
    for iota in (0.0, 1e-2):
        u, p = cells[np.inf, iota]
        assert np.all(np.isfinite(u)) and np.linalg.norm(u) > 0.0, iota
        assert np.all(np.isfinite(p)), iota


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_matrix_is_a_factorization_failure(bad):
    # SuperLU is never handed non-finite data: spd_factor raises the
    # RuntimeError of a failed factorization, which solve_saddle reports
    # as a breakdown before the first iteration
    sys_ = example2_system(n=4, lam=1e4)
    f = sys_.factors
    A = f.A.copy()
    A.data[A.indptr[3]] = bad
    with pytest.raises(RuntimeError, match="non-finite"):
        spd_factor(A)
    broken = SaddleSystem(SaddleFactors(A, f.B, f.G, f.m, f.rhs_u), 1e4)
    with pytest.raises(SolverBreakdown, match="non-finite") as exc:
        solve_saddle(broken)
    assert exc.value.residual == np.inf and exc.value.iterations == 0


@pytest.mark.parametrize("which", ["A", "G"])
def test_spd_factor_of_the_transpose_view_is_the_csc_copy(which):
    # a bitwise-symmetric CSR matrix's transpose holds its CSC arrays,
    # so factoring that view instead of a copy changes no bit
    disc = Discretization(build_uniform_unit_square(8), "example1")
    M = getattr(disc.factors(1e-2), which)
    assert (M != M.T).nnz == 0
    view = M.T
    assert np.shares_memory(view.data, M.data)
    assert np.shares_memory(view.indices, M.indices)
    rhs = np.random.default_rng(8).standard_normal((M.shape[0], 3))
    copied = sgefem.linalg.splu(M.tocsc(),
                                options=sgefem.linalg.SUPERLU_OPTIONS)
    assert np.array_equal(spd_factor(M).solve(rhs), copied.solve(rhs))


#: a fresh process factors example2's A at n = 32 through spd_factor and
#: prints its RSS in MiB after a trim, right after the factor, and after a
#: second trim
_PANEL_SCRATCH = """
import json
import sgefem.linalg
from sgefem.discretization import Discretization
from sgefem.mesh import build_uniform_unit_square


def rss_mib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0


disc = Discretization(build_uniform_unit_square(32), "example2")
A = disc.factors(1e-6).A
sgefem.linalg._MALLOC_TRIM(0)
before = rss_mib()
lu = sgefem.linalg.spd_factor(A)
factored = rss_mib()
sgefem.linalg._MALLOC_TRIM(0)
print(json.dumps([before, factored, rss_mib()]))
"""


@pytest.mark.skipif(sgefem.linalg._MALLOC_TRIM is None
                    or not os.path.exists("/proc/self/status"),
                    reason="needs glibc's malloc_trim and /proc/self/status")
def test_factor_peaks_near_the_factor_it_keeps():
    # what the trim right after spd_factor frees is SuperLU's panel work
    # arrays, held beside the finished L + U (21.8 MiB here): 6.9 MiB at
    # SuperLU's built-in panel of 20 columns, about 1.9 MiB at 2
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # the child fails on a RuntimeWarning, as pytest does (pyproject)
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, "-c", _PANEL_SCRATCH], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    before, factored, trimmed = json.loads(proc.stdout)
    assert trimmed - before > 15.0
    assert factored - trimmed < 4.0


def test_panel_width_is_within_superlus_built_in_width():
    # SuperLU sizes some of its arrays by its built-in panel of 20
    # columns, and a wider panel overruns them
    width = sgefem.linalg.SUPERLU_OPTIONS["PanelSize"]
    assert isinstance(width, int) and 1 <= width <= 20


class _NoTrimLibrary:
    """A C library without malloc_trim."""


def _no_process_library(name):
    raise OSError("no process library")


@pytest.mark.parametrize("cdll", [lambda name: _NoTrimLibrary(),
                                  _no_process_library],
                         ids=["no-symbol", "no-library"])
def test_heap_trim_is_a_no_op_without_malloc_trim(monkeypatch, cdll):
    monkeypatch.setattr(sgefem.linalg.ctypes, "CDLL", cdll)
    assert sgefem.linalg._bind_malloc_trim() is None
    monkeypatch.setattr(sgefem.linalg, "_MALLOC_TRIM", None)
    M = sparse.diags([2.0, 3.0, 4.0], format="csr")
    assert np.array_equal(spd_factor(M).solve(np.ones(3)),
                          [0.5, 1.0 / 3.0, 0.25])


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


def test_lambda_cells_share_the_row_sums_of_a(monkeypatch):
    # the |A| and |B| row sums of the backward error's ||S|| belong to
    # the (mu, iota) and are formed with its factors, before A is
    # factored; only those of C = G / lambda are per lambda
    disc = Discretization(build_uniform_unit_square(4), "example2")
    summed = []
    row_sums = sgefem.linalg._row_sums

    def counting(M):
        summed.append(M)
        return row_sums(M)

    monkeypatch.setattr(sgefem.linalg, "_row_sums", counting)
    f = disc.factors(1e-2)
    A = f.A
    for lam in GRID_LAMBDAS:
        solve_saddle(SaddleSystem(f, lam))
    passes = [M is A for M in summed]
    assert sum(passes) == 1
    assert len(passes) == 2 + len(GRID_LAMBDAS)


def _scipy_row_sums(M):
    return np.asarray(abs(M).sum(axis=1)).ravel()


@pytest.mark.parametrize("example", sorted(DEFAULT_IOTAS))
@pytest.mark.parametrize("n, jitter", [(8, False), (32, False), (6, True)],
                         ids=["n8", "n32", "jittered-n6"])
def test_row_sums_of_a_are_scipys_bit_for_bit(example, n, jitter):
    # the copy-free sums reduce |A.data| as abs(A).sum(axis=1) does, at
    # every iota of the example's study grid
    mesh = build_uniform_unit_square(n)
    if jitter:
        rng = np.random.default_rng(5)
        verts = mesh.vertices.copy()
        inner = ~mesh.vertex_is_boundary
        verts[inner] += rng.uniform(-0.25, 0.25, (inner.sum(), 2)) / n
        mesh = Mesh(verts, mesh.triangles)
    disc = Discretization(mesh, example)
    for iota in DEFAULT_IOTAS[example]:
        f = disc.factors(iota)
        rows_a = sgefem.linalg._row_sums(f.A)
        assert np.array_equal(rows_a, _scipy_row_sums(f.A)), iota
        cols_b = np.asarray(abs(f.B).sum(axis=0)).ravel()
        assert np.array_equal(f.abs_sums[0], rows_a + cols_b), iota
        assert np.array_equal(f.abs_sums[1], _scipy_row_sums(f.B)), iota


def test_row_sums_with_empty_rows_are_scipys():
    # the zero A of a singular system has only empty rows; the mixed
    # matrix has empty rows first, in the middle and last
    zero = sparse.csr_matrix((6, 6))
    mixed = sparse.csr_matrix(np.array([[0.0, 0.0, 0.0],
                                        [-1.5, 0.0, 2.0],
                                        [0.0, 0.0, 0.0],
                                        [0.0, -3.0, 0.0],
                                        [0.0, 0.0, 0.0]]))
    for M in (zero, mixed):
        assert np.array_equal(sgefem.linalg._row_sums(M),
                              _scipy_row_sums(M))
    assert SaddleFactors(zero, sparse.csr_matrix((2, 6)),
                         sparse.identity(2, format="csr"), np.ones(2),
                         np.ones(6)).abs_sums[0].tolist() == [0.0] * 6

import numpy as np
import pytest
from scipy.linalg import null_space

from sgefem.discretization import Discretization
from sgefem.mesh import build_uniform_unit_square
from sgefem.quadrature import edge_rule
from sgefem.verify import (UNISOLVENCE_COND_BOUND, VerificationReport,
                           _infsup_from_parts, _infsup_parts,
                           check_unisolvence, check_weak_continuity,
                           random_shape_regular_triangles, run_verification)
from sgefem.mesh import Mesh
from oracles import (dense_infsup_from_parts, estimate_infsup,
                     loop_weak_continuity)

REFERENCE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def _disc(n):
    return Discretization(build_uniform_unit_square(n))


def test_reference_triangle_condition_regression():
    # frozen on the first verified run; a drift means the element
    # construction changed
    report = check_unisolvence(triangles=np.empty((0, 3, 2)))
    by_name = {e.name: e for e in report.entries}
    assert by_name["unisolvence_reference_cond"].value \
        == pytest.approx(7232.2082, rel=1e-4)


def test_random_shape_regular_sample_passes():
    report = check_unisolvence(count=100, seed=0)
    assert report.passed
    by_name = {e.name: e for e in report.entries}
    assert by_name["unisolvence_singular_count"].value == 0.0
    assert by_name["unisolvence_max_cond"].value < UNISOLVENCE_COND_BOUND


def test_degenerate_triangle_reported_not_thrown():
    tris = np.array([REFERENCE,
                     [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]])  # zero area
    report = check_unisolvence(triangles=tris)
    assert not report.passed
    by_name = {e.name: e for e in report.entries}
    assert by_name["unisolvence_singular_count"].value == 1.0
    # the healthy triangle still contributes a finite maximum
    assert np.isfinite(by_name["unisolvence_max_cond"].value)


def test_sample_generator_respects_aspect_limit():
    tris = random_shape_regular_triangles(50, seed=3, aspect_limit=5.0)
    for verts in tris:
        e = verts[[2, 0, 1]] - verts[[1, 2, 0]]
        lens = np.hypot(e[:, 0], e[:, 1])
        d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        assert lens.max() / (2.0 * area / (0.5 * lens.sum())) <= 5.0


@pytest.mark.parametrize("n", [2, 4, 8])
def test_weak_continuity_on_uniform_meshes(n):
    report = check_weak_continuity(_disc(n))
    assert report.passed
    assert report.entries[0].value < 1e-10


def test_weak_continuity_catches_flipped_normal():
    mesh = build_uniform_unit_square(4)
    e = int(np.where(~mesh.edge_is_boundary)[0][0])
    report = check_weak_continuity(Discretization(mesh), flip_edge=e)
    assert not report.passed
    assert report.entries[0].value > 1e-3


@pytest.mark.parametrize("n", [2, 5])
def test_weak_continuity_matches_per_edge_loop(n):
    # every interior edge flipped in turn on a mesh with jittered
    # interior vertices: the batched measure is the per-edge one
    mesh = build_uniform_unit_square(n)
    verts = mesh.vertices.copy()
    inner = ~mesh.vertex_is_boundary
    rng = np.random.default_rng(n)
    verts[inner] += rng.uniform(-0.25, 0.25, (inner.sum(), 2)) / n
    mesh = Mesh(verts, mesh.triangles)
    for e in np.flatnonzero(~mesh.edge_is_boundary)[::3]:
        value = check_weak_continuity(Discretization(mesh),
                                      flip_edge=int(e)).entries[0]
        assert value.value == pytest.approx(
            loop_weak_continuity(mesh, flip_edge=int(e)), rel=1e-12)
    assert check_weak_continuity(Discretization(mesh)).passed


def test_infsup_positive_across_iota():
    mesh = build_uniform_unit_square(4)
    for iota in (1.0, 1e-2, 1e-4, 1e-6):
        assert estimate_infsup(mesh, iota) > 0.0


def test_infsup_value_regression():
    beta = estimate_infsup(build_uniform_unit_square(4), 1.0)
    assert beta == pytest.approx(0.7777017, rel=1e-5)


def test_infsup_mesh_and_iota_robustness():
    betas = {}
    for n in (4, 8):
        parts = _infsup_parts(_disc(n))
        for iota in (1.0, 1e-2, 1e-4, 1e-6):
            betas[n, iota] = _infsup_from_parts(parts, iota)
    for iota in (1.0, 1e-2, 1e-4, 1e-6):
        ratio = betas[8, iota] / betas[4, iota]
        assert 0.5 <= ratio <= 2.0
    vals = [betas[8, iota] for iota in (1.0, 1e-2, 1e-4, 1e-6)]
    assert max(vals) / min(vals) <= 4.0


def test_infsup_invariant_under_pressure_permutation():
    mesh = build_uniform_unit_square(4)
    (b0, b2), gv, (mp, kp), Z = _infsup_parts(Discretization(mesh))
    n_p = mp.shape[0]
    rng = np.random.default_rng(8)
    perm = rng.permutation(n_p)
    from sgefem.assembly import mean_constraint_vector
    from sgefem.space import build_qdofmap
    mvec = mean_constraint_vector(mesh, build_qdofmap(mesh))
    Zp = null_space(mvec[perm][None, :])
    parts_p = ((b0[perm], b2[perm]), gv,
               (mp[perm][:, perm], kp[perm][:, perm]), Zp)
    beta = _infsup_from_parts(((b0, b2), gv, (mp, kp), Z), 1e-2)
    beta_p = _infsup_from_parts(parts_p, 1e-2)
    assert beta_p == pytest.approx(beta, rel=1e-10)


def test_infsup_signals_indefinite_gram():
    mesh = build_uniform_unit_square(4)
    (b0, b2), (g1, g2), cq, Z = _infsup_parts(Discretization(mesh))
    with pytest.raises(ValueError, match="positive definite"):
        _infsup_from_parts(((b0, b2), (-g1, -g2), cq, Z), 1.0)


@pytest.mark.parametrize("scale", [1e-3, 0.0], ids=["indefinite",
                                                     "singular"])
def test_infsup_pivot_check_rejects_non_spd_gram(scale):
    # g1 - 1e-3 g2 has pivots of both signs at n = 4; the zero matrix
    # has no pivot at all
    (b0, b2), (g1, g2), cq, Z = _infsup_parts(_disc(4))
    parts = ((b0, b2), (scale * g1, -scale * g2), cq, Z)
    with pytest.raises(ValueError, match="positive definite"):
        _infsup_from_parts(parts, 1.0)


VERIFY_GRID_IOTAS = (1.0, 1e-1, 1e-2, 1e-4, 1e-6, 1e-8)


@pytest.mark.parametrize("n", range(3, 13))
def test_sparse_infsup_matches_dense_oracle(n):
    parts = _infsup_parts(_disc(n))
    for iota in VERIFY_GRID_IOTAS:
        assert _infsup_from_parts(parts, iota) == pytest.approx(
            dense_infsup_from_parts(parts, iota), rel=1e-10)


def test_sparse_infsup_matches_dense_oracle_at_n16():
    # the zero-mean constant; constraining m^T G_Q p = 0 instead of
    # m^T p = 0 reads 0.475 here
    parts = _infsup_parts(_disc(16))
    beta = _infsup_from_parts(parts, 1.0)
    assert beta == pytest.approx(dense_infsup_from_parts(parts, 1.0),
                                 rel=1e-10)
    assert beta == pytest.approx(0.5408, abs=1e-4)


def test_infsup_needs_interior_pressure_space():
    with pytest.raises(ValueError, match="at least two"):
        estimate_infsup(build_uniform_unit_square(2), 1.0)


def test_traces_single_valued_at_gauss_points():
    # C0 conformity: values from both sides of every interior edge
    # agree pointwise, for every basis function
    from sgefem.element import batched_scalar_coeff, modal_tables

    mesh = build_uniform_unit_square(2)
    coeff = batched_scalar_coeff(mesh)[mesh.shape_of_triangle]
    t, _ = edge_rule(5)
    V, E, T = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    etri = mesh.edge_of_triangle
    entities = np.concatenate([mesh.triangles, V + etri, V + E + etri,
                               (V + 2 * E + np.arange(T))[:, None]], axis=1)
    for e in np.where(~mesh.edge_is_boundary)[0]:
        lo, hi = mesh.edges[e]
        pts = np.outer(1.0 - t, mesh.vertices[lo]) \
            + np.outer(t, mesh.vertices[hi])
        traces = {}
        for k in mesh.triangles_of_edge[e]:
            G = mesh.bary_grads[k]
            centroid = mesh.tri_coords[k].mean(axis=0)
            bary = 1.0 / 3.0 + (pts - centroid) @ G.T
            val = modal_tables(bary, 0) @ coeff[k]
            for j in range(10):
                g = int(entities[k, j])
                if g in traces:
                    assert np.max(np.abs(val[:, j] - traces[g])) < 1e-12
                else:
                    traces[g] = val[:, j]


def test_full_report_passes_and_roundtrips(tmp_path):
    report = run_verification()
    assert report.passed
    text = report.as_text()
    assert "overall: pass" in text
    assert "sqrt(2)" in text
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "check,value,threshold,pass"
    assert len(lines) == len(report.entries) + 1
    assert all(line.endswith(("true", "false")) for line in lines[1:])


def test_one_mesh_and_one_coefficient_pass_per_n(monkeypatch):
    import sgefem.discretization
    import sgefem.verify

    built, coeffs = [], []
    build, coeff = (sgefem.verify.build_uniform_unit_square,
                    sgefem.discretization.batched_scalar_coeff)

    def counting_build(n):
        built.append(n)
        return build(n)

    def counting_coeff(mesh):
        coeffs.append(mesh.num_triangles)
        return coeff(mesh)

    monkeypatch.setattr(sgefem.verify, "build_uniform_unit_square",
                        counting_build)
    monkeypatch.setattr(sgefem.discretization, "batched_scalar_coeff",
                        counting_coeff)
    report = run_verification(continuity_ns=(2, 3, 4), infsup_ns=(3, 4),
                              infsup_iotas=(1.0, 1e-4))
    assert report.passed
    # continuity and inf-sup share the discretization of each mesh
    assert built == [2, 3, 4]
    assert coeffs == [2 * n * n for n in (2, 3, 4)]


def test_report_deterministic():
    a = run_verification(seed=0)
    b = run_verification(seed=0)
    assert a.as_text() == b.as_text()


def test_report_flags_injected_fault():
    # the flip applies to the first weak-continuity mesh (n=2)
    mesh = build_uniform_unit_square(2)
    e = int(np.where(~mesh.edge_is_boundary)[0][3])
    report = run_verification(flip_edge=e)
    assert not report.passed
    assert "FAIL" in report.as_text()


def test_report_add_rejects_unknown_op():
    report = VerificationReport()
    with pytest.raises(ValueError, match="op"):
        report.add("x", 1.0, 2.0, op="<")

import numpy as np
import pytest

import qracah as qr
from qracah import transform as tr


def test_k_matrix_first_row_unit_norm(ctx_a):
    """Row zero squares to one: the dual weight at the origin is one and the
    weights sum to the squared norm of the unit polynomial."""
    K = tr.build_k_matrix(ctx_a)
    assert np.sum(K[0] ** 2) == pytest.approx(1.0)


def test_k_matrix_orthogonal_and_real(ctx_a, ctx_b):
    for ctx in (ctx_a, ctx_b):
        K = tr.build_k_matrix(ctx)
        size = K.shape[0]
        assert np.max(np.abs(K.imag)) < 1e-10 * np.max(np.abs(K))
        assert np.linalg.norm(K.T @ K - np.eye(size)) < 1e-8
        assert np.linalg.norm(K @ K.T - np.eye(size)) < 1e-8


def test_k_matrix_transpose_is_dual(ctx_a):
    dual_ctx = tr.transform_context(ctx_a.dual_params)
    K = tr.build_k_matrix(ctx_a)
    Kd = tr.build_k_matrix(dual_ctx)
    assert np.max(np.abs(K.T - Kd)) < 1e-9


def test_kernel_factorization(ctx_a):
    K = tr.build_k_matrix(ctx_a)
    km = tr.forward_kernel(ctx_a)
    dh = np.sqrt(ctx_a.table.delta_hat.astype(complex))
    d = np.sqrt(ctx_a.table.delta.astype(complex))
    assert np.max(np.abs(km - (K * d[None, :] / dh[:, None]))) < 1e-13


def test_round_trip(ctx_a, rng):
    size = len(ctx_a.alcove)
    km, kh = tr.forward_kernel(ctx_a), tr.inverse_kernel(ctx_a)
    assert np.linalg.norm(kh @ km - np.eye(size)) < 1e-9
    f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    assert np.max(np.abs(tr.inverse(ctx_a, tr.forward(ctx_a, f)) - f)) < 1e-9


def test_transform_of_basis_member_is_spike(ctx_a):
    lam = (2, 1)
    i = ctx_a.renorm.position(lam)
    fhat = tr.forward(ctx_a, ctx_a.renorm.values[i])
    expected = np.zeros(len(ctx_a.alcove), dtype=complex)
    expected[i] = np.sqrt(ctx_a.table.one_one) / ctx_a.table.delta_hat[i]
    assert np.max(np.abs(fhat - expected)) < 1e-10 * max(1.0, abs(expected[i]))
    # cross-check through the projection form <f, P_mu> / sqrt(<1, 1>)
    proj = np.array(
        [
            qr.inner_product_sesqui(
                ctx_a.renorm.values[i], ctx_a.renorm.values[k], ctx_a.table.delta
            )
            for k in range(len(ctx_a.alcove))
        ]
    ) / np.sqrt(ctx_a.table.one_one)
    assert np.max(np.abs(fhat - proj)) < 1e-10 * max(1.0, abs(expected[i]))


def test_transform_of_unit_function(ctx_a):
    size = len(ctx_a.alcove)
    fhat = tr.forward(ctx_a, np.ones(size))
    expected = np.zeros(size, dtype=complex)
    expected[0] = np.sqrt(ctx_a.table.one_one)
    assert np.max(np.abs(fhat - expected)) < 1e-10 * abs(expected[0])


def test_plancherel(ctx_a, rng):
    size = len(ctx_a.alcove)
    for _ in range(5):
        f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        assert tr.plancherel_residual(ctx_a, f, g) < 1e-11


def test_diagonalization(ctx_a, ctx_b):
    for ctx in (ctx_a, ctx_b):
        for r in range(1, ctx.params.n + 1):
            rep = tr.diagonalization_report(ctx, r)
            assert rep.forward_residual < 1e-7
            assert rep.backward_residual < 1e-7


def test_self_dual_symmetry_and_involution(ctx_sd):
    K = tr.build_k_matrix(ctx_sd)
    assert np.max(np.abs(K - K.T)) < 1e-9
    km = tr.forward_kernel(ctx_sd)
    size = km.shape[0]
    assert np.linalg.norm(km @ km - np.eye(size)) < 1e-8


def test_racah_kernel_orthogonal_at_positive_weights(config_rpos):
    tab = qr.racah_table(config_rpos)
    assert np.all(tab.delta.real > 0)
    assert np.all(tab.delta_hat.real > 0)
    ctx = tr.racah_transform_context(config_rpos)
    K = tr.build_k_matrix_racah(ctx)
    assert np.max(np.abs(K.imag)) < 1e-12
    assert np.linalg.norm(K.T @ K - np.eye(K.shape[0])) < 1e-8


def test_racah_kernel_orthogonal_generic_scaled(ctx_r):
    """At a sign-mixed degenerate measure the defect is measured against the
    cancellation-free magnitude of the product."""
    K = tr.build_k_matrix_racah(ctx_r)
    size = K.shape[0]
    scale = np.linalg.norm(np.abs(K).T @ np.abs(K))
    assert np.linalg.norm(K.T @ K - np.eye(size)) < 1e-9 * scale


def test_racah_kernel_transpose_is_dual(config_rpos):
    ctx = tr.racah_transform_context(config_rpos)
    dual_ctx = tr.racah_transform_context(config_rpos.dual())
    K = tr.build_k_matrix_racah(ctx)
    Kd = tr.build_k_matrix_racah(dual_ctx)
    assert np.max(np.abs(K.T - Kd)) < 1e-9


def test_racah_monomial_matrix_is_vandermonde_one_var():
    rp = qr.racah_params(g=0.0, g0=0.85, g1=-4.85, g2=0.35, g3=0.25, n=1, N=4)
    xs = qr.racah_grid_points(rp)[:, 0]
    M = np.array([[x ** (2 * mu) for x in xs] for mu in range(rp.N + 1)])
    vander = np.vander(xs ** 2, rp.N + 1, increasing=True).T
    assert np.allclose(M, vander)
    det = np.linalg.det(M)
    assert abs(det) > 1e-6
    cond = np.linalg.cond(M)
    assert np.isfinite(cond)


def test_monomial_grid_matrix_condition_logged(ctx_a, capsys):
    M = qr.monomial_grid_matrix(ctx_a.params)
    cond = np.linalg.cond(M)
    print(f"monomial grid matrix condition number: {cond:.3e}")
    assert np.isfinite(cond)


def test_context_arrays_are_read_only(ctx_a):
    """Contexts are cached and shared, so their family arrays reject
    in-place writes."""
    ctx = tr.transform_context(ctx_a.params)
    with pytest.raises(ValueError):
        ctx.renorm.values[0, 0] = 0.0
    arrays = (ctx.family.values, ctx.family.norms, ctx.renorm.norms, ctx.renorm.at_origin)
    kernels = (tr.forward_kernel(ctx), tr.inverse_kernel(ctx))
    for arr in arrays + (ctx.dual_renorm.values,) + kernels:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_context_cache_is_bounded_and_shared(config_a, family_builds):
    """One bounded cache holds the contexts; transform_context returns the
    cached one with both families built, and the transform then builds
    nothing more."""
    assert tr._context.cache_info().maxsize == tr.CONTEXT_CACHE_SIZE
    ctx = tr.transform_context(config_a)
    assert tr.transform_context(config_a) is ctx
    assert tr._context(config_a) is ctx
    assert family_builds == [config_a, ctx.dual_params]
    f = np.ones(len(ctx.alcove))
    tr.inverse(ctx, tr.forward(ctx, f))
    assert tr.forward_kernel(ctx) is tr.forward_kernel(ctx)
    assert len(family_builds) == 2


def test_forward_builds_no_dual_family(config_a, family_builds):
    ctx = tr._context(config_a)
    fhat = tr.forward(ctx, np.ones(len(ctx.alcove)))
    assert family_builds == [config_a]
    tr.inverse(ctx, fhat)
    assert family_builds == [config_a, ctx.dual_params]

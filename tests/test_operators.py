import itertools

import numpy as np
import pytest

import qracah as qr
from qracah import operators as ops

from conftest import one_var_trig


def test_boundary_vanishing_examples(config_a):
    p = config_a
    grid0 = np.array(p.tau)
    # raising the first part past N kills the coefficient via truncation
    top = (p.N, 0)
    ztop = grid0 * np.asarray(p.q) ** np.array(top)
    assert abs(ops.v_coeff(1, 0, ztop, p)) < 1e-12
    # lowering the last part below zero kills it via the grid offset
    assert abs(ops.v_coeff(-1, p.n - 1, grid0, p)) < 1e-12
    # equal adjacent parts kill the raise of the lower coordinate
    nu = (2, 2)
    z = grid0 * np.asarray(p.q) ** np.array(nu)
    assert abs(ops.v_coeff(1, 1, z, p)) < 1e-12


def test_reslem_scan(config_a, config_b, config_sd):
    for p in (config_a, config_b, config_sd):
        ratio, interior = ops.reslem_scan(p)
        assert interior > 0
        assert ratio < 1e-12


def test_flip_identity(config_a, config_b):
    for p in (config_a, config_b):
        assert ops.flip_scan(p) < 1e-12


def test_flip_identity_one_var_explicit():
    p = one_var_trig(N=4)
    for nu in range(p.N):
        res, scale = ops.flip_residual((nu,), 0, 1, p)
        assert abs(res) < 1e-13 * max(scale, 1e-300)


def test_c_function_step_identities(config_a):
    p = config_a
    for nu in qr.enumerate_alcove(p.n, p.N):
        for j in range(p.n):
            lower = tuple(v - (1 if i == j else 0) for i, v in enumerate(nu))
            if qr.is_dominant(lower):
                res, scale = ops.cplus_step_residual(nu, j, p)
                assert abs(res) < 1e-12 * max(scale, 1e-300)
            upper = tuple(v + (1 if i == j else 0) for i, v in enumerate(nu))
            if qr.in_alcove(upper, p.N):
                res, scale = ops.cminus_step_residual(nu, j, p)
                assert abs(res) < 1e-12 * max(scale, 1e-300)


def test_flip_follows_from_step_identities(config_a):
    """Composing the two c-function difference equations reproduces the flip
    identity; the intermediate factor cancels."""
    p = config_a
    nu = (2, 1)
    j = 0
    upper = (3, 1)
    lhs = qr.delta(upper, p) * ops.v_coeff(-1, j, ops._grid_point(p, upper), p)
    rhs = qr.delta(nu, p) * ops.v_coeff(1, j, ops._grid_point(p, nu), p)
    # the composition route through C_+ and C_-
    cp = qr.c_plus(nu, p, path="qpoch") / qr.c_plus(upper, p, path="qpoch")
    cm = qr.c_minus(upper, p, path="qpoch") / qr.c_minus(nu, p, path="qpoch")
    f_up = ops.f_intermediate(j, upper, p)
    v_plus = cp / f_up
    v_minus = cm / f_up
    delta_ratio = qr.delta(upper, p) / qr.delta(nu, p)
    assert abs(delta_ratio * v_minus - v_plus) < 1e-12 * abs(v_plus)
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(rhs))


def test_apply_d_annihilates_constants(config_a):
    tab = qr.weight_table(config_a)
    ones = np.ones(len(tab.alcove))
    assert np.max(np.abs(ops.apply_d(ones, config_a))) < 1e-12


def test_apply_d_eigen_equation(ctx_a, ctx_b):
    for ctx in (ctx_a, ctx_b):
        p = ctx.params
        ren = ctx.renorm
        for lam in ren.alcove:
            f = ren.values[ren.position(lam)]
            got = ops.apply_d(f, p)
            ev = ops.e_multiplier(1, lam, p, dual=True)
            scale = max(np.max(np.abs(f)) * max(abs(ev), 1.0), 1e-300)
            assert np.max(np.abs(got - ev * f)) < 1e-10 * scale


def test_apply_d_paths_and_analytic_constant(ctx_a, rng):
    p = ctx_a.params
    f = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    trig = ops.apply_d(f, p, path="trig")
    rational = ops.apply_d(f, p, path="rational")
    assert np.max(np.abs(trig - rational)) < 1e-11 * np.max(np.abs(trig))
    analytic = ops.apply_d(f, p, analytic=True)
    assert np.max(np.abs(analytic - ops.restriction_constant(p) * trig)) < 1e-11 * np.max(
        np.abs(analytic)
    )


def test_apply_d_symmetric_bilinear(ctx_a, rng):
    p, tab = ctx_a.params, ctx_a.table
    size = len(tab.alcove)
    for _ in range(20):
        f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        lhs = qr.inner_product(ops.apply_d(f, p), g, tab.delta)
        rhs = qr.inner_product(f, ops.apply_d(g, p), tab.delta)
        assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), abs(rhs))


def test_restricted_double_sum_identity(ctx_a, rng):
    """The two restricted double sums (analytic coefficients, shifts kept
    inside the alcove) agree term for term after the flip."""
    p, tab = ctx_a.params, ctx_a.table
    size = len(tab.alcove)
    f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    lhs = qr.inner_product(ops.apply_d(f, p, analytic=True), g, tab.delta)
    rhs = qr.inner_product(f, ops.apply_d(g, p, analytic=True), tab.delta)
    assert abs(lhs - rhs) < 1e-11 * max(abs(lhs), abs(rhs))


def test_u_coefficient_conventions(config_a):
    side = ops._primal_side(config_a, (1, 1), "trig")
    assert ops.coeff_u(side, [0, 1], 0) == 1.0
    assert ops.coeff_v(side, (), (), [0, 1]) == 1.0


def test_apply_dr_order_one_matches_second_order(ctx_a, rng):
    p = ctx_a.params
    f = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    a = ops.apply_dr(1, f, p)
    b = ops.apply_d(f, p)
    assert np.max(np.abs(a - b)) < 1e-11 * max(np.max(np.abs(a)), 1.0)


def test_apply_dr_eigen_equations(ctx_a, ctx_b, ctx_n4, ctx_cx):
    for ctx in (ctx_a, ctx_b, ctx_n4, ctx_cx):
        p, ren = ctx.params, ctx.renorm
        for lam in ren.alcove:
            f = ren.values[ren.position(lam)]
            for r in range(1, p.n + 1):
                got = ops.apply_dr(r, f, p)
                ev = ops.e_multiplier(r, lam, p, dual=True)
                scale = max(np.max(np.abs(f)) * max(abs(ev), 1.0), 1.0)
                assert np.max(np.abs(got - ev * f)) < 1e-8 * scale


def test_apply_dr_commute(ctx_b, ctx_n4, ctx_cx, rng):
    for ctx in (ctx_b, ctx_n4, ctx_cx):
        p = ctx.params
        size = len(ctx.table.alcove)
        f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        for r, s in itertools.combinations(range(1, p.n + 1), 2):
            a = ops.apply_dr(r, ops.apply_dr(s, f, p), p)
            b = ops.apply_dr(s, ops.apply_dr(r, f, p), p)
            assert np.max(np.abs(a - b)) < 1e-10 * max(np.max(np.abs(a)), 1.0)


def test_operator_matrix_is_cached_and_read_only(config_b):
    """The matrix is shared through a bounded cache, so writes are refused."""
    D = ops.operator_matrix(2, config_b)
    assert ops.operator_matrix(2, config_b) is D
    with pytest.raises(ValueError):
        D[0, 0] = 0.0
    assert ops._operator.cache_info().maxsize == ops.OPERATOR_CACHE_SIZE


def test_multipliers_match_scalar_loop_and_are_cached(config_b, config_cx):
    """The multiplier vector is the scalar e_multiplier at every alcove
    weight, bit for bit, shared through a bounded cache and read-only."""
    for p in (config_b, config_cx):
        alcove = qr.enumerate_alcove(p.n, p.N)
        for r in range(1, p.n + 1):
            for dual in (False, True):
                vec = ops.multipliers(r, p, dual=dual)
                loop = np.array([ops.e_multiplier(r, nu, p, dual=dual) for nu in alcove])
                assert np.array_equal(vec, loop)
                assert ops.multipliers(r, p, dual=dual) is vec
                with pytest.raises(ValueError):
                    vec[0] = 0.0
    assert ops.multipliers.cache_info().maxsize == ops.OPERATOR_CACHE_SIZE


def test_guarded_ratio_batch_matches_scalar():
    """A batch mixing regular points with a removable 0/0 gives the scalar
    value at every point, and zero at the removable one."""
    nums = [np.array([2.0 + 1j, 0.0, 3.0 - 2j]), np.array([1.5, 4.0 + 1j, -1.0j])]
    dens = [np.array([0.5 - 1j, 0.0, 2.0]), np.array([3.0, 1.0, 0.25 + 1j])]
    got = ops._guarded_ratio(nums, dens, "test kernel")
    for i in range(3):
        expect = ops._guarded_ratio([f[i] for f in nums], [f[i] for f in dens], "test kernel")
        assert got[i] == pytest.approx(expect, rel=1e-15)
    assert got[1] == 0.0


def test_guarded_ratio_batch_raises_on_pole():
    nums = [np.array([2.0, 1.0, 3.0]), np.array([1.0, 0.0, 1.0])]
    dens = [np.array([0.5, 0.0, 2.0]), np.array([1.0, 0.0, 1.0])]
    with pytest.raises(qr.SingularEvaluationError, match="test kernel"):
        ops._guarded_ratio(nums, dens, "test kernel")


def test_apply_dr_self_adjoint_sesquilinear(ctx_a, rng):
    """Real multipliers + positivity domain: each operator is self-adjoint
    for the weighted sesquilinear inner product."""
    p, tab = ctx_a.params, ctx_a.table
    size = len(tab.alcove)
    for r in (1, 2):
        for _ in range(5):
            f = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            lhs = qr.inner_product_sesqui(ops.apply_dr(r, f, p), g, tab.delta)
            rhs = qr.inner_product_sesqui(f, ops.apply_dr(r, g, p), tab.delta)
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs))


def test_e_multiplier_basics(config_a):
    p = config_a
    zero = (0, 0)
    assert abs(ops.e_multiplier(1, zero, p)) < 1e-14
    assert abs(ops.e_multiplier(1, zero, p, dual=True)) < 1e-14
    # r = 1 reduces to the plain cosine difference
    ts = p.trig
    rho = ts.rho(p.n)
    for nu in [(2, 1), (4, 0)]:
        expect = 2 * sum(
            np.cos(ts.alpha * (rho[j] + nu[j])) - np.cos(ts.alpha * rho[j])
            for j in range(p.n)
        )
        assert ops.e_multiplier(1, nu, p) == pytest.approx(expect)


def test_e_multiplier_against_generic_form(config_a):
    p = config_a
    tau = np.array(p.tau)
    for nu in [(1, 0), (3, 2), (4, 4)]:
        z = tau * np.asarray(p.q) ** np.array(nu)
        for r in (1, 2):
            generic = ops.e_r_generic(r, z, tau)
            cosform = ops.e_multiplier(r, nu, p)
            assert abs(generic - cosform) < 1e-12 * max(abs(cosform), 1.0)


def test_e_r_generic_order_one_specialization(rng):
    z = rng.uniform(0.7, 1.3, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
    tau = rng.uniform(0.7, 1.3, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
    expect = sum(z + 1 / z) - sum(tau + 1 / tau)
    assert ops.e_r_generic(1, z, tau) == pytest.approx(expect)


def test_pieri_residuals(ctx_a, ctx_b, ctx_sd):
    for ctx in (ctx_a, ctx_b, ctx_sd):
        p, ren = ctx.params, ctx.renorm
        for lam in ren.alcove:
            for r in range(1, p.n + 1):
                assert ops.pieri_residual(r, lam, p, ren) < 1e-9


def test_pieri_residuals_rational_path(ctx_sd):
    """Branch safety without the trigonometric kernels: the self-dual family
    and the even v-kernel count make the rational route exact too."""
    p, ren = ctx_sd.params, ctx_sd.renorm
    for lam in ren.alcove:
        for r in range(1, p.n + 1):
            assert ops.pieri_residual(r, lam, p, ren, path="rational") < 1e-9


def test_plancherel_flatness(ctx_a, ctx_b):
    for ctx in (ctx_a, ctx_b):
        assert ops.plancherel_flatness(ctx.renorm, ctx.table) < 1e-9


def test_raisefund_and_chat_steps(ctx_a):
    p, ren = ctx_a.params, ctx_a.renorm
    for lam in ren.alcove:
        for r in range(1, p.n + 1):
            upper = tuple(v + (1 if i < r else 0) for i, v in enumerate(lam))
            if not qr.in_alcove(upper, p.N):
                continue
            assert ops.raisefund_residual(lam, r, p, ren) < 1e-9
            res_p, res_m = ops.chat_step_residuals(lam, r, p)
            assert res_p < 1e-11
            assert res_m < 1e-11


def test_norm_recurrence_pairwise(ctx_a, ctx_b):
    for ctx in (ctx_a, ctx_b):
        p = ctx.params
        for lam in ctx.alcove:
            for r in range(1, p.n + 1):
                upper = tuple(v + (1 if i < r else 0) for i, v in enumerate(lam))
                if not qr.in_alcove(upper, p.N):
                    continue
                res = ops.norm_recurrence_residual(lam, r, p, ctx.renorm, ctx.table)
                assert res < 1e-9


def test_racah_operator_eigen_equation(ctx_r):
    rp, ren = ctx_r.params, ctx_r.renorm
    for lam in ren.alcove:
        f = ren.values[ren.position(lam)]
        got = ops.apply_d_racah(f, rp)
        ev = qr.eigenvalue_wilson(lam, rp)
        scale = max(np.max(np.abs(f)) * max(abs(ev), 1.0), 1.0)
        assert np.max(np.abs(got - ev * f)) < 1e-9 * scale


def test_racah_operator_annihilates_constants(config_r):
    size = len(qr.racah_table(config_r).alcove)
    out = ops.apply_d_racah(np.ones(size), config_r)
    assert np.max(np.abs(out)) < 1e-12


def test_racah_boundary_coefficient_vanishing(config_r):
    rp = config_r
    rho = np.array(rp.rho)
    alcove = qr.enumerate_alcove(rp.n, rp.N)
    for nu in alcove:
        x = rho + np.array(nu)
        for j in range(rp.n):
            for eps in (1, -1):
                shifted = tuple(v + (eps if k == j else 0) for k, v in enumerate(nu))
                if not qr.in_alcove(shifted, rp.N):
                    assert abs(ops.v_coeff_racah(eps, j, x, rp)) < 1e-12


def test_racah_dual_operator_eigen_equation(ctx_r, config_rpos):
    """The dual degenerate operator acts on the dual family's rows with the
    eigenvalues of the dual parameters."""
    for ctx in (ctx_r, qr.racah_transform_context(config_rpos)):
        rp, ren = ctx.params, ctx.dual_renorm
        for lam in ren.alcove:
            f = ren.values[ren.position(lam)]
            got = ops.apply_d_racah(f, rp, dual=True)
            ev = qr.eigenvalue_wilson(lam, rp.dual())
            scale = max(np.max(np.abs(f)) * max(abs(ev), 1.0), 1.0)
            assert np.max(np.abs(got - ev * f)) < 1e-9 * scale

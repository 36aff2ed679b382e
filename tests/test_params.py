import math

import numpy as np
import pytest

import qracah as qr
from qracah import operators as ops
from conftest import one_var_racah


def test_from_trig_unit_circle(config_a):
    assert abs(abs(config_a.q) - 1) < 1e-15
    assert abs(abs(config_a.t) - 1) < 1e-15
    for t in config_a.ts:
        assert abs(abs(t) - 1) < 1e-15


def test_truncation_residual_exact_on_posc2(config_a, config_b, config_sd):
    for p in (config_a, config_b, config_sd):
        assert p.truncation_residual < 1e-14
        assert p.is_truncated


def test_truncation_residual_numeric_example():
    p = qr.from_trig(alpha=math.pi / 5.2, g=0.3, g_a=0.5, g_b=0.4, g_c=0.2, g_d=0.1, n=2, N=4)
    assert p.truncation_residual < 1e-14


def test_from_trig_rejects_bad_alpha():
    with pytest.raises(ValueError):
        qr.from_trig(alpha=-0.1, g=0.3, g_a=0.5, g_b=0.4, g_c=0.2, g_d=0.1, n=2, N=4)


def test_positivity_domain(config_a, config_b):
    assert qr.in_positivity_domain(config_a)
    assert qr.in_positivity_domain(config_b)
    ts = config_a.trig
    bad_c = qr.from_trig(ts.alpha, ts.g, ts.g_a, ts.g_b, ts.g_a + 0.1, ts.g_d, 2, 4)
    assert not qr.in_positivity_domain(bad_c)
    bad_sum = qr.from_trig(
        math.pi / (5.2 + 0.5), ts.g, ts.g_a, ts.g_b, ts.g_c, ts.g_d, 2, 4
    )
    assert not qr.in_positivity_domain(bad_sum)


def test_positivity_domain_self_dual(config_a, config_b):
    for p in (config_a, config_b):
        dual = qr.dual_view(p).dual_params()
        assert qr.in_positivity_domain(dual) == qr.in_positivity_domain(p)


def test_dual_pair_products_are_rational_combinations(config_a):
    p = config_a
    dv = qr.dual_view(p)
    ta, tb, tc, td = p.t_role
    ha, hb, hc, hd = dv.that_role
    q = p.q
    assert abs(ha * hb - ta * tb) < 1e-14
    assert abs(ha * hc - ta * tc) < 1e-14
    assert abs(ha * hd - ta * td) < 1e-14
    assert abs(ha ** 2 - ta * tb * tc * td / q) < 1e-14
    assert abs(ha / hb - tc * td / q) < 1e-14
    assert abs(ha / hc - tb * td / q) < 1e-14
    assert abs(ha / hd - tb * tc / q) < 1e-14


def test_dual_truncation_inherited(config_a):
    dual = qr.dual_view(config_a).dual_params()
    assert dual.truncation_residual < 1e-13


def test_dual_is_involution(config_a, config_b):
    for p in (config_a, config_b):
        back = qr.dual_view(qr.dual_view(p).dual_params()).dual_params()
        for x, y in zip(back.ts, p.ts):
            assert abs(x - y) < 1e-13
        assert abs(back.q - p.q) < 1e-15
        assert abs(back.t - p.t) < 1e-15


def test_generic_complex_duality_involution():
    # no trigonometric source: the principal branch is pinned on the way in,
    # the original scalar on the way back
    q, t = 0.53 + 0.11j, 0.81 - 0.07j
    ta, tc, td = 1.21 + 0.33j, 0.42 - 0.19j, 0.77 + 0.51j
    tb = q ** (-3) / (ta * t)  # n = 2, N = 3 truncation
    p = qr.ParamSet(n=2, N=3, q=q, t=t, t0=ta, t1=tb, t2=tc, t3=td)
    assert p.is_truncated
    back = qr.dual_view(qr.dual_view(p).dual_params()).dual_params()
    for x, y in zip(back.ts, p.ts):
        assert abs(x - y) < 1e-12


def test_trig_dual_exponents_involution(config_a):
    ts = config_a.trig
    twice = ts.dual().dual()
    assert np.allclose(twice.g_role, ts.g_role, atol=1e-14)


def test_self_dual_fixed_point(config_sd):
    dual = qr.dual_view(config_sd).dual_params()
    for x, y in zip(dual.ts, config_sd.ts):
        assert abs(x - y) < 1e-14


def test_t_half_square(config_a):
    assert abs(config_a.t_half ** 2 - config_a.t) < 1e-15


def test_roles_validation():
    with pytest.raises(ValueError):
        qr.ParamSet(n=1, N=0, q=0.5, t=1.0, t0=1, t1=1, t2=1, t3=1, roles=(0, 0, 1, 2))


def test_racah_params_basics():
    rp = one_var_racah(N=4, g_a=0.85)
    assert rp.rho == (0.85,)
    assert rp.truncation_residual < 1e-14
    # dual exponents come back after two applications
    twice = rp.dual().dual()
    assert np.allclose(twice.gs, rp.gs, atol=1e-14)


def test_racah_rho_hat(config_r):
    ghat_a = (sum(config_r.gs) - 1) / 2
    expect = tuple((config_r.n - 1 - j) * config_r.g + ghat_a for j in range(config_r.n))
    assert np.allclose(config_r.rho_hat, expect)


def test_racah_self_dual_fixed_point():
    # g_a - g_b - g_c - g_d = -1 pins the dual map
    g_a, g_c, g_d = 1.4, 0.9, 0.6
    g_b = g_a - g_c - g_d + 1
    rp = qr.racah_params(g=0.3, g0=g_a, g1=g_b, g2=g_c, g3=g_d, n=2, N=5, trunc_tol=math.inf)
    assert np.allclose(rp.dual().gs, rp.gs, atol=1e-14)


def test_lift_racah_truncation(config_r):
    p = qr.lift_racah(config_r, 0.05)
    assert p.truncation_residual < 1e-13
    assert abs(p.q - math.exp(-0.05)) < 1e-15


def test_unknown_path_names_raise(config_a):
    """Each module accepts only "auto", "trig" and its own generic route:
    "qpoch" for the c-functions, "rational" for the operators."""
    f = np.ones(qr.alcove_size(config_a.n, config_a.N))
    for path in ("bogus", "qpoch"):
        with pytest.raises(ValueError, match="unknown path"):
            ops.apply_d(f, config_a, path=path)
    for path in ("bogus", "rational"):
        with pytest.raises(ValueError, match="unknown path"):
            qr.c_plus((0, 0), config_a, path=path)

import numpy as np
import pytest

import qracah as qr
from qracah import transform as tr
from qracah.errors import PoleError
from qracah.params import PARAM_CACHE_SIZE

import oracles
from conftest import one_var_racah, one_var_trig


def test_c_functions_at_origin(config_a):
    n = config_a.n
    zero = (0,) * n
    for path in ("trig", "qpoch"):
        assert qr.c_plus(zero, config_a, path=path) == pytest.approx(1.0)
        assert qr.c_minus(zero, config_a, path=path) == pytest.approx(1.0)
        assert qr.chat_plus(zero, config_a, path=path) == pytest.approx(1.0)
        assert qr.chat_minus(zero, config_a, path=path) == pytest.approx(1.0)
    assert qr.delta(zero, config_a) == pytest.approx(1.0)
    assert qr.delta_hat(zero, config_a) == pytest.approx(1.0)
    assert qr.norm_ratio(zero, config_a) == pytest.approx(1.0)


def test_c_minus_one_var_explicit_product():
    p = one_var_trig(N=4)
    q, ta = p.q, p.t_a
    that_a = qr.dual_view(p).that_a
    expected = that_a  # the prefactor at nu = 1
    for t in p.ts:
        expected *= 1 - q * ta / t
    expected /= (1 - q * ta ** 2) * (1 - q ** 2 * ta ** 2)
    got = qr.c_minus((1,), p, path="qpoch")
    assert abs(got - expected) < 1e-14 * abs(expected)


def test_trig_and_qpoch_paths_agree(config_a, config_b):
    for p in (config_a, config_b):
        for nu in qr.enumerate_alcove(p.n, p.N):
            for fn in (qr.c_plus, qr.c_minus, qr.chat_plus, qr.chat_minus):
                a = fn(nu, p, path="trig")
                b = fn(nu, p, path="qpoch")
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)


def test_delta_matches_one_var_closed_form():
    for N in range(0, 9):
        p = one_var_trig(N=N)
        tab = qr.weight_table(p)
        for nu in range(N + 1):
            ref = oracles.delta_one_var_q(nu, p)
            assert abs(tab.delta[nu] - ref) <= 1e-13 * abs(ref)


def test_norm_ratio_matches_one_var_closed_form():
    p = one_var_trig(N=8)
    tab = qr.weight_table(p)
    for lam in range(p.N + 1):
        ref = oracles.norm_ratio_one_var_q(lam, p)
        assert abs(tab.norm_ratio[lam] - ref) <= 1e-11 * abs(ref)


def test_one_one_matches_q_dougall():
    for N in (0, 3, 8):
        p = one_var_trig(N=N)
        ref = oracles.one_one_q_dougall(p)
        assert abs(qr.one_one(p) - ref) <= 1e-11 * abs(ref)


def test_one_one_single_point():
    p = one_var_trig(N=0, g_a=0.45, g_b=0.35)
    assert qr.one_one(p) == pytest.approx(1.0)


def test_one_one_duality_invariance(config_a, config_b):
    for p in (config_a, config_b):
        dual = qr.dual_view(p).dual_params()
        lhs, rhs = qr.one_one(p), qr.one_one(dual)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_delta_vanishes_outside_alcove(config_a):
    p = config_a
    for extra in (1, 2):
        nu = (p.N + extra, 0)
        assert qr.delta(nu, p) == 0.0
        assert qr.delta_hat(nu, p) == 0.0
        assert qr.norm_ratio(nu, p) == 0.0


def test_c_plus_pole_outside_alcove(config_a):
    with pytest.raises(PoleError):
        qr.c_plus((config_a.N + 1, 0), config_a, path="qpoch")


def test_positivity_of_tables(config_a, config_b):
    for p in (config_a, config_b):
        tab = qr.weight_table(p)
        for arr in (tab.delta, tab.delta_hat, tab.norm_ratio):
            assert np.all(arr.real > 0)
            assert np.max(np.abs(arr.imag)) <= 1e-12 * np.min(np.abs(arr))
        # the generic route reproduces the same positive values
        for nu in tab.alcove:
            val = qr.delta(nu, p, path="qpoch")
            assert abs(val.imag) <= 1e-12 * abs(val)


def test_weight_table_is_cached(config_a):
    assert qr.weight_table(config_a) is qr.weight_table(config_a)


def test_parameter_caches_are_bounded(config_a, config_r):
    """The parameter-keyed caches hold the primal and dual entries of every
    cached transform context, and a hit returns the same object."""
    assert PARAM_CACHE_SIZE == 2 * tr.CONTEXT_CACHE_SIZE
    for cache in (qr.weight_table, qr.racah_table, qr.dual_view):
        assert cache.cache_info().maxsize == PARAM_CACHE_SIZE
    assert qr.racah_table(config_r) is qr.racah_table(config_r)
    assert qr.dual_view(config_a) is qr.dual_view(config_a)


def test_table_rows_match_scalar_c_functions(config_a, config_cx, config_r):
    """Every table entry is the scalar c-function at its weight: on the trig
    route, the q-Pochhammer route (generic complex parameters) and at the
    q -> 1 level."""
    scalar = (qr.c_plus, qr.c_minus, qr.chat_plus, qr.chat_minus)
    cases = [(qr.weight_table(config_a), [lambda nu, f=f: f(nu, config_a, path="trig") for f in scalar])]
    cases.append((qr.weight_table(config_cx), [lambda nu, f=f: f(nu, config_cx, path="qpoch") for f in scalar]))
    racah = [
        lambda nu: qr.c_plus_racah(nu, config_r),
        lambda nu: qr.c_minus_racah(nu, config_r),
        lambda nu: qr.c_plus_racah(nu, config_r, dual=True),
        lambda nu: qr.c_minus_racah(nu, config_r, dual=True),
    ]
    cases.append((qr.racah_table(config_r), racah))
    for tab, fns in cases:
        columns = (tab.c_plus, tab.c_minus, tab.chat_plus, tab.chat_minus)
        for i, nu in enumerate(tab.alcove):
            for col, fn in zip(columns, fns):
                ref = fn(nu)
                assert abs(col[i] - ref) <= 1e-14 * abs(ref)


def test_racah_delta_matches_one_var_closed_form():
    rp = one_var_racah(N=6)
    tab = qr.racah_table(rp)
    for nu in range(rp.N + 1):
        ref = oracles.delta_one_var_racah(nu, rp)
        assert abs(tab.delta[nu] - ref) <= 1e-13 * abs(ref)


def test_racah_norm_ratio_matches_one_var_closed_form():
    rp = one_var_racah(N=6)
    tab = qr.racah_table(rp)
    for lam in range(rp.N + 1):
        ref = oracles.norm_ratio_one_var_racah(lam, rp)
        assert abs(tab.norm_ratio[lam] - ref) <= 1e-11 * abs(ref)


def test_racah_one_one_matches_dougall():
    rp = one_var_racah(N=5)
    ref = oracles.one_one_racah_dougall(rp)
    assert abs(qr.racah_table(rp).one_one - ref) <= 1e-11 * abs(ref)


def test_racah_delta_at_origin_and_outside(config_r):
    zero = (0,) * config_r.n
    assert qr.delta_racah(zero, config_r) == pytest.approx(1.0)
    assert qr.delta_racah((config_r.N + 1, 0), config_r) == 0.0


def test_racah_one_one_duality(config_r):
    lhs = qr.racah_table(config_r).one_one
    rhs = qr.racah_table(config_r.dual()).one_one
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_c_plus_racah_degenerates_from_q_level(config_r):
    """(1-q)^(2|nu|) C_+ at the lifted parameters tends to the degenerate
    C_+, and C_- carries the reciprocal scaling."""
    nu = (2, 1)
    size = sum(nu)
    ref_p = qr.c_plus_racah(nu, config_r)
    ref_m = qr.c_minus_racah(nu, config_r)
    errs_p, errs_m = [], []
    for eps in (1e-1, 1e-2, 1e-3):
        p = qr.lift_racah(config_r, eps)
        errs_p.append(abs((1 - p.q) ** (2 * size) * qr.c_plus(nu, p) - ref_p))
        errs_m.append(abs(qr.c_minus(nu, p) / (1 - p.q) ** (2 * size) - ref_m))
    assert errs_p[0] > errs_p[1] > errs_p[2]
    assert errs_m[0] > errs_m[1] > errs_m[2]


def test_extended_precision_route(config_a):
    ts = config_a.trig
    pe = qr.from_trig(ts.alpha, ts.g, ts.g_a, ts.g_b, ts.g_c, ts.g_d, 2, 4, precision="extended")
    tab64 = qr.weight_table(config_a)
    tabx = qr.weight_table(pe)
    assert tabx.delta.dtype == np.clongdouble
    rel = np.max(np.abs(tabx.delta - tab64.delta) / np.abs(tab64.delta))
    assert rel < 1e-13

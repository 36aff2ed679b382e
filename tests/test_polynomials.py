import dataclasses
import math

import numpy as np
import pytest

import qracah as qr
from qracah.errors import DegenerateParameterError
from qracah.polynomials import dominance_span, monomial_operator_matrix, monomial_table

from conftest import one_var_racah, one_var_trig


def test_monomial_basics():
    assert qr.monomial_point((0, 0), np.array([0.5 + 1j, 2.0])) == pytest.approx(1.0)
    z = 0.7 + 0.4j
    assert qr.monomial_point((3,), np.array([z])) == pytest.approx(z ** 3 + z ** -3)
    z1, z2 = 1.2 + 0.1j, 0.5 - 0.3j
    expect = z1 + 1 / z1 + z2 + 1 / z2
    assert qr.monomial_point((1, 0), np.array([z1, z2])) == pytest.approx(expect)
    with pytest.raises(ValueError):
        qr.monomial_point((1, 0), np.array([0.0, 1.0]))


def test_even_monomial():
    x = np.array([1.3, 0.4])
    assert qr.monomial_point((2, 1), x, basis="even") == pytest.approx(
        x[0] ** 4 * x[1] ** 2 + x[0] ** 2 * x[1] ** 4
    )


@pytest.mark.parametrize("basis", ["bc", "even"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monomial_table_matches_orbit_loop(basis, n, rng):
    """Each row of the table is the term-by-term orbit sum of monomial_point,
    relative to the sum of the terms' moduli."""
    alcove = qr.enumerate_alcove(n, 3)
    if basis == "bc":
        pts = rng.uniform(0.6, 1.4, (6, n)) * np.exp(2j * np.pi * rng.uniform(size=(6, n)))
    else:
        pts = rng.uniform(-1.5, 1.5, (6, n))
    table = monomial_table(alcove, pts, basis)
    for lam, row in zip(alcove, table):
        ref = np.array([qr.monomial_point(lam, z, basis) for z in pts])
        terms = np.array([qr.monomial_point(lam, np.abs(z), basis) for z in pts])
        assert np.all(np.abs(row - ref) <= 1e-13 * terms)
    assert np.array_equal(qr.monomial_values(alcove[-1], pts, basis), table[-1])


def test_monomial_table_rejects_zero_coordinate():
    with pytest.raises(ValueError):
        monomial_table([(1, 0)], np.array([[0.0, 1.0], [0.5, 2.0]]))


def test_grid_points(config_a):
    grid = qr.grid_points(config_a)
    assert np.allclose(grid[0], np.array(config_a.tau))
    # trig log-coordinates: tau q^nu = exp(i alpha (rho + nu))
    ts = config_a.trig
    rho = np.array(ts.rho(config_a.n))
    for vec, nu in zip(grid, qr.enumerate_alcove(config_a.n, config_a.N)):
        assert np.allclose(vec, np.exp(1j * ts.alpha * (rho + np.array(nu))))


def test_grid_points_one_var():
    p = one_var_trig(N=4)
    grid = qr.grid_points(p)
    assert np.allclose(grid[:, 0], [p.t_a * p.q ** k for k in range(5)])


def test_inner_product_unit(config_a):
    tab = qr.weight_table(config_a)
    ones = np.ones(len(tab.alcove))
    assert qr.inner_product(ones, ones, tab.delta) == pytest.approx(tab.one_one)
    f = np.linspace(1, 2, len(tab.alcove))
    assert qr.inner_product(2 * f, ones, tab.delta) == pytest.approx(
        2 * qr.inner_product(f, ones, tab.delta)
    )


def test_family_is_monic_with_dominated_support(config_a, ctx_a):
    fam = ctx_a.family
    for lam in fam.alcove:
        poly = fam.poly(lam)
        assert poly.coeffs[lam] == pytest.approx(1.0)
        for mu in poly.coeffs:
            assert qr.dominance_leq(mu, lam)


def test_unit_polynomial(ctx_a):
    fam = ctx_a.family
    zero = fam.alcove[0]
    assert zero == (0, 0)
    assert np.allclose(fam.values[0], 1.0)
    assert fam.coeffs[0] == {zero: 1.0 + 0.0j}


def test_coefficient_matrix_structure(ctx_a, ctx_b, ctx_n4, ctx_cx, ctx_r):
    """C is unit lower triangular with exact zeros outside the dominance
    cone, its rows are the coefficient dicts over the dominance span, and
    values = C @ (the monomials on the grid).  The last check leaves out the
    q -> 1 level, whose monomial expansion cancels about ten digits
    (ROADMAP item 5)."""
    for fam in (ctx_a.family, ctx_b.family, ctx_n4.family, ctx_cx.family, ctx_r.family):
        C = fam.C
        assert np.array_equal(np.diag(C), np.ones(len(C)))
        cone = np.array([[qr.dominance_leq(mu, lam) for mu in fam.alcove] for lam in fam.alcove])
        assert np.all(C[~cone] == 0)
        for i, lam in enumerate(fam.alcove):
            assert list(fam.coeffs[i]) == dominance_span(lam)
        if fam.basis == "bc":
            expanded = C @ monomial_table(fam.alcove, fam.grid, fam.basis)
            assert np.max(np.abs(fam.values - expanded)) <= 1e-12 * np.max(np.abs(fam.values))


@pytest.mark.parametrize("n, N", [(2, 20), (3, 8)])
def test_gram_matrix_diagonal_at_size(n, N):
    alpha = math.pi / ((n - 1) * 0.3 + 0.5 + 0.4 + N)
    p = qr.from_trig(alpha=alpha, g=0.3, g_a=0.5, g_b=0.4, g_c=0.2, g_d=0.1, n=n, N=N)
    G = qr.build_family(p).gram_matrix()
    root = np.sqrt(np.abs(np.diag(G)))
    off = (G - np.diag(np.diag(G))) / np.outer(root, root)
    assert np.max(np.abs(off)) <= 1e-12


def test_incomparable_projections_vanish_on_trig_fixtures(ctx_a, ctx_b, ctx_sd, ctx_n4):
    for ctx in (ctx_a, ctx_b, ctx_sd, ctx_n4):
        assert ctx.family.max_incomparable_projection < 1e-12
        assert ctx.dual_family.max_incomparable_projection < 1e-12


def test_wrong_weights_leave_incomparable_projection(config_a):
    """Against weights that are not the orthogonality measure, projections
    onto dominance-incomparable members do not vanish, and the build says
    so instead of dropping them."""
    tab = qr.weight_table(config_a)
    delta = np.random.default_rng(5).uniform(0.5, 2.0, len(tab.alcove))
    with pytest.raises(DegenerateParameterError, match="incomparable weight"):
        qr.build_family(config_a, table=dataclasses.replace(tab, delta=delta))


def test_extended_precision_family_stays_clongdouble(config_a):
    ts = config_a.trig
    pe = qr.from_trig(ts.alpha, ts.g, ts.g_a, ts.g_b, ts.g_c, ts.g_d, 2, 4, precision="extended")
    fam = qr.build_family(pe)
    for arr in (fam.values, fam.norms, fam.C):
        assert arr.dtype == np.clongdouble


def test_gram_matrix_diagonal(ctx_a, ctx_b):
    for ctx in (ctx_a, ctx_b):
        G = ctx.family.gram_matrix()
        diag = np.max(np.abs(np.diag(G)))
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-9 * diag


def test_norm_formula(ctx_a, ctx_b):
    for ctx in (ctx_a, ctx_b):
        fam, tab = ctx.family, ctx.table
        predicted = tab.norm_ratio * tab.one_one
        assert np.max(np.abs(fam.norms - predicted)) < 1e-9 * abs(tab.one_one)


def test_one_var_family_matches_phi43(rng):
    p = one_var_trig(N=5)
    fam = qr.build_family(p)
    grid = qr.grid_points(p)
    for lam in fam.alcove:
        vals = np.array([qr.phi43_monic_aw(lam[0], z[0], p) for z in grid])
        ref = fam.values[fam.position(lam)]
        assert np.max(np.abs(vals - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))
        z = rng.uniform(0.7, 1.3) * np.exp(2j * np.pi * rng.uniform())
        poly = fam.poly(lam)
        assert abs(poly(np.array([z])) - qr.phi43_monic_aw(lam[0], z, p)) < 1e-10


def test_renormalized_values(ctx_a):
    ren = ctx_a.renorm
    assert np.max(np.abs(ren.at_origin - 1)) < 1e-10
    assert np.allclose(ren.values, ctx_a.family.values * ctx_a.table.chat_plus[:, None])


def test_duality_relation(ctx_a):
    resid = np.max(np.abs(ctx_a.renorm.values - ctx_a.dual_renorm.values.T))
    assert resid < 1e-9


def test_eigenvalue_formula_one_var():
    p = one_var_trig(N=4)
    q = p.q
    abcd = p.t0 * p.t1 * p.t2 * p.t3
    for lam in range(4):
        expect = abcd / q * (q ** lam - 1) + (q ** -lam - 1)
        assert qr.eigenvalue_aw((lam,), p) == pytest.approx(expect)


def test_operator_matrix_diagonal_and_triangularity(config_a, rng):
    span = qr.enumerate_alcove(config_a.n, config_a.N)
    A, cond = monomial_operator_matrix(span, config_a, rng)
    assert np.isfinite(cond)
    evs = np.array([qr.eigenvalue_aw(mu, config_a) for mu in span])
    diag = np.diag(A)
    assert np.max(np.abs(diag - evs)) < 1e-9 * np.max(np.abs(evs))
    assert qr.triangularity_violation(span, A) < 1e-8


def test_operator_matrix_on_constant():
    p = one_var_trig(N=3)
    A, _ = monomial_operator_matrix([(0,)], p)
    assert A.shape == (1, 1)
    assert abs(A[0, 0]) < 1e-10


def test_macdonald_route_degree_zero(config_a):
    poly = qr.build_p_macdonald((0, 0), config_a)
    assert poly.coeffs == {(0, 0): pytest.approx(1.0)}


def test_macdonald_route_matches_gram_schmidt(config_a, ctx_a, rng):
    span = list(ctx_a.table.alcove)
    A, _ = monomial_operator_matrix(span, config_a, rng)
    for lam in span:
        sub = dominance_span(lam)
        idx = [span.index(mu) for mu in sub]
        pm = qr.build_p_macdonald(lam, config_a, operator=A[np.ix_(idx, idx)], span=sub)
        gs = ctx_a.family.poly(lam)
        keys = set(pm.coeffs) | set(gs.coeffs)
        scale = max(abs(gs.coeffs.get(k, 0.0)) for k in keys)
        worst = max(abs(pm.coeffs.get(k, 0.0) - gs.coeffs.get(k, 0.0)) for k in keys)
        assert worst < 1e-8 * scale


def test_exterior_weight_vanishes_on_grid(config_a, rng):
    lam = (config_a.N + 1, 0)
    poly = qr.build_p_macdonald(lam, config_a, rng)
    grid = qr.grid_points(config_a)
    vals = poly.values(grid)
    scale = np.zeros(len(grid))
    for mu, c in poly.coeffs.items():
        scale += abs(c) * np.abs(qr.monomial_values(mu, grid, "bc"))
    assert np.max(np.abs(vals) / scale) < 1e-7


def test_racah_family_basics(config_r, ctx_r):
    fam = ctx_r.family
    assert np.allclose(fam.values[0], 1.0)
    G = fam.gram_matrix()
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 1e-9 * np.max(np.abs(np.diag(G)))
    predicted = ctx_r.table.norm_ratio * ctx_r.table.one_one
    rel = np.abs(fam.norms - predicted) / np.maximum(
        np.abs(fam.norms), np.abs(predicted)
    )
    assert np.max(rel) < 1e-9


def test_racah_family_matches_wilson_closed_form():
    rp = one_var_racah(N=5)
    fam = qr.build_racah_family(rp)
    xs = qr.racah_grid_points(rp)
    for lam in fam.alcove:
        vals = np.array([qr.f43_monic_wilson(lam[0], x[0], rp) for x in xs])
        ref = fam.values[fam.position(lam)]
        assert np.max(np.abs(vals - ref)) < 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_racah_renormalized_at_origin(ctx_r):
    assert np.max(np.abs(ctx_r.renorm.at_origin - 1)) < 1e-10


def test_racah_duality(ctx_r):
    scale = max(np.max(np.abs(ctx_r.renorm.values)), 1.0)
    resid = np.max(np.abs(ctx_r.renorm.values - ctx_r.dual_renorm.values.T))
    assert resid < 1e-9 * scale


def test_eigenvalue_wilson(config_r):
    rhohat = config_r.rho_hat
    lam = (2, 1)
    expect = sum((l + r) ** 2 - r ** 2 for l, r in zip(lam, rhohat))
    assert qr.eigenvalue_wilson(lam, config_r) == pytest.approx(expect)


def test_limit_check_degree_zero(config_r, ctx_r):
    rep = qr.limit_check((0, 0), config_r, (1e-1, 5e-2), racah_family=ctx_r.family)
    assert max(rep.deviations) < 1e-12


def test_limit_check_monotone(config_r, ctx_r):
    for lam in [(1, 0), (1, 1), (2, 1)]:
        rep = qr.limit_check(lam, config_r, (1e-1, 5e-2, 2.5e-2), racah_family=ctx_r.family)
        assert rep.monotone


def test_degenerate_parameters_are_reported():
    # q a low-order root of unity collapses the grid: the build must stop
    # with a diagnosis instead of emitting garbage
    q = -1.0 + 0j
    ta, tc, td = 0.8, 0.7, 0.6
    tb = q ** (-2) / ta  # n = 1, N = 2 truncation
    p = qr.ParamSet(n=1, N=2, q=q, t=0.9, t0=ta, t1=tb, t2=tc, t3=td)
    with pytest.raises((DegenerateParameterError, qr.PoleError)):
        qr.build_family(p)


def test_vanishing_norm_is_reported():
    # fully generic complex parameters without positivity can drive a
    # bilinear squared norm to zero; fabricate one by brute perturbation
    # search is overkill: instead check the diagnostic on a nearly
    # grid-collapsing q (root of unity plus a tiny offset keeps the weight
    # table finite while the monomial rows become dependent)
    q = complex(np.exp(2j * np.pi / 2)) * (1 + 1e-14)
    ta, tc, td = 0.8, 0.7, 0.6
    tb = q ** (-2) / ta
    p = qr.ParamSet(n=1, N=2, q=q, t=0.9, t0=ta, t1=tb, t2=tc, t3=td, trunc_tol=1e-10)
    with pytest.raises((DegenerateParameterError, qr.PoleError)):
        qr.build_family(p)


def test_monomial_grid_matrix_invertible(config_a):
    M = qr.monomial_grid_matrix(config_a)
    cond = np.linalg.cond(M)
    assert np.isfinite(cond)
    assert abs(np.linalg.det(M)) > 0

"""Shared reference configurations.

config_a : trig, n=2, N=4, alpha = pi/5.2, g = 0.3, exponents (.5, .4, .2, .1)
config_b : trig, n=3, N=3, g = 0.25, exponents (.6, .5, .3, .2),
           alpha = pi / (2g + g_a + g_b + 3)
config_sd: self-dual trig (g_a = g_b + g_c + g_d), rest as config_a with
           alpha readjusted to keep the truncation exact
config_r : racah, n=2, N=3, g = 0.4, g_b solving the additive truncation
config_rpos: racah, n=2, N=2, all weights (primal and dual) positive
config_n4: trig, n=4, N=2, exponents as config_a, alpha from the truncation
config_cx: generic complex, n=3, N=3: config_b's phases with the moduli of
           q, t, t_a, t_c, t_d pushed off the unit circle and t_b solved
           from the truncation (no trigonometric source: rational kernels)
"""

import math

import numpy as np
import pytest

import qracah as qr
from qracah import polynomials
from qracah import transform as tr


@pytest.fixture(scope="session")
def config_a():
    return qr.from_trig(alpha=math.pi / 5.2, g=0.3, g_a=0.5, g_b=0.4, g_c=0.2, g_d=0.1, n=2, N=4)


@pytest.fixture(scope="session")
def config_b():
    alpha = math.pi / (2 * 0.25 + 0.6 + 0.5 + 3)
    return qr.from_trig(alpha=alpha, g=0.25, g_a=0.6, g_b=0.5, g_c=0.3, g_d=0.2, n=3, N=3)


@pytest.fixture(scope="session")
def config_sd():
    return qr.from_trig(alpha=math.pi / 5.4, g=0.3, g_a=0.7, g_b=0.4, g_c=0.2, g_d=0.1, n=2, N=4)


@pytest.fixture(scope="session")
def config_r():
    return qr.racah_params(g=0.4, g0=0.75, g1=-4.15, g2=0.55, g3=0.35, n=2, N=3)


@pytest.fixture(scope="session")
def config_rpos():
    return qr.racah_params(g=0.6, g0=1.0, g1=-3.6, g2=0.85, g3=-2.75, n=2, N=2)


@pytest.fixture(scope="session")
def config_n4():
    alpha = math.pi / (3 * 0.3 + 0.5 + 0.4 + 2)
    return qr.from_trig(alpha=alpha, g=0.3, g_a=0.5, g_b=0.4, g_c=0.2, g_d=0.1, n=4, N=2)


@pytest.fixture(scope="session")
def config_cx():
    n, N = 3, 3
    g, g_a, g_c, g_d = 0.25, 0.6, 0.3, 0.2
    alpha = math.pi / ((n - 1) * g + g_a + 0.5 + N)

    def off_circle(phase, s):
        return complex(np.exp(s + 1j * phase))

    q = off_circle(alpha, 0.05)
    t = off_circle(alpha * g, -0.04)
    t_a = off_circle(alpha * g_a, 0.07)
    t_c = off_circle(alpha * (g_c + 0.5), -0.03)
    t_d = -off_circle(alpha * (g_d + 0.5), 0.06)
    t_b = 1 / (t_a * t ** (n - 1) * q**N)
    return qr.ParamSet(n=n, N=N, q=q, t=t, t0=t_a, t1=t_b, t2=t_c, t3=t_d)


def one_var_trig(N=6, g_a=0.45, g_b=0.35, g_c=0.15, g_d=0.05):
    alpha = math.pi / (g_a + g_b + N)
    return qr.from_trig(alpha=alpha, g=0.0, g_a=g_a, g_b=g_b, g_c=g_c, g_d=g_d, n=1, N=N)


def one_var_racah(N=4, g_a=0.85, g_c=0.35, g_d=0.25):
    return qr.racah_params(g=0.0, g0=g_a, g1=-g_a - N, g2=g_c, g3=g_d, n=1, N=N)


@pytest.fixture(scope="session")
def ctx_a(config_a):
    return qr.transform_context(config_a)


@pytest.fixture(scope="session")
def ctx_b(config_b):
    return qr.transform_context(config_b)


@pytest.fixture(scope="session")
def ctx_sd(config_sd):
    return qr.transform_context(config_sd)


@pytest.fixture(scope="session")
def ctx_n4(config_n4):
    return qr.transform_context(config_n4)


@pytest.fixture(scope="session")
def ctx_cx(config_cx):
    return qr.transform_context(config_cx)


@pytest.fixture(scope="session")
def ctx_r(config_r):
    return qr.racah_transform_context(config_r)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def family_builds(monkeypatch):
    """Parameter sets passed to the family engine, on an empty context
    cache."""
    tr._context.cache_clear()
    calls = []
    engine = polynomials._family

    def counting(params, *args, **kwargs):
        calls.append(params)
        return engine(params, *args, **kwargs)

    monkeypatch.setattr(polynomials, "_family", counting)
    return calls

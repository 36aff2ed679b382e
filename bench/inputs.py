"""Seeded inputs for the benchmark workloads.

Every draw comes from ``stream(seed, *keys)``, so the same seed gives the
same parameter sets, configuration files and grid vectors.  The library
only ever sees ``ParamSet`` objects, configuration text for the CLI and
complex grid vectors.
"""

from __future__ import annotations

import math

import numpy as np

import qracah as qr


def stream(seed: int, *keys: int) -> np.random.Generator:
    """An independent generator for one (seed, keys) pair."""
    return np.random.default_rng([seed, *keys])


def trig_exponents(rng: np.random.Generator) -> tuple:
    """(g, g_a, g_b, g_c, g_d) inside the positivity domain:
    g in [0.1, 0.6], g_a, g_b in [0.1, 0.9], |g_c| <= g_a, |g_d| <= g_b."""
    g = rng.uniform(0.1, 0.6)
    g_a = rng.uniform(0.1, 0.9)
    g_b = rng.uniform(0.1, 0.9)
    g_c = rng.uniform(-g_a, g_a)
    g_d = rng.uniform(-g_b, g_b)
    return (float(g), float(g_a), float(g_b), float(g_c), float(g_d))


def trig_alpha(exponents: tuple, n: int, N: int) -> float:
    """alpha = pi / ((n-1) g + g_a + g_b + N): the truncation condition."""
    g, g_a, g_b, _, _ = exponents
    return math.pi / ((n - 1) * g + g_a + g_b + N)


def trig_params(rng: np.random.Generator, n: int, N: int) -> qr.ParamSet:
    """A unit-circle parameter set drawn from the positivity domain."""
    ex = trig_exponents(rng)
    return qr.from_trig(trig_alpha(ex, n, N), *ex, n, N)


def _off_circle(rng: np.random.Generator, phase: float) -> complex:
    """exp(i phase) pushed off the unit circle by a modulus factor
    exp(+-s), s in [0.02, 0.1]."""
    s = rng.uniform(0.02, 0.1) * rng.choice((-1.0, 1.0))
    return complex(np.exp(s + 1j * phase))


def complex_params(rng: np.random.Generator, n: int, N: int) -> qr.ParamSet:
    """A generic complex parameter set: q, t, t_a, t_c, t_d off the unit
    circle (phases as in a trigonometric draw), t_b solved from the
    truncation condition t_a t_b t^(n-1) q^N = 1.  It has no trigonometric
    source, so the operators take the rational kernel route."""
    ex = trig_exponents(rng)
    g, g_a, _, g_c, g_d = ex
    alpha = trig_alpha(ex, n, N)
    q = _off_circle(rng, alpha)
    t = _off_circle(rng, alpha * g)
    t_a = _off_circle(rng, alpha * g_a)
    t_c = _off_circle(rng, alpha * (g_c + 0.5))
    t_d = -_off_circle(rng, alpha * (g_d + 0.5))
    t_b = 1 / (t_a * t ** (n - 1) * q**N)
    return qr.ParamSet(n=n, N=N, q=q, t=t, t0=t_a, t1=t_b, t2=t_c, t3=t_d)


def config_text(n: int, N: int, exponents: tuple) -> str:
    """A trig configuration file for the CLI; alpha = auto makes the CLI
    solve the truncation condition itself."""
    g, g_a, g_b, g_c, g_d = exponents
    return (
        "kind = trig\n"
        f"n = {n}\nN = {N}\nalpha = auto\n"
        f"g = {g!r}\ng_a = {g_a!r}\ng_b = {g_b!r}\ng_c = {g_c!r}\ng_d = {g_d!r}\n"
        "roles = 0,1,2,3\n"
    )


def grid_function(rng: np.random.Generator, size: int) -> np.ndarray:
    """A complex grid function with standard normal parts."""
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)

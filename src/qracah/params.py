"""Parameter sets, the truncation condition, and dual parameters.

The six scalars (q, t, t_0..t_3) together with (n, N) drive everything.  The
roles field says which of the four indices play (a, b, c, d): the a/b pair
enters the truncation condition t_a t_b t^(n-1) q^N = 1 that collapses the
orthogonality measure onto the finite grid tau q^nu, and t_a fixes the grid
offset tau_j = t^(n-j) t_a.

Dual parameters exchange polynomial degree and grid position.  They are
square roots of rational combinations, so individually they carry a branch
ambiguity; every quantity this package exposes uses them only in rational
combinations (pair products, ratios, squares).  The single unavoidable root,
the dual role-a scalar behind the c-function prefactors, is pinned to
exp(i*alpha*ghat_a) when the parameters come from the trigonometric
substitution and to the principal branch otherwise; the other three dual
scalars are derived from it so that all pairwise products are branch-exact.

The trigonometric substitution puts q on the unit circle,

    q = e^(i alpha), t = e^(i alpha g),
    t_a = e^(i alpha g_a),        t_b = -e^(i alpha g_b),
    t_c = e^(i alpha (g_c+1/2)),  t_d = -e^(i alpha (g_d+1/2)),

and the positivity domain is the region where all discrete weights become
real and positive.  The q -> 1 degeneration is parametrized separately by
RacahParams (exponents g, g_r with the additive truncation
(n-1) g + g_a + g_b + N = 0 and grid rho + nu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_LETTERS = "abcd"

#: Bound of the transform-context cache (one context per parameter set).
CONTEXT_CACHE_SIZE = 16
#: Bound of the parameter-keyed caches (dual_view, weight_table,
#: racah_table): the primal and dual entries of every cached context.
PARAM_CACHE_SIZE = 2 * CONTEXT_CACHE_SIZE


def _as_scalars(values, precision: str):
    if precision == "double":
        return tuple(complex(v) for v in values)
    if precision == "extended":
        return tuple(np.clongdouble(v) for v in values)
    raise ValueError(f"unknown precision {precision!r}")


def _role_slots(role_values, roles):
    """Scatter values given in (a, b, c, d) order into index slots 0..3."""
    slots = [None] * 4
    for letter_pos, slot in enumerate(roles):
        slots[slot] = role_values[letter_pos]
    return tuple(slots)


def _check_roles(roles):
    if sorted(roles) != [0, 1, 2, 3]:
        raise ValueError(f"roles must be a permutation of 0..3, got {roles!r}")


@dataclass(frozen=True)
class TrigSource:
    """Real exponents behind a unit-circle parameter set."""

    alpha: float
    g: float
    g_a: float
    g_b: float
    g_c: float
    g_d: float

    @property
    def g_role(self):
        return (self.g_a, self.g_b, self.g_c, self.g_d)

    def ghat(self):
        """Dual exponents: the half-Hadamard transform of (g_a..g_d).
        Applying it twice returns the original exponents."""
        ga, gb, gc, gd = self.g_role
        return (
            (ga + gb + gc + gd) / 2,
            (ga + gb - gc - gd) / 2,
            (ga - gb + gc - gd) / 2,
            (ga - gb - gc + gd) / 2,
        )

    def dual(self) -> "TrigSource":
        return TrigSource(self.alpha, self.g, *self.ghat())

    def rho(self, n: int):
        """Log-coordinates of the grid offset: rho_j = (n-j) g + g_a."""
        return tuple((n - 1 - j) * self.g + self.g_a for j in range(n))

    def rho_hat(self, n: int):
        ghat_a = self.ghat()[0]
        return tuple((n - 1 - j) * self.g + ghat_a for j in range(n))


@dataclass(frozen=True)
class ParamSet:
    """Immutable parameter set for the truncated basic (q-level) family."""

    n: int
    N: int
    q: complex
    t: complex
    t0: complex
    t1: complex
    t2: complex
    t3: complex
    roles: tuple = (0, 1, 2, 3)
    trig: TrigSource | None = None
    that_a_choice: complex | None = None
    trunc_tol: float = 1e-12

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.N < 0:
            raise ValueError("alcove bound must be nonnegative")
        _check_roles(self.roles)

    @property
    def ts(self):
        return (self.t0, self.t1, self.t2, self.t3)

    @property
    def t_role(self):
        """The four parameters in (a, b, c, d) order."""
        ts = self.ts
        return tuple(ts[slot] for slot in self.roles)

    @property
    def t_a(self):
        return self.ts[self.roles[0]]

    @property
    def t_b(self):
        return self.ts[self.roles[1]]

    @property
    def t_c(self):
        return self.ts[self.roles[2]]

    @property
    def t_d(self):
        return self.ts[self.roles[3]]

    @property
    def truncation_residual(self) -> float:
        return abs(self.t_a * self.t_b * self.t ** (self.n - 1) * self.q ** self.N - 1)

    @property
    def is_truncated(self) -> bool:
        return self.truncation_residual <= self.trunc_tol

    @property
    def tau(self):
        """Grid offset tau_j = t^(n-j) t_a, components 0-indexed."""
        return tuple(self.t ** (self.n - 1 - j) * self.t_a for j in range(self.n))

    @property
    def t_half(self):
        """A square root of t, exact on the trigonometric branch.  Consumers
        must use it only in even total powers."""
        if self.trig is not None:
            return np.exp(0.5j * self.trig.alpha * self.trig.g)
        return np.sqrt(self.t + 0j)

    def require_truncated(self):
        if not self.is_truncated:
            raise ValueError(
                "parameters do not satisfy the truncation condition "
                f"(residual {self.truncation_residual:.3e})"
            )


def _pick_path(p: ParamSet, path: str, generic: str) -> str:
    """The route path names for p: "trig", the caller's generic route, or
    "auto" (trig whenever p has a trigonometric source).  Others raise."""
    if path == "auto":
        return "trig" if p.trig is not None else generic
    if path not in ("trig", generic):
        raise ValueError(f"unknown path {path!r}: expected 'auto', 'trig' or {generic!r}")
    if path == "trig" and p.trig is None:
        raise ValueError("trigonometric path requires a trigonometric source")
    return path


def from_trig(
    alpha: float,
    g: float,
    g_a: float,
    g_b: float,
    g_c: float,
    g_d: float,
    n: int,
    N: int,
    *,
    roles=(0, 1, 2, 3),
    trunc_tol: float = 1e-12,
    precision: str = "double",
) -> ParamSet:
    """Build a unit-circle parameter set from the trigonometric substitution.

    The truncation residual vanishes exactly when
    (n-1) g + g_a + g_b + N = pi/alpha, since then t_a t_b t^(n-1) q^N =
    -exp(i pi) = 1.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a = np.longdouble(alpha) if precision == "extended" else float(alpha)
    q = np.exp(1j * a)
    t = np.exp(1j * a * g)
    t_a = np.exp(1j * a * g_a)
    t_b = -np.exp(1j * a * g_b)
    t_c = np.exp(1j * a * (g_c + 0.5))
    t_d = -np.exp(1j * a * (g_d + 0.5))
    ghat_a = (g_a + g_b + g_c + g_d) / 2
    choice = np.exp(1j * a * ghat_a)
    q, t, t_a, t_b, t_c, t_d, choice = _as_scalars(
        (q, t, t_a, t_b, t_c, t_d, choice), precision
    )
    slots = _role_slots((t_a, t_b, t_c, t_d), roles)
    return ParamSet(
        n=n,
        N=N,
        q=q,
        t=t,
        t0=slots[0],
        t1=slots[1],
        t2=slots[2],
        t3=slots[3],
        roles=tuple(roles),
        trig=TrigSource(float(alpha), float(g), float(g_a), float(g_b), float(g_c), float(g_d)),
        that_a_choice=choice,
        trunc_tol=trunc_tol,
    )


def in_positivity_domain(p: ParamSet, tol: float = 1e-8) -> bool:
    """Whether the trigonometric exponents lie in the positivity domain:

        alpha > 0, g >= 0, 0 <= g_a, g_b < pi/alpha,
        -g_a <= g_c <= g_a, -g_b <= g_d <= g_b,
        (n-1) g + g_a + g_b + N = pi/alpha.

    The last equality is the truncation condition and is checked within a
    relative tolerance.  The predicate is invariant under replacing the
    exponents by their duals.
    """
    if p.trig is None:
        raise ValueError("positivity domain is defined through a trigonometric source")
    ts = p.trig
    if ts.alpha <= 0:
        return False
    period = math.pi / ts.alpha
    if ts.g < -tol:
        return False
    if not (-tol <= ts.g_a < period and -tol <= ts.g_b < period):
        return False
    if not (-ts.g_a - tol <= ts.g_c <= ts.g_a + tol):
        return False
    if not (-ts.g_b - tol <= ts.g_d <= ts.g_b + tol):
        return False
    total = (p.n - 1) * ts.g + ts.g_a + ts.g_b + p.N
    return abs(total - period) <= tol * max(1.0, period)


@dataclass(frozen=True)
class DualView:
    """Dual parameters of a ParamSet, branch-consistent by construction.

    that_a is the pinned square root of t_a t_b t_c t_d / q; the other three
    are derived as t_a t_r / that_a, which makes every pairwise product exact
    (that_a that_b = t_a t_b and so on) regardless of the branch.
    """

    base: ParamSet
    that_a: complex
    that_b: complex
    that_c: complex
    that_d: complex

    @property
    def that_role(self):
        return (self.that_a, self.that_b, self.that_c, self.that_d)

    @property
    def that_slots(self):
        """Dual parameters scattered back into index slots 0..3."""
        return _role_slots(self.that_role, self.base.roles)

    @property
    def tauhat(self):
        """Dual grid offset tauhat_j = t^(n-j) that_a."""
        p = self.base
        return tuple(p.t ** (p.n - 1 - j) * self.that_a for j in range(p.n))

    def dual_params(self) -> ParamSet:
        """The dual parameter set.  Its own dual view restores the original
        scalars exactly: the role-a branch is pinned to the original t_a."""
        p = self.base
        slots = self.that_slots
        return ParamSet(
            n=p.n,
            N=p.N,
            q=p.q,
            t=p.t,
            t0=slots[0],
            t1=slots[1],
            t2=slots[2],
            t3=slots[3],
            roles=p.roles,
            trig=p.trig.dual() if p.trig is not None else None,
            that_a_choice=p.t_a,
            trunc_tol=p.trunc_tol,
        )


@lru_cache(maxsize=PARAM_CACHE_SIZE)
def dual_view(p: ParamSet) -> DualView:
    ta, tb, tc, td = p.t_role
    if p.that_a_choice is not None:
        ha = p.that_a_choice
    else:
        ha = np.sqrt(ta * tb * tc * td / p.q + 0j)
    return DualView(p, ha, ta * tb / ha, ta * tc / ha, ta * td / ha)


@dataclass(frozen=True)
class RacahParams:
    """Parameters of the q -> 1 (Racah/Wilson) degeneration.

    Carries the exponents g, g_0..g_3; the truncation condition is additive,
    (n-1) g + g_a + g_b + N = 0.  Grid points are rho + nu with
    rho_j = (n-j) g + g_a, and the dual exponents are the half-Hadamard
    transform shifted by (-1/2, +1/2, +1/2, +1/2).
    """

    n: int
    N: int
    g: float
    g0: float
    g1: float
    g2: float
    g3: float
    roles: tuple = (0, 1, 2, 3)
    trunc_tol: float = 1e-9

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.N < 0:
            raise ValueError("alcove bound must be nonnegative")
        _check_roles(self.roles)

    @property
    def gs(self):
        return (self.g0, self.g1, self.g2, self.g3)

    @property
    def g_role(self):
        gs = self.gs
        return tuple(gs[slot] for slot in self.roles)

    @property
    def g_a(self):
        return self.gs[self.roles[0]]

    @property
    def g_b(self):
        return self.gs[self.roles[1]]

    @property
    def truncation_residual(self) -> float:
        return abs((self.n - 1) * self.g + self.g_a + self.g_b + self.N)

    @property
    def is_truncated(self) -> bool:
        return self.truncation_residual <= self.trunc_tol

    def ghat(self):
        """Dual exponents (involutive: the offset cancels on repetition)."""
        ga, gb, gc, gd = self.g_role
        return (
            (ga + gb + gc + gd) / 2 - 0.5,
            (ga + gb - gc - gd) / 2 + 0.5,
            (ga - gb + gc - gd) / 2 + 0.5,
            (ga - gb - gc + gd) / 2 + 0.5,
        )

    @property
    def rho(self):
        return tuple((self.n - 1 - j) * self.g + self.g_a for j in range(self.n))

    @property
    def rho_hat(self):
        ghat_a = self.ghat()[0]
        return tuple((self.n - 1 - j) * self.g + ghat_a for j in range(self.n))

    def dual(self) -> "RacahParams":
        slots = _role_slots(self.ghat(), self.roles)
        return RacahParams(
            n=self.n,
            N=self.N,
            g=self.g,
            g0=slots[0],
            g1=slots[1],
            g2=slots[2],
            g3=slots[3],
            roles=self.roles,
            trunc_tol=self.trunc_tol,
        )

    def require_truncated(self):
        if not self.is_truncated:
            raise ValueError(
                "parameters do not satisfy the additive truncation "
                f"(residual {self.truncation_residual:.3e})"
            )


def racah_params(g, g0, g1, g2, g3, n, N, *, roles=(0, 1, 2, 3), trunc_tol=1e-9) -> RacahParams:
    return RacahParams(
        n=n, N=N, g=g, g0=g0, g1=g1, g2=g2, g3=g3, roles=tuple(roles), trunc_tol=trunc_tol
    )


def lift_racah(rp: RacahParams, eps: float, *, precision: str = "double") -> ParamSet:
    """Lift Racah exponents to the basic level along q = exp(-eps).

    With t = q^g and t_r = q^(g_r) the multiplicative truncation holds
    exactly whenever the additive one does, and the grid q^(rho + nu)
    coincides with the points tau q^nu.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rp.require_truncated()
    e = np.longdouble(eps) if precision == "extended" else float(eps)
    q = np.exp(-e)
    values = [q, q ** rp.g] + [q ** gr for gr in rp.gs]
    ghat_a = rp.ghat()[0]
    choice = q ** ghat_a
    q, t, t0, t1, t2, t3, choice = _as_scalars(values + [choice], precision)
    return ParamSet(
        n=rp.n,
        N=rp.N,
        q=q,
        t=t,
        t0=t0,
        t1=t1,
        t2=t2,
        t3=t3,
        roles=rp.roles,
        trig=None,
        that_a_choice=choice,
    )

"""Discrete c-functions, orthogonality weights, and norm ratios.

The weight of a grid point nu is Delta(nu) = 1 / (C_+(nu) C_-(nu)), where
C_+- are Harish-Chandra-like products of q-shifted factorials over the pairs
(j, k) and the single indices j, carrying the prefactor
c_0(nu) = prod_j tauhat_j^(nu_j).  The dual c-functions Chat_+- are the same
products in the dual parameters, with the roles of grid position and
polynomial degree exchanged; their reciprocal product is the Plancherel
weight Deltahat, and their ratio Chat_-/Chat_+ is the norm ratio that turns
the squared norm of the unit polynomial into the squared norm of any member
of the family.

Two evaluation paths are provided.  For parameters with a trigonometric
source the sin/cos product rewriting is used: it is manifestly real, better
conditioned on the unit circle, and equals the q-shifted-factorial route
identically (prefactor included).  The generic route covers arbitrary complex
parameters and doubles as a cross-check.

Under the truncation condition the weight vanishes identically outside the
alcove (the C_+ product develops a pole); delta() returns an exact zero
there rather than surfacing the pole.

The q -> 1 degeneration replaces q-shifted factorials by ordinary Pochhammer
symbols on the shifted grid rho + nu; there is no prefactor in that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import PoleError
from .params import ParamSet, RacahParams, _pick_path, dual_view
from .weights import check_dominant, enumerate_alcove, in_alcove

POLE_TOL = 1e-12


class _Product:
    """Numerator/denominator accumulator that watches for vanishing
    denominator factors."""

    __slots__ = ("num", "den", "min_den")

    def __init__(self):
        self.num = 1.0
        self.den = 1.0
        self.min_den = math.inf

    def qnum(self, a, q, m):
        apow = a
        for _ in range(m):
            self.num = self.num * (1 - apow)
            apow = apow * q

    def qden(self, a, q, m):
        apow = a
        for _ in range(m):
            f = 1 - apow
            af = abs(f)
            if af < self.min_den:
                self.min_den = af
            self.den = self.den * f
            apow = apow * q

    def pnum(self, a, m):
        for k in range(m):
            self.num = self.num * (a + k)

    def pden(self, a, m):
        for k in range(m):
            f = a + k
            af = abs(f)
            if af < self.min_den:
                self.min_den = af
            self.den = self.den * f

    def fnum(self, f):
        self.num = self.num * f

    def fden(self, f):
        af = abs(f)
        if af < self.min_den:
            self.min_den = af
        self.den = self.den * f

    def value(self, context: str):
        if self.min_den < POLE_TOL:
            raise PoleError(f"vanishing denominator factor in {context}")
        return self.num / self.den


def _c_q(nu, q, t, tau, four, c0base, plus: bool, prefactor: bool, context: str):
    """Shared product for C_+- and their duals at the basic level.

    tau is the grid offset of the side being evaluated, four the four
    parameter scalars of that side, and c0base the offset of the opposite
    side (whose powers form the prefactor).
    """
    n = len(nu)
    fp = _Product()
    for j in range(n):
        for k in range(j + 1, n):
            mp, mm = nu[j] + nu[k], nu[j] - nu[k]
            if plus:
                fp.qnum(tau[j] * tau[k], q, mp)
                fp.qden(t * tau[j] * tau[k], q, mp)
                fp.qnum(tau[j] / tau[k], q, mm)
                fp.qden(t * tau[j] / tau[k], q, mm)
            else:
                fp.qnum(q * tau[j] * tau[k] / t, q, mp)
                fp.qden(q * tau[j] * tau[k], q, mp)
                fp.qnum(q * tau[j] / (t * tau[k]), q, mm)
                fp.qden(q * tau[j] / tau[k], q, mm)
    for j in range(n):
        if plus:
            fp.qnum(tau[j] ** 2, q, 2 * nu[j])
            for s in four:
                fp.qden(s * tau[j], q, nu[j])
        else:
            for s in four:
                fp.qnum(q * tau[j] / s, q, nu[j])
            fp.qden(q * tau[j] ** 2, q, 2 * nu[j])
    val = fp.value(context)
    if prefactor:
        for j in range(n):
            val = val * c0base[j] ** nu[j]
    return val


def _c_trig(nu, alpha, g, g4, rho, plus: bool, context: str):
    """Trigonometric route: sin/cos Pochhammer products on the log grid."""
    ga, gb, gc, gd = g4
    n = len(nu)
    fp = _Product()

    def sin_num(a, m):
        for k in range(m):
            fp.fnum(math.sin(alpha * (a + k) / 2))

    def sin_den(a, m):
        for k in range(m):
            fp.fden(math.sin(alpha * (a + k) / 2))

    def cos_num(a, m):
        for k in range(m):
            fp.fnum(math.cos(alpha * (a + k) / 2))

    def cos_den(a, m):
        for k in range(m):
            fp.fden(math.cos(alpha * (a + k) / 2))

    for j in range(n):
        for k in range(j + 1, n):
            mp, mm = nu[j] + nu[k], nu[j] - nu[k]
            if plus:
                sin_num(rho[j] + rho[k], mp)
                sin_den(g + rho[j] + rho[k], mp)
                sin_num(rho[j] - rho[k], mm)
                sin_den(g + rho[j] - rho[k], mm)
            else:
                sin_num(1 - g + rho[j] + rho[k], mp)
                sin_den(1 + rho[j] + rho[k], mp)
                sin_num(1 - g + rho[j] - rho[k], mm)
                sin_den(1 + rho[j] - rho[k], mm)
    for j in range(n):
        m = nu[j]
        if plus:
            sin_num(rho[j], m)
            sin_num(0.5 + rho[j], m)
            cos_num(rho[j], m)
            cos_num(0.5 + rho[j], m)
            sin_den(ga + rho[j], m)
            sin_den(gc + 0.5 + rho[j], m)
            cos_den(gb + rho[j], m)
            cos_den(gd + 0.5 + rho[j], m)
        else:
            sin_num(1 - ga + rho[j], m)
            sin_num(0.5 - gc + rho[j], m)
            cos_num(1 - gb + rho[j], m)
            cos_num(0.5 - gd + rho[j], m)
            sin_den(1 + rho[j], m)
            sin_den(0.5 + rho[j], m)
            cos_den(1 + rho[j], m)
            cos_den(0.5 + rho[j], m)
    return fp.value(context)


def _c(nu, p: ParamSet, path: str, plus: bool, dual: bool, prefactor: bool, context: str):
    """C_+- (or with dual=True Chat_+-) along the chosen evaluation path."""
    check_dominant(nu)
    if _pick_path(p, path, "qpoch") == "trig":
        ts = p.trig.dual() if dual else p.trig
        return _c_trig(nu, ts.alpha, ts.g, ts.g_role, ts.rho(p.n), plus, context)
    dv = dual_view(p)
    if dual:
        return _c_q(nu, p.q, p.t, dv.tauhat, dv.that_slots, p.tau, plus, prefactor, context)
    return _c_q(nu, p.q, p.t, p.tau, p.ts, dv.tauhat, plus, prefactor, context)


def c_plus(nu, p: ParamSet, *, path: str = "auto", prefactor: bool = True):
    """C_+(nu); poles at non-generic parameters surface as PoleError."""
    return _c(nu, p, path, True, False, prefactor, f"C+{nu}")


def c_minus(nu, p: ParamSet, *, path: str = "auto", prefactor: bool = True):
    """C_-(nu), same prefactor as C_+."""
    return _c(nu, p, path, False, False, prefactor, f"C-{nu}")


def chat_plus(lam, p: ParamSet, *, path: str = "auto", prefactor: bool = True):
    """Dual c-function Chat_+(lam).  Fully rational in the base parameters:
    the dual scalars enter only through pairwise products and the prefactor
    is prod_j tau_j^(lam_j)."""
    return _c(lam, p, path, True, True, prefactor, f"Chat+{lam}")


def chat_minus(lam, p: ParamSet, *, path: str = "auto", prefactor: bool = True):
    return _c(lam, p, path, False, True, prefactor, f"Chat-{lam}")


def delta(nu, p: ParamSet, *, path: str = "auto"):
    """Orthogonality weight Delta(nu) = 1/(C_+ C_-).

    Under truncation the weight vanishes identically on the dominant cone
    outside the alcove; that zero is returned exactly instead of evaluating
    through the pole of C_+.
    """
    check_dominant(nu)
    if p.is_truncated and not in_alcove(nu, p.N):
        return 0.0
    return 1.0 / (c_plus(nu, p, path=path) * c_minus(nu, p, path=path))


def delta_hat(lam, p: ParamSet, *, path: str = "auto"):
    """Plancherel weight Deltahat(lam) = 1/(Chat_+ Chat_-)."""
    check_dominant(lam)
    if p.is_truncated and not in_alcove(lam, p.N):
        return 0.0
    return 1.0 / (chat_plus(lam, p, path=path) * chat_minus(lam, p, path=path))


def norm_ratio(lam, p: ParamSet, *, path: str = "auto"):
    """Chat_-(lam) / Chat_+(lam); the prefactors cancel exactly.

    Under truncation the ratio vanishes outside the alcove (the squared
    norm of the whole polynomial vanishes there along with its grid
    restriction); the zero is returned directly.
    """
    check_dominant(lam)
    if p.is_truncated and not in_alcove(lam, p.N):
        return 0.0
    if _pick_path(p, path, "qpoch") == "trig":
        return chat_minus(lam, p, path="trig") / chat_plus(lam, p, path="trig")
    num = chat_minus(lam, p, path="qpoch", prefactor=False)
    den = chat_plus(lam, p, path="qpoch", prefactor=False)
    return num / den


@dataclass(frozen=True)
class WeightTable:
    """All weight data of one parameter set over the alcove, in the graded
    total order.  Arrays are complex; on the trigonometric path their
    imaginary parts are exactly zero."""

    params: object
    alcove: tuple
    c_plus: np.ndarray
    c_minus: np.ndarray
    delta: np.ndarray
    chat_plus: np.ndarray
    chat_minus: np.ndarray
    delta_hat: np.ndarray
    norm_ratio: np.ndarray
    one_one: complex
    index: dict = field(repr=False, default_factory=dict)

    def position(self, lam) -> int:
        return self.index[tuple(lam)]


def _freeze(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _table(params, alcove, cp, cm, chp, chm, dtype) -> WeightTable:
    """Assemble a table from its c-function lists over the alcove."""
    dl = [1.0 / (a * b) for a, b in zip(cp, cm)]
    dh = [1.0 / (a * b) for a, b in zip(chp, chm)]
    nr = [b / a for a, b in zip(chp, chm)]
    return WeightTable(
        params=params,
        alcove=alcove,
        c_plus=_freeze(cp, dtype),
        c_minus=_freeze(cm, dtype),
        delta=_freeze(dl, dtype),
        chat_plus=_freeze(chp, dtype),
        chat_minus=_freeze(chm, dtype),
        delta_hat=_freeze(dh, dtype),
        norm_ratio=_freeze(nr, dtype),
        one_one=sum(dl),
        index={lam: i for i, lam in enumerate(alcove)},
    )


@lru_cache(maxsize=None)
def weight_table(p: ParamSet) -> WeightTable:
    """Compute (once per parameter set) every table entry over the alcove."""
    p.require_truncated()
    alcove = tuple(enumerate_alcove(p.n, p.N))
    dtype = np.result_type(np.asarray(p.q).dtype, np.complex128)
    # Extended precision lives on the scalar product route.
    path = "auto" if dtype == np.complex128 else "qpoch"
    cp = [c_plus(nu, p, path=path) for nu in alcove]
    cm = [c_minus(nu, p, path=path) for nu in alcove]
    chp = [chat_plus(lam, p, path=path) for lam in alcove]
    chm = [chat_minus(lam, p, path=path) for lam in alcove]
    return _table(p, alcove, cp, cm, chp, chm, dtype)


def one_one(p: ParamSet):
    """The squared norm of the unit polynomial: the plain sum of the weights
    over the alcove (no product formula is available for n > 1)."""
    return weight_table(p).one_one


# ---------------------------------------------------------------------------
# q -> 1 degeneration: ordinary Pochhammer products on the grid rho + nu.
# ---------------------------------------------------------------------------


def _c_r(nu, rp: RacahParams, dual: bool, plus: bool, context: str):
    check_dominant(nu)
    g = rp.g
    ga, gb, gc, gd = rp.ghat() if dual else rp.g_role
    rho = rp.rho_hat if dual else rp.rho
    n = len(nu)
    fp = _Product()
    for j in range(n):
        for k in range(j + 1, n):
            mp, mm = nu[j] + nu[k], nu[j] - nu[k]
            if plus:
                fp.pnum(rho[j] + rho[k], mp)
                fp.pden(g + rho[j] + rho[k], mp)
                fp.pnum(rho[j] - rho[k], mm)
                fp.pden(g + rho[j] - rho[k], mm)
            else:
                fp.pnum(1 - g + rho[j] + rho[k], mp)
                fp.pden(1 + rho[j] + rho[k], mp)
                fp.pnum(1 - g + rho[j] - rho[k], mm)
                fp.pden(1 + rho[j] - rho[k], mm)
    for j in range(n):
        m = nu[j]
        if plus:
            fp.pnum(2 * rho[j], 2 * m)
            for gr in (ga, gb, gc, gd):
                fp.pden(gr + rho[j], m)
        else:
            for gr in (ga, gb, gc, gd):
                fp.pnum(1 - gr + rho[j], m)
            fp.pden(1 + 2 * rho[j], 2 * m)
    return fp.value(context)


def c_plus_racah(nu, rp: RacahParams, *, dual: bool = False):
    return _c_r(nu, rp, dual, True, f"CR+{nu}")


def c_minus_racah(nu, rp: RacahParams, *, dual: bool = False):
    return _c_r(nu, rp, dual, False, f"CR-{nu}")


def delta_racah(nu, rp: RacahParams, *, dual: bool = False):
    check_dominant(nu)
    if rp.is_truncated and not in_alcove(nu, rp.N):
        return 0.0
    return 1.0 / (c_plus_racah(nu, rp, dual=dual) * c_minus_racah(nu, rp, dual=dual))


@lru_cache(maxsize=None)
def racah_table(rp: RacahParams) -> WeightTable:
    """Weight table of the degenerate family on the grid rho + nu."""
    rp.require_truncated()
    alcove = tuple(enumerate_alcove(rp.n, rp.N))
    cp = [c_plus_racah(nu, rp) for nu in alcove]
    cm = [c_minus_racah(nu, rp) for nu in alcove]
    chp = [c_plus_racah(lam, rp, dual=True) for lam in alcove]
    chm = [c_minus_racah(lam, rp, dual=True) for lam in alcove]
    return _table(rp, alcove, cp, cm, chp, chm, complex)

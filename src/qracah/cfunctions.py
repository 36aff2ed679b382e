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

Every product runs through one prefix-product engine (_prefix_product).  A
c-function is a product of factor groups; each group has a base fixed by
the pair (j, k) or the index j, and a count that is a linear function of the
weight (nu_j + nu_k, nu_j - nu_k, nu_j or 2 nu_j).  The engine forms each
group's factor sequence once, up to its largest count over the weights
asked for, takes its prefix products and the running minimum of the
denominator factors' moduli, and gathers both at every weight's count.  A
whole table is one call; a scalar c-function is a one-row call.  The dtype
follows the parameters, so extended precision stays clongdouble.

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

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import PoleError
from .params import PARAM_CACHE_SIZE, ParamSet, RacahParams, _pick_path, dual_view
from .weights import check_dominant, enumerate_alcove, in_alcove

POLE_TOL = 1e-12


def _prefix_product(weights, num, den, sequence, label: str):
    """The c-function product at every weight nu of weights.

    A group (base, j, k, s) of num (den) multiplies (divides) by the factors
    f(base, i), i < nu_j + s nu_k, where sequence(bases, M) returns f(base, i)
    of every group for i < M.  Each group's prefix products and the running
    minimum of its |factors| are formed once, up to the largest count, and
    gathered at every weight.  A denominator factor below POLE_TOL raises
    PoleError at the first such weight, named label + weight.
    """
    for nu in weights:
        check_dominant(nu)
    bases, j, k, s = (np.array(col) for col in zip(*num, *den))
    parts = np.array(weights).T
    counts = parts[j] + s[:, None] * parts[k]
    f = sequence(bases, int(counts.max(initial=0)))
    prefix = np.ones((len(f), f.shape[1] + 1), f.dtype)
    np.cumprod(f, axis=1, out=prefix[:, 1:])
    size = np.abs(f)
    low = np.full(prefix.shape, np.inf, size.dtype)
    np.minimum.accumulate(size, axis=1, out=low[:, 1:])
    rows, nn = np.arange(len(f))[:, None], len(num)
    vals = prefix[rows, counts]
    bad = np.flatnonzero(low[rows[nn:], counts[nn:]].min(axis=0) < POLE_TOL)
    if bad.size:
        raise PoleError(f"vanishing denominator factor in {label}{weights[bad[0]]}")
    return vals[:nn].prod(axis=0) / vals[nn:].prod(axis=0)


def _c_q(weights, q, t, tau, four, c0base, plus: bool, prefactor: bool, label: str):
    """Shared product for C_+- and their duals at the basic level: factors
    1 - base q^i.

    tau is the grid offset of the side being evaluated, four the four
    parameter scalars of that side, and c0base the offset of the opposite
    side (whose powers form the prefactor).
    """
    num, den = [], []  # groups (base, j, k, s): counts nu_j + s nu_k
    for j in range(len(tau)):
        for k in range(j + 1, len(tau)):
            tj, tk = tau[j], tau[k]
            if plus:
                num += [(tj * tk, j, k, 1), (tj / tk, j, k, -1)]
                den += [(t * tj * tk, j, k, 1), (t * tj / tk, j, k, -1)]
            else:
                num += [(q * tj * tk / t, j, k, 1), (q * tj / (t * tk), j, k, -1)]
                den += [(q * tj * tk, j, k, 1), (q * tj / tk, j, k, -1)]
    for j, tj in enumerate(tau):
        if plus:
            num += [(tj ** 2, j, j, 1)]
            den += [(s * tj, j, j, 0) for s in four]
        else:
            num += [(q * tj / s, j, j, 0) for s in four]
            den += [(q * tj ** 2, j, j, 1)]

    def sequence(bases, M):
        # the powers base q^i by repeated multiplication
        steps = np.full((len(bases), M + 1), q, dtype=np.result_type(bases, q))
        steps[:, 0] = bases
        return 1 - np.cumprod(steps, axis=1)[:, :M]

    val = _prefix_product(weights, num, den, sequence, label)
    if prefactor:
        val = val * np.prod(np.asarray(c0base) ** np.array(weights), axis=1)
    return val


def _shift_pairs(rho, g, plus: bool):
    """The pair groups (shift, j, k, s) of the additive routes (trigonometric
    and q -> 1), as (numerator, denominator) lists."""
    num, den = [], []
    for j in range(len(rho)):
        for k in range(j + 1, len(rho)):
            for a, s in ((rho[j] + rho[k], 1), (rho[j] - rho[k], -1)):
                num.append((a if plus else 1 - g + a, j, k, s))
                den.append((g + a if plus else 1 + a, j, k, s))
    return num, den


def _c_trig(weights, alpha, g, g4, rho, plus: bool, label: str):
    """Trigonometric route: factors sin(alpha (a + i) / 2) on the log grid,
    or cos(...); the base of a group is (a, 1 for cos)."""
    ga, gb, gc, gd = g4
    num, den = ([((a, 0), j, k, s) for a, j, k, s in grp] for grp in _shift_pairs(rho, g, plus))
    for j, r in enumerate(rho):  # single-index groups, count nu_j
        if plus:
            top = [(r, 0), (0.5 + r, 0), (r, 1), (0.5 + r, 1)]
            bottom = [(ga + r, 0), (gc + 0.5 + r, 0), (gb + r, 1), (gd + 0.5 + r, 1)]
        else:
            top = [(1 - ga + r, 0), (0.5 - gc + r, 0), (1 - gb + r, 1), (0.5 - gd + r, 1)]
            bottom = [(1 + r, 0), (0.5 + r, 0), (1 + r, 1), (0.5 + r, 1)]
        num += [(b, j, j, 0) for b in top]
        den += [(b, j, j, 0) for b in bottom]

    def sequence(bases, M):
        x = alpha * (bases[:, :1] + np.arange(M)) / 2
        return np.where(bases[:, 1:] == 1, np.cos(x), np.sin(x))

    return _prefix_product(weights, num, den, sequence, label)


def _c(weights, p: ParamSet, path: str, plus: bool, dual: bool, prefactor: bool):
    """C_+- (or with dual=True Chat_+-) at every weight, along the chosen
    evaluation path."""
    label = ("Chat" if dual else "C") + ("+" if plus else "-")
    if _pick_path(p, path, "qpoch") == "trig":
        ts = p.trig.dual() if dual else p.trig
        return _c_trig(weights, ts.alpha, ts.g, ts.g_role, ts.rho(p.n), plus, label)
    dv = dual_view(p)
    if dual:
        return _c_q(weights, p.q, p.t, dv.tauhat, dv.that_slots, p.tau, plus, prefactor, label)
    return _c_q(weights, p.q, p.t, p.tau, p.ts, dv.tauhat, plus, prefactor, label)


def c_plus(nu, p: ParamSet, *, path: str = "auto", prefactor: bool = True):
    """C_+(nu); poles at non-generic parameters surface as PoleError."""
    return _c([nu], p, path, True, False, prefactor)[0]


def c_minus(nu, p: ParamSet, *, path: str = "auto", prefactor: bool = True):
    """C_-(nu), same prefactor as C_+."""
    return _c([nu], p, path, False, False, prefactor)[0]


def chat_plus(lam, p: ParamSet, *, path: str = "auto", prefactor: bool = True):
    """Dual c-function Chat_+(lam).  Fully rational in the base parameters:
    the dual scalars enter only through pairwise products and the prefactor
    is prod_j tau_j^(lam_j)."""
    return _c([lam], p, path, True, True, prefactor)[0]


def chat_minus(lam, p: ParamSet, *, path: str = "auto", prefactor: bool = True):
    return _c([lam], p, path, False, True, prefactor)[0]


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
    """Assemble a table from its c-function arrays over the alcove."""
    dl = 1.0 / (cp * cm)
    return WeightTable(
        params=params,
        alcove=alcove,
        c_plus=_freeze(cp, dtype),
        c_minus=_freeze(cm, dtype),
        delta=_freeze(dl, dtype),
        chat_plus=_freeze(chp, dtype),
        chat_minus=_freeze(chm, dtype),
        delta_hat=_freeze(1.0 / (chp * chm), dtype),
        norm_ratio=_freeze(chm / chp, dtype),
        one_one=dl.sum(),
        index={lam: i for i, lam in enumerate(alcove)},
    )


#: (plus, dual) for C_+, C_-, Chat_+, Chat_-: the order tables are built in.
_SIDES = ((True, False), (False, False), (True, True), (False, True))


@lru_cache(maxsize=PARAM_CACHE_SIZE)
def weight_table(p: ParamSet) -> WeightTable:
    """Compute (once per parameter set) every table entry over the alcove."""
    p.require_truncated()
    alcove = tuple(enumerate_alcove(p.n, p.N))
    dtype = np.result_type(np.asarray(p.q).dtype, np.complex128)
    # Extended precision lives on the q-Pochhammer route.
    path = "auto" if dtype == np.complex128 else "qpoch"
    return _table(p, alcove, *(_c(alcove, p, path, *side, True) for side in _SIDES), dtype)


def one_one(p: ParamSet):
    """The squared norm of the unit polynomial: the plain sum of the weights
    over the alcove (no product formula is available for n > 1)."""
    return weight_table(p).one_one


# ---------------------------------------------------------------------------
# q -> 1 degeneration: ordinary Pochhammer products on the grid rho + nu.
# ---------------------------------------------------------------------------


def _c_r(weights, rp: RacahParams, dual: bool, plus: bool):
    """Ordinary Pochhammer products: factors base + i."""
    g4 = rp.ghat() if dual else rp.g_role
    rho = rp.rho_hat if dual else rp.rho
    num, den = _shift_pairs(rho, rp.g, plus)
    for j, r in enumerate(rho):
        if plus:
            num += [(2 * r, j, j, 1)]
            den += [(gr + r, j, j, 0) for gr in g4]
        else:
            num += [(1 - gr + r, j, j, 0) for gr in g4]
            den += [(1 + 2 * r, j, j, 1)]
    label = "CR+" if plus else "CR-"
    return _prefix_product(weights, num, den, lambda a, M: a[:, None] + np.arange(M), label)


def c_plus_racah(nu, rp: RacahParams, *, dual: bool = False):
    return _c_r([nu], rp, dual, True)[0]


def c_minus_racah(nu, rp: RacahParams, *, dual: bool = False):
    return _c_r([nu], rp, dual, False)[0]


def delta_racah(nu, rp: RacahParams, *, dual: bool = False):
    check_dominant(nu)
    if rp.is_truncated and not in_alcove(nu, rp.N):
        return 0.0
    return 1.0 / (c_plus_racah(nu, rp, dual=dual) * c_minus_racah(nu, rp, dual=dual))


@lru_cache(maxsize=PARAM_CACHE_SIZE)
def racah_table(rp: RacahParams) -> WeightTable:
    """Weight table of the degenerate family on the grid rho + nu."""
    rp.require_truncated()
    alcove = tuple(enumerate_alcove(rp.n, rp.N))
    return _table(rp, alcove, *(_c_r(alcove, rp, dual, plus) for plus, dual in _SIDES), complex)

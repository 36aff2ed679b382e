"""Difference operators on the truncated grid and the recurrence machinery.

The analytic second-order operator has coefficients

    V_(eps j)(z) = prod_r (1 - t_r z_j^eps) / ((1 - z_j^2eps)(1 - q z_j^2eps))
                   * prod_(k != j) (1 - t z_j^eps z_k)(1 - t z_j^eps / z_k)
                                  / ((1 - z_j^eps z_k)(1 - z_j^eps / z_k)).

On the grid these coefficients vanish exactly at every shift that would
leave the alcove (boundary vanishing), which is what lets the operator
restrict to grid functions.  In the trigonometric parametrization the
restricted operator takes the kernel form with

    v(xi) = sin(alpha(g+xi)/2) / sin(alpha xi/2),
    w(xi) = [sin-cos four-factor ratio with the g_a..g_d exponents],

and equals the analytic restriction divided by the constant
t^(n-1) (t_0 t_1 t_2 t_3 q^-1)^(1/2).

One builder, _stencil_matrix, fills the dense matrix of the order-2r
operator over the whole alcove.  It walks the terms (J, eps) once and
evaluates each kernel product over the alcove as one array: the stationary
U coefficient of each index set J at every grid weight, the shift
coefficient V of each (J, eps) only at the weights whose shift stays in the
alcove.  The products are scattered through shift-target index arrays built
once per (n, N, J, eps).  Coordinates are component-major, shape (n,) for
one weight or (n, m) for a batch, so the kernel sides, coeff_u and coeff_v
serve a single point and a batch alike.

operator_matrix keeps each matrix, read-only, in a bounded LRU cache keyed
by (r, p, mode), and apply_dr multiplies by it.  The builder takes a kernel
side, so it serves both sides and both levels.  The primal matrix at the
dual parameters has the Pieri coefficients Vhat/Uhat as its rows (E_r
times a renormalized polynomial expands over neighbouring weights), so
pieri_residual reads row pos(lam) of that cached matrix, the same cache
entry as the dual operator of transform.diagonalization_report; both read
multiplier vectors cached per (r, p, dual) by multipliers.  With the q -> 1
kernels at r = 1 the builder gives the degenerate second-order operator.  Every coefficient contains an
even number of v-kernels, so the half power of t they formally carry folds
into an exact integer power; evaluation is fully rational in the base
parameters and free of branch choices.  apply_d, the difference form on
the analytic coefficients, batched per (j, eps), is kept as an independent
reference.

The flip identity Delta(nu + eps e_j) V_(-eps j) = Delta(nu) V_(eps j) and
its building blocks (the c-function difference equations with their
cancelling intermediate factor) are exposed as residual computations, as are
the norm recurrence and the restricted Pieri residuals.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .cfunctions import c_minus, c_plus, chat_minus, chat_plus, delta
from .errors import SingularEvaluationError
from .params import ParamSet, _pick_path, dual_view
from .weights import enumerate_alcove, in_alcove, is_dominant

#: Factors smaller than this count as exact zeros when deciding whether a
#: kernel evaluation is a removable 0/0.  Structural zeros (truncation and
#: boundary factors) sit at machine epsilon; for generic parameters every
#: other factor is many orders of magnitude larger.
KERNEL_ZERO_TOL = 1e-9


@lru_cache(maxsize=None)
def _alcove_index(n, N):
    alcove = tuple(enumerate_alcove(n, N))
    return alcove, {lam: i for i, lam in enumerate(alcove)}


def _grid_point(p: ParamSet, nu) -> np.ndarray:
    """tau q^nu for one weight, shape (n,), or for a component-major batch
    of weights, shape (n, m)."""
    tau = np.array(p.tau)
    return (tau * np.asarray(p.q) ** np.asarray(nu).T).T


def _guarded_ratio(nums, dens, context: str):
    """Product of nums over product of dens with removable-singularity
    handling.

    At special parameter coincidences (for example a trigonometric exponent
    hitting exactly 1/2) a denominator factor can vanish at a grid point
    where a structurally zero numerator factor is present as well; the value
    continued along the parameter family is zero there.  A vanishing
    denominator without enough numerator zeros is a genuine singularity.

    The factors are all scalars, or all arrays over one batch of points;
    a batch gets the same rule point by point, and a genuine singularity at
    any of its points raises.
    """
    if isinstance(dens[0], np.ndarray):
        return _guarded_ratio_batch(nums, dens, context)
    den_zeros = sum(1 for f in dens if abs(f) < KERNEL_ZERO_TOL)
    if den_zeros == 0:
        return math.prod(nums) / math.prod(dens)
    num_zeros = sum(1 for f in nums if abs(f) < KERNEL_ZERO_TOL)
    if num_zeros >= den_zeros:
        return 0.0
    raise SingularEvaluationError(context)


def _guarded_ratio_batch(nums, dens, context: str):
    den_zeros = sum(np.abs(f) < KERNEL_ZERO_TOL for f in dens)
    if not np.any(den_zeros):
        return math.prod(nums) / math.prod(dens)
    num_zeros = sum(np.abs(f) < KERNEL_ZERO_TOL for f in nums)
    if np.any(num_zeros < den_zeros):
        raise SingularEvaluationError(context)
    removable = den_zeros > 0
    return np.where(removable, 0.0, math.prod(nums) / np.where(removable, 1.0, math.prod(dens)))


# ---------------------------------------------------------------------------
# Analytic coefficients and trigonometric kernels
# ---------------------------------------------------------------------------


def v_coeff(eps: int, j: int, z, p: ParamSet):
    """Analytic coefficient V_(eps j)(z); j is 0-indexed, eps is +-1."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    z = np.asarray(z)
    zj = z[j] ** eps
    nums = [1 - tr * zj for tr in p.ts]
    dens = [1 - zj * zj, 1 - p.q * zj * zj]
    for k in range(p.n):
        if k == j:
            continue
        nums.append(1 - p.t * zj * z[k])
        nums.append(1 - p.t * zj / z[k])
        dens.append(1 - zj * z[k])
        dens.append(1 - zj / z[k])
    return _guarded_ratio(nums, dens, f"coefficient pole at coordinate {j}")


def trig_v(xi, alpha, g):
    return _guarded_ratio(
        [np.sin(alpha * (g + xi) / 2)],
        [np.sin(alpha * xi / 2)],
        "vanishing sine in v-kernel",
    )


def trig_w(xi, alpha, g4):
    ga, gb, gc, gd = g4
    nums = [
        np.sin(alpha * (ga + xi) / 2),
        np.cos(alpha * (gb + xi) / 2),
        np.sin(alpha * (gc + 0.5 + xi) / 2),
        np.cos(alpha * (gd + 0.5 + xi) / 2),
    ]
    dens = [
        np.sin(alpha * xi / 2),
        np.cos(alpha * xi / 2),
        np.sin(alpha * (0.5 + xi) / 2),
        np.cos(alpha * (0.5 + xi) / 2),
    ]
    return _guarded_ratio(nums, dens, "vanishing sine/cosine in w-kernel")


def v_coeff_trig(eps: int, j: int, x, ts, n: int):
    """Kernel-form coefficient w(eps x_j) prod v(eps x_j +- x_k) on the log
    grid (real arguments, real value)."""
    comp = [k for k in range(n) if k != j]
    return coeff_v(_TrigSide(x, ts.alpha, ts.g, ts.g_role), (j,), (eps,), comp)


def restriction_constant(p: ParamSet):
    """The analytic operator restricted to the grid equals the kernel-form
    operator times t^(n-1) (t_0 t_1 t_2 t_3 q^-1)^(1/2)."""
    return p.t ** (p.n - 1) * dual_view(p).that_a


# ---------------------------------------------------------------------------
# Flip identity, boundary vanishing, symmetry
# ---------------------------------------------------------------------------


def f_intermediate(j: int, nu, p: ParamSet):
    """The intermediate factor of the c-function difference equations; it
    cancels from the flip identity.  j is 0-indexed."""
    tau = p.tau
    q, t = p.q, p.t
    out = p.t ** (j + 1 - p.n) / dual_view(p).that_a
    for k in range(j):
        out *= (1 - tau[k] / tau[j] * q ** (nu[k] - nu[j])) * (
            1 - tau[j] / tau[k] * q ** (nu[j] - nu[k] - 1)
        )
        out /= (1 - t * tau[k] / tau[j] * q ** (nu[k] - nu[j])) * (
            1 - t * tau[j] / tau[k] * q ** (nu[j] - nu[k] - 1)
        )
    return out


def cplus_step_residual(nutilde, j: int, p: ParamSet):
    """Residual of C_+(nu - e_j)/C_+(nu) = V_(+j)(tau q^(nu - e_j)) f_j(nu)."""
    nutilde = tuple(nutilde)
    lower = tuple(v - (1 if i == j else 0) for i, v in enumerate(nutilde))
    if not (is_dominant(nutilde) and is_dominant(lower)):
        raise ValueError("both weights must stay in the dominant cone")
    lhs = c_plus(lower, p, path="qpoch") / c_plus(nutilde, p, path="qpoch")
    rhs = v_coeff(1, j, _grid_point(p, lower), p) * f_intermediate(j, nutilde, p)
    return lhs - rhs, max(abs(lhs), abs(rhs))


def cminus_step_residual(nutilde, j: int, p: ParamSet):
    """Residual of C_-(nu + e_j)/C_-(nu) = V_(-j)(tau q^(nu + e_j)) f_j(nu + e_j)."""
    nutilde = tuple(nutilde)
    upper = tuple(v + (1 if i == j else 0) for i, v in enumerate(nutilde))
    if not (is_dominant(nutilde) and is_dominant(upper)):
        raise ValueError("both weights must stay in the dominant cone")
    lhs = c_minus(upper, p, path="qpoch") / c_minus(nutilde, p, path="qpoch")
    rhs = v_coeff(-1, j, _grid_point(p, upper), p) * f_intermediate(j, upper, p)
    return lhs - rhs, max(abs(lhs), abs(rhs))


def flip_residual(nu, j: int, eps: int, p: ParamSet):
    """Delta(nu + eps e_j) V_(-eps j) at the shifted point minus
    Delta(nu) V_(eps j) at the point itself; identically zero on the cone."""
    nu = tuple(nu)
    shifted = tuple(v + (eps if i == j else 0) for i, v in enumerate(nu))
    if not (is_dominant(nu) and is_dominant(shifted)):
        raise ValueError("both weights must stay in the dominant cone")
    lhs = delta(shifted, p) * v_coeff(-eps, j, _grid_point(p, shifted), p)
    rhs = delta(nu, p) * v_coeff(eps, j, _grid_point(p, nu), p)
    return lhs - rhs, max(abs(lhs), abs(rhs))


def flip_scan(p: ParamSet) -> float:
    """Largest flip residual over all adjacent pairs in the dominant cone
    with one end in the alcove, relative to the global scale of the
    weight-coefficient products.

    Pairs crossing the alcove boundary are included: there both sides
    vanish under truncation, and their residuals are measured against the
    same global scale as the interior pairs."""
    alcove, _ = _alcove_index(p.n, p.N)
    residuals = []
    scale = 1e-300
    for nu in alcove:
        for j in range(p.n):
            for eps in (1, -1):
                shifted = tuple(v + (eps if i == j else 0) for i, v in enumerate(nu))
                if not is_dominant(shifted):
                    continue
                res, local = flip_residual(nu, j, eps, p)
                residuals.append(abs(res))
                scale = max(scale, local)
    return max(residuals) / scale


def reslem_scan(p: ParamSet):
    """Boundary vanishing: the coefficient V_(eps j) at a grid point whose
    (j, eps) shift leaves the alcove.  Returns (worst boundary magnitude
    relative to the interior coefficient scale, interior scale)."""
    alcove, _ = _alcove_index(p.n, p.N)
    interior = 0.0
    boundary = 0.0
    for nu in alcove:
        z = _grid_point(p, nu)
        for j in range(p.n):
            for eps in (1, -1):
                shifted = tuple(v + (eps if i == j else 0) for i, v in enumerate(nu))
                mag = abs(v_coeff(eps, j, z, p))
                if in_alcove(shifted, p.N):
                    interior = max(interior, mag)
                else:
                    boundary = max(boundary, mag)
    return boundary / max(interior, 1e-300), interior


# ---------------------------------------------------------------------------
# Discrete operators on grid functions
# ---------------------------------------------------------------------------


def apply_d(f, p: ParamSet, *, path: str = "auto", analytic: bool = False) -> np.ndarray:
    """Discretized second-order operator acting on a grid function.

    Shifts that would leave the alcove are omitted (their coefficients
    vanish there anyway).  With analytic=True the result is scaled to match
    the analytic operator instead of the kernel-form normalization.
    """
    p.require_truncated()
    mode = _pick_path(p, path, "rational")
    f = _grid_function(f, p.n, p.N)
    out = np.zeros(len(f), dtype=np.result_type(f.dtype, np.complex128))
    const = restriction_constant(p)
    weights = np.array(_alcove_index(p.n, p.N)[0]).T
    if mode == "trig":
        coords = np.array(p.trig.rho(p.n))[:, None] + weights
    else:
        coords = _grid_point(p, weights)
    for j in range(p.n):
        for eps in (1, -1):
            rows, cols = _shift_targets(p.n, p.N, (j,), (eps,))
            if mode == "trig":
                w = v_coeff_trig(eps, j, coords[:, rows], p.trig, p.n)
                if analytic:
                    w = w * const
            else:
                w = v_coeff(eps, j, coords[:, rows], p)
                if not analytic:
                    w = w / const
            out[rows] += w * (f[cols] - f[rows])
    return out


def v_coeff_racah(eps: int, j: int, x, rp) -> float:
    """Coefficient of the degenerate (rational in x) second-order operator:

        prod_r (g_r + eps x_j) / ((2 eps x_j)(1 + 2 eps x_j))
        * prod_(k != j) (g + eps x_j + x_k)(g + eps x_j - x_k)
                        / ((eps x_j + x_k)(eps x_j - x_k)).
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    comp = [k for k in range(rp.n) if k != j]
    return coeff_v(_RacahSide(x, rp.g, rp.gs), (j,), (eps,), comp)


def apply_d_racah(f, rp, *, dual: bool = False) -> np.ndarray:
    """Discretized degenerate second-order operator on the grid rho + nu
    (or the dual grid with the dual exponents), shifts restricted to the
    alcove.  The renormalized family satisfies the eigenvalue equation with
    the quadratic eigenvalues sum_j ((lam_j + rhohat_j)^2 - rhohat_j^2)."""
    rp.require_truncated()
    base = rp.dual() if dual else rp
    f = _grid_function(f, rp.n, rp.N)
    rho = np.array(base.rho)
    D = _stencil_matrix(1, rp.n, rp.N, lambda nus: _RacahSide((rho + nus.T).T, base.g, base.gs))
    return D @ f


# ---------------------------------------------------------------------------
# Kernel sides for the higher operators and the Pieri coefficients
# ---------------------------------------------------------------------------


class _RationalSide:
    """Coefficient kernels evaluated at complex coordinates.

    The w-kernel divides out the square root of the product of its four
    parameters over q, supplied by the opposite side's role-a scalar; the
    v-kernels carry t^(-1/2) each, folded into an exact integer power of t
    per assembled coefficient (their count is always even).
    """

    def __init__(self, z, q, t, s4, wpref):
        self.z = z
        self.q = q
        self.t = t
        self.s4 = s4
        self.wpref = wpref

    def w1(self, j, eps):
        zz = self.z[j] ** eps
        nums = [1 - s * zz for s in self.s4]
        dens = [1 - zz * zz, 1 - self.q * zz * zz]
        return _guarded_ratio(nums, dens, "w-kernel pole") / self.wpref

    def vraw(self, j, ej, k, ek, shift):
        zeta = self.q ** shift * self.z[j] ** ej * self.z[k] ** ek
        return _guarded_ratio([1 - self.t * zeta], [1 - zeta], "v-kernel pole")

    def fold(self, mcount):
        if mcount % 2:
            raise AssertionError("odd v-kernel count; branch safety lost")
        return self.t ** (-(mcount // 2))


class _TrigSide:
    """Kernels in the trigonometric form (real arguments and values)."""

    def __init__(self, x, alpha, g, g4):
        self.x = x
        self.alpha = alpha
        self.g = g
        self.g4 = g4

    def w1(self, j, eps):
        return trig_w(eps * self.x[j], self.alpha, self.g4)

    def vraw(self, j, ej, k, ek, shift):
        return trig_v(ej * self.x[j] + ek * self.x[k] + shift, self.alpha, self.g)

    def fold(self, mcount):
        return 1.0


class _RacahSide:
    """Kernels of the q -> 1 level, rational in the real coordinates; no
    half powers of t appear, so nothing is folded."""

    def __init__(self, x, g, gs):
        self.x = x
        self.g = g
        self.gs = gs

    def w1(self, j, eps):
        xj = eps * self.x[j]
        nums = [gr + xj for gr in self.gs]
        return _guarded_ratio(nums, [2 * xj, 1 + 2 * xj], "degenerate w-kernel pole")

    def vraw(self, j, ej, k, ek, shift):
        xi = ej * self.x[j] + ek * self.x[k] + shift
        return _guarded_ratio([self.g + xi], [xi], "degenerate v-kernel pole")

    def fold(self, mcount):
        return 1.0


def _primal_side(p: ParamSet, nu, mode: str):
    """Kernel side at one weight nu, or at a component-major batch of them.
    At the dual parameters it is the dual side, whose coefficients are the
    Pieri coefficients."""
    if mode == "trig":
        ts = p.trig
        x = (np.array(ts.rho(p.n)) + np.asarray(nu).T).T
        return _TrigSide(x, ts.alpha, ts.g, ts.g_role)
    return _RationalSide(_grid_point(p, nu), p.q, p.t, p.ts, dual_view(p).that_a)


def _kernel_product(side, J, epsJ, K, s: int):
    """Kernel product over the moved indices J (signs epsJ) and the fixed
    indices K: a shift coefficient for s = 1, one term of the stationary sum
    for s = -1 (the second v-kernel of each moved pair flips its signs and
    shift)."""
    val = 1.0
    count = 0
    for j, ej in zip(J, epsJ):
        val = val * side.w1(j, ej)
    for a in range(len(J)):
        for b in range(a + 1, len(J)):
            val = val * side.vraw(J[a], epsJ[a], J[b], epsJ[b], 0)
            val = val * side.vraw(J[a], s * epsJ[a], J[b], s * epsJ[b], s)
            count += 2
    for j, ej in zip(J, epsJ):
        for k in K:
            val = val * side.vraw(j, ej, k, 1, 0)
            val = val * side.vraw(j, ej, k, -1, 0)
            count += 2
    return val * side.fold(count)


def coeff_v(side, J, epsJ, K):
    """Shift coefficient V_(eps J, K) at the side's coordinates."""
    return _kernel_product(side, J, epsJ, K, 1)


def coeff_u(side, K, order):
    """Stationary coefficient U_(K, order); equal to one at order zero."""
    if order == 0:
        return 1.0
    total = 0.0
    for L in itertools.combinations(K, order):
        rest = [k for k in K if k not in L]
        for eps in itertools.product((1, -1), repeat=order):
            total = total + _kernel_product(side, L, eps, rest, -1)
    return total * (-1) ** order


@lru_cache(maxsize=None)
def _shift_targets(n: int, N: int, J: tuple, eps: tuple):
    """Positions (rows, cols) of the grid weights whose shift by eps on the
    indices J stays in the alcove, and of the weights they shift to."""
    alcove, index = _alcove_index(n, N)
    rows, cols = [], []
    for i, nu in enumerate(alcove):
        target = list(nu)
        for j, ej in zip(J, eps):
            target[j] += ej
        k = index.get(tuple(target))
        if k is not None:
            rows.append(i)
            cols.append(k)
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


def _stencil_matrix(r: int, n: int, N: int, side_at) -> np.ndarray:
    """Dense matrix of the order-2r operator over the alcove; side_at(nus)
    gives the kernel side at a component-major batch of grid weights.

    The stationary coefficient of each index set J is evaluated at every
    weight, each shift coefficient only at the weights whose shift stays in
    the alcove."""
    weights = np.array(_alcove_index(n, N)[0]).T
    size = weights.shape[1]
    whole = side_at(weights)
    out = np.zeros((size, size), dtype=complex)
    for moved in range(r + 1):
        for J in itertools.combinations(range(n), moved):
            comp = [k for k in range(n) if k not in J]
            ucoef = np.broadcast_to(coeff_u(whole, comp, r - moved), size)
            for eps in itertools.product((1, -1), repeat=moved):
                rows, cols = _shift_targets(n, N, J, eps)
                out[rows, cols] = ucoef[rows] * coeff_v(side_at(weights[:, rows]), J, eps, comp)
    return out


def _grid_function(f, n: int, N: int) -> np.ndarray:
    f = np.asarray(f)
    if f.shape != (len(_alcove_index(n, N)[0]),):
        raise ValueError("grid function has the wrong length")
    return f


#: Bound of the operator-matrix cache: four orders, primal and dual, for
#: four parameter sets.  Each entry is one dense complex matrix, so the
#: worst case at 496 grid points is 32 * 496^2 * 16 bytes, about 126 MB.
OPERATOR_CACHE_SIZE = 32


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def _operator(r: int, p: ParamSet, mode: str) -> np.ndarray:
    out = _stencil_matrix(r, p.n, p.N, lambda nus: _primal_side(p, nus, mode))
    out.setflags(write=False)
    return out


def operator_matrix(r: int, p: ParamSet) -> np.ndarray:
    """Matrix of the commuting discrete operator of order 2r on the grid,
    rows and columns in the graded total order; r = 1 reproduces the
    second-order operator.  The matrix is cached per (r, p) and shared, so
    it is read-only."""
    if not 1 <= r <= p.n:
        raise ValueError("operator order must satisfy 1 <= r <= n")
    p.require_truncated()
    return _operator(r, p, _pick_path(p, "auto", "rational"))


def apply_dr(r: int, f, p: ParamSet) -> np.ndarray:
    """The commuting discrete operator of order 2r acting on a grid
    function; r = 1 reproduces the second-order operator."""
    f = _grid_function(f, p.n, p.N)
    return operator_matrix(r, p) @ f


# ---------------------------------------------------------------------------
# Eigenvalue multipliers
# ---------------------------------------------------------------------------


def e_r_generic(r: int, z, tauvec):
    """The elementary multiplier E_r(z; tau): alternating sum over index
    subsets J of prod_(j in J) (z_j + 1/z_j) times the complete homogeneous
    sums of (tau_l + 1/tau_l) over l = r..n."""
    n = len(z)
    zsym = [z[j] + 1 / z[j] for j in range(n)]
    tsym = [tauvec[l] + 1 / tauvec[l] for l in range(n)]
    total = 0.0
    for size in range(0, r + 1):
        inner = 0.0
        if size == r:
            inner = 1.0
        else:
            for combo in itertools.combinations_with_replacement(range(r - 1, n), r - size):
                prod = 1.0
                for l in combo:
                    prod = prod * tsym[l]
                inner = inner + prod
        for J in itertools.combinations(range(n), size):
            prod = 1.0
            for j in J:
                prod = prod * zsym[j]
            total = total + (-1) ** (r - size) * prod * inner
    return total


def e_multiplier(r: int, nu, p: ParamSet, *, dual: bool = False):
    """Eigenvalue multiplier at a grid weight: E_r at the grid point of nu
    (primal), or at the dual grid point of a degree lam (dual).  On the
    trigonometric branch this is the real cosine form."""
    if not 1 <= r <= p.n:
        raise ValueError("operator order must satisfy 1 <= r <= n")
    nu = tuple(nu)
    if p.trig is not None:
        ts = p.trig.dual() if dual else p.trig
        alpha = ts.alpha
        rho = ts.rho(p.n)
        czn = [math.cos(alpha * (rho[j] + nu[j])) for j in range(p.n)]
        cz0 = [math.cos(alpha * rho[l]) for l in range(p.n)]
        total = 0.0
        for size in range(0, r + 1):
            if size == r:
                inner = 1.0
            else:
                inner = 0.0
                for combo in itertools.combinations_with_replacement(
                    range(r - 1, p.n), r - size
                ):
                    prod = 1.0
                    for l in combo:
                        prod *= cz0[l]
                    inner += prod
            for J in itertools.combinations(range(p.n), size):
                prod = 1.0
                for j in J:
                    prod *= czn[j]
                total += (-1) ** (r - size) * prod * inner
        return 2 ** r * total
    dv = dual_view(p)
    if dual:
        base = np.array(dv.tauhat)
    else:
        base = np.array(p.tau)
    z = base * np.asarray(p.q) ** np.array(nu)
    return e_r_generic(r, z, base)


@lru_cache(maxsize=OPERATOR_CACHE_SIZE)
def multipliers(r: int, p: ParamSet, *, dual: bool = False) -> np.ndarray:
    """e_multiplier at every alcove weight, in the graded total order.  The
    vector is cached per (r, p, dual) and shared, so it is read-only."""
    out = np.array([e_multiplier(r, nu, p, dual=dual) for nu in _alcove_index(p.n, p.N)[0]])
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Pieri residuals and the norm recurrence
# ---------------------------------------------------------------------------


def pieri_residual(r: int, lam, p: ParamSet, renorm, *, path: str = "auto"):
    """Largest pointwise residual (relative to the term scale) of the
    restricted Pieri expansion of E_r * P_lam over the alcove.  The Pieri
    coefficients are row lam of the operator matrix at the dual
    parameters."""
    if not 1 <= r <= p.n:
        raise ValueError("operator order must satisfy 1 <= r <= n")
    i = renorm.position(tuple(lam))
    row = _operator(r, dual_view(p).dual_params(), _pick_path(p, path, "rational"))[i]
    targets = np.flatnonzero(row)
    coeffs, values = row[targets], renorm.values[targets]

    lhs = multipliers(r, p) * renorm.values[i]
    rhs = coeffs @ values
    scale = np.abs(lhs) + np.abs(coeffs) @ np.abs(values)
    resid = np.abs(lhs - rhs)
    return float(np.max(resid / np.maximum(scale, 1e-300)))


def plancherel_flatness(renorm, table) -> float:
    """Relative spread of <P_lam, P_lam> Deltahat(lam) across the alcove;
    identically constant (equal to <1, 1>) in exact arithmetic."""
    values = renorm.norms * table.delta_hat
    ref = table.one_one
    return float(np.max(np.abs(values - ref)) / abs(ref))


def _raised(lam, r: int, N: int):
    """The pair (lam, lam + omega_r), both required to lie in the alcove."""
    lam = tuple(lam)
    upper = tuple(v + (1 if i < r else 0) for i, v in enumerate(lam))
    if not (in_alcove(lam, N) and in_alcove(upper, N)):
        raise ValueError("both weights must lie in the alcove")
    return lam, upper


def _extremal_pieri(lam, upper, r: int, p: ParamSet, path: str):
    """The two extremal Pieri coefficients Vhat_(+omega_r)(lam) and
    Vhat_(-omega_r)(lam + omega_r)."""
    mode = _pick_path(p, path, "rational")
    dual = dual_view(p).dual_params()
    J = tuple(range(r))
    K = list(range(r, p.n))
    v_up = coeff_v(_primal_side(dual, lam, mode), J, (1,) * r, K)
    v_dn = coeff_v(_primal_side(dual, upper, mode), J, (-1,) * r, K)
    return v_up, v_dn


def norm_recurrence_residual(lam, r: int, p: ParamSet, renorm, table) -> float:
    """Relative residual of <P_lam, P_lam> Deltahat(lam) =
    <P_(lam+omega_r), P_(lam+omega_r)> Deltahat(lam + omega_r)."""
    lam, upper = _raised(lam, r, p.N)
    i, k = renorm.position(lam), renorm.position(upper)
    lhs = renorm.norms[i] * table.delta_hat[i]
    rhs = renorm.norms[k] * table.delta_hat[k]
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def raisefund_residual(lam, r: int, p: ParamSet, renorm, *, path: str = "auto"):
    """Residual of the raising relation connecting <P_lam, P_lam> and
    <P_(lam+omega_r), P_(lam+omega_r)> through the two extremal Pieri
    coefficients."""
    lam, upper = _raised(lam, r, p.N)
    v_up, v_dn = _extremal_pieri(lam, upper, r, p, path)
    n_lam = renorm.norms[renorm.position(lam)]
    n_up = renorm.norms[renorm.position(upper)]
    lhs = v_up * n_up
    rhs = v_dn * n_lam
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def chat_step_residuals(lam, r: int, p: ParamSet, *, path: str = "auto"):
    """Residuals of the two dual c-function difference equations

        Chat_+(lam) / Chat_+(lam + omega_r) = Vhat_(+omega_r)(lam),
        Chat_-(lam + omega_r) / Chat_-(lam) = Vhat_(-omega_r)(lam + omega_r).
    """
    lam, upper = _raised(lam, r, p.N)
    ratio_p = chat_plus(lam, p) / chat_plus(upper, p)
    ratio_m = chat_minus(upper, p) / chat_minus(lam, p)
    v_up, v_dn = _extremal_pieri(lam, upper, r, p, path)
    res_p = abs(ratio_p - v_up) / max(abs(ratio_p), abs(v_up))
    res_m = abs(ratio_m - v_dn) / max(abs(ratio_m), abs(v_dn))
    return res_p, res_m

"""Construction and evaluation of the orthogonal polynomial families.

The primary construction is grid Gram-Schmidt: process the alcove weights in
the graded total order and orthogonalize the symmetrized monomial m_lam
against the previously built members dominated by lam, with respect to the
discrete bilinear form sum_nu f g Delta(nu).  The monomials on the grid come
from one table (monomial_table).  The monic coefficients form one unit lower
triangular matrix C, values = C @ monomials, exactly zero outside the
dominance cone.  Each block of members is projected twice with the
dominance mask applied to the coefficients (classical Gram-Schmidt run
twice).  Orthogonality of the family makes the projection onto any
dominance-incomparable member vanish identically; those projections are
computed, verified to be numerically negligible, and dropped.

A second, independent route applies the spectral projector product

    prod_{mu < lam} (D - E_mu) / (E_lam - E_mu)

to m_lam, where D is the second-order difference operator acting on the
span of the dominated monomials.  The matrix of D on that span is recovered
numerically: evaluate D m_mu at generic sample points and solve the
interpolation system against the monomial values.  This route needs no grid
and therefore also builds the polynomials for leading weights outside the
alcove, where the truncated family vanishes identically on the grid.

The q -> 1 family (Wilson/Racah type) uses the same Gram-Schmidt engine in
the basis of permutation-invariant even monomials on the shifted grid
rho + nu.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import operators as _ops
from .cfunctions import WeightTable, racah_table, weight_table
from .errors import DegenerateParameterError
from .params import ParamSet, RacahParams, lift_racah
from .weights import dominance_leq, enumerate_alcove, orbit, permutation_orbit

_TINY = 1e-300
#: Largest relative projection onto a dominance-incomparable member that
#: Gram-Schmidt accepts as numerically zero.
_DROPTOL = 1e-10
#: Members per block of the Gram-Schmidt projection (see _family).
_BLOCK = 32


# ---------------------------------------------------------------------------
# Monomials and grids
# ---------------------------------------------------------------------------


def _check_points(pts, basis: str):
    if basis not in ("bc", "even"):
        raise ValueError(f"unknown basis {basis!r}")
    if basis == "bc" and np.any(pts == 0):
        raise ValueError("monomials need nonzero coordinates")


def monomial_point(lam, z, basis: str = "bc"):
    """Symmetrized monomial at a single point, summed term by term over the
    orbit (the reference for monomial_table).

    basis "bc": sum over the signed-permutation orbit of prod z_j^(mu_j);
    basis "even": sum over plain permutations of prod x_j^(2 mu_j).
    """
    z = np.asarray(z)
    _check_points(z, basis)
    lam = tuple(lam)
    vecs = np.array(orbit(lam)) if basis == "bc" else 2 * np.array(permutation_orbit(lam))
    return sum(np.prod(z ** vec) for vec in vecs)


def monomial_table(weights, pts, basis: str = "bc") -> np.ndarray:
    """The symmetrized monomials m_lam, lam in weights, at an array of points
    of shape (npts, n): one row per weight.

    The signed orbit of lam is its distinct permutations pi with independent
    signs on the nonzero parts, so m_lam = sum_pi prod_j T[j, pi_j] with
    T[j, a] = z_j^a + z_j^-a (T[j, 0] = 1) in the "bc" basis and
    T[j, a] = x_j^(2a) in the "even" basis.  T is built once for all
    weights; the orbits are summed one weight at a time, which keeps the
    working memory at one orbit by the points.
    """
    pts = np.asarray(pts)
    _check_points(pts, basis)
    weights = [tuple(lam) for lam in weights]
    top = np.arange(max((lam[0] for lam in weights), default=0) + 1)[:, None]
    T = pts.T[:, None, :] ** (2 * top if basis == "even" else top)
    if basis == "bc":
        T = T + pts.T[:, None, :] ** -top
        T[:, 0] = 1
    out = np.empty((len(weights), len(pts)), dtype=np.result_type(pts.dtype, np.complex128))
    for i, lam in enumerate(weights):
        perms = np.array(permutation_orbit(lam))
        terms = T[0, perms[:, 0]]
        for j in range(1, perms.shape[1]):
            terms = terms * T[j, perms[:, j]]
        out[i] = terms.sum(axis=0)
    return out


def monomial_values(lam, pts, basis: str = "bc"):
    """Symmetrized monomial on an array of points of shape (npts, n)."""
    return monomial_table([lam], pts, basis)[0]


def grid_points(p: ParamSet) -> np.ndarray:
    """The grid tau q^nu over the alcove, rows in the graded total order."""
    alcove = enumerate_alcove(p.n, p.N)
    tau = np.array(p.tau)
    return np.array([tau * np.asarray(p.q) ** np.array(nu) for nu in alcove])


def racah_grid_points(rp: RacahParams) -> np.ndarray:
    """The shifted-lattice grid rho + nu over the alcove."""
    alcove = enumerate_alcove(rp.n, rp.N)
    rho = np.array(rp.rho)
    return np.array([rho + np.array(nu) for nu in alcove], dtype=float)


def inner_product(f, g, delta):
    """Bilinear form sum_nu f(nu) g(nu) Delta(nu) (no conjugation)."""
    f, g = np.asarray(f), np.asarray(g)
    if f.shape != g.shape:
        raise ValueError("grid functions live on different grids")
    return np.sum(f * g * delta)


def inner_product_sesqui(f, g, delta):
    """Sesquilinear inner product sum_nu f(nu) conj(g(nu)) Delta(nu)."""
    f, g = np.asarray(f), np.asarray(g)
    if f.shape != g.shape:
        raise ValueError("grid functions live on different grids")
    return np.sum(f * np.conj(g) * delta)


@dataclass(frozen=True)
class SymPoly:
    """Finite expansion in a symmetrized-monomial basis, monic by
    construction: coeffs[leading] == 1 and every key is dominated by the
    leading weight."""

    coeffs: dict
    leading: tuple
    basis: str = "bc"

    def __call__(self, z):
        return sum(c * monomial_point(mu, z, self.basis) for mu, c in self.coeffs.items())

    def values(self, pts):
        coeffs = np.array(list(self.coeffs.values()))
        return coeffs @ monomial_table(list(self.coeffs), pts, self.basis)


# ---------------------------------------------------------------------------
# Gram-Schmidt on the grid
# ---------------------------------------------------------------------------


@dataclass
class OrthogonalFamily:
    """Monic orthogonal family over one alcove, rows aligned with the graded
    total order: values = C @ (the monomials on the grid)."""

    params: object
    basis: str
    alcove: tuple
    grid: np.ndarray
    delta: np.ndarray
    values: np.ndarray  # (nweights, npoints)
    C: np.ndarray  # unit lower triangular, zero outside the dominance cone
    norms: np.ndarray  # bilinear squared norms <p, p>
    max_incomparable_projection: float
    dominance: np.ndarray  # dominance[i, j]: alcove[j] <= alcove[i]

    def position(self, lam) -> int:
        return self._index[tuple(lam)]

    def __post_init__(self):
        self._index = {lam: i for i, lam in enumerate(self.alcove)}
        # Families are shared through the transform-context cache.
        for arr in (self.values, self.C, self.norms, self.dominance):
            arr.setflags(write=False)

    def _row(self, i) -> dict:
        """Row i of C as weight -> coefficient over the dominance span."""
        return {self.alcove[j]: self.C[i, j] for j in np.flatnonzero(self.dominance[i])}

    @cached_property
    def coeffs(self) -> tuple:
        """Per weight: dict weight -> coefficient (the rows of C)."""
        return tuple(map(self._row, range(len(self.alcove))))

    def poly(self, lam) -> SymPoly:
        return SymPoly(self._row(self.position(lam)), tuple(lam), self.basis)

    def gram_matrix(self) -> np.ndarray:
        scaled = self.values * self.delta
        return scaled @ self.values.T


def _family(params, table: WeightTable, grid, basis: str) -> OrthogonalFamily:
    """Masked classical Gram-Schmidt, run twice, over the monomials.

    Every projection is made twice ("twice is enough": Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50, 2005) and keeps only the
    coefficients on members dominated by the member's weight.  Members are
    built in blocks of _BLOCK consecutive weights: a block is projected on
    the members before it in one matrix product, twice, then each of its
    members on the block's earlier members, twice.  Every row operation
    acts on values and on C alike, so values = C @ mvals holds throughout
    and C stays exactly zero outside the dominance cone.

    After each block, <m_i, p_j> on the finished earlier members p_j not
    dominated by alcove[i] must be negligible relative to sum |m_i p_j Delta|
    (the largest is recorded); the first failing member in the total order
    raises, as does a vanishing squared norm.
    """
    alcove, delta, absdelta = table.alcove, table.delta, np.abs(table.delta)
    mvals = monomial_table(alcove, grid, basis)
    sums = np.cumsum(alcove, axis=1)
    dominance = np.all(sums[None, :, :] <= sums[:, None, :], axis=2)
    nw = len(alcove)
    incomparable = np.tri(nw, k=-1, dtype=bool) & ~dominance
    values, C, norms = mvals.copy(), np.eye(nw, dtype=mvals.dtype), np.zeros(nw, mvals.dtype)
    absvals, rel = np.zeros(values.shape, absdelta.dtype), np.zeros((nw, nw))

    def project(rows, done):
        X, P = values[rows], values[done]
        c = np.where(dominance[rows, done], ((X * delta) @ P.T) / norms[done], 0)
        X -= c @ P
        C[rows, : done.stop] -= c @ C[done, : done.stop]

    def check(rows, done):
        M = mvals[rows]
        raw = np.abs((M * delta) @ values[done].T)
        scale = (np.abs(M) * absdelta) @ absvals[done].T
        rel[rows, done] = np.where(incomparable[rows, done], raw / np.maximum(scale, _TINY), 0.0)

    for i0 in range(0, nw, _BLOCK):
        block = slice(i0, min(i0 + _BLOCK, nw))
        check(block, slice(0, i0))
        project(block, slice(0, i0))
        project(block, slice(0, i0))
        for i in range(i0, block.stop):
            project(slice(i, i + 1), slice(i0, i))
            project(slice(i, i + 1), slice(i0, i))
            norms[i] = values[i] @ (values[i] * delta)
        absvals[block] = np.abs(values[block])
        check(block, block)
        vanishing = np.abs(norms[block]) < 1e-10 * np.maximum(absvals[block] ** 2 @ absdelta, _TINY)
        failing = i0 + np.flatnonzero(vanishing | np.any(rel[block] > _DROPTOL, axis=1))
        if failing.size:
            i = failing[0]
            bad = np.flatnonzero(rel[i] > _DROPTOL)
            if bad.size:
                raise DegenerateParameterError(
                    f"projection onto incomparable weight {alcove[bad[0]]} did not vanish "
                    f"(relative size {rel[i, bad[0]]:.2e}); parameters appear non-generic"
                )
            raise DegenerateParameterError(
                f"vanishing squared norm at weight {alcove[i]}; parameters are non-generic"
            )
    maxdrop = float(rel.max(initial=0.0))
    return OrthogonalFamily(
        params, basis, alcove, grid, delta, values, C, norms, maxdrop, dominance
    )


def build_family(p: ParamSet, *, table: WeightTable | None = None) -> OrthogonalFamily:
    """Gram-Schmidt construction of the monic family on the grid tau q^nu."""
    return _family(p, table if table is not None else weight_table(p), grid_points(p), "bc")


def build_racah_family(rp: RacahParams, *, table: WeightTable | None = None) -> OrthogonalFamily:
    """Gram-Schmidt construction of the degenerate family on rho + nu."""
    return _family(rp, table if table is not None else racah_table(rp), racah_grid_points(rp), "even")


# ---------------------------------------------------------------------------
# Renormalized family
# ---------------------------------------------------------------------------


@dataclass
class RenormalizedFamily:
    """The family rescaled by the dual c-function Chat_+, which normalizes
    every member to the value one at the base grid point."""

    family: OrthogonalFamily
    chat_plus: np.ndarray
    values: np.ndarray
    norms: np.ndarray  # <P, P> = Chat_+^2 <p, p>
    at_origin: np.ndarray  # values at the nu = 0 grid point

    def __post_init__(self):
        for arr in (self.values, self.norms, self.at_origin):
            arr.setflags(write=False)

    def position(self, lam) -> int:
        return self.family.position(lam)

    @property
    def alcove(self):
        return self.family.alcove


def renormalize(family: OrthogonalFamily, table: WeightTable) -> RenormalizedFamily:
    chat = table.chat_plus
    values = family.values * chat[:, None]
    return RenormalizedFamily(
        family=family,
        chat_plus=chat,
        values=values,
        norms=family.norms * chat ** 2,
        at_origin=values[:, 0].copy(),
    )


# ---------------------------------------------------------------------------
# Eigenvalues and the spectral-projector construction
# ---------------------------------------------------------------------------


def eigenvalue_aw(lam, p: ParamSet):
    """Diagonal matrix element of the second-order operator on m_lam:

        sum_j [ q^-1 t0 t1 t2 t3 t^(2n-j-1) (q^(lam_j) - 1)
                + t^(j-1) (q^(-lam_j) - 1) ].
    """
    q, t = p.q, p.t
    abcd = p.t0 * p.t1 * p.t2 * p.t3
    n = p.n
    total = 0.0
    for j in range(1, n + 1):
        lj = lam[j - 1]
        total = total + abcd / q * t ** (2 * n - j - 1) * (q ** lj - 1) + t ** (j - 1) * (
            q ** (-lj) - 1
        )
    return total


def eigenvalue_wilson(lam, rp: RacahParams):
    """Eigenvalue of the degenerate operator: sum_j ((lam_j + rhohat_j)^2
    - rhohat_j^2)."""
    rhohat = rp.rho_hat
    return sum((lj + rh) ** 2 - rh ** 2 for lj, rh in zip(lam, rhohat))


def dominance_span(lam) -> list:
    """All dominant weights dominated by lam, in the graded total order.
    The span is downward closed, so the difference operator preserves it."""
    lam = tuple(lam)
    if lam[0] == 0:
        return [lam]
    candidates = enumerate_alcove(len(lam), lam[0])
    return [mu for mu in candidates if dominance_leq(mu, lam)]


def _sample_point(n, q, rng, margin=1e-3):
    while True:
        radii = rng.uniform(0.6, 1.4, n)
        angles = rng.uniform(0.0, 2 * np.pi, n)
        z = radii * np.exp(1j * angles)
        z2 = z * z
        if np.any(np.abs(z2 - 1) <= margin):
            continue
        if np.any(np.abs(q * z2 - 1) <= margin) or np.any(np.abs(z2 - q) <= margin):
            continue
        ok = True
        for j in range(n):
            for k in range(j + 1, n):
                if abs(z[j] * z[k] - 1) <= margin or abs(z[j] / z[k] - 1) <= margin:
                    ok = False
        if ok:
            return z


def _apply_analytic_d(fvals: Callable, z, p: ParamSet):
    """(D f)(z) for a callable f, via the analytic coefficients."""
    total = 0.0
    fz = fvals(z)
    for j in range(p.n):
        for eps in (1, -1):
            coeff = _ops.v_coeff(eps, j, z, p)
            zs = z.copy()
            zs[j] = zs[j] * p.q ** eps
            total = total + coeff * (fvals(zs) - fz)
    return total


def monomial_operator_matrix(span, p: ParamSet, rng=None):
    """Matrix of the difference operator on the span of dominated monomials.

    Column j holds the expansion of D m_(span[j]) over the span, recovered by
    evaluating at len(span) random points off the singular loci and solving
    the interpolation system.  The points are redrawn up to 20 times until
    the condition number is below 1e6; if the best one stays above 1e8,
    DegenerateParameterError is raised.  Returns (matrix, condition number).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    span = [tuple(mu) for mu in span]
    d = len(span)
    best_pts, best_cond = None, np.inf
    for _ in range(20):
        pts = np.array([_sample_point(p.n, p.q, rng) for _ in range(d)])
        M = monomial_table(span, pts, "bc").T
        cond = np.linalg.cond(M.astype(np.complex128))
        if cond < best_cond:
            best_pts, best_cond, best_M = pts, cond, M
        if cond < 1e6:
            break
    if best_cond > 1e8:
        raise DegenerateParameterError(
            f"interpolation system stayed ill-conditioned (cond {best_cond:.2e})"
        )
    pts, M = best_pts, best_M.astype(np.complex128)
    B = np.empty((d, d), dtype=np.complex128)
    for jcol, mu in enumerate(span):
        f = lambda z, _mu=mu: monomial_point(_mu, z, "bc")
        for irow in range(d):
            B[irow, jcol] = _apply_analytic_d(f, pts[irow].copy(), p)
    A = np.linalg.solve(M, B)
    A += np.linalg.solve(M, B - M @ A)  # one step of iterative refinement
    return A, best_cond


def triangularity_violation(span, A) -> float:
    """Largest entry (relative to the Frobenius norm) sitting where
    triangularity demands a zero: row weight not dominated by the column
    weight."""
    span = [tuple(mu) for mu in span]
    norm = np.linalg.norm(A)
    worst = 0.0
    for i, mu in enumerate(span):
        for j, lam in enumerate(span):
            if not dominance_leq(mu, lam):
                worst = max(worst, abs(A[i, j]))
    return worst / max(norm, _TINY)


def build_p_macdonald(lam, p: ParamSet, rng=None, *, operator=None, span=None) -> SymPoly:
    """Spectral-projector construction of the monic polynomial with leading
    weight lam.  Works for leading weights outside the alcove as well."""
    lam = tuple(lam)
    if span is None:
        span = dominance_span(lam)
    span = [tuple(mu) for mu in span]
    if operator is None:
        operator, _ = monomial_operator_matrix(span, p, rng)
    evs = [eigenvalue_aw(mu, p) for mu in span]
    e_lam = evs[-1]
    ev_scale = max(abs(e) for e in evs) or 1.0
    v = np.zeros(len(span), dtype=np.complex128)
    v[-1] = 1.0
    for i in range(len(span) - 1):
        gap = e_lam - evs[i]
        if abs(gap) < 1e-10 * ev_scale:
            raise DegenerateParameterError(
                f"eigenvalue collision between {span[i]} and {lam}"
            )
        v = (operator @ v - evs[i] * v) / gap
    v = v / v[-1]  # remove the numerical drift of the leading coefficient
    coeffs = {mu: v[i] for i, mu in enumerate(span)}
    return SymPoly(coeffs, lam, "bc")


# ---------------------------------------------------------------------------
# Degeneration diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitReport:
    lam: tuple
    epsilons: tuple
    deviations: tuple
    monotone: bool
    scale: float


def limit_check(lam, rp: RacahParams, epsilons, *, racah_family: OrthogonalFamily | None = None) -> LimitReport:
    """Deviation of the rescaled basic-level polynomial from its q -> 1
    limit over the shared grid, for a decreasing sequence of eps (q = e^-eps).

    The rescaling is (1 - q)^(-2 |lam|); in the grid coordinates the points
    do not move along the limit, so the comparison is entrywise.
    """
    lam = tuple(lam)
    rfam = racah_family if racah_family is not None else build_racah_family(rp)
    target = rfam.values[rfam.position(lam)]
    scale = float(max(np.max(np.abs(target)), 1.0))
    size = sum(lam)
    devs = []
    for eps in epsilons:
        pq = lift_racah(rp, eps)
        fam = build_family(pq)
        vals = fam.values[fam.position(lam)]
        scaled = (1 - pq.q) ** (-2 * size) * vals
        devs.append(float(np.max(np.abs(scaled - target))))
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    return LimitReport(lam, tuple(epsilons), tuple(devs), monotone, scale)


def monomial_grid_matrix(p: ParamSet) -> np.ndarray:
    """The square matrix of monomial values on the grid; its invertibility
    is what lets any grid function be represented inside the span."""
    return monomial_table(enumerate_alcove(p.n, p.N), grid_points(p), "bc")

"""Construction and evaluation of the orthogonal polynomial families.

The primary construction is grid Gram-Schmidt: process the alcove weights in
the graded total order and orthogonalize the symmetrized monomial m_lam
against all previously built members with respect to the discrete bilinear
form sum_nu f g Delta(nu).  Orthogonality of the family makes the projection
onto any dominance-incomparable member vanish identically; those projections
are computed, verified to be numerically negligible, and dropped, so the
support of every polynomial stays inside the dominance cone of its leading
weight.

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


# ---------------------------------------------------------------------------
# Monomials and grids
# ---------------------------------------------------------------------------


def _orbit_powers(lam, pts, basis: str):
    """The exponent vectors of the symmetrized monomial m_lam in a basis."""
    if basis == "bc":
        if np.any(pts == 0):
            raise ValueError("monomials need nonzero coordinates")
        return [np.array(vec) for vec in orbit(tuple(lam))]
    if basis == "even":
        return [2 * np.array(vec) for vec in permutation_orbit(tuple(lam))]
    raise ValueError(f"unknown basis {basis!r}")


def monomial_point(lam, z, basis: str = "bc"):
    """Symmetrized monomial at a single point.

    basis "bc": sum over the signed-permutation orbit of prod z_j^(mu_j);
    basis "even": sum over plain permutations of prod x_j^(2 mu_j).
    """
    z = np.asarray(z)
    return sum(np.prod(z ** vec) for vec in _orbit_powers(lam, z, basis))


def monomial_values(lam, pts, basis: str = "bc"):
    """Symmetrized monomial on an array of points of shape (npts, n)."""
    pts = np.asarray(pts)
    vecs = _orbit_powers(lam, pts, basis)
    out = np.zeros(pts.shape[0], dtype=np.result_type(pts.dtype, np.complex128))
    for vec in vecs:
        out += np.prod(pts ** vec, axis=1)
    return out


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
        pts = np.asarray(pts)
        out = np.zeros(pts.shape[0], dtype=np.result_type(pts.dtype, np.complex128))
        for mu, c in self.coeffs.items():
            out += c * monomial_values(mu, pts, self.basis)
        return out


# ---------------------------------------------------------------------------
# Gram-Schmidt on the grid
# ---------------------------------------------------------------------------


@dataclass
class OrthogonalFamily:
    """Monic orthogonal family over one alcove, rows aligned with the graded
    total order."""

    params: object
    basis: str
    alcove: tuple
    grid: np.ndarray
    delta: np.ndarray
    values: np.ndarray  # (nweights, npoints)
    coeffs: tuple  # per weight: dict weight -> coefficient
    norms: np.ndarray  # bilinear squared norms <p, p>
    max_incomparable_projection: float

    def position(self, lam) -> int:
        return self._index[tuple(lam)]

    def __post_init__(self):
        self._index = {lam: i for i, lam in enumerate(self.alcove)}
        # Families are shared through the transform-context cache.
        for arr in (self.values, self.norms):
            arr.setflags(write=False)

    def poly(self, lam) -> SymPoly:
        i = self.position(lam)
        return SymPoly(dict(self.coeffs[i]), tuple(lam), self.basis)

    def gram_matrix(self) -> np.ndarray:
        scaled = self.values * self.delta
        return scaled @ self.values.T


def _gram_schmidt(alcove, mvals, delta):
    nw = len(alcove)
    values = np.zeros_like(mvals)
    coeffs: list = []
    norms: list = []
    absdelta = np.abs(delta)
    maxdrop = 0.0
    for i, lam in enumerate(alcove):
        v = mvals[i].copy()
        cdict = {lam: 1.0 + 0.0j}
        comparable = []
        for j in range(i):
            mu = alcove[j]
            raw = np.sum(mvals[i] * values[j] * delta)
            if dominance_leq(mu, lam):
                c = raw / norms[j]
                v -= c * values[j]
                for key, val in coeffs[j].items():
                    cdict[key] = cdict.get(key, 0.0) - c * val
                comparable.append(j)
            else:
                scale = np.sum(np.abs(mvals[i]) * np.abs(values[j]) * absdelta)
                rel = abs(raw) / max(float(scale), _TINY)
                maxdrop = max(maxdrop, rel)
                if rel > _DROPTOL:
                    raise DegenerateParameterError(
                        f"projection onto incomparable weight {mu} did not vanish "
                        f"(relative size {rel:.2e}); parameters appear non-generic"
                    )
        # One refinement sweep keeps the family orthogonal to machine
        # precision even when the weights vary over many orders.
        for j in comparable:
            c2 = np.sum(v * values[j] * delta) / norms[j]
            v -= c2 * values[j]
            for key, val in coeffs[j].items():
                cdict[key] = cdict.get(key, 0.0) - c2 * val
        nrm = np.sum(v * v * delta)
        scale = np.sum(np.abs(v) ** 2 * absdelta)
        if abs(nrm) < 1e-10 * max(float(scale), _TINY):
            raise DegenerateParameterError(
                f"vanishing squared norm at weight {lam}; parameters are non-generic"
            )
        values[i] = v
        coeffs.append(cdict)
        norms.append(nrm)
    return values, tuple(coeffs), np.array(norms), maxdrop


def _family(params, table: WeightTable, grid, basis: str) -> OrthogonalFamily:
    mvals = np.array([monomial_values(lam, grid, basis) for lam in table.alcove])
    # values, coeffs, norms, max_incomparable_projection
    found = _gram_schmidt(table.alcove, mvals, table.delta)
    return OrthogonalFamily(params, basis, table.alcove, grid, table.delta, *found)


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
        M = np.array([monomial_values(mu, pts, "bc") for mu in span]).T
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
    alcove = enumerate_alcove(p.n, p.N)
    grid = grid_points(p)
    return np.array([monomial_values(mu, grid, "bc") for mu in alcove])

"""The q-Racah transform and its kernel matrices.

Three matrices, all indexed by the alcove in the graded total order:

  * K, the orthogonal matrix with entries
        P_mu(tau q^nu) sqrt(Deltahat(mu)) sqrt(Delta(nu)) / sqrt(<1, 1>);
    K^T K = I for generic truncated parameters, K is real in the positivity
    domain, and transposition swaps the parameters for their duals.

  * The transform kernel with entries P_mu(tau q^nu) Delta(nu)/sqrt(<1, 1>),
    mapping grid functions to dual-grid functions; it factors as
    Deltahat^(-1/2) K Delta^(1/2).

  * The inverse kernel, built independently from the dual family (never by
    inverting a matrix): Phat_nu(tauhat q^mu) Deltahat(mu)/sqrt(<1, 1>).
    That the two kernels compose to the identity is evidence, not a
    definition.

In the positivity domain the transform is unitary between the weighted
sesquilinear inner products and simultaneously diagonalizes the commuting
discrete operators; the diagonal multipliers are the dual eigenvalue
multipliers.  The q -> 1 case carries the same structure on the shifted
lattice grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cfunctions import WeightTable, racah_table, weight_table
from .operators import e_multiplier, operator_matrix
from .params import ParamSet, RacahParams, dual_view, in_positivity_domain
from .polynomials import (
    OrthogonalFamily,
    RenormalizedFamily,
    build_family,
    build_racah_family,
    inner_product_sesqui,
    renormalize,
)


@dataclass
class TransformContext:
    """Everything the transform needs for one parameter set (a ParamSet, or
    RacahParams at the q -> 1 level): the primal and dual weight tables and
    renormalized families, built once."""

    params: ParamSet | RacahParams
    table: WeightTable
    family: OrthogonalFamily
    renorm: RenormalizedFamily
    dual_params: ParamSet | RacahParams
    dual_table: WeightTable
    dual_family: OrthogonalFamily
    dual_renorm: RenormalizedFamily

    @property
    def alcove(self):
        return self.table.alcove


_CONTEXT_CACHE: dict = {}


def _context(p, dual_of, table_of, family_of) -> TransformContext:
    """The cached context of p; a miss builds table_of and family_of on p
    and on its dual parameters dual_of(p)."""
    ctx = _CONTEXT_CACHE.get(p)
    if ctx is None:
        fields = []
        for side in (p, dual_of(p)):
            table = table_of(side)
            family = family_of(side, table=table)
            fields += [side, table, family, renormalize(family, table)]
        ctx = _CONTEXT_CACHE[p] = TransformContext(*fields)
    return ctx


def transform_context(p: ParamSet) -> TransformContext:
    return _context(p, lambda side: dual_view(side).dual_params(), weight_table, build_family)


def _warn_if_branch_dependent(delta: np.ndarray) -> None:
    if np.any(delta.real <= 0) or np.any(np.abs(delta.imag) > 1e-9 * np.abs(delta)):
        warnings.warn(
            "weights are not positive reals: square roots use the principal "
            "branch and only orthogonality (not unitarity) is claimed",
            stacklevel=3,
        )


def _k_matrix(ctx: TransformContext) -> np.ndarray:
    table = ctx.table
    sd = np.sqrt(table.delta.astype(complex))
    sdh = np.sqrt(table.delta_hat.astype(complex))
    root = np.sqrt(complex(table.one_one))
    return ctx.renorm.values.astype(complex) * sdh[:, None] * sd[None, :] / root


def build_k_matrix(ctx: TransformContext) -> np.ndarray:
    """The orthogonal matrix K; square roots are principal (they are roots
    of positive reals throughout the positivity domain)."""
    p = ctx.params
    if p.trig is None or not in_positivity_domain(p):
        _warn_if_branch_dependent(ctx.table.delta.astype(complex))
    return _k_matrix(ctx)


def forward_kernel(ctx: TransformContext) -> np.ndarray:
    """Kernel of the transform: rows dual-grid degrees, columns grid points."""
    table = ctx.table
    root = np.sqrt(complex(table.one_one))
    return ctx.renorm.values.astype(complex) * table.delta.astype(complex)[None, :] / root


def inverse_kernel(ctx: TransformContext) -> np.ndarray:
    """Kernel of the inverse transform, from the dual family's own formula:
    rows grid points (indexed by the dual degree through duality), columns
    dual-grid points."""
    table = ctx.table
    root = np.sqrt(complex(table.one_one))
    dvals = ctx.dual_renorm.values.astype(complex)
    return dvals * ctx.dual_table.delta.astype(complex)[None, :] / root


def forward(ctx: TransformContext, f) -> np.ndarray:
    return forward_kernel(ctx) @ np.asarray(f, dtype=complex)


def inverse(ctx: TransformContext, fhat) -> np.ndarray:
    return inverse_kernel(ctx) @ np.asarray(fhat, dtype=complex)


def plancherel_residual(ctx: TransformContext, f, g) -> float:
    """|<f, g>_Delta - <Kf, Kg>_Deltahat| / scale for one pair of grid
    functions (sesquilinear forms)."""
    lhs = inner_product_sesqui(f, g, ctx.table.delta.astype(complex))
    fh, gh = forward(ctx, f), forward(ctx, g)
    rhs = inner_product_sesqui(fh, gh, ctx.table.delta_hat.astype(complex))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


@dataclass(frozen=True)
class DiagonalizationReport:
    r: int
    forward_residual: float
    backward_residual: float


def diagonalization_report(ctx: TransformContext, r: int) -> DiagonalizationReport:
    """Frobenius-norm residuals of conjugating the order-2r operator into
    the dual multiplier (and the dual operator into the primal multiplier)."""
    K = forward_kernel(ctx)
    Kinv = inverse_kernel(ctx)
    D = operator_matrix(r, ctx.params)
    Dhat = operator_matrix(r, ctx.dual_params)
    ehat = np.array([e_multiplier(r, lam, ctx.params, dual=True) for lam in ctx.alcove])
    e = np.array([e_multiplier(r, nu, ctx.params) for nu in ctx.alcove])
    fwd = K @ D @ Kinv - np.diag(ehat.astype(complex))
    bwd = Kinv @ Dhat @ K - np.diag(e.astype(complex))
    scale = max(np.max(np.abs(ehat)), np.max(np.abs(e)), 1e-300)
    return DiagonalizationReport(
        r=r,
        forward_residual=float(np.linalg.norm(fwd) / scale),
        backward_residual=float(np.linalg.norm(bwd) / scale),
    )


# ---------------------------------------------------------------------------
# q -> 1 case
# ---------------------------------------------------------------------------


def racah_transform_context(rp: RacahParams) -> TransformContext:
    return _context(rp, RacahParams.dual, racah_table, build_racah_family)


def build_k_matrix_racah(ctx: TransformContext) -> np.ndarray:
    _warn_if_branch_dependent(ctx.table.delta.astype(complex))
    _warn_if_branch_dependent(ctx.table.delta_hat.astype(complex))
    return _k_matrix(ctx)

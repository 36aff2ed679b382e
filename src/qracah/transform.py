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

One TransformContext per parameter set holds its build graph, and the
parameter type picks the level: a ParamSet builds with weight_table and
build_family, RacahParams (q -> 1) with racah_table and build_racah_family.
Each stage is built on first read, then kept: table, family, renorm;
dual_params and the dual side (dual_table, dual_family, dual_renorm, read
from a plain context of the dual parameters that its primal holds); the
forward and inverse kernels, read-only.  So forward builds no dual family.
_context keeps the last CONTEXT_CACHE_SIZE contexts, one per parameter set,
in an LRU cache; transform_context reads it and returns with both families
built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cfunctions import WeightTable, racah_table, weight_table
from .operators import multipliers, operator_matrix
from .params import ParamSet, RacahParams, dual_view, in_positivity_domain
from .polynomials import (
    OrthogonalFamily,
    RenormalizedFamily,
    build_family,
    build_racah_family,
    inner_product_sesqui,
    renormalize,
)

#: Bound of the context cache.  One context holds about 8.5 MB at 231 grid
#: points, kernels included, and grows with the square of the size: the
#: worst case at 496 points is 16 * 40 MB, about 640 MB.
CONTEXT_CACHE_SIZE = 16


class TransformContext:
    """The build graph of one parameter set (a ParamSet, or RacahParams at
    the q -> 1 level); each stage is built on first read."""

    def __init__(self, params: ParamSet | RacahParams):
        self.params = params
        self.is_racah = isinstance(params, RacahParams)

    @cached_property
    def table(self) -> WeightTable:
        return racah_table(self.params) if self.is_racah else weight_table(self.params)

    @cached_property
    def family(self) -> OrthogonalFamily:
        build = build_racah_family if self.is_racah else build_family
        return build(self.params, table=self.table)

    @cached_property
    def renorm(self) -> RenormalizedFamily:
        return renormalize(self.family, self.table)

    @property
    def alcove(self):
        return self.table.alcove

    @cached_property
    def dual_params(self) -> ParamSet | RacahParams:
        return self.params.dual() if self.is_racah else dual_view(self.params).dual_params()

    @cached_property
    def dual(self) -> TransformContext:
        # Held here and not cached: one parameter set is one cache entry.
        return TransformContext(self.dual_params)

    @property
    def dual_table(self) -> WeightTable:
        return self.dual.table

    @property
    def dual_family(self) -> OrthogonalFamily:
        return self.dual.family

    @property
    def dual_renorm(self) -> RenormalizedFamily:
        return self.dual.renorm

    def _kernel(self, side: TransformContext) -> np.ndarray:
        # The primal sqrt(<1, 1>) for both: the dual sum differs by rounding.
        root = np.sqrt(complex(self.table.one_one))
        out = side.renorm.values.astype(complex) * side.table.delta.astype(complex)[None, :] / root
        out.setflags(write=False)
        return out

    @cached_property
    def forward_kernel(self) -> np.ndarray:
        return self._kernel(self)

    @cached_property
    def inverse_kernel(self) -> np.ndarray:
        return self._kernel(self.dual)


_context = lru_cache(maxsize=CONTEXT_CACHE_SIZE)(TransformContext)


def transform_context(p: ParamSet | RacahParams) -> TransformContext:
    """The cached context of p, returned with both families built."""
    ctx = _context(p)
    ctx.renorm, ctx.dual_renorm  # reading a stage builds it
    return ctx


def _warn_if_branch_dependent(delta: np.ndarray) -> None:
    if np.any(delta.real <= 0) or np.any(np.abs(delta.imag) > 1e-9 * np.abs(delta)):
        warnings.warn(
            "weights are not positive reals: square roots use the principal "
            "branch and only orthogonality (not unitarity) is claimed",
            stacklevel=3,
        )


def build_k_matrix(ctx: TransformContext) -> np.ndarray:
    """The orthogonal matrix K; square roots are principal (they are roots
    of positive reals throughout the positivity domain).  At the q -> 1
    level both weight tables are checked."""
    p, table = ctx.params, ctx.table
    if ctx.is_racah or p.trig is None or not in_positivity_domain(p):
        _warn_if_branch_dependent(table.delta.astype(complex))
    if ctx.is_racah:
        _warn_if_branch_dependent(table.delta_hat.astype(complex))
    sd = np.sqrt(table.delta.astype(complex))
    sdh = np.sqrt(table.delta_hat.astype(complex))
    root = np.sqrt(complex(table.one_one))
    return ctx.renorm.values.astype(complex) * sdh[:, None] * sd[None, :] / root


# The q -> 1 names: the parameter type already picks the level.
racah_transform_context = transform_context
build_k_matrix_racah = build_k_matrix


def forward_kernel(ctx: TransformContext) -> np.ndarray:
    """Kernel of the transform: rows dual-grid degrees, columns grid points."""
    return ctx.forward_kernel


def inverse_kernel(ctx: TransformContext) -> np.ndarray:
    """Kernel of the inverse transform, from the dual family's own formula:
    rows grid points (indexed by the dual degree through duality), columns
    dual-grid points."""
    return ctx.inverse_kernel


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
    K, Kinv = forward_kernel(ctx), inverse_kernel(ctx)
    D = operator_matrix(r, ctx.params)
    Dhat = operator_matrix(r, ctx.dual_params)
    ehat = multipliers(r, ctx.params, dual=True)
    e = multipliers(r, ctx.params)
    fwd = K @ D @ Kinv - np.diag(ehat.astype(complex))
    bwd = Kinv @ Dhat @ K - np.diag(e.astype(complex))
    scale = max(np.max(np.abs(ehat)), np.max(np.abs(e)), 1e-300)
    return DiagonalizationReport(
        r=r,
        forward_residual=float(np.linalg.norm(fwd) / scale),
        backward_residual=float(np.linalg.norm(bwd) / scale),
    )


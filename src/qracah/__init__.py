"""Multivariable q-Racah polynomials and their discrete harmonic analysis.

The Koornwinder (multivariable Askey-Wilson) polynomials, restricted to
parameters satisfying the truncation condition t_a t_b t^(n-1) q^N = 1,
become a finite orthogonal system on the grid tau q^nu indexed by the
alcove of dominant weights with parts at most N.  This package builds the
polynomials, their discrete weights and dual (Plancherel) weights, the
normalization constants, the commuting difference operators they
diagonalize, the associated unitary grid transform, and the q -> 1
degeneration to multivariable Racah/Wilson polynomials, together with
residual checks for every identity tying these objects together.
"""

from .cfunctions import (
    WeightTable,
    c_minus,
    c_minus_racah,
    c_plus,
    c_plus_racah,
    chat_minus,
    chat_plus,
    delta,
    delta_hat,
    delta_racah,
    norm_ratio,
    one_one,
    racah_table,
    weight_table,
)
from .errors import DegenerateParameterError, PoleError, SingularEvaluationError
from .operators import (
    apply_d,
    apply_d_racah,
    apply_dr,
    chat_step_residuals,
    e_multiplier,
    e_r_generic,
    flip_residual,
    flip_scan,
    norm_recurrence_residual,
    operator_matrix,
    pieri_residual,
    plancherel_flatness,
    raisefund_residual,
    reslem_scan,
    restriction_constant,
    v_coeff,
    v_coeff_racah,
    v_coeff_trig,
)
from .params import (
    DualView,
    ParamSet,
    RacahParams,
    TrigSource,
    dual_view,
    from_trig,
    in_positivity_domain,
    lift_racah,
    racah_params,
)
from .polynomials import (
    LimitReport,
    OrthogonalFamily,
    RenormalizedFamily,
    SymPoly,
    build_family,
    build_p_macdonald,
    build_racah_family,
    dominance_span,
    eigenvalue_aw,
    eigenvalue_wilson,
    grid_points,
    inner_product,
    inner_product_sesqui,
    limit_check,
    monomial_grid_matrix,
    monomial_operator_matrix,
    monomial_point,
    monomial_table,
    monomial_values,
    racah_grid_points,
    renormalize,
    triangularity_violation,
)
from .special import (
    f43_monic_wilson,
    phi43_monic_aw,
    poch,
    qpoch,
    qpoch_many,
    trig_poch_cos,
    trig_poch_sin,
)
from .transform import (
    DiagonalizationReport,
    TransformContext,
    build_k_matrix,
    build_k_matrix_racah,
    diagonalization_report,
    forward,
    forward_kernel,
    inverse,
    inverse_kernel,
    plancherel_residual,
    racah_transform_context,
    transform_context,
)
from .weights import (
    alcove_size,
    dominance_leq,
    enumerate_alcove,
    in_alcove,
    is_dominant,
    orbit,
    permutation_orbit,
    stabilizer_size,
    total_compare,
    total_key,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"

"""Command-line front end.

Subcommands: weights | poly | gram | norms | transform | verify | racah |
limit.  Parameters come from a flat key = value configuration file; outputs
are JSON (complex numbers as {"re": ..., "im": ...} objects) and CSV
(complex cells as "re,im" pairs).  Reports are deterministic for a fixed
configuration and seed; timing goes to stderr, never into report files.

Example configuration::

    kind = trig
    n = 2
    N = 4
    alpha = auto        # pi / ((n-1) g + g_a + g_b + N)
    g = 0.3
    g_a = 0.5
    g_b = 0.4
    g_c = 0.2
    g_d = 0.1
    roles = 0,1,2,3

A Racah-kind file uses kind = racah with the additive exponents; g_b may be
"auto" to solve the additive truncation exactly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import operators as ops
from . import transform as tr
from .errors import DegenerateParameterError, PoleError, SingularEvaluationError
from .params import from_trig, in_positivity_domain, racah_params
from .polynomials import (
    build_p_macdonald,
    dominance_span,
    eigenvalue_aw,
    grid_points,
    limit_check,
    monomial_operator_matrix,
    monomial_values,
    racah_grid_points,
    triangularity_violation,
)
from .weights import in_alcove


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_params(path: str, precision: str = "double"):
    """Build a ParamSet or RacahParams from a configuration file."""
    raw = parse_config_text(Path(path).read_text())
    kind = raw.get("kind", "trig")
    n = int(raw["n"])
    N = int(raw["N"])
    roles = tuple(int(x) for x in raw.get("roles", "0,1,2,3").split(","))
    g = float(raw.get("g", "0"))
    g_a = float(raw["g_a"])
    g_c = float(raw["g_c"])
    g_d = float(raw["g_d"])
    if kind == "trig":
        g_b = float(raw["g_b"])
        alpha_raw = raw.get("alpha", "auto")
        if alpha_raw == "auto":
            alpha = math.pi / ((n - 1) * g + g_a + g_b + N)
        else:
            alpha = float(alpha_raw)
        return from_trig(
            alpha, g, g_a, g_b, g_c, g_d, n, N, roles=roles, precision=precision
        )
    if kind == "racah":
        gb_raw = raw.get("g_b", "auto")
        if gb_raw == "auto":
            g_b = -g_a - (n - 1) * g - N
        else:
            g_b = float(gb_raw)
        slots = [None] * 4
        for pos, slot in enumerate(roles):
            slots[slot] = (g_a, g_b, g_c, g_d)[pos]
        return racah_params(g, *slots, n, N, roles=roles)
    raise ValueError(f"unknown configuration kind {kind!r}")


def config_digest(path: str, seed: int) -> str:
    payload = Path(path).read_bytes() + str(seed).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _cplx(z) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def _wkey(lam) -> str:
    return ",".join(str(int(v)) for v in lam)


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_complex_csv(path: Path, matrix) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for row in matrix:
            writer.writerow([f"{z.real:.17g},{z.imag:.17g}" for z in row])


# ---------------------------------------------------------------------------
# Shared build state
# ---------------------------------------------------------------------------


class Session:
    """One parameter set's transform context, with the seed and generator
    of the sampled checks.  The context builds only the stages a command
    reads."""

    def __init__(self, params, seed: int):
        self.params = params
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.ctx = tr._context(params)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _suite_orthogonality(s: Session):
    G = s.ctx.family.gram_matrix()
    diag = np.max(np.abs(np.diag(G)))
    off = G - np.diag(np.diag(G))
    return float(np.max(np.abs(off)) / diag), 1e-9


def _suite_norms(s: Session):
    fam, tab = s.ctx.family, s.ctx.table
    predicted = tab.norm_ratio * tab.one_one
    scale = np.maximum(np.abs(fam.norms), np.abs(predicted))
    return float(np.max(np.abs(fam.norms - predicted) / np.maximum(scale, 1e-300))), 1e-9


def _suite_evaluation(s: Session):
    return float(np.max(np.abs(s.ctx.renorm.at_origin - 1))), 1e-10


def _suite_duality(s: Session):
    ctx = s.ctx
    scale = max(float(np.max(np.abs(ctx.renorm.values))), 1.0)
    resid = np.max(np.abs(ctx.renorm.values - ctx.dual_renorm.values.T)) / scale
    one_inv = abs(ctx.table.one_one - ctx.dual_table.one_one) / abs(ctx.table.one_one)
    return float(max(resid, one_inv)), 1e-9


def _suite_transform(s: Session):
    ctx = s.ctx
    size = len(ctx.alcove)
    K = tr.build_k_matrix(ctx)
    if ctx.is_racah:
        # A sign-mixed degenerate measure makes the orthogonality sums
        # cancel across terms far larger than the result; normalize by the
        # cancellation-free magnitude so the check measures accuracy, not
        # conditioning.
        scale = max(1.0, float(np.linalg.norm(np.abs(K).T @ np.abs(K))))
        return float(np.linalg.norm(K.T @ K - np.eye(size)) / scale), 1e-8
    ortho = np.linalg.norm(K.T @ K - np.eye(size))
    km, kh = tr.forward_kernel(ctx), tr.inverse_kernel(ctx)
    round_trip = np.linalg.norm(kh @ km - np.eye(size))
    f = s.rng.standard_normal(size) + 1j * s.rng.standard_normal(size)
    g = s.rng.standard_normal(size) + 1j * s.rng.standard_normal(size)
    plancherel = tr.plancherel_residual(ctx, f, g)
    return float(max(ortho, round_trip, plancherel)), 1e-8


def _suite_diagonalization(s: Session):
    worst = 0.0
    for r in range(1, s.params.n + 1):
        rep = tr.diagonalization_report(s.ctx, r)
        worst = max(worst, rep.forward_residual, rep.backward_residual)
    return float(worst), 1e-7


def _suite_flip(s: Session):
    return float(ops.flip_scan(s.params)), 1e-12


def _suite_reslem(s: Session):
    ratio, _ = ops.reslem_scan(s.params)
    return float(ratio), 1e-12


def _suite_symmetry(s: Session):
    tab = s.ctx.table
    size = len(tab.alcove)
    worst = 0.0
    for _ in range(20):
        f = s.rng.standard_normal(size) + 1j * s.rng.standard_normal(size)
        g = s.rng.standard_normal(size) + 1j * s.rng.standard_normal(size)
        lhs = np.sum(ops.apply_d(f, s.params) * g * tab.delta)
        rhs = np.sum(f * ops.apply_d(g, s.params) * tab.delta)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return float(worst), 1e-11


def _suite_pieri(s: Session):
    ren = s.ctx.renorm
    worst = 0.0
    for lam in s.ctx.table.alcove:
        for r in range(1, s.params.n + 1):
            worst = max(worst, ops.pieri_residual(r, lam, s.params, ren))
    return float(worst), 1e-9


def _suite_normrec(s: Session):
    return float(ops.plancherel_flatness(s.ctx.renorm, s.ctx.table)), 1e-9


def _suite_positivity(s: Session):
    p, tab = s.params, s.ctx.table
    if not in_positivity_domain(p):
        return math.inf, 1e-12
    worst = 0.0
    for arr in (tab.delta, tab.delta_hat, tab.norm_ratio):
        mags = np.abs(arr)
        worst = max(worst, float(np.max(np.abs(arr.imag) / mags)))
        if np.any(arr.real <= 0):
            return math.inf, 1e-12
    return worst, 1e-12


def _suite_cross(s: Session):
    p, fam = s.params, s.ctx.family
    span = list(s.ctx.table.alcove)
    A, _ = monomial_operator_matrix(span, p, s.rng)
    diag = np.array([A[i, i] for i in range(len(span))])
    evs = np.array([eigenvalue_aw(mu, p) for mu in span])
    diag_resid = np.max(np.abs(diag - evs)) / np.max(np.abs(evs))
    tria = triangularity_violation(span, A)
    worst_coeff = 0.0
    for lam in span:
        sub = dominance_span(lam)
        idx = [span.index(mu) for mu in sub]
        pm = build_p_macdonald(lam, p, operator=A[np.ix_(idx, idx)], span=sub)
        gs = fam.poly(lam)
        keys = set(pm.coeffs) | set(gs.coeffs)
        scale = max(abs(gs.coeffs.get(k, 0.0)) for k in keys)
        diff = max(abs(pm.coeffs.get(k, 0.0) - gs.coeffs.get(k, 0.0)) for k in keys)
        worst_coeff = max(worst_coeff, diff / scale)
    return float(max(diag_resid, tria, worst_coeff)), 1e-8


def _suite_vanishing(s: Session):
    p = s.params
    lam = (p.N + 1,) + (0,) * (p.n - 1)
    pm = build_p_macdonald(lam, p, s.rng)
    grid = grid_points(p)
    vals = pm.values(grid)
    scale = np.zeros(len(grid))
    for mu, c in pm.coeffs.items():
        scale += abs(c) * np.abs(monomial_values(mu, grid, "bc"))
    return float(np.max(np.abs(vals) / np.maximum(scale, 1e-300))), 1e-7


_Q_SUITES = {
    "orthogonality": _suite_orthogonality,
    "norms": _suite_norms,
    "evaluation": _suite_evaluation,
    "duality": _suite_duality,
    "transform": _suite_transform,
    "diagonalization": _suite_diagonalization,
    "flip": _suite_flip,
    "reslem": _suite_reslem,
    "symmetry": _suite_symmetry,
    "pieri": _suite_pieri,
    "normrec": _suite_normrec,
    "positivity": _suite_positivity,
    "cross": _suite_cross,
    "vanishing": _suite_vanishing,
}

_RACAH_SUITES = {
    "orthogonality": _suite_orthogonality,
    "norms": _suite_norms,
    "evaluation": _suite_evaluation,
    "duality": _suite_duality,
    "transform": _suite_transform,
}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_weights(s: Session, out: Path, args) -> int:
    tab = s.ctx.table
    payload = {
        "one_one": _cplx(tab.one_one),
        "entries": {
            _wkey(lam): {
                "delta": _cplx(tab.delta[i]),
                "delta_hat": _cplx(tab.delta_hat[i]),
                "norm_ratio": _cplx(tab.norm_ratio[i]),
            }
            for i, lam in enumerate(tab.alcove)
        },
    }
    write_json(out / "weights.json", payload)
    grid = racah_grid_points(s.params) if s.ctx.is_racah else grid_points(s.params)
    write_complex_csv(out / "grid.csv", grid)
    print(f"wrote {len(tab.alcove)} weight rows to {out}")
    return 0


def _selected_weights(s: Session, spec: str | None):
    alcove = s.ctx.table.alcove
    if not spec:
        return list(alcove)
    lam = tuple(int(x) for x in spec.split(","))
    if not in_alcove(lam, s.params.N) or len(lam) != s.params.n:
        raise SystemExit(f"weight {spec} is not in the alcove")
    return [lam]


def cmd_poly(s: Session, out: Path, args) -> int:
    fam = s.ctx.family
    for lam in _selected_weights(s, args.weight):
        poly = fam.poly(lam)
        payload = {_wkey(mu): _cplx(c) for mu, c in sorted(poly.coeffs.items())}
        write_json(out / f"poly_{'_'.join(map(str, lam))}.json", payload)
        write_complex_csv(
            out / f"poly_{'_'.join(map(str, lam))}_grid.csv",
            fam.values[fam.position(lam)][None, :],
        )
    print(f"wrote polynomial data to {out}")
    return 0


def cmd_gram(s: Session, out: Path, args) -> int:
    fam = s.ctx.family
    G = fam.gram_matrix()
    write_complex_csv(out / "gram.csv", G)
    diag = np.max(np.abs(np.diag(G)))
    offmax = float(np.max(np.abs(G - np.diag(np.diag(G)))) / diag)
    write_json(out / "gram_report.json", {"max_offdiagonal_over_diagonal": offmax})
    print(f"gram matrix written; max off-diagonal / diagonal = {offmax:.3e}")
    return 0


def cmd_norms(s: Session, out: Path, args) -> int:
    fam, tab = s.ctx.family, s.ctx.table
    predicted = tab.norm_ratio * tab.one_one
    payload = {
        _wkey(lam): {
            "measured": _cplx(fam.norms[i]),
            "predicted": _cplx(predicted[i]),
            "relative_residual": float(
                abs(fam.norms[i] - predicted[i])
                / max(abs(fam.norms[i]), abs(predicted[i]), 1e-300)
            ),
        }
        for i, lam in enumerate(tab.alcove)
    }
    write_json(out / "norms.json", payload)
    print(f"wrote norm table to {out}")
    return 0


def _write_k_matrix(ctx, out: Path) -> float:
    """Write K to k_matrix.csv and return its orthogonality residual."""
    K = tr.build_k_matrix(ctx)
    write_complex_csv(out / "k_matrix.csv", K)
    return float(np.linalg.norm(K.T @ K - np.eye(len(ctx.alcove))))


def cmd_transform(s: Session, out: Path, args) -> int:
    ctx = s.ctx
    size = len(ctx.alcove)
    resid = _write_k_matrix(ctx, out)
    if ctx.is_racah:
        write_json(out / "transform_report.json", {"orthogonality_residual": resid})
        print(f"orthogonality residual {resid:.3e}")
        return 0
    write_complex_csv(out / "kernel.csv", tr.forward_kernel(ctx))
    write_complex_csv(out / "kernel_inverse.csv", tr.inverse_kernel(ctx))
    if args.input:
        rows = Path(args.input).read_text().strip().splitlines()
        f = np.array([complex(*map(float, row.split(","))) for row in rows])
        if f.shape != (size,):
            raise SystemExit(f"input vector must have length {size}")
    else:
        f = np.zeros(size, dtype=complex)
        f[0] = 1.0
    fhat = tr.forward(ctx, f)
    back = tr.inverse(ctx, fhat)
    write_complex_csv(out / "transformed.csv", fhat[None, :])
    roundtrip = float(np.max(np.abs(back - f)))
    write_json(
        out / "transform_report.json",
        {"orthogonality_residual": resid, "round_trip_error": roundtrip},
    )
    print(f"round-trip error {roundtrip:.3e}")
    return 0


def cmd_verify(s: Session, out: Path, args) -> int:
    registry = _RACAH_SUITES if s.ctx.is_racah else _Q_SUITES
    names = args.suite or sorted(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise SystemExit(f"unknown suites: {', '.join(unknown)} (have {', '.join(sorted(registry))})")
    report = []
    all_pass = True
    for name in names:
        start = time.perf_counter()
        try:
            residual, tolerance = registry[name](s)
            error = None
        except (PoleError, SingularEvaluationError, DegenerateParameterError) as exc:
            # A suite that raised fails with an unbounded residual and no
            # tolerance of its own; the remaining suites still run.
            residual, tolerance, error = math.inf, math.nan, type(exc).__name__
        if args.tol is not None:
            tolerance = args.tol
        passed = bool(residual < tolerance)
        all_pass &= passed
        elapsed = time.perf_counter() - start
        print(
            f"{name:16s} residual {residual:10.3e}  tolerance {tolerance:8.1e}  "
            f"{'pass' if passed else 'FAIL'}",
        )
        print(f"  ({elapsed:.2f}s)", file=sys.stderr)
        entry = {
            "suite": name,
            "parameters": config_digest(args.config, s.seed),
            "max_residual": residual,
            "tolerance": tolerance,
            "pass": passed,
        }
        if error is not None:
            entry["error"] = error
        report.append(entry)
    write_json(out / "verify_report.json", report)
    return 0 if all_pass else 1


def cmd_racah(s: Session, out: Path, args) -> int:
    if not s.ctx.is_racah:
        raise SystemExit("the racah subcommand needs a kind = racah configuration")
    cmd_weights(s, out, args)
    cmd_gram(s, out, args)
    cmd_norms(s, out, args)
    resid = _write_k_matrix(s.ctx, out)
    write_json(out / "racah_report.json", {"orthogonality_residual": resid})
    print(f"racah kernel orthogonality residual {resid:.3e}")
    return 0


def cmd_limit(s: Session, out: Path, args) -> int:
    if not s.ctx.is_racah:
        raise SystemExit("the limit subcommand needs a kind = racah configuration")
    epsilons = tuple(args.eps) if args.eps else (1e-1, 5e-2, 2.5e-2)
    fam = s.ctx.family
    payload = {}
    all_monotone = True
    for lam in s.ctx.table.alcove:
        if sum(lam) == 0 or sum(lam) > args.max_degree:
            continue
        rep = limit_check(lam, s.params, epsilons, racah_family=fam)
        payload[_wkey(lam)] = {
            "epsilons": list(rep.epsilons),
            "deviations": list(rep.deviations),
            "monotone": rep.monotone,
            "scale": rep.scale,
        }
        all_monotone &= rep.monotone
        print(f"{_wkey(lam):8s} deviations {['%.3e' % d for d in rep.deviations]} monotone={rep.monotone}")
    write_json(out / "limit_report.json", payload)
    return 0 if all_monotone else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qracah",
        description="multivariable q-Racah polynomials: tables, transforms, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="flat key = value parameter file")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=12345, help="seed for sampled checks")
    common.add_argument(
        "--precision", choices=("double", "extended"), default="double",
        help="working precision for the product formulas",
    )
    common.add_argument("--tol", type=float, default=None, help="override suite tolerances")

    sub.add_parser("weights", parents=[common])
    sp = sub.add_parser("poly", parents=[common])
    sp.add_argument("--weight", default=None, help="comma-separated parts; default all")
    sub.add_parser("gram", parents=[common])
    sub.add_parser("norms", parents=[common])
    sp = sub.add_parser("transform", parents=[common])
    sp.add_argument("--input", default=None, help="CSV vector ('re,im' per line) to transform")
    sp = sub.add_parser("verify", parents=[common])
    sp.add_argument("--suite", action="append", default=None, help="suite name (repeatable)")
    sub.add_parser("racah", parents=[common])
    sp = sub.add_parser("limit", parents=[common])
    sp.add_argument("--eps", type=float, action="append", default=None)
    sp.add_argument("--max-degree", type=int, default=3)
    return parser


_COMMANDS = {
    "weights": cmd_weights,
    "poly": cmd_poly,
    "gram": cmd_gram,
    "norms": cmd_norms,
    "transform": cmd_transform,
    "verify": cmd_verify,
    "racah": cmd_racah,
    "limit": cmd_limit,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    params = load_params(args.config, precision=args.precision)
    session = Session(params, args.seed)
    out = Path(args.out)
    start = time.perf_counter()
    code = _COMMANDS[args.command](session, out, args)
    print(f"total {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

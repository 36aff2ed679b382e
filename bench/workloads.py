"""The three benchmark workloads.

Each workload is a closed loop with one client: the benchmark makes one
library call sequence (an operation), waits for it, checks its output
outside the timed interval, then makes the next.  The work is a whole
number of rounds, one round being one pass over the workload's fixed list
of shapes (n, N); each round draws fresh inputs.

* ``transform_build``: ``transform_context`` then ``build_k_matrix`` on a
  freshly drawn trig parameter set, so every cache lookup misses.
  Construction (``polynomials``, ``cfunctions``) dominates.
* ``verify``: one ``qracah verify`` run with all suites, through
  ``qracah.cli.main``.  The operator layer dominates, and it is the only
  workload that sees a speed-up that loses digits.
* ``apply``: the reuse path.  Contexts are built in set-up; an operation is
  a cache-hit ``transform_context``, ``forward``, ``inverse`` and
  ``apply_dr``.  It is the only workload that runs the rational kernel
  route (generic complex parameters).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qracah as qr
from qracah import cli
from qracah import operators as ops
from qracah import transform as tr

import inputs
from spans import SUITES

TRANSFORM_TOL = 1e-8  # the verify `transform` suite tolerance
DIAGONALIZATION_TOL = 1e-7  # the verify `diagonalization` suite tolerance


@dataclass
class Outcome:
    """Result of one operation's output check.

    ``checks`` and ``failed`` count individual checks (one per suite in
    ``verify``); ``broken`` marks an operation whose output is wrong or
    inconsistent as a whole.
    """

    checks: int
    failed: int
    broken: bool
    detail: dict = field(default_factory=dict)
    suites: list = field(default_factory=list)


def warm_shape_caches(shapes) -> None:
    """Empty, then fill, the caches keyed only by shape (signed orbits,
    alcove index), which every parameter set of that shape shares.  Emptying
    them first makes every repeated set-up pay the same warm-up."""
    alcove_index = getattr(ops, "_alcove_index", None)
    for cache in (qr.orbit, alcove_index):
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()
    for n, N in shapes:
        for lam in qr.enumerate_alcove(n, N):
            qr.orbit(lam)
        if callable(alcove_index):
            alcove_index(n, N)


def run_pass(workload, plan, recorder=None) -> dict:
    """Run every operation of ``plan`` in a closed loop, timing each one and
    checking its output outside the timed interval."""
    times, outcomes = [], []
    for op in plan:
        if recorder is not None:
            recorder.op = op.index
        start = time.perf_counter()
        try:
            out, error = workload.run(op), None
        except Exception as exc:  # counted as a broken operation, never raised
            out, error = None, exc
        elapsed = time.perf_counter() - start
        if recorder is not None:
            recorder.op = None
        if error is None:
            outcomes.append(workload.check(op, out))
        else:
            outcomes.append(Outcome(1, 1, True, {"error": type(error).__name__, "message": str(error)}))
        times.append(elapsed)
    return {"times": times, "outcomes": outcomes, "wall_s": sum(times)}


class Workload:
    name: str
    key: int  # keeps the workloads' random streams apart
    round_s: float  # nominal seconds per round on the reference machine
    shapes: tuple

    def rounds(self, seconds: int) -> int:
        """Rounds for a run of ``seconds``.  The count depends only on
        ``seconds``, never on the clock, so two commits compared at the same
        setting do the same work."""
        return max(1, round(seconds / self.round_s))

    def setup(self, seed: int, rep: int, rounds: int, work: Path) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# transform_build
# ---------------------------------------------------------------------------


@dataclass
class BuildOp:
    index: int
    shape: tuple
    params: qr.ParamSet


class TransformBuild(Workload):
    name = "transform_build"
    key = 1
    round_s = 7.0
    # n=2, N=30 (496 points, several seconds per build today) is left out so
    # that a round stays short.
    shapes = ((1, 80), (1, 160)) + tuple((2, N) for N in range(8, 21)) + tuple(
        (3, N) for N in range(5, 10)
    ) + ((4, 3), (4, 5))

    def setup(self, seed, rep, rounds, work):
        rng = inputs.stream(seed, self.key, rep)
        warm_shape_caches(self.shapes)
        plan = []
        for _ in range(rounds):
            for n, N in self.shapes:
                plan.append(BuildOp(len(plan), (n, N), inputs.trig_params(rng, n, N)))
        return plan

    def run(self, op):
        return tr.build_k_matrix(tr.transform_context(op.params))

    def check(self, op, K):
        resid = float(np.linalg.norm(K.T @ K - np.eye(len(K))))
        ok = resid < TRANSFORM_TOL
        return Outcome(1, 0 if ok else 1, not ok, {"ktk_residual": resid})


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass
class VerifyOp:
    index: int
    shape: tuple
    config: Path
    out: Path
    cli_seed: int


@dataclass
class VerifyOutput:
    code: int | None
    error: str | None
    stdout: str
    stderr: str


@dataclass
class SuiteResult:
    suite: str
    residual: float
    tolerance: float
    passed: bool
    cli_s: float  # the suite time the CLI itself prints (two decimals)
    error: str | None = None


_SUITE_LINE = re.compile(r"^(\S+)\s+residual\s+(\S+)\s+tolerance\s+(\S+)\s+(pass|FAIL)\s*$")
_TIME_LINE = re.compile(r"^\s+\(([0-9.]+)s\)\s*$")


def parse_verify_output(stdout: str, stderr: str) -> list:
    """The suite lines ``qracah verify`` printed, paired with the suite
    times it printed to stderr, in order."""
    rows = [m.groups() for m in map(_SUITE_LINE.match, stdout.splitlines()) if m]
    times = [float(m.group(1)) for m in map(_TIME_LINE.match, stderr.splitlines()) if m]
    times += [0.0] * (len(rows) - len(times))
    return [
        SuiteResult(name, float(res), float(tol), verdict == "pass", t)
        for (name, res, tol, verdict), t in zip(rows, times)
    ]


class Verify(Workload):
    name = "verify"
    key = 2
    round_s = 5.2
    shapes = ((1, 12), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (3, 4), (4, 2))

    def setup(self, seed, rep, rounds, work):
        rng = inputs.stream(seed, self.key, rep)
        warm_shape_caches(self.shapes)
        root = work / "verify" / f"rep{rep}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        plan = []
        for _ in range(rounds):
            for n, N in self.shapes:
                i = len(plan)
                config = root / f"op{i}.cfg"
                config.write_text(inputs.config_text(n, N, inputs.trig_exponents(rng)))
                cli_seed = int(rng.integers(2**31))
                plan.append(VerifyOp(i, (n, N), config, root / f"op{i}", cli_seed))
        return plan

    def run(self, op):
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = ["verify", "--config", str(op.config), "--out", str(op.out), "--seed", str(op.cli_seed)]
        code, error = None, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a suite raised: the CLI ends in a traceback
                error = type(exc).__name__
        return VerifyOutput(code, error, stdout.getvalue(), stderr.getvalue())

    def check(self, op, out):
        registry = getattr(cli, "_Q_SUITES", None)
        expected = sorted(registry) if isinstance(registry, dict) else list(SUITES)
        printed = {r.suite: r for r in parse_verify_output(out.stdout, out.stderr)}
        problems = []
        report_path = op.out / "verify_report.json"
        if out.error is None:
            if not report_path.is_file():
                problems.append("no verify_report.json")
            else:
                for entry in json.loads(report_path.read_text()):
                    row = printed.get(entry.get("suite"))
                    if row is None:
                        problems.append(f"{entry.get('suite')} reported but not printed")
                        continue
                    # The report holds the full-precision residual.
                    row.residual = float(entry["max_residual"])
                    row.tolerance = float(entry["tolerance"])
                    if bool(entry["pass"]) != row.passed:
                        problems.append(f"{row.suite}: report and printout disagree")
                    elif row.passed != (row.residual < row.tolerance):
                        problems.append(f"{row.suite}: verdict does not match residual")
        suites = []
        for name in expected:
            row = printed.get(name)
            if row is None:
                # Never ran: an earlier suite raised (or the suite is missing).
                row = SuiteResult(name, math.nan, math.nan, False, 0.0, out.error or "missing")
                if out.error is None:
                    problems.append(f"{name} missing from the output")
            suites.append(row)
        failed = sum(not r.passed for r in suites)
        if out.error is None and out.code != (0 if failed == 0 else 1):
            problems.append(f"exit code {out.code} with {failed} failing suites")
        detail = {"exit_code": out.code, "error": out.error, "problems": problems}
        return Outcome(len(suites), failed, bool(problems), detail, suites)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


@dataclass
class ApplyOp:
    index: int
    shape: tuple
    set_index: int
    params: qr.ParamSet
    r: int
    f: np.ndarray


class Apply(Workload):
    name = "apply"
    key = 3
    round_s = 0.17
    trig_shapes = ((1, 40), (2, 6), (2, 8), (3, 4), (3, 5), (4, 3))
    complex_shapes = ((1, 12), (2, 4), (3, 3))
    shapes = trig_shapes + complex_shapes

    def __init__(self):
        self._ehat: dict = {}

    def setup(self, seed, rep, rounds, work):
        rng = inputs.stream(seed, self.key, rep)
        warm_shape_caches(self.shapes)
        sets = [inputs.trig_params(rng, n, N) for n, N in self.trig_shapes]
        sets += [inputs.complex_params(rng, n, N) for n, N in self.complex_shapes]
        for p in sets:
            tr.transform_context(p)
        plan = []
        for _ in range(rounds):
            for k, p in enumerate(sets):
                size = qr.alcove_size(p.n, p.N)
                for r in range(1, p.n + 1):
                    f = inputs.grid_function(rng, size)
                    plan.append(ApplyOp(len(plan), (p.n, p.N), k, p, r, f))
        return plan

    def run(self, op):
        ctx = tr.transform_context(op.params)
        fhat = tr.forward(ctx, op.f)
        back = tr.inverse(ctx, fhat)
        return fhat, back, ops.apply_dr(op.r, op.f, op.params)

    def _dual_multipliers(self, op, ctx) -> np.ndarray:
        key = (op.params, op.r)
        if key not in self._ehat:
            self._ehat[key] = np.array(
                [ops.e_multiplier(op.r, lam, op.params, dual=True) for lam in ctx.alcove],
                dtype=complex,
            )
        return self._ehat[key]

    def check(self, op, out):
        fhat, back, df = out
        round_trip = float(np.linalg.norm(back - op.f) / np.linalg.norm(op.f))
        ctx = tr.transform_context(op.params)
        ehat = self._dual_multipliers(op, ctx)
        diag = float(
            np.linalg.norm(tr.forward(ctx, df) - ehat * fhat)
            / (np.max(np.abs(ehat)) * max(float(np.linalg.norm(fhat)), 1e-300))
        )
        failed = int(round_trip >= TRANSFORM_TOL) + int(diag >= DIAGONALIZATION_TOL)
        detail = {"round_trip": round_trip, "diagonalization": diag, "r": op.r}
        return Outcome(2, failed, failed > 0, detail)


WORKLOADS = {w.name: w for w in (TransformBuild, Verify, Apply)}

"""Self-tests of the benchmark: inputs, output checks, traced metrics."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qracah as qr
from qracah import cli

import inputs
import spans
from workloads import WORKLOADS, VerifyOp, VerifyOutput

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", range(5))
def test_trig_draws_truncated_and_positive(seed):
    rng = inputs.stream(seed, 0)
    for name in ("transform_build", "verify", "apply"):
        for n, N in WORKLOADS[name].shapes:
            p = inputs.trig_params(rng, n, N)
            assert p.is_truncated
            assert qr.in_positivity_domain(p)


@pytest.mark.parametrize("seed", range(5))
def test_complex_draws_truncated_and_off_circle(seed):
    rng = inputs.stream(seed, 0)
    for n, N in WORKLOADS["apply"].complex_shapes:
        p = inputs.complex_params(rng, n, N)
        assert p.trig is None
        assert p.is_truncated
        for z in (p.q, p.t, p.t_a, p.t_c, p.t_d):
            assert 0.015 < abs(np.log(abs(z))) < 0.105


def test_config_text_round_trips_through_the_cli(tmp_path):
    ex = inputs.trig_exponents(inputs.stream(3, 0))
    path = tmp_path / "c.cfg"
    path.write_text(inputs.config_text(2, 5, ex))
    p = cli.load_params(str(path))
    assert p == qr.from_trig(inputs.trig_alpha(ex, 2, 5), *ex, 2, 5)


def _plan_digest(name, seed, work):
    wl = WORKLOADS[name]()
    plan = wl.setup(seed, 0, 1, work)
    h = hashlib.sha256()
    for op in plan:
        if hasattr(op, "params"):
            h.update(repr(op.params).encode())
        if hasattr(op, "f"):
            h.update(op.f.tobytes())
        if hasattr(op, "config"):
            h.update(op.config.read_bytes() + str(op.cli_seed).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", ["transform_build", "verify", "apply"])
def test_generator_is_deterministic(name, tmp_path):
    first = _plan_digest(name, 7, tmp_path / "a")
    assert first == _plan_digest(name, 7, tmp_path / "b")
    assert first != _plan_digest(name, 8, tmp_path / "c")


def test_suite_that_raises_fails_the_rest(tmp_path):
    wl = WORKLOADS["verify"]()
    stdout = (
        "cross            residual  3.000e-05  tolerance  1.0e-08  FAIL\n"
        "diagonalization  residual  1.000e-13  tolerance  1.0e-07  pass\n"
    )
    out = VerifyOutput(None, "DegenerateParameterError", stdout, "  (0.10s)\n  (0.20s)\n")
    op = VerifyOp(0, (3, 8), tmp_path / "c.cfg", tmp_path / "out", 1)
    outcome = wl.check(op, out)
    assert not outcome.broken
    assert outcome.checks == len(spans.SUITES)
    assert outcome.failed == len(spans.SUITES) - 1
    by_name = {r.suite: r for r in outcome.suites}
    assert by_name["diagonalization"].passed and by_name["diagonalization"].cli_s == 0.2
    assert by_name["cross"].error is None
    assert all(by_name[s].error == "DegenerateParameterError" for s in spans.SUITES[2:])


def test_declared_per_layer_metrics_match_the_recorder():
    assert DECLARED["per_layer"] == spans.per_layer_declarations()


def test_untraced_run_reports_every_end_to_end_metric():
    res = run_bench("--workload", "apply", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert res.returncode == 0, res.stderr
    out = last_json(res.stdout)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_verify_reports_every_per_layer_metric():
    res = run_bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert res.returncode == 0, res.stderr
    out = last_json(res.stdout)
    metrics = out["metrics"]
    assert list(metrics) == [m["name"] for m in DECLARED["per_layer"]]
    for suite in spans.SUITES:
        assert metrics[f"cli.suite.{suite}.s"]["value"] > 0
    self_s = {k: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
    assert max(self_s, key=self_s.get) == "operators.apply_dr.self_s"
    assert metrics["polynomials.build_family.points"]["value"] > 0
    # the known cross/vanishing failures at n=2, N >= 5 and n=3, N=4
    assert metrics["cli.suite.cross.failed"]["value"] + metrics["cli.suite.vanishing.failed"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench("--workload", "apply", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""

"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  The benchmark runs (criteria 8 and 10) share a module-scoped
fixture so the whole suite stays within the runtime budgets.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from stlopt import (
    Interval,
    MetricConfig,
    Pred,
    agm_and,
    benchmark_eq2,
    evaluate,
    expected_improvement,
    format_formula,
    gp_fit,
    gp_predict,
    horizon,
    new_and,
    parse_formula,
    smooth_max,
    smooth_min,
    softmax_lse,
    softmin_lse,
)
from stlopt.exceptions import AvgSemanticsError
from stlopt.harness import ExperimentConfig, run_experiment
from stlopt.optim import Bounds, optimize
from stlopt.properties import random_instance

from conftest import make_trace
from oracle import brute_space


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    # bypass pytest capture so one line per criterion always reaches the log
    print(f"ACCEPTANCE {number:2d} {status} - {detail}", file=sys.__stdout__)
    assert passed, f"criterion {number}: {detail}"


def run_cli(*args):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "stlopt", *args], capture_output=True, text=True
    )
    return proc, time.monotonic() - start


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    """Criterion 8 benchmark runs (bo, budget 60, seeds 0..4) for three
    metrics, with the metric=new config executed twice into the same
    directory for the determinism criterion."""
    root = tmp_path_factory.mktemp("bench")
    out = {}
    elapsed = 0.0

    new_dir = root / "new"
    proc, dt = run_cli(
        "bench", "eq2", "--method", "bo", "--metric", "new", "--nu", "2",
        "--budget", "60", "--seeds", "5", "--out", str(new_dir),
    )
    assert proc.returncode == 0, proc.stderr
    elapsed += dt
    first_bytes = {
        name: (new_dir / name).read_bytes() for name in ("runs.csv", "summary.json")
    }
    out["new"] = json.loads(first_bytes["summary.json"])

    proc, dt = run_cli(
        "bench", "eq2", "--method", "bo", "--metric", "new", "--nu", "2",
        "--budget", "60", "--seeds", "5", "--out", str(new_dir),
    )
    assert proc.returncode == 0, proc.stderr
    elapsed += dt
    second_bytes = {
        name: (new_dir / name).read_bytes() for name in ("runs.csv", "summary.json")
    }

    for metric, extra in (("smooth", ["--k", "10"]), ("space", [])):
        metric_dir = root / metric
        proc, dt = run_cli(
            "bench", "eq2", "--method", "bo", "--metric", metric, *extra,
            "--budget", "60", "--seeds", "5", "--out", str(metric_dir),
        )
        assert proc.returncode == 0, proc.stderr
        elapsed += dt
        out[metric] = json.loads((metric_dir / "summary.json").read_text())

    return {
        "summaries": out,
        "first_bytes": first_bytes,
        "second_bytes": second_bytes,
        "elapsed": elapsed,
    }


def test_criterion_01_property_suite():
    proc, elapsed = run_cli("check-properties", "--samples", "500", "--seed", "42")
    ok = proc.returncode == 0 and elapsed < 60.0
    report(1, ok, f"check-properties exit={proc.returncode} in {elapsed:.1f}s (< 60s)")


def test_criterion_02_lse_bound():
    rng = np.random.default_rng(2)
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(1, 11))
        scale = 10.0 ** rng.uniform(-2, 2)
        v = rng.uniform(-scale, scale, size=m)
        for k in (1.0, 10.0, 100.0):
            bound = math.log(m) / k + 1e-12
            if abs(softmax_lse(v, k) - v.max()) > bound:
                violations += 1
            if abs(softmin_lse(v, k) - v.min()) > bound:
                violations += 1
    report(2, violations == 0, f"{violations} violations of ln(m)/k over 1000 vectors")


def test_criterion_03_closed_form_aggregators():
    e = math.e
    cases = [
        ("softmax_lse([0,0],2)", softmax_lse([0, 0], 2.0), math.log(2) / 2),
        ("smooth_min([0,0],1)", smooth_min([0, 0], 1.0), -math.log(2)),
        ("smooth_max([1,3],1)", smooth_max([1, 3], 1.0), (e + 3 * e**3) / (e + e**3)),
        ("agm_and([0.5,-0.5])", agm_and([0.5, -0.5]), -0.25),
        ("new_and([-1,1],1)", new_and([-1, 1], 1.0), (-(e**2) + e**-2) / (e**2 + e**-2)),
    ]
    worst = max(abs(got - want) for _, got, want in cases)
    report(3, worst <= 1e-6, f"max closed-form deviation {worst:.2e} (<= 1e-6)")


def test_criterion_04_space_matches_bruteforce():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(300):
        f, tr = random_instance(rng)
        space = evaluate(MetricConfig("space"), f, tr, 0.0).value
        worst = max(worst, abs(space - brute_space(f, tr, 0.0)))
    report(4, worst <= 1e-12, f"max |space - brute force| = {worst:.2e} over 300 pairs")


def test_criterion_05_parser_and_roundtrip():
    spec = benchmark_eq2()
    text = format_formula(spec.formula)
    parsed = parse_formula(text)
    structure_ok = parsed == spec.formula and horizon(parsed) == 15.0
    first = parsed.args[0]
    shape_ok = (
        first.interval == Interval(3.0, 4.0)
        and isinstance(first.child.args[0], Pred)
        and len(first.child.args) == 4
    )
    from stlopt.properties import random_formula

    rng = np.random.default_rng(5)
    ok_roundtrip = True
    for _ in range(200):
        f = random_formula(rng, int(rng.integers(1, 6)))
        if parse_formula(format_formula(f)) != f:
            ok_roundtrip = False
            break
    report(
        5,
        structure_ok and shape_ok and ok_roundtrip,
        f"eq2 parses with horizon {horizon(parsed)}; 200-case round-trip "
        f"{'ok' if ok_roundtrip else 'failed'}",
    )


def test_criterion_06_cmaes_sphere():
    bounds = Bounds(np.full(9, -5.0), np.full(9, 5.0))
    center = np.linspace(-2.0, 2.0, 9)

    def sphere(x):
        return -float(np.sum((x - center) ** 2))

    start = time.monotonic()
    hits = 0
    for seed in range(10):
        records = optimize(sphere, bounds, 2000, "cmaes", seed)
        if max(r.value for r in records) >= -1e-6:
            hits += 1
    elapsed = time.monotonic() - start
    report(6, hits >= 9 and elapsed < 10.0, f"{hits}/10 seeds reach -1e-6 in {elapsed:.1f}s (< 10s)")


def test_criterion_07_gp_and_ei():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(20, 4))
    y = np.cos(X @ np.array([3.0, -2.0, 1.0, 0.5]))
    model = gp_fit(X, y, lengthscale=0.5, sigma_f2=1.0, sigma_n2=1e-8)
    mean, _ = gp_predict(model, X)
    interp_err = float(np.max(np.abs(mean - y)))
    ei_center = expected_improvement(0.0, 1.0, 0.0)
    ei_degenerate = expected_improvement(-0.5, 0.0, 0.0)
    ok = (
        interp_err <= 1e-4
        and abs(ei_center - 0.398942) <= 1e-6
        and ei_degenerate == 0.0
    )
    report(
        7,
        ok,
        f"interp err {interp_err:.1e} (<=1e-4), EI(0,1,0)={ei_center:.6f}, EI(s=0)={ei_degenerate}",
    )


def test_criterion_08_bo_benchmark(bench_runs):
    summaries = bench_runs["summaries"]

    def ts_hits(summary):
        return sum(1 for s in summary["per_seed"] if s["ts"] != "Fail" and s["ts"] <= 60)

    new_hits = ts_hits(summaries["new"])
    smooth_hits = ts_hits(summaries["smooth"])
    sr_new = summaries["new"]["mean_sr"]
    sr_space = summaries["space"]["mean_sr"]
    elapsed = bench_runs["elapsed"]
    ok = (
        new_hits >= 4
        and smooth_hits >= 4
        and sr_new > sr_space
        and elapsed < 300.0
    )
    report(
        8,
        ok,
        f"TS<=60: new {new_hits}/5, smooth {smooth_hits}/5; "
        f"mean SR new {sr_new:.1f} > space {sr_space:.1f}; "
        f"benchmarks took {elapsed:.0f}s (< 300s)",
    )


def test_criterion_09_avg_guard():
    nested = parse_formula("F[0,1](G[0,1](x > 0))")
    tr = make_trace(np.ones(10))
    try:
        evaluate(MetricConfig("avg"), nested, tr, 0.0)
        guarded = False
    except AvgSemanticsError:
        guarded = True

    cfg = ExperimentConfig(
        method="random", metric=MetricConfig("avg"), budget=5, seeds=[0], task="eq2"
    )
    result = run_experiment(cfg)
    ran = len(result.per_seed[0].records) == 5
    report(9, guarded and ran, f"nested avg rejected={guarded}, avg on eq2 ran {ran}")


def test_criterion_10_determinism(bench_runs):
    same = bench_runs["first_bytes"] == bench_runs["second_bytes"]
    sizes = {k: len(v) for k, v in bench_runs["first_bytes"].items()}
    report(10, same, f"byte-identical runs.csv and summary.json across reruns {sizes}")

from stlopt import properties
from stlopt.properties import run_property_suite

CHECK_NAMES = (
    "soundness/space",
    "soundness/agm",
    "soundness/new",
    "soundness/smooth",
    "soundness/avg",
    "soundness/lse-negative-control",
    "lse/approximation-bound",
    "limits/new-approaches-min",
    "scale-invariance/min",
    "scale-invariance/new",
    "scale-invariance/agm-negative-control",
    "shadow-lifting/agm",
    "shadow-lifting/new",
    "shadow-lifting/min-negative-control",
    "smoothness/finite-difference",
    "idempotency/table",
    "determinism/evaluate",
)

# ten instances find no LSE sign disagreement, so the control fails
REPORT_10_0 = (
    "property suite: 10 samples, seed 0\n"
    "PASS soundness/space: sign matches oracle on 10 instances\n"
    "PASS soundness/agm: sign matches oracle on 10 instances\n"
    "PASS soundness/new: sign matches oracle on 10 instances\n"
    "PASS soundness/smooth: positive implies satisfied and smooth <= space on 10 instances\n"
    "PASS soundness/avg: sign matches oracle on 10 instances\n"
    "FAIL soundness/lse-negative-control: no sign disagreement found (expected at least one)\n"
    "PASS lse/approximation-bound: |lse - exact| <= ln(m)/k on 10 vectors\n"
    "PASS limits/new-approaches-min: new_and(nu=200) within 1e-3 of min on 50 separated vectors; softmin(k=1000) within ln(m)/1000\n"
    "PASS scale-invariance/min: min(alpha v) == alpha min(v) on 50 vectors\n"
    "PASS scale-invariance/new: new_and homogeneous to rel 1e-7 for alpha in (0.5, 2.0, 10.0)\n"
    "PASS scale-invariance/agm-negative-control: agm_and(0.5*[0.2, 0.8]) = 0.240967 != 0.5*agm_and([0.2, 0.8]) = 0.234847\n"
    "PASS shadow-lifting/agm: all partials positive at 20 points per regime\n"
    "PASS shadow-lifting/new: all partials positive at 20 points per regime\n"
    "PASS shadow-lifting/min-negative-control: plain min has zero derivative in a non-argmin coordinate (d=0.0)\n"
    "PASS smoothness/finite-difference: fd gradients at steps 1e-4/1e-5 agree (rel 1e-2) at 20 points including tied coordinates\n"
    "PASS idempotency/table: agm/new/min/smooth_max map (a,...,a) to a; lse and smooth_min to a - ln(m)/k\n"
    "PASS determinism/evaluate: repeated evaluations are bit-identical\n"
    "overall: FAIL"
)


def test_suite_passes_at_small_sample_count():
    report = run_property_suite(samples=60, seed=42)
    failing = [c.name for c in report.checks if not c.passed]
    assert report.passed, failing


def test_report_lists_every_family():
    report = run_property_suite(samples=40, seed=42)
    assert tuple(c.name for c in report.checks) == CHECK_NAMES


def test_report_text_is_deterministic():
    a = run_property_suite(samples=30, seed=11).text()
    b = run_property_suite(samples=30, seed=11).text()
    assert a == b
    assert "PASS" in a


def test_lse_witness_found_at_default_seed():
    report = run_property_suite(samples=120, seed=42)
    control = next(c for c in report.checks if c.name == "soundness/lse-negative-control")
    assert control.passed
    assert "lse" in control.detail


def test_report_text_is_pinned():
    assert run_property_suite(samples=10, seed=0).text() == REPORT_10_0


def test_every_check_reports_when_an_aggregator_breaks(monkeypatch):
    # a failing check must not hide its siblings: scale-invariance/min and
    # the agm control once went missing when scale-invariance/new failed
    new_and = properties.agg.new_and
    monkeypatch.setattr(properties.agg, "new_and", lambda v, nu: new_and(v, nu) + 1e-3)
    report = run_property_suite(samples=60, seed=42)
    assert tuple(c.name for c in report.checks) == CHECK_NAMES
    failing = {c.name for c in report.checks if not c.passed}
    assert {"scale-invariance/new", "idempotency/table"} <= failing
    assert not report.passed

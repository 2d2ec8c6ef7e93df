import json

import numpy as np
import pytest

from stlopt import (
    Interval,
    MetricConfig,
    benchmark_eq2,
    build_trajectory,
    format_formula,
    horizon,
    objective_detail,
    parse_formula,
    satisfies,
)
from stlopt.task import (
    MAX_TRACE_SAMPLES,
    TRAJECTORY_CHANNELS,
    Region,
    TaskSpec,
    _min_coverage,
    evaluation_trace,
    load_task,
    task_from_json,
    task_to_json,
)

from oracle import ref_build_trajectory, ref_evaluation_trace


def vector(durations, waypoints):
    """The 9-vector of three durations and three (x, y) waypoints."""
    return np.concatenate([durations, np.ravel(waypoints)]).astype(float)


def centers_vector(spec, durations=(3.5, 5.5, 4.5)):
    c = [(0.5 * (r.x_lb + r.x_ub), 0.5 * (r.y_lb + r.y_ub)) for r in spec.regions]
    return np.array(list(durations) + [c[0][0], c[0][1], c[1][0], c[1][1], c[2][0], c[2][1]])


def test_single_segment_linear_profile():
    # one effective segment: all three waypoints at the end point
    p = vector((0.5, 0.25, 0.25), ((0.5, 0.0), (0.75, 0.0), (1.0, 0.0)))
    tr = build_trajectory(p, 10.0, (0.0, 0.0))
    np.testing.assert_allclose(tr.column("x"), np.linspace(0.0, 1.0, 11), atol=1e-9)
    np.testing.assert_allclose(tr.column("y"), 0.0, atol=1e-12)


def test_constant_trace_when_waypoints_equal_home():
    p = vector((1.0, 1.0, 1.0), ((0.3, 0.3),) * 3)
    tr = build_trajectory(p, 10.0, (0.3, 0.3))
    assert np.allclose(tr.samples, 0.3)


def test_sample_count_formula():
    p = vector((3.0, 5.0, 5.0), ((0.2, 0.2), (0.4, 0.4), (0.6, 0.6)))
    tr = build_trajectory(p, 10.0, (0.1, 0.1))
    assert tr.n_samples == 131
    assert tr.end_time == pytest.approx(13.0)


def test_final_sample_on_last_waypoint_even_off_grid():
    p = vector((1.03, 1.04, 1.06), ((0.2, 0.9), (0.8, 0.8), (0.7, 0.1)))
    tr = build_trajectory(p, 10.0, (0.1, 0.1))
    assert tr.n_samples == round(3.13 * 10) + 1
    np.testing.assert_allclose(tr.samples[-1], [0.7, 0.1], atol=1e-9)


def test_builder_validation():
    with pytest.raises(ValueError, match="duration"):
        build_trajectory(vector((0.0, 1.0, 1.0), ((0.5, 0.5),) * 3), 10.0, (0, 0))
    with pytest.raises(ValueError, match="workspace"):
        build_trajectory(vector((1.0, 1.0, 1.0), ((1.5, 0.5),) * 3), 10.0, (0, 0))


def _assert_same_build(p, sample_rate, home):
    got = build_trajectory(p, sample_rate, home)
    ref = ref_build_trajectory(p, sample_rate, home)
    assert got.dt == ref.dt
    assert got.n_samples == ref.n_samples
    assert np.array_equal(got.samples, ref.samples)


# off-grid totals, a total under half a sample period (one sample), totals on
# segment boundaries, waypoints on the workspace edge and repeated waypoints
EDGE_BUILDS = [
    ((1.03, 1.04, 1.06), ((0.2, 0.9), (0.8, 0.8), (0.7, 0.1)), (0.1, 0.1)),
    ((0.01, 0.01, 0.02), ((0.2, 0.9), (0.8, 0.8), (0.7, 0.1)), (0.1, 0.1)),
    ((0.001, 0.002, 0.003), ((1.0, 1.0), (0.0, 0.0), (1.0, 0.0)), (0.0, 1.0)),
    ((1.0, 2.0, 3.0), ((0.0, 1.0), (1.0, 1.0), (1.0, 0.0)), (0.0, 0.0)),
    ((2.5, 2.5, 5.0), ((0.3, 0.3),) * 3, (0.3, 0.3)),
    ((10.0, 10.0, 10.0), ((0.5, 0.0), (0.75, 0.0), (1.0, 0.0)), (0.0, 0.0)),
]


@pytest.mark.parametrize("sample_rate", [10.0, 3.0, 7.3])
def test_build_matches_per_sample_reference(sample_rate):
    spec = benchmark_eq2()
    rng = np.random.default_rng(2024)
    for _ in range(500):
        p = spec.bounds.lower + rng.uniform(size=9) * spec.bounds.width
        _assert_same_build(p, sample_rate, spec.home)
    for durations, waypoints, home in EDGE_BUILDS:
        _assert_same_build(vector(durations, waypoints), sample_rate, home)


def test_single_sample_when_total_under_half_a_period():
    p = vector((0.01, 0.01, 0.02), ((0.2, 0.9), (0.8, 0.8), (0.7, 0.1)))
    tr = build_trajectory(p, 10.0, (0.1, 0.1))
    assert tr.n_samples == 1
    assert np.array_equal(tr.samples, [[0.1, 0.1]])


@pytest.mark.parametrize(
    "durations, waypoints, home, sample_rate, message",
    [
        ((1.0, 1.0, 1.0), ((0.5, 0.5),) * 3, (0, 0), 0.0, "sample_rate"),
        ((1.0, 1.0, 1.0), ((0.5, 0.5),) * 3, (0, 0), -3.0, "sample_rate"),
        ((0.0, 1.0, 1.0), ((0.5, 0.5),) * 3, (0, 0), 10.0, "duration"),
        ((1.0, -1.0, 1.0), ((0.5, 0.5),) * 3, (0, 0), 7.3, "duration"),
        ((1.0, 1.0, 1.0), ((1.5, 0.5),) * 3, (0, 0), 10.0, "workspace"),
        ((1.0, 1.0, 1.0), ((0.5, 0.5),) * 3, (0, -0.1), 3.0, "workspace"),
    ],
)
def test_build_and_reference_reject_the_same_input(
    durations, waypoints, home, sample_rate, message
):
    p = vector(durations, waypoints)
    for build in (build_trajectory, ref_build_trajectory):
        with pytest.raises(ValueError, match=message):
            build(p, sample_rate, home)


def test_evaluation_trace_pads_the_reference_build():
    # random vectors (most need no padding), short durations (all need it),
    # totals under half a sample period (one sample at home, held) and
    # off-grid sample rates
    for sample_rate in (10.0, 3.0, 7.3):
        data = task_to_json(benchmark_eq2())
        data["sample_rate"] = sample_rate
        spec = task_from_json(data)
        rng = np.random.default_rng(7)
        vectors = [spec.bounds.from_unit(rng.uniform(size=9)) for _ in range(100)]
        for _ in range(30):
            p = spec.bounds.from_unit(rng.uniform(size=9))
            p[:3] = rng.uniform(1.0, 1.2, size=3)
            vectors.append(p)
        vectors.append(vector((0.01, 0.01, 0.02), ((0.2, 0.9), (0.8, 0.8), (0.7, 0.1))))
        for p in vectors:
            got = evaluation_trace(spec, p)
            ref = ref_evaluation_trace(p, sample_rate, spec.home, spec.formula_horizon)
            assert got.dt == ref.dt
            assert np.array_equal(got.samples, ref.samples)
            assert got.end_time >= spec.formula_horizon - 1e-9


def test_continuity_and_reset(rng):
    spec = benchmark_eq2()
    for _ in range(50):
        p = spec.bounds.lower + rng.uniform(size=9) * spec.bounds.width
        tr = build_trajectory(p, spec.sample_rate, spec.home)
        np.testing.assert_allclose(tr.samples[0], spec.home, atol=1e-12)
        # step length bounded by the per-segment speed of the built trace
        nodes = np.vstack([spec.home, p[3:].reshape(3, 2)])
        seg_len = np.linalg.norm(np.diff(nodes, axis=0), axis=1)
        durations = p[:3]
        total = durations.sum()
        steps = tr.n_samples - 1
        scaled = durations * (steps * tr.dt) / total
        max_speed = float(np.max(seg_len / scaled))
        dists = np.linalg.norm(np.diff(tr.samples, axis=0), axis=1)
        assert np.all(dists <= max_speed * tr.dt + 1e-9)


def test_benchmark_definition():
    spec = benchmark_eq2()
    assert horizon(spec.formula) == 15.0
    assert parse_formula(format_formula(spec.formula)) == spec.formula
    assert spec.home == (0.1, 0.1)
    assert spec.sample_rate == 10.0
    assert spec.bounds.n == 9
    np.testing.assert_allclose(spec.bounds.lower[:3], 1.0)
    np.testing.assert_allclose(spec.bounds.upper[:3], 10.0)


def test_region_center_parameters_satisfy():
    spec = benchmark_eq2()
    p = centers_vector(spec)
    value, sat, trace = objective_detail(spec, MetricConfig("space"), p)
    assert value > 0
    assert sat
    assert satisfies(spec.formula, trace, 0.0)


def test_short_durations_penalty():
    spec = benchmark_eq2()
    p = centers_vector(spec, durations=(1.0, 1.0, 1.0))
    value, sat, trace = objective_detail(spec, MetricConfig("space"), p)
    assert value == pytest.approx(-13.0)
    assert not sat and trace is None


def test_objective_reads_the_folds_computed_with_the_task(monkeypatch):
    import stlopt.semantics as semantics
    import stlopt.task as task

    spec = benchmark_eq2()
    assert spec.formula_horizon == horizon(spec.formula) == 15.0
    assert spec.min_coverage == _min_coverage(spec.formula) == 13.0

    def refuse(f):
        raise AssertionError("formula fold recomputed per evaluation")

    monkeypatch.setattr(task, "horizon", refuse)
    monkeypatch.setattr(task, "_min_coverage", refuse)
    monkeypatch.setattr(semantics, "horizon", refuse)
    cfg = MetricConfig("space")
    assert objective_detail(spec, cfg, centers_vector(spec))[1]
    assert objective_detail(spec, cfg, centers_vector(spec, (1.0, 1.0, 1.0)))[0] == -13.0


def test_objective_is_pure():
    spec = benchmark_eq2()
    cfg = MetricConfig("new")
    p = centers_vector(spec)
    assert objective_detail(spec, cfg, p)[0] == objective_detail(spec, cfg, p)[0]


def test_objective_rejects_out_of_bounds():
    spec = benchmark_eq2()
    p = centers_vector(spec)
    p[0] = 11.0
    with pytest.raises(ValueError, match="outside the task bounds"):
        objective_detail(spec, MetricConfig("space"), p)


def test_padding_covers_horizon():
    spec = benchmark_eq2()
    tr = evaluation_trace(spec, centers_vector(spec))
    assert tr.end_time >= horizon(spec.formula) - 1e-9
    # held samples repeat the final waypoint
    np.testing.assert_allclose(tr.samples[-1], tr.samples[-5], atol=1e-12)


def test_satisfaction_consistency(rng):
    spec = benchmark_eq2()
    cfg = MetricConfig("space")
    checked = 0
    for _ in range(200):
        p = spec.bounds.lower + rng.uniform(size=9) * spec.bounds.width
        value, sat, _ = objective_detail(spec, cfg, p)
        if abs(value) > 1e-9:
            checked += 1
            assert (value > 0) == sat
    assert checked > 150


def test_task_json_roundtrip(tmp_path):
    spec = benchmark_eq2()
    data = task_to_json(spec)
    again = task_from_json(data)
    assert again == spec
    np.testing.assert_array_equal(again.bounds.lower, spec.bounds.lower)
    np.testing.assert_array_equal(again.bounds.upper, spec.bounds.upper)

    path = tmp_path / "task.json"
    path.write_text(json.dumps(data))
    assert load_task(str(path)) == load_task("eq2") == spec


def test_task_spec_holds_the_document_fields():
    spec = benchmark_eq2()
    assert (spec.duration, spec.workspace) == ((1.0, 10.0), (0.0, 1.0))
    np.testing.assert_array_equal(spec.bounds.lower, [1.0] * 3 + [0.0] * 6)
    np.testing.assert_array_equal(spec.bounds.upper, [10.0] * 3 + [1.0] * 6)
    built = TaskSpec(spec.formula, spec.regions, spec.home, (2.0, 5.0), (0.25, 0.75), 4.0)
    assert task_from_json(task_to_json(built)) == built
    np.testing.assert_array_equal(built.bounds.lower, [2.0] * 3 + [0.25] * 6)
    np.testing.assert_array_equal(built.bounds.upper, [5.0] * 3 + [0.75] * 6)


def test_region_formulas_are_the_parsed_region_text():
    data = task_to_json(benchmark_eq2())
    text = data.pop("formula")
    assert task_from_json(data).formula == parse_formula(text) == benchmark_eq2().formula


def test_task_without_a_formula_and_one_region_scores_that_region():
    data = task_to_json(benchmark_eq2())
    del data["formula"]
    data["regions"] = data["regions"][:1]
    spec = task_from_json(data)
    assert spec.formula == parse_formula("F[3,4](x > 0.2 & x < 0.3 & y > 0.6 & y < 0.7)")


def test_task_without_a_formula_keeps_an_off_grid_window_exactly():
    data = task_to_json(benchmark_eq2())
    data["formula"] = None
    data["regions"][0]["window"] = [3.1234567, 4]
    spec = task_from_json(data)
    assert spec.formula.args[0].interval == Interval(3.1234567, 4.0)
    assert spec.regions[0].window == Interval(3.1234567, 4.0)


def test_task_without_a_formula_needs_a_region():
    data = task_to_json(benchmark_eq2())
    del data["formula"]
    data["regions"] = []
    with pytest.raises(ValueError, match=r"^regions: a task without a formula needs at least one region$"):
        task_from_json(data)


def test_region_rejects_a_degenerate_box():
    with pytest.raises(ValueError, match=r"^region 'A' box is degenerate$"):
        Region("A", 0.3, 0.3, 0.6, 0.7, Interval(3.0, 4.0))


def test_task_rejects_a_formula_horizon_beyond_the_longest_trajectory():
    data = task_to_json(benchmark_eq2())
    data["bounds"]["duration"] = [1, 2]
    data["formula"] = "F[0,10](x > 0)"
    with pytest.raises(ValueError, match=r"^formula horizon exceeds the longest possible trajectory$"):
        task_from_json(data)


def test_task_json_formula_override():
    spec = benchmark_eq2()
    data = task_to_json(spec)
    data["formula"] = "F[1,2](x > 0.5)"
    assert task_from_json(data).formula == parse_formula("F[1,2](x > 0.5)")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.pop("bounds"), "missing config field: bounds"),
        (lambda d: d["bounds"].pop("duration"), "missing config field: bounds.duration"),
        (lambda d: d.update(sample_rate="10"), "sample_rate: expected a finite number"),
        (lambda d: d.update(home=[0.1, float("nan")]), "home: item 1: expected a finite number"),
        (lambda d: d["regions"][1].pop("box"), "regions: item 1: missing config field: box"),
        (lambda d: d.update(regions={}), "regions: expected a list"),
        (
            lambda d: d["bounds"].update(duration=[5, 1]),
            r"^bounds\.duration: upper bound 1 must exceed lower bound 5$",
        ),
        (
            lambda d: d["bounds"].update(duration=[2, 2]),
            r"^bounds\.duration: upper bound 2 must exceed lower bound 2$",
        ),
        (
            lambda d: d["bounds"].update(workspace=[0.8, 0.2]),
            r"^bounds\.workspace: upper bound 0\.2 must exceed lower bound 0\.8$",
        ),
        (
            lambda d: d["bounds"].update(workspace=[0.5, 0.5]),
            r"^bounds\.workspace: upper bound 0\.5 must exceed lower bound 0\.5$",
        ),
    ],
)
def test_task_json_names_the_failing_field(edit, message):
    data = task_to_json(benchmark_eq2())
    edit(data)
    with pytest.raises(ValueError, match=message):
        task_from_json(data)


@pytest.mark.parametrize(
    "formula, channel", [("F[0,15](z > 0)", "z"), ("G[0,1](x > 0 & w < 1) | v > 2", "v")]
)
def test_task_rejects_a_formula_channel_outside_the_trajectory(formula, channel):
    # rejected when the task is built, not at its first scored evaluation
    data = task_to_json(benchmark_eq2())
    data["formula"] = formula
    message = rf"^formula reads channel '{channel}'; a task trajectory has only \['x', 'y'\]$"
    with pytest.raises(ValueError, match=message):
        task_from_json(data)


def test_trajectories_carry_the_task_channels():
    p = centers_vector(benchmark_eq2())
    assert build_trajectory(p, 10.0, (0.1, 0.1)).channels == TRAJECTORY_CHANNELS == ("x", "y")


@pytest.mark.parametrize("duration, sample_rate", [(1e12, 10.0), (10.0, 1e6), (1e4, 34.0)])
def test_task_rejects_traces_above_the_sample_cap(duration, sample_rate):
    data = task_to_json(benchmark_eq2())
    data["bounds"]["duration"] = [1.0, duration]
    data["sample_rate"] = sample_rate
    assert 3 * duration * sample_rate > MAX_TRACE_SAMPLES
    with pytest.raises(ValueError, match=r"^bounds\.duration and sample_rate .* above the cap"):
        task_from_json(data)


def test_task_accepts_traces_below_the_sample_cap():
    data = task_to_json(benchmark_eq2())
    data["bounds"]["duration"] = [1.0, 1e4]
    data["sample_rate"] = 33.0  # 990 000 samples
    assert task_from_json(data).sample_rate == 33.0


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["bounds"].update(workspace=[0, 2]), r"^bounds\.workspace \[0, 2\] leaves"),
        (lambda d: d["bounds"].update(workspace=[-0.1, 0.9]), r"^bounds\.workspace \[-0\.1, 0\.9\] leaves"),
        (lambda d: d.update(home=[0.1, 1.2]), r"^home \[0\.1, 1\.2\] lies outside"),
        (lambda d: d.update(home=[-0.01, 0.5]), r"^home \[-0\.01, 0\.5\] lies outside"),
    ],
    ids=["workspace-above", "workspace-below", "home-above", "home-below"],
)
def test_task_rejects_a_workspace_or_home_outside_the_unit_box(edit, message):
    data = task_to_json(benchmark_eq2())
    edit(data)
    with pytest.raises(ValueError, match=message):
        task_from_json(data)


def test_task_accepts_a_narrower_workspace():
    data = task_to_json(benchmark_eq2())
    data["bounds"]["workspace"] = [0.2, 0.8]
    data["home"] = [1.0, 0.0]  # the unit box's corners are allowed
    spec = task_from_json(data)
    np.testing.assert_array_equal(spec.bounds.lower[3:], 0.2)
    np.testing.assert_array_equal(spec.bounds.upper[3:], 0.8)
    assert spec.home == (1.0, 0.0)


def test_task_json_roundtrip_keeps_a_narrower_workspace():
    data = task_to_json(benchmark_eq2())
    data["bounds"]["workspace"] = [0.2, 0.8]
    spec = task_from_json(data)
    again = task_from_json(task_to_json(spec))
    np.testing.assert_array_equal(again.bounds.lower, spec.bounds.lower)
    np.testing.assert_array_equal(again.bounds.upper, spec.bounds.upper)


@pytest.mark.parametrize("lower", [-1, 0])
def test_task_rejects_a_duration_lower_bound_that_is_not_positive(lower):
    data = task_to_json(benchmark_eq2())
    data["bounds"]["duration"] = [lower, 10]
    with pytest.raises(ValueError, match=rf"^bounds\.duration lower bound {lower} must be positive"):
        task_from_json(data)


@pytest.mark.parametrize("shape", [(8,), (10,), (3, 3), (1, 9)])
def test_build_and_objective_reject_a_vector_that_is_not_9_long(shape):
    spec = benchmark_eq2()
    p = np.full(shape, 0.5)
    with pytest.raises(ValueError, match="expected a 9-vector"):
        build_trajectory(p, spec.sample_rate, spec.home)
    with pytest.raises(ValueError, match="expected a 9-vector"):
        objective_detail(spec, MetricConfig("space"), p)

import copy
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from stlopt import EvaluationError, MetricConfig
from stlopt.optim import (
    BayesOpt,
    Bounds,
    CmaEs,
    GpModel,
    RandomSearch,
    expected_improvement,
    gp_predict,
    optimize,
)
from stlopt.optim import bayes, gp
from stlopt.optim.driver import METHODS
from stlopt.optim.gp import fit_gp_grid
from stlopt.task import benchmark_eq2, objective_detail
from oracle import (
    ref_exploit_pick,
    ref_gp_fixed,
    ref_gp_grid_lml,
    ref_gp_grid_loop,
    ref_gp_mean,
    ref_gp_posterior,
    ref_sq_dists,
)


def unit_box(n):
    return Bounds(np.zeros(n), np.ones(n))


def in_cube(units):
    return bool(np.all(units >= 0.0) and np.all(units <= 1.0))


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        Bounds(np.array([]), np.array([]))


def test_bounds_helpers():
    b = Bounds(np.array([-1.0, 0.0]), np.array([1.0, 10.0]))
    assert b.n == 2
    assert b.contains([0.0, 5.0]) and not b.contains([0.0, 11.0])
    np.testing.assert_allclose(b.from_unit(b.to_unit([0.5, 2.5])), [0.5, 2.5])
    assert np.array_equal(b.width, [2.0, 10.0]) and not b.width.flags.writeable


def test_cmaes_default_popsize():
    assert CmaEs(9).lam == 10
    assert CmaEs(1).lam == 4


def test_cmaes_ask_count_and_feasibility():
    es = CmaEs(3, seed=3)
    units = es.ask()
    assert units.shape == (es.lam, 3) and in_cube(units)


def test_cmaes_clamps_after_resampling_limit():
    # a step size far wider than the cube forces the clamp fallback
    es = CmaEs(4, seed=0)
    es.sigma = 100.0
    units = es.ask()
    assert in_cube(units) and np.any((units == 0.0) | (units == 1.0))


def test_cmaes_moves_toward_sphere_optimum():
    target = np.full(5, 0.65)
    es = CmaEs(5, seed=1)
    start = np.linalg.norm(es.mean - target)
    for _ in range(50):
        units = es.ask()
        es.tell(units, [-float(np.sum((u - target) ** 2)) for u in units])
    end = np.linalg.norm(es.mean - target)
    assert end < start / 10


def test_cmaes_step_size_shrinks_on_sphere():
    ratios = []
    for seed in range(5):
        es = CmaEs(5, seed=seed)
        sigma_gen1 = None
        for gen in range(50):
            units = es.ask()
            es.tell(units, [-float(np.sum((u - 0.5) ** 2)) for u in units])
            if gen == 0:
                sigma_gen1 = es.sigma
        ratios.append(sigma_gen1 / es.sigma)
    assert np.mean(ratios) >= 10.0


def test_cmaes_partial_generation_tell():
    es = CmaEs(4, seed=5)
    units = es.ask()[:3]  # fewer than lambda, as in a trailing partial generation
    es.tell(units, [1.0, 0.5, 0.2])
    assert np.all(np.isfinite(es.mean)) and np.isfinite(es.sigma)


def test_gp_interpolates_training_points():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(12, 3))
    y = np.sin(X.sum(axis=1) * 3)
    model = ref_gp_fixed(X, y, lengthscale=0.5, sigma_f2=1.0, sigma_n2=1e-8)
    mean, var = gp_predict(model, X)
    np.testing.assert_allclose(mean, y, atol=1e-4)
    assert np.all(var >= 0)


def test_gp_far_field_reverts_to_prior():
    X = np.array([[0.5]])
    y = np.array([2.0])
    model = ref_gp_fixed(X, y, lengthscale=1.0, sigma_f2=1.0, sigma_n2=1e-8)
    mean, var = gp_predict(model, [[0.5 + 10.0]])  # 10 lengthscales away
    assert mean[0] == pytest.approx(model.y_mean, abs=1e-6)
    assert var[0] == pytest.approx(model.sigma_f2 * model.y_std**2, rel=1e-6)


def test_gp_duplicate_inputs_with_conflicting_targets():
    X = np.array([[0.3, 0.3], [0.3, 0.3]])
    model = ref_gp_fixed(X, np.array([1.0, 2.0]), 1.0, 1.0, 1e-8)
    mean, _ = gp_predict(model, [[0.3, 0.3]])
    assert 1.0 < mean[0] < 2.0


def test_gp_grid_fit_is_deterministic():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(15, 2))
    y = rng.normal(size=15)
    a = fit_gp_grid(X, y)
    b = fit_gp_grid(X, y)
    assert (a.lengthscale, a.sigma_f2, a.sigma_n2) == (b.lengthscale, b.sigma_f2, b.sigma_n2)


def _grid_cell(model):
    """Indices of a fitted model's hyperparameters in fit_gp_grid's grid."""
    return (
        list(gp._ELL_GRID).index(model.lengthscale),
        list(gp._SF2_GRID).index(model.sigma_f2),
        list(gp._SN2_GRID).index(model.sigma_n2),
    )


def _reference_pick(X, y):
    """The Cholesky reference LMLs and their first argmax, as a grid cell."""
    ref = ref_gp_grid_lml(X, y)
    return ref, tuple(int(i) for i in np.unravel_index(np.argmax(ref), ref.shape))


def _grid_case(seed):
    rng = np.random.default_rng(seed)
    m, d = 1 + seed % 60, 1 + seed % 9
    X = rng.uniform(size=(m, d))
    y = rng.normal(size=m)
    shape = seed % 4
    if shape == 1:  # duplicated rows
        X[m // 2 :] = X[: m - m // 2]
    elif shape == 2:  # a cluster 1e-4 wide
        X = rng.uniform(size=d) + 1e-4 * rng.uniform(size=(m, d))
    elif shape == 3:  # constant outputs
        y = np.full(m, 3.0)
    return X, y


def test_gp_grid_pick_matches_cholesky_reference():
    # every m in 1..60 once; only cells whose reference LMLs tie may trade places
    for seed in range(60):
        X, y = _grid_case(seed)
        ref, best = _reference_pick(X, y)
        cell = _grid_cell(fit_gp_grid(X, y))
        assert cell == best or abs(ref[cell] - ref[best]) <= 1e-9, (seed, cell, best)


def test_bo_on_eq2_picks_the_cholesky_reference_cell(monkeypatch):
    spec, cfg = benchmark_eq2(), MetricConfig("new")
    picks = []

    def checked(X, y):
        model = fit_gp_grid(X, y)
        picks.append((_grid_cell(model), _reference_pick(X, y)[1]))
        return model

    monkeypatch.setattr(bayes, "fit_gp_grid", checked)
    optimize(lambda p: objective_detail(spec, cfg, p)[0], spec.bounds, 60, "bo", seed=0)
    assert len(picks) == 60 - bayes.INIT_DESIGN
    assert all(cell == best for cell, best in picks)


def test_gp_stacked_grid_fit_equals_the_per_lengthscale_loop():
    # 300 fits: m in 1..60, n in {1, 2, 9}, every other case with duplicated
    # rows, outputs scaled from 1e-3 to 1e3
    rng = np.random.default_rng(18)
    for case in range(300):
        m, n = 1 + case % 60, (1, 2, 9)[case % 3]
        X = rng.uniform(size=(m, n))
        if case % 2:
            X[m // 2 :] = X[: m - m // 2]
        y = 10.0 ** rng.uniform(-3, 3) * rng.normal(size=m)
        model, ref = fit_gp_grid(X, y), ref_gp_grid_loop(X, y)
        for name in GpModel.__dataclass_fields__:
            assert np.array_equal(getattr(model, name), getattr(ref, name)), (case, name)


def test_gp_grid_fit_factorizes_once(monkeypatch):
    # one stacked eigendecomposition of the ten correlation matrices is a
    # fit's only factorization, and the posterior reuses it
    calls = []

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, a.shape))
            return original(a, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh", "eig", "cholesky", "solve", "inv", "lstsq", "qr", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    rng = np.random.default_rng(2)
    X, y, Xq = rng.uniform(size=(40, 9)), rng.normal(size=40), rng.uniform(size=(64, 9))
    gp_predict(fit_gp_grid(X, y), Xq)
    assert calls == [("eigh", (10, 40, 40))]


def test_gp_grid_skips_cells_that_are_not_positive_definite(monkeypatch):
    rng = np.random.default_rng(3)
    X, y = rng.uniform(size=(12, 2)), rng.normal(size=12)
    eigh = np.linalg.eigh

    def with_smallest_eigenvalue(value):
        def fake(a):
            lam, q = eigh(a)
            lam[..., 0] = value
            return lam, q

        return fake

    # K = sigma_f2 R + sigma_n2 I then has the eigenvalue sigma_n2 - 1e-5 sigma_f2
    monkeypatch.setattr(np.linalg, "eigh", with_smallest_eigenvalue(-1e-5))
    model = fit_gp_grid(X, y)
    assert model.sigma_n2 > 1e-5 * model.sigma_f2
    # no cell left: the noise is never raised, so the fit fails
    monkeypatch.setattr(np.linalg, "eigh", with_smallest_eigenvalue(-1.0))
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        fit_gp_grid(X, y)


@pytest.mark.filterwarnings("error")  # checked before any numpy work, so nothing warns
def test_gp_fit_needs_one_output_per_training_input():
    for X, y in ((np.zeros((0, 2)), []), (np.zeros((3, 2)), [1.0, 2.0])):
        with pytest.raises(ValueError, match="need one output per training input"):
            fit_gp_grid(X, y)


def test_expected_improvement_values():
    assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(0.3989422804014327, abs=1e-9)
    assert expected_improvement(-1.0, 0.0, 0.0) == 0.0
    assert expected_improvement(1.0, 0.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        expected_improvement(0.0, -1.0, 0.0)


def test_bayes_design_reproducible_and_feasible():
    first = BayesOpt(2, seed=9)
    second = BayesOpt(2, seed=9)
    for _ in range(10):
        z1, z2 = first.ask(), second.ask()
        assert np.array_equal(z1, z2)
        assert z1.shape == (1, 2) and in_cube(z1)
        first.tell(z1, [0.0])
        second.tell(z2, [0.0])


def test_bayes_acquisition_stays_in_bounds():
    # past the ten-point design: model-guided asks, both arms
    bo = BayesOpt(2, seed=2)
    for i in range(13):
        z = bo.ask()
        assert z.shape == (1, 2) and in_cube(z)
        bo.tell(z, [float(-np.sum((z[0] - 0.4) ** 2))])


def test_bayes_fits_one_gp_per_model_guided_ask(monkeypatch):
    fits = []

    def counted(X, y):
        fits.append(len(y))
        return fit_gp_grid(X, y)

    monkeypatch.setattr(bayes, "fit_gp_grid", counted)
    # a flat objective never improves, so the explore arm runs every 9th ask
    records = optimize(lambda p: 0.0, unit_box(2), 30, "bo", seed=0)
    assert len(records) == 30
    assert fits == list(range(bayes.INIT_DESIGN, 30))

    bo = BayesOpt(2, seed=0)
    for _ in range(bayes.INIT_DESIGN + 2):
        bo.tell(bo.ask(), [0.0])
    assert not any(isinstance(v, GpModel) for v in vars(bo).values())


def test_bayes_exploit_arm_reads_only_the_posterior_mean(monkeypatch):
    asks = []  # per model-guided ask, the posterior reads after its one fit

    def fitted(X, y):
        asks.append([])
        return fit_gp_grid(X, y)

    def mean_only(model, Xq):
        asks[-1].append("mean")
        return gp.gp_mean(model, Xq)

    def mean_and_variance(model, Xq):
        asks[-1].append("predict")
        return gp.gp_predict(model, Xq)

    monkeypatch.setattr(bayes, "fit_gp_grid", fitted)
    monkeypatch.setattr(bayes, "gp_mean", mean_only)
    monkeypatch.setattr(bayes, "gp_predict", mean_and_variance)
    optimize(lambda p: 0.0, unit_box(2), 30, "bo", seed=0)
    # a flat objective: every 8th model-guided ask follows 8 non-improving
    # evaluations and explores; an exploit ask reads one mean per probe cloud
    assert len(asks) == 30 - bayes.INIT_DESIGN
    assert [i for i, reads in enumerate(asks) if reads == ["predict"]] == [0, 8, 16]
    exploit = ["mean"] * len(bayes.EXPLOIT_RADII)
    assert all(reads == exploit for i, reads in enumerate(asks) if i not in (0, 8, 16))


def test_gp_mean_per_probe_cloud_equals_one_call_on_the_stacked_probes():
    # 120 fitted models: m in 1..30, n = 9, outputs scaled from 1e-3 to 1e3,
    # queried at the exploit arm's three 256-probe clouds
    rng = np.random.default_rng(23)
    for case in range(120):
        m = 1 + case % 30
        X = rng.uniform(size=(m, 9))
        model = fit_gp_grid(X, 10.0 ** rng.uniform(-3, 3) * rng.normal(size=m))
        clouds = [
            np.clip(X[0] + rng.uniform(-r, r, size=(bayes.EXPLOIT_PROBES, 9)), 0.0, 1.0)
            for r in bayes.EXPLOIT_RADII
        ]
        per_cloud = np.concatenate([gp.gp_mean(model, cloud) for cloud in clouds])
        assert np.array_equal(per_cloud, gp.gp_mean(model, np.vstack(clouds))), case
        assert np.array_equal(per_cloud, ref_gp_mean(model, np.vstack(clouds))), case


def test_bayes_exploit_pick_equals_the_one_call_reference():
    for seed in range(3):
        bo = BayesOpt(9, seed=seed)
        target = np.random.default_rng(seed).uniform(size=9)
        checked = 0
        for _ in range(45):
            exploits = bo._asked >= bayes.INIT_DESIGN and bo._stall < bayes.STALL_LIMIT
            rng = copy.deepcopy(bo.rng)
            z = bo.ask()
            if exploits:
                assert np.array_equal(z[0], ref_exploit_pick(bo.x, bo.y, rng)), (seed, bo._asked)
                checked += 1
            bo.tell(z, [float(-np.sum((z[0] - target) ** 2))])
        assert checked >= 20


def test_bayes_exploit_ask_peaks_below_640_kb():
    # 40 history points, so the local GP has m = 30: the whole (10, 10, 10, m)
    # LML grid and one (768, m) probe block peaked at 1092 KB, per
    # lengthscale and per probe cloud the ask stays near 500 KB
    bo = BayesOpt(9, seed=0)
    rng = np.random.default_rng(4)
    for i in range(40):
        units = bo.ask() if i < bayes.INIT_DESIGN else rng.uniform(size=(1, 9))
        bo.tell(units, [float(i)])  # every value improves, so the next ask exploits
    assert bo._stall == 0
    tracemalloc.start()
    try:
        bo.ask()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 640 * 1024, peak


def test_gp_mean_is_the_predicted_mean():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(20, 4))
    model = fit_gp_grid(X, np.sin(3 * X.sum(axis=1)) + 0.1 * rng.normal(size=20))
    Xq = rng.uniform(size=(256, 4))
    assert np.array_equal(gp.gp_mean(model, Xq), gp_predict(model, Xq)[0])



@pytest.mark.parametrize("n", [*range(1, 21), 64, 128, 129, 200])
def test_sq_dists_equals_the_broadcast_sum(n):
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1.0, 1e3):
        for q in (1, 5, 30, 768):
            for m in (1, 5, 30, 768):
                if q * m > 768 * 30:
                    continue  # a 768 x 768 x n reference block is too large to build
                a, b = scale * rng.uniform(size=(q, n)), scale * rng.uniform(size=(m, n))
                a[-1] = a[0]  # duplicated rows
                b[-1] = a[0]  # a zero-distance pair
                assert np.array_equal(gp._sq_dists(a, b), ref_sq_dists(a, b)), (scale, q, m)


@pytest.mark.parametrize("m", [10, 30, 59])
def test_gp_posterior_is_unchanged_by_the_plane_sum(monkeypatch, m):
    # eq2 sizes: 9 inputs, up to 59 observations, 768 exploit and 2112
    # explore candidates
    rng = np.random.default_rng(m)
    X, Xq = rng.uniform(size=(m, 9)), rng.uniform(size=(2112, 9))
    y = np.sin(3 * X.sum(axis=1)) + 0.1 * rng.normal(size=m)

    def posterior():
        model = fit_gp_grid(X, y)
        return model, gp.gp_mean(model, Xq[:768]), gp.gp_predict(model, Xq)

    model, mean, (pmean, pvar) = posterior()
    monkeypatch.setattr(gp, "_sq_dists", ref_sq_dists)
    ref_model, ref_mean, (ref_pmean, ref_pvar) = posterior()
    assert _grid_cell(model) == _grid_cell(ref_model)
    assert np.array_equal(model.eigvecs, ref_model.eigvecs)
    assert np.array_equal(model.eigvals, ref_model.eigvals)
    assert np.array_equal(model.alpha, ref_model.alpha)
    assert np.array_equal(mean, ref_mean)
    assert np.array_equal(pmean, ref_pmean) and np.array_equal(pvar, ref_pvar)


def test_importing_stlopt_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test reference only
    code = "import sys, stlopt.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize("m", [10, 30, 59])
def test_gp_posterior_matches_the_scipy_cholesky_reference(m):
    # the spectral form and scipy's Cholesky solves round differently; the
    # gap measured at these sizes is at most 3.0e-15 of the largest
    # reference entry, and the tolerance is 1e-12 of it
    rng = np.random.default_rng(m)
    X, Xq = rng.uniform(size=(m, 9)), rng.uniform(size=(2112, 9))
    y = np.sin(3 * X.sum(axis=1)) + 0.1 * rng.normal(size=m)
    model = fit_gp_grid(X, y)
    L, alpha, mean, var = ref_gp_posterior(model, y, Xq)

    def assert_close(actual, ref):
        assert np.max(np.abs(actual - ref)) <= 1e-12 * np.max(np.abs(ref))

    # Q diag(e) Q^T is the reference's K + sigma_n2 I = L L^T
    assert_close((model.eigvecs * model.eigvals) @ model.eigvecs.T, L @ L.T)
    assert_close(model.alpha, alpha)
    assert_close(gp.gp_mean(model, Xq), mean)
    pmean, pvar = gp_predict(model, Xq)
    assert_close(pmean, mean)
    assert_close(pvar, var)


def test_random_search_deterministic():
    a = RandomSearch(3, seed=5)
    c = RandomSearch(3, seed=5)
    for _ in range(5):
        assert np.array_equal(a.ask(), c.ask())


def test_random_search_block_is_one_at_a_time_draws():
    search, rng = RandomSearch(4, seed=5), np.random.default_rng(5)
    blocks = np.vstack([search.ask() for _ in range(3)])
    assert np.array_equal(blocks, [rng.uniform(size=4) for _ in range(len(blocks))])


@pytest.mark.parametrize("method", sorted(METHODS))
def test_optimize_maps_each_unit_block_and_tells_its_evaluated_points(monkeypatch, method):
    # every ask is a 2-D block of cube coordinates with n columns; the driver
    # maps it to a box that is not the cube, evaluates those points and
    # tells their cube coordinates
    cls, n = METHODS[method], 3
    b = Bounds(np.array([-2.0, 0.0, 5.0]), np.array([2.0, 1.0, 6.0]))
    asked, told, evaluated = [], [], []
    ask, tell = cls.ask, cls.tell

    def recording_ask(self):
        asked.append(ask(self))
        return asked[-1]

    def recording_tell(self, units, values):
        told.append(units)
        tell(self, units, values)

    def objective(p):
        evaluated.append(p)
        return -float(np.sum((b.to_unit(p) - 0.4) ** 2))

    monkeypatch.setattr(cls, "ask", recording_ask)
    monkeypatch.setattr(cls, "tell", recording_tell)
    records = optimize(objective, b, 25, method, seed=0)
    assert len(records) == 25 and len(asked) == len(told)
    for units, evaluated_units in zip(asked, told):
        assert units.ndim == 2 and units.shape[1] == n and in_cube(units)
        m = len(evaluated_units)
        assert np.array_equal(evaluated_units, b.to_unit(b.from_unit(units[:m])))
    assert np.array_equal(np.vstack(told), b.to_unit(np.array(evaluated)))
    assert all(b.contains(r.params) for r in records)


def test_optimize_history_exact_budget():
    b = unit_box(3)
    for method in ("cmaes", "bo", "random"):
        records = optimize(lambda p: -float(np.sum(p**2)), b, 17, method, seed=0)
        assert [r.index for r in records] == list(range(1, 18))


def test_optimize_monotone_best_and_feasible():
    b = Bounds(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    records = optimize(lambda p: -float(np.sum(p**2)), b, 40, "cmaes", seed=4)
    best = -np.inf
    for r in records:
        best = max(best, r.value)
        assert r.best_so_far == best
        assert b.contains(r.params)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_optimize_hands_each_record_to_on_record_before_the_next_call(method):
    # budget 25 ends a CMA-ES run (lambda = 10 in 9 dimensions) in a partial generation
    assert CmaEs(9).lam == 10
    events = []

    def objective(p):
        events.append("objective")
        return -float(np.sum((p - 0.3) ** 2))

    records = optimize(objective, unit_box(9), 25, method, seed=0, on_record=events.append)
    assert events[0::2] == ["objective"] * 25 and len(events) == 50
    assert all(seen is r for seen, r in zip(events[1::2], records))
    assert [r.index for r in records] == list(range(1, 26))
    bare = optimize(objective, unit_box(9), 25, method, seed=0)
    assert [r.value for r in bare] == [r.value for r in records]
    assert all(r.satisfied is None for r in bare + records)


def test_optimize_random_determinism():
    b = unit_box(4)
    obj = lambda p: float(p.sum())
    r1 = optimize(obj, b, 25, "random", seed=123)
    r2 = optimize(obj, b, 25, "random", seed=123)
    assert all((a.params == c.params).all() and a.value == c.value for a, c in zip(r1, r2))


def test_optimize_rejects_nonfinite_objective():
    b = unit_box(2)
    with pytest.raises(EvaluationError, match="non-finite"):
        optimize(lambda p: float("inf"), b, 5, "random", seed=0)


def test_optimize_unknown_method():
    with pytest.raises(ValueError, match="method"):
        optimize(lambda p: 0.0, unit_box(2), 5, "annealing", seed=0)


def test_optimize_budget_validation():
    with pytest.raises(ValueError, match="budget"):
        optimize(lambda p: 0.0, unit_box(2), 0, "random", seed=0)

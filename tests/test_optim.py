import subprocess
import sys

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
    gp_fit,
    gp_predict,
    optimize,
)
from stlopt.optim import gp
from stlopt.optim.gp import fit_gp_grid
from stlopt.task import benchmark_eq2, objective_detail
from oracle import ref_gp_grid_lml, ref_gp_posterior, ref_sq_dists


def unit_box(n):
    return Bounds(np.zeros(n), np.ones(n))


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


def test_cmaes_default_popsize():
    assert CmaEs(unit_box(9)).lam == 10
    assert CmaEs(unit_box(1)).lam == 4


def test_cmaes_ask_count_and_feasibility():
    b = Bounds(np.array([-2.0, 0.0, 5.0]), np.array([2.0, 1.0, 6.0]))
    es = CmaEs(b, seed=3)
    points = es.ask()
    assert len(points) == es.lam
    for p in points:
        assert b.contains(p)


def test_cmaes_clamps_after_resampling_limit():
    # a step size far wider than the box forces the clamp fallback
    es = CmaEs(unit_box(4), seed=0)
    es.sigma = 100.0
    for p in es.ask():
        assert es.bounds.contains(p)


def test_bayes_rejects_out_of_bounds_history():
    bo = BayesOpt(unit_box(2), seed=0)
    with pytest.raises(ValueError, match="outside bounds"):
        bo.tell([np.array([2.0, 0.5])], [1.0])


def test_cmaes_tell_validates():
    es = CmaEs(unit_box(2), seed=0)
    pts = es.ask()
    with pytest.raises(ValueError, match="points but"):
        es.tell(pts, [1.0])
    with pytest.raises(ValueError, match="finite"):
        es.tell(pts, [float("nan")] * len(pts))


def test_cmaes_moves_toward_sphere_optimum():
    b = Bounds(np.full(5, -5.0), np.full(5, 5.0))
    target = np.full(5, 1.5)
    es = CmaEs(b, seed=1)
    start = np.linalg.norm(b.from_unit(es.mean) - target)
    for _ in range(50):
        pts = es.ask()
        es.tell(pts, [-float(np.sum((p - target) ** 2)) for p in pts])
    end = np.linalg.norm(b.from_unit(es.mean) - target)
    assert end < start / 10


def test_cmaes_step_size_shrinks_on_sphere():
    ratios = []
    for seed in range(5):
        b = Bounds(np.full(5, -5.0), np.full(5, 5.0))
        es = CmaEs(b, seed=seed)
        sigma_gen1 = None
        for gen in range(50):
            pts = es.ask()
            es.tell(pts, [-float(np.sum(p**2)) for p in pts])
            if gen == 0:
                sigma_gen1 = es.sigma
        ratios.append(sigma_gen1 / es.sigma)
    assert np.mean(ratios) >= 10.0


def test_cmaes_partial_generation_tell():
    es = CmaEs(unit_box(4), seed=5)
    pts = es.ask()[:3]  # fewer than lambda, as in a trailing partial generation
    es.tell(pts, [1.0, 0.5, 0.2])
    assert np.all(np.isfinite(es.mean)) and np.isfinite(es.sigma)


def test_gp_interpolates_training_points():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(12, 3))
    y = np.sin(X.sum(axis=1) * 3)
    model = gp_fit(X, y, lengthscale=0.5, sigma_f2=1.0, sigma_n2=1e-8)
    mean, var = gp_predict(model, X)
    np.testing.assert_allclose(mean, y, atol=1e-4)
    assert np.all(var >= 0)


def test_gp_far_field_reverts_to_prior():
    X = np.array([[0.5]])
    y = np.array([2.0])
    model = gp_fit(X, y, lengthscale=1.0, sigma_f2=1.0, sigma_n2=1e-8)
    mean, var = gp_predict(model, [[0.5 + 10.0]])  # 10 lengthscales away
    assert mean[0] == pytest.approx(model.y_mean, abs=1e-6)
    assert var[0] == pytest.approx(model.sigma_f2 * model.y_std**2, rel=1e-6)


def test_gp_duplicate_inputs_with_conflicting_targets():
    X = np.array([[0.3, 0.3], [0.3, 0.3]])
    model = gp_fit(X, np.array([1.0, 2.0]), 1.0, 1.0, 1e-8)
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
    import stlopt.optim.bayes as bayes

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


def test_gp_grid_fit_factorizes_once(monkeypatch):
    # the grid's ten eigendecompositions are a fit's only factorizations;
    # gp_fit makes one, and the posterior reuses it
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
    assert calls == [("eigh", (40, 40))] * 10
    calls.clear()
    gp_predict(gp_fit(X, y, 0.5, 1.0, 1e-6), Xq)
    assert calls == [("eigh", (40, 40))]


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


@pytest.mark.parametrize(
    "fit", [fit_gp_grid, lambda X, y: gp_fit(X, y, 0.5, 1.0, 1e-6)], ids=["grid", "fixed"]
)
@pytest.mark.filterwarnings("error")  # checked before any numpy work, so nothing warns
def test_gp_fits_need_one_output_per_training_input(fit):
    for X, y in ((np.zeros((0, 2)), []), (np.zeros((3, 2)), [1.0, 2.0])):
        with pytest.raises(ValueError, match="need one output per training input"):
            fit(X, y)


@pytest.mark.parametrize("name", ["lengthscale", "sigma_f2", "sigma_n2"])
@pytest.mark.parametrize("value", [0.0, -1e-3, float("nan"), float("inf")])
def test_gp_fit_rejects_a_hyperparameter_that_is_not_finite_and_positive(name, value):
    X = np.array([[0.1, 0.2], [0.8, 0.7], [0.4, 0.9]])  # well separated
    hyper = {"lengthscale": 0.5, "sigma_f2": 1.0, "sigma_n2": 1e-6, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        gp_fit(X, [1.0, 2.0, 0.5], **hyper)


def test_expected_improvement_values():
    assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(0.3989422804014327, abs=1e-9)
    assert expected_improvement(-1.0, 0.0, 0.0) == 0.0
    assert expected_improvement(1.0, 0.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        expected_improvement(0.0, -1.0, 0.0)


def test_bayes_design_reproducible_and_feasible():
    b = Bounds(np.array([-1.0, 2.0]), np.array([1.0, 4.0]))
    first = BayesOpt(b, seed=9)
    second = BayesOpt(b, seed=9)
    for _ in range(10):
        p1, p2 = first.ask()[0], second.ask()[0]
        assert (p1 == p2).all()
        assert b.contains(p1)
        first.tell([p1], [0.0])
        second.tell([p2], [0.0])


def test_bayes_acquisition_stays_in_bounds():
    b = Bounds(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    bo = BayesOpt(b, seed=2)
    rng = np.random.default_rng(0)
    for i in range(13):
        p = bo.ask()[0]
        assert b.contains(p)
        bo.tell([p], [float(-np.sum((p - 0.4) ** 2))])


def test_bayes_tell_validates():
    bo = BayesOpt(unit_box(2), seed=0)
    with pytest.raises(ValueError, match="points but"):
        bo.tell([np.zeros(2)], [])


def test_bayes_fits_one_gp_per_model_guided_ask(monkeypatch):
    import stlopt.optim.bayes as bayes

    fits = []

    def counted(X, y):
        fits.append(len(y))
        return fit_gp_grid(X, y)

    monkeypatch.setattr(bayes, "fit_gp_grid", counted)
    # a flat objective never improves, so the explore arm runs every 9th ask
    records = optimize(lambda p: 0.0, unit_box(2), 30, "bo", seed=0)
    assert len(records) == 30
    assert fits == list(range(bayes.INIT_DESIGN, 30))

    bo = BayesOpt(unit_box(2), seed=0)
    for _ in range(bayes.INIT_DESIGN + 2):
        bo.tell(bo.ask(), [0.0])
    assert not any(isinstance(v, GpModel) for v in vars(bo).values())


def test_bayes_exploit_arm_reads_only_the_posterior_mean(monkeypatch):
    import stlopt.optim.bayes as bayes

    arms = []

    def mean_only(model, Xq):
        arms.append("exploit")
        return gp.gp_mean(model, Xq)

    def mean_and_variance(model, Xq):
        arms.append("explore")
        return gp.gp_predict(model, Xq)

    monkeypatch.setattr(bayes, "gp_mean", mean_only)
    monkeypatch.setattr(bayes, "gp_predict", mean_and_variance)
    optimize(lambda p: 0.0, unit_box(2), 30, "bo", seed=0)
    # a flat objective: every 8th model-guided ask follows 8 non-improving
    # evaluations and explores
    assert len(arms) == 30 - bayes.INIT_DESIGN
    assert [i for i, arm in enumerate(arms) if arm == "explore"] == [0, 8, 16]


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
    b = unit_box(3)
    a = RandomSearch(b, seed=5)
    c = RandomSearch(b, seed=5)
    for _ in range(5):
        assert (a.ask()[0] == c.ask()[0]).all()


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

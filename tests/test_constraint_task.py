"""The constraint-rich task: eq2's three regions plus an avoid clause
G[0,15](!(obstacle)) and an ordering clause (!C U[0,15] B), so the runs pass
through negation, Globally and Until as well as eq2's Eventually boxes."""

import hashlib
import json
from pathlib import Path

import pytest

from stlopt import MetricConfig
from stlopt.cli import main
from stlopt.harness import ExperimentConfig, emit_results, load_task, run_experiment
from stlopt.task import TRAJECTORY_CHANNELS, evaluation_trace, objective_detail
from stlopt.trace import GRID_TOL
from oracle import brute_sat

TESTS_DIR = Path(__file__).resolve().parent
TASK = "constraint_task.json"  # read from TESTS_DIR, so summary.json names no absolute path

# sha256 of runs.csv, summary.json and trace_best.csv for seed 0, budget 30,
# recorded before the GP grid fit became one stacked eigendecomposition
DIGESTS = {
    ("bo", "space"): (
        "a47fcab1aa1f2d611c77bdad23007bd14590ceb3041717057ba5293651178112",
        "0b388674b63ffe439a23063d4d04572d38c951bf328f3aff72199963a2314601",
        "45d62d5f6e0bedcdd274420c54013e6322c939138b26efc8848f0d196d31865d",
    ),
    ("bo", "lse"): (
        "abe5562b3359e8d435a85f5ed563d61c5dac117642919c5fa75240cbfc70f97f",
        "a37f3bd860122fa435947fe70241a2248ca0ef0f809db724758e6ea66afaa0f2",
        "b2391844019b2a996fc5f501582a9a49135cc454c6bd53ffe0de40784cc6fbe1",
    ),
    ("bo", "smooth"): (
        "60c0b0c2d879f0ab527bb0e73ac412289099b1501d405d4a8e6003afd9ec05d7",
        "c244d53502d1e44e0488dab6980f9a3eba048ad1b7735e96858109044d78ea4b",
        "74ebad2329454419d94dd0329c3985e8b4bc408b71edbbd05254fdb9aa5f8a82",
    ),
    ("bo", "agm"): (
        "749954726d687342647e2685d4cd9ddb6623fd12b15e0c45afe101acb5a020e9",
        "329902e2f996810881b58bddbef8096eaf0d62682a2750a9e340e98a4cfc6af7",
        "d252cc9e0087cf298c41d4adf565d49e23dcfb84e472b51fb321abd445e0b452",
    ),
    ("bo", "new"): (
        "14ed6aee607e7d49e3e4366cd5ecea09ca4b5211cde7f6994b74edfccd0ae98a",
        "27d3f4d16ecf8c58aaf776e452f02e88195f442b236a61fe33b0a9b281c7b396",
        "e211809fddb1de551d79b099c3692d8bd25d0559aafa6e172b83afa18ab34576",
    ),
    ("cmaes", "space"): (
        "6c3d279f4dbbc560095b4bca204c3d5f244805cd6a0426605b5beedc35c28dac",
        "3d6611b07184841fb9a7812a95f13b175fc45bb78d95a11167665eb3b29d321a",
        "2d15bf6290f97fb3abba85369ee06e56d2cafd8347c9949262b7d12e31faf208",
    ),
    ("cmaes", "lse"): (
        "117be737d37824748d5127ac15cc7dbbdd07f0233b4fd2fc61e4c02e017d7c14",
        "e63ffc41d11208fc858457c4ccca06fd44e42213460d9983b423f8dca5e409c9",
        "87b093940c207cf84239e6e0f35a5faa0a444a9b510a395463fe00ab5ca2017e",
    ),
    ("cmaes", "smooth"): (
        "86000663a8a136ec12b203db5fc53f63d102f321011961ae9679a082c1f483ea",
        "5fbd786f021528b1cba211430fc9d67d143ac5cfe73e9ce342bab7059d2a5e73",
        "3d0b0896d0966e7eb35bceb8c66299afbe66c2d2a7fd71c6f3b66d174ec0010b",
    ),
    ("cmaes", "agm"): (
        "7e81bfc7b264897944454af6eb187b64d635d05f0eaa7c3926b54bfa0d1ad791",
        "0f0762f73161cc8a9ecac557c908c432e5fc6e7df367712c27b27a273906f150",
        "f45b6b66e941220a937ab38edb82a5bb436ba8a2760d4262535189a441dc2b1c",
    ),
    ("cmaes", "new"): (
        "d812821187b365d53ee39a29da1297f72e854e220d07acd719bd71ef8fcbe630",
        "93da7a6051f89a72f76b59839ff2faec30a8a20ea2d5fbd54f7f904cfdbb2692",
        "ed69edf60d4ef4027172c5c39cf1a30e52078ce7f7db9306fa2ada38bf3a7830",
    ),
    ("random", "space"): (
        "2d70aa5d1ea088a53199268029dd0a9d2d772aa6ed80d81cbc930127903f072e",
        "374d31dc931c4b175fd89b85ba4681fb6aae07a352d0ccc1a9b68df500392254",
        "826696fcc876e5c7311b9b548eb67a5ba506374c7dc9cae3983c4d5a9563b857",
    ),
    ("random", "lse"): (
        "565a8235da6c70427cd3b93f514c09823a3167bde0bf8744adb71700bde7ef4c",
        "77d52c70bfae9bf571785a73c6ea291c36d5d9eda01a9d494d4b81f1b61ab043",
        "6693dc9e7f2751c1d96e3cbec9ae987f2924707c9a020c5c7aa23061a8b52fdb",
    ),
    ("random", "smooth"): (
        "64968a971ca5d9bf9815c3deb4f4017a27bf3381e33e5db91bf3264afa3bcdda",
        "2a83d2d66d1d888634c698d4ad3c21b13867f7539e5c74c807ceab61acc9b92f",
        "6693dc9e7f2751c1d96e3cbec9ae987f2924707c9a020c5c7aa23061a8b52fdb",
    ),
    ("random", "agm"): (
        "b2e7700d7d537938365f34ebb5bdd0d83f12fc6e873d4edf920ff476470947b4",
        "d234882b8908d2820803a8cb50a9c20cd069f79cb5f04b1b31ad012995b9c9cb",
        "826696fcc876e5c7311b9b548eb67a5ba506374c7dc9cae3983c4d5a9563b857",
    ),
    ("random", "new"): (
        "f3e4d452a2f726c0da5825c64527314e19fd3725f3207f6842b6994870e46bad",
        "13ba3ee9aa7dd82ce3a6f5eb42e9cfa102a72e412ec090172b8a66e2b28383e6",
        "826696fcc876e5c7311b9b548eb67a5ba506374c7dc9cae3983c4d5a9563b857",
    ),
}


def _run(monkeypatch, method, kind):
    monkeypatch.chdir(TESTS_DIR)
    cfg = ExperimentConfig(method, MetricConfig(kind), budget=30, seeds=[0], task=TASK)
    return run_experiment(cfg)


@pytest.mark.parametrize("method, kind", sorted(DIGESTS))
def test_constraint_task_outputs_match_the_recorded_digests(monkeypatch, tmp_path, method, kind):
    paths = emit_results(_run(monkeypatch, method, kind), str(tmp_path))
    digests = tuple(
        hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest()
        for name in ("runs", "summary", "trace_best")
    )
    assert digests == DIGESTS[method, kind]


@pytest.mark.parametrize("method", ["bo", "cmaes", "random"])
def test_constraint_task_satisfaction_is_the_brute_force_oracle(monkeypatch, method):
    result = _run(monkeypatch, method, "space")
    task = result.task
    scored = [
        r for r in result.per_seed[0].records
        if float(sum(r.params[:3])) + GRID_TOL >= task.min_coverage
    ]
    assert scored
    for r in scored:
        assert r.satisfied == brute_sat(task.formula, evaluation_trace(task, r.params), 0.0)


# region centres reached at 3.5, 9 and 14 s, away from the obstacle, B before C
SATISFYING = (3.5, 5.5, 5.0, 0.25, 0.65, 0.6, 0.6, 0.75, 0.2)
# the same path with waypoints 2 and 3 swapped: C is reached before B
B_AFTER_C = (3.5, 5.5, 5.0, 0.25, 0.65, 0.75, 0.2, 0.6, 0.6)


@pytest.mark.parametrize("p, sat", [(SATISFYING, True), (B_AFTER_C, False)])
def test_constraint_task_oracle_on_hand_built_vectors(monkeypatch, p, sat):
    monkeypatch.chdir(TESTS_DIR)
    task = load_task(TASK)
    oracle = brute_sat(task.formula, evaluation_trace(task, p), 0.0)
    assert oracle is sat
    for kind in ("space", "lse", "smooth", "agm", "new"):
        scales = {ch: 1.0 for ch in TRAJECTORY_CHANNELS} if kind == "agm" else None
        value, flag, _ = objective_detail(task, MetricConfig(kind, agm_scales=scales), p)
        assert flag is oracle, kind
        if kind in ("space", "agm", "new"):  # sound semantics: the sign is the verdict
            assert (value > 0) is sat, (kind, value)


def test_constraint_task_with_avg_exits_2(tmp_path, capsys):
    cfg = {"method": "cmaes", "metric": {"kind": "avg"}, "budget": 10, "seeds": [0],
           "task": str(TESTS_DIR / TASK)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["optimize", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "stlopt: until unsupported by avg semantics\n"

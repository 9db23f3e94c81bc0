import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_dataset
from goalgen.dataset import TrainingPipeline, TrainingStage
from goalgen.elo import EloTable
from goalgen.errors import ValidationError
from goalgen.features import enumerate_objects
from goalgen.fitting import (
    FitConfig,
    FitResult,
    ModelVariant,
    baseline_uniform,
    fit_hyperparameters,
    modelling_loss,
    simulate_variant,
)
from goalgen.harness import (
    EvaluationPlan,
    PipelinePredicate,
    _spearman_rho,
    elo_vs_model,
    kfold_cv,
    kfold_partition,
    transfer_eval,
    write_manifest,
)
from goalgen.latent import LpgHyperparameters, goal_value

OBJECTS = enumerate_objects()


def test_partition_covers_each_pipeline_once():
    ids = [f"p{i}" for i in range(10)]
    assignment = kfold_partition(ids, 4, rng_seed=0)
    assert set(assignment) == set(ids)
    counts = [sum(1 for f in assignment.values() if f == k) for k in range(4)]
    assert sum(counts) == 10
    assert max(counts) - min(counts) <= 1


def test_partition_reproducible():
    ids = [f"p{i}" for i in range(8)]
    assert kfold_partition(ids, 4, 3) == kfold_partition(ids, 4, 3)
    assert kfold_partition(ids, 4, 3) != kfold_partition(ids, 4, 4)


def test_single_fold_rejected():
    with pytest.raises(ValidationError):
        kfold_partition(["a", "b"], 1, 0)


def test_kfold_close_to_full_fit_on_generator_data():
    ds, _ = synthetic_dataset(seed=8, n_pipelines=8, n_records=96)
    config = FitConfig(epochs=25, rng_seed=0)
    full = fit_hyperparameters(ds, ModelVariant.FULL, config)
    result = kfold_cv(ds, ModelVariant.FULL, k=4, config=config)
    assert len(result.fold_losses) == 4
    assert abs(result.mean_loss - full.train_loss) < 0.02
    assert result.se >= 0.0


def test_kfold_needs_enough_pipelines():
    ds, _ = synthetic_dataset(seed=9, n_pipelines=3, n_records=18)
    with pytest.raises(ValidationError):
        kfold_cv(ds, k=4, config=FitConfig(epochs=1))


def test_plan_parsing_and_validation():
    plan = EvaluationPlan.from_json(
        {"train": {"stage_count": 1}, "eval": {"stage_count": 2}}
    )
    assert plan.train.stage_count == 1
    # K-fold partitions follow --seed; a plan cannot carry its own.
    with pytest.raises(ValidationError, match=r"unknown plan keys: \['seed'\]"):
        EvaluationPlan.from_json({"k": 2, "seed": 3})
    with pytest.raises(ValidationError, match="unknown plan keys"):
        EvaluationPlan.from_json({"folds": 4})
    with pytest.raises(ValidationError, match="unknown predicate"):
        EvaluationPlan.from_json({"train": {"stages": 1}, "eval": {}})
    with pytest.raises(ValidationError):
        EvaluationPlan.from_json({"train": {"stage_count": 1}})


@pytest.mark.parametrize(
    "data",
    [
        {"k": 2, "train": {"stage_count": 1}, "eval": {"stage_count": 2}},
        {"k": 2, "train": {"stage_count": 1}},
        {"k": 2, "eval": {}},
        {"eval": {"stage_count": 2}},
        {},
    ],
)
def test_plan_is_either_k_or_both_filters(data):
    with pytest.raises(ValidationError, match="k alone or both train and eval filters"):
        EvaluationPlan.from_json(data)


def test_predicate_matching():
    single = TrainingPipeline("s", (TrainingStage(OBJECTS[0]),))
    double = TrainingPipeline(
        "d", (TrainingStage(OBJECTS[0]), TrainingStage(OBJECTS[1], OBJECTS[2]))
    )
    assert PipelinePredicate(stage_count=1).matches(single)
    assert not PipelinePredicate(stage_count=1).matches(double)
    assert PipelinePredicate(has_distractor=True).matches(double)
    assert not PipelinePredicate(has_distractor=True).matches(single)
    assert PipelinePredicate(ids=frozenset({"s"})).matches(single)


def test_transfer_single_to_two_stage():
    ds, _ = synthetic_dataset(seed=10, n_pipelines=10, n_records=120)
    plan = EvaluationPlan(
        train=PipelinePredicate(stage_count=1),
        eval=PipelinePredicate(stage_count=2),
    )
    result = transfer_eval(ds, plan, config=FitConfig(epochs=25, rng_seed=0))
    eval_records = [
        r
        for r in ds.records
        if len(ds.pipelines[r.pipeline_id].stages) == 2
    ]
    assert result.eval_loss < baseline_uniform(eval_records)
    assert result.metrics_three_way.kl == pytest.approx(result.eval_loss)
    assert result.n_train_pipelines + result.n_eval_pipelines == len(ds.pipelines)


def test_transfer_rejects_overlapping_filters():
    ds, _ = synthetic_dataset(seed=11, n_pipelines=4, n_records=20)
    plan = EvaluationPlan(
        train=PipelinePredicate(), eval=PipelinePredicate(stage_count=1)
    )
    with pytest.raises(ValidationError, match="overlap"):
        transfer_eval(ds, plan, config=FitConfig(epochs=1))


def test_transfer_rejects_empty_filter():
    ds, _ = synthetic_dataset(seed=12, n_pipelines=4, n_records=20)
    plan = EvaluationPlan(
        train=PipelinePredicate(stage_count=1),
        eval=PipelinePredicate(stage_count=7),
    )
    with pytest.raises(ValidationError, match="eval filter"):
        transfer_eval(ds, plan, config=FitConfig(epochs=1))


def _fit_result_for(ds):
    # dense random saliency keeps model values tie-free (generic position)
    gen = np.random.default_rng(21)
    s = np.triu(gen.normal(0.0, 0.2, (10, 10)))
    np.fill_diagonal(s, gen.uniform(1.0, 1.6, 10))
    hp = LpgHyperparameters(np.triu(s), np.log(0.8), -0.2)
    return FitResult(
        hyperparameters=hp,
        variant=ModelVariant.FULL,
        train_loss=modelling_loss(hp, ds),
        per_example_losses=np.zeros(len(ds.records)),
    )


def test_elo_vs_model_perfect_affine_relation():
    ds, _ = synthetic_dataset(seed=13, n_pipelines=4, n_records=24)
    fit = _fit_result_for(ds)
    shared, shifted = {}, {}
    for i, pid in enumerate(sorted(ds.pipelines)):
        # The scores come from the same simulator as elo_vs_model's values:
        # final goals of different pipelines tie at 1/tau, and a tie broken
        # by an ulp differently on each side would cost a rank.
        w = simulate_variant(fit.hyperparameters, ds.pipelines[pid], fit.variant)
        values = {obj: goal_value(fit.hyperparameters, w, obj) for obj in OBJECTS}
        shared[pid] = EloTable(scores={o: 100.0 * v + 25.0 for o, v in values.items()})
        shifted[pid] = EloTable(
            scores={o: 100.0 * v + 40.0 * i for o, v in values.items()}
        )
    # one shared affine map: monotone, so raw rank correlation is perfect
    comparison = elo_vs_model(ds, shared, fit)
    assert comparison.spearman_rho == pytest.approx(1.0)
    assert comparison.r_squared == pytest.approx(1.0)
    assert len(comparison.points) == len(shared) * 24
    # per-agent offsets break the pooled ranking; normalising restores it
    # (up to float demeaning noise splitting exact cross-agent ties)
    raw = elo_vs_model(ds, shifted, fit)
    norm = elo_vs_model(ds, shifted, fit, normalised=True)
    assert norm.spearman_rho == pytest.approx(1.0, abs=1e-3)
    assert norm.spearman_rho >= raw.spearman_rho


def test_elo_vs_model_normalised_removes_per_agent_shift():
    ds, _ = synthetic_dataset(seed=14, n_pipelines=4, n_records=24)
    fit = _fit_result_for(ds)
    rng = np.random.default_rng(0)
    tables = {}
    shifted_tables = {}
    for i, pid in enumerate(sorted(ds.pipelines)):
        scores = {obj: float(rng.normal(0, 50)) for obj in OBJECTS}
        tables[pid] = EloTable(scores=scores)
        shifted_tables[pid] = EloTable(
            scores={o: s + 500.0 * i for o, s in scores.items()}
        )
    a = elo_vs_model(ds, tables, fit, normalised=True)
    b = elo_vs_model(ds, shifted_tables, fit, normalised=True)
    assert a.spearman_rho == pytest.approx(b.spearman_rho)
    assert a.r_squared == pytest.approx(b.r_squared)


def test_spearman_rho_matches_scipy():
    from scipy.stats import spearmanr

    rng = np.random.default_rng(5)
    cases = [
        (rng.normal(size=40), rng.normal(size=40)),  # distinct values
        (rng.integers(0, 4, 200), rng.integers(0, 3, 200)),  # heavy ties
        (rng.integers(0, 2, 7), rng.normal(size=7)),
        (np.array([1.0, 2.0]), np.array([5.0, 3.0])),  # n = 2
        (np.array([2.0, 1.0, 2.0, 2.0]), np.array([0.5, 0.5, 0.1, 0.9])),
    ]
    for x, y in cases:
        want = spearmanr(x, y).statistic
        assert _spearman_rho(x, y) == pytest.approx(want, rel=0, abs=1e-12)
    # A constant input has no ranking.
    assert math.isnan(_spearman_rho(np.full(5, 3.0), np.arange(5.0)))
    assert math.isnan(_spearman_rho(np.arange(5.0), np.zeros(5)))


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports goalgen from this
    checkout and the test helpers from ``tests``."""
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_importing_goalgen_loads_no_scipy():
    result = _run_python(
        "import sys, goalgen, goalgen.cli, goalgen.harness\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_goalgen_runs_without_scipy(tmp_path):
    # With sys.modules["scipy"] set to None, any import of scipy raises.
    code = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
from conftest import synthetic_dataset
from goalgen import cli
from goalgen.elo import EloTable
from goalgen.features import enumerate_objects
from goalgen.fitting import FitResult, ModelVariant
from goalgen.harness import elo_vs_model

assert cli.main(["check", "--out", {str(tmp_path / "check")!r}]) == 0
ds, hp = synthetic_dataset(seed=3, n_pipelines=2, n_records=12)
rng = np.random.default_rng(0)
tables = {{
    pid: EloTable(scores={{o: float(rng.normal()) for o in enumerate_objects()}})
    for pid in ds.pipelines
}}
fit = FitResult(hp, ModelVariant.FULL, 0.0, np.zeros(len(ds.records)))
print(elo_vs_model(ds, tables, fit).spearman_rho)
"""
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
    rho = float(result.stdout.splitlines()[-1])
    assert -1.0 <= rho <= 1.0


def test_elo_vs_model_coverage_checked():
    ds, _ = synthetic_dataset(seed=15, n_pipelines=2, n_records=12)
    fit = _fit_result_for(ds)
    with pytest.raises(ValidationError, match="unknown pipelines"):
        elo_vs_model(ds, {"ghost": EloTable(scores={})}, fit)
    pid = sorted(ds.pipelines)[0]
    with pytest.raises(ValidationError, match="lacks scores"):
        elo_vs_model(ds, {pid: EloTable(scores={OBJECTS[0]: 1.0})}, fit)


def test_manifest_contents(tmp_path):
    data_file = tmp_path / "input.txt"
    data_file.write_text("payload")
    out = tmp_path / "run"
    path = write_manifest(out, "fit", {"variant": "full"}, 7, [data_file])
    manifest = json.loads(path.read_text())
    assert manifest["command"] == "fit"
    assert manifest["seed"] == 7
    digest = manifest["inputs"][str(data_file)]
    assert len(digest) == 64
    # digest changes with content
    data_file.write_text("other")
    write_manifest(out, "fit", {"variant": "full"}, 7, [data_file])
    manifest2 = json.loads(path.read_text())
    assert manifest2["inputs"][str(data_file)] != digest

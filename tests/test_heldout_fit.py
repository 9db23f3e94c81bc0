"""K-fold and transfer evaluations against values recorded from serial fits.

``tests/data/heldout_fit_reference.json`` holds, for every variant, the
4-fold CV of ``heldout_dataset`` and its transfer evaluation from
one-stage to two-stage pipelines, as one ``fit_hyperparameters`` call per
fold (or transfer) on its training records produced them, with the
held-out records scored by ``modelling_loss`` and
``predicted_distributions``. The folds train
on different numbers of records, so their fits take different numbers of
updates. Re-record it with

    PYTHONPATH=src python tests/test_heldout_fit.py

only from a commit whose fits are known to be right.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import PAIRS, random_pipelines, synthetic_dataset
from goalgen import fitting
from goalgen.dataset import Dataset, PreferenceRecord, observed_rates
from goalgen.fitting import (
    FitConfig,
    ModelVariant,
    fit_hyperparameters,
    modelling_loss,
    predicted_distributions,
)
from goalgen.harness import (
    EvaluationPlan,
    PipelinePredicate,
    kfold_cv,
    kfold_partition,
    transfer_eval,
)
from goalgen.latent import predict_preferences, simulate_pipeline
from goalgen.metrics import MetricMode, compute_metrics
from test_lockstep_fit import assert_matches, fit_values

REFERENCE = Path(__file__).parent / "data" / "heldout_fit_reference.json"
CONFIG = FitConfig(epochs=2, batch_size=16, rng_seed=4, latent_dim=4)
K = 4
PLAN = EvaluationPlan(
    train=PipelinePredicate(stage_count=1), eval=PipelinePredicate(stage_count=2)
)
TOLERANCE = 1e-9


def heldout_dataset() -> Dataset:
    """Eight one- and two-stage pipelines with 8 to 43 records each."""
    _, hp = synthetic_dataset(seed=21, n_pipelines=1, n_records=1)
    rng = np.random.default_rng(21)
    pipelines = random_pipelines(rng, 8)
    records = []
    for i, pid in enumerate(sorted(pipelines)):
        w = simulate_pipeline(hp, pipelines[pid])
        for j in sorted(rng.choice(len(PAIRS), 8 + 5 * i, replace=False)):
            a, b = PAIRS[j]
            counts = rng.multinomial(200, predict_preferences(hp, w, a, b).as_tuple())
            records.append(PreferenceRecord(pid, a, b, *map(int, counts), 200))
    return Dataset(pipelines, tuple(records))


def metric_values(report) -> list:
    return [
        report.kl,
        report.tv,
        report.brier,
        report.directional_accuracy,
        report.n_directional,
    ]


def serial_heldout(ds, variant, train_ids, eval_ids) -> dict:
    """One serial fit on the training pipelines' records, scored on the
    held-out pipelines' records."""
    train = [r for r in ds.records if r.pipeline_id in train_ids]
    held_out = [r for r in ds.records if r.pipeline_id in eval_ids]
    fit = fit_hyperparameters(Dataset(ds.pipelines, tuple(train)), variant, CONFIG)
    predicted = predicted_distributions(
        fit.hyperparameters, ds, held_out, variant, CONFIG
    )
    predictions = np.array([p.as_tuple() for p in predicted])
    observed = observed_rates(held_out)
    return {
        "fit": fit_values(fit),
        "loss": modelling_loss(fit.hyperparameters, ds, held_out, variant, CONFIG),
        "three_way": metric_values(
            compute_metrics(predictions, observed, MetricMode.THREE_WAY)
        ),
        "two_way": metric_values(
            compute_metrics(predictions, observed, MetricMode.TWO_WAY)
        ),
    }


def serial_values() -> dict:
    ds = heldout_dataset()
    assignment = kfold_partition(list(ds.pipelines), K, CONFIG.rng_seed)
    kfold = {}
    for v in ModelVariant:
        folds = []
        for fold in range(K):
            train = {p for p, f in assignment.items() if f != fold}
            folds.append(serial_heldout(ds, v, train, set(assignment) - train))
        kfold[v.value] = {
            "fold_losses": [f["loss"] for f in folds],
            "fits": [f["fit"] for f in folds],
        }
    train_ids = {p for p, pipe in ds.pipelines.items() if PLAN.train.matches(pipe)}
    transfer = {
        v.value: serial_heldout(ds, v, train_ids, set(ds.pipelines) - train_ids)
        for v in ModelVariant
    }
    return {"kfold": kfold, "transfer": transfer}


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def assert_kfold_matches(result, want: dict, name: str) -> None:
    np.testing.assert_allclose(
        result.fold_losses, want["fold_losses"], rtol=0, atol=TOLERANCE, err_msg=name
    )
    assert len(result.fits) == K, name
    for fold, (fit, fit_want) in enumerate(zip(result.fits, want["fits"])):
        assert_matches(fit_values(fit), fit_want, f"{name} fold {fold}")


def test_folds_train_on_different_record_counts(reference):
    updates = [f["n_updates"] for f in reference["kfold"]["full"]["fits"]]
    assert len(set(updates)) > 1


@pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
def test_kfold_matches_serial_fits(reference, variant):
    result = kfold_cv(heldout_dataset(), variant, K, CONFIG)
    assert_kfold_matches(result, reference["kfold"][variant.value], variant.value)


@pytest.mark.parametrize("entries", [16, 32])
def test_kfold_split_across_passes_matches_serial_fits(reference, monkeypatch, entries):
    # 8 pipelines of up to 2 stages make 16 entries per model: one or two
    # folds per engine pass.
    monkeypatch.setattr(fitting, "_LOCKSTEP_ENTRIES", entries)
    result = kfold_cv(heldout_dataset(), ModelVariant.FULL, K, CONFIG)
    assert_kfold_matches(result, reference["kfold"]["full"], f"{entries} entries")


def test_leave_one_out_passes_stay_within_the_entry_bound(monkeypatch):
    # Leave-one-out on 8 pipelines of up to 2 stages: a fit ascends at most
    # its other 7, 14 (model, pipeline, stage) entries, so a 32-entry bound
    # holds two fits a pass, and each fold's held-out pipeline is scored
    # under its fit only.
    monkeypatch.setattr(fitting, "_LOCKSTEP_ENTRIES", 32)
    engine, calls = fitting._evaluate_batch, []

    def counting(model, prep, row_sets, n_steps, gradient=False):
        pipes = [np.unique(prep.record_pipeline[rows]) for rows in row_sets]
        t_max = prep.stage_counts[np.concatenate(pipes)].max()
        entries = sum(len(p) for p in pipes) * t_max
        calls.append((entries, not gradient))
        return engine(model, prep, row_sets, n_steps, gradient)

    monkeypatch.setattr(fitting, "_evaluate_batch", counting)
    ds = heldout_dataset()
    k = len(ds.pipelines)
    kfold_cv(ds, ModelVariant.FULL, k, CONFIG)
    assert max(entries for entries, _ in calls) <= 32
    # One training-loss pass per two fits, then one pass per held-out fold.
    scoring = [entries for entries, no_grad in calls if no_grad]
    assert len(scoring) == k // 2 + k
    assert sum(scoring[-k:]) == sum(len(p.stages) for p in ds.pipelines.values())


def test_passes_ascend_only_the_pipelines_of_each_fits_own_rows(monkeypatch):
    # Every pass of a 4-fold CV ascends, per live fit, the pipelines of that
    # fit's batch (then of its training rows, then of its held-out rows),
    # not those of every live fit's batch.
    ds, _ = synthetic_dataset(seed=40, n_pipelines=8, n_records=30)
    config = FitConfig(batch_size=16, n_integration_steps=10)
    forward, entries = fitting._forward, []

    def counting(gram, base, *args):
        entries.append(base.shape[-1])
        return forward(gram, base, *args)

    monkeypatch.setattr(fitting, "_forward", counting)
    result = kfold_cv(ds, ModelVariant.FULL, K, config)
    pids, pipeline = ds.columns[:2]
    fold = np.array([result.fold_assignment[pid] for pid in pids])[pipeline]
    splits = [(np.flatnonzero(fold != f), np.flatnonzero(fold == f)) for f in range(K)]

    def n_pipes(rows):
        return len(np.unique(pipeline[rows]))

    schedules = [fitting._batches(train, config) for train, _ in splits]
    want = [
        sum(n_pipes(batches[step][2]) for batches in schedules if step < len(batches))
        for step in range(max(map(len, schedules)))
    ]
    want.append(sum(n_pipes(train) for train, _ in splits))
    want += [n_pipes(held) for _, held in splits]
    assert entries == want


@pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
def test_transfer_matches_serial_fit(reference, variant):
    want = reference["transfer"][variant.value]
    result = transfer_eval(heldout_dataset(), PLAN, variant, CONFIG)
    assert_matches(fit_values(result.fit), want["fit"], variant.value)
    assert abs(result.eval_loss - want["loss"]) <= TOLERANCE
    for mode in ("three_way", "two_way"):
        got = metric_values(getattr(result, f"metrics_{mode}"))
        np.testing.assert_allclose(got, want[mode], rtol=0, atol=TOLERANCE, err_msg=mode)


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(serial_values(), indent=1) + "\n")
    print(f"wrote {REFERENCE}")

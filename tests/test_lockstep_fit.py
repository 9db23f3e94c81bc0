"""Lockstep fits against values recorded from one-fit-at-a-time fitting.

``tests/data/lockstep_fit_reference.json`` holds the sweep and variant
fits of ``lockstep_dataset`` as the serial fitter produced them, one call
of ``fit_hyperparameters`` per latent dimension. Re-record it with

    PYTHONPATH=src python tests/test_lockstep_fit.py

only from a commit whose fits are known to be right.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import GOALS, OBJECTS, sample_records, synthetic_dataset
from goalgen.dataset import Dataset, TrainingPipeline, TrainingStage
from goalgen import fitting
from goalgen.errors import NumericalError
from goalgen.fitting import (
    FitConfig,
    ModelVariant,
    fit_hyperparameters,
    latent_dim_sweep,
)

REFERENCE = Path(__file__).parent / "data" / "lockstep_fit_reference.json"
SWEEP_DIMS = [1, 4, 24]
CONFIG = FitConfig(epochs=2, batch_size=16, rng_seed=4, latent_dim=4)
TOLERANCE = 1e-9


def lockstep_dataset() -> Dataset:
    """1-3 stage pipelines, with and without distractors, sampled from the
    seeded generator of ``synthetic_dataset``."""
    _, hp = synthetic_dataset(seed=11, n_pipelines=1, n_records=1)
    rng = np.random.default_rng(11)
    pipelines = {}
    for i, (n_stages, with_distractor) in enumerate(
        [(1, False), (1, True), (2, False), (2, True), (3, False), (3, True)]
    ):
        stages = []
        for _ in range(n_stages):
            goal = GOALS[rng.integers(len(GOALS))]
            distractor = None
            if with_distractor:
                distractor = OBJECTS[rng.integers(24)]
                while distractor == goal:
                    distractor = OBJECTS[rng.integers(24)]
            stages.append(TrainingStage(goal, distractor))
        pipelines[f"p{i}"] = TrainingPipeline(f"p{i}", tuple(stages))
    records = sample_records(rng, hp, pipelines, 90, episodes=200)
    return Dataset(pipelines, tuple(records))


def fit_values(result) -> dict:
    """The recorded figures of one fit."""
    hp = result.hyperparameters
    diag = result.diagnostics
    return {
        "train_loss": result.train_loss,
        "n_updates": diag["n_updates"],
        "loss_trajectory": diag["loss_trajectory"],
        "gradient_norm_trajectory": diag["gradient_norm_trajectory"],
        "saliency": hp.saliency.tolist(),
        "log_tau": hp.log_tau,
        "w0": hp.w0,
    }


def serial_values() -> dict:
    """Every reference fit, one ``fit_hyperparameters`` call each."""
    ds = lockstep_dataset()
    return {
        "sweep": {
            str(d): fit_values(
                fit_hyperparameters(
                    ds, ModelVariant.FULL, replace(CONFIG, latent_dim=d)
                )
            )
            for d in SWEEP_DIMS
        },
        "variants": {
            v.value: fit_values(fit_hyperparameters(ds, v, CONFIG))
            for v in ModelVariant
        },
    }


def assert_matches(got: dict, want: dict, name: str) -> None:
    assert got["n_updates"] == want["n_updates"], name
    assert abs(got["train_loss"] - want["train_loss"]) <= TOLERANCE, name
    for key in ("loss_trajectory", "gradient_norm_trajectory", "saliency"):
        np.testing.assert_allclose(
            got[key], want[key], rtol=0, atol=TOLERANCE, err_msg=f"{name} {key}"
        )
    assert abs(got["log_tau"] - want["log_tau"]) <= TOLERANCE, name
    assert abs(got["w0"] - want["w0"]) <= TOLERANCE, name


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def test_reference_dataset_covers_every_stage_layout():
    ds = lockstep_dataset()
    layouts = {
        (len(p.stages), p.has_distractor) for p in ds.pipelines.values()
    }
    assert layouts == {(t, dis) for t in (1, 2, 3) for dis in (False, True)}
    assert {r.pipeline_id for r in ds.records} == set(ds.pipelines)


def test_lockstep_sweep_matches_serial_fits(reference):
    results = latent_dim_sweep(lockstep_dataset(), SWEEP_DIMS, CONFIG)
    assert [r.hyperparameters.latent_dim for r in results] == SWEEP_DIMS
    assert sorted(reference["sweep"]) == sorted(map(str, SWEEP_DIMS))
    for d, result in zip(SWEEP_DIMS, results):
        assert_matches(fit_values(result), reference["sweep"][str(d)], f"d={d}")


@pytest.mark.parametrize("entries", [18, 36])
def test_sweep_split_across_passes_matches_serial_fits(reference, monkeypatch, entries):
    # 6 pipelines of up to 3 stages make 18 entries per model: one or two
    # fits per engine pass.
    monkeypatch.setattr(fitting, "_LOCKSTEP_ENTRIES", entries)
    results = latent_dim_sweep(lockstep_dataset(), SWEEP_DIMS, CONFIG)
    assert [r.hyperparameters.latent_dim for r in results] == SWEEP_DIMS
    for d, result in zip(SWEEP_DIMS, results):
        assert_matches(fit_values(result), reference["sweep"][str(d)], f"d={d}")


@pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
def test_fit_matches_serial_fit_for_every_variant(reference, variant):
    result = fit_hyperparameters(lockstep_dataset(), variant, CONFIG)
    assert_matches(fit_values(result), reference["variants"][variant.value], variant)


def test_one_dim_sweep_is_the_fit():
    ds = lockstep_dataset()
    [swept] = latent_dim_sweep(ds, [3], CONFIG)
    fitted = fit_hyperparameters(ds, ModelVariant.FULL, replace(CONFIG, latent_dim=3))
    assert fit_values(swept) == fit_values(fitted)
    np.testing.assert_array_equal(swept.per_example_losses, fitted.per_example_losses)


def test_sweep_keeps_repeated_dims_and_their_order():
    ds = lockstep_dataset()
    results = latent_dim_sweep(ds, [4, 1, 4], CONFIG)
    assert [r.hyperparameters.latent_dim for r in results] == [4, 1, 4]
    assert_matches(fit_values(results[0]), fit_values(results[2]), "repeated d=4")


def test_divergence_names_the_latent_dim_of_the_fit():
    config = replace(CONFIG, learning_rate=1e150)
    with pytest.raises(NumericalError, match=r"in the latent-dim 4 fit \(epoch 0, "):
        latent_dim_sweep(lockstep_dataset(), [4, 1], config)


def test_non_finite_training_loss_names_the_latent_dim(monkeypatch):
    engine = fitting._evaluate_batch

    def final_loss_nan(model, prep, rows, n_steps, member=None):
        losses, logp, grads = engine(model, prep, rows, n_steps, member)
        if member is None:  # the training-loss pass after the last update
            losses[1, 0] = np.nan
        return losses, logp, grads

    monkeypatch.setattr(fitting, "_evaluate_batch", final_loss_nan)
    with pytest.raises(NumericalError, match=r"^non-finite training loss in the latent-dim 1 fit$"):
        latent_dim_sweep(lockstep_dataset(), [4, 1], CONFIG)


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(serial_values(), indent=1) + "\n")
    print(f"wrote {REFERENCE}")

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import GOALS, PAIRS, random_pipelines, sample_records, synthetic_dataset
from goalgen.dataset import (
    Dataset,
    PreferenceRecord,
    TrainingPipeline,
    TrainingStage,
    record_to_distribution,
)
from goalgen.errors import NumericalError, ValidationError
from goalgen.features import Colour, ObjectFeatures, Shape, enumerate_objects
from goalgen.fitting import (
    FitConfig,
    ModelVariant,
    baseline_uniform,
    fit_hyperparameters,
    hyperparameter_gradient,
    latent_dim_sweep,
    lower_bound_per_feature,
    lower_bound_per_goal,
    modelling_loss,
    predicted_distributions,
    simulate_variant,
)
from goalgen.latent import (
    LpgHyperparameters,
    SaliencyVariant,
    identity_hyperparameters,
    predict_preferences,
    simulate_pipeline,
    stage_objective,
)
from goalgen.metrics import kl_divergence

RC = ObjectFeatures(Colour.RED, Shape.CROSS)
BD = ObjectFeatures(Colour.BLUE, Shape.DIAMOND)
BP = ObjectFeatures(Colour.BLACK, Shape.PLUS)
RR = ObjectFeatures(Colour.RED, Shape.RING)
OBJECTS = enumerate_objects()


def small_dataset(rng, n_records=5):
    pipelines = {
        "one": TrainingPipeline("one", (TrainingStage(RC),)),
        "two": TrainingPipeline(
            "two", (TrainingStage(BD), TrainingStage(BP, RR))
        ),
    }
    records = []
    seen = set()
    while len(records) < n_records:
        pid = "one" if len(records) % 2 else "two"
        a, b = OBJECTS[rng.integers(24)], OBJECTS[rng.integers(24)]
        if a == b or (pid, frozenset((a, b))) in seen:
            continue
        seen.add((pid, frozenset((a, b))))
        counts = rng.multinomial(100, [0.45, 0.3, 0.25])
        records.append(
            PreferenceRecord(
                pid, a, b, int(counts[0]), int(counts[1]), int(counts[2]), 100
            )
        )
    return Dataset(pipelines, tuple(records))


def test_adjoint_matches_fd_for_every_variant(rng):
    ds = small_dataset(rng)
    for variant in ModelVariant:
        space_dim = 10
        hp_seed = np.random.default_rng(99)
        if variant is ModelVariant.QUADRATIC:
            hp = LpgHyperparameters(
                1.0 + 0.1 * hp_seed.normal(size=65),
                0.1,
                -0.1,
                SaliencyVariant.QUADRATIC,
            )
        else:
            s = np.triu(np.eye(10) + 0.1 * hp_seed.normal(size=(10, space_dim)))
            structural = (
                SaliencyVariant.DIAGONAL
                if variant is ModelVariant.DIAGONAL
                else SaliencyVariant.FULL
            )
            if structural is SaliencyVariant.DIAGONAL:
                s = np.diag(np.diag(s))
            hp = LpgHyperparameters(s, 0.1, -0.1, structural)
        _, adjoint = hyperparameter_gradient(ds, hp, variant)
        _, fd = hyperparameter_gradient(
            ds, hp, variant, FitConfig(gradient_mode="finite_difference")
        )
        rel = np.abs(adjoint - fd) / np.maximum(
            np.maximum(np.abs(adjoint), np.abs(fd)), 1e-6
        )
        assert rel.max() < 1e-3, variant


POOLED_REFERENCE = Path(__file__).parent / "data" / "pooled_adjoint_reference.json"


def pooled_adjoint_dataset():
    """1-3 stage pipelines, with and without distractors, 5 records each."""
    rng = np.random.default_rng(31)
    layouts = [(1, False), (1, True), (2, False), (2, True), (3, False), (3, True)]
    pipelines = {}
    records = []
    for i, (n_stages, with_distractor) in enumerate(layouts):
        stages = []
        for _ in range(n_stages):
            goal = GOALS[rng.integers(len(GOALS))]
            distractor = None
            if with_distractor:
                distractor = OBJECTS[rng.integers(24)]
                while distractor == goal:
                    distractor = OBJECTS[rng.integers(24)]
            stages.append(TrainingStage(goal, distractor))
        pid = f"p{i}"
        pipelines[pid] = TrainingPipeline(pid, tuple(stages))
        for j in rng.choice(len(PAIRS), size=5, replace=False):
            a, b = PAIRS[j]
            counts = rng.multinomial(60, rng.dirichlet([2.0, 2.0, 1.0]))
            records.append(
                PreferenceRecord(pid, a, b, *(int(c) for c in counts), 60)
            )
    return Dataset(pipelines, tuple(records))


def pooled_adjoint_hyperparameters(variant):
    rng = np.random.default_rng(7)
    if variant is ModelVariant.QUADRATIC:
        return LpgHyperparameters(
            1.0 + 0.2 * rng.normal(size=65),
            math.log(0.7),
            -0.2,
            SaliencyVariant.QUADRATIC,
        )
    s = np.eye(10, 4) + 0.3 * rng.normal(size=(10, 4))
    if variant is ModelVariant.DIAGONAL:
        return LpgHyperparameters(
            s * np.eye(10, 4), math.log(0.7), -0.2, SaliencyVariant.DIAGONAL
        )
    return LpgHyperparameters(np.triu(s), math.log(0.7), -0.2)


def pooled_adjoint_values():
    """Whole-dataset loss and adjoint gradient, and a 3-update fit's loss."""
    ds = pooled_adjoint_dataset()
    out = {}
    for variant in ModelVariant:
        hp = pooled_adjoint_hyperparameters(variant)
        loss, grad = hyperparameter_gradient(ds, hp, variant)
        fit = fit_hyperparameters(
            ds, variant, FitConfig(batch_size=10, rng_seed=3, latent_dim=4)
        )
        out[variant.value] = {
            "loss": loss,
            "gradient": grad.tolist(),
            "train_loss": fit.train_loss,
        }
    return out


def test_pooled_adjoint_matches_per_record_reference():
    # The reference was recorded from the per-record adjoint engine that
    # the pooled one replaced; every batch holds 5 records per pipeline.
    reference = json.loads(POOLED_REFERENCE.read_text())
    values = pooled_adjoint_values()
    assert sorted(values) == sorted(reference)
    for name, ref in reference.items():
        got = values[name]
        assert abs(got["loss"] - ref["loss"]) <= 1e-12, name
        assert abs(got["train_loss"] - ref["train_loss"]) <= 1e-12, name
        np.testing.assert_allclose(
            got["gradient"], ref["gradient"], rtol=1e-10, atol=0, err_msg=name
        )


def scalar_simultaneous(hp, pipeline, n_steps=100):
    """The simultaneous variant's ascent, one scalar step at a time: each
    step adds the mean of the stage objectives' latent gradients."""
    w = np.full(hp.latent_dim, hp.w0)
    for _ in range(n_steps):
        grad = np.zeros_like(w)
        for stage in pipeline.stages:
            grad += stage_objective(hp, w, stage).grad_w
        w = w + grad / len(pipeline.stages)
    return w


def scalar_weights(hp, pipeline, variant):
    """Reference latent weights from latent's scalar simulator."""
    if variant is ModelVariant.SIMULTANEOUS:
        return scalar_simultaneous(hp, pipeline)
    if variant is ModelVariant.MEMORYLESS:
        pipeline = TrainingPipeline(pipeline.id, pipeline.stages[-1:])
    return simulate_pipeline(hp, pipeline)


def test_engine_matches_scalar_reference_for_every_variant():
    ds = pooled_adjoint_dataset()
    first = ds.records[0]
    swapped = PreferenceRecord(
        first.pipeline_id,
        first.object_b,
        first.object_a,
        first.count_b,
        first.count_a,
        first.count_none,
        first.episodes,
    )
    # A strict subset that repeats pipelines, plus a duplicate record and a
    # pair out of canonical order; a Dataset would hold neither of those.
    records = [*ds.records[::2], first, swapped]
    assert len(ds.records[::2]) < len(ds.records)
    for variant in ModelVariant:
        hp = pooled_adjoint_hyperparameters(variant)
        weights = {
            pid: scalar_weights(hp, pipe, variant) for pid, pipe in ds.pipelines.items()
        }
        for pid, pipe in ds.pipelines.items():
            np.testing.assert_allclose(
                simulate_variant(hp, pipe, variant),
                weights[pid],
                rtol=0,
                atol=1e-12,
                err_msg=f"{variant.value} {pid}",
            )
        expected = [
            predict_preferences(hp, weights[r.pipeline_id], r.object_a, r.object_b)
            for r in records
        ]
        got = predicted_distributions(hp, ds, records, variant)
        np.testing.assert_allclose(
            [p.as_tuple() for p in got],
            [p.as_tuple() for p in expected],
            rtol=0,
            atol=1e-12,
            err_msg=variant.value,
        )
        expected_loss = np.mean(
            [
                kl_divergence(
                    np.array(record_to_distribution(r).as_tuple()),
                    np.array(p.as_tuple()),
                )
                for r, p in zip(records, expected)
            ]
        )
        loss = modelling_loss(hp, ds, records, variant)
        assert abs(loss - expected_loss) <= 1e-12, variant


def test_mismatched_hyperparameter_variant_is_rejected():
    ds = pooled_adjoint_dataset()
    full = pooled_adjoint_hyperparameters(ModelVariant.FULL)
    diagonal = pooled_adjoint_hyperparameters(ModelVariant.DIAGONAL)
    pipeline = ds.pipelines["p3"]
    mismatches = [
        (full, ModelVariant.DIAGONAL),
        (full, ModelVariant.QUADRATIC),
        (diagonal, ModelVariant.FULL),
        (diagonal, ModelVariant.SIMULTANEOUS),
    ]
    for hp, variant in mismatches:
        calls = [
            lambda: predicted_distributions(hp, ds, variant=variant),
            lambda: modelling_loss(hp, ds, variant=variant),
            lambda: simulate_variant(hp, pipeline, variant),
            lambda: hyperparameter_gradient(ds, hp, variant),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="variant"):
                call()


def test_memoryless_ignores_earlier_stages():
    hp = identity_hyperparameters(log_tau=math.log(0.8), w0=-0.2)
    tail = (TrainingStage(BP, RR),)
    p1 = TrainingPipeline("a", (TrainingStage(RC),) + tail)
    p2 = TrainingPipeline("b", (TrainingStage(BD),) + tail)
    w1 = simulate_variant(hp, p1, ModelVariant.MEMORYLESS)
    w2 = simulate_variant(hp, p2, ModelVariant.MEMORYLESS)
    assert (w1 == w2).all()


def test_simultaneous_invariant_to_stage_order():
    hp = identity_hyperparameters(log_tau=math.log(0.8), w0=-0.2)
    stages = (TrainingStage(RC), TrainingStage(BD, RR), TrainingStage(BP))
    fwd = simulate_variant(
        hp, TrainingPipeline("a", stages), ModelVariant.SIMULTANEOUS
    )
    rev = simulate_variant(
        hp, TrainingPipeline("b", stages[::-1]), ModelVariant.SIMULTANEOUS
    )
    assert fwd == pytest.approx(rev, abs=1e-12)


def test_sequential_is_order_sensitive():
    hp = identity_hyperparameters(log_tau=math.log(0.8))
    stages = (TrainingStage(RC), TrainingStage(RR))
    fwd = simulate_variant(hp, TrainingPipeline("a", stages), ModelVariant.FULL)
    rev = simulate_variant(hp, TrainingPipeline("b", stages[::-1]), ModelVariant.FULL)
    assert not np.allclose(fwd, rev)


def test_zero_epoch_fit_returns_initialisation():
    ds, _ = synthetic_dataset(seed=1, n_pipelines=4, n_records=12)
    result = fit_hyperparameters(ds, config=FitConfig(epochs=0))
    hp = result.hyperparameters
    assert hp.saliency == pytest.approx(np.eye(10))
    assert hp.log_tau == 0.0
    assert hp.w0 == 0.0
    assert result.train_loss == pytest.approx(result.per_example_losses.mean())


def test_fit_is_deterministic():
    ds, _ = synthetic_dataset(seed=2, n_pipelines=4, n_records=24)
    config = FitConfig(epochs=2, rng_seed=5)
    r1 = fit_hyperparameters(ds, config=config)
    r2 = fit_hyperparameters(ds, config=config)
    assert r1.hyperparameters.saliency.tobytes() == r2.hyperparameters.saliency.tobytes()
    assert r1.hyperparameters.log_tau == r2.hyperparameters.log_tau
    assert r1.train_loss == r2.train_loss


def test_fit_records_loss_and_gradient_norm_trajectories():
    ds, _ = synthetic_dataset(seed=2, n_pipelines=4, n_records=24)
    result = fit_hyperparameters(ds, config=FitConfig(epochs=2, batch_size=10))
    diag = result.diagnostics
    assert diag["n_updates"] == 6
    for key in ("loss_trajectory", "gradient_norm_trajectory"):
        assert len(diag[key]) == 6
        assert all(isinstance(x, float) and math.isfinite(x) for x in diag[key])
    assert diag["final_gradient_norm"] == diag["gradient_norm_trajectory"][-1]


def test_negative_epochs_error_names_epochs():
    with pytest.raises(ValidationError, match="epochs"):
        FitConfig(epochs=-1)


def test_fit_reduces_loss_from_initialisation():
    ds, _ = synthetic_dataset(seed=3, n_pipelines=6, n_records=60)
    init_loss = modelling_loss(identity_hyperparameters(), ds)
    result = fit_hyperparameters(ds, config=FitConfig(epochs=10, rng_seed=0))
    assert result.train_loss < init_loss


def test_upper_triangular_pattern_after_fit():
    ds, _ = synthetic_dataset(seed=4, n_pipelines=4, n_records=30)
    result = fit_hyperparameters(ds, config=FitConfig(epochs=2))
    s = result.hyperparameters.saliency
    rows, cols = np.tril_indices(10, k=-1)
    assert np.all(s[rows, cols] == 0.0)


def test_finite_difference_mode_fit_runs():
    ds, _ = synthetic_dataset(seed=5, n_pipelines=3, n_records=6)
    config = FitConfig(epochs=1, gradient_mode="finite_difference", latent_dim=2)
    result = fit_hyperparameters(ds, config=config)
    assert math.isfinite(result.train_loss)


def test_fit_aborts_on_divergence():
    ds, _ = synthetic_dataset(seed=6, n_pipelines=4, n_records=40)
    config = FitConfig(epochs=40, learning_rate=1e150)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError):
            fit_hyperparameters(ds, config=config)


def test_modelling_loss_zero_on_exact_match():
    # all-zero saliency predicts uniform thirds; counts (1,1,1) match exactly
    hp = LpgHyperparameters(np.zeros((10, 10)))
    pipes = {"p": TrainingPipeline("p", (TrainingStage(RC),))}
    rec = PreferenceRecord("p", RC, BD, 1, 1, 1, 3)
    ds = Dataset(pipes, (rec,))
    assert modelling_loss(hp, ds) == pytest.approx(0.0, abs=1e-12)


def test_baseline_uniform_values():
    pipes = {"p": TrainingPipeline("p", (TrainingStage(RC),))}
    uniform_rec = PreferenceRecord("p", RC, BD, 1, 1, 1, 3)
    assert baseline_uniform([uniform_rec]) == pytest.approx(0.0, abs=1e-12)
    deterministic = PreferenceRecord("p", RC, BD, 100, 0, 0, 100)
    assert baseline_uniform([deterministic]) == pytest.approx(math.log(3))


def test_uniform_loss_is_log3_for_deterministic_records():
    rec = PreferenceRecord("p", RC, BD, 100, 0, 0, 100)
    assert baseline_uniform([rec, rec.canonical()][:1]) == pytest.approx(math.log(3))


def test_lower_bound_single_record_agent():
    pipes = {"p": TrainingPipeline("p", (TrainingStage(RC),))}
    rec = PreferenceRecord("p", RC, BD, 50, 30, 20, 100)
    ds = Dataset(pipes, (rec,))
    assert lower_bound_per_goal(ds) < 1e-6


def test_lower_bound_nonconvergence_reported():
    ds, _ = synthetic_dataset(seed=16, n_pipelines=4, n_records=24)
    with pytest.raises(NumericalError, match="converge"):
        lower_bound_per_goal(ds, max_iterations=1)


def test_lower_bound_nesting(rng):
    ds, _ = synthetic_dataset(seed=7, n_pipelines=6, n_records=60)
    per_goal = lower_bound_per_goal(ds)
    per_feature = lower_bound_per_feature(ds)
    fitted = fit_hyperparameters(ds, config=FitConfig(epochs=15, rng_seed=0))
    assert per_goal <= per_feature + 1e-9
    assert per_feature <= fitted.train_loss + 1e-9


def test_diagonal_generator_parity():
    # data from a diagonal generator: the diagonal fit should match the
    # full fit to within 0.005 loss
    gen = LpgHyperparameters(
        np.diag(np.linspace(1.0, 2.0, 10)),
        math.log(0.8),
        -0.2,
        SaliencyVariant.DIAGONAL,
    )
    rng = np.random.default_rng(11)
    pipelines = random_pipelines(rng, 8, with_distractors=False)
    records = sample_records(rng, gen, pipelines, 120, episodes=2000)
    ds = Dataset(pipelines, tuple(records))
    cfg = FitConfig(epochs=30, rng_seed=0)
    full = fit_hyperparameters(ds, ModelVariant.FULL, cfg)
    diag = fit_hyperparameters(ds, ModelVariant.DIAGONAL, cfg)
    assert abs(diag.train_loss - full.train_loss) < 0.005


def test_latent_dim_sweep_rank4_generator():
    rng = np.random.default_rng(13)
    s = np.zeros((10, 4))
    s[np.arange(4), np.arange(4)] = rng.uniform(1.2, 1.8, 4)
    rows, cols = np.triu_indices(10, k=1)
    keep = cols < 4
    s[rows[keep], cols[keep]] = rng.normal(0, 0.25, keep.sum())
    gen = LpgHyperparameters(np.triu(s), math.log(0.8), -0.2)
    pipelines = random_pipelines(rng, 8, with_distractors=False)
    records = sample_records(rng, gen, pipelines, 120, episodes=2000)
    ds = Dataset(pipelines, tuple(records))
    cfg = FitConfig(epochs=25, rng_seed=0)
    losses = dict(latent_dim_sweep(ds, [1, 2, 4, 10], cfg))
    assert losses[10] <= losses[1] + 1e-6
    assert losses[2] <= losses[1] + 1e-3
    assert losses[4] <= losses[2] + 1e-3
    assert losses[4] < losses[1]
    # rank saturated: widening past the generator rank barely helps
    assert abs(losses[10] - losses[4]) < 0.01


def test_default_latent_dim_is_ten():
    assert FitConfig().latent_dim == 10


def test_fit_rejects_empty_dataset():
    with pytest.raises(ValidationError):
        fit_hyperparameters(Dataset({}, ()), config=FitConfig())


def test_config_validation():
    with pytest.raises(ValidationError):
        FitConfig(learning_rate=-1.0)
    with pytest.raises(ValidationError):
        FitConfig(adam_beta1=1.5)
    with pytest.raises(ValidationError):
        FitConfig(gradient_mode="exact")

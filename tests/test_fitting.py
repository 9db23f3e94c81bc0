import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    GOALS,
    PAIRS,
    population_dataset,
    random_pipelines,
    sample_records,
    synthetic_dataset,
)
from goalgen import fitting
from goalgen.dataset import (
    Dataset,
    PreferenceRecord,
    TrainingPipeline,
    TrainingStage,
    observed_rates,
)
from goalgen.errors import NumericalError, ValidationError
from goalgen.features import (
    Colour,
    ObjectFeatures,
    Shape,
    encode_features,
    enumerate_objects,
    object_index,
)
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
    goal_value,
    identity_hyperparameters,
    predict_preferences,
    simulate_pipeline,
    stage_objective,
)
from goalgen.metrics import kl_divergence
from goalgen.selfcheck import fd_gradient

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


# Every variant at d = 10, and non-square S at d = 1 and 24.
ADJOINT_CASES = [(variant, 10) for variant in ModelVariant] + [
    (variant, d)
    for variant in (ModelVariant.FULL, ModelVariant.MEMORYLESS, ModelVariant.SIMULTANEOUS)
    for d in (1, 24)
]


def adjoint_fd_error(ds, hp, variant):
    """Worst relative error of the adjoint gradient against selfcheck's
    finite differences."""
    _, adjoint = hyperparameter_gradient(ds, hp, variant)
    fd = fd_gradient(ds, hp, variant)
    return (
        np.abs(adjoint - fd) / np.maximum(np.maximum(np.abs(adjoint), np.abs(fd)), 1e-6)
    ).max()


def test_adjoint_matches_fd_for_every_variant(rng):
    ds = small_dataset(rng)
    for variant, space_dim in ADJOINT_CASES:
        hp_seed = np.random.default_rng(99)
        if variant is ModelVariant.QUADRATIC:
            hp = LpgHyperparameters(
                1.0 + 0.1 * hp_seed.normal(size=65),
                0.1,
                -0.1,
                SaliencyVariant.QUADRATIC,
            )
        else:
            noise = 0.1 * hp_seed.normal(size=(10, space_dim))
            s = np.triu(np.eye(10, space_dim) + noise)
            structural = (
                SaliencyVariant.DIAGONAL
                if variant is ModelVariant.DIAGONAL
                else SaliencyVariant.FULL
            )
            if structural is SaliencyVariant.DIAGONAL:
                s = np.diag(np.diag(s))
            hp = LpgHyperparameters(s, 0.1, -0.1, structural)
        assert adjoint_fd_error(ds, hp, variant) < 1e-3, (variant, space_dim)


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


def assert_engine_matches_scalar(ds, records, variant, hp):
    """simulate_variant, predicted_distributions and modelling_loss against
    latent's scalar simulator, at 1e-12."""
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
            kl_divergence(q, np.array(p.as_tuple()))
            for q, p in zip(observed_rates(records), expected)
        ]
    )
    loss = modelling_loss(hp, ds, records, variant)
    assert abs(loss - expected_loss) <= 1e-12, variant


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
        assert_engine_matches_scalar(ds, records, variant, hp)


def mixed_stage_dataset(stage_counts=(4, 5, 6), records_each=4):
    """Pipelines of ``stage_counts`` stages with a distractor in every
    other stage, the desk-train shape, and ``records_each`` records each."""
    rng = np.random.default_rng(12)
    pipelines, records = {}, []
    for i, n_stages in enumerate(stage_counts):
        stages = []
        for t in range(n_stages):
            goal = GOALS[rng.integers(len(GOALS))]
            distractor = None
            while t % 2 and distractor in (None, goal):
                distractor = OBJECTS[rng.integers(24)]
            stages.append(TrainingStage(goal, distractor))
        pid = f"m{i:02d}-{n_stages}"
        pipelines[pid] = TrainingPipeline(pid, tuple(stages))
        for j in rng.choice(len(PAIRS), size=records_each, replace=False):
            counts = rng.multinomial(60, rng.dirichlet([2.0, 2.0, 1.0]))
            records.append(PreferenceRecord(pid, *PAIRS[j], *map(int, counts), 60))
    return Dataset(pipelines, tuple(records))


def test_engine_matches_scalar_reference_on_mixed_distractor_stages():
    ds = mixed_stage_dataset()
    for variant in ModelVariant:
        hp = pooled_adjoint_hyperparameters(variant)
        assert_engine_matches_scalar(ds, list(ds.records), variant, hp)


@pytest.mark.parametrize(
    "variant", [ModelVariant.FULL, ModelVariant.SIMULTANEOUS], ids=lambda v: v.value
)
def test_adjoint_matches_fd_on_mixed_distractor_stages(variant):
    hp = pooled_adjoint_hyperparameters(variant)
    assert adjoint_fd_error(mixed_stage_dataset(), hp, variant) < 1e-3


def test_simultaneous_fit_memory_is_bounded(monkeypatch):
    # 40 pipelines of 1-6 stages and 2,000 records. Built for all 100 steps
    # at once, a simultaneous block's (2T, 2T) step matrices took this fit
    # to 7.5 MB; the adjoint builds them in chunks of steps.
    ds = mixed_stage_dataset(stage_counts=[*range(1, 7)] * 6 + [1, 2, 3, 4], records_each=50)
    tracemalloc.start()
    try:
        chunked = fit_hyperparameters(ds, ModelVariant.SIMULTANEOUS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.2 * 2**20
    # One chunk per block builds every step at once; the chunks change no bit.
    monkeypatch.setattr(fitting, "_STEP_MATRIX_ENTRIES", 2**40)
    whole = fit_hyperparameters(ds, ModelVariant.SIMULTANEOUS)
    got, want = chunked.hyperparameters, whole.hyperparameters
    assert got.matrix().tolist() == want.matrix().tolist()
    assert (got.log_tau, got.w0) == (want.log_tau, want.w0)
    assert chunked.per_example_losses.tolist() == whole.per_example_losses.tolist()
    for key in ("loss_trajectory", "gradient_norm_trajectory"):
        assert chunked.diagnostics[key] == whole.diagnostics[key]


def log_space_loss(hp, weights, records):
    """Mean KL of the records under latent's values, in log space, so that
    a prediction that underflows to 0 still gives a finite loss."""
    losses = []
    for q, r in zip(observed_rates(records), records):
        w = weights[r.pipeline_id]
        logits = np.array([goal_value(hp, w, r.object_a), goal_value(hp, w, r.object_b), 0.0])
        logp = logits - np.logaddexp.reduce(logits)
        losses.append(sum(qi * (np.log(qi) - lp) for qi, lp in zip(q, logp) if qi > 0))
    return np.mean(losses)


@pytest.mark.parametrize("w0", [-400.0, 400.0])
def test_saturated_values_stay_finite_and_quiet(w0):
    # With identity saliency every value starts at 2 w0 (5 w0 for the
    # quadratic basis), so |lr| passes 710, where cosh overflows.
    ds = mixed_stage_dataset()
    records = list(ds.records)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variant in ModelVariant:
            hp = identity_hyperparameters(fitting.structural_variant(variant), w0=w0)
            weights = {
                pid: scalar_weights(hp, pipe, variant)
                for pid, pipe in ds.pipelines.items()
            }
            for pid, pipe in ds.pipelines.items():
                w = simulate_variant(hp, pipe, variant)
                np.testing.assert_allclose(w, weights[pid], rtol=1e-12, atol=0)
            loss = modelling_loss(hp, ds, records, variant)
            assert np.isfinite(loss)
            assert loss == pytest.approx(log_space_loss(hp, weights, records), rel=1e-12)
            assert np.all(np.isfinite(hyperparameter_gradient(ds, hp, variant)[1]))


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


def test_fit_aborts_on_divergence():
    ds, _ = synthetic_dataset(seed=6, n_pipelines=4, n_records=40)
    config = FitConfig(epochs=40, learning_rate=1e150)
    # The fit keeps its own float warnings quiet.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            fit_hyperparameters(ds, config=config)


def test_gradient_rejects_non_finite_values():
    ds, _ = synthetic_dataset(seed=6, n_pipelines=4, n_records=40)
    hp = LpgHyperparameters(1e200 * np.eye(10), 0.0, 1.0)
    with pytest.raises(NumericalError, match="non-finite loss or gradient"):
        hyperparameter_gradient(ds, hp)


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
    uniform = observed_rates([uniform_rec])
    assert baseline_uniform(uniform) == pytest.approx(0.0, abs=1e-12)
    deterministic = observed_rates([PreferenceRecord("p", RC, BD, 100, 0, 0, 100)])
    assert baseline_uniform(deterministic) == pytest.approx(math.log(3))
    with pytest.raises(ValidationError, match="no preference records"):
        baseline_uniform(observed_rates([]))


def test_uniform_loss_is_log3_for_deterministic_records():
    rec = PreferenceRecord("p", RC, BD, 100, 0, 0, 100)
    rates = observed_rates([rec, rec.canonical()][:1])
    assert baseline_uniform(rates) == pytest.approx(math.log(3))


def test_lower_bound_single_record_agent():
    pipes = {"p": TrainingPipeline("p", (TrainingStage(RC),))}
    rec = PreferenceRecord("p", RC, BD, 50, 30, 20, 100)
    ds = Dataset(pipes, (rec,))
    assert lower_bound_per_goal(ds) < 1e-6


def test_pipeline_ids_that_differ_by_a_trailing_nul_are_two_agents():
    # A numpy string array drops trailing NULs, which merged these two
    # agents into one, so the floor fitted their opposite tallies jointly.
    pipes = {pid: TrainingPipeline(pid, (TrainingStage(RC),)) for pid in ("a", "a\x00")}
    records = (
        PreferenceRecord("a", RC, BD, 10, 0, 0, 10),
        PreferenceRecord("a\x00", RC, BD, 0, 10, 0, 10),
    )
    ds = Dataset(pipes, records)
    assert lower_bound_per_goal(ds) < 1e-6
    assert ds.columns.pipeline_ids == ["a", "a\x00"]


def descent_floor(dataset, per_feature):
    """The floors as plain gradient descent with step 1, the oracle for the
    Newton solve: free per-(agent, object) values, or per-agent values
    linear in the object features."""
    pids = sorted({r.pipeline_id for r in dataset.records})
    aid = np.array([pids.index(r.pipeline_id) for r in dataset.records])
    p_hat = observed_rates(dataset.records)
    rec_scale = 1.0 / np.bincount(aid)[aid]
    if per_feature:
        fa = np.stack([encode_features(r.object_a) for r in dataset.records])
        fb = np.stack([encode_features(r.object_b) for r in dataset.records])
        values = np.zeros((len(pids), 10))
    else:
        ia = aid * 24 + np.array([object_index(r.object_a) for r in dataset.records])
        ib = aid * 24 + np.array([object_index(r.object_b) for r in dataset.records])
        values = np.zeros(len(pids) * 24)

    def logits():
        if per_feature:
            va, vb = (fa * values[aid]).sum(axis=1), (fb * values[aid]).sum(axis=1)
        else:
            va, vb = values[ia], values[ib]
        return np.stack([va, vb, np.zeros(len(aid))], axis=1)

    for _ in range(50_000):
        p = np.exp(logits())
        p /= p.sum(axis=1, keepdims=True)
        resid = (p - p_hat) * rec_scale[:, None]
        if per_feature:
            grad = np.zeros_like(values)
            np.add.at(grad, aid, resid[:, 0:1] * fa + resid[:, 1:2] * fb)
        else:
            grad = np.bincount(ia, resid[:, 0], values.size) + np.bincount(
                ib, resid[:, 1], values.size
            )
        values = values - grad
        if np.abs(grad).max() < 1e-8:
            break
    else:
        raise AssertionError("descent oracle did not converge")
    p = np.exp(logits())
    p /= p.sum(axis=1, keepdims=True)
    return float(np.mean([kl_divergence(o, q) for o, q in zip(p_hat, p)]))


FLOOR_ENCODINGS = {"goal": fitting._GOAL_COLUMNS, "feature": fitting._FEATURE_COLUMNS}


def interleaved(dataset):
    """The dataset's records dealt round-robin across its agents."""
    groups = [dataset.records_for(pid) for pid in sorted(dataset.pipelines)]
    return Dataset(dataset.pipelines, tuple(r for deal in zip(*groups) for r in deal))


@pytest.mark.parametrize("mode", ["goal", "feature"])
@pytest.mark.parametrize(
    "dataset",
    [
        lambda: synthetic_dataset(seed=7, n_pipelines=6, n_records=60)[0],
        lambda: synthetic_dataset(seed=16, n_pipelines=4, n_records=24)[0],
        lambda: population_dataset(1, 4, 100),
        lambda: interleaved(population_dataset(2, 3, 100)),
    ],
    ids=["seed7", "seed16", "population1", "interleaved"],
)
def test_newton_floor_matches_descent_oracle(dataset, mode):
    ds = dataset()
    floor, steps = fitting._lower_bound(ds, FLOOR_ENCODINGS[mode])
    assert floor == pytest.approx(descent_floor(ds, mode == "feature"), abs=1e-12)
    assert steps <= 25


@pytest.mark.parametrize("mode", ["goal", "feature"])
@pytest.mark.parametrize(
    "dataset",
    [
        lambda: Dataset(
            {"p": TrainingPipeline("p", (TrainingStage(RC),))},
            (PreferenceRecord("p", RC, BD, 100, 0, 0, 100),),
        ),
        lambda: synthetic_dataset(seed=3, n_pipelines=5, n_records=200, episodes=3)[0],
    ],
    ids=["deterministic-record", "sparse-tallies"],
)
def test_floor_converges_on_separable_tallies(dataset, mode):
    # Zero outcomes put some optima at infinity; the solve still stops on
    # its gradient test, with a finite floor, in a bounded number of steps.
    ds = dataset()
    public = {"goal": lower_bound_per_goal, "feature": lower_bound_per_feature}[mode]
    floor, steps = fitting._lower_bound(ds, FLOOR_ENCODINGS[mode])
    assert public(ds) == floor
    assert math.isfinite(floor) and floor >= 0.0
    assert steps <= 25


@pytest.mark.parametrize(
    "floor, limit",
    [(lower_bound_per_goal, 1.0e6), (lower_bound_per_feature, 0.7e6)],
    ids=["goal", "feature"],
)
def test_floors_sum_by_index_not_dense_features(floor, limit):
    # Dense (R, 2, n) features took these floors to 1.91 and 0.90 MB on this
    # dataset; summed by index, they peak at 0.40 and 0.51 MB.
    ds = population_dataset(1, 4, 100)
    tracemalloc.start()
    try:
        floor(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit


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
    losses = {
        r.hyperparameters.latent_dim: r.train_loss
        for r in latent_dim_sweep(ds, [1, 2, 4, 10], cfg)
    }
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

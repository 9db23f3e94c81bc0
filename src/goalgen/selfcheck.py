"""Numerical self-tests behind the `check` subcommand.

Each check prints one pass/fail line; the suite passes only if every
check does. The oracles return their worst error for a given generator
and draw count; the acceptance tests call the same functions with their
own generators and compare the errors with the same tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset, PreferenceRecord, TrainingPipeline, TrainingStage
from .features import enumerate_objects
from .fitting import (
    FitConfig,
    ModelVariant,
    _ParamSpace,
    hyperparameter_gradient,
    modelling_loss,
    predicted_distributions,
    simulate_variant,
    structural_variant,
)
from .latent import (
    DEFAULT_INTEGRATION_STEPS,
    N_EXPANDED,
    LpgHyperparameters,
    SaliencyVariant,
    equilibrium_projection,
    identity_hyperparameters,
    predict_preferences,
    simulate_pipeline,
    stage_objective,
)
from .metrics import brier_score, kl_divergence, total_variation


def _random_hyperparameters(rng, fitted_scale: bool = False) -> LpgHyperparameters:
    if fitted_scale:
        s = np.triu(rng.uniform(-0.2, 0.2, (10, 10)))
        np.fill_diagonal(s, rng.uniform(1.0, 2.0, 10))
        log_tau = math.log(rng.uniform(0.6, 0.9))
        w0 = rng.uniform(-0.5, 0.0)
    else:
        s = np.triu(rng.normal(0.0, 0.5, (10, 10)))
        log_tau = rng.normal(0.0, 0.5)
        w0 = rng.normal(0.0, 0.3)
    return LpgHyperparameters(np.triu(s), log_tau, w0)


def inner_gradient_error(rng: np.random.Generator, n_draws: int) -> float:
    """Worst relative error of the analytic latent gradient against central
    finite differences, over random stages and weights."""
    objects = enumerate_objects()
    h = 1e-5
    worst = 0.0
    for draw in range(n_draws):
        hp = _random_hyperparameters(rng)
        w = rng.normal(0.0, 1.0, 10)
        goal = objects[rng.integers(24)]
        distractor = None
        if draw % 2:
            distractor = objects[rng.integers(24)]
            while distractor == goal:
                distractor = objects[rng.integers(24)]
        stage = TrainingStage(goal, distractor)
        grad = stage_objective(hp, w, stage).grad_w
        fd = np.zeros_like(w)
        for i in range(len(w)):
            up, down = w.copy(), w.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (
                stage_objective(hp, up, stage).j - stage_objective(hp, down, stage).j
            ) / (2 * h)
        denom = max(float(np.abs(fd).max()), 1e-10)
        worst = max(worst, float(np.abs(grad - fd).max()) / denom)
    return worst


def projection_error(rng: np.random.Generator, n_draws: int) -> float:
    """Worst weight-component gap between simulated one- and two-stage
    pipelines and the iterated closed-form projection."""
    objects = enumerate_objects()
    worst = 0.0
    for draw in range(n_draws):
        hp = _random_hyperparameters(rng, fitted_scale=True)
        n_stages = 1 + draw % 2
        goals = []
        while len(goals) < n_stages:
            g = objects[rng.integers(24)]
            if g not in goals:
                goals.append(g)
        pipeline = TrainingPipeline(
            f"chk{draw}", tuple(TrainingStage(g) for g in goals)
        )
        w_sim = simulate_pipeline(hp, pipeline)
        w_proj = np.full(hp.latent_dim, hp.w0)
        for g in goals:
            w_proj = equilibrium_projection(hp, w_proj, g)
        worst = max(worst, float(np.abs(w_sim - w_proj).max()))
    return worst


def _structured(hp: LpgHyperparameters, variant: ModelVariant) -> LpgHyperparameters:
    """Full ``hp`` in ``variant``'s saliency structure: the diagonal variant
    keeps S's diagonal, and the quadratic repeats half of it over its 65
    entries. An object has 5 expanded features against 2, so the whole
    diagonal makes the fitted-scale ascent chaotic (see engine_error)."""
    structure, diagonal = structural_variant(variant), np.diag(hp.saliency)
    s = {
        SaliencyVariant.FULL: hp.saliency,
        SaliencyVariant.DIAGONAL: np.diag(diagonal),
        SaliencyVariant.QUADRATIC: np.resize(diagonal / 2.0, N_EXPANDED),
    }[structure]
    return LpgHyperparameters(s, hp.log_tau, hp.w0, structure)


# Steps per stage of the engine oracle's random-scale draws (see engine_error).
_RANDOM_SCALE_STEPS = 5


def engine_error(rng: np.random.Generator, n_draws: int) -> float:
    """Worst gap between the fit's batch engine and the scalar reference:
    in a weight component, ``simulate_variant`` against
    ``simulate_pipeline``, and in a choice probability,
    ``predicted_distributions`` against ``predict_preferences`` on the
    scalar weights, over records pairing each object with the next.

    Each draw is a random pipeline of 1-3 stages, each stage with a
    distractor or not, under random hyperparameters, at random scale on
    even draws and fitted scale on odd ones. It runs the full, diagonal and
    quadratic variants, and the memoryless variant against the scalar
    simulation of the last stage alone. At random scale the unit-step
    ascent can be chaotic: a last-bit difference grows to O(1) within 100
    steps. So those draws ascend ``_RANDOM_SCALE_STEPS`` steps per stage.
    """
    objects = enumerate_objects()
    pairs = [(a, objects[(i + 1) % len(objects)]) for i, a in enumerate(objects)]
    worst = 0.0
    for draw in range(n_draws):
        stages = []
        for _ in range(1 + draw % 3):
            goal, distractor = (objects[i] for i in rng.choice(24, 2, replace=False))
            stages.append(TrainingStage(goal, distractor if rng.random() < 0.5 else None))
        pipeline = TrainingPipeline(f"engine{draw}", tuple(stages))
        last = TrainingPipeline(pipeline.id, pipeline.stages[-1:])
        records = [PreferenceRecord(pipeline.id, a, b, 1, 1, 1, 3) for a, b in pairs]
        dataset = Dataset({pipeline.id: pipeline}, tuple(records))
        fitted = draw % 2 == 1
        hp = _random_hyperparameters(rng, fitted_scale=fitted)
        n_steps = DEFAULT_INTEGRATION_STEPS if fitted else _RANDOM_SCALE_STEPS
        for variant, reference in (
            (ModelVariant.FULL, pipeline),
            (ModelVariant.DIAGONAL, pipeline),
            (ModelVariant.QUADRATIC, pipeline),
            (ModelVariant.MEMORYLESS, last),
        ):
            variant_hp = _structured(hp, variant)
            config = FitConfig(n_integration_steps=n_steps)
            w = simulate_pipeline(variant_hp, reference, n_steps)
            gap = np.abs(simulate_variant(variant_hp, pipeline, variant, config) - w).max()
            predicted = predicted_distributions(variant_hp, dataset, None, variant, config)
            for p, r in zip(predicted, dataset.records):
                q = predict_preferences(variant_hp, w, r.object_a, r.object_b)
                gap = max(gap, np.abs(np.subtract(p.as_tuple(), q.as_tuple())).max())
            worst = max(worst, float(gap))
    return worst


def fd_gradient(
    dataset: Dataset,
    hp: LpgHyperparameters,
    variant: ModelVariant = ModelVariant.FULL,
) -> np.ndarray:
    """Central finite differences of the mean modelling loss, in the flat
    order of ``hyperparameter_gradient``: the oracle for the adjoint."""
    space = _ParamSpace(variant, hp.latent_dim)
    theta = space.pack(hp)
    h = 1e-4

    def loss(x):
        return modelling_loss(space.hyperparameters(x), dataset, variant=variant)

    free = np.flatnonzero(space.dense_mask())
    grad = np.zeros(len(free))
    for j, i in enumerate(free):
        dx = np.zeros_like(theta)
        dx[i] = h
        grad[j] = (loss(theta + dx) - loss(theta - dx)) / (2.0 * h)
    return grad


def outer_gradient_error(rng: np.random.Generator, n_records: int = 5) -> float:
    """Worst relative error of the adjoint hyperparameter gradient against
    finite differences, on ``n_records`` random records of two pipelines."""
    objects = enumerate_objects()
    pipelines = {
        "a": TrainingPipeline("a", (TrainingStage(objects[5]),)),
        "b": TrainingPipeline(
            "b", (TrainingStage(objects[1]), TrainingStage(objects[19], objects[7]))
        ),
    }
    records = []
    seen = set()
    while len(records) < n_records:
        pid = "a" if len(records) % 2 else "b"
        x, y = objects[rng.integers(24)], objects[rng.integers(24)]
        if x == y or (pid, frozenset((x, y))) in seen:
            continue
        seen.add((pid, frozenset((x, y))))
        c = rng.multinomial(100, [0.4, 0.35, 0.25])
        records.append(
            PreferenceRecord(pid, x, y, int(c[0]), int(c[1]), int(c[2]), 100)
        )
    dataset = Dataset(pipelines, tuple(records))
    hp = _random_hyperparameters(rng, fitted_scale=True)
    _, adjoint = hyperparameter_gradient(dataset, hp, ModelVariant.FULL)
    fd = fd_gradient(dataset, hp, ModelVariant.FULL)
    rel = np.abs(adjoint - fd) / np.maximum(
        np.maximum(np.abs(adjoint), np.abs(fd)), 1e-6
    )
    return float(rel.max())


def check_equilibrium(tol: float = 1e-3) -> bool:
    """Single-stage identity-saliency training settles at sigma(1)."""
    hp = identity_hyperparameters()
    objects = enumerate_objects()
    stage = TrainingStage(objects[0])
    pipeline = TrainingPipeline("eq", (stage,))
    w = simulate_pipeline(hp, pipeline)
    value = float(hp.encode(objects[0]) @ (hp.matrix() @ w))
    pi = stage_objective(hp, w, stage).pi_goal
    target = 1.0 / (1.0 + math.exp(-1.0))
    return abs(value - 1.0) < tol and abs(pi - target) < tol


def check_metrics() -> bool:
    p = np.array([1.0, 0.0, 0.0])
    u = np.full(3, 1.0 / 3.0)
    return (
        kl_divergence(p, p) == 0.0
        and total_variation(p, p) == 0.0
        and brier_score(p, p) == 0.0
        and abs(total_variation(p, u) - 2.0 / 3.0) < 1e-12
        and abs(brier_score(p, u) - 2.0 / 9.0) < 1e-12
        and abs(kl_divergence(p, u) - math.log(3.0)) < 1e-12
    )


def run_self_checks(seed: int = 0) -> bool:
    """Print one pass/fail line per check, in order; True if all pass. A
    seeded row is (name, oracle, first seed word, draws, tolerance): its
    oracle's worst error on a generator seeded with that word and ``seed``
    must fall below the tolerance."""
    checks = [
        ("inner gradient vs finite differences", inner_gradient_error, 0x696E6E65, 100, 1e-5),
        ("simulation vs closed-form projection", projection_error, 0x70726F6A, 100, 1e-3),
        ("single-stage equilibrium identity", check_equilibrium),
        ("outer adjoint vs finite differences", outer_gradient_error, 0x6F757465, 5, 1e-3),
        ("batch engine vs scalar simulation", engine_error, 0x656E67, 24, 1e-8),
        ("metric identities", check_metrics),
    ]
    all_ok = True
    for name, check, *seeded in checks:
        if seeded:
            word, n_draws, tol = seeded
            ok = check(np.random.default_rng([word, seed]), n_draws) < tol
        else:
            ok = check()
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return all_ok

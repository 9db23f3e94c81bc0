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
from .fitting import FitConfig, ModelVariant, hyperparameter_gradient
from .latent import (
    LpgHyperparameters,
    equilibrium_projection,
    identity_hyperparameters,
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
    _, fd = hyperparameter_gradient(
        dataset, hp, ModelVariant.FULL, FitConfig(gradient_mode="finite_difference")
    )
    rel = np.abs(adjoint - fd) / np.maximum(
        np.maximum(np.abs(adjoint), np.abs(fd)), 1e-6
    )
    return float(rel.max())


def check_inner_gradient(seed: int = 0, n_draws: int = 100, tol: float = 1e-5) -> bool:
    """Analytic latent gradient vs central finite differences."""
    rng = np.random.default_rng([0x696E6E65, seed])
    return inner_gradient_error(rng, n_draws) < tol


def check_projection(seed: int = 0, n_draws: int = 100, tol: float = 1e-3) -> bool:
    """Simulated pipelines land on the iterated closed-form projection."""
    rng = np.random.default_rng([0x70726F6A, seed])
    return projection_error(rng, n_draws) < tol


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


def check_outer_gradient(seed: int = 0, tol: float = 1e-3) -> bool:
    """Adjoint hyperparameter gradients vs central finite differences."""
    rng = np.random.default_rng([0x6F757465, seed])
    return outer_gradient_error(rng) < tol


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
    checks = [
        ("inner gradient vs finite differences", lambda: check_inner_gradient(seed)),
        ("simulation vs closed-form projection", lambda: check_projection(seed)),
        ("single-stage equilibrium identity", check_equilibrium),
        ("outer adjoint vs finite differences", lambda: check_outer_gradient(seed)),
        ("metric identities", check_metrics),
    ]
    all_ok = True
    for name, fn in checks:
        ok = fn()
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return all_ok

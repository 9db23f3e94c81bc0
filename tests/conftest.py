"""Shared synthetic-data builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from goalgen.dataset import (
    Dataset,
    PreferenceRecord,
    TrainingPipeline,
    TrainingStage,
)
from goalgen.features import (
    enumerate_eval_pairs,
    enumerate_objects,
    enumerate_training_goals,
)
from goalgen.latent import LpgHyperparameters, predict_preferences, simulate_pipeline

OBJECTS = enumerate_objects()
PAIRS = enumerate_eval_pairs()
GOALS = enumerate_training_goals()


def random_pipelines(rng, n, with_distractors=True) -> dict[str, TrainingPipeline]:
    """Mixed one- and two-stage pipelines over the training goals."""
    pipes = {}
    for i in range(n):
        stages = [TrainingStage(GOALS[rng.integers(len(GOALS))])]
        if i % 2:
            goal = GOALS[rng.integers(len(GOALS))]
            distractor = None
            if with_distractors and rng.random() < 0.5:
                distractor = OBJECTS[rng.integers(24)]
                while distractor == goal:
                    distractor = OBJECTS[rng.integers(24)]
            stages.append(TrainingStage(goal, distractor))
        pid = f"p{i:03d}"
        pipes[pid] = TrainingPipeline(pid, tuple(stages))
    return pipes


def sample_records(rng, hp: LpgHyperparameters, pipelines, n_records, episodes=1000):
    """Records drawn from the model's own predicted distributions."""
    pids = sorted(pipelines)
    weights = {pid: simulate_pipeline(hp, pipelines[pid]) for pid in pids}
    records = []
    seen = set()
    while len(records) < n_records:
        pid = pids[rng.integers(len(pids))]
        a, b = PAIRS[rng.integers(len(PAIRS))]
        if (pid, a, b) in seen:
            continue
        seen.add((pid, a, b))
        dist = predict_preferences(hp, weights[pid], a, b)
        counts = rng.multinomial(episodes, dist.as_tuple())
        records.append(
            PreferenceRecord(
                pid, a, b, int(counts[0]), int(counts[1]), int(counts[2]), episodes
            )
        )
    return records


def synthetic_dataset(
    seed=0,
    n_pipelines=10,
    n_records=100,
    episodes=1000,
    hp: LpgHyperparameters | None = None,
):
    """Dataset sampled from a known generator; returns (dataset, hp)."""
    rng = np.random.default_rng(seed)
    if hp is None:
        s = np.triu(rng.normal(0.0, 0.15, (10, 10)))
        np.fill_diagonal(s, rng.uniform(1.0, 1.8, 10))
        hp = LpgHyperparameters(np.triu(s), np.log(0.8), -0.3)
    pipelines = random_pipelines(rng, n_pipelines)
    records = sample_records(rng, hp, pipelines, n_records, episodes)
    return Dataset(pipelines, tuple(records)), hp


def population_dataset(seed=0, n_pipelines=4, episodes=100):
    """Every pipeline's agent scored on all 276 pairs, as gen-data does.

    Counts are drawn from the generator of ``synthetic_dataset``.
    """
    _, hp = synthetic_dataset(seed, n_pipelines=1, n_records=1)
    rng = np.random.default_rng([seed, 276])
    pipelines = random_pipelines(rng, n_pipelines)
    records = []
    for pid in sorted(pipelines):
        w = simulate_pipeline(hp, pipelines[pid])
        for a, b in PAIRS:
            counts = rng.multinomial(episodes, predict_preferences(hp, w, a, b).as_tuple())
            records.append(PreferenceRecord(pid, a, b, *map(int, counts), episodes))
    return Dataset(pipelines, tuple(records))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

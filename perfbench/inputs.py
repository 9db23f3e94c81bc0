"""Seeded input generators for the benchmark workloads.

Built on goalgen's public API only. Every generator is a pure function of
its size parameters and an integer seed, so the same seed writes the same
files byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from goalgen import (
    Dataset,
    LpgHyperparameters,
    PreferenceRecord,
    TrainingPipeline,
    TrainingStage,
    enumerate_eval_pairs,
    enumerate_objects,
    enumerate_training_goals,
    predict_preferences,
    simulate_pipeline,
)

OBJECTS = enumerate_objects()
GOALS = enumerate_training_goals()
PAIRS = enumerate_eval_pairs()

# Transfer from single-stage to two-stage agents: the stage-count plan.
TRANSFER_PLAN = {"train": {"stage_count": 1}, "eval": {"stage_count": 2}}


def _stage(rng: np.random.Generator, with_distractor: bool) -> TrainingStage:
    goal = GOALS[rng.integers(len(GOALS))]
    distractor = None
    if with_distractor:
        distractor = OBJECTS[rng.integers(len(OBJECTS))]
        while distractor == goal:
            distractor = OBJECTS[rng.integers(len(OBJECTS))]
    return TrainingStage(goal, distractor)


def _pipeline(rng, pid: str, n_stages: int, distractor_stages: set[int]):
    stages = tuple(_stage(rng, i in distractor_stages) for i in range(n_stages))
    return TrainingPipeline(pid, stages)


def desk_pipelines(seed: int) -> dict[str, TrainingPipeline]:
    """Three agents: one stage, two stages, two stages with a distractor."""
    rng = np.random.default_rng([0x6465736B, seed])
    return {
        "single": _pipeline(rng, "single", 1, set()),
        "double": _pipeline(rng, "double", 2, set()),
        "double_distractor": _pipeline(rng, "double_distractor", 2, {1}),
    }


def train_pipelines(seed: int, n_stages: int) -> dict[str, TrainingPipeline]:
    """One agent with a long pipeline; every other stage has a distractor."""
    rng = np.random.default_rng([0x74726E, seed])
    return {"long": _pipeline(rng, "long", n_stages, set(range(1, n_stages, 2)))}


def generator_hyperparameters() -> LpgHyperparameters:
    """The fixed latent generator behind every population workload."""
    rng = np.random.default_rng(0x6C6174)
    s = np.triu(rng.normal(0.0, 0.15, (10, 10)))
    np.fill_diagonal(s, rng.uniform(1.0, 1.8, 10))
    return LpgHyperparameters(s, np.log(0.8), -0.3)


def population_dataset(seed: int, n_pipelines: int, episodes: int) -> Dataset:
    """Desk-shaped synthetic population covering all 276 pairs per agent.

    Pipelines cycle through the four shapes (1 or 2 stages, with or
    without a distractor in the last stage); counts are multinomial draws
    from the fixed generator's predicted distributions.
    """
    rng = np.random.default_rng([0x706F70, seed])
    hp = generator_hyperparameters()
    pipelines = {}
    for i in range(n_pipelines):
        n_stages = 1 + i % 2
        distractors = {n_stages - 1} if (i // 2) % 2 else set()
        pid = f"p{i:02d}"
        pipelines[pid] = _pipeline(rng, pid, n_stages, distractors)
    records = []
    for pid, pipeline in pipelines.items():
        w = simulate_pipeline(hp, pipeline)
        for a, b in PAIRS:
            dist = predict_preferences(hp, w, a, b)
            counts = rng.multinomial(episodes, dist.as_tuple())
            records.append(
                PreferenceRecord(
                    pid, a, b, int(counts[0]), int(counts[1]), int(counts[2]), episodes
                )
            )
    return Dataset(pipelines, tuple(records))


def _object_json(obj):
    if obj is None:
        return None
    return {"colour": obj.colour.value, "shape": obj.shape.value}


def write_pipelines(pipelines: dict[str, TrainingPipeline], path: Path) -> None:
    doc = {
        "pipelines": {
            pid: [
                {"goal": _object_json(s.goal), "distractor": _object_json(s.distractor)}
                for s in pipe.stages
            ]
            for pid, pipe in pipelines.items()
        }
    }
    path.write_text(json.dumps(doc) + "\n")


def write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")

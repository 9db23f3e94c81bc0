"""Shared synthetic-data builders for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from goalgen.agent import _MOVE_DELTAS, _increments, _train_episode
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
from goalgen.maze import (
    GOAL_REWARD,
    HORIZON,
    N_OBSERVATION_FEATURES,
    STEP_PENALTY,
    _vacant_bits,
    distance_field,
    generate_maze,
)

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


def steer_weights(obj, closer: float, farther: float) -> list[float]:
    """Policy weights that add ``2 * closer`` to an action's score when the
    move goes strictly closer to ``obj`` and ``2 * farther`` when it goes
    strictly farther; a blocked move scores 0.

    At +-400 every exp of the softmax but the top action's underflows to 0,
    so the policy is deterministic wherever one action scores highest.
    """
    weights = [0.0] * 20
    for i in obj.feature_indices():
        weights[i] = closer
        weights[10 + i] = farther
    return weights


def scalar_episode(
    walls_rows: list,
    dist_rows: list,
    obj_feature_idx: list[tuple[int, int]],
    obj_cells: list[tuple[int, int]],
    start: tuple[int, int],
    weights: list[float],
    rng: np.random.Generator,
) -> tuple[int, float, list[float]]:
    """The scalar episode loop over distance fields: the oracle of the
    training episode and of the lockstep evaluation walk.

    Each move goes up, down, left or right; a wall or the edge leaves the
    agent in place. An action scores the closer (or farther) weight sum of
    every object its move brings strictly closer (or farther) by BFS
    distance. Reaching object 0 pays GOAL_REWARD, any other object or move
    STEP_PENALTY; no object within HORIZON moves ends the episode.

    Returns (outcome index or -1 for none, total return, summed
    score-function gradient).
    """
    size = len(walls_rows)
    n_obj = len(obj_cells)
    closer_w = [weights[ci] + weights[si] for ci, si in obj_feature_idx]
    farther_w = [weights[10 + ci] + weights[10 + si] for ci, si in obj_feature_idx]

    grad = [0.0] * N_OBSERVATION_FEATURES
    r, c = start
    total = 0.0
    steps = 0
    random = rng.random

    while True:
        next_cells = []
        logits = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if nr < 0 or nr >= size or nc < 0 or nc >= size or walls_rows[nr][nc]:
                nr, nc = r, c
            score = 0.0
            for o in range(n_obj):
                d = dist_rows[o]
                d0, d1 = d[r][c], d[nr][nc]
                if d1 < d0:
                    score += closer_w[o]
                elif d1 > d0:
                    score += farther_w[o]
            next_cells.append((nr, nc))
            logits.append(score)

        m = max(logits)
        exps = [math.exp(x - m) for x in logits]
        z = exps[0] + exps[1] + exps[2] + exps[3]
        probs = [e / z for e in exps]

        u = random()
        acc = 0.0
        action = 3
        for a in range(4):
            acc += probs[a]
            if u < acc:
                action = a
                break

        for a in range(4):
            coeff = (1.0 if a == action else 0.0) - probs[a]
            if coeff == 0.0:
                continue
            nr, nc = next_cells[a]
            for o in range(n_obj):
                d = dist_rows[o]
                d0, d1 = d[r][c], d[nr][nc]
                if d1 < d0:
                    ci, si = obj_feature_idx[o]
                    grad[ci] += coeff
                    grad[si] += coeff
                elif d1 > d0:
                    ci, si = obj_feature_idx[o]
                    grad[10 + ci] += coeff
                    grad[10 + si] += coeff

        r, c = next_cells[action]
        steps += 1
        pos = (r, c)
        if pos in obj_cells:
            idx = obj_cells.index(pos)
            total += GOAL_REWARD if idx == 0 else STEP_PENALTY
            return idx, total, grad
        total += STEP_PENALTY
        if steps >= HORIZON:
            return -1, total, grad


def maze_tables(grid) -> tuple[list, list, list, list]:
    """``scalar_episode``'s walls, distance fields, feature indices and cells."""
    walls_rows = grid.walls.tolist()
    dist_rows = [
        distance_field(grid.walls, cell).tolist() for cell in grid.object_cells
    ]
    feature_idx = [obj.feature_indices() for obj in grid.objects]
    return walls_rows, dist_rows, feature_idx, grid.object_cells


def run_episode(grid, weights, seed=0):
    """One ``scalar_episode`` on ``grid``: (outcome, return, gradient).

    It also runs ``agent._train_episode`` on the same maze and uniforms
    and requires the same return and gradient.
    """
    outcome, ret, grad = scalar_episode(
        *maze_tables(grid), grid.agent_pos, list(weights), np.random.default_rng(seed)
    )
    size = grid.walls.shape[0]
    cells = [r * size + c for r, c in [*grid.object_cells, grid.agent_pos]]
    increments = _increments([obj.feature_indices() for obj in grid.objects])
    trained = _train_episode(
        _vacant_bits(grid.walls),
        cells,
        increments,
        list(weights),
        np.random.default_rng(seed).random,
    )
    assert trained == (ret, grad)
    return outcome, ret, grad


def scalar_maze_pass(mazes, keys, pairs, rng_seed, wall_prob):
    """The per-maze build of a pass's evaluation tables: the oracle of
    ``agent._maze_pass``.

    Each maze comes from ``generate_maze`` on its own Generator, then two
    ``distance_field`` calls; ``pairs[p]`` are pair p's objects in canonical
    order. Returns the start cells, move codes, object at each cell and
    uniforms as ``agent._maze_pass`` does.
    """
    size, n_mazes = 8, len(mazes)
    dist = np.empty((n_mazes, 2, size, size), dtype=np.int8)
    start = np.empty(n_mazes, dtype=np.intp)
    obj_at = np.full((n_mazes, size, size), -1, dtype=np.int8)
    uniforms = np.empty((n_mazes, HORIZON))
    for m, (pair, ep) in enumerate(mazes):
        lo, hi = keys[pair]
        rng = np.random.default_rng([0x6576616C, rng_seed, lo, hi, ep])
        grid = generate_maze(rng, list(pairs[pair]), wall_prob)
        start[m] = (m * size + grid.agent_pos[0]) * size + grid.agent_pos[1]
        for o, cell in enumerate(grid.object_cells):
            dist[m, o] = distance_field(grid.walls, cell)
            obj_at[(m, *cell)] = o
        rng.random(out=uniforms[m])

    padded = np.pad(dist, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-1)
    codes = np.empty((n_mazes, size, size, 4), dtype=np.uint8)
    for a, (dr, dc) in enumerate(_MOVE_DELTAS):
        there = padded[:, :, 1 + dr : 1 + dr + size, 1 + dc : 1 + dc + size]
        there = np.where(there < 0, dist, there)
        c = 1 + np.sign(there - dist)
        codes[..., a] = 3 * c[:, 0] + c[:, 1]
    return start, codes.reshape(-1, 4), obj_at.ravel(), uniforms


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

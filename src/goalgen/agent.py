"""Desk-scale linear policy-gradient agent and preference rollout harness.

Each move goes up, down, left or right; a wall or the grid's edge leaves
the agent in place. Reaching any object ends the episode: object 0, the
rewarded goal, pays GOAL_REWARD (+1), any other object pays STEP_PENALTY
(-0.1) like every other move, and an episode that reaches no object ends
after HORIZON (200) moves. So reaching the goal on move t returns 1 - 0.1 *
(t - 1). Evaluation pays no reward; it only tallies which object an
episode reaches.

The policy scores each action by a dot product between shared weights and
that action's 20-dim observation and samples from the softmax. The
observation sums the feature vectors of the objects the move brings
strictly closer, by BFS distance, into components 0..9, and of those it
takes strictly farther into 10..19; a blocked move observes nothing. So
an action's score depends only on its move code 3 * c0 + c1 (c0 with one
object), where c_o is 0, 1 or 2 as the move goes closer to, no nearer or
farther from object o.

Training is REINFORCE on the total episode return against a
moving-average baseline, one stage at a time, with a fresh maze per
episode. It steps one episode at a time, since each episode depends on the
last update. ``_train_episode`` walks flat cells r * GRID_SIZE + c over
the maze's vacant-cell bitboard and builds no distance field. Neighbouring
cells differ in the parity of their BFS distance to any cell, so an open
move goes closer to object o exactly when it enters o's cumulative flood
layer one step nearer than the agent, and farther otherwise. The layers
grow only as deep as the agent's distance needs. An episode sums its 3 or
9 code scores once, from 0.0 in object order, and takes each code's
gradient indices from a per-stage table in the scalar loop's order. The
first visit to a cell computes its codes and softmax with math.exp and
the scalar loop's sums; later visits in the episode reuse them. The
uniforms, the cumulative sampling and each gradient addition come in the
same order as in a scalar loop over distance fields, so every trained
weight is bit-identical to it.

Evaluation steps every agent's episodes together. An evaluation episode is
seeded only by the run seed, its unordered pair and its index, so agents
evaluated with one seed meet the same maze and the same uniforms in it.
The mazes of a pass are built together by ``maze.sample_mazes``, each on
its own stream with the calls ``generate_maze`` makes, and then its
HORIZON uniforms in one call, which returns the doubles the per-step draws
would. One batched flood, ``maze.distance_fields``, gives every maze's two
BFS distance fields, and the pass becomes flat tables over its cells: the
object at each cell, and per (cell, action) the move code. An
action's score is then one of 9 values per (agent, pair), and a 9 x 9
table of math.exp(s_i - s_j) per (agent, pair) serves every softmax;
np.exp can differ from math.exp in the last bit. Per step, every live
episode gathers its cell's codes, scores and exps, sums the normaliser and
the cumulative probabilities in the scalar loop's order, samples its
action and moves; episodes that reach an object drop out. So the tallies
are bit-identical to stepping each episode on its own in the scalar loop.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import PreferenceRecord, TrainingPipeline
from .errors import NumericalError, ValidationError
from .features import ObjectFeatures, object_index
from .maze import (
    GOAL_REWARD,
    GRID_SIZE,
    HORIZON,
    N_OBSERVATION_FEATURES,
    STEP_PENALTY,
    WALL_PROBABILITY,
    distance_fields,
    flood_layers,
    sample_maze,
    sample_mazes,
)

# perfbench/layers.py wraps these two here by name, though nothing here
# calls them now; ROADMAP item 2 replaces that tracing.
from .maze import distance_field, generate_maze  # noqa: F401

# Evaluation episodes per object pair, unless a caller asks for others.
EPISODES_PER_PAIR = 100

_MOVE_DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1))
# Each move's step in the flat cell index r * GRID_SIZE + c.
_CELL_STEP = np.array([dr * GRID_SIZE + dc for dr, dc in _MOVE_DELTAS])
# Most episodes that evaluate_preferences steps together in one pass. A
# pass keeps about 2 kB of tables per maze, most of it the maze's uniforms,
# and every agent walks each maze of the pass. While a pass samples its
# mazes, each pending maze also holds its Generator, about 1 kB.
_LOCKSTEP_EPISODES = 16_384


@dataclass(frozen=True)
class DeskPolicyParameters:
    """Policy weights plus the training configuration that produced them."""

    weights: np.ndarray = field(
        default_factory=lambda: np.zeros(N_OBSERVATION_FEATURES)
    )
    learning_rate: float = 0.05
    episodes_per_stage: int = 2000
    baseline_decay: float = 0.99

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (N_OBSERVATION_FEATURES,):
            raise ValidationError(f"weights must have shape (20,), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        object.__setattr__(self, "weights", w)


def _increments(feature_idx: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Per move code, the weights its observation adds to, in the scalar order.

    A move's code is c0 with one object and 3 * c0 + c1 with two, where
    c_o is 0, 1 or 2 as the move goes closer to, no nearer or farther from
    object o. ``feature_idx`` holds each object's (colour, shape) indices.
    """
    table = [()]
    for ci, si in feature_idx:
        table = [
            inc + added
            for inc in table
            for added in ((ci, si), (), (10 + ci, 10 + si))
        ]
    return table


def _move_codes(
    cell: int, vacant: int, nearer: list[int]
) -> tuple[tuple[int, int, int, int], list[int]]:
    """Each move's target cell from ``cell`` (-1 off the grid) and its code.

    ``nearer[o]`` is object o's cumulative flood layer one move nearer than
    ``cell``, on the GRID_SIZE grid whose vacant cells are ``vacant``.
    Neighbouring cells differ in the parity of their distance to any cell,
    so an open move goes closer to object o exactly when it enters
    ``nearer[o]``, and farther otherwise; a blocked move has every c_o 1.
    """
    size = GRID_SIZE
    col = cell % size
    targets = (
        cell - size if cell >= size else -1,
        cell + size if cell < size * size - size else -1,
        cell - 1 if col else -1,
        cell + 1 if col < size - 1 else -1,
    )
    codes = []
    for t in targets:
        if t >= 0 and vacant >> t & 1:
            code = 0
            for near in nearer:
                code = 3 * code + (0 if near >> t & 1 else 2)
        else:
            code = 3 ** len(nearer) // 2
        codes.append(code)
    return targets, codes


def _train_episode(
    vacant: int,
    cells: list[int],
    increments: list[tuple[int, ...]],
    weights: list[float],
    random,
) -> tuple[float, list[float]]:
    """Run one training episode; return its total and score-function gradient.

    ``vacant`` and ``cells`` come from ``sample_maze`` on the GRID_SIZE
    grid: the objects' flat cells, object 0 the rewarded goal, then the
    agent's. ``increments`` is the ``_increments`` table of the objects.
    """
    objects = cells[:-1]
    cell = cells[-1]
    blocked = len(increments) // 2  # the code with every c_o 1
    scores = []
    for inc in increments:
        score = 0.0
        for i in range(0, len(inc), 2):
            score += weights[inc[i]] + weights[inc[i + 1]]
        scores.append(score)
    # Cumulative flood layers from each object, grown only as deep as the
    # agent's distance needs, and the agent's distance to each object.
    floods = [flood_layers(1 << o, vacant) for o in objects]
    layers, dist = [], []
    for flood in floods:
        layers.append([])
        for reached in flood:
            layers[-1].append(reached)
            if reached >> cell & 1:
                break
        dist.append(len(layers[-1]) - 1)
    # A cell's moves, codes and softmax are fixed within an episode.
    seen = {}
    grad = [0.0] * N_OBSERVATION_FEATURES
    total = 0.0
    for _ in range(HORIZON):
        policy = seen.get(cell)
        if policy is None:
            for lay, flood, d in zip(layers, floods, dist):
                while len(lay) < d:
                    lay.append(next(flood))
            targets, codes = _move_codes(
                cell, vacant, [lay[d - 1] for lay, d in zip(layers, dist)]
            )
            logits = [scores[k] for k in codes]
            m = max(logits)
            exps = [math.exp(x - m) for x in logits]
            z = exps[0] + exps[1] + exps[2] + exps[3]
            probs = [e / z for e in exps]
            # The scalar loop's cumulative sums; a u past acc2, or a nan
            # row, takes action 3.
            acc0 = 0.0 + probs[0]
            acc1 = acc0 + probs[1]
            acc2 = acc1 + probs[2]
            policy = seen[cell] = (targets, codes, acc0, acc1, acc2, probs)
        targets, codes, acc0, acc1, acc2, probs = policy

        u = random()
        action = 0 if u < acc0 else 1 if u < acc1 else 2 if u < acc2 else 3
        for a in range(4):
            coeff = (1.0 if a == action else 0.0) - probs[a]
            if coeff == 0.0:
                continue
            for k in increments[codes[a]]:
                grad[k] += coeff

        code = codes[action]
        if code != blocked:
            cell = targets[action]
            if cell in objects:
                reward = GOAL_REWARD if cell == objects[0] else STEP_PENALTY
                return total + reward, grad
            if len(objects) == 2:
                dist[0] += code // 3 - 1
                dist[1] += code % 3 - 1
            else:
                dist[0] += code - 1
        total += STEP_PENALTY
    return total, grad


def train_desk_agent(
    pipeline: TrainingPipeline,
    params0: DeskPolicyParameters,
    rng_seed: int,
    wall_prob: float = WALL_PROBABILITY,
    with_history: bool = False,
):
    """Train the policy through each stage of the pipeline in order.

    Returns the trained parameters, or (parameters, per-stage lists of
    episode returns) when with_history is set.
    """
    if not pipeline.stages:
        raise ValidationError("pipeline has no stages")
    rng = np.random.default_rng([0x7261696E, rng_seed])
    weights = params0.weights.copy()
    lr = params0.learning_rate
    decay = params0.baseline_decay
    history: list[list[float]] = []

    for stage_idx, stage in enumerate(pipeline.stages):
        objects = [stage.goal] if stage.distractor is None else [
            stage.goal,
            stage.distractor,
        ]
        baseline = None
        returns: list[float] = []
        w_list = weights.tolist()
        increments = _increments([obj.feature_indices() for obj in objects])
        for ep in range(params0.episodes_per_stage):
            _, vacant, cells = sample_maze(rng, len(objects), wall_prob)
            ret, grad = _train_episode(vacant, cells, increments, w_list, rng.random)
            if baseline is None:
                baseline = ret
            advantage = ret - baseline
            scale = lr * advantage
            for k in range(N_OBSERVATION_FEATURES):
                w_list[k] += scale * grad[k]
            baseline = decay * baseline + (1.0 - decay) * ret
            returns.append(ret)
            if not all(math.isfinite(x) for x in w_list):
                raise NumericalError(
                    f"non-finite policy weights during stage {stage_idx} "
                    f"({stage.goal.name}), episode {ep}"
                )
        weights = np.array(w_list)
        history.append(returns)

    trained = replace(params0, weights=weights)
    if with_history:
        return trained, history
    return trained


def _softmax_tables(
    weights: np.ndarray, pairs: list[tuple[ObjectFeatures, ObjectFeatures]]
) -> tuple[np.ndarray, np.ndarray]:
    """Flat score and exp tables of every (agent, pair).

    Entry 9 * t + k of the scores is the score of code k under (agent,
    pair) t = agent * len(pairs) + pair, summed from 0.0 in the scalar
    loop's order. Entry 81 * t + 9 * j + i of the exps is math.exp(s_i -
    s_j). A softmax only looks up j for a code of maximal score, where
    s_i - s_j <= 0; the other entries are clipped to 0 so none overflows.
    """
    feature = np.array([[obj.feature_indices() for obj in pair] for pair in pairs])
    feature = feature.reshape(len(pairs), 2, 2)  # (pair, object, colour/shape)
    closer = weights[:, feature[..., 0]] + weights[:, feature[..., 1]]
    farther = weights[:, 10 + feature[..., 0]] + weights[:, 10 + feature[..., 1]]
    # per (agent, pair, object, c_o): the weight sum that c_o adds
    added = np.stack([closer, np.zeros_like(closer), farther], axis=-1)
    scores = (0.0 + added[:, :, 0, :, None]) + added[:, :, 1, None, :]
    scores = scores.reshape(-1, 9)
    diffs = scores[:, None, :] - scores[:, :, None]
    np.minimum(diffs, 0.0, out=diffs)
    exps = np.fromiter(map(math.exp, diffs.flat), float, diffs.size)
    return scores.ravel(), exps


def _maze_pass(mazes, keys, rng_seed: int, wall_prob: float):
    """Build a pass's evaluation mazes together and flatten them into tables.

    ``mazes`` lists (pair, episode) per maze; cell m * GRID_SIZE**2 + r *
    GRID_SIZE + c is cell (r, c) of maze m. Returns the start cells, the
    (cells, 4) move codes, the object at each cell (-1 for none) and the
    (mazes, HORIZON) uniforms.
    """
    size, n_mazes = GRID_SIZE, len(mazes)
    uniforms = np.empty((n_mazes, HORIZON))
    seeds = ([0x6576616C, rng_seed, *keys[pair], ep] for pair, ep in mazes)
    vacant, cells = sample_mazes(seeds, 2, wall_prob, uniforms)
    # BFS distances to each object, -1 on walls; at most 63 on 8 x 8.
    dist = distance_fields(vacant, cells[:, :2]).reshape(n_mazes, 2, size, size)
    first = np.arange(n_mazes) * size * size
    obj_at = np.full(n_mazes * size * size, -1, dtype=np.int8)
    obj_at[first[:, None] + cells[:, :2]] = [0, 1]

    padded = np.pad(dist, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-1)
    codes = np.empty((n_mazes, size, size, 4), dtype=np.uint8)
    for a, (dr, dc) in enumerate(_MOVE_DELTAS):
        there = padded[:, :, 1 + dr : 1 + dr + size, 1 + dc : 1 + dc + size]
        # A wall or the edge blocks the move and leaves both distances.
        there = np.where(there < 0, dist, there)
        c = 1 + np.sign(there - dist)  # c_o per object
        codes[..., a] = 3 * c[:, 0] + c[:, 1]
    return first + cells[:, 2], codes.reshape(-1, 4), obj_at, uniforms


def _walk(tables, table: np.ndarray, scores, exps, counts: np.ndarray) -> None:
    """Step every episode of a pass together and tally its outcome.

    ``tables`` are the pass's ``_maze_pass`` tables. Episode i walks maze i
    % mazes under (agent, pair) table[i], and its outcome, the object it
    reached or 2 for none, is added to counts[3 * table[i] + outcome].
    """
    start, codes, obj_at, uniforms = tables
    maze = np.arange(len(table)) % len(start)
    pos = start[maze]
    for t in range(HORIZON):
        code = codes[pos]
        s = scores[9 * table[:, None] + code]
        top = np.take_along_axis(code, s.argmax(axis=1)[:, None], axis=1)
        e = exps[81 * table[:, None] + 9 * top + code]
        z = e[:, 0] + e[:, 1] + e[:, 2] + e[:, 3]
        acc = np.cumsum(e[:, :3] / z[:, None], axis=1)
        # acc never falls along an episode's row, so the first action
        # with u < acc is 3 less the number of such actions; a nan row
        # takes action 3, as the scalar loop does.
        action = 3 - (uniforms[maze, t][:, None] < acc).sum(axis=1)
        # Neighbouring cells differ in the parity of their distance to
        # any cell, so an open move changes both distances: code 4
        # (no nearer, no farther from either object) is a blocked move.
        moves = np.take_along_axis(code, action[:, None], axis=1)[:, 0] != 4
        pos = pos + moves * _CELL_STEP[action]
        hit = obj_at[pos]
        done = hit >= 0
        if done.any():
            counts += np.bincount(3 * table[done] + hit[done], minlength=counts.size)
            live = ~done
            maze, table, pos = maze[live], table[live], pos[live]
            if not len(pos):
                return
    counts += np.bincount(3 * table + 2, minlength=counts.size)


def _lockstep_counts(
    weights: np.ndarray,
    keys: list[tuple[int, int]],
    pairs: list[tuple[ObjectFeatures, ObjectFeatures]],
    episodes: int,
    rng_seed: int,
    wall_prob: float,
) -> np.ndarray:
    """(agents, pairs, 3) tallies of the first object, the second and neither.

    Pair p's objects are pairs[p] in canonical order, and keys[p] their
    object indices. Maze i is episode i % episodes of pair i // episodes.
    Every agent walks the same episodes; a pass takes the next mazes such
    that at most _LOCKSTEP_EPISODES episodes walk together.
    """
    n_agents, n_pairs = len(weights), len(pairs)
    counts = np.zeros(n_agents * n_pairs * 3, dtype=np.int64)
    if not n_agents:
        return counts.reshape(n_agents, n_pairs, 3)
    scores, exps = _softmax_tables(weights, pairs)
    n_mazes, per_pass = n_pairs * episodes, max(1, _LOCKSTEP_EPISODES // n_agents)
    for first in range(0, n_mazes, per_pass):
        chunk = [divmod(i, episodes) for i in range(first, min(first + per_pass, n_mazes))]
        # Agent g on the chunk's maze m is episode g * len(chunk) + m.
        table = np.arange(n_agents)[:, None] * n_pairs + [p for p, _ in chunk]
        # The pass's tables live only for the walk, not into the next pass.
        tables = _maze_pass(chunk, keys, rng_seed, wall_prob)
        _walk(tables, table.ravel(), scores, exps, counts)
        del tables
    return counts.reshape(n_agents, n_pairs, 3)


def evaluate_preferences(
    policy: DeskPolicyParameters | Mapping[str, DeskPolicyParameters],
    pairs: list[tuple[ObjectFeatures, ObjectFeatures]],
    episodes_per_pair: int = EPISODES_PER_PAIR,
    rng_seed: int = 0,
    pipeline_id: str = "agent",
    wall_prob: float = WALL_PROBABILITY,
) -> list[PreferenceRecord]:
    """Tally which object each policy reaches first over two-object mazes.

    ``policy`` is one policy, evaluated as ``pipeline_id``, or a mapping
    {pipeline_id: policy}. Records come agent by agent in mapping order,
    each agent's pairs in the given order. No reward is delivered; the
    episode ends on reaching either object or at the horizon. Episodes are
    seeded by the unordered pair and episode index, so evaluating a swapped
    pair replays the identical episodes and exactly swaps the tallies, and
    every agent meets the same episodes.
    """
    if isinstance(policy, DeskPolicyParameters):
        policy = {pipeline_id: policy}
    weights = np.array([p.weights for p in policy.values()], dtype=float)
    weights = weights.reshape(len(policy), N_OBSERVATION_FEATURES)
    if not np.all(np.isfinite(weights)):
        raise ValidationError("policy weights must be finite")
    index: dict[tuple[int, int], int] = {}
    canonical = []
    slots = []
    for obj_a, obj_b in pairs:
        ia, ib = object_index(obj_a), object_index(obj_b)
        if ia == ib:
            raise ValidationError(f"pair contains {obj_a.name} twice")
        swap = ia > ib
        key = (ib, ia) if swap else (ia, ib)
        if key not in index:
            index[key] = len(canonical)
            canonical.append((obj_b, obj_a) if swap else (obj_a, obj_b))
        slots.append((index[key], swap))
    counts = _lockstep_counts(
        weights, list(index), canonical, episodes_per_pair, rng_seed, wall_prob
    ).tolist()

    records = []
    for agent_counts, pid in zip(counts, policy):
        for (obj_a, obj_b), (p, swap) in zip(pairs, slots):
            first, second, none = agent_counts[p]
            records.append(
                PreferenceRecord(
                    pipeline_id=pid,
                    object_a=obj_a,
                    object_b=obj_b,
                    count_a=second if swap else first,
                    count_b=first if swap else second,
                    count_none=none,
                    episodes=episodes_per_pair,
                )
            )
    return records

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import goalgen.agent as agent_mod
import goalgen.maze as maze_mod
from conftest import maze_tables, scalar_episode, scalar_maze_pass
from goalgen.agent import DeskPolicyParameters, evaluate_preferences, train_desk_agent
from goalgen.dataset import PreferenceRecord, TrainingPipeline, TrainingStage
from goalgen.errors import NumericalError, ValidationError
from goalgen.features import (
    Colour,
    ObjectFeatures,
    Shape,
    enumerate_eval_pairs,
    object_index,
)
from goalgen.maze import WALL_PROBABILITY, generate_maze, sample_maze

RC = ObjectFeatures(Colour.RED, Shape.CROSS)
RD = ObjectFeatures(Colour.RED, Shape.DIAMOND)
BD = ObjectFeatures(Colour.BLUE, Shape.DIAMOND)
BR = ObjectFeatures(Colour.BLACK, Shape.RING)
GC = ObjectFeatures(Colour.GREEN, Shape.CIRCLE)

SINGLE = TrainingPipeline("single", (TrainingStage(RC),))


@pytest.fixture(scope="module")
def single_with_history():
    return train_desk_agent(
        SINGLE, DeskPolicyParameters(), rng_seed=0, with_history=True
    )


@pytest.fixture(scope="module")
def trained_single(single_with_history):
    return single_with_history[0]


def test_training_improves_mean_return(single_with_history):
    (returns,) = single_with_history[1]
    assert np.mean(returns[-200:]) > np.mean(returns[:200])


def test_zero_episodes_returns_params_unchanged():
    params = DeskPolicyParameters(episodes_per_stage=0)
    out = train_desk_agent(SINGLE, params, rng_seed=0)
    assert (out.weights == params.weights).all()


def test_training_is_deterministic():
    params = DeskPolicyParameters(episodes_per_stage=150)
    w1 = train_desk_agent(SINGLE, params, rng_seed=7).weights
    w2 = train_desk_agent(SINGLE, params, rng_seed=7).weights
    assert (w1 == w2).all()


def test_stage_transition_drops_then_recovers():
    # disjoint-feature goals force relearning at the stage boundary
    pipeline = TrainingPipeline("two", (TrainingStage(RC), TrainingStage(BD)))
    _, history = train_desk_agent(
        pipeline, DeskPolicyParameters(), rng_seed=3, with_history=True
    )
    stage1, stage2 = history
    end_of_first = np.mean(stage1[-200:])
    start_of_second = np.mean(stage2[:200])
    end_of_second = np.mean(stage2[-200:])
    assert start_of_second < end_of_first
    assert end_of_second > start_of_second


def test_trained_agent_prefers_goal_over_never_seen(trained_single):
    records = evaluate_preferences(
        trained_single, [(RC, GC)], episodes_per_pair=100, rng_seed=11,
        pipeline_id="single",
    )
    assert records[0].count_a > 50


def test_counts_sum_to_episodes(trained_single):
    records = evaluate_preferences(
        trained_single, [(RC, BD), (BD, BR)], episodes_per_pair=40, rng_seed=2,
        pipeline_id="single",
    )
    for rec in records:
        assert rec.count_a + rec.count_b + rec.count_none == 40


def test_swapped_pair_swaps_counts_exactly(trained_single):
    fwd = evaluate_preferences(
        trained_single, [(RC, BD)], episodes_per_pair=60, rng_seed=4,
        pipeline_id="single",
    )[0]
    rev = evaluate_preferences(
        trained_single, [(BD, RC)], episodes_per_pair=60, rng_seed=4,
        pipeline_id="single",
    )[0]
    assert (fwd.count_a, fwd.count_b, fwd.count_none) == (
        rev.count_b,
        rev.count_a,
        rev.count_none,
    )


def test_evaluation_is_deterministic(trained_single):
    r1 = evaluate_preferences(
        trained_single, [(RC, BD)], episodes_per_pair=50, rng_seed=9,
        pipeline_id="single",
    )[0]
    r2 = evaluate_preferences(
        trained_single, [(RC, BD)], episodes_per_pair=50, rng_seed=9,
        pipeline_id="single",
    )[0]
    assert (r1.count_a, r1.count_b, r1.count_none) == (
        r2.count_a,
        r2.count_b,
        r2.count_none,
    )


def test_distractor_stage_still_forms_goal_value():
    # The terminating distractor can trap the policy (reaching anything
    # beats wandering), so goal-vs-distractor preference is seed-dependent;
    # value formed for the rewarded goal must still beat a never-seen object.
    pipeline = TrainingPipeline("dis", (TrainingStage(RC, BD),))
    trained = train_desk_agent(pipeline, DeskPolicyParameters(), rng_seed=5)
    records = evaluate_preferences(
        trained, [(RC, GC)], episodes_per_pair=100, rng_seed=6, pipeline_id="dis"
    )
    assert records[0].count_a > 50


def test_non_finite_weights_abort_with_diagnostics():
    params = DeskPolicyParameters(learning_rate=math.inf, episodes_per_stage=50)
    with pytest.raises(NumericalError, match="stage 0"):
        train_desk_agent(SINGLE, params, rng_seed=0)


def test_empty_pair_rejected(trained_single):
    with pytest.raises(ValidationError):
        evaluate_preferences(trained_single, [(RC, RC)], 10, 0, "single")


def test_weights_shape_validated():
    with pytest.raises(ValidationError):
        DeskPolicyParameters(weights=np.zeros(7))


# sha256 of the trained weights' bytes followed by every pair's
# (count_a, count_b, count_none), recorded from the queue-BFS maze code.
# Any change to the maze draws, the BFS or the policy loop that alters a
# single rollout changes this digest.
PINNED_ROLLOUT_DIGEST = (
    "9a1a18d087e5c9340079158aa811632acea25f2ee18c3668f38a91200a31e89c"
)


def test_seeded_rollouts_match_pinned_digest():
    pipeline = TrainingPipeline("pinned", (TrainingStage(RC), TrainingStage(BD, BR)))
    trained = train_desk_agent(
        pipeline, DeskPolicyParameters(episodes_per_stage=100), rng_seed=13
    )
    records = evaluate_preferences(
        trained, enumerate_eval_pairs(), episodes_per_pair=2, rng_seed=13,
        pipeline_id="pinned",
    )
    assert len(records) == 276
    digest = hashlib.sha256(np.asarray(trained.weights, dtype="<f8").tobytes())
    for rec in records:
        digest.update(f"{rec.count_a},{rec.count_b},{rec.count_none};".encode())
    assert digest.hexdigest() == PINNED_ROLLOUT_DIGEST


def scalar_train(pipeline, params0, rng_seed, wall_prob=WALL_PROBABILITY):
    """The REINFORCE loop over ``scalar_episode``: the training oracle.

    Returns the final weights and the per-stage lists of episode returns.
    """
    rng = np.random.default_rng([0x7261696E, rng_seed])
    w_list = params0.weights.tolist()
    history = []
    for stage in pipeline.stages:
        objects = [stage.goal] if stage.distractor is None else [stage.goal, stage.distractor]
        baseline = None
        returns = []
        for _ in range(params0.episodes_per_stage):
            grid = generate_maze(rng, objects, wall_prob)
            _, ret, grad = scalar_episode(*maze_tables(grid), grid.agent_pos, w_list, rng)
            if baseline is None:
                baseline = ret
            scale = params0.learning_rate * (ret - baseline)
            for k in range(20):
                w_list[k] += scale * grad[k]
            baseline = params0.baseline_decay * baseline + (1.0 - params0.baseline_decay) * ret
            returns.append(ret)
        history.append(returns)
    return w_list, history


@pytest.mark.parametrize(
    "weights, learning_rate, wall_prob",
    [
        (0.0, 0.05, 0.2),
        (0.0, 0.0, 0.2),  # the zero policy throughout: some episodes time out
        (400.0, 0.05, 0.0),
        (400.0, 0.05, 0.5),
    ],
)
def test_training_matches_the_scalar_oracle(weights, learning_rate, wall_prob):
    # One-object and distractor stages; RD shares the goal's colour, so one
    # move can add to the same weight twice.
    pipeline = TrainingPipeline(
        "mixed", (TrainingStage(RC), TrainingStage(BD, BR), TrainingStage(GC, RD))
    )
    rng = np.random.default_rng(int(weights + 100 * wall_prob))
    params = DeskPolicyParameters(
        weights=weights * rng.choice([-1.0, 1.0], 20),
        learning_rate=learning_rate,
        episodes_per_stage=60,
    )
    trained, history = train_desk_agent(
        pipeline, params, rng_seed=17, wall_prob=wall_prob, with_history=True
    )
    want_weights, want_history = scalar_train(pipeline, params, 17, wall_prob)
    assert trained.weights.tolist() == want_weights
    assert history == want_history
    if learning_rate == 0.0:
        assert min(min(returns) for returns in history) < -19.99


def scalar_preferences(policy, pairs, episodes_per_pair, rng_seed, pipeline_id):
    """The per-pair, per-episode evaluation loop: the lockstep walk's oracle."""
    w_list = policy.weights.tolist()
    records = []
    for obj_a, obj_b in pairs:
        ia, ib = object_index(obj_a), object_index(obj_b)
        swap = ia > ib
        first, second = (obj_b, obj_a) if swap else (obj_a, obj_b)
        lo, hi = min(ia, ib), max(ia, ib)
        counts = [0, 0, 0]  # first, second, none
        for ep in range(episodes_per_pair):
            rng = np.random.default_rng([0x6576616C, rng_seed, lo, hi, ep])
            grid = generate_maze(rng, [first, second])
            outcome, _, _ = scalar_episode(*maze_tables(grid), grid.agent_pos, w_list, rng)
            counts[outcome if outcome >= 0 else 2] += 1
        count_a, count_b = (counts[1], counts[0]) if swap else (counts[0], counts[1])
        records.append(
            PreferenceRecord(
                pipeline_id, obj_a, obj_b, count_a, count_b, counts[2],
                episodes_per_pair,
            )
        )
    return records


def scalar_all(policies, pairs, episodes_per_pair, rng_seed):
    return [
        rec
        for pid, policy in policies.items()
        for rec in scalar_preferences(policy, pairs, episodes_per_pair, rng_seed, pid)
    ]


@pytest.fixture(scope="module")
def three_agents():
    pipelines = [
        TrainingPipeline("single", (TrainingStage(RC),)),
        TrainingPipeline("distractor", (TrainingStage(BD, BR),)),
        TrainingPipeline("two", (TrainingStage(BR), TrainingStage(GC))),
    ]
    params = DeskPolicyParameters(episodes_per_stage=150)
    return {p.id: train_desk_agent(p, params, rng_seed=21) for p in pipelines}


def test_lockstep_matches_scalar_oracle_for_trained_agents(three_agents):
    pairs = enumerate_eval_pairs()
    got = evaluate_preferences(three_agents, pairs, episodes_per_pair=2, rng_seed=3)
    assert got == scalar_all(three_agents, pairs, 2, 3)
    assert [r.pipeline_id for r in got[:: len(pairs)]] == list(three_agents)


def test_lockstep_matches_scalar_oracle_at_ten_episodes(three_agents):
    pairs = enumerate_eval_pairs()[::23]
    got = evaluate_preferences(three_agents, pairs, episodes_per_pair=10, rng_seed=4)
    assert got == scalar_all(three_agents, pairs, 10, 4)


def test_zero_weight_policy_reaches_the_horizon_like_the_oracle():
    policies = {"zero": DeskPolicyParameters()}
    pairs = enumerate_eval_pairs()[:40]
    got = evaluate_preferences(policies, pairs, episodes_per_pair=3, rng_seed=5)
    assert got == scalar_all(policies, pairs, 3, 5)
    assert sum(r.count_none for r in got) > 0


@pytest.mark.parametrize("scale", [50.0, 400.0])
def test_extreme_weights_match_the_oracle(scale):
    # At +-50 the smaller probabilities vanish against the cumulative sum,
    # so sums tie; at +-400 the exps themselves underflow to 0.
    rng = np.random.default_rng(int(scale))
    policies = {
        f"w{i}": DeskPolicyParameters(weights=scale * rng.choice([-1.0, 1.0], 20))
        for i in range(2)
    }
    pairs = enumerate_eval_pairs()[::5]
    got = evaluate_preferences(policies, pairs, episodes_per_pair=3, rng_seed=6)
    assert got == scalar_all(policies, pairs, 3, 6)
    weights = np.array([p.weights for p in policies.values()])
    _, exps = agent_mod._softmax_tables(weights, pairs)
    assert (exps == 0.0).any() == (scale == 400.0)


def test_swapped_and_repeated_pairs_in_one_call(three_agents):
    pairs = [(RC, BD), (BD, RC), (RC, BD), (GC, BR), (BR, GC)]
    got = evaluate_preferences(three_agents, pairs, episodes_per_pair=8, rng_seed=7)
    assert got == scalar_all(three_agents, pairs, 8, 7)
    fwd, rev, again = got[:3]
    assert (fwd.count_a, fwd.count_b, fwd.count_none) == (
        rev.count_b,
        rev.count_a,
        rev.count_none,
    )
    assert fwd == again


def test_unsorted_mapping_keeps_its_order(three_agents):
    policies = {
        "zeta": three_agents["two"],
        "alpha": three_agents["single"],
        "mid": three_agents["distractor"],
    }
    pairs = enumerate_eval_pairs()[:30]
    got = evaluate_preferences(policies, pairs, episodes_per_pair=2, rng_seed=8)
    assert got == scalar_all(policies, pairs, 2, 8)
    assert [r.pipeline_id for r in got[::30]] == ["zeta", "alpha", "mid"]


@pytest.mark.parametrize("bound", [1, 5, 7])
def test_run_split_across_passes(three_agents, monkeypatch, bound):
    # 3 agents: 1 maze per pass at bounds 1 and 5, 2 at 7 with a short last pass
    monkeypatch.setattr(agent_mod, "_LOCKSTEP_EPISODES", bound)
    pairs = enumerate_eval_pairs()[:7]
    got = evaluate_preferences(three_agents, pairs, episodes_per_pair=3, rng_seed=9)
    assert got == scalar_all(three_agents, pairs, 3, 9)


def test_repeated_object_rejected_before_any_episode(trained_single, monkeypatch):
    def no_maze(*args, **kwargs):
        raise AssertionError("a maze was generated")

    monkeypatch.setattr(agent_mod, "sample_mazes", no_maze)
    with pytest.raises(ValidationError, match="twice"):
        evaluate_preferences(trained_single, [(RC, BD), (BD, BD)], 10, 0, "single")
    # The hook is on the evaluation path: a valid call reaches it.
    with pytest.raises(AssertionError, match="a maze was generated"):
        evaluate_preferences(trained_single, [(RC, BD)], 10, 0, "single")


def test_default_size_evaluation_memory_is_bounded(three_agents, monkeypatch):
    # The full 3 agents x 276 pairs x 100 episodes: every pass's Generators,
    # tables and walk, in ceil(27,600 / (16,384 // 3)) = 6 passes.
    passes = []
    sample_mazes = agent_mod.sample_mazes

    def counted(seeds, *args):
        seeds = list(seeds)
        passes.append(len(seeds))
        return sample_mazes(seeds, *args)

    monkeypatch.setattr(agent_mod, "sample_mazes", counted)
    pairs = enumerate_eval_pairs()
    tracemalloc.start()
    try:
        records = evaluate_preferences(three_agents, pairs, episodes_per_pair=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert passes == [16_384 // 3] * 5 + [27_600 - 5 * (16_384 // 3)]
    assert len(records) == 3 * 276
    assert all(r.count_a + r.count_b + r.count_none == 100 for r in records)
    assert peak < 64 * 2**20


def canonical_pairs(pairs):
    """Each pair's object indices and objects in ``evaluate_preferences``'
    canonical order, lower index first."""
    keys, canonical = [], []
    for pair in pairs:
        order = sorted(pair, key=object_index)
        keys.append(tuple(map(object_index, order)))
        canonical.append(tuple(order))
    return keys, canonical


@pytest.mark.parametrize(
    "n_pairs, episodes, wall_prob", [(1, 1, 0.2), (276, 2, 0.2), (60, 3, 0.45), (30, 2, 0.0)]
)
def test_maze_pass_matches_per_maze_oracle(n_pairs, episodes, wall_prob):
    keys, canonical = canonical_pairs(enumerate_eval_pairs()[:n_pairs])
    mazes = [(p, ep) for p in range(n_pairs) for ep in range(episodes)]
    got = agent_mod._maze_pass(mazes, keys, 11, wall_prob)
    want = scalar_maze_pass(mazes, keys, canonical, 11, wall_prob)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def test_running_out_of_attempts_raises_like_sample_maze(monkeypatch):
    monkeypatch.setattr(maze_mod, "MAX_GENERATION_ATTEMPTS", 3)
    with pytest.raises(NumericalError) as scalar:
        sample_maze(np.random.default_rng(0), 2, 0.9)
    assert str(scalar.value) == (
        "no connected maze with 3 vacant cells found in 3 attempts (wall_prob=0.9)"
    )
    with pytest.raises(NumericalError) as batched:
        evaluate_preferences(DeskPolicyParameters(), [(RC, BD)], 4, wall_prob=0.9)
    assert str(batched.value) == str(scalar.value)

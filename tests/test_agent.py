import hashlib
import math

import numpy as np
import pytest

from goalgen.agent import (
    DeskPolicyParameters,
    evaluate_preferences,
    mean_return,
    train_desk_agent,
)
from goalgen.dataset import TrainingPipeline, TrainingStage
from goalgen.errors import NumericalError, ValidationError
from goalgen.features import Colour, ObjectFeatures, Shape, enumerate_eval_pairs

RC = ObjectFeatures(Colour.RED, Shape.CROSS)
BD = ObjectFeatures(Colour.BLUE, Shape.DIAMOND)
BR = ObjectFeatures(Colour.BLACK, Shape.RING)
GC = ObjectFeatures(Colour.GREEN, Shape.CIRCLE)

SINGLE = TrainingPipeline("single", (TrainingStage(RC),))


@pytest.fixture(scope="module")
def trained_single():
    return train_desk_agent(SINGLE, DeskPolicyParameters(), rng_seed=0)


def test_training_improves_mean_return(trained_single):
    before = mean_return(DeskPolicyParameters(), RC, 100, rng_seed=1)
    after = mean_return(trained_single, RC, 100, rng_seed=1)
    assert after > before


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

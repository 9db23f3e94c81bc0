import math

import numpy as np
import pytest

from goalgen.dataset import TrainingPipeline, TrainingStage
from goalgen.errors import NumericalError, ValidationError
from goalgen.features import Colour, ObjectFeatures, Shape, enumerate_objects
from goalgen.latent import (
    N_EXPANDED,
    LpgHyperparameters,
    SaliencyVariant,
    encode_expanded,
    equilibrium_projection,
    goal_value,
    hyperparameters_from_json,
    hyperparameters_to_json,
    identity_hyperparameters,
    induced_value,
    load_hyperparameters,
    predict_preferences,
    save_hyperparameters,
    similarity_metric,
    simulate_pipeline,
    stage_objective,
)

RC = ObjectFeatures(Colour.RED, Shape.CROSS)
BD = ObjectFeatures(Colour.BLUE, Shape.DIAMOND)
RD = ObjectFeatures(Colour.RED, Shape.DIAMOND)
OBJECTS = enumerate_objects()


def random_hp(rng, fitted_scale=False, d=10):
    if fitted_scale:
        s = np.triu(rng.uniform(-0.2, 0.2, (10, d)))
        np.fill_diagonal(s, rng.uniform(1.0, 2.0, min(10, d)))
        return LpgHyperparameters(
            np.triu(s), math.log(rng.uniform(0.6, 0.9)), rng.uniform(-0.5, 0.0)
        )
    s = np.triu(rng.normal(0.0, 0.5, (10, d)))
    return LpgHyperparameters(s, rng.normal(0.0, 0.5), rng.normal(0.0, 0.3))


def test_below_diagonal_entries_rejected():
    s = np.eye(10)
    s[3, 1] = 0.5
    with pytest.raises(ValidationError, match="below the diagonal"):
        LpgHyperparameters(s)


def test_diagonal_variant_rejects_off_diagonal():
    s = np.eye(10)
    s[0, 5] = 0.2
    with pytest.raises(ValidationError):
        LpgHyperparameters(s, variant=SaliencyVariant.DIAGONAL)


def test_quadratic_saliency_shape():
    hp = LpgHyperparameters(np.ones(N_EXPANDED), variant=SaliencyVariant.QUADRATIC)
    assert hp.latent_dim == 65
    with pytest.raises(ValidationError):
        LpgHyperparameters(np.ones(64), variant=SaliencyVariant.QUADRATIC)


def test_goal_value_identity_saliency():
    hp = identity_hyperparameters()
    w = 0.5 * hp.encode(RC)
    assert goal_value(hp, w, RC) == pytest.approx(1.0)


def test_goal_value_zero_weights():
    hp = identity_hyperparameters()
    for obj in OBJECTS[:5]:
        assert goal_value(hp, np.zeros(10), obj) == 0.0


def test_goal_value_matches_matrix_arithmetic(rng):
    for _ in range(20):
        hp = random_hp(rng)
        w = rng.normal(0, 1, 10)
        obj = OBJECTS[rng.integers(24)]
        phi = np.zeros(10)
        ci, si = obj.feature_indices()
        phi[ci] = phi[si] = 1.0
        assert goal_value(hp, w, obj) == pytest.approx(phi @ hp.saliency @ w)


def test_predict_symmetric_values():
    hp = identity_hyperparameters()
    dist = predict_preferences(hp, np.zeros(10), RC, BD)
    assert dist.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_predict_softmax_limit():
    hp = identity_hyperparameters()
    w = 15.0 * hp.encode(RC)  # v_a = 30
    dist = predict_preferences(hp, w, RC, BD)
    assert dist.p_a > 1 - 1e-9


def test_predict_unit_value_case():
    hp = identity_hyperparameters()
    w = 0.5 * hp.encode(RC)
    dist = predict_preferences(hp, w, RC, BD)
    e = math.e
    assert dist.p_a == pytest.approx(e / (e + 2))
    assert dist.p_b == pytest.approx(1 / (e + 2))
    assert dist.p_none == pytest.approx(1 / (e + 2))


def test_gradient_zero_exactly_at_equilibrium():
    hp = identity_hyperparameters(log_tau=math.log(0.5))
    # v = 2 w_component_sum; want v = 1/tau = 2, so w = phi
    w = hp.encode(RC).astype(float)
    value = stage_objective(hp, w, TrainingStage(RC))
    assert np.all(value.grad_w == 0.0)


def test_gradient_matches_finite_differences(rng):
    h = 1e-5
    worst = 0.0
    for draw in range(40):
        hp = random_hp(rng)
        w = rng.normal(0, 1, 10)
        goal = OBJECTS[rng.integers(24)]
        distractor = None
        if draw % 2:
            distractor = OBJECTS[rng.integers(24)]
            while distractor == goal:
                distractor = OBJECTS[rng.integers(24)]
        stage = TrainingStage(goal, distractor)
        grad = stage_objective(hp, w, stage).grad_w
        fd = np.zeros(10)
        for i in range(10):
            up, dn = w.copy(), w.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                stage_objective(hp, up, stage).j - stage_objective(hp, dn, stage).j
            ) / (2 * h)
        worst = max(worst, np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-10))
    assert worst < 1e-5


def test_entropy_term_off_at_vanishing_tau():
    # log_tau = -745 gives the smallest positive tau; numerically tau = 0
    hp = identity_hyperparameters(log_tau=-745.0)
    w = np.full(10, 0.3)
    stage = TrainingStage(RC)
    value = stage_objective(hp, w, stage)
    v = goal_value(hp, w, RC)
    sig = 1 / (1 + math.exp(-v))
    assert value.j == pytest.approx(sig)
    expected = sig * (1 - sig) * (hp.saliency.T @ hp.encode(RC))
    assert value.grad_w == pytest.approx(expected)


def test_fixed_point_iff_equilibrium_value(rng):
    for _ in range(20):
        hp = random_hp(rng, fitted_scale=True)
        goal = OBJECTS[rng.integers(24)]
        # on-hyperplane weights have zero gradient
        w_eq = equilibrium_projection(hp, rng.normal(0, 1, 10), goal)
        assert np.abs(stage_objective(hp, w_eq, TrainingStage(goal)).grad_w).max() < 1e-9
        # off-hyperplane weights do not
        w_off = w_eq + 0.3 * hp.saliency.T @ hp.encode(goal)
        assert np.abs(stage_objective(hp, w_off, TrainingStage(goal)).grad_w).max() > 1e-9


def test_update_moves_only_along_goal_direction(rng):
    for _ in range(10):
        hp = random_hp(rng, fitted_scale=True)
        goal = OBJECTS[rng.integers(24)]
        w = rng.normal(0, 1, 10)
        grad = stage_objective(hp, w, TrainingStage(goal)).grad_w
        u = hp.saliency.T @ hp.encode(goal)
        residual = grad - (grad @ u / (u @ u)) * u
        assert np.abs(residual).max() < 1e-12


def test_simulation_reaches_equilibrium():
    hp = identity_hyperparameters()
    pipeline = TrainingPipeline("p", (TrainingStage(RC),))
    w = simulate_pipeline(hp, pipeline)
    assert goal_value(hp, w, RC) == pytest.approx(1.0, abs=1e-3)
    pi = stage_objective(hp, w, TrainingStage(RC)).pi_goal
    assert pi == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-3)


def test_simulation_fixed_point_is_identity():
    # with S = I and tau = 1, w0 = 0.5 puts every goal on its hyperplane
    hp = identity_hyperparameters(w0=0.5)
    pipeline = TrainingPipeline("p", (TrainingStage(RC),))
    w = simulate_pipeline(hp, pipeline)
    assert w == pytest.approx(np.full(10, 0.5))


def test_two_stage_simulation_lands_on_second_hyperplane(rng):
    hp = random_hp(rng, fitted_scale=True)
    pipeline = TrainingPipeline("p", (TrainingStage(RC), TrainingStage(BD)))
    w1 = simulate_pipeline(hp, TrainingPipeline("q", (TrainingStage(RC),)))
    w = simulate_pipeline(hp, pipeline)
    assert abs(goal_value(hp, w, BD) - 1.0 / hp.tau) < 1e-3
    delta = w - w1
    u = hp.saliency.T @ hp.encode(BD)
    cos = delta @ u / (np.linalg.norm(delta) * np.linalg.norm(u))
    assert math.acos(min(1.0, abs(cos))) < 1e-4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulation_diverges_loudly_for_overflow_scale():
    # The sigmoid plateau bounds moderate overshoot, so non-finite weights
    # need overflow-scale saliency; the failure must name stage and step.
    hp = LpgHyperparameters(np.triu(1e200 * np.eye(10)))
    pipeline = TrainingPipeline("p", (TrainingStage(RC),))
    with pytest.raises(NumericalError, match="stage 0"):
        simulate_pipeline(hp, pipeline)


def test_projection_identity_case():
    hp = identity_hyperparameters()
    w = equilibrium_projection(hp, np.zeros(10), RC)
    assert w == pytest.approx(0.5 * hp.encode(RC))
    assert goal_value(hp, w, RC) == pytest.approx(1.0)


def test_projection_idempotent(rng):
    hp = random_hp(rng, fitted_scale=True)
    w = equilibrium_projection(hp, rng.normal(0, 1, 10), BD)
    again = equilibrium_projection(hp, w, BD)
    assert again == pytest.approx(w, abs=1e-12)


def test_projection_matches_simulation(rng):
    for _ in range(10):
        hp = random_hp(rng, fitted_scale=True)
        goals = [OBJECTS[rng.integers(24)], OBJECTS[rng.integers(24)]]
        pipeline = TrainingPipeline(
            "p", tuple(TrainingStage(g) for g in goals)
        )
        w_sim = simulate_pipeline(hp, pipeline)
        w_proj = np.full(10, hp.w0)
        for g in goals:
            w_proj = equilibrium_projection(hp, w_proj, g)
        assert np.abs(w_sim - w_proj).max() < 1e-3


def test_projection_degenerate_goal():
    hp = LpgHyperparameters(np.zeros((10, 10)))
    with pytest.raises(ValidationError, match="degenerate"):
        equilibrium_projection(hp, np.zeros(10), RC)


def test_similarity_symmetric_psd(rng):
    for _ in range(20):
        hp = random_hp(rng)
        m = similarity_metric(hp)
        assert np.allclose(m, m.T)
        assert np.linalg.eigvalsh(m).min() > -1e-10


def test_induced_value_shared_feature():
    hp = identity_hyperparameters()
    # red diamond shares exactly the colour with red cross
    assert induced_value(hp, RD, RC) == pytest.approx(0.5)


def test_induced_value_probe_is_goal():
    rng = np.random.default_rng(0)
    for _ in range(10):
        hp = random_hp(rng, fitted_scale=True)
        assert induced_value(hp, RC, RC) == pytest.approx(1.0 / hp.tau)


def test_induced_value_equals_projection_value(rng):
    for _ in range(10):
        hp = random_hp(rng, fitted_scale=True)
        probe, goal = OBJECTS[rng.integers(24)], OBJECTS[rng.integers(24)]
        w = equilibrium_projection(hp, np.zeros(10), goal)
        assert induced_value(hp, probe, goal) == pytest.approx(
            goal_value(hp, w, probe)
        )


def test_expanded_encoding_structure():
    vec = encode_expanded(RC)
    assert vec.shape == (65,)
    assert vec.sum() == 5.0  # 2 base + 2 self + 1 cross
    assert vec[:10].tolist() == hp_base_phi()
    assert encode_expanded(None).sum() == 0.0


def hp_base_phi():
    return [0, 0, 0, 1, 0, 1, 0, 0, 0, 0]


def test_json_round_trip(tmp_path, rng):
    hp = random_hp(rng)
    path = tmp_path / "hp.json"
    save_hyperparameters(hp, path)
    loaded = load_hyperparameters(path)
    assert loaded.saliency == pytest.approx(hp.saliency)
    assert loaded.log_tau == hp.log_tau
    assert loaded.w0 == hp.w0
    assert loaded.variant == hp.variant


def test_loader_accepts_square_reference_matrix():
    matrix = np.triu(np.arange(100, dtype=float).reshape(10, 10) / 100.0)
    data = {
        "variant": "full",
        "d": 10,
        "saliency": list(matrix.ravel()),
        "log_tau": 0.0,
        "w0": 0.0,
    }
    hp = hyperparameters_from_json(data)
    assert hp.saliency == pytest.approx(matrix)
    assert hyperparameters_to_json(hp)["saliency"] == pytest.approx(
        list(matrix.ravel())
    )


def test_quadratic_document_must_state_the_expanded_d():
    data = {"variant": "quadratic", "d": 3, "saliency": [1.0] * N_EXPANDED}
    data.update(log_tau=0.0, w0=0.0)
    with pytest.raises(ValidationError, match=f"'d' must be {N_EXPANDED}, got 3"):
        hyperparameters_from_json(data)
    hp = hyperparameters_from_json({**data, "d": N_EXPANDED})
    assert hyperparameters_to_json(hp)["d"] == hp.latent_dim == N_EXPANDED


def test_trapezoidal_saliency_for_small_d(rng):
    hp = random_hp(rng, d=4)
    assert hp.saliency.shape == (10, 4)
    # rows past the diagonal are forced to zero
    assert np.all(hp.saliency[4:, :] == 0.0)

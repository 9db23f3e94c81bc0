"""Acceptance suite: one test per primary criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -s` to see them).

Published fitted values appear here only as frozen cross-check constants;
they are not reproduction targets for the desk-scale pipeline.
"""

import json
import math
import time

import numpy as np

from conftest import random_pipelines, run_episode, sample_records, steer_weights
from goalgen.agent import EPISODES_PER_PAIR, DeskPolicyParameters
from goalgen.cli import main
from goalgen.dataset import (
    Dataset,
    PreferenceRecord,
    TrainingPipeline,
    TrainingStage,
    load_dataset,
    observed_rates,
)
from goalgen.elo import elo_holdout_validation, elo_predict, fit_elo
from goalgen.features import (
    Colour,
    ObjectFeatures,
    Shape,
    enumerate_objects,
)
from goalgen.fitting import (
    FitConfig,
    ModelVariant,
    fit_hyperparameters,
    lower_bound_per_feature,
    lower_bound_per_goal,
    modelling_loss,
    predicted_distributions,
    simulate_variant,
)
from goalgen.latent import (
    LpgHyperparameters,
    identity_hyperparameters,
    similarity_metric,
    simulate_pipeline,
    stage_objective,
)
from goalgen.maze import WALL_PROBABILITY, MazeGrid, distance_field, generate_maze
from goalgen.metrics import MetricMode, brier_score, compute_metrics, kl_divergence, total_variation
from goalgen.selfcheck import (
    engine_error,
    inner_gradient_error,
    outer_gradient_error,
    projection_error,
)

OBJECTS = enumerate_objects()

# Reference fitted saliency matrix (row order = canonical feature order).
# The expected similarity diagonal below comes from the same published fit.
REFERENCE_SALIENCY = np.array(
    [
        [0.994, 0.349, 0.289, 0.142, -0.253, 0.065, 0.461, 0.092, 0.239, 0.157],
        [0, 2.088, -0.379, -0.318, 0.188, 0.099, 0.114, 0.341, 0.206, 0.133],
        [0, 0, 1.549, -0.394, 0.131, 0.325, 0.097, 0.116, 0.211, 0.076],
        [0, 0, 0, 2.080, 0.044, 0.011, 0.183, 0.216, 0.277, 0.181],
        [0, 0, 0, 0, 1.445, -0.084, 0.689, 0.417, 0.115, 0.100],
        [0, 0, 0, 0, 0, 2.794, -0.476, -0.468, -0.536, -0.587],
        [0, 0, 0, 0, 0, 0, 1.781, 0.157, 0.280, -0.476],
        [0, 0, 0, 0, 0, 0, 0, 1.157, -0.158, 0.294],
        [0, 0, 0, 0, 0, 0, 0, 0, 2.428, -0.470],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 2.478],
    ]
)
REFERENCE_SIMILARITY_DIAGONAL = np.array(
    [1.585, 4.838, 2.750, 4.516, 2.767, 8.882, 3.500, 1.449, 6.115, 6.141]
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")


def test_gradient_oracle():
    started = time.perf_counter()
    worst = inner_gradient_error(np.random.default_rng(1001), 100)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and elapsed < 5.0
    _report("gradient oracle", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 5.0


def test_projection_oracle():
    started = time.perf_counter()
    worst = projection_error(np.random.default_rng(1002), 100)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-3 and elapsed < 10.0
    _report("projection oracle", ok, f"max component err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-3
    assert elapsed < 10.0


def test_equilibrium_identity():
    hp = identity_hyperparameters()
    stage = TrainingStage(OBJECTS[3])
    w = simulate_pipeline(hp, TrainingPipeline("eq", (stage,)))
    pi = stage_objective(hp, w, stage).pi_goal
    target = 1.0 / (1.0 + math.exp(-1.0))
    ok = abs(pi - target) < 1e-3
    _report("equilibrium identity", ok, f"pi={pi:.6f} vs sigma(1)={target:.6f}")
    assert abs(pi - target) < 1e-3


def test_similarity_cross_check():
    hp = LpgHyperparameters(REFERENCE_SALIENCY, math.log(0.698), -0.372)
    diag = np.diag(similarity_metric(hp))
    err = np.abs(diag - REFERENCE_SIMILARITY_DIAGONAL).max()
    ok = err < 0.01
    _report(
        "similarity metric cross-check",
        ok,
        f"black {diag[0]:.3f} (exp 1.585), cross {diag[5]:.3f} (exp 8.882), max err {err:.4f}",
    )
    assert err < 0.01


def test_outer_gradient_oracle():
    started = time.perf_counter()
    worst = outer_gradient_error(np.random.default_rng(1005), 5)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-3 and elapsed < 30.0
    _report("outer gradient oracle", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-3
    assert elapsed < 30.0


def test_engine_oracle():
    started = time.perf_counter()
    worst = engine_error(np.random.default_rng(1006), 24)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 10.0
    _report("engine oracle", ok, f"max component err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_synthetic_recovery():
    rng = np.random.default_rng(1006)
    s = np.triu(rng.normal(0.0, 0.15, (10, 10)))
    np.fill_diagonal(s, rng.uniform(1.0, 1.8, 10))
    generator = LpgHyperparameters(np.triu(s), math.log(0.8), -0.3)
    pipelines = random_pipelines(rng, 20)
    train_records = sample_records(rng, generator, pipelines, 200, episodes=1000)
    dataset = Dataset(pipelines, tuple(train_records))

    started = time.perf_counter()
    result = fit_hyperparameters(dataset, config=FitConfig(epochs=40, rng_seed=1))
    elapsed = time.perf_counter() - started
    generator_loss = modelling_loss(generator, dataset)
    gap = result.train_loss - generator_loss

    # held-out pairs: fresh (pipeline, pair) combinations from the generator
    train_keys = {(r.pipeline_id, r.object_a, r.object_b) for r in dataset.records}
    holdout = []
    hold_rng = np.random.default_rng(1007)
    while len(holdout) < 100:
        candidates = sample_records(hold_rng, generator, pipelines, 1, episodes=1000)
        rec = candidates[0].canonical()
        if (rec.pipeline_id, rec.object_a, rec.object_b) not in train_keys:
            holdout.append(rec)
            train_keys.add((rec.pipeline_id, rec.object_a, rec.object_b))
    predictions = predicted_distributions(result.hyperparameters, dataset, holdout)
    report = compute_metrics(
        [p.as_tuple() for p in predictions], observed_rates(holdout), MetricMode.TWO_WAY
    )

    ok = gap < 0.01 and elapsed < 60.0 and report.directional_accuracy >= 0.9
    _report(
        "synthetic recovery",
        ok,
        f"loss gap {gap:+.4f}, {elapsed:.1f}s, holdout dir acc {report.directional_accuracy:.3f}",
    )
    assert gap < 0.01
    assert elapsed < 60.0
    assert report.directional_accuracy >= 0.9


def test_variant_invariants():
    hp = identity_hyperparameters(log_tau=math.log(0.8), w0=-0.2)
    tail = (TrainingStage(OBJECTS[20], OBJECTS[2]),)
    w_mem_1 = simulate_variant(
        hp, TrainingPipeline("m1", (TrainingStage(OBJECTS[0]),) + tail),
        ModelVariant.MEMORYLESS,
    )
    w_mem_2 = simulate_variant(
        hp, TrainingPipeline("m2", (TrainingStage(OBJECTS[11]),) + tail),
        ModelVariant.MEMORYLESS,
    )
    memoryless_ok = bool((w_mem_1 == w_mem_2).all())

    stages = (
        TrainingStage(OBJECTS[4]),
        TrainingStage(OBJECTS[17], OBJECTS[8]),
        TrainingStage(OBJECTS[22]),
    )
    w_fwd = simulate_variant(
        hp, TrainingPipeline("s1", stages), ModelVariant.SIMULTANEOUS
    )
    w_rev = simulate_variant(
        hp, TrainingPipeline("s2", stages[::-1]), ModelVariant.SIMULTANEOUS
    )
    simultaneous_ok = bool(np.allclose(w_fwd, w_rev, atol=1e-12))

    rng = np.random.default_rng(1008)
    s = np.triu(rng.normal(0.0, 0.15, (10, 10)))
    np.fill_diagonal(s, rng.uniform(1.0, 1.6, 10))
    generator = LpgHyperparameters(np.triu(s), math.log(0.75), -0.25)
    pipelines = random_pipelines(rng, 8)
    records = sample_records(rng, generator, pipelines, 80, episodes=1000)
    dataset = Dataset(pipelines, tuple(records))
    per_goal = lower_bound_per_goal(dataset)
    per_feature = lower_bound_per_feature(dataset)
    fitted = fit_hyperparameters(dataset, config=FitConfig(epochs=20, rng_seed=2))
    nesting_ok = per_goal <= per_feature + 1e-9 <= fitted.train_loss + 2e-9

    ok = memoryless_ok and simultaneous_ok and nesting_ok
    _report(
        "variant invariants",
        ok,
        f"memoryless {memoryless_ok}, simultaneous {simultaneous_ok}, "
        f"nesting {per_goal:.4f} <= {per_feature:.4f} <= {fitted.train_loss:.4f}",
    )
    assert memoryless_ok
    assert simultaneous_ok
    assert per_goal <= per_feature + 1e-9
    assert per_feature <= fitted.train_loss + 1e-9


def test_elo_suite():
    rng = np.random.default_rng(1009)
    scale = math.log(10.0) / 400.0
    true_scores = {o: float(rng.uniform(-350, 350)) for o in OBJECTS}
    records = []
    for i in range(24):
        for j in range(i + 1, 24):
            a, b = OBJECTS[i], OBJECTS[j]
            logits = np.array([scale * true_scores[a], scale * true_scores[b], 0.0])
            p = np.exp(logits - logits.max())
            p /= p.sum()
            counts = rng.multinomial(10_000, p)
            records.append(
                PreferenceRecord(
                    "agent", a, b, int(counts[0]), int(counts[1]), int(counts[2]), 10_000
                )
            )
    report = elo_holdout_validation(records, k=4, rng_seed=3)
    holdout_ok = report.directional_accuracy > 0.95

    table = fit_elo(records)
    anchor_ok = table.no_goal_score == 0.0

    def logit10(p):
        return 400.0 * math.log10(p / (1.0 - p))

    a, b = OBJECTS[0], OBJECTS[13]
    additivity = abs(
        logit10(elo_predict(table, a, b))
        + logit10(elo_predict(table, b, None))
        - logit10(elo_predict(table, a, None))
    )
    additivity_ok = additivity < 1e-9

    ok = holdout_ok and anchor_ok and additivity_ok
    _report(
        "elo suite",
        ok,
        f"holdout dir acc {report.directional_accuracy:.3f}, "
        f"logit additivity err {additivity:.1e}, no-goal {table.no_goal_score}",
    )
    assert holdout_ok
    assert anchor_ok
    assert additivity_ok


def test_environment_suite():
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        grid = generate_maze(rng, [OBJECTS[3], OBJECTS[20]])
        dist = distance_field(grid.walls, grid.goal_pos)
        if not (dist[~grid.walls] >= 0).all():
            _report("environment suite", False, "disconnected maze accepted")
            raise AssertionError("disconnected maze accepted")

    # The training episodes themselves, under deterministic policies.
    # Straight to the goal: reaching it on move t returns 1 - 0.1 * (t - 1).
    toward = steer_weights(OBJECTS[0], 400.0, -400.0)
    reward_ok = True
    for goal_col in (1, 4, 7):
        walls = np.zeros((8, 8), dtype=bool)
        grid = MazeGrid(
            walls=walls, agent_pos=(0, 0), goal_pos=(0, goal_col), goal=OBJECTS[0]
        )
        outcome, ret, _ = run_episode(grid, toward)
        reward_ok = reward_ok and outcome == 0
        reward_ok = reward_ok and abs(ret - (1.0 - 0.1 * (goal_col - 1))) < 1e-12

    # Blocked forever in the corner: 200 moves of -0.1 and no outcome.
    stay = steer_weights(OBJECTS[0], -400.0, -400.0)
    walls = np.zeros((8, 8), dtype=bool)
    grid = MazeGrid(walls=walls, agent_pos=(0, 0), goal_pos=(7, 7), goal=OBJECTS[0])
    outcome, ret, _ = run_episode(grid, stay)
    count = round(-ret / 0.1)
    horizon_ok = outcome == -1 and abs(ret + 20.0) < 1e-12

    ok = reward_ok and horizon_ok
    _report(
        "environment suite",
        ok,
        f"1000 mazes connected, reward identity {reward_ok}, horizon at {count} moves",
    )
    assert reward_ok
    assert horizon_ok


def test_end_to_end_desk_run(tmp_path):
    started = time.perf_counter()
    pipelines_doc = {
        "pipelines": {
            "single": [{"goal": {"colour": "red", "shape": "cross"}, "distractor": None}],
            "double": [
                {"goal": {"colour": "blue", "shape": "diamond"}, "distractor": None},
                {"goal": {"colour": "black", "shape": "plus"}, "distractor": None},
            ],
        }
    }
    pipes_file = tmp_path / "pipelines.json"
    pipes_file.write_text(json.dumps(pipelines_doc))

    gen_out = tmp_path / "gen"
    assert main(["gen-data", "--pipelines", str(pipes_file), "--out", str(gen_out)]) == 0
    data_file = gen_out / "preferences.jsonl"
    dataset = load_dataset(data_file)
    assert len(dataset.records) == 2 * 276
    assert all(r.episodes == EPISODES_PER_PAIR for r in dataset.records)
    # With no config, every desk setting is the library's own default.
    defaults = DeskPolicyParameters()
    assert json.loads((gen_out / "manifest.json").read_text())["parameters"] == {
        "pipelines": str(pipes_file),
        "max_pairs": None,
        "desk_learning_rate": defaults.learning_rate,
        "episodes_per_stage": defaults.episodes_per_stage,
        "baseline_decay": defaults.baseline_decay,
        "eval_episodes": EPISODES_PER_PAIR,
        "wall_prob": WALL_PROBABILITY,
    }

    elo_out = tmp_path / "elo"
    assert main(["elo", "--data", str(data_file), "--out", str(elo_out)]) == 0
    assert (elo_out / "elo_single.csv").exists()
    assert (elo_out / "elo_marginalised_double.csv").exists()
    assert (elo_out / "elo_holdout.csv").exists()

    fit_out = tmp_path / "fit"
    assert main(
        ["fit", "--variant", "full", "--data", str(data_file), "--out", str(fit_out)]
    ) == 0
    assert (fit_out / "hyperparameters.json").exists()
    assert (fit_out / "fit_report.json").exists()

    # final-stage goal preferred over a never-seen object
    never_seen = ObjectFeatures(Colour.GREEN, Shape.CIRCLE)
    finals = {
        "single": ObjectFeatures(Colour.RED, Shape.CROSS),
        "double": ObjectFeatures(Colour.BLACK, Shape.PLUS),
    }
    preference_ok = True
    margins = {}
    for pid, goal in finals.items():
        rec = next(
            r
            for r in dataset.records
            if r.pipeline_id == pid and {r.object_a, r.object_b} == {goal, never_seen}
        )
        wins = rec.count_a if rec.object_a == goal else rec.count_b
        margins[pid] = wins
        preference_ok = preference_ok and wins > 50

    elapsed = time.perf_counter() - started
    ok = elapsed < 600.0 and preference_ok
    _report(
        "end-to-end desk run",
        ok,
        f"{elapsed:.0f}s, final-goal wins {margins}",
    )
    assert elapsed < 600.0
    assert preference_ok


def test_metrics_identities():
    p = np.array([1.0, 0.0, 0.0])
    u = np.full(3, 1.0 / 3.0)
    identity_ok = (
        kl_divergence(p, p) == 0.0
        and total_variation(p, p) == 0.0
        and brier_score(p, p) == 0.0
    )
    tv = total_variation(p, u)
    bs = brier_score(p, u)
    values_ok = abs(tv - 2.0 / 3.0) < 1e-12 and abs(bs - 0.2222) < 5e-5

    excluded = compute_metrics(
        [[0.2, 0.7, 0.1]], [[0.54, 0.46, 0.0]], MetricMode.THREE_WAY
    )
    threshold_ok = excluded.n_directional == 0

    ok = identity_ok and values_ok and threshold_ok
    _report(
        "metrics identities",
        ok,
        f"tv {tv:.4f}, brier {bs:.4f}, sub-threshold pair excluded {threshold_ok}",
    )
    assert identity_ok
    assert values_ok
    assert threshold_ok

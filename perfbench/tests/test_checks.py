"""The output checks catch corrupted and drifting outputs."""

import json

import numpy as np
import pytest

import checks
import inputs
from goalgen import (
    Dataset,
    PreferenceRecord,
    TrainingPipeline,
    TrainingStage,
    cli,
    enumerate_eval_pairs,
    enumerate_training_goals,
    save_dataset,
)


def _tallies(tmp_path, episodes=4):
    goal = enumerate_training_goals()[0]
    pipelines = {"solo": TrainingPipeline("solo", (TrainingStage(goal),))}
    rng = np.random.default_rng(0)
    records = []
    for a, b in enumerate_eval_pairs()[:10]:
        c = rng.multinomial(episodes, (0.4, 0.4, 0.2))
        records.append(PreferenceRecord("solo", a, b, int(c[0]), int(c[1]), int(c[2]), episodes))
    path = tmp_path / "preferences.jsonl"
    save_dataset(Dataset(pipelines, tuple(records)), path)
    return path


def test_clean_tallies_pass(tmp_path):
    assert checks.check_tallies(_tallies(tmp_path), ["solo"], 10, 4) == []


def test_corrupted_tally_file_is_caught(tmp_path):
    path = _tallies(tmp_path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[3])
    record["counts"][0] += 1
    lines[3] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    errors = checks.check_tallies(path, ["solo"], 10, 4)
    assert any("record 2" in e for e in errors)
    assert any("9 pairs" in e for e in errors)


def test_truncated_tally_file_is_caught(tmp_path):
    path = _tallies(tmp_path)
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    assert checks.check_tallies(path, ["solo"], 10, 4) == ["agent 'solo': 9 pairs, expected 10"]


def test_reference_comparison_gates():
    recorded = {
        "sha256": "ab",
        "fit_loss": 0.5,
        "floor_goal": 0.1,
        "elo": {"solo": [10.0, 0.0]},
        "sweep": [[1, 0.25]],
    }
    same = json.loads(json.dumps(recorded))
    assert checks.compare(same, recorded) == []
    drift = dict(same, fit_loss=0.5 + 1e-8, floor_goal=0.1 + 5e-7)
    assert [e.split(":")[0] for e in checks.compare(drift, recorded)] == ["fit_loss"]
    drift = dict(same, elo={"solo": [10.000003, 0.0]}, sha256="cd")
    assert [e.split(":")[0] for e in checks.compare(drift, recorded)] == ["sha256", "elo"]


def test_floor_order():
    assert checks.check_floor_order({"floor_goal": 0.1, "floor_feature": 0.2}, 0.3, 0.4) == []
    assert checks.check_floor_order({"floor_goal": 0.25, "floor_feature": 0.2}, 0.3, 0.4)
    assert checks.check_floor_order({"floor_goal": 0.1, "floor_feature": 0.2}, 0.5, 0.4)


def test_population_is_seeded(tmp_path):
    one, two = tmp_path / "1.jsonl", tmp_path / "2.jsonl"
    save_dataset(inputs.population_dataset(3, 2, 100), one)
    save_dataset(inputs.population_dataset(3, 2, 100), two)
    assert checks.sha256(one) == checks.sha256(two)
    save_dataset(inputs.population_dataset(4, 2, 100), two)
    assert checks.sha256(one) != checks.sha256(two)


@pytest.mark.xfail(
    strict=True,
    reason="goalgen elo exits 2 when an object never wins: the first-order Elo "
    "solver cannot converge within its iteration cap on separable tallies",
)
def test_elo_accepts_tallies_where_an_object_never_wins(tmp_path):
    goal = enumerate_training_goals()[0]
    pipelines = {"solo": TrainingPipeline("solo", (TrainingStage(goal),))}
    rng = np.random.default_rng(1)
    loser = enumerate_eval_pairs()[0][0]
    records = []
    for a, b in enumerate_eval_pairs():
        c = rng.multinomial(4, (0.45, 0.45, 0.1))
        if a == loser:
            c = (0, c[0] + c[1], c[2])
        records.append(PreferenceRecord("solo", a, b, int(c[0]), int(c[1]), int(c[2]), 4))
    data = tmp_path / "preferences.jsonl"
    save_dataset(Dataset(pipelines, tuple(records)), data)
    assert cli.main(["elo", "--data", str(data), "--out", str(tmp_path / "elo")]) == 0

import json

import pytest

from goalgen.dataset import (
    ChoiceDistribution,
    Dataset,
    PreferenceRecord,
    TrainingPipeline,
    TrainingStage,
    load_dataset,
    observed_rates,
    save_dataset,
)
from goalgen.errors import ValidationError
from goalgen.features import Colour, ObjectFeatures, Shape, enumerate_objects

RC = ObjectFeatures(Colour.RED, Shape.CROSS)
BD = ObjectFeatures(Colour.BLUE, Shape.DIAMOND)
GP = ObjectFeatures(Colour.GREEN, Shape.PLUS)


def two_record_dataset():
    pipes = {
        "one": TrainingPipeline("one", (TrainingStage(RC),)),
        "two": TrainingPipeline("two", (TrainingStage(BD, RC), TrainingStage(GP))),
    }
    records = (
        PreferenceRecord("one", RC, BD, 73, 27, 0, 100),
        PreferenceRecord("two", BD, GP, 10, 20, 70, 100),
    )
    return Dataset(pipes, records)


def test_observed_rates_from_counts():
    rec = PreferenceRecord("one", RC, BD, 73, 27, 0, 100)
    assert observed_rates([rec]).tolist() == [[0.73, 0.27, 0.0]]


def test_observed_rates_degenerate_none():
    rec = PreferenceRecord("one", RC, BD, 0, 0, 100, 100)
    assert observed_rates([rec]).tolist() == [[0.0, 0.0, 1.0]]


def test_observed_rates_plain_arithmetic():
    recs = [
        PreferenceRecord("one", RC, BD, 50, 30, 20, 100),
        PreferenceRecord("one", BD, GP, 1, 2, 5, 8),
    ]
    assert observed_rates(recs).tolist() == [[0.5, 0.3, 0.2], [1 / 8, 2 / 8, 5 / 8]]
    assert observed_rates([]).shape == (0, 3)


def test_count_mismatch_rejected():
    with pytest.raises(ValidationError, match="sum"):
        PreferenceRecord("one", RC, BD, 73, 27, 1, 100)


@pytest.mark.parametrize(
    "counts, episodes, shown",
    [
        (
            (10**5000, 0, 0),
            10**5000,
            "invalid counts (<5001 digits>, 0, 0) / episodes <5001 digits>",
        ),
        ((-(10**30), 0, 0), 1, "invalid counts (-<31 digits>, 0, 0) / episodes 1"),
        (
            (10**300, 0, 0),
            10**300 + 1,
            "counts (<301 digits>, 0, 0) do not sum to episodes <301 digits> ",
        ),
        (
            (10**20 - 1, 0, 0),
            10**20,
            "counts (99999999999999999999, 0, 0) do not sum to episodes <21 digits> ",
        ),
    ],
    ids=["too-large-for-a-float", "negative", "mismatch", "twenty-digits"],
)
def test_counts_errors_bound_huge_numbers(counts, episodes, shown):
    # Past 4,300 digits str() of an int raises ValueError, so the message
    # gives the number's digit count instead.
    with pytest.raises(ValidationError) as info:
        PreferenceRecord("one", RC, BD, *counts, episodes)
    assert str(info.value).startswith(shown)
    assert len(str(info.value)) < 200


def test_identical_pair_rejected():
    with pytest.raises(ValidationError, match="distinct"):
        PreferenceRecord("one", RC, RC, 50, 50, 0, 100)


def test_distractor_equal_to_goal_rejected():
    with pytest.raises(ValidationError, match="distractor"):
        TrainingStage(RC, RC)


def test_empty_pipeline_rejected():
    with pytest.raises(ValidationError, match="stages"):
        TrainingPipeline("x", ())


def test_choice_distribution_must_sum_to_one():
    with pytest.raises(ValidationError):
        ChoiceDistribution(0.5, 0.5, 0.1)


def test_dataset_resolves_pipeline_ids():
    with pytest.raises(ValidationError, match="unknown pipeline"):
        Dataset({}, (PreferenceRecord("ghost", RC, BD, 1, 0, 0, 1),))


def test_dataset_rejects_duplicate_pair_up_to_swap():
    pipes = {"one": TrainingPipeline("one", (TrainingStage(RC),))}
    with pytest.raises(ValidationError, match="duplicate"):
        Dataset(
            pipes,
            (
                PreferenceRecord("one", RC, BD, 1, 0, 0, 1),
                PreferenceRecord("one", BD, RC, 0, 1, 0, 1),
            ),
        )


def test_dataset_canonicalises_pair_order():
    pipes = {"one": TrainingPipeline("one", (TrainingStage(RC),))}
    # BD precedes RC in canonical object order
    ds = Dataset(pipes, (PreferenceRecord("one", RC, BD, 73, 27, 0, 100),))
    rec = ds.records[0]
    assert (rec.object_a, rec.object_b) == (BD, RC)
    assert (rec.count_a, rec.count_b) == (27, 73)


def test_round_trip_identity(tmp_path):
    ds = two_record_dataset()
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    assert load_dataset(path) == ds


def test_round_trip_preserves_stage_order(tmp_path):
    ds = two_record_dataset()
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    stages = loaded.pipelines["two"].stages
    assert stages[0].goal == BD and stages[0].distractor == RC
    assert stages[1].goal == GP and stages[1].distractor is None


def test_load_reports_record_index(tmp_path):
    ds = two_record_dataset()
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    bad = json.loads(lines[1])
    bad["counts"] = [73, 27, 1]
    lines[1] = json.dumps(bad)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="record 0"):
        load_dataset(path)


def test_round_trip_every_object(tmp_path):
    objects = enumerate_objects()
    stages = tuple(TrainingStage(a, b) for a, b in zip(objects[::2], objects[1::2]))
    records = tuple(
        PreferenceRecord("all", a, b, 1, 2, 3, 6) for a, b in zip(objects, objects[1:])
    )
    ds = Dataset({"all": TrainingPipeline("all", stages)}, records)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    assert load_dataset(path) == ds


@pytest.mark.parametrize(
    "obj",
    [
        {"colour": 1, "shape": "cross"},
        {"colour": ["red"], "shape": "cross"},
        {"colour": "red", "shape": "star"},
        {"colour": "red"},
        ["red", "cross"],
    ],
    ids=["int-colour", "list-colour", "unknown-shape", "missing-shape", "list"],
)
def test_load_rejects_bad_object(tmp_path, obj):
    path = save_with_object_b(tmp_path, obj)
    with pytest.raises(ValidationError) as info:
        load_dataset(path)
    message = str(info.value)
    assert message.startswith(f"record 1: bad object {obj!r} (")
    assert "\n" not in message


def test_load_accepts_extra_object_keys(tmp_path):
    path = save_with_object_b(tmp_path, {"colour": "green", "shape": "plus", "note": 1})
    assert load_dataset(path) == two_record_dataset()


def save_with_object_b(tmp_path, obj):
    """Save two_record_dataset() with record 1's object b written as ``obj``."""
    path = tmp_path / "data.jsonl"
    save_dataset(two_record_dataset(), path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["b"] = obj
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"not_pipelines": {}}\n')
    with pytest.raises(ValidationError, match="pipelines"):
        load_dataset(path)


def test_load_rejects_malformed_line(tmp_path):
    ds = two_record_dataset()
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    with path.open("a") as fh:
        fh.write("{broken\n")
    with pytest.raises(ValidationError, match="record 2"):
        load_dataset(path)


def test_full_scale_dataset_loads(tmp_path):
    # 298 pipelines x 276 pairs, the full production shape
    objects = enumerate_objects()
    pair_lines = []
    for i in range(24):
        for j in range(i + 1, 24):
            a, b = objects[i], objects[j]
            pair_lines.append(
                f'"a": {{"colour": "{a.colour.value}", "shape": "{a.shape.value}"}}, '
                f'"b": {{"colour": "{b.colour.value}", "shape": "{b.shape.value}"}}, '
                '"counts": [40, 35, 25], "episodes": 100}'
            )
    header = {
        "pipelines": {
            f"p{i:03d}": [
                {
                    "goal": {"colour": "red", "shape": "cross"},
                    "distractor": None,
                }
            ]
            for i in range(298)
        }
    }
    path = tmp_path / "big.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for i in range(298):
            prefix = f'{{"pipeline_id": "p{i:03d}", '
            for line in pair_lines:
                fh.write(prefix + line + "\n")
    ds = load_dataset(path)
    assert len(ds.records) == 82_248

import hashlib
import json

import numpy as np
import pytest

from conftest import synthetic_dataset
from goalgen.cli import load_config, main
from goalgen.dataset import load_dataset, save_dataset
from goalgen.errors import ValidationError
from goalgen.latent import load_hyperparameters


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    ds, _ = synthetic_dataset(seed=30, n_pipelines=6, n_records=48)
    path = tmp_path_factory.mktemp("data") / "prefs.jsonl"
    save_dataset(ds, path)
    return path


def fast_config(tmp_path, **extra):
    cfg = {"epochs": 1, "n_integration_steps": 30}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_1(capsys):
    assert main(["fit", "--bogus"]) == 1


def test_missing_required_flag_exits_1():
    assert main(["fit"]) == 1


def test_config_schema_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"epochz": 3}')
    with pytest.raises(ValidationError, match="unknown config keys"):
        load_config(path)
    path.write_text('{"epochs": "three"}')
    with pytest.raises(ValidationError, match="must be int"):
        load_config(path)


def test_fit_writes_outputs(tmp_path, data_file):
    out = tmp_path / "run"
    code = main(
        [
            "fit",
            "--variant", "full",
            "--data", str(data_file),
            "--out", str(out),
            "--config", str(fast_config(tmp_path)),
        ]
    )
    assert code == 0
    hp = load_hyperparameters(out / "hyperparameters.json")
    assert hp.saliency.shape == (10, 10)
    report = json.loads((out / "fit_report.json").read_text())
    assert report["variant"] == "full"
    assert report["n_examples"] == 48
    diagnostics = report["diagnostics"]
    assert len(diagnostics["loss_trajectory"]) == diagnostics["n_updates"]
    assert len(diagnostics["gradient_norm_trajectory"]) == diagnostics["n_updates"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(data_file) in manifest["inputs"]


def test_eval_transfer_plan(tmp_path, data_file):
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps({"train": {"stage_count": 1}, "eval": {"stage_count": 2}})
    )
    out = tmp_path / "eval"
    code = main(
        [
            "eval",
            "--data", str(data_file),
            "--plan", str(plan),
            "--out", str(out),
            "--config", str(fast_config(tmp_path)),
        ]
    )
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("variant,evaluation,mode,kl")
    assert len(lines) == 3
    report = json.loads((out / "transfer_report.json").read_text())
    assert "eval_loss" in report


def test_eval_plan_with_no_matches_exits_1(tmp_path, data_file, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps({"train": {"stage_count": 1}, "eval": {"stage_count": 9}})
    )
    code = main(
        [
            "eval",
            "--data", str(data_file),
            "--plan", str(plan),
            "--out", str(tmp_path / "none"),
            "--config", str(fast_config(tmp_path)),
        ]
    )
    assert code == 1
    assert "filter" in capsys.readouterr().err


def test_eval_kfold_plan(tmp_path, data_file):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"k": 2}))
    out = tmp_path / "kfold"
    code = main(
        [
            "eval",
            "--data", str(data_file),
            "--plan", str(plan),
            "--out", str(out),
            "--config", str(fast_config(tmp_path)),
        ]
    )
    assert code == 0
    lines = (out / "kfold.csv").read_text().splitlines()
    assert lines[0] == "fold,loss"
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("se,")


def test_elo_command(tmp_path):
    # dense per-agent coverage, as produced by the rollout harness
    from goalgen.dataset import Dataset, PreferenceRecord, TrainingPipeline, TrainingStage
    from goalgen.features import enumerate_eval_pairs, enumerate_objects

    objs = enumerate_objects()
    pipes = {
        "p0": TrainingPipeline("p0", (TrainingStage(objs[7]),)),
        "p1": TrainingPipeline("p1", (TrainingStage(objs[9]),)),
    }
    records = tuple(
        PreferenceRecord(pid, a, b, 40, 35, 25, 100)
        for pid in pipes
        for a, b in enumerate_eval_pairs()
    )
    data = tmp_path / "dense.jsonl"
    save_dataset(Dataset(pipes, records), data)

    out = tmp_path / "elo"
    code = main(["elo", "--data", str(data), "--out", str(out), "--folds", "4"])
    assert code == 0
    for pid in pipes:
        assert (out / f"elo_{pid}.csv").exists()
        marg = (out / f"elo_marginalised_{pid}.csv").read_text().splitlines()
        assert len(marg) == 11  # header + all 10 features
    holdout = (out / "elo_holdout.csv").read_text().splitlines()
    assert holdout[0].startswith("pipeline_id,kl")
    assert len(holdout) == 3
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert sorted(diagnostics) == sorted(pipes)
    for fit in diagnostics.values():
        assert type(fit["iterations"]) is int and fit["iterations"] > 0
        assert 0.0 < fit["final_step"] < 1e-6


def test_elo_sparse_pipeline_keeps_its_tables_but_loses_its_holdout_row(tmp_path):
    # Each "sparse" record is the only one with its two objects, so every
    # held-out record involves objects its fold never scored.
    from goalgen.dataset import Dataset, PreferenceRecord, TrainingPipeline, TrainingStage
    from goalgen.features import enumerate_eval_pairs, enumerate_objects

    objs = enumerate_objects()
    pipes = {
        pid: TrainingPipeline(pid, (TrainingStage(objs[7]),)) for pid in ("dense", "sparse")
    }
    records = [
        PreferenceRecord("dense", a, b, 40, 35, 25, 100) for a, b in enumerate_eval_pairs()
    ]
    records += [
        PreferenceRecord("sparse", objs[i], objs[i + 1], 50, 30, 20, 100)
        for i in range(0, 8, 2)
    ]
    data = tmp_path / "sparse.jsonl"
    save_dataset(Dataset(pipes, tuple(records)), data)

    out = tmp_path / "elo"
    assert main(["elo", "--data", str(data), "--out", str(out), "--folds", "4"]) == 0
    table = (out / "elo_sparse.csv").read_text().splitlines()
    assert len(table) == 1 + 8 + 1  # header, the 8 objects seen, no-goal
    assert len((out / "elo_marginalised_sparse.csv").read_text().splitlines()) > 1
    holdout = (out / "elo_holdout.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in holdout[1:]] == ["dense"]
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert sorted(diagnostics) == ["dense", "sparse"]


def test_sweep_dim_command(tmp_path, data_file):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep-dim",
            "--data", str(data_file),
            "--dims", "2,4",
            "--out", str(out),
            "--config", str(fast_config(tmp_path)),
        ]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "d,loss"
    assert len(lines) == 3


def test_project_command(tmp_path, data_file):
    fit_out = tmp_path / "fit4proj"
    main(
        [
            "fit",
            "--data", str(data_file),
            "--out", str(fit_out),
            "--config", str(fast_config(tmp_path)),
        ]
    )
    ds = load_dataset(data_file)
    pid = sorted(ds.pipelines)[0]
    out = tmp_path / "proj"
    code = main(
        [
            "project",
            "--hp", str(fit_out / "hyperparameters.json"),
            "--data", str(data_file),
            "--pipeline", pid,
            "--out", str(out),
        ]
    )
    assert code == 0
    trace = json.loads((out / f"projection_{pid}.json").read_text())
    assert trace["pipeline"] == pid
    # each projected point satisfies its stage's equilibrium value
    for entry in trace["trace"][1:]:
        assert entry["goal_value"] == pytest.approx(
            entry["goal_value"], abs=1e-9
        )
    assert len(trace["trace"]) == len(ds.pipelines[pid].stages) + 1


def test_gen_data_command(tmp_path):
    pipelines = {
        "pipelines": {
            "demo": [
                {"goal": {"colour": "red", "shape": "cross"}, "distractor": None}
            ]
        }
    }
    pfile = tmp_path / "pipes.json"
    pfile.write_text(json.dumps(pipelines))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodes_per_stage": 120, "eval_episodes": 5}))
    out = tmp_path / "gen"
    code = main(
        [
            "gen-data",
            "--pipelines", str(pfile),
            "--out", str(out),
            "--config", str(cfg),
            "--max-pairs", "4",
        ]
    )
    assert code == 0
    ds = load_dataset(out / "preferences.jsonl")
    assert len(ds.records) == 4
    assert all(r.episodes == 5 for r in ds.records)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {
        str(pfile): hashlib.sha256(pfile.read_bytes()).hexdigest(),
        str(cfg): hashlib.sha256(cfg.read_bytes()).hexdigest(),
    }
    # every DeskPolicyParameters field, so the run can be rebuilt
    params = manifest["parameters"]
    assert params["desk_learning_rate"] == 0.05
    assert params["episodes_per_stage"] == 120
    assert params["baseline_decay"] == 0.99
    assert params["eval_episodes"] == 5


def test_check_command_passes(tmp_path, capsys):
    code = main(["check", "--out", str(tmp_path / "chk")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 5
    assert (tmp_path / "chk" / "manifest.json").exists()


def test_numerical_failure_exits_2(tmp_path, data_file, capsys):
    cfg = fast_config(tmp_path, epochs=2, learning_rate=1e150)
    code = main(
        [
            "fit",
            "--data", str(data_file),
            "--out", str(tmp_path / "boom"),
            "--config", str(cfg),
        ]
    )
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_project_unknown_pipeline_exits_1(tmp_path, data_file):
    fit_out = tmp_path / "fit4proj2"
    main(
        [
            "fit",
            "--data", str(data_file),
            "--out", str(fit_out),
            "--config", str(fast_config(tmp_path)),
        ]
    )
    code = main(
        [
            "project",
            "--hp", str(fit_out / "hyperparameters.json"),
            "--data", str(data_file),
            "--pipeline", "nope",
            "--out", str(tmp_path / "nothing"),
        ]
    )
    assert code == 1


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err.strip()
    assert "\n" not in err, err
    assert err.startswith("error: "), err
    for fragment in fragments:
        assert fragment in err, err


GOALLESS_STAGE = {"pipelines": {"demo": [{"distractor": None}]}}
LIST_PIPELINES = {"pipelines": [{"goal": {"colour": "red", "shape": "cross"}}]}


@pytest.mark.parametrize(
    "header, fragments",
    [(GOALLESS_STAGE, ("stage 0", "'goal'")), (LIST_PIPELINES, ("'pipelines'", "list"))],
    ids=["stage-without-goal", "pipelines-list"],
)
def test_bad_pipelines_file_exits_1(tmp_path, capsys, header, fragments):
    pfile = tmp_path / "pipes.json"
    pfile.write_text(json.dumps(header))
    code = main(["gen-data", "--pipelines", str(pfile), "--out", str(tmp_path / "gen")])
    assert code == 1
    assert_one_line_error(capsys, str(pfile), *fragments)


@pytest.mark.parametrize(
    "header, fragments",
    [(GOALLESS_STAGE, ("stage 0", "'goal'")), (LIST_PIPELINES, ("'pipelines'", "list"))],
    ids=["stage-without-goal", "pipelines-list"],
)
def test_bad_dataset_header_exits_1(tmp_path, capsys, header, fragments):
    data = tmp_path / "prefs.jsonl"
    data.write_text(json.dumps(header) + "\n")
    code = main(["fit", "--data", str(data), "--out", str(tmp_path / "fit")])
    assert code == 1
    assert_one_line_error(capsys, str(data), *fragments)


def test_missing_data_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "absent.jsonl"
    code = main(["fit", "--data", str(missing), "--out", str(tmp_path / "fit")])
    assert code == 1
    assert_one_line_error(capsys, "data file not found", str(missing))


def test_missing_plan_file_exits_1(tmp_path, data_file, capsys):
    missing = tmp_path / "absent-plan.json"
    code = main(
        ["eval", "--data", str(data_file), "--plan", str(missing), "--out", str(tmp_path / "ev")]
    )
    assert code == 1
    assert_one_line_error(capsys, "plan file not found", str(missing))


def test_config_file_is_a_digested_input(tmp_path, data_file):
    cfg = fast_config(tmp_path)
    out = tmp_path / "fitcfg"
    code = main(
        ["fit", "--data", str(data_file), "--out", str(out), "--config", str(cfg)]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"][str(cfg)] == hashlib.sha256(cfg.read_bytes()).hexdigest()


TRANSFER_EVAL = {"stage_count": 2}
BAD_PLANS = {
    "string-k": ({"k": "4"}, "'k'"),
    "bool-k": ({"k": True}, "'k'"),
    "not-an-object": (5, "JSON object"),
    "string-seed": ({"k": 2, "seed": "x"}, "'seed'"),
    "string-stage-count": (
        {"train": {"stage_count": "1"}, "eval": TRANSFER_EVAL},
        "'stage_count'",
    ),
    "int-has-distractor": (
        {"train": {"has_distractor": 1}, "eval": TRANSFER_EVAL},
        "'has_distractor'",
    ),
    "string-ids": ({"train": {"ids": "p000"}, "eval": TRANSFER_EVAL}, "'ids'"),
    "int-ids": ({"train": {"ids": [0]}, "eval": TRANSFER_EVAL}, "'ids'"),
    "list-filter": ({"train": [1], "eval": TRANSFER_EVAL}, "JSON object"),
}


@pytest.mark.parametrize("plan_doc, fragment", BAD_PLANS.values(), ids=list(BAD_PLANS))
def test_bad_plan_exits_1(tmp_path, data_file, capsys, plan_doc, fragment):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_doc))
    code = main(
        [
            "eval",
            "--data", str(data_file),
            "--plan", str(plan),
            "--out", str(tmp_path / "ev"),
            "--config", str(fast_config(tmp_path)),
        ]
    )
    assert code == 1
    assert_one_line_error(capsys, str(plan), fragment)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"batch_size": true}', "batch_size"),
        ('{"epochs": false}', "epochs"),
        ('{"learning_rate": true}', "learning_rate"),
        ('{"learning_rate": NaN}', "learning_rate"),
        ('{"adam_beta1": Infinity}', "adam_beta1"),
        pytest.param(
            '{"learning_rate": ' + "1" * 401 + "}",
            "learning_rate",
            id="int-too-large-for-a-float",
        ),
    ],
)
def test_bool_or_non_finite_config_value_exits_1(tmp_path, data_file, capsys, text, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    code = main(
        ["fit", "--data", str(data_file), "--out", str(tmp_path / "fit"), "--config", str(cfg)]
    )
    assert code == 1
    assert_one_line_error(capsys, str(cfg), repr(key))


def hp_document(**changes):
    doc = {
        "variant": "full",
        "d": 2,
        "saliency": np.eye(10, 2).ravel().tolist(),
        "log_tau": 0.0,
        "w0": 0.0,
    }
    doc.update(changes)
    return doc


BAD_HP_DOCUMENTS = {
    "list": ([1], "JSON object"),
    "number": (5, "JSON object"),
    "nan-w0": (hp_document(w0=float("nan")), "'w0'"),
    "float-d": (hp_document(d=10.7), "'d'"),
    "bool-log-tau": (hp_document(log_tau=True), "'log_tau'"),
    "string-saliency": (hp_document(saliency=["1"] * 20), "'saliency'"),
}


@pytest.mark.parametrize(
    "document, fragment", BAD_HP_DOCUMENTS.values(), ids=list(BAD_HP_DOCUMENTS)
)
def test_bad_hyperparameter_document_exits_1(tmp_path, data_file, capsys, document, fragment):
    hp_file = tmp_path / "hp.json"
    hp_file.write_text(json.dumps(document))
    pid = sorted(load_dataset(data_file).pipelines)[0]
    code = main(
        [
            "project",
            "--hp", str(hp_file),
            "--data", str(data_file),
            "--pipeline", pid,
            "--out", str(tmp_path / "proj"),
        ]
    )
    assert code == 1
    assert_one_line_error(capsys, fragment)
    assert not (tmp_path / "proj").exists()


def record_line(**changes):
    doc = {
        "pipeline_id": "demo",
        "a": {"colour": "red", "shape": "cross"},
        "b": {"colour": "green", "shape": "circle"},
        "counts": [89, 11, 0],
        "episodes": 100,
    }
    doc.update(changes)
    return doc


BAD_RECORD_LINES = {
    "string-count": (record_line(counts=["x", 11, 0]), "'counts'"),
    "list-pipeline-id": (record_line(pipeline_id=["demo"]), "'pipeline_id'"),
    "string-counts-and-episodes": (
        record_line(counts=["89", "11", "0"], episodes="100"),
        "'counts'",
    ),
    "string-episodes": (record_line(episodes="100"), "'episodes'"),
    "four-counts": (record_line(counts=[89, 11, 0, 0]), "'counts'"),
    "bool-count": (record_line(counts=[True, 0, 0], episodes=1), "'counts'"),
    "missing-key": ({"pipeline_id": "demo"}, "'episodes'"),
    "not-an-object": ([1, 2], "expected an object"),
}


@pytest.mark.parametrize(
    "record, fragment", BAD_RECORD_LINES.values(), ids=list(BAD_RECORD_LINES)
)
def test_bad_record_line_exits_1(tmp_path, capsys, record, fragment):
    header = {"pipelines": {"demo": [{"goal": {"colour": "red", "shape": "cross"}}]}}
    data = tmp_path / "prefs.jsonl"
    data.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    code = main(
        [
            "fit",
            "--data", str(data),
            "--out", str(tmp_path / "fit"),
            "--config", str(fast_config(tmp_path)),
        ]
    )
    assert code == 1
    assert_one_line_error(capsys, "record 0", fragment)

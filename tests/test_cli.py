import dataclasses
import hashlib
import json
import sys

import numpy as np
import pytest

from conftest import population_dataset, synthetic_dataset
from goalgen import elo, fitting, selfcheck
from goalgen.agent import DeskPolicyParameters, evaluate_preferences, train_desk_agent
from goalgen.cli import fit_config_from, load_config, main
from goalgen.dataset import load_dataset, load_pipelines, save_dataset
from goalgen.errors import ValidationError
from goalgen.features import enumerate_eval_pairs
from goalgen.fitting import FitConfig
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
    # Finite differences are an oracle in selfcheck, not a fit option.
    path.write_text('{"gradient_mode": "adjoint"}')
    with pytest.raises(ValidationError, match="unknown config keys"):
        load_config(path)


def test_every_fit_config_field_is_a_config_key(tmp_path):
    # A value off each default: halved floats stay in range, ints grow by 1.
    changed = {}
    for f in dataclasses.fields(FitConfig):
        value = getattr(FitConfig(), f.name)
        changed[f.name] = value / 2 if isinstance(value, float) else value + 1
    del changed["rng_seed"]
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(changed))
    config = fit_config_from(load_config(path), seed=3)
    assert config == FitConfig(rng_seed=3, **changed)
    # --seed sets the fit's seed; the config cannot.
    path.write_text('{"rng_seed": 3}')
    with pytest.raises(ValidationError, match="unknown config keys"):
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


@pytest.mark.parametrize(
    "plan, fits",
    [
        ({"k": 2}, ["fold 0", "fold 1"]),
        ({"train": {"stage_count": 1}, "eval": {"stage_count": 2}}, ["transfer"]),
    ],
    ids=["kfold", "transfer"],
)
def test_eval_manifest_reports_each_fit(tmp_path, data_file, plan, fits):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    out = tmp_path / "eval"
    code = main(
        [
            "eval",
            "--data", str(data_file),
            "--plan", str(plan_file),
            "--out", str(out),
            "--config", str(fast_config(tmp_path)),
        ]
    )
    assert code == 0
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert sorted(diagnostics) == fits
    for fit in diagnostics.values():
        assert sorted(fit) == ["final_gradient_norm", "n_updates", "train_loss"]
        assert fit["n_updates"] == 1  # fewer than 64 training records
        assert fit["final_gradient_norm"] > 0.0
        assert fit["train_loss"] > 0.0
    if fits == ["transfer"]:
        report = json.loads((out / "transfer_report.json").read_text())
        assert diagnostics["transfer"]["train_loss"] == report["train_loss"]


@pytest.mark.parametrize("filters", [{"train": {}}, {"eval": {}}, {"train": {}, "eval": {}}])
def test_eval_rejects_k_with_filters(tmp_path, data_file, capsys, filters):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"k": 2, **filters}))
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
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "k alone or both train and eval" in err[0]
    assert not out.exists()


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


def test_elo_sparse_pipeline_keeps_its_tables_but_loses_its_holdout_row(
    tmp_path, capsys
):
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
    assert "wrote Elo tables for 2 agents" in capsys.readouterr().out
    table = (out / "elo_sparse.csv").read_text().splitlines()
    assert len(table) == 1 + 8 + 1  # header, the 8 objects seen, no-goal
    assert len((out / "elo_marginalised_sparse.csv").read_text().splitlines()) > 1
    holdout = (out / "elo_holdout.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in holdout[1:]] == ["dense"]
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert sorted(diagnostics) == ["dense", "sparse"]


@pytest.mark.parametrize("folds", ["1", "0", "-3"])
def test_elo_rejects_fewer_than_two_folds(tmp_path, data_file, capsys, folds):
    out = tmp_path / "elo"
    code = main(["elo", "--data", str(data_file), "--out", str(out), "--folds", folds])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: --folds must be at least 2, got {folds}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["gen-data", "elo", "fit", "eval", "sweep-dim", "check"]
)
def test_negative_seed_exits_1(tmp_path, data_file, capsys, command):
    pipelines = tmp_path / "pipes.json"
    stage = {"goal": {"colour": "red", "shape": "cross"}, "distractor": None}
    pipelines.write_text(json.dumps({"pipelines": {"demo": [stage]}}))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"k": 2}))
    inputs = {
        "gen-data": ["--pipelines", str(pipelines)],
        "eval": ["--data", str(data_file), "--plan", str(plan)],
        "check": [],
    }.get(command, ["--data", str(data_file)])
    out = tmp_path / "out"
    assert main([command, *inputs, "--out", str(out), "--seed", "-1"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: --seed must be at least 0, got -1"]
    assert not out.exists()


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
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert sorted(diagnostics) == ["2", "4"]
    for line in lines[1:]:
        d, loss = line.split(",")
        fit = diagnostics[d]
        assert sorted(fit) == ["final_gradient_norm", "n_updates", "train_loss"]
        assert fit["n_updates"] == 1  # 48 records in one batch of 64
        assert fit["final_gradient_norm"] > 0.0
        assert f"{fit['train_loss']:.6f}" == loss


@pytest.mark.parametrize(
    "command, key, huge",
    [
        pytest.param("sweep-dim", "latent_dim", 10**12, id="sweep-dim"),
        pytest.param("fit", "latent_dim", 10**12, id="fit"),
        pytest.param("sweep-dim", "latent_dim", 10**20, id="sweep-dim-1e20"),
        pytest.param("fit", "latent_dim", 10**18, id="fit-latent_dim-1e18"),
        pytest.param("fit", "latent_dim", 10**20, id="fit-latent_dim-1e20"),
        pytest.param("fit", "n_integration_steps", 10**18, id="fit-steps-1e18"),
        pytest.param("fit", "n_integration_steps", 10**20, id="fit-steps-1e20"),
        pytest.param("fit", "epochs", 10**18, id="fit-epochs-1e18"),
        pytest.param("fit", "epochs", 10**20, id="fit-epochs-1e20"),
        pytest.param("fit", None, None, id="fit-bare-MemoryError"),
    ],
)
def test_allocation_failure_exits_1(
    tmp_path, data_file, capsys, monkeypatch, command, key, huge
):
    # numpy refuses a 9 TiB saliency mask at once, and sizes it cannot even
    # address (array too big, dimension too large) too, so this takes no memory.
    if key is None:  # a MemoryError with no message to show

        def bare(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(fitting, "fit_hyperparameters", bare)
        extra = ["--config", str(fast_config(tmp_path))]
    elif command == "sweep-dim":
        extra = ["--dims", f"1,{huge}", "--config", str(fast_config(tmp_path))]
    else:
        extra = ["--config", str(fast_config(tmp_path, **{key: huge}))]
    out = tmp_path / "out"
    code = main([command, "--data", str(data_file), "--out", str(out), *extra])
    assert code == 1
    if key is None:
        assert capsys.readouterr().err == "error: out of memory\n"
    else:
        assert_one_line_error(capsys, "out of memory", "Unable to allocate")
    assert not out.exists()


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
    defaults = DeskPolicyParameters()
    assert params["desk_learning_rate"] == defaults.learning_rate
    assert params["episodes_per_stage"] == 120
    assert params["baseline_decay"] == defaults.baseline_decay
    assert params["eval_episodes"] == 5


@pytest.mark.parametrize("max_pairs", ["0", "-1"])
def test_gen_data_rejects_max_pairs_below_one(tmp_path, capsys, max_pairs):
    pfile = tmp_path / "pipes.json"
    stage = {"goal": {"colour": "red", "shape": "cross"}, "distractor": None}
    pfile.write_text(json.dumps({"pipelines": {"demo": [stage]}}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodes_per_stage": 20, "eval_episodes": 1}))
    out = tmp_path / "gen"
    argv = ["gen-data", "--pipelines", str(pfile), "--out", str(out),
            "--config", str(cfg), "--max-pairs", max_pairs]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: --max-pairs must be at least 1, got {max_pairs}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, allowed",
    [
        ("eval_episodes", 0, "at least 1"),
        ("eval_episodes", -1, "at least 1"),
        ("episodes_per_stage", -1, "at least 0"),
        ("wall_prob", 1.5, "in [0, 1)"),
        ("wall_prob", 1.0, "in [0, 1)"),
        ("wall_prob", -0.5, "in [0, 1)"),
        ("baseline_decay", 2.0, "in [0, 1]"),
        ("baseline_decay", -0.1, "in [0, 1]"),
        ("desk_learning_rate", -0.5, "at least 0"),
    ],
)
def test_gen_data_rejects_desk_config_out_of_range(tmp_path, capsys, key, value, allowed):
    pfile = tmp_path / "pipes.json"
    stage = {"goal": {"colour": "red", "shape": "cross"}, "distractor": None}
    pfile.write_text(json.dumps({"pipelines": {"demo": [stage]}}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodes_per_stage": 20, "eval_episodes": 1, key: value}))
    out = tmp_path / "gen"
    argv = ["gen-data", "--pipelines", str(pfile), "--out", str(out),
            "--config", str(cfg), "--max-pairs", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        f"error: {cfg}: config key {key!r} must be {allowed}, got {value}"
    ]
    assert "training" not in captured.out
    assert not out.exists()


def test_gen_data_accepts_desk_config_range_ends(tmp_path):
    pfile = tmp_path / "pipes.json"
    stage = {"goal": {"colour": "red", "shape": "cross"}, "distractor": None}
    pfile.write_text(json.dumps({"pipelines": {"demo": [stage]}}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"episodes_per_stage": 0, "eval_episodes": 1, "wall_prob": 0.0, "baseline_decay": 1.0,
         "desk_learning_rate": 0.0}
    ))
    argv = ["gen-data", "--pipelines", str(pfile), "--out", str(tmp_path / "gen"),
            "--config", str(cfg), "--max-pairs", "2"]
    assert main(argv) == 0
    assert len(load_dataset(tmp_path / "gen" / "preferences.jsonl").records) == 2


def test_gen_data_evaluates_every_agent_like_one_at_a_time(tmp_path):
    stages = {
        "zz": [{"goal": {"colour": "red", "shape": "cross"}, "distractor": None}],
        "aa": [{"goal": {"colour": "blue", "shape": "ring"},
                "distractor": {"colour": "green", "shape": "diamond"}}],
    }
    pfile = tmp_path / "pipes.json"
    pfile.write_text(json.dumps({"pipelines": stages}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodes_per_stage": 60, "eval_episodes": 3}))
    out = tmp_path / "gen"
    argv = ["gen-data", "--pipelines", str(pfile), "--out", str(out),
            "--config", str(cfg), "--max-pairs", "6", "--seed", "4"]
    assert main(argv) == 0
    records = load_dataset(out / "preferences.jsonl").records
    pipelines = load_pipelines(pfile)
    params = DeskPolicyParameters(episodes_per_stage=60)
    expected = []
    for pid in ("aa", "zz"):
        trained = train_desk_agent(pipelines[pid], params, rng_seed=4)
        expected += evaluate_preferences(
            trained, enumerate_eval_pairs()[:6], 3, rng_seed=4, pipeline_id=pid
        )
    assert list(records) == expected


@pytest.mark.parametrize("seed", [0, 1])
def test_check_command_passes(tmp_path, capsys, seed):
    code = main(["check", "--seed", str(seed), "--out", str(tmp_path / "chk")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 6  # five oracles and the metric identities
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


@pytest.mark.parametrize("command", ["check", "fit", "elo"])
def test_out_naming_a_file_exits_1(tmp_path, data_file, capsys, monkeypatch, command):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    args = []
    if command == "fit":
        args = ["--data", str(data_file), "--config", str(fast_config(tmp_path))]
    elif command == "elo":  # dense tallies, on which the Elo descent converges
        save_dataset(population_dataset(seed=7, n_pipelines=2), tmp_path / "pop.jsonl")
        args = ["--data", str(tmp_path / "pop.jsonl")]

    def never(*args, **kwargs):
        raise AssertionError("the command ran before its --out was checked")

    # The output path is checked before any of the command's work.
    monkeypatch.setattr(fitting, "fit_hyperparameters", never)
    monkeypatch.setattr(elo, "fit_elo_many", never)
    monkeypatch.setattr(selfcheck, "run_self_checks", never)
    before = sorted(tmp_path.iterdir())
    for out in (taken, taken / "run"):
        assert main([command, *args, "--out", str(out)]) == 1
        assert_one_line_error(capsys, str(out), f"{taken} is not a directory")
    assert sorted(tmp_path.iterdir()) == before
    assert taken.read_text() == "not a directory\n"


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


def file_flag_argv(flag, path, data_file, out):
    """A run whose only unusable input is ``path`` given as ``flag``."""
    command = {"--hp": "project", "--config": "fit", "--plan": "eval"}[flag]
    argv = [command, flag, str(path), "--data", str(data_file), "--out", str(out)]
    if flag == "--hp":
        argv += ["--pipeline", "p000"]
    if flag == "--plan":
        argv += ["--config", str(fast_config(out.parent))]
    return argv


@pytest.mark.parametrize("flag", ["--hp", "--config", "--plan"])
@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_input_file_exits_1(tmp_path, data_file, capsys, flag, case):
    path = tmp_path / "input.json"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b'{"k": "\xff\xfe"}')
    out = tmp_path / "out"
    assert main(file_flag_argv(flag, path, data_file, out)) == 1
    what = {"--hp": "hyperparameters", "--config": "config", "--plan": "plan"}[flag]
    if case == "missing":
        assert_one_line_error(capsys, f"{what} file not found: {path}")
    else:
        assert_one_line_error(capsys, f"{path}: cannot read {what} file")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--hp", "--config", "--plan"])
@pytest.mark.parametrize(
    "text",
    [
        pytest.param("{", id="truncated"),
        pytest.param("[" * 100_000, id="deep"),
        # Pythons from 3.10.7 refuse to decode integers past 4,300 digits.
        pytest.param(
            "[" + "1" * 5000 + "]",
            id="long-integer",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="no integer digit limit",
            ),
        ),
    ],
)
def test_malformed_input_json_exits_1(tmp_path, data_file, capsys, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main(file_flag_argv(flag, path, data_file, tmp_path / "out")) == 1
    assert_one_line_error(capsys, str(path), "malformed", "JSON")


@pytest.mark.parametrize("dims", ["0", "0-3", "2,0"])
def test_sweep_dim_rejects_dims_below_one(tmp_path, data_file, capsys, dims):
    out = tmp_path / "sweep"
    code = main(["sweep-dim", "--data", str(data_file), "--dims", dims, "--out", str(out)])
    assert code == 1
    assert_one_line_error(capsys, "latent dims must be at least 1", "got 0")
    assert not out.exists()


def test_sweep_dim_rejects_a_repeated_dim(tmp_path, data_file, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep-dim", "--data", str(data_file), "--dims", "4,1,4", "--out", str(out)])
    assert code == 1
    assert_one_line_error(capsys, "--dims", "dimension 4", "more than once")
    assert not out.exists()


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
    "quadratic-d": (hp_document(variant="quadratic", d=3, saliency=[1.0] * 65), "'d'"),
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


@pytest.mark.parametrize("command", ["fit", "elo"])
def test_episodes_too_large_for_a_float_exits_1(tmp_path, capsys, command):
    # Rates divide by episodes as a float, and 10**400 overflows one.
    header = {"pipelines": {"demo": [{"goal": {"colour": "red", "shape": "cross"}}]}}
    record = record_line(counts=[10**400, 0, 0], episodes=10**400)
    data = tmp_path / "prefs.jsonl"
    data.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    out = tmp_path / "out"
    assert main([command, "--data", str(data), "--out", str(out)]) == 1
    assert_one_line_error(capsys, "record 0", "invalid counts")
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "elo"])
def test_huge_episodes_error_is_one_short_line(tmp_path, capsys, command):
    # A 4,000-digit episodes count used to be printed in full.
    header = {"pipelines": {"demo": [{"goal": {"colour": "red", "shape": "cross"}}]}}
    record = record_line(counts=[10**3999, 0, 0], episodes=10**3999)
    data = tmp_path / "prefs.jsonl"
    data.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    assert main([command, "--data", str(data), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: record 0: invalid counts (<4000 digits>, 0, 0) / episodes <4000 digits>"
    )
    assert err.count("\n") == 1 and len(err) < 200, err

"""Command-line interface tying the toolkit into reproducible runs.

Subcommands: gen-data (train desk agents, emit preference JSONL), elo
(fit + marginalise + holdout report), fit (variant fit to JSON), eval
(K-fold or transfer per a plan file), sweep-dim, project (closed-form
projection trace), and check (gradient and oracle self-tests). Every run
writes a manifest with input digests. Exit codes: 0 success, 1 validation
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import agent as agent_mod
from . import elo as elo_mod
from . import fitting, harness, latent
from .dataset import Dataset, load_dataset, load_pipelines, save_dataset
from .errors import NumericalError, ValidationError
from .features import enumerate_eval_pairs
from .fitting import FitConfig, ModelVariant

_CONFIG_SCHEMA: dict[str, type] = {
    # outer fit
    "learning_rate": float,
    "batch_size": int,
    "epochs": int,
    "adam_beta1": float,
    "adam_beta2": float,
    "n_integration_steps": int,
    "gradient_mode": str,
    "latent_dim": int,
    # desk agent / environment
    "desk_learning_rate": float,
    "episodes_per_stage": int,
    "baseline_decay": float,
    "eval_episodes": int,
    "wall_prob": float,
}


def load_config(path: str | Path | None) -> dict:
    """Load and validate the run configuration document."""
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ValidationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed config JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    unknown = set(data) - set(_CONFIG_SCHEMA)
    if unknown:
        raise ValidationError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, value in list(data.items()):
        expected = _CONFIG_SCHEMA[key]
        # Exact types: a JSON true/false is a bool, which is an int subclass.
        if expected is float and type(value) is int:
            try:
                data[key] = value = float(value)
            except OverflowError:
                value = math.inf  # too large for a float: rejected below
        if type(value) is not expected:
            raise ValidationError(
                f"{path}: config key {key!r} must be {expected.__name__}"
            )
        if expected is float and not math.isfinite(value):
            raise ValidationError(f"{path}: config key {key!r} must be finite")
    return data


def fit_config_from(config: dict, seed: int) -> FitConfig:
    keys = (
        "learning_rate",
        "batch_size",
        "epochs",
        "adam_beta1",
        "adam_beta2",
        "n_integration_steps",
        "gradient_mode",
        "latent_dim",
    )
    kwargs = {k: config[k] for k in keys if k in config}
    return FitConfig(rng_seed=seed, **kwargs)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract is exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="goalgen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--out", type=Path, default=Path("out"))

    p = sub.add_parser("gen-data", help="train desk agents and emit preference data")
    common(p)
    p.add_argument("--pipelines", type=Path, required=True,
                   help="JSON file with a 'pipelines' map of id -> stage list")
    p.add_argument("--max-pairs", type=int, default=None,
                   help="evaluate only the first N canonical pairs")

    p = sub.add_parser("elo", help="fit anchored Elo tables per agent")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--folds", type=int, default=4)

    p = sub.add_parser("fit", help="fit a model variant")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--variant", default="full",
                   choices=[v.value for v in ModelVariant])

    p = sub.add_parser("eval", help="run a K-fold or transfer evaluation plan")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--plan", type=Path, required=True)
    p.add_argument("--variant", default="full",
                   choices=[v.value for v in ModelVariant])

    p = sub.add_parser("sweep-dim", help="sweep the latent dimension")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--dims", default="1-32", help="range like 1-32 or list like 1,2,4")

    p = sub.add_parser("project", help="closed-form projection trace for a pipeline")
    common(p)
    p.add_argument("--hp", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--pipeline", required=True)

    p = sub.add_parser("check", help="run gradient and oracle self-tests")
    common(p)
    return parser


def _parse_dims(text: str) -> list[int]:
    try:
        if "-" in text:
            lo, hi = text.split("-")
            return list(range(int(lo), int(hi) + 1))
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad --dims value {text!r}") from exc


def _write_manifest(
    args, parameters: dict, inputs: list[Path], diagnostics: dict | None = None
) -> None:
    """Write the run manifest; a --config file is digested with the inputs."""
    if args.config is not None:
        inputs = [*inputs, args.config]
    harness.write_manifest(
        args.out, args.command, parameters, args.seed, inputs, diagnostics
    )


def _cmd_gen_data(args, config: dict) -> int:
    pipelines = load_pipelines(args.pipelines)
    pairs = enumerate_eval_pairs()
    if args.max_pairs is not None:
        pairs = pairs[: args.max_pairs]
    params = agent_mod.DeskPolicyParameters(
        learning_rate=config.get("desk_learning_rate", 0.05),
        episodes_per_stage=config.get("episodes_per_stage", 2000),
        baseline_decay=config.get("baseline_decay", 0.99),
    )
    wall_prob = config.get("wall_prob", 0.2)
    eval_episodes = config.get("eval_episodes", 100)

    args.out.mkdir(parents=True, exist_ok=True)
    records = []
    for pid in sorted(pipelines):
        print(f"training agent for pipeline {pid} ...", flush=True)
        trained = agent_mod.train_desk_agent(
            pipelines[pid], params, rng_seed=args.seed, wall_prob=wall_prob
        )
        records.extend(
            agent_mod.evaluate_preferences(
                trained,
                pairs,
                episodes_per_pair=eval_episodes,
                rng_seed=args.seed,
                pipeline_id=pid,
                wall_prob=wall_prob,
            )
        )
    dataset = Dataset(pipelines, tuple(records))
    out_file = args.out / "preferences.jsonl"
    save_dataset(dataset, out_file)
    _write_manifest(
        args,
        {
            "pipelines": str(args.pipelines),
            "max_pairs": args.max_pairs,
            "desk_learning_rate": params.learning_rate,
            "episodes_per_stage": params.episodes_per_stage,
            "baseline_decay": params.baseline_decay,
            "eval_episodes": eval_episodes,
            "wall_prob": wall_prob,
        },
        [args.pipelines],
    )
    print(f"wrote {len(records)} records to {out_file}")
    return 0


def _cmd_elo(args, config: dict) -> int:
    dataset = load_dataset(args.data)
    pids = sorted({r.pipeline_id for r in dataset.records})
    # Every pipeline's full fit and its K training folds, fitted in one call.
    problems = {}
    held_out = {}
    for pid in pids:
        records = dataset.records_for(pid)
        problems[f"pipeline {pid}"] = elo_mod.EloProblem.from_records(records)
        try:
            folds = elo_mod.holdout_folds(records, args.folds, args.seed)
            fold_problems = {
                f"pipeline {pid} (fold {i})": elo_mod.EloProblem.from_records(train)
                for i, (train, _) in enumerate(folds)
            }
        except ValidationError:
            continue  # too few records or folds, or a fold with nothing to fit
        problems.update(fold_problems)
        held_out[pid] = [test for _, test in folds]
    tables = elo_mod.fit_elo_many(problems)

    args.out.mkdir(parents=True, exist_ok=True)
    holdout_rows = ["pipeline_id,kl,tv,brier,directional_accuracy,n_directional"]
    diagnostics = {}
    for pid in pids:
        table = tables[f"pipeline {pid}"]
        diagnostics[pid] = {
            "iterations": table.iterations,
            "final_step": table.final_step,
        }
        elo_mod.elo_table_to_csv(table, args.out / f"elo_{pid}.csv")
        elo_mod.marginalised_to_csv(table, args.out / f"elo_marginalised_{pid}.csv")
        if pid not in held_out:
            continue
        fold_tables = [tables[f"pipeline {pid} (fold {i})"] for i in range(args.folds)]
        try:
            report = elo_mod.score_holdout(held_out[pid], fold_tables)
        except ValidationError:
            # sparse data: held-out objects never seen during fitting
            continue
        holdout_rows.append(
            f"{pid},{report.kl:.6f},{report.tv:.6f},{report.brier:.6f},"
            f"{report.directional_accuracy:.6f},{report.n_directional}"
        )
    (args.out / "elo_holdout.csv").write_text("\n".join(holdout_rows) + "\n")
    _write_manifest(
        args,
        {"data": str(args.data), "folds": args.folds},
        [args.data],
        diagnostics=diagnostics,
    )
    print(f"wrote Elo tables for {len(holdout_rows) - 1} agents to {args.out}")
    return 0


def _cmd_fit(args, config: dict) -> int:
    dataset = load_dataset(args.data)
    variant = ModelVariant(args.variant)
    fit_config = fit_config_from(config, args.seed)
    result = fitting.fit_hyperparameters(dataset, variant, fit_config)
    args.out.mkdir(parents=True, exist_ok=True)
    latent.save_hyperparameters(
        result.hyperparameters, args.out / "hyperparameters.json"
    )
    report = {
        "variant": variant.value,
        "train_loss": result.train_loss,
        "n_examples": int(len(result.per_example_losses)),
        "baseline_uniform": fitting.baseline_uniform(list(dataset.records)),
        "diagnostics": result.diagnostics,
    }
    (args.out / "fit_report.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_manifest(
        args, {"data": str(args.data), "variant": variant.value}, [args.data]
    )
    print(f"fitted {variant.value}: train loss {result.train_loss:.4f}")
    return 0


def _metrics_csv_rows(variant: str, evaluation: str, reports: dict) -> list[str]:
    rows = []
    for mode, rep in reports.items():
        rows.append(
            f"{variant},{evaluation},{mode},{rep.kl:.6f},{rep.tv:.6f},"
            f"{rep.brier:.6f},{rep.directional_accuracy:.6f},{rep.n_directional}"
        )
    return rows


def _cmd_eval(args, config: dict) -> int:
    dataset = load_dataset(args.data)
    plan = harness.EvaluationPlan.from_file(args.plan)
    variant = ModelVariant(args.variant)
    fit_config = fit_config_from(config, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)

    if plan.k is not None:
        result = harness.kfold_cv(dataset, variant, plan.k, fit_config)
        rows = ["fold,loss"] + [
            f"{i},{loss:.6f}" for i, loss in enumerate(result.fold_losses)
        ]
        rows.append(f"mean,{result.mean_loss:.6f}")
        rows.append(f"se,{result.se:.6f}")
        (args.out / "kfold.csv").write_text("\n".join(rows) + "\n")
        print(
            f"{plan.k}-fold CV loss {result.mean_loss:.4f} +- {result.se:.4f}"
        )
    else:
        result = harness.transfer_eval(dataset, plan, variant, fit_config)
        header = "variant,evaluation,mode,kl,tv,brier,dir_acc,n_directional"
        rows = [header] + _metrics_csv_rows(
            variant.value,
            "transfer",
            {
                "three_way": result.metrics_three_way,
                "two_way": result.metrics_two_way,
            },
        )
        (args.out / "metrics.csv").write_text("\n".join(rows) + "\n")
        report = {
            "train_loss": result.fit.train_loss,
            "eval_loss": result.eval_loss,
            "n_train_pipelines": result.n_train_pipelines,
            "n_eval_pipelines": result.n_eval_pipelines,
        }
        (args.out / "transfer_report.json").write_text(
            json.dumps(report, indent=2) + "\n"
        )
        print(f"transfer eval loss {result.eval_loss:.4f}")

    _write_manifest(
        args,
        {"data": str(args.data), "plan": str(args.plan), "variant": variant.value},
        [args.data, args.plan],
    )
    return 0


def _cmd_sweep_dim(args, config: dict) -> int:
    dataset = load_dataset(args.data)
    dims = _parse_dims(args.dims)
    fit_config = fit_config_from(config, args.seed)
    results = fitting.latent_dim_sweep(dataset, dims, fit_config)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = ["d,loss"] + [f"{d},{loss:.6f}" for d, loss in results]
    (args.out / "sweep.csv").write_text("\n".join(rows) + "\n")
    _write_manifest(args, {"data": str(args.data), "dims": args.dims}, [args.data])
    print(f"swept {len(results)} dimensions; best loss {min(l for _, l in results):.4f}")
    return 0


def _cmd_project(args, config: dict) -> int:
    hp = latent.load_hyperparameters(args.hp)
    dataset = load_dataset(args.data)
    if args.pipeline not in dataset.pipelines:
        raise ValidationError(f"unknown pipeline id {args.pipeline!r}")
    pipeline = dataset.pipelines[args.pipeline]
    w = np.full(hp.latent_dim, hp.w0)
    trace = [{"stage": None, "w": [float(x) for x in w]}]
    for i, stage in enumerate(pipeline.stages):
        w = latent.equilibrium_projection(hp, w, stage.goal)
        trace.append(
            {
                "stage": i,
                "goal": stage.goal.name,
                "w": [float(x) for x in w],
                "goal_value": latent.goal_value(hp, w, stage.goal),
            }
        )
    args.out.mkdir(parents=True, exist_ok=True)
    out_file = args.out / f"projection_{args.pipeline}.json"
    out_file.write_text(json.dumps({"pipeline": args.pipeline, "trace": trace}, indent=2) + "\n")
    _write_manifest(
        args,
        {"hp": str(args.hp), "data": str(args.data), "pipeline": args.pipeline},
        [args.hp, args.data],
    )
    print(f"wrote projection trace to {out_file}")
    return 0


def _cmd_check(args, config: dict) -> int:
    from .selfcheck import run_self_checks

    ok = run_self_checks(seed=args.seed)
    _write_manifest(args, {"passed": ok}, [])
    return 0 if ok else 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
        handler = {
            "gen-data": _cmd_gen_data,
            "elo": _cmd_elo,
            "fit": _cmd_fit,
            "eval": _cmd_eval,
            "sweep-dim": _cmd_sweep_dim,
            "project": _cmd_project,
            "check": _cmd_check,
        }[args.command]
        return handler(args, config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

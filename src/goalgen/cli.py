"""Command-line interface tying the toolkit into reproducible runs.

Subcommands: gen-data (train desk agents, emit preference JSONL), elo
(fit + marginalise + holdout report), fit (variant fit to JSON), eval
(K-fold or transfer per a plan file, fits in lockstep), sweep-dim,
project (closed-form projection trace), and check (gradient and oracle
self-tests). Every run writes a manifest with input digests. Exit codes:
0 success, 1 validation or output error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

from . import agent as agent_mod
from . import elo as elo_mod
from . import fitting, harness, latent
from .dataset import Dataset, load_dataset, load_pipelines, read_json, save_dataset
from .errors import NumericalError, ValidationError
from .features import enumerate_eval_pairs
from .fitting import FitConfig, ModelVariant

# The outer fit's keys are FitConfig's fields; --seed sets its rng_seed.
_FIT_KEYS = {f.name for f in dataclasses.fields(FitConfig)} - {"rng_seed"}
_FIT_TYPES = typing.get_type_hints(FitConfig)
_CONFIG_SCHEMA: dict[str, type] = {
    **{k: t for k, t in _FIT_TYPES.items() if k in _FIT_KEYS},
    # desk agent / environment
    "desk_learning_rate": float,
    "episodes_per_stage": int,
    "baseline_decay": float,
    "eval_episodes": int,
    "wall_prob": float,
}
# The ranges gen-data accepts for its desk keys: a test and its wording.
_DESK_RANGES = {
    "desk_learning_rate": (lambda v: v >= 0, "at least 0"),
    "eval_episodes": (lambda v: v >= 1, "at least 1"),
    "episodes_per_stage": (lambda v: v >= 0, "at least 0"),
    "wall_prob": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "baseline_decay": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}


def load_config(path: str | Path | None) -> dict:
    """Load and validate the run configuration document."""
    if path is None:
        return {}
    data = read_json(path, "config")
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
    """The config's FitConfig keys, seeded by ``--seed``."""
    return FitConfig(rng_seed=seed, **{k: v for k, v in config.items() if k in _FIT_KEYS})


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract is exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="goalgen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.set_defaults(handler=handler)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--out", type=Path, default=Path("out"))

    p = sub.add_parser("gen-data", help="train desk agents and emit preference data")
    common(p, _cmd_gen_data)
    p.add_argument("--pipelines", type=Path, required=True,
                   help="JSON file with a 'pipelines' map of id -> stage list")
    p.add_argument("--max-pairs", type=int, default=None,
                   help="evaluate only the first N canonical pairs")

    p = sub.add_parser("elo", help="fit anchored Elo tables per agent")
    common(p, _cmd_elo)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--folds", type=int, default=4)

    p = sub.add_parser("fit", help="fit a model variant")
    common(p, _cmd_fit)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--variant", default="full",
                   choices=[v.value for v in ModelVariant])

    p = sub.add_parser("eval", help="run a K-fold or transfer evaluation plan")
    common(p, _cmd_eval)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--plan", type=Path, required=True)
    p.add_argument("--variant", default="full",
                   choices=[v.value for v in ModelVariant])

    p = sub.add_parser("sweep-dim", help="sweep the latent dimension")
    common(p, _cmd_sweep_dim)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--dims", default="1-32", help="range like 1-32 or list like 1,2,4")

    p = sub.add_parser("project", help="closed-form projection trace for a pipeline")
    common(p, _cmd_project)
    p.add_argument("--hp", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--pipeline", required=True)

    p = sub.add_parser("check", help="run gradient and oracle self-tests")
    common(p, _cmd_check)
    return parser


def _parse_dims(text: str) -> list[int]:
    try:
        if "-" in text:
            lo, hi = text.split("-")
            return list(range(int(lo), int(hi) + 1))
        dims = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad --dims value {text!r}") from exc
    # The manifest keys each fit by its dimension.
    repeated = next((d for i, d in enumerate(dims) if d in dims[:i]), None)
    if repeated is not None:
        raise ValidationError(f"--dims names dimension {repeated} more than once")
    return dims


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
    if args.max_pairs is not None and args.max_pairs < 1:
        raise ValidationError(f"--max-pairs must be at least 1, got {args.max_pairs}")
    for key, (in_range, allowed) in _DESK_RANGES.items():
        if key in config and not in_range(config[key]):
            raise ValidationError(
                f"{args.config}: config key {key!r} must be {allowed}, "
                f"got {config[key]}"
            )
    pipelines = load_pipelines(args.pipelines)
    pairs = enumerate_eval_pairs()
    if args.max_pairs is not None:
        pairs = pairs[: args.max_pairs]
    # Keys the config leaves out take the library's defaults.
    defaults = agent_mod.DeskPolicyParameters()
    params = agent_mod.DeskPolicyParameters(
        learning_rate=config.get("desk_learning_rate", defaults.learning_rate),
        episodes_per_stage=config.get("episodes_per_stage", defaults.episodes_per_stage),
        baseline_decay=config.get("baseline_decay", defaults.baseline_decay),
    )
    wall_prob = config.get("wall_prob", agent_mod.WALL_PROBABILITY)
    eval_episodes = config.get("eval_episodes", agent_mod.EPISODES_PER_PAIR)

    args.out.mkdir(parents=True, exist_ok=True)
    trained = {}
    for pid in sorted(pipelines):
        print(f"training agent for pipeline {pid} ...", flush=True)
        trained[pid] = agent_mod.train_desk_agent(
            pipelines[pid], params, rng_seed=args.seed, wall_prob=wall_prob
        )
    # Every agent walks the same evaluation episodes in one lockstep call.
    records = agent_mod.evaluate_preferences(
        trained,
        pairs,
        episodes_per_pair=eval_episodes,
        rng_seed=args.seed,
        wall_prob=wall_prob,
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


def _metrics_csv(rep) -> str:
    """A metrics report's kl, tv, brier, directional accuracy and
    n_directional, as CSV columns."""
    return (
        f"{rep.kl:.6f},{rep.tv:.6f},{rep.brier:.6f},"
        f"{rep.directional_accuracy:.6f},{rep.n_directional}"
    )


def _cmd_elo(args, config: dict) -> int:
    if args.folds < 2:
        raise ValidationError(f"--folds must be at least 2, got {args.folds}")
    dataset = load_dataset(args.data)
    rows: dict[str, list[int]] = {}
    for i, r in enumerate(dataset.records):
        rows.setdefault(r.pipeline_id, []).append(i)
    agent_rows = {pid: np.array(rows[pid]) for pid in sorted(rows)}
    results = elo_mod.elo_by_agent(dataset.records, agent_rows, args.folds, args.seed)

    args.out.mkdir(parents=True, exist_ok=True)
    holdout_rows = ["pipeline_id,kl,tv,brier,directional_accuracy,n_directional"]
    diagnostics = {}
    for pid, (table, report) in results.items():
        diagnostics[pid] = {
            "iterations": table.iterations,
            "final_step": table.final_step,
        }
        elo_mod.elo_table_to_csv(table, args.out / f"elo_{pid}.csv")
        elo_mod.marginalised_to_csv(table, args.out / f"elo_marginalised_{pid}.csv")
        if isinstance(report, ValidationError):
            continue  # too few records, or held-out objects that no fold scored
        holdout_rows.append(f"{pid},{_metrics_csv(report)}")
    (args.out / "elo_holdout.csv").write_text("\n".join(holdout_rows) + "\n")
    _write_manifest(
        args,
        {"data": str(args.data), "folds": args.folds},
        [args.data],
        diagnostics=diagnostics,
    )
    print(f"wrote Elo tables for {len(results)} agents to {args.out}")
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


def _fit_diagnostics(result: fitting.FitResult) -> dict:
    """What a fit of ``eval`` or ``sweep-dim`` reports in the manifest."""
    keys = ("n_updates", "final_gradient_norm")
    return {**{k: result.diagnostics[k] for k in keys}, "train_loss": result.train_loss}


def _cmd_eval(args, config: dict) -> int:
    dataset = load_dataset(args.data)
    plan = harness.EvaluationPlan.from_file(args.plan)
    variant = ModelVariant(args.variant)
    fit_config = fit_config_from(config, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)

    if plan.k is not None:
        result = harness.kfold_cv(dataset, variant, plan.k, fit_config)
        fits = {f"fold {i}": fit for i, fit in enumerate(result.fits)}
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
        fits = {"transfer": result.fit}
        header = "variant,evaluation,mode,kl,tv,brier,dir_acc,n_directional"
        rows = [header] + [
            f"{variant.value},transfer,{mode},{_metrics_csv(rep)}"
            for mode, rep in (
                ("three_way", result.metrics_three_way),
                ("two_way", result.metrics_two_way),
            )
        ]
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
        {name: _fit_diagnostics(fit) for name, fit in fits.items()},
    )
    return 0


def _cmd_sweep_dim(args, config: dict) -> int:
    dims = _parse_dims(args.dims)
    dataset = load_dataset(args.data)
    fit_config = fit_config_from(config, args.seed)
    results = fitting.latent_dim_sweep(dataset, dims, fit_config)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = ["d,loss"] + [f"{d},{r.train_loss:.6f}" for d, r in zip(dims, results)]
    (args.out / "sweep.csv").write_text("\n".join(rows) + "\n")
    diagnostics = {str(d): _fit_diagnostics(r) for d, r in zip(dims, results)}
    _write_manifest(
        args, {"data": str(args.data), "dims": args.dims}, [args.data], diagnostics
    )
    best = min(r.train_loss for r in results)
    print(f"swept {len(results)} dimensions; best loss {best:.4f}")
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
        if args.seed < 0:
            raise ValidationError(f"--seed must be at least 0, got {args.seed}")
        config = load_config(args.config)
        # Before any work: no command could make --out a directory.
        files = [p for p in (args.out, *args.out.parents) if p.exists() and not p.is_dir()]
        if files:
            raise ValidationError(f"--out {args.out}: {files[0]} is not a directory")
        return args.handler(args, config)
    except (ValidationError, OSError) as exc:  # OSError: an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy refuses an allocation far beyond the machine's memory at once
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

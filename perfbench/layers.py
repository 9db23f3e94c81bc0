"""Where the traced run puts its spans, and the per-layer metrics it derives.

Spans wrap goalgen's functions at the names their callers look up, so
the program itself is unchanged; the wrappers are installed only for the
traced passes and removed afterwards.
"""

from __future__ import annotations

import inspect
from statistics import median

import goalgen.agent as agent
import goalgen.cli as cli
import goalgen.elo as elo
import goalgen.fitting as fitting
import goalgen.harness as harness
import goalgen.latent as latent
from goalgen import FitConfig

from spans import Recorder, self_times, tail

CLI_COMMANDS = ("gen-data", "elo", "fit", "eval", "sweep-dim")
# The population workload sweeps these latent dimensions; every workload
# reports a figure for each, zero where no sweep ran.
SWEEP_DIMS = (1, 4, 24)


def _timing(prefix: str, unit: str) -> list[tuple[str, str]]:
    return [
        (f"{prefix}.calls", "count"),
        (f"{prefix}.{unit}_p50", unit),
        (f"{prefix}.{unit}_ptail", unit),
        (f"{prefix}.ptail_pct", "percentile"),
        (f"{prefix}.samples", "count"),
    ]


PER_LAYER: list[tuple[str, str]] = [
    *_timing("maze.generate", "us"),
    *_timing("maze.distance_field", "us"),
    ("maze.busy_s", "s"),
    *[
        (f"agent.{kind}.{m}", u)
        for kind in ("eval", "train")
        for m, u in (("calls", "count"), ("s", "s"), ("self_s", "s"), ("episodes_per_s", "1/s"))
    ],
    *_timing("elo.fit", "ms"),
    ("elo.holdout.s", "s"),
    ("elo.busy_s", "s"),
    ("fitting.fit.calls", "count"),
    ("fitting.fit.s", "s"),
    ("fitting.updates", "count"),
    ("fitting.update_ms", "ms"),
    *[(f"fitting.sweep_fit_s.d{d}", "s") for d in SWEEP_DIMS],
    ("fitting.floor_goal.s", "s"),
    ("fitting.floor_feature.s", "s"),
    ("fitting.modelling_loss.s", "s"),
    ("fitting.predicted.s", "s"),
    ("latent.simulate_pipeline.calls", "count"),
    ("latent.simulate_pipeline.ms_p50", "ms"),
    ("latent.stage_objective.calls", "count"),
    ("harness.transfer.self_s", "s"),
    ("harness.manifest.s", "s"),
    ("dataset.load.calls", "count"),
    ("dataset.load.records_per_s", "1/s"),
    ("dataset.save.s", "s"),
    *[(f"cli.{c}.{m}", "s") for c in CLI_COMMANDS for m in ("s", "self_s")],
    ("trace.overhead_s", "s"),
    ("trace.passes", "count"),
]


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def instrument(rec: Recorder) -> list[tuple[object, str, object]]:
    """Replacements that route each layer's public calls through spans."""
    train_fn, eval_fn = agent.train_desk_agent, agent.evaluate_preferences
    fit_fn = fitting.fit_hyperparameters

    def train_episodes(args, kwargs, _result):
        a = _bound(train_fn, args, kwargs)
        return {"episodes": len(a["pipeline"].stages) * a["params0"].episodes_per_stage}

    def eval_episodes(args, kwargs, _result):
        a = _bound(eval_fn, args, kwargs)
        return {"episodes": len(a["pairs"]) * a["episodes_per_pair"]}

    def fit_attrs(args, kwargs, result):
        config = _bound(fit_fn, args, kwargs)["config"] or FitConfig()
        diag = result.diagnostics
        return {
            "latent_dim": config.latent_dim,
            "updates": diag["n_updates"],
            "wall_time_s": diag["wall_time_s"],
        }

    fit = rec.traced(fit_fn, "fitting.fit", fit_attrs)
    predicted = rec.traced(fitting.predicted_distributions, "fitting.predicted")
    stage_objective = rec.counted(latent.stage_objective, "latent.stage_objective")
    return [
        (agent, "generate_maze", rec.traced(agent.generate_maze, "maze.generate")),
        (agent, "distance_field", rec.traced(agent.distance_field, "maze.distance_field")),
        (agent, "train_desk_agent", rec.traced(train_fn, "agent.train", train_episodes)),
        (agent, "evaluate_preferences", rec.traced(eval_fn, "agent.eval", eval_episodes)),
        (elo, "fit_elo", rec.traced(elo.fit_elo, "elo.fit")),
        (elo, "elo_holdout_validation", rec.traced(elo.elo_holdout_validation, "elo.holdout")),
        (fitting, "fit_hyperparameters", fit),
        (harness, "fit_hyperparameters", fit),
        (fitting, "lower_bound_per_goal", rec.traced(fitting.lower_bound_per_goal, "fitting.floor_goal")),
        (fitting, "lower_bound_per_feature", rec.traced(fitting.lower_bound_per_feature, "fitting.floor_feature")),
        (harness, "modelling_loss", rec.traced(harness.modelling_loss, "fitting.modelling_loss")),
        (harness, "predicted_distributions", predicted),
        (fitting, "predicted_distributions", predicted),
        (fitting, "simulate_pipeline", rec.traced(fitting.simulate_pipeline, "latent.simulate_pipeline")),
        (latent, "stage_objective", stage_objective),
        (fitting, "stage_objective", stage_objective),
        (harness, "transfer_eval", rec.traced(harness.transfer_eval, "harness.transfer")),
        (harness, "write_manifest", rec.traced(harness.write_manifest, "harness.manifest")),
        (cli, "load_dataset", rec.traced(cli.load_dataset, "dataset.load", lambda a, k, r: {"records": len(r.records)})),
        (cli, "save_dataset", rec.traced(cli.save_dataset, "dataset.save")),
    ]


def layer_metrics(rec: Recorder, overheads: list[float]) -> dict[str, float]:
    """Per-layer figures, as means per traced pass (pooled for percentiles)."""
    n_passes = max(1, len(overheads))
    spans = rec.spans
    selfs = self_times(spans)
    names: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        names.setdefault(s.name, []).append(i)

    def idx(name):
        return names.get(name, [])

    def total(name, attr=None):
        if attr is None:
            return sum(spans[i].duration for i in idx(name))
        return sum(spans[i].attrs[attr] for i in idx(name) if spans[i].attrs)

    def per_pass(x):
        return x / n_passes

    def ancestor_names(i):
        out = set()
        parent = spans[i].parent
        while parent is not None:
            out.add(spans[parent].name)
            parent = spans[parent].parent
        return out

    m: dict[str, float] = {}
    for prefix, name, scale, unit in (
        ("maze.generate", "maze.generate", 1e6, "us"),
        ("maze.distance_field", "maze.distance_field", 1e6, "us"),
        ("elo.fit", "elo.fit", 1e3, "ms"),
    ):
        p50, ptail, pct, n = tail([spans[i].duration * scale for i in idx(name)])
        m[f"{prefix}.calls"] = per_pass(n)
        m[f"{prefix}.{unit}_p50"] = p50
        m[f"{prefix}.{unit}_ptail"] = ptail
        m[f"{prefix}.ptail_pct"] = pct
        m[f"{prefix}.samples"] = n
    m["maze.busy_s"] = per_pass(total("maze.generate") + total("maze.distance_field"))

    for kind in ("eval", "train"):
        name = f"agent.{kind}"
        seconds = total(name)
        m[f"{name}.calls"] = per_pass(len(idx(name)))
        m[f"{name}.s"] = per_pass(seconds)
        m[f"{name}.self_s"] = per_pass(sum(selfs[i] for i in idx(name)))
        m[f"{name}.episodes_per_s"] = total(name, "episodes") / seconds if seconds else 0.0

    m["elo.holdout.s"] = per_pass(total("elo.holdout"))
    m["elo.busy_s"] = per_pass(
        sum(
            s.duration
            for s in spans
            if s.name.startswith("elo.")
            and (s.parent is None or not spans[s.parent].name.startswith("elo."))
        )
    )

    updates = total("fitting.fit", "updates")
    m["fitting.fit.calls"] = per_pass(len(idx("fitting.fit")))
    m["fitting.fit.s"] = per_pass(total("fitting.fit"))
    m["fitting.updates"] = per_pass(updates)
    m["fitting.update_ms"] = 1e3 * total("fitting.fit", "wall_time_s") / updates if updates else 0.0
    for d in SWEEP_DIMS:
        m[f"fitting.sweep_fit_s.d{d}"] = per_pass(
            sum(
                spans[i].duration
                for i in idx("fitting.fit")
                if spans[i].attrs
                and spans[i].attrs["latent_dim"] == d
                and "cli.sweep-dim" in ancestor_names(i)
            )
        )
    m["fitting.floor_goal.s"] = per_pass(total("fitting.floor_goal"))
    m["fitting.floor_feature.s"] = per_pass(total("fitting.floor_feature"))
    m["fitting.modelling_loss.s"] = per_pass(total("fitting.modelling_loss"))
    m["fitting.predicted.s"] = per_pass(total("fitting.predicted"))

    sim = [spans[i].duration * 1e3 for i in idx("latent.simulate_pipeline")]
    m["latent.simulate_pipeline.calls"] = per_pass(len(sim))
    m["latent.simulate_pipeline.ms_p50"] = median(sim) if sim else 0.0
    m["latent.stage_objective.calls"] = per_pass(rec.counters.get("latent.stage_objective", 0))

    m["harness.transfer.self_s"] = per_pass(sum(selfs[i] for i in idx("harness.transfer")))
    m["harness.manifest.s"] = per_pass(total("harness.manifest"))

    load_s = total("dataset.load")
    m["dataset.load.calls"] = per_pass(len(idx("dataset.load")))
    m["dataset.load.records_per_s"] = total("dataset.load", "records") / load_s if load_s else 0.0
    m["dataset.save.s"] = per_pass(total("dataset.save"))

    for command in CLI_COMMANDS:
        name = f"cli.{command}"
        m[f"{name}.s"] = per_pass(total(name))
        m[f"{name}.self_s"] = per_pass(sum(selfs[i] for i in idx(name)))

    m["trace.overhead_s"] = median(overheads) if overheads else 0.0
    m["trace.passes"] = len(overheads)
    return m

"""The three workloads: their sizes, one pass of operations, and its checks.

A pass writes one seeded input instance, runs the workload's operations
through goalgen.cli.main (and the floor functions, which have no CLI
command), and checks every output. Operation times exclude the checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import goalgen.agent as agent
import goalgen.fitting as fitting
from goalgen import cli, enumerate_eval_pairs, load_dataset, save_dataset

import checks
import inputs
from layers import SWEEP_DIMS, instrument
from spans import Recorder, patched

# Metric reported for each operation.
OP_METRIC = {
    "gen-data": "gen_data_s",
    "elo": "elo_s",
    "fit": "fit_s",
    "eval": "eval_s",
    "sweep-dim": "sweep_s",
    "floors": "floors_s",
}
SWAP_SAMPLE = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[str, ...]
    # gen-data sizes
    n_stages: int = 0
    episodes_per_stage: int = 0
    eval_episodes: int = 0
    max_pairs: int | None = None
    # population sizes
    n_pipelines: int = 0
    episodes: int = 100
    sweep_dims: tuple[int, ...] = SWEEP_DIMS
    wall_prob: float = 0.2
    # At the default rate of 0.05 about a quarter of REINFORCE stages
    # collapse into a policy that never reaches an object, so a pass costs
    # either x or several x and medians over passes jump between the two.
    learning_rate: float = 0.01

    def config(self) -> dict:
        return {
            "desk_learning_rate": self.learning_rate,
            "episodes_per_stage": self.episodes_per_stage,
            "eval_episodes": self.eval_episodes,
            "wall_prob": self.wall_prob,
        }

    def pipelines(self, seed: int):
        if self.n_pipelines:
            return None
        if self.n_stages:
            return inputs.train_pipelines(seed, self.n_stages)
        return inputs.desk_pipelines(seed)

    @property
    def n_pairs(self) -> int:
        return len(enumerate_eval_pairs()[: self.max_pairs])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk",
            "The desk user flow gen-data, fit, eval on 3 agents sharing a seed: "
            "evaluation rollouts do most of the work and agents could share "
            "evaluation mazes.",
            ("gen-data", "fit", "eval"),
            episodes_per_stage=150,
            eval_episodes=2,
        ),
        Workload(
            "desk-train",
            "Sequential REINFORCE training of 1 agent on a long pipeline with "
            "distractors and few pairs: one maze per dependent episode, nothing to "
            "share across agents.",
            ("gen-data",),
            n_stages=6,
            episodes_per_stage=250,
            eval_episodes=20,
            max_pairs=4,
        ),
        Workload(
            "population",
            "No rollouts: a synthetic 276-pair population through elo, fit, eval, "
            "sweep-dim and the floors, so elo, fitting and latent do all of the work.",
            ("elo", "fit", "eval", "sweep-dim", "floors"),
            n_pipelines=4,
        ),
    )
}


@dataclass
class Instance:
    """One pass's input files and what the checks need to know about them."""

    seed: int
    root: Path
    agents: list[str]
    files: dict[str, Path] = field(default_factory=dict)
    n_train: int = 0
    n_eval: int = 0


def write_inputs(w: Workload, seed: int, root: Path) -> Instance:
    """Generate and write one input instance; this is set-up, not timed work."""
    root.mkdir(parents=True, exist_ok=True)
    plan = root / "plan.json"
    inputs.write_json(inputs.TRANSFER_PLAN, plan)
    pipelines = w.pipelines(seed)
    if pipelines is None:
        dataset = inputs.population_dataset(seed, w.n_pipelines, w.episodes)
        pipelines = dataset.pipelines
        files = {"plan": plan, "population": root / "population.jsonl"}
        save_dataset(dataset, files["population"])
    else:
        files = {"plan": plan, "config": root / "config.json", "pipelines": root / "pipelines.json"}
        inputs.write_json(w.config(), files["config"])
        inputs.write_pipelines(pipelines, files["pipelines"])
    stage_counts = [len(p.stages) for p in pipelines.values()]
    return Instance(
        seed,
        root,
        sorted(pipelines),
        files,
        n_train=stage_counts.count(1),
        n_eval=stage_counts.count(2),
    )


def tallies(w: Workload, inst: Instance, out: Path) -> Path:
    """The preference file the fitting commands read."""
    if "gen-data" in w.ops:
        return out / "gen-data" / "preferences.jsonl"
    return inst.files["population"]


def _argv(w: Workload, op: str, inst: Instance, out: Path) -> list[str]:
    common = ["--seed", str(inst.seed), "--out", str(out / op)]
    if op == "gen-data":
        argv = ["gen-data", "--pipelines", str(inst.files["pipelines"]),
                "--config", str(inst.files["config"])]
        if w.max_pairs is not None:
            argv += ["--max-pairs", str(w.max_pairs)]
        return argv + common
    data = ["--data", str(tallies(w, inst, out))]
    if op == "elo":
        return ["elo", *data, *common]
    if op == "fit":
        return ["fit", *data, "--variant", "full", *common]
    if op == "eval":
        return ["eval", *data, "--plan", str(inst.files["plan"]), "--variant", "full", *common]
    if op == "sweep-dim":
        return ["sweep-dim", *data, "--dims", ",".join(map(str, w.sweep_dims)), *common]
    raise ValueError(f"unknown operation {op!r}")


def _floors(data: Path, out: Path) -> int:
    dataset = load_dataset(data)
    floors = {
        "floor_goal": fitting.lower_bound_per_goal(dataset),
        "floor_feature": fitting.lower_bound_per_feature(dataset),
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "floors.json").write_text(json.dumps(floors) + "\n")
    return 0


@contextlib.contextmanager
def _capture_policies(policies: dict):
    """Keep each trained policy so the swapped-pair check can replay it."""
    train = agent.train_desk_agent

    def capture(pipeline, *args, **kwargs):
        policies[pipeline.id] = result = train(pipeline, *args, **kwargs)
        return result

    with patched([(agent, "train_desk_agent", capture)]):
        yield


@dataclass
class PassResult:
    times: dict[str, float]
    errors: dict[str, list[str]]
    values: dict


def run_pass(w: Workload, inst: Instance, out: Path, rec: Recorder | None) -> PassResult:
    """Run every operation once, timing each, then check the outputs."""
    times: dict[str, float] = {}
    errors: dict[str, list[str]] = {}
    policies: dict = {}
    with patched(instrument(rec) if rec else []), _capture_policies(policies):
        for op in w.ops:
            stderr = io.StringIO()
            name = "floors" if op == "floors" else f"cli.{op}"
            span = contextlib.nullcontext() if rec is None else rec.span(name)
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    with span:
                        if op == "floors":
                            code = _floors(tallies(w, inst, out), out / op)
                        else:
                            code = cli.main(_argv(w, op, inst, out))
            except Exception as exc:  # an operation that raises is a failed operation
                code, stderr = 3, io.StringIO(f"{type(exc).__name__}: {exc}")
            times[op] = time.perf_counter() - started
            errors[op] = [] if code == 0 else [f"exit {code}: {stderr.getvalue().strip()[-300:]}"]
    values = _check(w, inst, out, policies, errors)
    return PassResult(times, errors, values)


def _check(w: Workload, inst: Instance, out: Path, policies: dict, errors: dict) -> dict:
    """Append check failures per operation; return the values to compare."""
    values: dict = {}
    n_records = len(inst.agents) * w.n_pairs
    data = tallies(w, inst, out)
    if "gen-data" in w.ops and not errors["gen-data"]:
        found = checks.check_tallies(data, inst.agents, w.n_pairs, w.eval_episodes)
        if not found:
            found = checks.check_swapped(
                data, policies, SWAP_SAMPLE, w.eval_episodes, inst.seed, w.wall_prob
            )
        errors["gen-data"] += found
        values["sha256"] = checks.sha256(data)
    if "elo" in w.ops and not errors["elo"]:
        values["elo"], found = checks.read_elo(out / "elo", inst.agents)
        errors["elo"] += found
    report = {}
    if "fit" in w.ops and not errors["fit"]:
        report, found = checks.read_fit(out / "fit", n_records)
        errors["fit"] += found
        values["fit_loss"] = report.get("train_loss")
    if "eval" in w.ops and not errors["eval"]:
        transfer, found = checks.read_transfer(out / "eval", inst.n_train, inst.n_eval)
        errors["eval"] += found
        values["eval_loss"] = transfer.get("eval_loss")
    if "sweep-dim" in w.ops and not errors["sweep-dim"]:
        values["sweep"], found = checks.read_sweep(out / "sweep-dim", w.sweep_dims)
        errors["sweep-dim"] += found
    if "floors" in w.ops and not errors["floors"]:
        floors = json.loads((out / "floors" / "floors.json").read_text())
        values.update(floors)
        if report and not errors["fit"]:
            errors["floors"] += checks.check_floor_order(
                floors, report["train_loss"], report["baseline_uniform"]
            )
    return values


def check_reference(values: dict, reference: dict, errors: dict) -> None:
    """Charge each mismatch against the operation that produced the value."""
    owner = {"sha256": "gen-data", "elo": "elo", "fit_loss": "fit", "eval_loss": "eval",
             "sweep": "sweep-dim", "floor_goal": "floors", "floor_feature": "floors"}
    for key, want in reference.items():
        for message in checks.compare(values, {key: want}):
            errors[owner[key]].append(message)

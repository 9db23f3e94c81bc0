"""Evaluation harnesses: K-fold cross-validation over pipelines, transfer
evaluation between pipeline families, the Elo-versus-model comparison, and
run manifests for reproducibility.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (
    Dataset,
    TrainingPipeline,
    observed_rates,
    read_json,
    seeded_folds,
)
from .elo import EloTable
from .errors import ValidationError
from .features import enumerate_objects
# Nothing here calls fit_hyperparameters, modelling_loss or
# predicted_distributions, but perfbench's traced run wraps them here.
from .fitting import (  # noqa: F401
    FitConfig,
    FitResult,
    ModelVariant,
    fit_hyperparameters,
    heldout_fits,
    modelling_loss,
    predicted_distributions,
    simulate_variant,
)
from .latent import goal_value
from .metrics import MetricMode, MetricsReport, compute_metrics


def _optional_int(data: dict, key: str) -> int | None:
    """The integer at ``data[key]``, or None when it is absent or null."""
    value = data.get(key)
    if value is None:
        return None
    # bool is an int subclass, but true/false is never a count.
    if type(value) is not int:
        raise ValidationError(f"key {key!r} must be an integer")
    return value


@dataclass(frozen=True)
class PipelinePredicate:
    """Declarative pipeline filter; None fields match anything."""

    stage_count: int | None = None
    has_distractor: bool | None = None
    ids: frozenset[str] | None = None

    def matches(self, pipeline: TrainingPipeline) -> bool:
        if self.stage_count is not None and len(pipeline.stages) != self.stage_count:
            return False
        if (
            self.has_distractor is not None
            and pipeline.has_distractor != self.has_distractor
        ):
            return False
        if self.ids is not None and pipeline.id not in self.ids:
            return False
        return True

    @classmethod
    def from_json(cls, data: dict) -> "PipelinePredicate":
        if not isinstance(data, dict):
            raise ValidationError("pipeline filter must be a JSON object")
        known = {"stage_count", "has_distractor", "ids"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown predicate keys: {sorted(unknown)}")
        stage_count = _optional_int(data, "stage_count")
        has_distractor = data.get("has_distractor")
        if has_distractor is not None and not isinstance(has_distractor, bool):
            raise ValidationError("filter key 'has_distractor' must be a boolean")
        ids = data.get("ids")
        if ids is not None and not (
            isinstance(ids, list) and all(isinstance(i, str) for i in ids)
        ):
            raise ValidationError("filter key 'ids' must be a list of strings")
        return cls(
            stage_count=stage_count,
            has_distractor=has_distractor,
            ids=frozenset(ids) if ids is not None else None,
        )


@dataclass(frozen=True)
class EvaluationPlan:
    """Either a K-fold plan (k set) or a transfer plan (train/eval set).

    K-fold partitions follow the run's seed (``FitConfig.rng_seed``).
    """

    train: PipelinePredicate | None = None
    eval: PipelinePredicate | None = None
    k: int | None = None

    @classmethod
    def from_json(cls, data: dict) -> "EvaluationPlan":
        if not isinstance(data, dict):
            raise ValidationError("evaluation plan must be a JSON object")
        known = {"train", "eval", "k"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown plan keys: {sorted(unknown)}")
        train = data.get("train")
        eval_ = data.get("eval")
        plan = cls(
            train=PipelinePredicate.from_json(train) if train is not None else None,
            eval=PipelinePredicate.from_json(eval_) if eval_ is not None else None,
            k=_optional_int(data, "k"),
        )
        # K-fold ignores the filters, so a plan is one or the other.
        has_filters = (plan.train is not None, plan.eval is not None)
        if has_filters != (plan.k is None,) * 2:
            raise ValidationError("plan needs k alone or both train and eval filters")
        return plan

    @classmethod
    def from_file(cls, path: str | Path) -> "EvaluationPlan":
        data = read_json(path, "plan")
        try:
            return cls.from_json(data)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc


@dataclass
class KFoldResult:
    fold_losses: list[float]
    mean_loss: float
    se: float
    fold_assignment: dict[str, int]
    fits: list[FitResult]


def kfold_partition(
    pipeline_ids: list[str], k: int, rng_seed: int
) -> dict[str, int]:
    """Seeded partition of pipelines into k folds (fold id per pipeline)."""
    ids = sorted(pipeline_ids)
    folds = seeded_folds(len(ids), k, [0x666F6C64, rng_seed], "pipelines")
    return {ids[j]: f for f, fold in enumerate(folds) for j in fold}


def kfold_cv(
    dataset: Dataset,
    variant: ModelVariant = ModelVariant.FULL,
    k: int = 4,
    config: FitConfig | None = None,
) -> KFoldResult:
    """Fit on k-1 pipeline folds, score the held-out fold's records; the k
    fits run in lockstep (``fitting.heldout_fits``)."""
    config = config or FitConfig()
    pids = sorted({r.pipeline_id for r in dataset.records})
    assignment = kfold_partition(pids, k, config.rng_seed)
    fold = np.array([assignment[r.pipeline_id] for r in dataset.records])
    splits = [(np.flatnonzero(fold != f), np.flatnonzero(fold == f)) for f in range(k)]
    results = heldout_fits(dataset, splits, variant, config)
    losses = [float(held.mean()) for _, held, _ in results]
    mean = float(np.mean(losses))
    se = float(np.std(losses, ddof=1) / np.sqrt(k)) if k > 1 else 0.0
    return KFoldResult(losses, mean, se, assignment, [fit for fit, _, _ in results])


@dataclass
class TransferResult:
    fit: FitResult
    eval_loss: float
    metrics_three_way: MetricsReport
    metrics_two_way: MetricsReport
    n_train_pipelines: int
    n_eval_pipelines: int


def transfer_eval(
    dataset: Dataset,
    plan: EvaluationPlan,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> TransferResult:
    """Fit on the plan's train pipelines, evaluate on the disjoint eval set."""
    if plan.train is None or plan.eval is None:
        raise ValidationError("transfer plan needs both train and eval filters")
    active = {r.pipeline_id for r in dataset.records}
    train_ids = {
        pid
        for pid, pipe in dataset.pipelines.items()
        if pid in active and plan.train.matches(pipe)
    }
    eval_ids = {
        pid
        for pid, pipe in dataset.pipelines.items()
        if pid in active and plan.eval.matches(pipe)
    }
    if not train_ids:
        raise ValidationError("train filter matched no pipelines with records")
    if not eval_ids:
        raise ValidationError("eval filter matched no pipelines with records")
    overlap = train_ids & eval_ids
    if overlap:
        raise ValidationError(
            f"train and eval filters overlap on {sorted(overlap)[:5]}"
        )

    train, held = (
        np.flatnonzero([r.pipeline_id in ids for r in dataset.records])
        for ids in (train_ids, eval_ids)
    )
    [(result, losses, predictions)] = heldout_fits(dataset, [(train, held)], variant, config)
    observations = observed_rates(dataset.records)[held]
    return TransferResult(
        fit=result,
        eval_loss=float(losses.mean()),
        metrics_three_way=compute_metrics(
            predictions, observations, MetricMode.THREE_WAY
        ),
        metrics_two_way=compute_metrics(predictions, observations, MetricMode.TWO_WAY),
        n_train_pipelines=len(train_ids),
        n_eval_pipelines=len(eval_ids),
    )


@dataclass
class EloModelComparison:
    spearman_rho: float
    r_squared: float
    points: list[dict] = field(default_factory=list)


def elo_vs_model(
    dataset: Dataset,
    elo_tables: dict[str, EloTable],
    fit_result: FitResult,
    normalised: bool = False,
    config: FitConfig | None = None,
) -> EloModelComparison:
    """Correlate per-(agent, goal) Elo scores with model-assigned values.

    Normalised mode subtracts the per-agent means from both sides before
    computing the statistics.
    """
    missing = set(elo_tables) - set(dataset.pipelines)
    if missing:
        raise ValidationError(f"Elo tables cover unknown pipelines: {sorted(missing)}")
    if not elo_tables:
        raise ValidationError("no Elo tables supplied")
    objects = enumerate_objects()
    hp = fit_result.hyperparameters

    rows = []
    for pid in sorted(elo_tables):
        table = elo_tables[pid]
        not_scored = [o for o in objects if o not in table.scores]
        if not_scored:
            raise ValidationError(
                f"Elo table for {pid!r} lacks scores for "
                f"{[o.name for o in not_scored[:3]]}"
            )
        w = simulate_variant(hp, dataset.pipelines[pid], fit_result.variant, config)
        for obj in objects:
            rows.append(
                {
                    "pipeline_id": pid,
                    "colour": obj.colour.value,
                    "shape": obj.shape.value,
                    "elo": table.scores[obj],
                    "model_value": goal_value(hp, w, obj),
                }
            )

    elo_arr = np.array([r["elo"] for r in rows])
    val_arr = np.array([r["model_value"] for r in rows])
    if normalised:
        pids = [r["pipeline_id"] for r in rows]
        for pid in sorted(set(pids)):
            sel = np.array([p == pid for p in pids])
            elo_arr[sel] -= elo_arr[sel].mean()
            val_arr[sel] -= val_arr[sel].mean()
        for row, e, v in zip(rows, elo_arr, val_arr):
            row["elo"], row["model_value"] = float(e), float(v)

    rho = _spearman_rho(elo_arr, val_arr)
    r = float(np.corrcoef(elo_arr, val_arr)[0, 1])
    return EloModelComparison(spearman_rho=rho, r_squared=r * r, points=rows)


def _spearman_rho(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: the Pearson correlation of average ranks, where tied
    values share the mean of their 1-based positions. A constant input has
    no ranking and gives nan, as ``scipy.stats.spearmanr`` does."""
    ranks = []
    for values in (x, y):
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        ranks.append((np.cumsum(counts) - (counts - 1) / 2.0)[inverse])
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.corrcoef(*ranks)[0, 1])


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(
    out_dir: str | Path,
    command: str,
    parameters: dict,
    seed: int | None,
    input_paths: list[str | Path],
    diagnostics: dict | None = None,
) -> Path:
    """Record everything needed to reproduce a run byte-for-byte.

    ``diagnostics``, when given, is stored under its own key: what the
    run's solvers report about themselves, such as iteration counts.
    """
    from . import __version__

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool_version": __version__,
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "inputs": {str(p): file_digest(p) for p in input_paths},
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path

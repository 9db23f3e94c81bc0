"""Training pipelines, preference records, and dataset persistence.

Counts are the source of truth; three-way distributions are derived on
demand. Datasets are stored as JSON Lines: a header line mapping pipeline
ids to stage lists, then one record per line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError
from .features import Colour, ObjectFeatures, Shape, object_index


@dataclass(frozen=True)
class TrainingStage:
    """One goal-directed training stage, optionally with a distractor."""

    goal: ObjectFeatures
    distractor: ObjectFeatures | None = None

    def __post_init__(self) -> None:
        if self.distractor is not None and self.distractor == self.goal:
            raise ValidationError(
                f"distractor must differ from goal, got {self.goal.name} twice"
            )


@dataclass(frozen=True)
class TrainingPipeline:
    """An ordered sequence of training stages; order is significant."""

    id: str
    stages: tuple[TrainingStage, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValidationError(f"pipeline {self.id!r} has no stages")

    @property
    def has_distractor(self) -> bool:
        return any(s.distractor is not None for s in self.stages)


@dataclass(frozen=True)
class ChoiceDistribution:
    """Three-way outcome distribution: object a, object b, neither."""

    p_a: float
    p_b: float
    p_none: float

    def __post_init__(self) -> None:
        total = self.p_a + self.p_b + self.p_none
        if min(self.p_a, self.p_b, self.p_none) < 0 or abs(total - 1.0) > 1e-9:
            raise ValidationError(
                f"not a probability distribution: ({self.p_a}, {self.p_b}, {self.p_none})"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_a, self.p_b, self.p_none)

    def swapped(self) -> "ChoiceDistribution":
        return ChoiceDistribution(self.p_b, self.p_a, self.p_none)


@dataclass(frozen=True)
class PreferenceRecord:
    """Outcome tallies for one pipeline's agent on one evaluation pair."""

    pipeline_id: str
    object_a: ObjectFeatures
    object_b: ObjectFeatures
    count_a: int
    count_b: int
    count_none: int
    episodes: int

    def __post_init__(self) -> None:
        if self.object_a == self.object_b:
            raise ValidationError(
                f"evaluation pair must contain two distinct objects, got {self.object_a.name}"
            )
        counts = (self.count_a, self.count_b, self.count_none)
        if min(counts) < 0 or self.episodes <= 0:
            raise ValidationError(f"invalid counts {counts} / episodes {self.episodes}")
        if sum(counts) != self.episodes:
            raise ValidationError(
                f"counts {counts} do not sum to episodes {self.episodes} "
                f"for pair ({self.object_a.name}, {self.object_b.name})"
            )

    def canonical(self) -> "PreferenceRecord":
        """Same record with the pair in canonical object order."""
        if object_index(self.object_a) <= object_index(self.object_b):
            return self
        return PreferenceRecord(
            pipeline_id=self.pipeline_id,
            object_a=self.object_b,
            object_b=self.object_a,
            count_a=self.count_b,
            count_b=self.count_a,
            count_none=self.count_none,
            episodes=self.episodes,
        )


def record_to_distribution(record: PreferenceRecord) -> ChoiceDistribution:
    """Empirical three-way distribution of a record."""
    if record.episodes <= 0:
        raise ValidationError("record has no episodes")
    n = record.episodes
    return ChoiceDistribution(
        record.count_a / n, record.count_b / n, record.count_none / n
    )


@dataclass(frozen=True)
class Dataset:
    """Pipelines plus their preference records.

    Records are canonicalised on construction (pair stored in canonical
    object order, counts swapped to match) and checked for dangling
    pipeline ids and duplicate (pipeline, pair) entries.
    """

    pipelines: dict[str, TrainingPipeline]
    records: tuple[PreferenceRecord, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        canonical = tuple(r.canonical() for r in self.records)
        object.__setattr__(self, "records", canonical)
        seen: set[tuple[str, ObjectFeatures, ObjectFeatures]] = set()
        for i, rec in enumerate(canonical):
            if rec.pipeline_id not in self.pipelines:
                raise ValidationError(
                    f"record {i}: unknown pipeline id {rec.pipeline_id!r}"
                )
            key = (rec.pipeline_id, rec.object_a, rec.object_b)
            if key in seen:
                raise ValidationError(
                    f"record {i}: duplicate pair ({rec.object_a.name}, "
                    f"{rec.object_b.name}) for pipeline {rec.pipeline_id!r}"
                )
            seen.add(key)

    def records_for(self, pipeline_id: str) -> list[PreferenceRecord]:
        return [r for r in self.records if r.pipeline_id == pipeline_id]

    def subset(self, pipeline_ids: set[str]) -> "Dataset":
        """Restriction to the given pipelines and their records."""
        missing = pipeline_ids - set(self.pipelines)
        if missing:
            raise ValidationError(f"unknown pipeline ids: {sorted(missing)}")
        return Dataset(
            pipelines={k: v for k, v in self.pipelines.items() if k in pipeline_ids},
            records=tuple(r for r in self.records if r.pipeline_id in pipeline_ids),
        )


def _object_to_json(obj: ObjectFeatures | None) -> dict | None:
    if obj is None:
        return None
    return {"colour": obj.colour.value, "shape": obj.shape.value}


def _object_from_json(data: dict, where: str) -> ObjectFeatures:
    try:
        return ObjectFeatures(Colour(data["colour"]), Shape(data["shape"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: bad object {data!r} ({exc})") from exc


_RECORD_KEYS = ("pipeline_id", "a", "b", "counts", "episodes")


def _record_from_json(data: object, where: str) -> PreferenceRecord:
    """Parse one record line. Types are exact: ``pipeline_id`` is a string,
    ``counts`` a list of 3 integers and ``episodes`` an integer (true/false
    is never a count)."""
    if not isinstance(data, dict) or any(k not in data for k in _RECORD_KEYS):
        raise ValidationError(
            f"{where}: expected an object with keys {list(_RECORD_KEYS)}"
        )
    pid, counts, episodes = data["pipeline_id"], data["counts"], data["episodes"]
    if type(pid) is not str:
        raise ValidationError(f"{where}: 'pipeline_id' must be a string")
    if not (
        isinstance(counts, list)
        and len(counts) == 3
        and all(type(c) is int for c in counts)
    ):
        raise ValidationError(f"{where}: 'counts' must be a list of 3 integers")
    if type(episodes) is not int:
        raise ValidationError(f"{where}: 'episodes' must be an integer")
    a = _object_from_json(data["a"], where)
    b = _object_from_json(data["b"], where)
    try:
        return PreferenceRecord(pid, a, b, *counts, episodes)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as JSON Lines (header line, then one record per line)."""
    path = Path(path)
    header = {
        "pipelines": {
            pid: [
                {
                    "goal": _object_to_json(stage.goal),
                    "distractor": _object_to_json(stage.distractor),
                }
                for stage in pipe.stages
            ]
            for pid, pipe in dataset.pipelines.items()
        }
    }
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for rec in dataset.records:
            fh.write(
                json.dumps(
                    {
                        "pipeline_id": rec.pipeline_id,
                        "a": _object_to_json(rec.object_a),
                        "b": _object_to_json(rec.object_b),
                        "counts": [rec.count_a, rec.count_b, rec.count_none],
                        "episodes": rec.episodes,
                    }
                )
                + "\n"
            )


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ValidationError(f"{what} file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read {what} file ({exc})") from exc


def _parse_pipelines(header: object, where: str) -> dict[str, TrainingPipeline]:
    """Parse a ``{"pipelines": {id: [stage, ...]}}`` document.

    Each stage is ``{"goal": object, "distractor": object or null}``. Any
    malformed part raises ValidationError naming ``where`` and the part.
    """
    if not isinstance(header, dict) or "pipelines" not in header:
        raise ValidationError(f"{where}: header lacks 'pipelines'")
    spec = header["pipelines"]
    if not isinstance(spec, dict):
        raise ValidationError(
            f"{where}: 'pipelines' must map pipeline ids to stage lists, "
            f"got {type(spec).__name__}"
        )
    pipelines: dict[str, TrainingPipeline] = {}
    for pid, stages in spec.items():
        if not isinstance(stages, list):
            raise ValidationError(f"{where}: pipeline {pid!r} must be a list of stages")
        parsed = []
        for si, stage in enumerate(stages):
            at = f"{where}: pipeline {pid!r} stage {si}"
            if not isinstance(stage, dict) or "goal" not in stage:
                raise ValidationError(f"{at}: expected an object with a 'goal'")
            goal = _object_from_json(stage["goal"], at)
            distractor = (
                _object_from_json(stage["distractor"], at)
                if stage.get("distractor") is not None
                else None
            )
            parsed.append(TrainingStage(goal, distractor))
        pipelines[pid] = TrainingPipeline(pid, tuple(parsed))
    return pipelines


def load_pipelines(path: str | Path) -> dict[str, TrainingPipeline]:
    """Load a JSON pipelines file (the same document as a dataset header)."""
    path = Path(path)
    try:
        data = json.loads(_read_text(path, "pipelines"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON ({exc})") from exc
    pipelines = _parse_pipelines(data, str(path))
    if not pipelines:
        raise ValidationError(f"{path}: no pipelines defined")
    return pipelines


def load_dataset(path: str | Path) -> Dataset:
    """Load a JSON Lines dataset, reporting the offending line on failure."""
    path = Path(path)
    lines = [line for line in _read_text(path, "data").splitlines() if line.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty dataset file")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed header line ({exc})") from exc
    pipelines = _parse_pipelines(header, str(path))

    records = []
    for i, line in enumerate(lines[1:]):
        where = f"record {i}"
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{where}: malformed JSON ({exc})") from exc
        records.append(_record_from_json(data, where))

    return Dataset(pipelines=pipelines, records=tuple(records))

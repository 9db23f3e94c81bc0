"""Training pipelines, preference records, and dataset persistence.

Counts are the source of truth; three-way distributions are derived on
demand. A ``Dataset`` turns its records into arrays once, its ``columns``
(``record_columns``), and checks them there; commands select its rows by
index. Datasets are stored as JSON Lines: a header line mapping pipeline
ids to stage lists, then one record per line.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .features import Colour, ObjectFeatures, Shape, enumerate_objects, object_index


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


def _bounded(n) -> str:
    """``n`` for a message, or its digit count past 20 digits: ``str`` of a
    huge int floods the line, and past 4,300 digits Python refuses it."""
    if type(n) is not int or abs(n) < 10**20:
        return str(n)
    digits = int(abs(n).bit_length() * math.log10(2)) + 1
    if abs(n) < 10 ** (digits - 1):  # the bit length overestimated by one
        digits -= 1
    return f"{'-' if n < 0 else ''}<{digits} digits>"


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
        # Rates divide by episodes as a float, which must not overflow.
        if min(counts) < 0 or not 0 < self.episodes <= sys.float_info.max:
            problem = "invalid counts {} / episodes {}"
        elif sum(counts) != self.episodes:
            problem = "counts {} do not sum to episodes {} for pair ({}, {})"
        else:
            return
        # Formatted only here: a valid record builds no message.
        numbers = f"({', '.join(map(_bounded, counts))})", _bounded(self.episodes)
        names = self.object_a.name, self.object_b.name
        raise ValidationError(problem.format(*numbers, *names))

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


def observed_rates(records: list[PreferenceRecord]) -> np.ndarray:
    """(R, 3) empirical distributions (a, b, neither) of the records."""
    counts = [(r.count_a, r.count_b, r.count_none, r.episodes) for r in records]
    counts = np.array(counts, dtype=float).reshape(-1, 4)
    return counts[:, :3] / counts[:, 3:]


def seeded_folds(n: int, k: int, seed_words: list[int], items: str) -> list[np.ndarray]:
    """The positions 0..n-1 dealt into k folds: position i of a seeded
    permutation goes to fold i % k. ``items`` names the n things in errors."""
    if k < 2:
        raise ValidationError(f"need at least 2 folds, got {k}")
    if n < k:
        raise ValidationError(f"{n} {items} cannot fill {k} folds")
    order = np.random.default_rng(seed_words).permutation(n)
    return [order[i::k] for i in range(k)]


class RecordColumns(NamedTuple):
    pipeline_ids: list[str]  # sorted ids of the pipelines that have records
    pipeline: np.ndarray  # each record's index into pipeline_ids
    codes: np.ndarray  # (R, 2) object_index codes of its objects (a, b)
    rates: np.ndarray  # (R, 3) observed_rates


def record_columns(records: Dataset | Sequence[PreferenceRecord]) -> RecordColumns:
    """A dataset's columns, or those of records taken as given: no pair is
    reordered and duplicates stay. The one conversion of records to arrays."""
    if isinstance(records, Dataset):
        return records.columns
    pids = sorted({r.pipeline_id for r in records})
    index = {pid: i for i, pid in enumerate(pids)}
    pipeline = np.array([index[r.pipeline_id] for r in records], dtype=int)
    codes = [(object_index(r.object_a), object_index(r.object_b)) for r in records]
    codes = np.array(codes, dtype=int).reshape(-1, 2)
    return RecordColumns(pids, pipeline, codes, observed_rates(records))


@dataclass(frozen=True)
class Dataset:
    """Pipelines plus their preference records and the records' columns.

    Records are canonicalised on construction (pair stored in canonical
    object order, counts swapped to match) and checked for dangling ids
    and duplicate (pipeline, pair) entries on their ``columns``' keys.
    """

    pipelines: dict[str, TrainingPipeline]
    records: tuple[PreferenceRecord, ...] = field(default_factory=tuple)
    columns: RecordColumns = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        given = tuple(self.records)  # any iterable, read more than once below
        pids, pipeline, codes, rates = columns = record_columns(given)
        swap = codes[:, 0] > codes[:, 1]
        codes[swap], rates[swap, :2] = codes[swap, ::-1], rates[swap, 1::-1]
        records = tuple(r.canonical() if s else r for r, s in zip(given, swap.tolist()))
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "columns", columns)
        for array in columns[1:]:
            array.flags.writeable = False
        # A record fails if its pipeline is unknown or its (pipeline, a, b)
        # key came earlier. No sort, and no numpy kernel gen-data lacks.
        n, first = len(enumerate_objects()), {}
        key = (pipeline * n + codes[:, 0]) * n + codes[:, 1]
        repeat = [first.setdefault(k, i) != i for i, k in enumerate(key.tolist())]
        unknown = np.array([pid not in self.pipelines for pid in pids], dtype=bool)
        failed = unknown[pipeline] | np.array(repeat, dtype=bool)
        if failed.any():
            i = int(failed.argmax())
            rec = records[i]
            if unknown[pipeline[i]]:
                problem = f"unknown pipeline id {rec.pipeline_id!r}"
            else:
                pair = f"({rec.object_a.name}, {rec.object_b.name})"
                problem = f"duplicate pair {pair} for pipeline {rec.pipeline_id!r}"
            raise ValidationError(f"record {i}: {problem}")

    def records_for(self, pipeline_id: str) -> list[PreferenceRecord]:
        return [r for r in self.records if r.pipeline_id == pipeline_id]


def _object_to_json(obj: ObjectFeatures | None) -> dict | None:
    if obj is None:
        return None
    return {"colour": obj.colour.value, "shape": obj.shape.value}


# The 24 objects by their JSON strings: records name the same few objects
# over and over, so a lookup skips building and validating each one.
_OBJECTS_BY_NAME = {(o.colour.value, o.shape.value): o for o in enumerate_objects()}


def _object_from_json(data: dict, where: str) -> ObjectFeatures:
    # Only string values are looked up (a list is unhashable). Every miss
    # takes the validating path, so its error message does not change.
    if type(data) is dict:
        colour, shape = data.get("colour"), data.get("shape")
        if type(colour) is str and type(shape) is str:
            obj = _OBJECTS_BY_NAME.get((colour, shape))
            if obj is not None:
                return obj
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


def _decode_json(text: str, where: str) -> object:
    """``json.loads``; bad syntax, an integer past Python's digit limit or
    nesting past the recursion limit raise ValidationError(where)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ValidationError(f"{where} ({exc})") from exc


def read_json(path: str | Path, what: str) -> object:
    """Read and decode the JSON input file at ``path``; ``what`` names the
    file in errors, as in "plan file not found: ...".

    A missing, unreadable or non-UTF-8 file or malformed JSON raises
    ValidationError naming the path.
    """
    path = Path(path)
    return _decode_json(_read_text(path, what), f"{path}: malformed {what} JSON")


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
    pipelines = _parse_pipelines(read_json(path, "pipelines"), str(path))
    if not pipelines:
        raise ValidationError(f"{path}: no pipelines defined")
    return pipelines


def load_dataset(path: str | Path) -> Dataset:
    """Load a JSON Lines dataset, reporting the offending line on failure."""
    path = Path(path)
    lines = [line for line in _read_text(path, "data").splitlines() if line.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty dataset file")

    header = _decode_json(lines[0], f"{path}: malformed header line")
    pipelines = _parse_pipelines(header, str(path))

    records = []
    for i, line in enumerate(lines[1:]):
        where = f"record {i}"
        data = _decode_json(line, f"{where}: malformed JSON")
        records.append(_record_from_json(data, where))

    return Dataset(pipelines=pipelines, records=tuple(records))

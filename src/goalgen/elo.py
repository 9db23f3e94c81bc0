"""Anchored Elo/Bradley-Terry scores over three-way preference data.

Each three-way observation is converted into three pairwise comparisons by
masking out one outcome at a time and renormalising the remaining two
rates; a "no goal" competitor stands in for the episode timing out. Scores
are fitted by batch maximum likelihood under the base-10 Elo link
P(a beats b) = 1 / (1 + 10^-(Va-Vb)/400), then shifted so the no-goal
score is exactly zero.

``RecordComparisons`` holds every record's comparisons once, from a
dataset's columns. ``fit_elo_many`` fits the comparisons of many row sets
as one array problem: one ``bincount`` over (problem, a, b) cells merges
every problem's comparisons, and each problem is a row of one
(problems, 25) score array, with a slot per competitor code. ``elo_by_agent`` hands it each
agent's full and holdout-fold row sets and scores each fold's held-out
rows. Folds come from ``dataset.seeded_folds``, as K-fold's do.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

import numpy as np

from .dataset import Dataset, PreferenceRecord, record_columns, seeded_folds
from .errors import NumericalError, ValidationError
from .features import FEATURE_NAMES, ObjectFeatures, enumerate_objects
from .metrics import MetricMode, MetricsReport, compute_metrics

# Natural-log growth rate of the base-10, 400-point Elo link.
ELO_SCALE = math.log(10.0) / 400.0

RIDGE = 1e-8
GRADIENT_STEP = 32.0
CONVERGENCE_TOL = 1e-6
MAX_ITERATIONS = 100_000

Competitor = ObjectFeatures | None  # None is the no-goal competitor
# Competitor codes: the objects' ``object_index``, then the no-goal competitor.
_COMPETITORS = np.array([*enumerate_objects(), None], dtype=object)
_SLOTS = len(_COMPETITORS)
_NO_GOAL = _SLOTS - 1
K = TypeVar("K", bound=Hashable)


@dataclass(frozen=True)
class EloTable:
    """Scores per object, anchored so the no-goal competitor sits at zero.

    A fitted table also records the fit's iteration count and the largest
    score change of its last iteration; both are None on other tables.
    """

    scores: dict[ObjectFeatures, float]
    no_goal_score: float = 0.0
    iterations: int | None = None
    final_step: float | None = None

    def score(self, competitor: Competitor) -> float:
        if competitor is None:
            return self.no_goal_score
        if competitor not in self.scores:
            raise ValidationError(f"unknown competitor {competitor.name}")
        return self.scores[competitor]


def elo_predict(table: EloTable, a: Competitor, b: Competitor) -> float:
    """Probability that competitor a beats competitor b."""
    gap = table.score(a) - table.score(b)
    return 1.0 / (1.0 + 10.0 ** (-gap / 400.0))


class RecordComparisons:
    """Every record's three masked-and-renormalised comparisons, (a, b),
    (a, no goal) and (b, no goal), as (R, 3) arrays built once from the
    ``codes`` and ``rates`` of ``record_columns``, which it keeps.

    Each comparison is weighted by the probability mass of its two
    outcomes; one whose outcomes never occurred gets weight 0 and rate 0.5.
    """

    def __init__(self, records: Dataset | Sequence[PreferenceRecord]):
        _, _, self.codes, self.rates = record_columns(records)
        codes = np.column_stack([self.codes, np.full(len(self.codes), _NO_GOAL)])
        # Columns (a, b, no goal) pair up as (a, b), (a, no goal), (b, no goal).
        first, second = [0, 0, 1], [1, 2, 2]
        self.code_a, self.code_b = codes[:, first], codes[:, second]
        pa, pb = self.rates[:, first], self.rates[:, second]
        self.weight = pa + pb
        self.rate = np.full_like(pa, 0.5)
        np.divide(pa, self.weight, out=self.rate, where=self.weight > 0)

    def check(self, rows: np.ndarray) -> np.ndarray:
        """The row indices, if one of their comparisons has positive weight;
        else the ValidationError that fitting them would raise."""
        rows = np.asarray(rows, dtype=np.intp)
        if not (self.weight[rows] > 0).any():
            raise ValidationError("no positive-weight comparisons to fit")
        return rows


def _merge(comparisons: RecordComparisons, row_sets: list[np.ndarray]):
    """The positive-weight comparisons of each row set, merged per ordered
    pair: (slot a, slot b, weight, weight * win rate), with problem i's
    competitor code c in slot ``i * _SLOTS + c``.

    Pairs are sorted by (problem, a, b). Comparisons that share a pair add
    up, in row order, their weights and their weight * win rate, which
    leaves the likelihood's gradient as it was; zero-weight ones add 0.
    """
    rows = np.concatenate(row_sets)
    start = np.repeat(np.arange(len(row_sets)) * _SLOTS**2, [len(r) for r in row_sets])
    cell = (start[:, None] + comparisons.code_a[rows] * _SLOTS + comparisons.code_b[rows]).ravel()
    weight = comparisons.weight[rows].ravel()
    size = len(row_sets) * _SLOTS**2
    weighted_rate = np.bincount(cell, weight * comparisons.rate[rows].ravel(), size)
    weight = np.bincount(cell, weight, size)
    pairs = np.flatnonzero(weight)
    slot_a = pairs // _SLOTS
    return slot_a, slot_a - slot_a % _SLOTS + pairs % _SLOTS, weight[pairs], weighted_rate[pairs]


def fit_elo_many(
    comparisons: RecordComparisons, row_sets: Mapping[K, np.ndarray]
) -> dict[K, EloTable]:
    """Maximum-likelihood scores of the comparisons of each row set, as
    independent problems in lockstep.

    Each problem runs its own gradient descent on the weighted NLL, with a
    small ridge penalty that keeps scores finite when a competitor never
    loses. Steps are ``GRADIENT_STEP`` x the gradient, and a problem stops
    once its largest score change falls below ``CONVERGENCE_TOL``. Every
    problem is a row of one (problems, 25) score array, one slot per
    competitor code; a code that none of its comparisons names stays at 0
    and is left out of its table. Every iteration steps all rows still
    running at once, and a converged problem's row is written out and
    dropped. Raises ValidationError if a row set has no positive-weight
    comparison, and NumericalError naming the first problem (in mapping
    order) still running after ``MAX_ITERATIONS`` iterations, by its key; a
    key of None, as ``fit_elo`` uses, names no problem.
    """
    if not row_sets:
        return {}
    keys = list(row_sets)
    slot_a, slot_b, weight, weighted_rate = _merge(
        comparisons, [comparisons.check(rows) for rows in row_sets.values()]
    )
    n = len(keys) * _SLOTS
    present = np.bincount(np.append(slot_a, slot_b), minlength=n).reshape(-1, _SLOTS) > 0
    # With u = exp(ELO_SCALE * s), P(a beats b) = u_a / (u_a + u_b), so a
    # slot's NLL gradient is u times the sum of ELO_SCALE * w / (u_a + u_b)
    # over the pairs that touch it, plus these terms of the data alone.
    data = ELO_SCALE * (
        np.bincount(slot_b, weights=weighted_rate - weight, minlength=n)
        - np.bincount(slot_a, weights=weighted_rate, minlength=n)
    ).reshape(-1, _SLOTS)
    weight = ELO_SCALE * weight
    live = np.arange(len(keys))  # the problem of each row of ``scores``
    scores = np.zeros((len(keys), _SLOTS))
    tables: dict[K, EloTable] = {}
    for iteration in range(1, MAX_ITERATIONS + 1):
        u = np.exp(ELO_SCALE * scores)
        share = weight / (u.take(slot_a) + u.take(slot_b))
        touch = np.bincount(slot_a, share, u.size) + np.bincount(slot_b, share, u.size)
        grad = 2.0 * RIDGE * scores + data + u * touch.reshape(u.shape)
        delta = GRADIENT_STEP * grad
        scores -= delta
        largest = np.abs(delta).max(axis=1)
        done = largest < CONVERGENCE_TOL
        if done.any():
            for j in np.flatnonzero(done):
                codes = np.flatnonzero(present[live[j], :_NO_GOAL])
                anchored = scores[j, codes] - scores[j, _NO_GOAL]
                tables[keys[live[j]]] = EloTable(
                    dict(zip(_COMPETITORS[codes], anchored.tolist())),
                    iterations=iteration,
                    final_step=float(largest[j]),
                )
            # Drop the done rows' pairs, and shift the others' slots up past them.
            row = slot_a // _SLOTS
            on = ~done[row]
            shift = _SLOTS * np.cumsum(done)[row[on]]
            slot_a, slot_b, weight = slot_a[on] - shift, slot_b[on] - shift, weight[on]
            live, scores, data, grad = live[~done], scores[~done], data[~done], grad[~done]
            if not len(live):
                return {key: tables[key] for key in keys}
    name = "Elo fit" if keys[live[0]] is None else f"Elo fit for {keys[live[0]]}"
    raise NumericalError(
        f"{name} did not converge in {MAX_ITERATIONS} iterations "
        f"(gradient norm {np.linalg.norm(grad[0]):.3e})"
    )


def fit_elo(records: Sequence[PreferenceRecord]) -> EloTable:
    """Scores fitted to one set of records; see ``fit_elo_many``."""
    comparisons = RecordComparisons(records)
    return fit_elo_many(comparisons, {None: np.arange(len(comparisons.codes))})[None]


def marginalised_elo(table: EloTable, feature: str) -> float:
    """Mean score of all objects in the table containing the feature."""
    if feature not in FEATURE_NAMES:
        raise ValidationError(f"unknown feature {feature!r}")
    values = [
        score
        for obj, score in table.scores.items()
        if feature in (obj.colour.value, obj.shape.value)
    ]
    if not values:
        raise ValidationError(f"no scored objects contain feature {feature!r}")
    return float(np.mean(values))


def elo_table_to_csv(table: EloTable, path) -> None:
    """Write scores as (object_colour, object_shape, score) plus a no-goal row."""
    lines = ["object_colour,object_shape,score"]
    for obj in sorted(table.scores, key=lambda o: (o.colour.value, o.shape.value)):
        lines.append(f"{obj.colour.value},{obj.shape.value},{table.scores[obj]:.6f}")
    lines.append(f"no-goal,no-goal,{table.no_goal_score:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")


def marginalised_to_csv(table: EloTable, path) -> None:
    """Write marginalised feature scores as (feature, score).

    Features with no scored objects (possible on sparse tables) are
    omitted; full 24-object tables always produce all 10 rows.
    """
    lines = ["feature,score"]
    for feature in FEATURE_NAMES:
        try:
            lines.append(f"{feature},{marginalised_elo(table, feature):.6f}")
        except ValidationError:
            continue
    Path(path).write_text("\n".join(lines) + "\n")


def holdout_folds(
    n: int, k: int = 4, rng_seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The K seeded (training, held-out) splits of an agent's n record rows,
    as positions 0..n-1. A training split lists the other folds in order."""
    folds = seeded_folds(n, k, [0x656C6F, rng_seed], "records")
    return [
        (np.concatenate([f for i, f in enumerate(folds) if i != held]), folds[held])
        for held in range(k)
    ]


def score_holdout(
    comparisons: RecordComparisons, held_out: list[np.ndarray], tables: list[EloTable]
) -> MetricsReport:
    """Two-way metrics of each fold's table on its held-out rows.

    Predicts each held-out record's renormalised two-way rates through the
    Elo link and averages the metrics over folds; directional accuracy
    averages over the folds with a directional pair, and is 0 without one.
    Records with an object the fold's table never scored are skipped and
    counted as such.
    """
    reports = []
    n_uncovered = 0
    for rows, table in zip(held_out, tables):
        scored = np.array([obj in table.scores for obj in _COMPETITORS[:-1]])
        covered = rows[scored[comparisons.codes[rows]].all(axis=1)]
        n_uncovered += len(rows) - len(covered)
        if len(covered):
            pairs = _COMPETITORS[comparisons.codes[covered]].tolist()
            p = np.array([elo_predict(table, a, b) for a, b in pairs])
            predictions = np.column_stack([p, 1.0 - p, np.zeros_like(p)])
            observed = comparisons.rates[covered]
            reports.append(compute_metrics(predictions, observed, MetricMode.TWO_WAY))
    if not reports:
        raise ValidationError(
            "no held-out record involved two competitors seen during fitting"
        )

    # A fold without a directional pair has no accuracy to average.
    directional = [r for r in reports if r.n_directional]
    return MetricsReport(
        kl=float(np.mean([r.kl for r in reports])),
        tv=float(np.mean([r.tv for r in reports])),
        brier=float(np.mean([r.brier for r in reports])),
        directional_accuracy=float(
            np.mean([r.directional_accuracy for r in directional] or [0.0])
        ),
        n_directional=int(sum(r.n_directional for r in reports)),
        mode=MetricMode.TWO_WAY,
        n_skipped=int(sum(r.n_skipped for r in reports)) + n_uncovered,
    )


def elo_by_agent(
    records: Dataset | Sequence[PreferenceRecord],
    agent_rows: Mapping[str | None, np.ndarray],
    k: int = 4,
    rng_seed: int = 0,
    full: bool = True,
) -> dict[str | None, tuple[EloTable | None, MetricsReport | ValidationError]]:
    """Each agent's (table, holdout report) from its row indices into
    ``records``, with every fit in one ``fit_elo_many`` call.

    Agent by agent, the row sets are ``pipeline <agent>``, all its rows (if
    ``full``; else the table is None), and its folds ``pipeline <agent>
    (fold <i>)``, or ``fold <i>`` for the agent None. A report is instead
    the ValidationError that skipped it: rows too few for k folds, a fold
    with no positive-weight comparison, or no held-out record that its
    fold's table scores both competitors of.
    """
    comparisons = RecordComparisons(records)
    row_sets, folds = {}, {}
    for agent, rows in agent_rows.items():
        if full:
            row_sets[f"pipeline {agent}"] = rows
        try:
            splits = holdout_folds(len(rows), k, rng_seed)
            keys = [
                f"fold {i}" if agent is None else f"pipeline {agent} (fold {i})"
                for i in range(k)
            ]
            trains = [comparisons.check(rows[train]) for train, _ in splits]
        except ValidationError as exc:
            folds[agent] = exc
        else:
            row_sets.update(zip(keys, trains))
            folds[agent] = keys, [rows[test] for _, test in splits]
    tables = fit_elo_many(comparisons, row_sets)

    results = {}
    for agent, fold in folds.items():
        report = fold
        if not isinstance(fold, ValidationError):
            keys, held_out = fold
            fold_tables = [tables[key] for key in keys]
            try:
                report = score_holdout(comparisons, held_out, fold_tables)
            except ValidationError as exc:
                report = exc
        results[agent] = (tables[f"pipeline {agent}"] if full else None, report)
    return results


def elo_holdout_validation(
    records: list[PreferenceRecord],
    k: int = 4,
    rng_seed: int = 0,
) -> MetricsReport:
    """K-fold validation of how well Elo scores predict held-out pairs:
    ``elo_by_agent`` on the records as one agent, with no full fit. Raises
    the ValidationError that would skip the report."""
    rows = {None: np.arange(len(records))}
    _, report = elo_by_agent(records, rows, k, rng_seed, full=False)[None]
    if isinstance(report, ValidationError):
        raise report
    return report

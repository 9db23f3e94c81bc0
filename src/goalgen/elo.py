"""Anchored Elo/Bradley-Terry scores over three-way preference data.

Each three-way observation is converted into three pairwise comparisons by
masking out one outcome at a time and renormalising the remaining two
rates; a "no goal" competitor stands in for the episode timing out. Scores
are fitted by batch maximum likelihood under the base-10 Elo link
P(a beats b) = 1 / (1 + 10^-(Va-Vb)/400), then shifted so the no-goal
score is exactly zero.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .dataset import ChoiceDistribution, PreferenceRecord, record_to_distribution
from .errors import NumericalError, ValidationError
from .features import FEATURE_NAMES, ObjectFeatures
from .metrics import MetricMode, MetricsReport, compute_metrics

# Natural-log growth rate of the base-10, 400-point Elo link.
ELO_SCALE = math.log(10.0) / 400.0

RIDGE = 1e-8
GRADIENT_STEP = 32.0
CONVERGENCE_TOL = 1e-6
MAX_ITERATIONS = 100_000

Competitor = ObjectFeatures | None  # None is the no-goal competitor
K = TypeVar("K", bound=Hashable)


@dataclass(frozen=True)
class PairwiseComparison:
    competitor_a: Competitor
    competitor_b: Competitor
    win_rate_a: float
    weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.win_rate_a <= 1.0:
            raise ValidationError(f"win_rate_a {self.win_rate_a} outside [0, 1]")
        if not math.isfinite(self.weight) or self.weight < 0:
            raise ValidationError(f"bad comparison weight {self.weight}")


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


def to_pairwise(record: PreferenceRecord) -> list[PairwiseComparison]:
    """Three masked-and-renormalised comparisons from one record.

    Each comparison is weighted by the probability mass of its two
    outcomes; a comparison whose outcomes never occurred gets weight 0
    (its win rate is reported as 0.5 but carries no information).
    """
    dist = record_to_distribution(record)
    out = []
    for ca, cb, pa, pb in (
        (record.object_a, record.object_b, dist.p_a, dist.p_b),
        (record.object_a, None, dist.p_a, dist.p_none),
        (record.object_b, None, dist.p_b, dist.p_none),
    ):
        mass = pa + pb
        rate = pa / mass if mass > 0 else 0.5
        out.append(PairwiseComparison(ca, cb, rate, mass))
    return out


def elo_predict(table: EloTable, a: Competitor, b: Competitor) -> float:
    """Probability that competitor a beats competitor b."""
    gap = table.score(a) - table.score(b)
    return 1.0 / (1.0 + 10.0 ** (-gap / 400.0))


@dataclass(frozen=True, eq=False)
class EloProblem:
    """One fit's comparisons, merged per ordered pair of competitors.

    Slot i scores ``objects[i]`` and the last slot the no-goal competitor.
    Comparisons that share an ordered pair (a, b) add up their weights and
    their weight * win rate, which leaves the likelihood's gradient as it
    was. Zero-weight comparisons carry no information and are dropped.
    """

    objects: tuple[ObjectFeatures, ...]
    slot_a: np.ndarray
    slot_b: np.ndarray
    weight: np.ndarray
    weighted_rate: np.ndarray

    @classmethod
    def from_comparisons(cls, comparisons: Iterable[PairwiseComparison]) -> EloProblem:
        merged: dict[tuple[Competitor, Competitor], list[float]] = {}
        for c in comparisons:
            if c.weight > 0:
                sums = merged.setdefault((c.competitor_a, c.competitor_b), [0.0, 0.0])
                sums[0] += c.weight
                sums[1] += c.weight * c.win_rate_a
        if not merged:
            raise ValidationError("no positive-weight comparisons to fit")
        objects = sorted(
            {c for pair in merged for c in pair} - {None},
            key=lambda o: (o.colour.value, o.shape.value),
        )
        index: dict[Competitor, int] = {obj: i for i, obj in enumerate(objects)}
        index[None] = len(objects)
        sums = np.array(list(merged.values()))
        return cls(
            tuple(objects),
            np.array([index[a] for a, _ in merged]),
            np.array([index[b] for _, b in merged]),
            sums[:, 0],
            sums[:, 1],
        )

    @classmethod
    def from_records(cls, records: Iterable[PreferenceRecord]) -> EloProblem:
        return cls.from_comparisons(c for rec in records for c in to_pairwise(rec))


def fit_elo_many(
    problems: Mapping[K, EloProblem],
    step: float = GRADIENT_STEP,
    tol: float = CONVERGENCE_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> dict[K, EloTable]:
    """Maximum-likelihood scores of independent problems, in lockstep.

    Each problem runs its own gradient descent on the weighted NLL, with a
    small ridge penalty that keeps scores finite when a competitor never
    loses, and stops once its largest score change falls below ``tol``.
    Every iteration steps all problems still running at once. Problems
    share no score slots, so each takes the iterates it would take alone;
    a converged problem is written out and dropped from the live arrays.
    Raises NumericalError naming the first problem (in mapping order)
    still running at the cap, by its key; a key of None, as ``fit_elo``
    uses, names no problem.
    """
    if not problems:
        return {}
    live = list(problems)
    tables: dict[K, EloTable] = {}
    starts, slot_a, slot_b, weight, weighted_rate = _stack(list(problems.values()))
    scores = np.zeros(starts[-1])
    for iteration in range(1, max_iterations + 1):
        gap = scores[slot_a] - scores[slot_b]
        p = 1.0 / (1.0 + np.exp(-ELO_SCALE * gap))
        resid = ELO_SCALE * (weighted_rate - weight * p)
        grad = (
            2.0 * RIDGE * scores
            - np.bincount(slot_a, weights=resid, minlength=scores.size)
            + np.bincount(slot_b, weights=resid, minlength=scores.size)
        )
        delta = step * grad
        scores -= delta
        largest = np.maximum.reduceat(np.abs(delta), starts[:-1])
        done = largest < tol
        if done.any():
            for j in np.flatnonzero(done):
                key, segment = live[j], scores[starts[j] : starts[j + 1]]
                anchored = (segment - segment[-1]).tolist()
                tables[key] = EloTable(
                    dict(zip(problems[key].objects, anchored)),
                    iterations=iteration,
                    final_step=float(largest[j]),
                )
            keep = np.repeat(~done, np.diff(starts))
            scores, grad = scores[keep], grad[keep]
            live = [key for key, stop in zip(live, done) if not stop]
            if not live:
                return {key: tables[key] for key in problems}
            starts, slot_a, slot_b, weight, weighted_rate = _stack(
                [problems[key] for key in live]
            )
    key = live[0]
    norm = np.linalg.norm(grad[starts[0] : starts[1]])
    name = "Elo fit" if key is None else f"Elo fit for {key}"
    raise NumericalError(
        f"{name} did not converge in {max_iterations} iterations "
        f"(gradient norm {norm:.3e})"
    )


def _stack(problems: list[EloProblem]):
    """Slot offsets and the concatenated pair arrays, in global slots."""
    starts = np.cumsum([0] + [len(p.objects) + 1 for p in problems])
    return (
        starts,
        np.concatenate([p.slot_a + s for p, s in zip(problems, starts)]),
        np.concatenate([p.slot_b + s for p, s in zip(problems, starts)]),
        np.concatenate([p.weight for p in problems]),
        np.concatenate([p.weighted_rate for p in problems]),
    )


def fit_elo(
    comparisons: Iterable[PairwiseComparison],
    step: float = GRADIENT_STEP,
    tol: float = CONVERGENCE_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> EloTable:
    """Scores for one set of comparisons; see ``fit_elo_many``."""
    problem = EloProblem.from_comparisons(comparisons)
    return fit_elo_many({None: problem}, step, tol, max_iterations)[None]


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
    from pathlib import Path

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
    from pathlib import Path

    lines = ["feature,score"]
    for feature in FEATURE_NAMES:
        try:
            lines.append(f"{feature},{marginalised_elo(table, feature):.6f}")
        except ValidationError:
            continue
    Path(path).write_text("\n".join(lines) + "\n")


def holdout_folds(
    records: list[PreferenceRecord], k: int = 4, rng_seed: int = 0
) -> list[tuple[list[PreferenceRecord], list[PreferenceRecord]]]:
    """The K seeded (training, held-out) splits of one agent's records."""
    if k < 2:
        raise ValidationError(f"need at least 2 folds, got {k}")
    if len(records) < k:
        raise ValidationError(f"{len(records)} records cannot fill {k} folds")

    rng = np.random.default_rng([0x656C6F, rng_seed])
    order = rng.permutation(len(records))
    folds = [order[i::k] for i in range(k)]
    return [
        (
            [records[i] for f, fold in enumerate(folds) if f != held for i in fold],
            [records[i] for i in folds[held]],
        )
        for held in range(k)
    ]


def score_holdout(
    held_out: list[list[PreferenceRecord]], tables: list[EloTable]
) -> MetricsReport:
    """Two-way metrics of each fold's table on its held-out records.

    Predicts each held-out record's renormalised two-way rates through the
    Elo link and averages the metrics over folds. Records with an object
    the fold's table never scored are skipped and counted as such.
    """
    reports = []
    n_uncovered = 0
    for test, table in zip(held_out, tables):
        predictions = []
        observations = []
        for rec in test:
            if rec.object_a not in table.scores or rec.object_b not in table.scores:
                n_uncovered += 1
                continue
            p = elo_predict(table, rec.object_a, rec.object_b)
            predictions.append(ChoiceDistribution(p, 1.0 - p, 0.0))
            observations.append(record_to_distribution(rec))
        if predictions:
            reports.append(
                compute_metrics(predictions, observations, MetricMode.TWO_WAY)
            )
    if not reports:
        raise ValidationError(
            "no held-out record involved two competitors seen during fitting"
        )

    return MetricsReport(
        kl=float(np.mean([r.kl for r in reports])),
        tv=float(np.mean([r.tv for r in reports])),
        brier=float(np.mean([r.brier for r in reports])),
        directional_accuracy=float(
            np.mean([r.directional_accuracy for r in reports])
        ),
        n_directional=int(sum(r.n_directional for r in reports)),
        mode=MetricMode.TWO_WAY,
        n_skipped=int(sum(r.n_skipped for r in reports)) + n_uncovered,
    )


def elo_holdout_validation(
    records: list[PreferenceRecord],
    k: int = 4,
    rng_seed: int = 0,
) -> MetricsReport:
    """K-fold validation of how well Elo scores predict held-out pairs.

    Fits the K training folds of one agent's records in one lockstep call
    and scores each on its held-out fold (``score_holdout``).
    """
    folds = holdout_folds(records, k, rng_seed)
    tables = fit_elo_many(
        {
            f"fold {i}": EloProblem.from_records(train)
            for i, (train, _) in enumerate(folds)
        }
    )
    return score_holdout([test for _, test in folds], list(tables.values()))

"""Prediction-quality metrics over three-way choice distributions.

All metrics compare an observed distribution p-hat against a predicted
distribution q. Three-way mode scores the full (a, b, neither)
distribution; two-way mode drops the neither component and renormalises
both sides, skipping observations with zero combined goal mass.
Directional accuracy always uses the two-way observed gap, and only pairs
whose observed gap is at least 10 percentage points are counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalError, ValidationError

DIRECTIONAL_GAP_THRESHOLD = 0.10
# Rates are counts over episodes, so a gap of exactly 10 points (11 vs 9 of
# 100) can round a few ulps under 0.10. Two distinct gaps from N episodes
# differ by at least 1 / N**2, so for N below 10**6 this slack lets in no
# gap smaller than 10 points.
_GAP_SLACK = 1e-12


class MetricMode(str, Enum):
    THREE_WAY = "three_way"
    TWO_WAY = "two_way"


@dataclass(frozen=True)
class MetricsReport:
    kl: float
    tv: float
    brier: float
    directional_accuracy: float
    n_directional: int
    mode: MetricMode
    n_skipped: int = 0


def _per_row(values: np.ndarray) -> float | np.ndarray:
    """A float for one distribution, an array for rows of them."""
    return float(values) if values.ndim == 0 else values


def kl_divergence(observed: np.ndarray, predicted: np.ndarray) -> float | np.ndarray:
    """KL(observed || predicted) along the last axis, with 0 log 0 = 0."""
    obs = np.asarray(observed, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(obs > 0, obs * (np.log(obs) - np.log(pred)), 0.0)
    return _per_row(terms.sum(axis=-1))


def total_variation(observed: np.ndarray, predicted: np.ndarray) -> float | np.ndarray:
    """Total variation distance along the last axis."""
    diff = np.asarray(observed, dtype=float) - np.asarray(predicted, dtype=float)
    return _per_row(0.5 * np.abs(diff).sum(axis=-1))


def brier_score(observed: np.ndarray, predicted: np.ndarray) -> float | np.ndarray:
    """Mean squared difference along the last axis."""
    diff = np.asarray(observed, dtype=float) - np.asarray(predicted, dtype=float)
    return _per_row((diff**2).mean(axis=-1))


def compute_metrics(
    predictions: np.ndarray,
    observations: np.ndarray,
    mode: MetricMode = MetricMode.THREE_WAY,
) -> MetricsReport:
    """Score aligned (R, 3) predicted and observed (a, b, neither) rows,
    given as arrays or nested sequences."""
    mode = MetricMode(mode)
    pred = np.asarray(predictions, dtype=float).reshape(-1, 3)
    obs = np.asarray(observations, dtype=float).reshape(-1, 3)
    if len(pred) != len(obs):
        raise ValidationError(f"{len(pred)} predictions vs {len(obs)} observations")
    if not len(pred):
        raise ValidationError("no examples to score")

    # Observations with goal mass have a two-way view; two-way mode skips
    # the others, and only they count towards directional accuracy.
    mass = obs[:, 0] + obs[:, 1]
    two_way = mass > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        obs2 = obs[:, :2] / mass[:, None]
    if mode is MetricMode.THREE_WAY:
        p, q = pred, obs
    else:
        if not two_way.any():
            raise ValidationError("every example was skipped (zero goal mass)")
        pred_mass = pred[two_way, 0] + pred[two_way, 1]
        if np.any(pred_mass <= 0):
            raise NumericalError("prediction has zero goal mass in two-way mode")
        p, q = pred[two_way, :2] / pred_mass[:, None], obs2[two_way]

    # Directional accuracy on the observed two-way gap; predicted ties
    # count as incorrect.
    gap = obs2[:, 0] - obs2[:, 1]
    directional = two_way & (np.abs(gap) >= DIRECTIONAL_GAP_THRESHOLD - _GAP_SLACK)
    pred_sign = np.sign(pred[:, 0] - pred[:, 1])
    correct = directional & (pred_sign != 0) & (pred_sign == np.sign(gap))
    n_dir = int(directional.sum())

    return MetricsReport(
        kl=float(kl_divergence(q, p).mean()),
        tv=float(total_variation(q, p).mean()),
        brier=float(brier_score(q, p).mean()),
        directional_accuracy=int(correct.sum()) / n_dir if n_dir else 0.0,
        n_directional=n_dir,
        mode=mode,
        n_skipped=0 if mode is MetricMode.THREE_WAY else int((~two_way).sum()),
    )

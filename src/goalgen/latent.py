"""Latent preference dynamics: how training stages shape low-dimensional
latent weights, and how those weights determine choice distributions.

A saliency matrix S maps latent weights w to per-object values
v = phi . S w; choices follow a softmax over object values with the
no-goal option pinned at 0. Training on a goal is modelled as gradient
ascent on the goal-selection probability plus an entropy bonus scaled by
the temperature tau. Ascending that objective moves w only along
S^T phi(goal) and converges on the hyperplane v = 1/tau, so a whole
pipeline is (approximately) a sequence of projections onto goal
hyperplanes, and S S^T acts as a similarity metric between features.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dataset import ChoiceDistribution, TrainingPipeline, TrainingStage
from .errors import NumericalError, ValidationError
from .features import N_FEATURES, ObjectFeatures, encode_features

DEFAULT_LATENT_DIM = 10
DEFAULT_INTEGRATION_STEPS = 100
_MAX_LOG_TAU = math.log(sys.float_info.max)

# Expanded basis for the quadratic variant: 10 base features, 10
# self-interactions, then the 45 cross terms (i < j) in index order.
N_EXPANDED = N_FEATURES + N_FEATURES + (N_FEATURES * (N_FEATURES - 1)) // 2
_CROSS_PAIRS = list(itertools.combinations(range(N_FEATURES), 2))


class SaliencyVariant(str, Enum):
    FULL = "full"
    DIAGONAL = "diagonal"
    QUADRATIC = "quadratic"


def encode_expanded(obj: ObjectFeatures | None) -> np.ndarray:
    """Feature vector with self- and pairwise-interaction terms appended."""
    base = encode_features(obj)
    vec = np.zeros(N_EXPANDED)
    vec[:N_FEATURES] = base
    vec[N_FEATURES : 2 * N_FEATURES] = base * base
    for k, (i, j) in enumerate(_CROSS_PAIRS):
        vec[2 * N_FEATURES + k] = base[i] * base[j]
    return vec


@dataclass(frozen=True)
class LpgHyperparameters:
    """Saliency matrix, log temperature, and initial latent value.

    For the full and diagonal variants the saliency is a 10 x d matrix
    with zeros below the main diagonal; the quadratic variant stores the
    65 diagonal entries of its expanded-basis saliency as a vector.
    """

    saliency: np.ndarray
    log_tau: float = 0.0
    w0: float = 0.0
    variant: SaliencyVariant = SaliencyVariant.FULL

    def __post_init__(self) -> None:
        s = np.asarray(self.saliency, dtype=float)
        variant = SaliencyVariant(self.variant)
        object.__setattr__(self, "variant", variant)
        if variant is SaliencyVariant.QUADRATIC:
            if s.shape != (N_EXPANDED,):
                raise ValidationError(
                    f"quadratic saliency must have shape ({N_EXPANDED},), got {s.shape}"
                )
        else:
            if s.ndim != 2 or s.shape[0] != N_FEATURES:
                raise ValidationError(
                    f"saliency must have shape (10, d), got {s.shape}"
                )
            rows, cols = np.tril_indices(s.shape[0], k=-1, m=s.shape[1])
            if np.any(s[rows, cols] != 0.0):
                raise ValidationError("saliency entries below the diagonal must be 0")
            if variant is SaliencyVariant.DIAGONAL:
                off = ~np.eye(s.shape[0], s.shape[1], dtype=bool)
                if np.any(s[off] != 0.0):
                    raise ValidationError(
                        "diagonal variant forbids off-diagonal saliency entries"
                    )
        # NaN fails the comparison; tau = exp(log_tau) must neither
        # overflow nor underflow to 0, which 1 / tau would divide by.
        if not (
            np.all(np.isfinite(s))
            and self.log_tau <= _MAX_LOG_TAU
            and math.exp(self.log_tau) > 0.0
            and math.isfinite(self.w0)
        ):
            raise ValidationError(
                "hyperparameters must be finite, and tau = exp(log_tau) "
                "positive and finite"
            )
        object.__setattr__(self, "saliency", s)

    @property
    def tau(self) -> float:
        return math.exp(self.log_tau)

    @property
    def latent_dim(self) -> int:
        if self.variant is SaliencyVariant.QUADRATIC:
            return N_EXPANDED
        return self.saliency.shape[1]

    @property
    def n_features(self) -> int:
        return N_EXPANDED if self.variant is SaliencyVariant.QUADRATIC else N_FEATURES

    def matrix(self) -> np.ndarray:
        """Dense saliency matrix, (n_features, latent_dim)."""
        if self.variant is SaliencyVariant.QUADRATIC:
            return np.diag(self.saliency)
        return self.saliency

    def encode(self, obj: ObjectFeatures | None) -> np.ndarray:
        if self.variant is SaliencyVariant.QUADRATIC:
            return encode_expanded(obj)
        return encode_features(obj)


def identity_hyperparameters(
    variant: SaliencyVariant = SaliencyVariant.FULL,
    latent_dim: int = DEFAULT_LATENT_DIM,
    log_tau: float = 0.0,
    w0: float = 0.0,
) -> LpgHyperparameters:
    """The standard initialisation: identity saliency, tau 1, w0 0."""
    variant = SaliencyVariant(variant)
    if variant is SaliencyVariant.QUADRATIC:
        saliency = np.ones(N_EXPANDED)
    else:
        saliency = np.eye(N_FEATURES, latent_dim)
    return LpgHyperparameters(saliency, log_tau, w0, variant)


@dataclass(frozen=True)
class StageObjectiveValue:
    """Objective value, goal-selection probability, and latent gradient."""

    j: float
    pi_goal: float
    grad_w: np.ndarray


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _entropy(p: float) -> float:
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def goal_value(hp: LpgHyperparameters, w: np.ndarray, obj: ObjectFeatures | None) -> float:
    """Value the model assigns to an object: phi . S w."""
    return float(hp.encode(obj) @ (hp.matrix() @ np.asarray(w, dtype=float)))


def predict_preferences(
    hp: LpgHyperparameters,
    w: np.ndarray,
    object_a: ObjectFeatures,
    object_b: ObjectFeatures,
) -> ChoiceDistribution:
    """Three-way softmax over (value a, value b, 0)."""
    if object_a == object_b:
        raise ValidationError("evaluation pair must contain two distinct objects")
    va = goal_value(hp, w, object_a)
    vb = goal_value(hp, w, object_b)
    m = max(va, vb, 0.0)
    ea, eb, e0 = math.exp(va - m), math.exp(vb - m), math.exp(-m)
    z = ea + eb + e0
    return ChoiceDistribution(ea / z, eb / z, e0 / z)


def stage_objective(
    hp: LpgHyperparameters, w: np.ndarray, stage: TrainingStage
) -> StageObjectiveValue:
    """Entropy-regularised goal objective and its gradient in latent space.

    Without a distractor the gradient reduces to
    (1 - tau v) sigma(v) (1 - sigma(v)) S^T phi(goal); with one, the
    goal-selection probability comes from a three-way softmax and the
    gradient picks up a component along -S^T phi(distractor).
    """
    s_matrix = hp.matrix()
    w = np.asarray(w, dtype=float)
    tau = hp.tau
    phi_g = hp.encode(stage.goal)
    u_g = s_matrix.T @ phi_g
    v_g = float(u_g @ w)

    if stage.distractor is None:
        pi = _sigmoid(v_g)
        coef = (1.0 - tau * v_g) * pi * (1.0 - pi)
        return StageObjectiveValue(
            j=pi + tau * _entropy(pi),
            pi_goal=pi,
            grad_w=coef * u_g,
        )

    phi_d = hp.encode(stage.distractor)
    u_d = s_matrix.T @ phi_d
    v_d = float(u_d @ w)
    m = max(v_g, v_d, 0.0)
    e_g, e_d, e_0 = math.exp(v_g - m), math.exp(v_d - m), math.exp(-m)
    z = e_g + e_d + e_0
    pi_g, pi_d = e_g / z, e_d / z
    # ln((1 - pi_g) / pi_g), computed without cancellation.
    log_ratio = np.logaddexp(0.0, v_d) - v_g
    mult = (1.0 + tau * log_ratio) * pi_g
    grad = mult * ((1.0 - pi_g) * u_g - pi_d * u_d)
    return StageObjectiveValue(
        j=pi_g + tau * _entropy(pi_g),
        pi_goal=pi_g,
        grad_w=grad,
    )


def simulate_pipeline(
    hp: LpgHyperparameters,
    pipeline: TrainingPipeline,
    n_integration_steps: int = DEFAULT_INTEGRATION_STEPS,
    step_size: float = 1.0,
) -> np.ndarray:
    """Latent weights after ascending each stage objective in order.

    Weights start at w0 * ones and take ``n_integration_steps`` unit
    ascent steps per stage, carrying over between stages.
    """
    if not pipeline.stages:
        raise ValidationError("pipeline has no stages")
    w = np.full(hp.latent_dim, hp.w0)
    for stage_idx, stage in enumerate(pipeline.stages):
        for step_idx in range(n_integration_steps):
            w = w + step_size * stage_objective(hp, w, stage).grad_w
            if not np.all(np.isfinite(w)):
                raise NumericalError(
                    f"non-finite latent weights in pipeline {pipeline.id!r} "
                    f"at stage {stage_idx}, step {step_idx}"
                )
    return w


def equilibrium_projection(
    hp: LpgHyperparameters, w_start: np.ndarray, goal: ObjectFeatures
) -> np.ndarray:
    """Closed-form projection of the weights onto the goal's equilibrium
    hyperplane phi . S w = 1/tau, along S^T phi."""
    s_matrix = hp.matrix()
    phi = hp.encode(goal)
    u = s_matrix.T @ phi
    norm_sq = float(u @ u)
    if norm_sq <= 0.0:
        raise ValidationError(f"degenerate goal {goal.name}: S^T phi is zero")
    w_start = np.asarray(w_start, dtype=float)
    v0 = float(phi @ (s_matrix @ w_start))
    return w_start + ((1.0 / hp.tau - v0) / norm_sq) * u


def similarity_metric(hp: LpgHyperparameters) -> np.ndarray:
    """S S^T, the induced similarity metric over the feature basis."""
    s_matrix = hp.matrix()
    return s_matrix @ s_matrix.T


def induced_value(
    hp: LpgHyperparameters, probe: ObjectFeatures | None, goal: ObjectFeatures
) -> float:
    """Value assigned to ``probe`` after converged training on ``goal``
    from zero initial weights: (1/tau) phi' . S S^T phi / ||S^T phi||^2."""
    s_matrix = hp.matrix()
    u = s_matrix.T @ hp.encode(goal)
    norm_sq = float(u @ u)
    if norm_sq <= 0.0:
        raise ValidationError(f"degenerate goal {goal.name}: S^T phi is zero")
    return float(hp.encode(probe) @ (s_matrix @ u)) / (hp.tau * norm_sq)


def hyperparameters_to_json(hp: LpgHyperparameters) -> dict:
    return {
        "variant": hp.variant.value,
        "d": hp.latent_dim,
        "saliency": [float(x) for x in np.ravel(hp.saliency)],
        "log_tau": hp.log_tau,
        "w0": hp.w0,
    }


def _is_finite_number(value: object) -> bool:
    # bool is an int subclass, but true/false is never a number here; the
    # bound also rejects NaN, infinities and ints too large for a float.
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def hyperparameters_from_json(data: object) -> LpgHyperparameters:
    """Parse a hyperparameter document. Types are exact: ``d`` is a
    positive integer, ``saliency`` a flat list of finite numbers, and
    ``log_tau`` and ``w0`` finite numbers."""
    if not isinstance(data, dict):
        raise ValidationError("hyperparameter document must be a JSON object")
    try:
        variant = SaliencyVariant(data.get("variant", "full"))
    except ValueError as exc:
        raise ValidationError(f"bad hyperparameter document: {exc}") from exc
    d = data.get("d")
    if not (type(d) is int and d > 0):
        raise ValidationError("hyperparameter key 'd' must be a positive integer")
    flat = data.get("saliency")
    if not (isinstance(flat, list) and all(map(_is_finite_number, flat))):
        raise ValidationError(
            "hyperparameter key 'saliency' must be a list of finite numbers"
        )
    for key in ("log_tau", "w0"):
        if not _is_finite_number(data.get(key)):
            raise ValidationError(f"hyperparameter key {key!r} must be a finite number")
    flat = np.array(flat, dtype=float)
    if variant is SaliencyVariant.QUADRATIC:
        saliency = flat
    else:
        if flat.size != N_FEATURES * d:
            raise ValidationError(
                f"saliency length {flat.size} does not match 10 x {d}"
            )
        saliency = flat.reshape(N_FEATURES, d)
    log_tau, w0 = float(data["log_tau"]), float(data["w0"])
    return LpgHyperparameters(saliency, log_tau, w0, variant)


def save_hyperparameters(hp: LpgHyperparameters, path: str | Path) -> None:
    Path(path).write_text(json.dumps(hyperparameters_to_json(hp), indent=2) + "\n")


def load_hyperparameters(path: str | Path) -> LpgHyperparameters:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON ({exc})") from exc
    return hyperparameters_from_json(data)


"""Outer-loop hyperparameter fitting and the model-variant zoo.

One batch engine (``_evaluate_batch``) simulates the training pipelines,
predicts the three-way choice distributions and scores the records. The
fit, ``predicted_distributions``, ``modelling_loss`` and
``simulate_variant`` all run on it; ``latent.simulate_pipeline`` stays the
scalar reference that the oracles compare against.

The fit minimises the mean KL from observed to predicted choice
distributions with mini-batch Adam. Gradients with respect to the free
saliency entries, log tau, and w0 flow through the entire unrolled inner
ascent by reverse accumulation: the forward pass records the latent
trajectory, and the backward pass propagates an adjoint vector through
each ascent step using the closed-form Jacobians of the step rule. The
adjoint is linear and its Jacobians depend only on a pipeline's
trajectory, so it runs once per pipeline, not once per record.
``selfcheck.fd_gradient`` checks it against finite differences.

Besides the proposed (full) model there are four alternatives: a diagonal
saliency, a quadratic feature expansion with diagonal saliency, a
memoryless variant that simulates only the final stage, and a simultaneous
variant that ascends the mean of all stage objectives jointly. Per-agent
per-goal and per-agent per-feature reference floors, solved exactly by
one batched Newton solve, a uniform baseline, and a latent-dimension sweep
round out the comparison harness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .dataset import (
    ChoiceDistribution,
    Dataset,
    PreferenceRecord,
    TrainingPipeline,
    record_to_distribution,
)
from .errors import NumericalError, ValidationError
from .features import N_FEATURES, encode_features, object_index
from .latent import (
    DEFAULT_INTEGRATION_STEPS,
    N_EXPANDED,
    LpgHyperparameters,
    SaliencyVariant,
    encode_expanded,
)

# Nothing here calls the scalar simulator any more, but the benchmark's
# tracer (perfbench/layers.py, --trace 1) patches these two names here.
from .latent import simulate_pipeline, stage_objective  # noqa: F401


class ModelVariant(str, Enum):
    FULL = "full"
    DIAGONAL = "diagonal"
    QUADRATIC = "quadratic"
    MEMORYLESS = "memoryless"
    SIMULTANEOUS = "simultaneous"


def structural_variant(variant: ModelVariant) -> SaliencyVariant:
    """Saliency structure used by a model variant."""
    variant = ModelVariant(variant)
    if variant is ModelVariant.DIAGONAL:
        return SaliencyVariant.DIAGONAL
    if variant is ModelVariant.QUADRATIC:
        return SaliencyVariant.QUADRATIC
    return SaliencyVariant.FULL


@dataclass(frozen=True)
class FitConfig:
    learning_rate: float = 0.03
    batch_size: int = 64
    epochs: int = 1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    n_integration_steps: int = DEFAULT_INTEGRATION_STEPS
    rng_seed: int = 0
    latent_dim: int = 10

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.batch_size <= 0:
            raise ValidationError("learning rate and batch size must be positive")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be non-negative, got {self.epochs}")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValidationError("Adam betas must lie in (0, 1)")
        if self.n_integration_steps <= 0 or self.latent_dim <= 0:
            raise ValidationError("step counts and latent dim must be positive")


@dataclass
class FitResult:
    hyperparameters: LpgHyperparameters
    variant: ModelVariant
    train_loss: float
    per_example_losses: np.ndarray
    diagnostics: dict = field(default_factory=dict)


class _ParamSpace:
    """Flat view of the free hyperparameters: masked saliency, log tau, w0."""

    def __init__(self, variant: ModelVariant, latent_dim: int):
        self.variant = ModelVariant(variant)
        self.structural = structural_variant(variant)
        if self.structural is SaliencyVariant.QUADRATIC:
            self.n, self.d = N_EXPANDED, N_EXPANDED
            self.mask = np.eye(self.n, dtype=bool)
        else:
            self.n, self.d = N_FEATURES, latent_dim
            if self.structural is SaliencyVariant.DIAGONAL:
                self.mask = np.eye(self.n, self.d, dtype=bool)
            else:
                self.mask = np.triu(np.ones((self.n, self.d), dtype=bool))
        self.n_saliency = int(self.mask.sum())
        self.n_params = self.n_saliency + 2

    def initial_theta(self) -> np.ndarray:
        s0 = np.eye(self.n, self.d)
        return np.concatenate([s0[self.mask], [0.0, 0.0]])

    def matrix(self, theta: np.ndarray) -> np.ndarray:
        s = np.zeros((self.n, self.d))
        s[self.mask] = theta[: self.n_saliency]
        return s

    def model(self, theta: np.ndarray) -> tuple[np.ndarray, float, float]:
        """The engine's (S, log tau, w0) for a flat parameter vector."""
        return (
            self.matrix(theta),
            float(theta[self.n_saliency]),
            float(theta[self.n_saliency + 1]),
        )

    def hyperparameters(self, theta: np.ndarray) -> LpgHyperparameters:
        dense = self.matrix(theta)
        if self.structural is SaliencyVariant.QUADRATIC:
            saliency = np.diag(dense).copy()
        else:
            saliency = dense
        return LpgHyperparameters(
            saliency=saliency,
            log_tau=float(theta[self.n_saliency]),
            w0=float(theta[self.n_saliency + 1]),
            variant=self.structural,
        )

    def pack(self, hp: LpgHyperparameters) -> np.ndarray:
        dense = hp.matrix()
        if dense.shape != (self.n, self.d):
            raise ValidationError(
                f"saliency shape {dense.shape} does not match space ({self.n}, {self.d})"
            )
        return np.concatenate([dense[self.mask], [hp.log_tau, hp.w0]])


def _checked_variant(hp: LpgHyperparameters, variant: ModelVariant) -> ModelVariant:
    """The variant, after checking that ``hp`` has its saliency structure."""
    variant = ModelVariant(variant)
    if hp.variant is not structural_variant(variant):
        raise ValidationError(
            f"{hp.variant.value} hyperparameters do not fit the "
            f"{variant.value} variant"
        )
    return variant


def _encoder(variant: ModelVariant):
    if structural_variant(variant) is SaliencyVariant.QUADRATIC:
        return encode_expanded
    return encode_features


def _stage_features(pipeline: TrainingPipeline, variant: ModelVariant):
    """Goal and distractor features, (T, 2, n), and the distractor mask,
    (T,), of the stages a variant simulates."""
    encode = _encoder(variant)
    stages = pipeline.stages
    if variant is ModelVariant.MEMORYLESS:
        stages = stages[-1:]
    phi = np.stack([[encode(s.goal), encode(s.distractor)] for s in stages])
    return phi, np.array([s.distractor is not None for s in stages])


def _record_arrays(records: list[PreferenceRecord], encode):
    """Records flattened into arrays, for the engine, the floors and the
    uniform baseline.

    Returns the sorted pipeline ids, each record's index into them, the
    (R, 2, n) ``encode``d features of its objects (a, b) and its observed
    (R, 3) distribution. Records are taken as given: no pair is reordered
    and duplicates stay.
    """
    if not records:
        raise ValidationError("no preference records to fit or evaluate")
    pids = sorted({r.pipeline_id for r in records})
    pid_index = {pid: i for i, pid in enumerate(pids)}
    pipeline = np.array([pid_index[r.pipeline_id] for r in records])
    phi = np.array([[encode(r.object_a), encode(r.object_b)] for r in records])
    p_hat = np.array([record_to_distribution(r).as_tuple() for r in records])
    return pids, pipeline, phi, p_hat


class _Prepared:
    """Records and their pipelines flattened into arrays for the engine."""

    def __init__(
        self,
        pipelines: dict[str, TrainingPipeline],
        records: list[PreferenceRecord],
        variant: ModelVariant,
    ):
        self.variant = ModelVariant(variant)
        pids, self.record_pipeline, objects, self.p_hat = _record_arrays(
            records, _encoder(self.variant)
        )
        unknown = [pid for pid in pids if pid not in pipelines]
        if unknown:
            raise ValidationError(f"records name unknown pipelines {unknown}")
        self.pipeline_ids = pids
        staged = [_stage_features(pipelines[pid], self.variant) for pid in pids]
        self.stage_phi = [phi for phi, _ in staged]
        self.has_dis = [mask for _, mask in staged]
        self.stage_counts = np.array([len(mask) for mask in self.has_dis])
        self.phi_a, self.phi_b = objects[:, 0], objects[:, 1]
        self.n_records = len(records)


def _three_way_kl(va: np.ndarray, vb: np.ndarray, p_hat: np.ndarray):
    """Per-record KL(p_hat || softmax(va, vb, 0)) and the log-probabilities."""
    logits = np.stack([va, vb, np.zeros_like(va)], axis=1)
    mx = logits.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    logp = logits - lse[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p_hat > 0, p_hat * np.log(p_hat), 0.0)
    return plogp.sum(axis=1) - (p_hat * logp).sum(axis=1), logp


def _softmax_terms(v):
    """Split (goal, distractor) values on axis -2 and take the three-way
    softmax over (v_g, v_d, 0) without overflow: (vg, vd, eg, ed, e0, z)."""
    vg, vd = v[..., 0, :], v[..., 1, :]
    m = np.maximum(np.maximum(vg, vd), 0.0)
    eg, ed, e0 = np.exp(vg - m), np.exp(vd - m), np.exp(-m)
    return vg, vd, eg, ed, e0, eg + ed + e0


def _step_coefs(v, tau):
    """Ascent-step coefficients on S^T phi(goal) and S^T phi(distractor).

    ``v`` holds the (goal, distractor) values on axis -2, and so does the
    result. A stage without a distractor has v_d = -inf, which turns the
    three-way softmax into the sigmoid of v_g and zeroes the distractor
    coefficient.
    """
    vg, vd, eg, ed, e0, z = _softmax_terms(v)
    g = (1.0 + tau * (np.logaddexp(0.0, vd) - vg)) * (eg / z)
    # concatenate, not stack: this runs once per ascent step.
    return np.concatenate(
        [(g * ((ed + e0) / z))[..., None, :], (-g * (ed / z))[..., None, :]], axis=-2
    )


def _step_coef_partials(v, tau):
    """Coefficients plus their partials wrt (vg, vd) and tau, stacked.

    For values ``v`` of shape ``X + (2, P)`` returns ``coef`` and
    ``coef_tau`` of shape ``X + (2, P)`` (goal, distractor) and ``jac`` of
    shape ``X + (2, 2, P)`` with ``jac[..., e, c, :]`` the partial of
    coefficient ``e`` wrt ``v_c``. The Jacobian is symmetric because the
    coefficients are the objective's first derivatives in (vg, vd).
    """
    vg, vd, eg, ed, e0, z = _softmax_terms(v)
    pig = eg / z
    pid = ed / z
    gg = pig * ((ed + e0) / z)  # pi_g (1 - pi_g) without cancellation
    gd = pig * pid
    log_ratio = np.logaddexp(0.0, vd) - vg  # ln((1 - pi_g) / pi_g)
    mm = 1.0 + tau * log_ratio

    dgg = -tau * gg + mm * gg * (1.0 - 2.0 * pig)
    cross = tau * gd - mm * gd * (1.0 - 2.0 * pig)
    ratio = ed / (ed + e0)  # pi_d / (1 - pi_g)
    ddd = -tau * gd * ratio - mm * gd * (1.0 - 2.0 * pid)
    jac = np.stack(
        [np.stack([dgg, cross], axis=-2), np.stack([cross, ddd], axis=-2)], axis=-3
    )
    coef = np.stack([mm * gg, -mm * gd], axis=-2)
    return coef, jac, np.stack([log_ratio * gg, -log_ratio * gd], axis=-2)


def _ascent_steps(t_count: int, n_steps: int, simultaneous: bool):
    """The unrolled inner ascent of a T-stage pipeline, in order.

    Returns the step rate and a list of steps, each (the stages it
    ascends, its history row, its index). A simultaneous step ascends the
    mean of all stage objectives, so its stages share one trajectory and
    its coefficients carry 1 / T.
    """
    if simultaneous:
        return 1.0 / t_count, [(slice(None), 0, k) for k in range(n_steps)]
    steps = [(slice(t, t + 1), t, k) for t in range(t_count) for k in range(n_steps)]
    return 1.0, steps


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _forward(model, phi, has_dis, n_steps, simultaneous, ids, keep_w):
    """Ascend P pipelines of T stages in lockstep under ``model``, which
    is (S, log tau, w0).

    ``phi`` holds the (P, T, 2, n) goal and distractor features and
    ``has_dis`` the (P, T) distractor mask. Returns the final weights
    (P, d), the ascent directions S^T phi as (T, 2, P, d), the values
    u . w at the start of every step as (T, K, 2, P) and, with ``keep_w``,
    the weights at the start of every step as (rows, K, P, d), one history
    row per trajectory.
    """
    s_matrix, log_tau, w0 = model
    tau = np.exp(log_tau)  # inf, not OverflowError, for a diverged fit
    t_count = phi.shape[1]
    rate, steps = _ascent_steps(t_count, n_steps, simultaneous)
    u_cat = np.einsum("ptcn,nd->tcpd", phi, s_matrix)
    w_now = np.full((phi.shape[0], s_matrix.shape[1]), w0)
    v_hist = np.empty((t_count, n_steps, 2, phi.shape[0]))
    rows = 1 if simultaneous else t_count
    w_hist = np.empty((rows, n_steps) + w_now.shape) if keep_w else None
    no_distractor = np.where(has_dis.T, 0.0, -np.inf)  # added to v_d, (T, P)
    u_step = rate * u_cat
    for stages, h, k in steps:
        if keep_w:
            w_hist[h, k] = w_now
        v = np.einsum("tcpd,pd->tcp", u_cat[stages], w_now)
        v[:, 1] += no_distractor[stages]
        v_hist[stages, k] = v
        w_now = w_now + np.einsum("tcp,tcpd->pd", _step_coefs(v, tau), u_step[stages])
    if not np.all(np.isfinite(w_now)):
        raise NumericalError(
            f"non-finite latent weights while simulating pipelines {ids}"
        )
    return w_now, u_cat, v_hist, w_hist


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _evaluate_batch(model, prep: _Prepared, rec_sel, n_steps: int, want_grad: bool):
    """Per-record losses and log-probabilities, and optionally a gradient.

    ``model`` is (S, log tau, w0). Returns the KL of each selected record,
    its three-way log-probabilities (a, b, neither), and, with
    ``want_grad``, the gradient of the mean loss as (dS, d log tau, d w0).

    Pipelines are simulated once each (vectorised within groups of equal
    stage count). The adjoint pass pools the records' seeds per pipeline,
    runs only the adjoint recurrence step by step, and contracts its
    history into the gradients afterwards. Divergence surfaces as
    NumericalError via explicit finiteness checks, so float warnings are
    suppressed here.
    """
    s_matrix, log_tau, _ = model
    tau = np.exp(log_tau)  # inf, not OverflowError, for a diverged fit
    simultaneous = prep.variant is ModelVariant.SIMULTANEOUS

    n_sel = len(rec_sel)
    losses = np.zeros(n_sel)
    logp = np.zeros((n_sel, 3))
    s_grad = np.zeros_like(s_matrix)
    tau_grad = 0.0
    w0_grad = 0.0

    rec_pipes = prep.record_pipeline[rec_sel]
    stage_counts = prep.stage_counts[rec_pipes]

    for t_stages in np.unique(stage_counts):
        in_group = stage_counts == t_stages
        rsel = rec_sel[in_group]
        rpos = np.nonzero(in_group)[0]
        gpipes, pidx = np.unique(rec_pipes[in_group], return_inverse=True)
        phi = np.stack([prep.stage_phi[g] for g in gpipes])  # (P, T, 2, n)
        has_dis = np.stack([prep.has_dis[g] for g in gpipes])  # (P, T)
        ids = [prep.pipeline_ids[g] for g in gpipes]
        w_now, u_cat, v_hist, w_hist = _forward(
            model, phi, has_dis, n_steps, simultaneous, ids, want_grad
        )

        phi_a = prep.phi_a[rsel]
        phi_b = prep.phi_b[rsel]
        p_hat = prep.p_hat[rsel]
        u_a = phi_a @ s_matrix
        u_b = phi_b @ s_matrix
        w_final = w_now[pidx]
        va = (u_a * w_final).sum(axis=1)
        vb = (u_b * w_final).sum(axis=1)
        losses[rpos], logp[rpos] = _three_way_kl(va, vb, p_hat)

        if not want_grad:
            continue

        dv = (np.exp(logp[rpos]) - p_hat) / n_sel
        dva, dvb = dv[:, 0], dv[:, 1]
        s_grad += np.einsum("r,rn,rd->nd", dva, phi_a, w_final)
        s_grad += np.einsum("r,rn,rd->nd", dvb, phi_b, w_final)

        # The adjoint recurrence is linear in lam and its Jacobians depend
        # only on the pipeline's trajectory, so records pool per pipeline.
        lam = np.zeros_like(w_now)
        np.add.at(lam, pidx, dva[:, None] * u_a + dvb[:, None] * u_b)

        # Axis c below is (goal, distractor).
        t_count = int(t_stages)
        rate, steps = _ascent_steps(t_count, n_steps, simultaneous)
        coef, jac, coef_tau = (rate * x for x in _step_coef_partials(v_hist, tau))
        # Only the lam recurrence runs per step; its history is contracted
        # into the S and tau gradients after the loop.
        lam_hist = np.empty_like(w_hist)
        a_hist = np.empty_like(coef)  # lam . u_c, before each step's update
        for stages, h, k in reversed(steps):
            lam_hist[h, k] = lam
            a = np.einsum("tcpd,pd->tcp", u_cat[stages], lam)
            a_hist[stages, k] = a
            alpha = np.einsum("tecp,tep->tcp", jac[stages, k], a)
            lam = lam + np.einsum("tcp,tcpd->pd", alpha, u_cat[stages])

        tau_grad += float(np.einsum("tkcp,tkcp->", coef_tau, a_hist))
        alpha_hist = np.einsum("tkecp,tkep->tkcp", jac, a_hist)
        hist_shape = (t_count, n_steps) + w_now.shape
        u_adj = np.einsum(
            "tkcp,tkpd->tcpd", alpha_hist, np.broadcast_to(w_hist, hist_shape)
        ) + np.einsum("tkcp,tkpd->tcpd", coef, np.broadcast_to(lam_hist, hist_shape))
        s_grad += np.einsum("ptcn,tcpd->nd", phi, u_adj)
        w0_grad += float(lam.sum())

    if not want_grad:
        return losses, logp, None
    return losses, logp, (s_grad, tau_grad * tau, w0_grad)


def _loss_and_gradient(theta, space, prep, rec_sel, config: FitConfig):
    """Mean loss of the selected records and its flat adjoint gradient."""
    losses, _, (s_grad, log_tau_grad, w0_grad) = _evaluate_batch(
        space.model(theta), prep, rec_sel, config.n_integration_steps, True
    )
    grad = np.concatenate([s_grad[space.mask], [log_tau_grad, w0_grad]])
    return float(losses.mean()), grad


def hyperparameter_gradient(
    dataset: Dataset,
    hp: LpgHyperparameters,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
):
    """Loss and flat hyperparameter gradient over a whole dataset.

    Exposed for the gradient self-checks, which compare it with
    ``selfcheck.fd_gradient``. Gradient ordering is (free saliency entries
    row-major, log tau, w0).
    """
    variant = _checked_variant(hp, variant)
    space = _ParamSpace(variant, hp.latent_dim)
    prep = _Prepared(dataset.pipelines, dataset.records, variant)
    sel = np.arange(prep.n_records)
    return _loss_and_gradient(space.pack(hp), space, prep, sel, config or FitConfig())


def fit_hyperparameters(
    dataset: Dataset,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> FitResult:
    """Fit saliency, log tau, and w0 by mini-batch Adam on the mean KL."""
    config = config or FitConfig()
    variant = ModelVariant(variant)
    space = _ParamSpace(variant, config.latent_dim)
    prep = _Prepared(dataset.pipelines, dataset.records, variant)
    theta = space.initial_theta()

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step_count = 0
    losses: list[float] = []
    grad_norms: list[float] = []
    rng = np.random.default_rng([0x666974, config.rng_seed])
    order = np.arange(prep.n_records)
    started = time.perf_counter()

    for epoch in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, prep.n_records, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grad = _loss_and_gradient(theta, space, prep, batch, config)
            if not (math.isfinite(loss) and np.all(np.isfinite(grad))):
                raise NumericalError(
                    f"non-finite loss or gradient in epoch {epoch}, "
                    f"batch starting at {start} (loss={loss})"
                )
            step_count += 1
            m = config.adam_beta1 * m + (1.0 - config.adam_beta1) * grad
            v = config.adam_beta2 * v + (1.0 - config.adam_beta2) * grad**2
            m_hat = m / (1.0 - config.adam_beta1**step_count)
            v_hat = v / (1.0 - config.adam_beta2**step_count)
            theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            losses.append(loss)
            grad_norms.append(float(np.linalg.norm(grad)))

    per_example, _, _ = _evaluate_batch(
        space.model(theta),
        prep,
        np.arange(prep.n_records),
        config.n_integration_steps,
        want_grad=False,
    )
    return FitResult(
        hyperparameters=space.hyperparameters(theta),
        variant=variant,
        train_loss=float(per_example.mean()),
        per_example_losses=per_example,
        diagnostics={
            "n_updates": step_count,
            "final_gradient_norm": grad_norms[-1] if grad_norms else 0.0,
            "loss_trajectory": losses,
            "gradient_norm_trajectory": grad_norms,
            "wall_time_s": time.perf_counter() - started,
            "epochs": config.epochs,
        },
    )


def simulate_variant(
    hp: LpgHyperparameters,
    pipeline: TrainingPipeline,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> np.ndarray:
    """Latent weights for a pipeline under the given variant's rules."""
    variant = _checked_variant(hp, variant)
    phi, has_dis = _stage_features(pipeline, variant)
    w, _, _, _ = _forward(
        (hp.matrix(), hp.log_tau, hp.w0),
        phi[None],
        has_dis[None],
        (config or FitConfig()).n_integration_steps,
        variant is ModelVariant.SIMULTANEOUS,
        [pipeline.id],
        keep_w=False,
    )
    return w[0]


def _predict(hp, dataset, records, variant, config):
    """Per-record losses and log-probabilities from one engine pass."""
    variant = _checked_variant(hp, variant)
    records = list(dataset.records) if records is None else records
    prep = _Prepared(dataset.pipelines, records, variant)
    losses, logp, _ = _evaluate_batch(
        (hp.matrix(), hp.log_tau, hp.w0),
        prep,
        np.arange(prep.n_records),
        (config or FitConfig()).n_integration_steps,
        want_grad=False,
    )
    return losses, logp


def predicted_distributions(
    hp: LpgHyperparameters,
    dataset: Dataset,
    records: list[PreferenceRecord] | None = None,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> list[ChoiceDistribution]:
    """Model predictions for each record (default: the dataset's)."""
    _, logp = _predict(hp, dataset, records, variant, config)
    return [ChoiceDistribution(*p) for p in np.exp(logp).tolist()]


def modelling_loss(
    hp: LpgHyperparameters,
    dataset: Dataset,
    records: list[PreferenceRecord] | None = None,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> float:
    """Mean KL from observed to predicted three-way distributions."""
    losses, _ = _predict(hp, dataset, records, variant, config)
    return float(losses.mean())


def baseline_uniform(records: list[PreferenceRecord]) -> float:
    """Mean KL from the observations to the uniform three-way predictor."""
    *_, p_hat = _record_arrays(records, _one_hot)
    zeros = np.zeros(len(p_hat))
    return float(_three_way_kl(zeros, zeros, p_hat)[0].mean())


_OBJECT_BASIS = np.eye(24)
# Safety bound on the floors' Newton steps; separable tallies take about 20.
_NEWTON_STEPS = 100
# Keeps each Hessian solvable along directions that no record observes.
_RIDGE = 1e-10


def _one_hot(obj) -> np.ndarray:
    """Indicator of an object among the 24: the per-goal floor's encoding."""
    return _OBJECT_BASIS[object_index(obj)]


def _lower_bound(dataset: Dataset, encode) -> tuple[float, int]:
    """Reference floor: per-agent values fitted directly to the records.

    Each agent's value of an object is linear in ``encode(object)``, and
    its mean KL to a three-way softmax over (x_a . theta, x_b . theta, 0)
    is minimised independently of the other agents. One damped Newton
    solve runs all agents in lockstep: the Hessian is X^T W X with
    W = diag(p) - p p^T on the (a, b) outcomes, and each agent's step is
    scaled by 1 / (1 + its Newton decrement). It stops when every gradient
    entry is below 1e-8. Returns the dataset mean of the per-record losses
    at the optimum and the number of Newton steps.
    """
    # Grouped by agent, so that each agent's records are one slice.
    records = sorted(dataset.records, key=lambda r: r.pipeline_id)
    _, agent, x, p_hat = _record_arrays(records, encode)
    bounds = np.searchsorted(agent, np.arange(agent[-1] + 2))
    counts = np.diff(bounds)[:, None]
    n = x.shape[2]
    theta = np.zeros((len(counts), n))
    for steps in range(_NEWTON_STEPS):
        v = np.einsum("rcn,rn->rc", x, theta[agent])
        losses, logp = _three_way_kl(v[:, 0], v[:, 1], p_hat)
        p = np.exp(logp[:, :2])
        resid = np.einsum("rc,rcn->rn", p - p_hat[:, :2], x)
        grad = np.add.reduceat(resid, bounds[:-1]) / counts
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite floor gradient at Newton step {steps}")
        if np.abs(grad).max() < 1e-8:
            return float(losses.mean()), steps
        wx = x - np.einsum("rc,rcn->rn", p, x)[:, None]
        wx *= p[..., None]
        hess = np.stack(
            [
                x[i:j].reshape(-1, n).T @ wx[i:j].reshape(-1, n)
                for i, j in zip(bounds, bounds[1:])
            ]
        ) / counts[..., None]
        step = np.linalg.solve(hess + _RIDGE * np.eye(n), grad[..., None])[..., 0]
        decrement = np.sqrt(np.maximum((grad * step).sum(axis=1), 0.0))
        theta = theta - step / (1.0 + decrement[:, None])
    raise NumericalError(f"floor Newton solve passed its {_NEWTON_STEPS}-step bound")


def lower_bound_per_goal(dataset: Dataset) -> float:
    """Floor with a free value for every (agent, object) pair."""
    return _lower_bound(dataset, _one_hot)[0]


def lower_bound_per_feature(dataset: Dataset) -> float:
    """Floor with each agent's values linear in the object features."""
    return _lower_bound(dataset, encode_features)[0]


def latent_dim_sweep(
    dataset: Dataset,
    dims: list[int] | None = None,
    config: FitConfig | None = None,
) -> list[tuple[int, float]]:
    """Fit the full variant at each latent dimension; returns (d, loss)."""
    dims = list(dims) if dims is not None else list(range(1, 33))
    if not dims:
        raise ValidationError("no dimensions to sweep")
    config = config or FitConfig()
    out = []
    for d in dims:
        result = fit_hyperparameters(
            dataset, ModelVariant.FULL, replace(config, latent_dim=d)
        )
        out.append((d, result.train_loss))
    return out

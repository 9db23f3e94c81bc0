"""Outer-loop hyperparameter fitting and the model-variant zoo.

The fit minimises the mean KL from observed to predicted choice
distributions with mini-batch Adam. Gradients with respect to the free
saliency entries, log tau, and w0 flow through the entire unrolled inner
ascent by reverse accumulation: the forward pass records the latent
trajectory, and the backward pass propagates an adjoint vector through
each ascent step using the closed-form Jacobians of the step rule. The
adjoint is linear and its Jacobians depend only on a pipeline's
trajectory, so it runs once per pipeline, not once per record. A central
finite-difference mode is kept as an independent cross-check.

Besides the proposed (full) model there are four alternatives: a diagonal
saliency, a quadratic feature expansion with diagonal saliency, a
memoryless variant that simulates only the final stage, and a simultaneous
variant that ascends the mean of all stage objectives jointly. Per-agent
per-goal and per-agent per-feature reference floors, a uniform baseline,
and a latent-dimension sweep round out the comparison harness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy.special import expit

from .dataset import Dataset, PreferenceRecord, TrainingPipeline, record_to_distribution
from .errors import NumericalError, ValidationError
from .features import N_FEATURES, encode_features, object_index
from .latent import (
    DEFAULT_INTEGRATION_STEPS,
    LpgHyperparameters,
    SaliencyVariant,
    encode_expanded,
    predict_preferences,
    simulate_pipeline,
    stage_objective,
)
from .metrics import kl_divergence


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
    gradient_mode: str = "adjoint"  # "adjoint" or "finite_difference"
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
        if self.gradient_mode not in ("adjoint", "finite_difference"):
            raise ValidationError(f"unknown gradient mode {self.gradient_mode!r}")


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
            from .latent import N_EXPANDED

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


class _Prepared:
    """Dataset flattened into arrays the batch engine can consume."""

    def __init__(self, dataset: Dataset, variant: ModelVariant):
        self.variant = ModelVariant(variant)
        encode = (
            encode_expanded
            if structural_variant(variant) is SaliencyVariant.QUADRATIC
            else encode_features
        )
        memoryless = self.variant is ModelVariant.MEMORYLESS

        pids = sorted({r.pipeline_id for r in dataset.records})
        self.pipeline_ids = pids
        pid_index = {pid: i for i, pid in enumerate(pids)}
        self.goal_mats: list[np.ndarray] = []
        self.dist_mats: list[np.ndarray] = []
        self.has_dis: list[np.ndarray] = []
        self.stage_counts = np.zeros(len(pids), dtype=int)
        for pid in pids:
            stages = dataset.pipelines[pid].stages
            if memoryless:
                stages = stages[-1:]
            self.goal_mats.append(np.stack([encode(s.goal) for s in stages]))
            self.dist_mats.append(np.stack([encode(s.distractor) for s in stages]))
            self.has_dis.append(np.array([s.distractor is not None for s in stages]))
            self.stage_counts[pid_index[pid]] = len(stages)

        n_rec = len(dataset.records)
        self.record_pipeline = np.zeros(n_rec, dtype=int)
        self.phi_a = np.zeros((n_rec, self.goal_mats[0].shape[1]))
        self.phi_b = np.zeros_like(self.phi_a)
        self.p_hat = np.zeros((n_rec, 3))
        for i, rec in enumerate(dataset.records):
            self.record_pipeline[i] = pid_index[rec.pipeline_id]
            self.phi_a[i] = encode(rec.object_a)
            self.phi_b[i] = encode(rec.object_b)
            self.p_hat[i] = record_to_distribution(rec).as_tuple()

        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(self.p_hat > 0, self.p_hat * np.log(self.p_hat), 0.0)
        self.neg_entropy = plogp.sum(axis=1)
        self.n_records = n_rec


def _step_coefs(vg, vd, tau, has_dis):
    """Ascent-step coefficients on S^T phi(goal) and S^T phi(distractor)."""
    s = expit(vg)
    sp = s * (1.0 - s)
    cg0 = (1.0 - tau * vg) * sp

    m = np.maximum(np.maximum(vg, vd), 0.0)
    eg = np.exp(vg - m)
    ed = np.exp(vd - m)
    e0 = np.exp(-m)
    z = eg + ed + e0
    pig = eg / z
    pid = ed / z
    one_m = (ed + e0) / z  # 1 - pi_goal without cancellation
    log_ratio = np.logaddexp(0.0, vd) - vg
    mm = 1.0 + tau * log_ratio
    cg1 = mm * pig * one_m
    cd1 = -mm * pig * pid

    cg = np.where(has_dis, cg1, cg0)
    cd = np.where(has_dis, cd1, 0.0)
    return cg, cd


def _step_coef_partials(vg, vd, tau, has_dis):
    """Coefficients plus their partials wrt (vg, vd) and tau, stacked.

    For inputs of shape ``X + (P,)`` returns ``coef`` and ``coef_tau`` of
    shape ``X + (2, P)`` (goal, distractor) and ``jac`` of shape
    ``X + (2, 2, P)`` with ``jac[..., e, c, :]`` the partial of
    coefficient ``e`` wrt ``v_c``. The Jacobian is symmetric because the
    coefficients are the objective's first derivatives in (vg, vd).
    """
    s = expit(vg)
    sp = s * (1.0 - s)
    cg0 = (1.0 - tau * vg) * sp
    dgg0 = -tau * sp + (1.0 - tau * vg) * sp * (1.0 - 2.0 * s)
    dgt0 = -vg * sp

    m = np.maximum(np.maximum(vg, vd), 0.0)
    eg = np.exp(vg - m)
    ed = np.exp(vd - m)
    e0 = np.exp(-m)
    z = eg + ed + e0
    pig = eg / z
    pid = ed / z
    one_m = (ed + e0) / z
    ratio = ed / (ed + e0)  # pi_d / (1 - pi_g), stable
    gg = pig * one_m
    gd = pig * pid
    log_ratio = np.logaddexp(0.0, vd) - vg
    mm = 1.0 + tau * log_ratio

    cg1 = mm * gg
    cd1 = -mm * gd
    dgg1 = -tau * gg + mm * gg * (1.0 - 2.0 * pig)
    cross1 = tau * gd - mm * gd * (1.0 - 2.0 * pig)
    ddd1 = -tau * gd * ratio - mm * gd * (1.0 - 2.0 * pid)
    dgt1 = log_ratio * gg
    ddt1 = -log_ratio * gd

    cg = np.where(has_dis, cg1, cg0)
    cd = np.where(has_dis, cd1, 0.0)
    cross = np.where(has_dis, cross1, 0.0)
    jac = np.stack(
        [
            np.stack([np.where(has_dis, dgg1, dgg0), cross], axis=-2),
            np.stack([cross, np.where(has_dis, ddd1, 0.0)], axis=-2),
        ],
        axis=-3,
    )
    coef_tau = np.stack(
        [np.where(has_dis, dgt1, dgt0), np.where(has_dis, ddt1, 0.0)], axis=-2
    )
    return np.stack([cg, cd], axis=-2), jac, coef_tau


def _evaluate_batch(
    theta: np.ndarray,
    space: _ParamSpace,
    prep: _Prepared,
    rec_sel: np.ndarray,
    config: FitConfig,
    want_grad: bool,
):
    """Mean loss over the selected records and, optionally, its gradient.

    Pipelines are simulated once each (vectorised within groups of equal
    stage count). The adjoint pass pools the records' seeds per pipeline,
    runs only the adjoint recurrence step by step, and contracts its
    history into the gradients afterwards. Divergence surfaces as
    NumericalError via explicit finiteness checks, so float warnings are
    suppressed here.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _evaluate_batch_inner(theta, space, prep, rec_sel, config, want_grad)


def _evaluate_batch_inner(
    theta: np.ndarray,
    space: _ParamSpace,
    prep: _Prepared,
    rec_sel: np.ndarray,
    config: FitConfig,
    want_grad: bool,
):
    s_matrix = space.matrix(theta)
    log_tau = float(theta[space.n_saliency])
    w0 = float(theta[space.n_saliency + 1])
    tau = math.exp(log_tau)
    n_steps = config.n_integration_steps
    simultaneous = space.variant is ModelVariant.SIMULTANEOUS

    n_sel = len(rec_sel)
    losses = np.zeros(n_sel)
    s_grad = np.zeros_like(s_matrix)
    tau_grad = 0.0
    w0_grad = 0.0
    scale = 1.0 / n_sel

    rec_pipes = prep.record_pipeline[rec_sel]
    stage_counts = prep.stage_counts[rec_pipes]
    d = space.d

    for t_stages in np.unique(stage_counts):
        in_group = stage_counts == t_stages
        rsel = rec_sel[in_group]
        rpos = np.nonzero(in_group)[0]
        gpipes, pidx = np.unique(rec_pipes[in_group], return_inverse=True)
        n_pipes = len(gpipes)
        t_count = int(t_stages)

        phi_g = np.stack([prep.goal_mats[g] for g in gpipes])  # (P, T, n)
        phi_d = np.stack([prep.dist_mats[g] for g in gpipes])
        has_dis = np.stack([prep.has_dis[g] for g in gpipes])  # (P, T)
        u_goal = [phi_g[:, t, :] @ s_matrix for t in range(t_count)]  # (P, d)
        u_dist = [phi_d[:, t, :] @ s_matrix for t in range(t_count)]

        w_now = np.full((n_pipes, d), w0)
        vg_hist = np.empty((t_count, n_steps, n_pipes))
        vd_hist = np.empty((t_count, n_steps, n_pipes))
        if simultaneous:
            w_hist = np.empty((n_steps, n_pipes, d)) if want_grad else None
            for k in range(n_steps):
                if want_grad:
                    w_hist[k] = w_now
                delta = np.zeros_like(w_now)
                for t in range(t_count):
                    vg = (u_goal[t] * w_now).sum(axis=1)
                    vd = (u_dist[t] * w_now).sum(axis=1)
                    vg_hist[t, k] = vg
                    vd_hist[t, k] = vd
                    cg, cd = _step_coefs(vg, vd, tau, has_dis[:, t])
                    delta += cg[:, None] * u_goal[t] + cd[:, None] * u_dist[t]
                w_now = w_now + delta / t_count
        else:
            w_hist = np.empty((t_count, n_steps, n_pipes, d)) if want_grad else None
            for t in range(t_count):
                for k in range(n_steps):
                    if want_grad:
                        w_hist[t, k] = w_now
                    vg = (u_goal[t] * w_now).sum(axis=1)
                    vd = (u_dist[t] * w_now).sum(axis=1)
                    vg_hist[t, k] = vg
                    vd_hist[t, k] = vd
                    cg, cd = _step_coefs(vg, vd, tau, has_dis[:, t])
                    w_now = w_now + cg[:, None] * u_goal[t] + cd[:, None] * u_dist[t]

        if not np.all(np.isfinite(w_now)):
            raise NumericalError(
                f"non-finite latent weights while simulating pipelines "
                f"{[prep.pipeline_ids[g] for g in gpipes]}"
            )

        phi_a = prep.phi_a[rsel]
        phi_b = prep.phi_b[rsel]
        p_hat = prep.p_hat[rsel]
        u_a = phi_a @ s_matrix
        u_b = phi_b @ s_matrix
        w_final = w_now[pidx]
        va = (u_a * w_final).sum(axis=1)
        vb = (u_b * w_final).sum(axis=1)
        logits = np.stack([va, vb, np.zeros_like(va)], axis=1)
        mx = logits.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
        logp = logits - lse[:, None]
        losses[rpos] = prep.neg_entropy[rsel] - (p_hat * logp).sum(axis=1)

        if not want_grad:
            continue

        p = np.exp(logp)
        dv = (p - p_hat) * scale
        dva, dvb = dv[:, 0], dv[:, 1]
        s_grad += np.einsum("r,rn,rd->nd", dva, phi_a, w_final)
        s_grad += np.einsum("r,rn,rd->nd", dvb, phi_b, w_final)

        # The adjoint recurrence is linear in lam and its Jacobians depend
        # only on the pipeline's trajectory, so records pool per pipeline.
        lam = np.zeros((n_pipes, d))
        np.add.at(lam, pidx, dva[:, None] * u_a + dvb[:, None] * u_b)

        # Axis c below is (goal, distractor); a simultaneous step ascends
        # the mean over stages, so its coefficients carry 1 / t_count.
        rate = 1.0 / t_count if simultaneous else 1.0
        coef, jac, coef_tau = (
            rate * x
            for x in _step_coef_partials(
                vg_hist, vd_hist, tau, has_dis.T[:, None, :]
            )
        )
        u_cat = np.stack([np.stack(u_goal), np.stack(u_dist)], axis=1)  # (T, 2, P, d)
        # A step is (the stages it ascends, its history row, its index).
        # Simultaneous stages share one trajectory, so one history row.
        if simultaneous:
            w_hist = w_hist[None]
            steps = [(slice(None), 0, k) for k in reversed(range(n_steps))]
        else:
            steps = [
                (slice(t, t + 1), t, k)
                for t in reversed(range(t_count))
                for k in reversed(range(n_steps))
            ]
        # Only the lam recurrence runs per step; its history is contracted
        # into the S and tau gradients after the loop.
        lam_hist = np.empty_like(w_hist)
        a_hist = np.empty_like(coef)  # lam . u_c, before each step's update
        for stages, h, k in steps:
            lam_hist[h, k] = lam
            a = np.einsum("tcpd,pd->tcp", u_cat[stages], lam)
            a_hist[stages, k] = a
            alpha = np.einsum("tecp,tep->tcp", jac[stages, k], a)
            lam = lam + np.einsum("tcp,tcpd->pd", alpha, u_cat[stages])

        tau_grad += float(np.einsum("tkcp,tkcp->", coef_tau, a_hist))
        alpha_hist = np.einsum("tkecp,tkep->tkcp", jac, a_hist)
        hist_shape = (t_count, n_steps, n_pipes, d)
        u_adj = np.einsum(
            "tkcp,tkpd->tcpd", alpha_hist, np.broadcast_to(w_hist, hist_shape)
        ) + np.einsum("tkcp,tkpd->tcpd", coef, np.broadcast_to(lam_hist, hist_shape))
        phi_cat = np.stack([phi_g, phi_d], axis=2)  # (P, T, 2, n)
        s_grad += np.einsum("ptcn,tcpd->nd", phi_cat, u_adj)
        w0_grad += float(lam.sum())

    loss = float(losses.mean())
    if not want_grad:
        return loss, losses, None
    theta_grad = np.concatenate(
        [s_grad[space.mask], [tau_grad * tau, w0_grad]]
    )
    return loss, losses, theta_grad


def _fd_gradient(theta, space, prep, rec_sel, config, step=1e-4):
    """Central finite differences of the batch loss; the validation mode."""
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        up[i] += step
        down = theta.copy()
        down[i] -= step
        lu, _, _ = _evaluate_batch(up, space, prep, rec_sel, config, want_grad=False)
        ld, _, _ = _evaluate_batch(down, space, prep, rec_sel, config, want_grad=False)
        grad[i] = (lu - ld) / (2.0 * step)
    return grad


def hyperparameter_gradient(
    dataset: Dataset,
    hp: LpgHyperparameters,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
    gradient_mode: str = "adjoint",
):
    """Loss and flat hyperparameter gradient over a whole dataset.

    Exposed for the gradient self-checks; gradient ordering is (free
    saliency entries row-major, log tau, w0).
    """
    config = config or FitConfig()
    space = _ParamSpace(variant, hp.latent_dim)
    prep = _Prepared(dataset, variant)
    theta = space.pack(hp)
    sel = np.arange(prep.n_records)
    if gradient_mode == "adjoint":
        loss, _, grad = _evaluate_batch(theta, space, prep, sel, config, want_grad=True)
    elif gradient_mode == "finite_difference":
        loss, _, _ = _evaluate_batch(theta, space, prep, sel, config, want_grad=False)
        grad = _fd_gradient(theta, space, prep, sel, config)
    else:
        raise ValidationError(f"unknown gradient mode {gradient_mode!r}")
    return loss, grad


def fit_hyperparameters(
    dataset: Dataset,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> FitResult:
    """Fit saliency, log tau, and w0 by mini-batch Adam on the mean KL."""
    config = config or FitConfig()
    if not dataset.records:
        raise ValidationError("dataset has no records to fit")
    variant = ModelVariant(variant)
    space = _ParamSpace(variant, config.latent_dim)
    prep = _Prepared(dataset, variant)
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
            if config.gradient_mode == "adjoint":
                loss, _, grad = _evaluate_batch(
                    theta, space, prep, batch, config, want_grad=True
                )
            else:
                loss, _, _ = _evaluate_batch(
                    theta, space, prep, batch, config, want_grad=False
                )
                grad = _fd_gradient(theta, space, prep, batch, config)
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

    sel = np.arange(prep.n_records)
    train_loss, per_example, _ = _evaluate_batch(
        theta, space, prep, sel, config, want_grad=False
    )
    return FitResult(
        hyperparameters=space.hyperparameters(theta),
        variant=variant,
        train_loss=train_loss,
        per_example_losses=per_example,
        diagnostics={
            "n_updates": step_count,
            "final_gradient_norm": grad_norms[-1] if grad_norms else 0.0,
            "loss_trajectory": losses,
            "gradient_norm_trajectory": grad_norms,
            "wall_time_s": time.perf_counter() - started,
            "gradient_mode": config.gradient_mode,
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
    variant = ModelVariant(variant)
    n_steps = (config or FitConfig()).n_integration_steps
    if variant is ModelVariant.MEMORYLESS:
        final = TrainingPipeline(pipeline.id, pipeline.stages[-1:])
        return simulate_pipeline(hp, final, n_steps)
    if variant is ModelVariant.SIMULTANEOUS:
        if not pipeline.stages:
            raise ValidationError("pipeline has no stages")
        w = np.full(hp.latent_dim, hp.w0)
        n_stages = len(pipeline.stages)
        for step_idx in range(n_steps):
            grad = np.zeros_like(w)
            for stage in pipeline.stages:
                grad += stage_objective(hp, w, stage).grad_w
            w = w + grad / n_stages
            if not np.all(np.isfinite(w)):
                raise NumericalError(
                    f"non-finite latent weights in pipeline {pipeline.id!r} "
                    f"at step {step_idx} (simultaneous)"
                )
        return w
    return simulate_pipeline(hp, pipeline, n_steps)


def predicted_distributions(
    hp: LpgHyperparameters,
    dataset: Dataset,
    records: list[PreferenceRecord] | None = None,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
):
    """Model predictions for each record, simulating each pipeline once."""
    records = list(dataset.records) if records is None else records
    cache: dict[str, np.ndarray] = {}
    out = []
    for rec in records:
        if rec.pipeline_id not in cache:
            cache[rec.pipeline_id] = simulate_variant(
                hp, dataset.pipelines[rec.pipeline_id], variant, config
            )
        w = cache[rec.pipeline_id]
        out.append(predict_preferences(hp, w, rec.object_a, rec.object_b))
    return out


def modelling_loss(
    hp: LpgHyperparameters,
    dataset: Dataset,
    records: list[PreferenceRecord] | None = None,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> float:
    """Mean KL from observed to predicted three-way distributions."""
    records = list(dataset.records) if records is None else records
    if not records:
        raise ValidationError("no records to evaluate")
    preds = predicted_distributions(hp, dataset, records, variant, config)
    total = 0.0
    for rec, pred in zip(records, preds):
        obs = record_to_distribution(rec)
        total += kl_divergence(np.array(obs.as_tuple()), np.array(pred.as_tuple()))
    return total / len(records)


def baseline_uniform(records: list[PreferenceRecord]) -> float:
    """Mean KL from the observations to the uniform three-way predictor."""
    if not records:
        raise ValidationError("no records to evaluate")
    uniform = np.full(3, 1.0 / 3.0)
    total = 0.0
    for rec in records:
        obs = np.array(record_to_distribution(rec).as_tuple())
        total += kl_divergence(obs, uniform)
    return total / len(records)


def _lower_bound(
    dataset: Dataset,
    per_feature: bool,
    step: float = 1.0,
    tol: float = 1e-8,
    max_iterations: int = 50_000,
) -> float:
    """Reference floor: directly fitted per-agent values.

    Per-goal mode gives every (agent, object) pair a free value; the
    per-feature mode constrains values to be linear in the object's
    features. Each agent's mean KL is minimised independently by plain
    gradient descent; the dataset mean of the converged per-record losses
    is returned.
    """
    if not dataset.records:
        raise ValidationError("no records to bound")
    pids = sorted({r.pipeline_id for r in dataset.records})
    agent_index = {pid: i for i, pid in enumerate(pids)}
    n_agents = len(pids)
    n_rec = len(dataset.records)

    aid = np.array([agent_index[r.pipeline_id] for r in dataset.records])
    p_hat = np.array(
        [record_to_distribution(r).as_tuple() for r in dataset.records]
    )
    counts = np.bincount(aid, minlength=n_agents).astype(float)
    rec_scale = 1.0 / counts[aid]

    if per_feature:
        fa = np.stack([encode_features(r.object_a) for r in dataset.records])
        fb = np.stack([encode_features(r.object_b) for r in dataset.records])
        values = np.zeros((n_agents, N_FEATURES))
    else:
        ia = aid * 24 + np.array([object_index(r.object_a) for r in dataset.records])
        ib = aid * 24 + np.array([object_index(r.object_b) for r in dataset.records])
        values = np.zeros(n_agents * 24)

    for iteration in range(max_iterations):
        if per_feature:
            va = (fa * values[aid]).sum(axis=1)
            vb = (fb * values[aid]).sum(axis=1)
        else:
            va = values[ia]
            vb = values[ib]
        logits = np.stack([va, vb, np.zeros(n_rec)], axis=1)
        mx = logits.max(axis=1, keepdims=True)
        p = np.exp(logits - mx)
        p /= p.sum(axis=1, keepdims=True)
        resid = (p - p_hat) * rec_scale[:, None]
        if per_feature:
            grad = np.zeros_like(values)
            np.add.at(grad, aid, resid[:, 0:1] * fa + resid[:, 1:2] * fb)
        else:
            grad = np.bincount(
                ia, weights=resid[:, 0], minlength=values.size
            ) + np.bincount(ib, weights=resid[:, 1], minlength=values.size)
        delta = step * grad
        values = values - delta
        if np.abs(delta).max() < tol:
            break
    else:
        raise NumericalError(
            f"lower-bound fit did not converge in {max_iterations} iterations "
            f"(max change {np.abs(delta).max():.3e})"
        )

    if per_feature:
        va = (fa * values[aid]).sum(axis=1)
        vb = (fb * values[aid]).sum(axis=1)
    else:
        va = values[ia]
        vb = values[ib]
    logits = np.stack([va, vb, np.zeros(n_rec)], axis=1)
    mx = logits.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    logp = logits - lse[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p_hat > 0, p_hat * np.log(p_hat), 0.0)
    losses = plogp.sum(axis=1) - (p_hat * logp).sum(axis=1)
    return float(losses.mean())


def lower_bound_per_goal(dataset: Dataset, **kwargs) -> float:
    return _lower_bound(dataset, per_feature=False, **kwargs)


def lower_bound_per_feature(dataset: Dataset, **kwargs) -> float:
    return _lower_bound(dataset, per_feature=True, **kwargs)


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

"""Outer-loop hyperparameter fitting and the model-variant zoo.

One batch engine (``_evaluate_batch``) simulates the training pipelines,
predicts the three-way choice distributions and scores the records. The
fits, the latent-dimension sweep, ``predicted_distributions``,
``modelling_loss`` and ``simulate_variant`` all run on it;
``latent.simulate_pipeline`` stays the scalar reference that the oracles
compare against.

The engine runs M models at once: a model (S, log tau, w0) has a leading
model axis, S being (M, n, d_max) and the others (M,). A model with fewer
latent dimensions gets zero columns in S. Their ascent direction is zero,
so they add nothing to any value u . w, and their gradient is masked out.
The model axis folds into the pipeline axis: entry m * P + p is model m
on pipeline p, with model m's tau. Every pipeline is front-padded to the
most stages of any with zero-feature stages, which move neither the
weights nor the adjoint, so one forward and one adjoint loop serve all
stage counts. The fits of a sweep thus share one engine pass per update,
in passes of at most ``_LOCKSTEP_ENTRIES`` (model, pipeline, stage)
entries.

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

import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dataset import (
    ChoiceDistribution,
    Dataset,
    PreferenceRecord,
    TrainingPipeline,
    observed_rates,
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
    """A variant's parameters as one dense row: its saliency S, padded with
    zero columns to some ``d_max``, row-major, then log tau and w0. ``mask``
    marks the free entries of the unpadded S."""

    def __init__(self, variant: ModelVariant, latent_dim: int):
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

    def dense_mask(self, d_max: int | None = None) -> np.ndarray:
        """The free entries of a row padded to ``d_max`` columns (default:
        unpadded); in order, they are the flat gradient's entries."""
        padded = np.zeros((self.n, d_max or self.d), dtype=bool)
        padded[:, : self.d] = self.mask
        return np.append(padded.ravel(), [True, True])

    def hyperparameters(self, row: np.ndarray) -> LpgHyperparameters:
        s = row[:-2].reshape(self.n, -1)[:, : self.d]
        if self.structural is SaliencyVariant.QUADRATIC:
            s = np.diag(s)
        log_tau, w0 = map(float, row[-2:])
        return LpgHyperparameters(s.copy(), log_tau, w0, self.structural)

    def pack(self, hp: LpgHyperparameters) -> np.ndarray:
        """The unpadded row of ``hp``."""
        dense = hp.matrix()
        if dense.shape != (self.n, self.d):
            raise ValidationError(
                f"saliency shape {dense.shape} does not match space ({self.n}, {self.d})"
            )
        return np.append(dense.ravel(), [hp.log_tau, hp.w0])


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
    p_hat = observed_rates(records)
    return pids, pipeline, phi, p_hat


class _Prepared:
    """Records and their pipelines flattened into arrays for the engine,
    with the (P, T, 2, n) stage features and (P, T) distractor mask padded
    in front to the most stages of any pipeline."""

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
        staged = [_stage_features(pipelines[pid], self.variant) for pid in pids]
        self.stage_counts = np.array([len(mask) for _, mask in staged])
        pad = self.stage_counts.max() - self.stage_counts
        padding = [((k, 0), (0, 0), (0, 0)) for k in pad]
        self.stage_phi = np.stack([np.pad(x, w) for (x, _), w in zip(staged, padding)])
        self.has_dis = np.stack([np.pad(m, (k, 0)) for (_, m), k in zip(staged, pad)])
        self.phi_a, self.phi_b = objects[:, 0], objects[:, 1]
        self.n_records = len(records)


def _three_way_kl(va: np.ndarray, vb: np.ndarray, p_hat: np.ndarray):
    """Per-record KL(p_hat || softmax(va, vb, 0)) and the log-probabilities,
    which take a last axis of three."""
    logits = np.stack([va, vb, np.zeros_like(va)], axis=-1)
    mx = logits.max(axis=-1, keepdims=True)
    lse = mx[..., 0] + np.log(np.exp(logits - mx).sum(axis=-1))
    logp = logits - lse[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p_hat > 0, p_hat * np.log(p_hat), 0.0)
    return plogp.sum(axis=-1) - (p_hat * logp).sum(axis=-1), logp


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
    """The unrolled inner ascent of T stages, in order: each step is (the
    stages it ascends, its index). A simultaneous step ascends the mean of
    all stage objectives, so its stages share one trajectory."""
    if simultaneous:
        return [(slice(None), k) for k in range(n_steps)]
    return [(slice(t, t + 1), k) for t in range(t_count) for k in range(n_steps)]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _forward(model, phi, has_dis, tau, rate, n_steps, simultaneous, keep):
    """Ascend P pipelines of T stages under M models in lockstep, as
    E = M * P entries.

    ``phi`` holds the (P, T, 2, n) goal and distractor features and
    ``has_dis`` the (P, T) distractor mask; ``tau`` and ``rate`` are each
    entry's tau and step rate, (E,). Returns the final weights (E, d), the
    ascent directions S^T phi as (T, 2, E, d) and, with ``keep``, the
    values u . w at the start of every step as (T, K, 2, E) and the weights
    at the start of each stage's trajectory as (T, E, d).
    """
    s_matrix, _, w0 = model
    n_pipes, t_count = phi.shape[:2]
    u_cat = np.einsum("ptcn,mnd->tcmpd", phi, s_matrix).reshape(
        t_count, 2, len(tau), -1
    )
    w_now = np.outer(np.repeat(w0, n_pipes), np.ones(u_cat.shape[-1]))
    v_hist = np.empty((t_count, n_steps, 2, len(tau))) if keep else None
    w_start = np.empty((t_count,) + w_now.shape) if keep else None
    # Added to v_d, (T, E).
    no_distractor = np.tile(np.where(has_dis.T, 0.0, -np.inf), len(w0))
    u_step = rate[:, None] * u_cat
    for stages, k in _ascent_steps(t_count, n_steps, simultaneous):
        v = np.einsum("tcpd,pd->tcp", u_cat[stages], w_now)
        v[:, 1] += no_distractor[stages]
        if keep:
            if k == 0:
                w_start[stages] = w_now
            v_hist[stages, k] = v
        w_now = w_now + np.einsum("tcp,tcpd->pd", _step_coefs(v, tau), u_step[stages])
    return w_now, u_cat, v_hist, w_start


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _evaluate_batch(model, prep: _Prepared, rec_sel, n_steps: int, want_grad: bool):
    """Per-record losses and log-probabilities under M models, and
    optionally the gradients of their mean losses.

    Returns the (M, R) KL of each selected record, its (M, R, 3)
    log-probabilities (a, b, neither) and, with ``want_grad``, the
    gradients as (dS, d log tau, d w0). Each pipeline of the selection is
    simulated once per model. The adjoint pass pools the records' seeds per
    entry, runs only the adjoint recurrence step by step, and contracts its
    history into the gradients afterwards. Callers check for non-finite
    values, so float warnings are suppressed here.

    No weight or adjoint vector is kept per step. Along a trajectory the
    weights are its start weights plus the running sum of coefficient x u,
    and the adjoint is its end value plus the reverse running sum of
    alpha x u. So the S gradient needs only the (T, K, 2, E) coefficient
    histories and their running sums, and the histories do not grow with d.
    """
    s_matrix, log_tau, _ = model
    n_models = len(log_tau)
    simultaneous = prep.variant is ModelVariant.SIMULTANEOUS
    pipes, pidx = np.unique(prep.record_pipeline[rec_sel], return_inverse=True)
    counts = prep.stage_counts[pipes]
    t_count = counts.max()
    # Only padding precedes the last t_count stages of the selection.
    phi, has_dis = prep.stage_phi[pipes, -t_count:], prep.has_dis[pipes, -t_count:]
    tau = np.repeat(np.exp(log_tau), len(pipes))  # inf for a diverged fit
    # A simultaneous step ascends the mean of the pipeline's stage objectives.
    rate = np.tile(1.0 / counts if simultaneous else np.ones(len(pipes)), n_models)
    w_now, u_cat, v_hist, w_start = _forward(
        model, phi, has_dis, tau, rate, n_steps, simultaneous, want_grad
    )

    phi_a, phi_b, p_hat = prep.phi_a[rec_sel], prep.phi_b[rec_sel], prep.p_hat[rec_sel]
    w_final = w_now.reshape(n_models, len(pipes), -1)
    sw = np.einsum("mnd,mpd->mpn", s_matrix, w_final)[:, pidx]  # S w, (M, R, n)
    va = np.einsum("rn,mrn->mr", phi_a, sw)
    vb = np.einsum("rn,mrn->mr", phi_b, sw)
    losses, logp = _three_way_kl(va, vb, p_hat)
    if not want_grad:
        return losses, logp, None

    # The records' seeds of the S and w gradients, pooled per entry.
    dv = (np.exp(logp) - p_hat) / len(rec_sel)
    seeds = np.zeros((n_models, len(pipes), phi.shape[-1]))
    np.add.at(seeds, (slice(None), pidx), dv[..., :1] * phi_a + dv[..., 1:2] * phi_b)
    s_grad = np.einsum("mpn,mpd->mnd", seeds, w_final)
    # The adjoint recurrence is linear in lam and its Jacobians depend
    # only on an entry's trajectory, so records pool per entry.
    lam = np.einsum("mpn,mnd->mpd", seeds, s_matrix).reshape(w_now.shape)

    # Axis c (and e) below is (goal, distractor).
    coef, jac, coef_tau = (rate * x for x in _step_coef_partials(v_hist, tau))
    # Only the lam recurrence runs per step; its history is contracted
    # into the S and tau gradients after the loop.
    lam_end = np.empty_like(w_start)  # lam at the end of each trajectory
    a_hist = np.empty_like(coef)  # lam . u_c, before each step's update
    for stages, k in reversed(_ascent_steps(t_count, n_steps, simultaneous)):
        if k == n_steps - 1:
            lam_end[stages] = lam
        a = np.einsum("tcpd,pd->tcp", u_cat[stages], lam)
        a_hist[stages, k] = a
        alpha = np.einsum("tecp,tep->tcp", jac[stages, k], a)
        lam = lam + np.einsum("tcp,tcpd->pd", alpha, u_cat[stages])

    tau_grad = np.einsum("tkcp,tkcp->p", coef_tau, a_hist).reshape(n_models, -1)
    alpha_hist = np.einsum("tkecp,tkep->tkcp", jac, a_hist)
    # The sum of alpha over the later steps of a trajectory.
    later = np.cumsum(alpha_hist[:, ::-1], axis=1)[:, ::-1] - alpha_hist
    # sum_k alpha_k w_k + coef_k lam_k, with w_k and lam_k as running sums
    # over the stages s that share stage t's trajectory.
    pairs = np.einsum("tkcp,skep->tcsep", coef, later)
    pairs = pairs + pairs.transpose(2, 3, 0, 1, 4)
    if not simultaneous:  # then each stage is a trajectory of its own
        pairs *= np.eye(t_count)[:, None, :, None, None]
    u_adj = (
        np.einsum("tcsep,sepd->tcpd", pairs, u_cat)
        + alpha_hist.sum(axis=1)[..., None] * w_start[:, None]
        + coef.sum(axis=1)[..., None] * lam_end[:, None]
    )
    s_grad += np.einsum(
        "ptcn,tcmpd->mnd", phi, u_adj.reshape(t_count, 2, n_models, len(pipes), -1)
    )
    w0_grad = lam.reshape(n_models, -1).sum(axis=1)
    return losses, logp, (s_grad, tau_grad.sum(axis=1) * np.exp(log_tau), w0_grad)


def _single(hp: LpgHyperparameters):
    """The engine's model with one entry on its model axis."""
    return hp.matrix()[None], np.array([hp.log_tau]), np.array([hp.w0])


def _evaluate_all(hp, pipelines, records, variant, config, want_grad: bool):
    """One engine pass of ``hp`` over every record given."""
    prep = _Prepared(pipelines, records, _checked_variant(hp, variant))
    n_steps = (config or FitConfig()).n_integration_steps
    sel = np.arange(prep.n_records)
    return _evaluate_batch(_single(hp), prep, sel, n_steps, want_grad)


def _diverged(values: np.ndarray, dims: list[int], what: str, when: str = "") -> None:
    """Raise NumericalError naming the first fit with a non-finite value;
    row i of ``values`` belongs to the fit of latent dim ``dims[i]``."""
    bad = ~np.isfinite(values.reshape(len(dims), -1)).all(axis=1)
    if bad.any():
        d = dims[bad.argmax()]
        raise NumericalError(f"non-finite {what} in the latent-dim {d} fit{when}")


def _dense_gradient(s_grad, tau_grad, w0_grad) -> np.ndarray:
    """The engine's gradients as dense parameter rows (see ``dense_mask``)."""
    return np.column_stack([s_grad.reshape(len(s_grad), -1), tau_grad, w0_grad])


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
    losses, _, grads = _evaluate_all(
        hp, dataset.pipelines, dataset.records, variant, config, want_grad=True
    )
    space = _ParamSpace(variant, hp.latent_dim)
    loss, grad = float(losses.mean()), _dense_gradient(*grads)[0][space.dense_mask()]
    if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
        raise NumericalError("non-finite loss or gradient")
    return loss, grad


def _fit_lockstep(prep: _Prepared, config: FitConfig, dims: list[int]):
    """Fit one model per latent dim in ``dims`` (``config.latent_dim`` is
    not used) by mini-batch Adam on the mean KL, with one engine pass per
    update for all of them.

    Every fit shuffles the same records from the same seed, so they share
    each mini-batch. Each fit's parameters are one dense row
    (``_ParamSpace``) with its own Adam state and trajectories. The entries
    its row fixes get a zero gradient, which makes a zero Adam step.
    """
    variant = prep.variant
    spaces = [_ParamSpace(variant, d) for d in dims]
    n, d_max = spaces[0].n, max(space.d for space in spaces)
    mask = np.stack([space.dense_mask(d_max) for space in spaces])
    theta = np.where(mask, np.append(np.eye(n, d_max), [0.0, 0.0]), 0.0)

    def model(theta):
        return theta[:, :-2].reshape(-1, n, d_max), theta[:, -2], theta[:, -1]

    m, v = np.zeros_like(theta), np.zeros_like(theta)
    step_count = 0
    losses, grad_norms = [], []  # one array per update, one entry per fit
    rng = np.random.default_rng([0x666974, config.rng_seed])
    order = np.arange(prep.n_records)
    started = time.perf_counter()

    for epoch in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, prep.n_records, config.batch_size):
            batch = order[start : start + config.batch_size]
            batch_losses, _, grads = _evaluate_batch(
                model(theta), prep, batch, config.n_integration_steps, True
            )
            loss = batch_losses.mean(axis=1)
            grad = np.where(mask, _dense_gradient(*grads), 0.0)
            _diverged(
                np.column_stack([loss, grad]),
                dims,
                "loss or gradient",
                f" (epoch {epoch}, batch starting at {start})",
            )
            step_count += 1
            m = config.adam_beta1 * m + (1.0 - config.adam_beta1) * grad
            v = config.adam_beta2 * v + (1.0 - config.adam_beta2) * grad**2
            m_hat = m / (1.0 - config.adam_beta1**step_count)
            v_hat = v / (1.0 - config.adam_beta2**step_count)
            theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            losses.append(loss)
            grad_norms.append(np.linalg.norm(grad, axis=1))

    all_records = np.arange(prep.n_records)
    per_example, _, _ = _evaluate_batch(
        model(theta), prep, all_records, config.n_integration_steps, False
    )
    _diverged(per_example, dims, "training loss")
    wall_time = time.perf_counter() - started
    # One list per fit.
    losses, grad_norms = (
        np.reshape(x, (step_count, len(dims))).T.tolist() for x in (losses, grad_norms)
    )
    return [
        FitResult(
            space.hyperparameters(theta[i]),
            variant,
            float(per_example[i].mean()),
            per_example[i],
            diagnostics={
                "n_updates": step_count,
                "final_gradient_norm": grad_norms[i][-1] if step_count else 0.0,
                "loss_trajectory": losses[i],
                "gradient_norm_trajectory": grad_norms[i],
                "wall_time_s": wall_time,
                "epochs": config.epochs,
            },
        )
        for i, space in enumerate(spaces)
    ]


def fit_hyperparameters(
    dataset: Dataset,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> FitResult:
    """Fit saliency, log tau, and w0 by mini-batch Adam on the mean KL."""
    config = config or FitConfig()
    prep = _Prepared(dataset.pipelines, dataset.records, variant)
    return _fit_lockstep(prep, config, [config.latent_dim])[0]


def simulate_variant(
    hp: LpgHyperparameters,
    pipeline: TrainingPipeline,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> np.ndarray:
    """Latent weights for a pipeline under the given variant's rules."""
    variant = _checked_variant(hp, variant)
    phi, has_dis = _stage_features(pipeline, variant)
    simultaneous = variant is ModelVariant.SIMULTANEOUS
    rate = np.array([1.0 / len(has_dis) if simultaneous else 1.0])
    n_steps = (config or FitConfig()).n_integration_steps
    tau = np.exp([hp.log_tau])
    w, _, _, _ = _forward(
        _single(hp), phi[None], has_dis[None], tau, rate, n_steps, simultaneous, False
    )
    if not np.all(np.isfinite(w)):
        raise NumericalError(f"non-finite latent weights in pipeline {pipeline.id!r}")
    return w[0]


def _predict(hp, dataset, records, variant, config):
    """Per-record losses and log-probabilities from one engine pass."""
    records = list(dataset.records) if records is None else records
    losses, logp, _ = _evaluate_all(
        hp, dataset.pipelines, records, variant, config, want_grad=False
    )
    if not np.all(np.isfinite(logp)):
        raise NumericalError("non-finite latent weights or predictions")
    return losses[0], logp[0]


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


# Bounds the fits of a sweep that share one engine pass: each
# (model, pipeline, stage) entry keeps about a dozen float64 (K, 2)
# histories while the adjoint runs, about 20 kB at K = 100.
_LOCKSTEP_ENTRIES = 1024


def latent_dim_sweep(
    dataset: Dataset,
    dims: list[int] | None = None,
    config: FitConfig | None = None,
) -> list[FitResult]:
    """Fit the full variant at each latent dimension; one result per entry
    of ``dims``, in order.

    The fits run in lockstep, as many at a time as keep one engine pass
    within ``_LOCKSTEP_ENTRIES`` (model, pipeline, stage) entries, so the
    sweep's memory does not grow with the number of dims.
    """
    dims = list(dims) if dims is not None else list(range(1, 33))
    if not dims:
        raise ValidationError("no dimensions to sweep")
    if min(dims) < 1:
        raise ValidationError(f"latent dims must be at least 1, got {min(dims)}")
    config = config or FitConfig()
    prep = _Prepared(dataset.pipelines, dataset.records, ModelVariant.FULL)
    n_pipes, t_max = prep.stage_phi.shape[:2]
    per_pass = max(1, _LOCKSTEP_ENTRIES // (min(config.batch_size, n_pipes) * t_max))
    return [
        fit
        for i in range(0, len(dims), per_pass)
        for fit in _fit_lockstep(prep, config, dims[i : i + per_pass])
    ]

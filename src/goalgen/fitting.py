"""Outer-loop hyperparameter fitting and the model-variant zoo.

One batch engine (``_evaluate_batch``) simulates the training pipelines,
predicts the three-way choice distributions and scores the records. The
fits, the latent-dimension sweep, the held-out fits of K-fold and
transfer evaluation, ``predicted_distributions``, ``modelling_loss`` and
``simulate_variant`` all run on it; ``latent.simulate_pipeline`` stays
the scalar reference that the oracles compare against.

The inner ascent moves the latent weights only along the directions
S^T phi of its stages' goals and distractors, so the engine runs it in
their span: w = w0 1 + S^T phi^T beta, with two coefficients beta per
stage, and the stages' values are w0 phi . S 1 + G beta with the Gram
matrix G = phi S S^T phi^T. No array of the ascent has a latent axis.
It runs in blocks, a stage each or all stages (simultaneous), each
starting from the earlier blocks' final beta. A step adds
G_bb (g, -g sigma(v_d)) to a block's values, with lr = ln((1 - pi_g) / pi_g)
and g = rate (1 + tau lr) pi_g (1 - pi_g); beta sums those coefficients.

The engine runs M models at once: a model (S, log tau, w0) has a leading
model axis, S being (M, n, d_max) and the others (M,). A model with fewer
latent dimensions gets zero columns in S, which change neither S S^T nor
S 1, and their gradient is masked out. Each model brings its own rows of
one prepared record set, and an entry is one model on one pipeline that
its rows use, with the model's tau; rows reach the engine as object codes.
Every pipeline is front-padded to the most stages of any with zero-feature
stages, which have no row or column in G and so move no value, so one
forward and one adjoint loop serve all stage counts.

Every set of fits (``_fit_models``) runs in lockstep, one engine pass per
update, each model on the batches its fit alone would take: all rows in a
fit or sweep, a fold's or a filter's in a held-out fit. Each held-out fit
then scores its own held-out rows in one engine pass.

The fit minimises the mean KL from observed to predicted choice
distributions with mini-batch Adam. Gradients with respect to the free
saliency entries, log tau, and w0 flow through the entire unrolled inner
ascent by reverse accumulation: the forward pass records the values at
every step, and the backward pass runs the blocks in reverse. The step
rule's Jacobians depend only on the recorded values, so a block's step
matrices I + G_bb B_k, with B_k the partials of step k, are built a chunk
of steps at a time, and its loop only multiplies the adjoint of beta by
them. The adjoint is linear, so it runs once per pipeline, not once per
record.
``selfcheck.fd_gradient`` checks it against finite differences.

Besides the proposed (full) model there are four alternatives: a diagonal
saliency, a quadratic feature expansion with diagonal saliency, a
memoryless variant that simulates only the final stage, and a simultaneous
variant that ascends the mean of all stage objectives jointly. Per-agent
per-goal and per-agent per-feature reference floors (an object's value
sums its agent's values in the object's columns, fitted by one Newton
solve summed by index), a uniform baseline, and a latent-dimension sweep
round out the comparison harness.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dataset import (
    ChoiceDistribution,
    Dataset,
    PreferenceRecord,
    TrainingPipeline,
    record_columns,
)
from .errors import NumericalError, ValidationError
from .features import N_FEATURES, encode_features, enumerate_objects
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


def _empty(shape: tuple, dtype=float) -> np.ndarray:
    """``np.empty``, raising MemoryError for a size numpy cannot address."""
    try:
        return np.empty(shape, dtype)
    except ValueError as exc:
        raise MemoryError(f"Unable to allocate an array of shape {shape}: {exc}") from None


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
            ones = np.ones_like(_empty((self.n, self.d), bool))
            diagonal = self.structural is SaliencyVariant.DIAGONAL
            self.mask = np.eye(self.n, self.d, dtype=bool) if diagonal else np.triu(ones)

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


def _nonempty(rates: np.ndarray) -> np.ndarray:
    if not len(rates):
        raise ValidationError("no preference records to fit or evaluate")
    return rates


class _Prepared:
    """A dataset's columns, or those of ``records`` as given, with each
    record's ``_plogp``, the variant's (24, n) object ``table`` by
    object_index, and the pipelines' (P, T, 2, n) stage features and (P, T)
    distractor mask, front-padded to the most stages of any, for the engine."""

    def __init__(self, dataset: Dataset, variant: ModelVariant, records=None):
        self.variant, pipelines = ModelVariant(variant), dataset.pipelines
        columns = record_columns(dataset if records is None else records)
        pids, self.record_pipeline, self.codes, self.p_hat = columns
        self.n_records = len(_nonempty(self.p_hat))
        self.plogp = _plogp(self.p_hat)
        unknown = [pid for pid in pids if pid not in pipelines]
        if unknown:
            raise ValidationError(f"records name unknown pipelines {unknown}")
        staged = [_stage_features(pipelines[pid], self.variant) for pid in pids]
        self.stage_counts = np.array([len(mask) for _, mask in staged])
        pad = self.stage_counts.max() - self.stage_counts
        padding = [((k, 0), (0, 0), (0, 0)) for k in pad]
        self.stage_phi = np.stack([np.pad(x, w) for (x, _), w in zip(staged, padding)])
        self.has_dis = np.stack([np.pad(m, (k, 0)) for (_, m), k in zip(staged, pad)])
        self.table = np.array([_encoder(self.variant)(o) for o in enumerate_objects()])


def _plogp(p_hat: np.ndarray) -> np.ndarray:
    """Per-record sum of p_hat log p_hat: the part of KL no prediction moves."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p_hat > 0, p_hat * np.log(p_hat), 0.0).sum(axis=-1)


def _three_way_kl(va: np.ndarray, vb: np.ndarray, p_hat: np.ndarray, plogp: np.ndarray):
    """Per-record KL(p_hat || softmax(va, vb, 0)) and the log-probabilities,
    which take a last axis of three; ``plogp`` is ``_plogp(p_hat)``."""
    logits = np.stack([va, vb, np.zeros_like(va)], axis=-1)
    mx = logits.max(axis=-1, keepdims=True)
    lse = mx[..., 0] + np.log(np.exp(logits - mx).sum(axis=-1))
    logp = logits - lse[..., None]
    return plogp - (p_hat * logp).sum(axis=-1), logp


def _step_terms(v, tau, rate):
    """At values ``v``, (goal, distractor) on axis -2: lr, sigma(v_d),
    x = rate pi_g (1 - pi_g) and the goal coefficient g = x (1 + tau lr).
    A missing distractor has v_d = -inf, so sigma(v_d) = 0; where cosh lr
    overflows, x = g = 0."""
    vd = v[..., 1, :]
    soft = np.logaddexp(0.0, vd)
    lr = soft - v[..., 0, :]
    x = rate / (2.0 + 2.0 * np.cosh(lr))
    return lr, np.exp(vd - soft), x, x * (1.0 + tau * lr)


def _step_coef_partials(v, tau, rate):
    """Coefficients (g, -g sigma(v_d)) plus their partials wrt (vg, vd) and
    tau. ``coef`` and ``coef_tau`` have the shape ``X + (2, E)`` of ``v``,
    and ``jac[..., e, c, :]``, ``X + (2, 2, E)``, is the partial of
    coefficient ``e`` wrt ``v_c``; it is symmetric. As d lr / d v_g = -1,
    d lr / d v_d = sigma(v_d) and d x / d lr = -x tanh(lr / 2),
    d g / d lr is ``a``."""
    lr, sig, x, g = _step_terms(v, tau, rate)
    a = x * tau - g * np.tanh(0.5 * lr)
    cross = a * sig
    ddd = -sig * (cross + g * (1.0 - sig))
    jac = np.stack([-a, cross, cross, ddd], axis=-2).reshape(v.shape[:-2] + (2, 2, -1))
    coef = np.stack([g, -g * sig], axis=-2)
    return coef, jac, np.stack([x * lr, -x * lr * sig], axis=-2)


def _blocks(t_count: int, simultaneous: bool) -> list[slice]:
    """The stages that ascend together (all, or one at a time), in order."""
    return [slice(0, t_count)] if simultaneous else [slice(t, t + 1) for t in range(t_count)]


def _split(values: np.ndarray, sizes, axis: int = 0) -> list[np.ndarray]:
    """``values`` cut along ``axis`` into consecutive parts of ``sizes``."""
    return np.split(values, np.cumsum(sizes)[:-1], axis=axis)


def _span(model, owner, phi, has_dis):
    """The span of E entries' (E, T, 2, n) stage features ``phi``, entry e
    being model ``owner[e]`` on one pipeline, model after model: K phi with
    K = S S^T, (T, 2, E, n), the Gram matrix G = phi K phi^T,
    (T, 2, T, 2, E), and the start values w0 phi . S 1, (T, 2, E), -inf
    where the (E, T) ``has_dis`` is False."""
    s_matrix, _, w0 = model
    # einsum, not matmul (also below): BLAS adds 0.3-0.5 MB to peak RSS.
    k_matrix = np.einsum("mnd,mjd->mnj", s_matrix, s_matrix)
    # Model by model: each entry's own K would be n^2 floats an entry.
    parts = zip(k_matrix, _split(phi, np.bincount(owner, minlength=len(w0))))
    k_phi = np.concatenate([np.einsum("nj,ptcj->tcpn", k, x) for k, x in parts], axis=2)
    gram = np.einsum("ptcn,sepn->tcsep", phi, k_phi)
    base = w0[owner] * np.einsum("ptcn,pn->tcp", phi, s_matrix.sum(axis=2)[owner])
    base[:, 1] += np.where(has_dis.T, 0.0, -np.inf)
    return k_phi, gram, base


def _forward(gram, base, tau, rate, n_steps, simultaneous):
    """Ascend the entries of ``_span`` with their (E,) ``tau`` and step
    ``rate``, block by block. Returns the final beta, (T, 2, E), and the
    values at the start of every step, (T, K, 2, E)."""
    beta = np.zeros_like(base)
    v_hist = _empty((len(base), n_steps) + base.shape[1:])
    for blk in _blocks(len(base), simultaneous):
        earlier = slice(0, blk.start)
        v = base[blk] + np.einsum("tcsep,sep->tcp", gram[blk, :, earlier], beta[earlier])
        # The block's columns of G, per (goal, distractor) coefficient.
        g_goal, g_dis = gram[blk, :, blk, 0], gram[blk, :, blk, 1]
        hist = v_hist[blk]
        for k in range(n_steps):
            hist[:, k] = v
            _, sig, _, g = _step_terms(v, tau, rate)
            v = v + (g * (g_goal - sig * g_dis)).sum(axis=2)
        _, sig, _, g = _step_terms(hist, tau, rate)
        beta[blk] = np.stack([g, -g * sig], axis=-2).sum(axis=1)
    return beta, v_hist


# Most step-matrix entries the adjoint builds at once (0.5 MB). A step of a
# block of b stages has 4 b^2 entries per (model, pipeline) entry, so a
# simultaneous block's steps come in chunks, while a one-stage block's 100
# steps take one chunk up to 163 entries.
_STEP_MATRIX_ENTRIES = 2**16


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _evaluate_batch(model, prep: _Prepared, row_sets, n_steps: int, gradient=False):
    """The KL and (a, b, neither) log-probabilities of every row, model m on
    its rows ``row_sets[m]`` of ``prep``, model after model, and if
    ``gradient`` (dS, d log tau, d w0) of each model's mean loss.

    An entry, a model on one pipeline its rows use, is ascended once in the
    span of its directions (``_span``). Its S w times the object table gives
    its 24 object values, and a row reads the two its codes name. The
    adjoint pass sums the rows' seeds by (entry, code), takes them back
    through the table, and runs the steps in reverse, carrying the adjoint
    of beta back through their step matrices and, between blocks, through
    G. Its histories then contract into the gradients of G, the start values
    and tau, and K = S S^T and S 1 carry those to S and w0. Callers check
    for non-finite values, so float warnings are suppressed here.
    """
    s_matrix, log_tau, w0 = model
    n_models, n_pipes = len(log_tau), len(prep.stage_counts)
    simultaneous = prep.variant is ModelVariant.SIMULTANEOUS
    sizes, rows = [len(rows) for rows in row_sets], np.concatenate(row_sets)
    # The (model, pipeline) entries in use, model after model, and each
    # row's entry, from a presence table: plain np.unique allocates 1.1 MB.
    keys = np.repeat(np.arange(n_models) * n_pipes, sizes) + prep.record_pipeline[rows]
    used = np.bincount(keys, minlength=n_models * n_pipes) > 0
    entry = (np.cumsum(used) - 1)[keys]
    owner, pipes = np.divmod(np.flatnonzero(used), n_pipes)
    per_model, n_stages = np.bincount(owner, minlength=n_models), prep.stage_counts[pipes]
    t_count = n_stages.max()
    # Only padding precedes the last t_count stages of the entries.
    phi, has_dis = prep.stage_phi[pipes, -t_count:], prep.has_dis[pipes, -t_count:]
    tau = np.exp(log_tau)[owner]  # inf for a diverged fit
    # A simultaneous step ascends the mean of the pipeline's stage objectives.
    rate = 1.0 / n_stages if simultaneous else np.ones(len(pipes))
    k_phi, gram, base = _span(model, owner, phi, has_dis)
    beta, v_hist = _forward(gram, base, tau, rate, n_steps, simultaneous)

    s_one = s_matrix.sum(axis=2)  # S 1, (M, n)
    # S w = w0 S 1 + K phi^T beta, (E, n), and the objects' values, (E, 24).
    sw = (w0[:, None] * s_one)[owner] + np.einsum("tcp,tcpn->pn", beta, k_phi)
    values = np.einsum("on,pn->po", prep.table, sw)
    va, vb = (values[entry, prep.codes[rows, i]] for i in (0, 1))
    p_hat = prep.p_hat[rows]
    losses, logp = _three_way_kl(va, vb, p_hat, prep.plogp[rows])
    if not gradient:
        return losses, logp, None

    # The rows' seeds of their objects' values, summed by (entry, code),
    # then of S w. The adjoint of beta is linear and its Jacobians depend
    # only on an entry's trajectory, so rows pool per entry.
    dv = (np.exp(logp[:, :2]) - p_hat[:, :2]) / np.repeat(sizes, sizes)[:, None]
    cells = (entry[:, None] * len(prep.table) + prep.codes[rows]).ravel()
    seeds = np.bincount(cells, dv.ravel(), values.size).reshape(values.shape)
    seeds = np.einsum("po,on->pn", seeds, prep.table)
    lam = np.einsum("tcpn,pn->tcp", k_phi, seeds)

    # Axis c (and e, f) below is (goal, distractor).
    coef, jac, coef_tau = _step_coef_partials(v_hist, tau, rate)
    lam_hist = np.empty_like(coef)  # the adjoint of each step's beta, after it
    alpha_hist = np.empty_like(coef)  # the adjoint of its values
    for blk in reversed(_blocks(t_count, simultaneous)):
        # Step k takes the adjoint of the block's beta back through the
        # transpose of its Jacobian I + B_k G_bb, B_k holding jac[k]
        # block-diagonally: I + G_bb B_k, as G and jac are symmetric.
        g_bb = gram[blk, :, blk]
        eye = np.eye(2 * t_count).reshape(t_count, 2, t_count, 2, 1)[blk, :, blk]
        per_chunk = max(1, _STEP_MATRIX_ENTRIES // g_bb.size)
        lam_blk, hist = lam[blk], lam_hist[blk]
        for stop in range(n_steps, 0, -per_chunk):
            first = max(0, stop - per_chunk)
            step = np.einsum("setcp,skfep->ktcsfp", g_bb, jac[blk, first:stop])
            step += eye
            for k in reversed(range(first, stop)):
                hist[:, k] = lam_blk
                lam_blk = np.einsum("tcsfp,sfp->tcp", step[k - first], lam_blk)
        alpha_hist[blk] = np.einsum("skfep,skfp->skep", jac[blk], hist)
        earlier = slice(0, blk.start)
        alpha_sum = alpha_hist[blk].sum(axis=1)
        lam[earlier] += np.einsum("tcsep,tcp->sep", gram[blk, :, earlier], alpha_sum)

    tau_grad = np.einsum("tkcp,tkcp->p", coef_tau, lam_hist)
    d_base = alpha_hist.sum(axis=1)
    # A step's alpha meets the beta before it in G: its own stages' exclusive
    # running sum of increments, and a sequential stage's earlier stages' ends.
    d_gram = np.einsum("tkcp,skep->tcsep", alpha_hist, np.cumsum(coef, axis=1) - coef)
    if not simultaneous:
        earlier = np.tri(t_count, k=-1)[:, None, :, None, None]
        d_gram *= np.eye(t_count)[:, None, :, None, None]
        d_gram += np.einsum("tcp,sep->tcsep", d_base, coef.sum(axis=1)) * earlier
    # K's gradient, from G and from the seeds against phi^T beta, model by
    # model as in _span.
    left = np.einsum("tcsep,ptcn->sepn", d_gram, phi) + beta[..., None] * seeds
    parts = zip(_split(left, per_model, axis=2), _split(phi, per_model))
    d_k = np.stack([np.einsum("sepn,psej->nj", x, y) for x, y in parts])
    # w0 S 1 enters S w and the start values; d_one is its gradient.
    d_one = _split(seeds + np.einsum("tcp,ptcn->pn", d_base, phi), per_model)
    d_one = np.stack([part.sum(axis=0) for part in d_one])
    s_grad = np.einsum("mnj,mjd->mnd", d_k + d_k.transpose(0, 2, 1), s_matrix)
    s_grad += (w0[:, None] * d_one)[..., None]
    tau_grad = np.array([part.sum() for part in _split(tau_grad, per_model)])
    return losses, logp, (s_grad, tau_grad * np.exp(log_tau), (d_one * s_one).sum(axis=1))


def _single(hp: LpgHyperparameters):
    """The engine's model with one entry on its model axis."""
    return hp.matrix()[None], np.array([hp.log_tau]), np.array([hp.w0])


def _score(prep: _Prepared, hp: LpgHyperparameters, rows: np.ndarray, n_steps: int):
    """``hp``'s per-record losses and (R, 3) predicted distributions on
    ``rows`` of ``prep``, from one engine pass."""
    losses, logp, _ = _evaluate_batch(_single(hp), prep, [rows], n_steps)
    if not np.all(np.isfinite(logp)):
        raise NumericalError("non-finite latent weights or predictions")
    return losses, np.exp(logp)


def _diverged(values: np.ndarray, dims: list[int], what: str, batches=None) -> None:
    """Raise NumericalError naming the first fit with a non-finite value;
    row i of ``values`` belongs to the fit of latent dim ``dims[i]``, which
    is at the (epoch, start, rows) batch ``batches[i]`` if given."""
    bad = ~np.isfinite(values.reshape(len(dims), -1)).all(axis=1)
    if bad.any():
        i = bad.argmax()
        when = ""
        if batches is not None:
            when = " (epoch {}, batch starting at {})".format(*batches[i][:2])
        raise NumericalError(f"non-finite {what} in the latent-dim {dims[i]} fit{when}")


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
    prep = _Prepared(dataset, _checked_variant(hp, variant))
    n_steps = (config or FitConfig()).n_integration_steps
    rows = [np.arange(prep.n_records)]
    losses, _, grads = _evaluate_batch(_single(hp), prep, rows, n_steps, gradient=True)
    space = _ParamSpace(variant, hp.latent_dim)
    loss, grad = float(losses.mean()), _dense_gradient(*grads)[0][space.dense_mask()]
    if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
        raise NumericalError("non-finite loss or gradient")
    return loss, grad


def _batches(rows: np.ndarray, config: FitConfig) -> Iterator[tuple[int, int, np.ndarray]]:
    """The (epoch, start, rows) mini-batches of a fit on ``rows``, in order,
    drawn as they are asked for: epochs x ceil(rows / batch size) of them."""
    rng = np.random.default_rng([0x666974, config.rng_seed])
    order, size = rows.copy(), config.batch_size
    for epoch in range(config.epochs):
        rng.shuffle(order)  # in place, so each batch is copied
        for i in range(0, len(order), size):
            yield epoch, i, order[i : i + size].copy()


def _fit_lockstep(prep: _Prepared, config: FitConfig, models: list):
    """Fit one model per (latent dim, rows of ``prep``) entry of ``models``
    (``config.latent_dim`` is not used) by mini-batch Adam on the mean KL
    over its rows, with one engine pass per update for all of them.

    Each model takes its ``_batches`` and stops when they run out. Its
    parameters are one dense row (``_ParamSpace``) with its own Adam state;
    the entries its row fixes get a zero gradient, so a zero Adam step.
    """
    variant, dims, n_steps = prep.variant, [d for d, _ in models], config.n_integration_steps
    spaces = [_ParamSpace(variant, d) for d in dims]
    n, d_max = spaces[0].n, max(space.d for space in spaces)
    mask = np.stack([space.dense_mask(d_max) for space in spaces])
    theta = np.where(mask, np.append(np.eye(n, d_max), [0.0, 0.0]), 0.0)

    def model(theta):
        return theta[:, :-2].reshape(-1, n, d_max), theta[:, -2], theta[:, -1]

    m, v = np.zeros_like(theta), np.zeros_like(theta)
    n_updates = [config.epochs * -(-len(rows) // config.batch_size) for _, rows in models]
    # Per update and fit: its batch loss and gradient norm.
    history = _empty((2, max(n_updates, default=0), len(models)))
    schedules = [_batches(rows, config) for _, rows in models]
    started = time.perf_counter()

    for step in range(len(history[0])):
        live = np.flatnonzero([n > step for n in n_updates])
        live_dims, batches = [dims[i] for i in live], [next(schedules[i]) for i in live]
        row_sets = [rows for _, _, rows in batches]
        losses, _, grads = _evaluate_batch(model(theta[live]), prep, row_sets, n_steps, True)
        loss = np.array([part.mean() for part in _split(losses, [len(r) for r in row_sets])])
        grad = np.where(mask[live], _dense_gradient(*grads), 0.0)
        _diverged(np.column_stack([loss, grad]), live_dims, "loss or gradient", batches)
        m[live] = config.adam_beta1 * m[live] + (1.0 - config.adam_beta1) * grad
        v[live] = config.adam_beta2 * v[live] + (1.0 - config.adam_beta2) * grad**2
        m_hat = m[live] / (1.0 - config.adam_beta1 ** (step + 1))
        v_hat = v[live] / (1.0 - config.adam_beta2 ** (step + 1))
        theta[live] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        # The engine runs on at tau = 0, but LpgHyperparameters rejects it.
        with np.errstate(over="ignore"):
            _diverged(np.exp(np.abs(theta[live, -2])), live_dims, "tau or 1 / tau", batches)
        history[:, step, live] = loss, np.linalg.norm(grad, axis=1)

    # The training losses, on at most _SCORED_ROWS (fit, row) pairs a call.
    sizes = [len(rows) for _, rows in models]
    owner = np.repeat(np.arange(len(models)), sizes)
    rows = np.concatenate([rows for _, rows in models])
    losses = []
    for start in range(0, len(rows), _SCORED_ROWS):
        part = slice(start, start + _SCORED_ROWS)
        counts = np.bincount(owner[part], minlength=len(models))
        live = np.flatnonzero(counts)
        row_sets = _split(rows[part], counts[live])
        losses.append(_evaluate_batch(model(theta[live]), prep, row_sets, n_steps)[0])
    per_example = _split(np.concatenate(losses), sizes)
    train_losses = np.array([part.mean() for part in per_example])
    _diverged(train_losses, dims, "training loss")
    wall_time = time.perf_counter() - started
    fits = []
    for i, space in enumerate(spaces):
        trajectory, norms = history[:, : n_updates[i], i].tolist()
        diagnostics = {
            "n_updates": len(trajectory),
            "final_gradient_norm": norms[-1] if norms else 0.0,
            "loss_trajectory": trajectory,
            "gradient_norm_trajectory": norms,
            "wall_time_s": wall_time,
            "epochs": config.epochs,
        }
        hp = space.hyperparameters(theta[i])
        fits.append(FitResult(hp, variant, float(train_losses[i]), per_example[i], diagnostics))
    return fits


# Bounds the fits of one engine pass: while the adjoint runs, each (model,
# pipeline, stage) entry holds about 18 kB at K = 100 whatever the latent
# dim: seven (K, 2) histories, 11.2 kB, and (K, 2, 2) step matrices, 3.2 kB.
# Simultaneous ones are (2T, 2T) per step, built in chunks. The final
# training-loss pass scores at most _SCORED_ROWS (fit, row) pairs a call,
# about 190 B each (3 MB), well below a full pass's adjoint: three fits on
# 1,104 rows still take one call.
_LOCKSTEP_ENTRIES = 1024
_SCORED_ROWS = 2**14


def _fit_models(prep: _Prepared, config: FitConfig, models: list):
    """``_fit_lockstep`` on as many ``models`` at a time as keep a pass
    within ``_LOCKSTEP_ENTRIES`` entries. A model ascends the pipelines of
    its own batch: at most a batch's worth, and at most those of its rows."""
    t_max = prep.stage_phi.shape[1]
    used = max(np.count_nonzero(np.bincount(prep.record_pipeline[rows])) for _, rows in models)
    per_pass = max(1, _LOCKSTEP_ENTRIES // (min(config.batch_size, used) * t_max))
    passes = [models[i : i + per_pass] for i in range(0, len(models), per_pass)]
    return [fit for group in passes for fit in _fit_lockstep(prep, config, group)]


def fit_hyperparameters(
    dataset: Dataset,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> FitResult:
    """Fit saliency, log tau, and w0 by mini-batch Adam on the mean KL."""
    config = config or FitConfig()
    prep = _Prepared(dataset, variant)
    [fit] = _fit_models(prep, config, [(config.latent_dim, np.arange(prep.n_records))])
    return fit


def heldout_fits(
    dataset: Dataset,
    splits: list[tuple[np.ndarray, np.ndarray]],
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> list[tuple[FitResult, np.ndarray, np.ndarray]]:
    """Per (training rows, held-out rows) split of ``dataset.records``: a fit
    on its training rows, and the held-out rows' losses and (R, 3)
    predictions. The fits run in lockstep; each fit scores its own held-out
    rows, so no pass holds more than one split's."""
    config = config or FitConfig()
    prep = _Prepared(dataset, variant)
    fits = _fit_models(prep, config, [(config.latent_dim, train) for train, _ in splits])
    return [
        (fit, *_score(prep, fit.hyperparameters, held, config.n_integration_steps))
        for fit, (_, held) in zip(fits, splits)
    ]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    _, gram, base = _span(_single(hp), np.zeros(1, dtype=int), phi[None], has_dis[None])
    beta, _ = _forward(gram, base, np.exp([hp.log_tau]), rate, n_steps, simultaneous)
    w = hp.w0 + np.einsum("nd,tcn,tc->d", hp.matrix(), phi, beta[..., 0])
    if not np.all(np.isfinite(w)):
        raise NumericalError(f"non-finite latent weights in pipeline {pipeline.id!r}")
    return w


def _score_records(hp, dataset, records, variant, config):
    """``hp``'s losses and predictions on ``records`` (default: all)."""
    prep = _Prepared(dataset, _checked_variant(hp, variant), records)
    n_steps = (config or FitConfig()).n_integration_steps
    return _score(prep, hp, np.arange(prep.n_records), n_steps)


def predicted_distributions(
    hp: LpgHyperparameters,
    dataset: Dataset,
    records: list[PreferenceRecord] | None = None,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> list[ChoiceDistribution]:
    """Model predictions for each record (default: the dataset's)."""
    _, predicted = _score_records(hp, dataset, records, variant, config)
    return [ChoiceDistribution(*p) for p in predicted.tolist()]


def modelling_loss(
    hp: LpgHyperparameters,
    dataset: Dataset,
    records: list[PreferenceRecord] | None = None,
    variant: ModelVariant = ModelVariant.FULL,
    config: FitConfig | None = None,
) -> float:
    """Mean KL from observed to predicted three-way distributions."""
    losses, _ = _score_records(hp, dataset, records, variant, config)
    return float(losses.mean())


def baseline_uniform(p_hat: np.ndarray) -> float:
    """Mean KL from (R, 3) observed rates to the uniform three-way predictor."""
    zeros = np.zeros(len(_nonempty(p_hat)))
    return float(_three_way_kl(zeros, zeros, p_hat, _plogp(p_hat))[0].mean())


# The floors' columns of each object, by object_index: its own column (per
# goal), or its colour and shape columns (per feature).
_GOAL_COLUMNS = np.arange(len(enumerate_objects()))[:, None]
_FEATURE_COLUMNS = np.array([o.feature_indices() for o in enumerate_objects()])
# Safety bound on the floors' Newton steps; separable tallies take about 20.
_NEWTON_STEPS = 100
# Keeps each Hessian solvable along directions that no record observes.
_RIDGE = 1e-10


def _lower_bound(dataset: Dataset, columns: np.ndarray) -> tuple[float, int]:
    """Reference floor: per-agent values fitted directly to the records.

    An agent values an object at the sum of its values in the object's row
    of ``columns``; its mean KL to a three-way softmax over (value a, value
    b, 0) is minimised apart from the other agents, by one damped Newton
    solve for all. The gradient and the Hessian X^T W X, W = diag(p) - p p^T
    on the (a, b) outcomes, are summed by index into (agent, column) and
    (agent, column, column) cells. Each step is scaled by 1 / (1 + the
    agent's Newton decrement), until every gradient entry is below 1e-8.
    Returns the mean per-record loss at the optimum and the step count.
    """
    _, agent, codes, p_hat = dataset.columns
    plogp = _plogp(_nonempty(p_hat))
    n, counts = columns.max() + 1, np.bincount(agent)[:, None]
    cells = agent[:, None, None] * n + columns[codes]  # (R, 2, k)
    # Each record's Hessian cells (c, i, c', j), which take W's (c, c') entry.
    hess_cells = cells[..., None, None] * n + columns[codes][:, None, None]
    theta = np.zeros(len(counts) * n)
    for steps in range(_NEWTON_STEPS):
        v = theta[cells].sum(axis=2)
        losses, logp = _three_way_kl(v[:, 0], v[:, 1], p_hat, plogp)
        p = np.exp(logp[:, :2])
        resid = np.broadcast_to((p - p_hat[:, :2])[..., None], cells.shape)
        grad = np.bincount(cells.ravel(), resid.ravel(), theta.size).reshape(-1, n) / counts
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite floor gradient at Newton step {steps}")
        if np.abs(grad).max() < 1e-8:
            return float(losses.mean()), steps
        w = p[:, :, None] * (np.eye(2) - p[:, None])
        w = np.broadcast_to(w[:, :, None, :, None], hess_cells.shape)
        hess = np.bincount(hess_cells.ravel(), w.ravel(), theta.size * n)
        hess = hess.reshape(-1, n, n) / counts[..., None]
        step = np.linalg.solve(hess + _RIDGE * np.eye(n), grad[..., None])[..., 0]
        decrement = np.sqrt(np.maximum((grad * step).sum(axis=1), 0.0))
        theta = theta - (step / (1.0 + decrement[:, None])).ravel()
    raise NumericalError(f"floor Newton solve passed its {_NEWTON_STEPS}-step bound")


def lower_bound_per_goal(dataset: Dataset) -> float:
    """Floor with a free value for every (agent, object) pair."""
    return _lower_bound(dataset, _GOAL_COLUMNS)[0]


def lower_bound_per_feature(dataset: Dataset) -> float:
    """Floor with each agent's values linear in the object features."""
    return _lower_bound(dataset, _FEATURE_COLUMNS)[0]


def latent_dim_sweep(
    dataset: Dataset,
    dims: list[int] | None = None,
    config: FitConfig | None = None,
) -> list[FitResult]:
    """Fit the full variant at each latent dimension; one result per entry
    of ``dims``, in order. The fits run in lockstep (``_fit_models``)."""
    dims = list(dims) if dims is not None else list(range(1, 33))
    if not dims:
        raise ValidationError("no dimensions to sweep")
    if min(dims) < 1:
        raise ValidationError(f"latent dims must be at least 1, got {min(dims)}")
    config = config or FitConfig()
    prep = _Prepared(dataset, ModelVariant.FULL)
    rows = np.arange(prep.n_records)
    return _fit_models(prep, config, [(d, rows) for d in dims])

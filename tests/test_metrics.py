import math
from fractions import Fraction

import numpy as np
import pytest

from goalgen.errors import NumericalError, ValidationError
from goalgen.metrics import (
    DIRECTIONAL_GAP_THRESHOLD,
    MetricMode,
    brier_score,
    compute_metrics,
    kl_divergence,
    total_variation,
)


def dist(a, b, n):
    return (a, b, n)


def test_identity_metrics_are_zero():
    obs = [dist(0.7, 0.2, 0.1), dist(0.2, 0.5, 0.3)]
    report = compute_metrics(obs, obs, MetricMode.THREE_WAY)
    assert report.kl == 0.0
    assert report.tv == 0.0
    assert report.brier == 0.0
    assert report.directional_accuracy == 1.0
    assert report.n_directional == 2


def test_point_mass_vs_uniform():
    pred = [dist(1 / 3, 1 / 3, 1 / 3)]
    obs = [dist(1.0, 0.0, 0.0)]
    report = compute_metrics(pred, obs, MetricMode.THREE_WAY)
    assert report.tv == pytest.approx(2 / 3)
    assert report.brier == pytest.approx(0.2222, abs=5e-5)
    assert report.kl == pytest.approx(math.log(3))


def test_directional_threshold_excludes_small_gaps():
    # observed two-way gap 0.08 < 0.10: excluded
    obs = [dist(0.54, 0.46, 0.0)]
    pred = [dist(0.2, 0.7, 0.1)]
    report = compute_metrics(pred, obs, MetricMode.THREE_WAY)
    assert report.n_directional == 0
    # gap exactly 0.10: included, also where the float gap rounds below 0.10
    for row in [
        (0.55, 0.45, 0.0),
        (0.11, 0.09, 0.80),
        (0.22, 0.18, 0.60),
        (0.33, 0.27, 0.40),
    ]:
        report = compute_metrics(pred, [dist(*row)], MetricMode.THREE_WAY)
        assert report.n_directional == 1, row
        assert report.directional_accuracy == 0.0


def test_directional_gap_measured_after_renormalisation():
    # raw gap 0.05 but two-way gap 0.05/0.15 = 1/3: included
    obs = [dist(0.10, 0.05, 0.85)]
    pred = [dist(0.5, 0.3, 0.2)]
    report = compute_metrics(pred, obs, MetricMode.THREE_WAY)
    assert report.n_directional == 1
    assert report.directional_accuracy == 1.0


def test_predicted_tie_counts_incorrect():
    obs = [dist(0.8, 0.1, 0.1)]
    pred = [dist(0.45, 0.45, 0.1)]
    report = compute_metrics(pred, obs, MetricMode.THREE_WAY)
    assert report.n_directional == 1
    assert report.directional_accuracy == 0.0


def test_two_way_skips_zero_mass_and_counts():
    obs = [dist(0.0, 0.0, 1.0), dist(0.6, 0.2, 0.2)]
    pred = [dist(0.3, 0.3, 0.4), dist(0.5, 0.25, 0.25)]
    report = compute_metrics(pred, obs, MetricMode.TWO_WAY)
    assert report.n_skipped == 1
    assert report.mode is MetricMode.TWO_WAY


def test_two_way_invariant_to_none_mass_scaling():
    pred = [dist(0.5, 0.3, 0.2)]
    obs_small_none = [dist(0.6, 0.3, 0.1)]
    obs_large_none = [dist(0.4, 0.2, 0.4)]  # same 2:1 goal ratio
    r1 = compute_metrics(pred, obs_small_none, MetricMode.TWO_WAY)
    r2 = compute_metrics(pred, obs_large_none, MetricMode.TWO_WAY)
    assert r1.kl == pytest.approx(r2.kl)
    assert r1.tv == pytest.approx(r2.tv)
    assert r1.brier == pytest.approx(r2.brier)


def test_directional_invariant_to_monotone_transform():
    obs = [dist(0.7, 0.1, 0.2), dist(0.1, 0.6, 0.3), dist(0.5, 0.2, 0.3)]
    pred_raw = [dist(0.5, 0.3, 0.2), dist(0.2, 0.5, 0.3), dist(0.15, 0.45, 0.4)]
    # squash predictions toward uniform: signs of the gaps are preserved
    pred_squashed = [
        dist(
            0.2 + 0.2 * (p[0] - p[1]),
            0.2,
            0.6 - 0.2 * (p[0] - p[1]),
        )
        for p in pred_raw
    ]
    r1 = compute_metrics(pred_raw, obs, MetricMode.THREE_WAY)
    r2 = compute_metrics(pred_squashed, obs, MetricMode.THREE_WAY)
    assert r1.directional_accuracy == r2.directional_accuracy
    assert r1.n_directional == r2.n_directional


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError, match="vs"):
        compute_metrics([dist(1, 0, 0)], [])


def test_empty_input_rejected():
    with pytest.raises(ValidationError):
        compute_metrics([], [])


def test_kl_handles_observed_zeros():
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
        math.log(2)
    )


def test_scalar_helpers_random_properties(rng):
    for _ in range(50):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        assert kl_divergence(p, q) >= 0.0
        assert 0.0 <= total_variation(p, q) <= 1.0
        assert 0.0 <= brier_score(p, q) <= 2.0 / 3.0
        assert kl_divergence(p, p) == pytest.approx(0.0)


# 1/10 exactly: the float 0.1 is a little more.
THRESHOLD = Fraction(str(DIRECTIONAL_GAP_THRESHOLD))


def exact_gap(row):
    """The two-way gap |a - b| / (a + b) of a row of counts over at most 100
    episodes, computed in exact fractions."""
    a, b = (Fraction(x).limit_denominator(100) for x in row[:2])
    return abs(a - b) / (a + b)


def scalar_metrics(predictions, observations, mode):
    """The per-record loop over (a, b, neither) rows: compute_metrics' oracle.

    Returns (kl, tv, brier, directional accuracy, n_directional, n_skipped).
    """

    def two_way(row):
        mass = row[0] + row[1]
        return None if mass <= 0 else np.array([row[0] / mass, row[1] / mass])

    kls, tvs, briers = [], [], []
    n_dir = n_correct = n_skipped = 0
    for pred, obs in zip(predictions.tolist(), observations.tolist()):
        obs2 = two_way(obs)
        if mode is MetricMode.THREE_WAY:
            q, p = np.array(obs), np.array(pred)
        else:
            if obs2 is None:
                n_skipped += 1
                continue
            q, p = obs2, two_way(pred)
            if p is None:
                raise NumericalError("prediction has zero goal mass in two-way mode")
        mask = q > 0
        with np.errstate(divide="ignore"):
            kls.append(float((q[mask] * (np.log(q[mask]) - np.log(p[mask]))).sum()))
        tvs.append(float(0.5 * np.abs(q - p).sum()))
        briers.append(float(((q - p) ** 2).mean()))
        if obs2 is not None and exact_gap(obs) >= THRESHOLD:
            n_dir += 1
            pred_sign = np.sign(pred[0] - pred[1])
            if pred_sign != 0 and pred_sign == np.sign(obs2[0] - obs2[1]):
                n_correct += 1
    if not kls:
        raise ValidationError("every example was skipped (zero goal mass)")
    accuracy = n_correct / n_dir if n_dir else 0.0
    return np.mean(kls), np.mean(tvs), np.mean(briers), accuracy, n_dir, n_skipped


def random_rows(rng, n, episodes):
    """Count-based distributions with zeros, ties and zero goal mass."""
    counts = rng.multinomial(episodes, rng.dirichlet(np.full(3, 0.4), size=n))
    return counts / episodes


@pytest.mark.parametrize("mode", list(MetricMode))
@pytest.mark.parametrize("episodes", [1, 2, 5, 100])
def test_vectorised_metrics_match_the_scalar_oracle(rng, mode, episodes):
    for _ in range(20):
        n = int(rng.integers(1, 60))
        obs = random_rows(rng, n, episodes)
        pred = rng.dirichlet(np.ones(3), size=n)
        pred[rng.random(n) < 0.2, 1] = 0.0  # predictions without b
        pred[rng.random(n) < 0.1] = [0.3, 0.3, 0.4]  # predicted ties
        pred /= pred.sum(axis=1, keepdims=True)
        try:
            want = scalar_metrics(pred, obs, mode)
        except ValidationError:
            with pytest.raises(ValidationError, match="skipped"):
                compute_metrics(pred, obs, mode)
            continue
        for given in ((pred, obs), (pred.tolist(), obs.tolist())):
            report = compute_metrics(*given, mode)
            assert report.kl == pytest.approx(want[0], rel=0, abs=1e-12)
            assert report.tv == pytest.approx(want[1], rel=0, abs=1e-12)
            assert report.brier == pytest.approx(want[2], rel=0, abs=1e-12)
            got = (report.directional_accuracy, report.n_directional, report.n_skipped)
            assert got == want[3:]


def test_two_way_zero_mass_prediction_raises():
    pred = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    obs = np.array([[0.5, 0.5, 0.0], [0.6, 0.4, 0.0]])
    with pytest.raises(NumericalError, match="zero goal mass"):
        compute_metrics(pred, obs, MetricMode.TWO_WAY)
    # the same prediction on an observation that two-way mode skips is fine
    obs[1] = [0.0, 0.0, 1.0]
    assert compute_metrics(pred, obs, MetricMode.TWO_WAY).n_skipped == 1


def test_every_example_skipped_rejected():
    with pytest.raises(ValidationError, match="skipped"):
        compute_metrics([dist(0.5, 0.5, 0.0)], [dist(0.0, 0.0, 1.0)], MetricMode.TWO_WAY)

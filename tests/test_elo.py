import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import population_dataset
from goalgen.cli import main
from goalgen.dataset import PreferenceRecord, save_dataset
from goalgen.elo import (
    CONVERGENCE_TOL,
    ELO_SCALE,
    GRADIENT_STEP,
    MAX_ITERATIONS,
    RIDGE,
    EloProblem,
    EloTable,
    PairwiseComparison,
    elo_holdout_validation,
    elo_predict,
    elo_table_to_csv,
    fit_elo,
    fit_elo_many,
    holdout_folds,
    marginalised_elo,
    score_holdout,
    to_pairwise,
)
from goalgen.errors import NumericalError, ValidationError
from goalgen.features import Colour, ObjectFeatures, Shape, enumerate_objects

RC = ObjectFeatures(Colour.RED, Shape.CROSS)
BD = ObjectFeatures(Colour.BLUE, Shape.DIAMOND)


def record(count_a, count_b, count_none, episodes=100, a=RC, b=BD, pid="agent"):
    return PreferenceRecord(pid, a, b, count_a, count_b, count_none, episodes)


def test_to_pairwise_no_null_mass():
    a_vs_b, a_vs_none, b_vs_none = to_pairwise(record(73, 27, 0))
    assert a_vs_b.win_rate_a == pytest.approx(0.73)
    assert a_vs_b.weight == pytest.approx(1.0)
    assert a_vs_none.win_rate_a == 1.0
    assert a_vs_none.weight == pytest.approx(0.73)
    assert b_vs_none.weight == pytest.approx(0.27)


def test_to_pairwise_even_split():
    _, a_vs_none, _ = to_pairwise(record(50, 50, 0))
    assert a_vs_none.win_rate_a == 1.0
    assert a_vs_none.weight == pytest.approx(0.5)


def test_to_pairwise_zero_mass_comparison():
    a_vs_b, a_vs_none, b_vs_none = to_pairwise(record(0, 0, 100))
    assert a_vs_b.weight == 0.0
    assert a_vs_none.win_rate_a == 0.0
    assert b_vs_none.weight == pytest.approx(1.0)


def test_masked_rates_renormalise():
    a_vs_b, a_vs_none, b_vs_none = to_pairwise(record(50, 30, 20))
    assert a_vs_b.win_rate_a == pytest.approx(50 / 80)
    assert a_vs_none.win_rate_a == pytest.approx(50 / 70)
    assert b_vs_none.win_rate_a == pytest.approx(30 / 50)


def test_fit_symmetric_data_gives_equal_scores():
    comparisons = to_pairwise(record(40, 40, 20))
    table = fit_elo(comparisons)
    assert table.scores[RC] == pytest.approx(table.scores[BD], abs=1e-6)


def test_fit_single_comparison_recovers_400_gap():
    comparisons = [PairwiseComparison(RC, BD, 10 / 11, 1.0)]
    table = fit_elo(comparisons + [PairwiseComparison(RC, None, 0.5, 1.0)])
    gap = table.scores[RC] - table.scores[BD]
    assert gap == pytest.approx(400.0, abs=2.0)


def test_anchoring_no_goal_at_zero():
    table = fit_elo(to_pairwise(record(60, 25, 15)))
    assert table.no_goal_score == 0.0
    # P(object > no-goal) is the link applied to the anchored score itself
    for obj in (RC, BD):
        expected = 1.0 / (1.0 + 10 ** (-table.scores[obj] / 400.0))
        assert elo_predict(table, obj, None) == pytest.approx(expected)


def test_duplicating_comparisons_leaves_fit_unchanged():
    # The likelihood argmax is duplication-invariant; the fixed 1e-8 ridge
    # breaks exactness by ~0.1 Elo in 240, hence the sub-Elo tolerance.
    comparisons = to_pairwise(record(60, 25, 15))
    t1 = fit_elo(comparisons)
    t2 = fit_elo(comparisons + comparisons)
    for obj in t1.scores:
        assert t1.scores[obj] == pytest.approx(t2.scores[obj], abs=0.5)


def test_elo_predict_values():
    table = EloTable(scores={RC: 400.0, BD: 0.0}, no_goal_score=0.0)
    assert elo_predict(table, RC, BD) == pytest.approx(10 / 11)
    assert elo_predict(table, BD, RC) == pytest.approx(1 / 11)
    assert elo_predict(table, BD, None) == pytest.approx(0.5)


def test_elo_predict_unknown_competitor():
    table = EloTable(scores={RC: 0.0})
    with pytest.raises(ValidationError, match="unknown"):
        elo_predict(table, RC, BD)


def test_logit_additivity_exact():
    table = EloTable(scores={RC: 137.0, BD: -88.0}, no_goal_score=0.0)

    def logit10(p):
        return 400.0 * math.log10(p / (1 - p))

    pab = elo_predict(table, RC, BD)
    pbn = elo_predict(table, BD, None)
    pan = elo_predict(table, RC, None)
    assert logit10(pab) + logit10(pbn) == pytest.approx(logit10(pan), abs=1e-9)


def test_marginalised_constant_table():
    table = EloTable(scores={o: 42.0 for o in enumerate_objects()})
    for feature in ("black", "ring", "cross", "green"):
        assert marginalised_elo(table, feature) == pytest.approx(42.0)


def test_marginalised_cross_block():
    scores = {
        o: 100.0 if o.shape is Shape.CROSS else 0.0 for o in enumerate_objects()
    }
    table = EloTable(scores=scores)
    assert marginalised_elo(table, "cross") == pytest.approx(100.0)
    assert marginalised_elo(table, "ring") == pytest.approx(0.0)


def test_marginalised_colours_average_to_global_mean():
    rng = np.random.default_rng(3)
    table = EloTable(
        scores={o: float(rng.normal(0, 120)) for o in enumerate_objects()}
    )
    colour_means = [
        marginalised_elo(table, f) for f in ("black", "blue", "green", "red")
    ]
    global_mean = np.mean(list(table.scores.values()))
    # each colour covers 6 objects, so the colour means average to the global mean
    assert np.mean(colour_means) == pytest.approx(global_mean)


def test_marginalised_unknown_feature():
    table = EloTable(scores={RC: 0.0})
    with pytest.raises(ValidationError):
        marginalised_elo(table, "purple")


def _boltzmann_records(rng, scores, episodes=10_000, pid="agent"):
    """Three-way counts from softmax([kVa, kVb, 0]) for every object pair."""
    k = math.log(10) / 400.0
    objects = enumerate_objects()
    records = []
    for i in range(len(objects)):
        for j in range(i + 1, len(objects)):
            a, b = objects[i], objects[j]
            logits = np.array([k * scores[a], k * scores[b], 0.0])
            p = np.exp(logits - logits.max())
            p /= p.sum()
            c = rng.multinomial(episodes, p)
            records.append(
                PreferenceRecord(pid, a, b, int(c[0]), int(c[1]), int(c[2]), episodes)
            )
    return records


def test_holdout_on_boltzmann_data():
    rng = np.random.default_rng(17)
    scores = {o: float(rng.uniform(-350, 350)) for o in enumerate_objects()}
    records = _boltzmann_records(rng, scores)
    report = elo_holdout_validation(records, k=4, rng_seed=1)
    assert report.directional_accuracy > 0.95
    assert report.kl < 0.02


def test_holdout_near_perfect_when_data_matches():
    rng = np.random.default_rng(23)
    scores = {o: float(rng.uniform(-200, 200)) for o in enumerate_objects()}
    records = _boltzmann_records(rng, scores, episodes=100_000)
    report = elo_holdout_validation(records, k=4, rng_seed=2)
    assert report.kl < 1e-3


def test_holdout_requires_enough_records():
    records = [record(50, 30, 20)]
    with pytest.raises(ValidationError):
        elo_holdout_validation(records, k=4)


def test_fit_requires_positive_weight():
    with pytest.raises(ValidationError):
        fit_elo([PairwiseComparison(RC, BD, 0.5, 0.0)])


def test_table_csv_round(tmp_path):
    table = EloTable(scores={RC: 120.5, BD: -33.25})
    path = tmp_path / "elo.csv"
    elo_table_to_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "object_colour,object_shape,score"
    assert lines[-1].startswith("no-goal,no-goal,")
    assert len(lines) == 4


def serial_fit_elo(
    comparisons,
    step=GRADIENT_STEP,
    tol=CONVERGENCE_TOL,
    max_iterations=MAX_ITERATIONS,
):
    """The one-problem gradient descent that fit_elo_many runs in lockstep,
    one term per comparison: the oracle for the merged, batched solver."""
    active = [c for c in comparisons if c.weight > 0]
    competitors = {c.competitor_a for c in active} | {c.competitor_b for c in active}
    objects = sorted(
        competitors - {None}, key=lambda o: (o.colour.value, o.shape.value)
    )
    index = {obj: i for i, obj in enumerate(objects)}
    index[None] = len(objects)
    n = len(objects) + 1

    ia = np.array([index[c.competitor_a] for c in active])
    ib = np.array([index[c.competitor_b] for c in active])
    rate = np.array([c.win_rate_a for c in active])
    weight = np.array([c.weight for c in active])

    scores = np.zeros(n)
    for iteration in range(1, max_iterations + 1):
        gap = scores[ia] - scores[ib]
        p = 1.0 / (1.0 + np.exp(-ELO_SCALE * gap))
        resid = weight * ELO_SCALE * (rate - p)
        grad = (
            2.0 * RIDGE * scores
            - np.bincount(ia, weights=resid, minlength=n)
            + np.bincount(ib, weights=resid, minlength=n)
        )
        delta = step * grad
        scores -= delta
        if np.abs(delta).max() < tol:
            break
    else:
        raise NumericalError("serial Elo fit did not converge")

    anchored = scores - scores[index[None]]
    return EloTable(
        scores={obj: float(anchored[index[obj]]) for obj in objects},
        iterations=iteration,
        final_step=float(np.abs(delta).max()),
    )


def comparisons_of(records):
    return [c for rec in records for c in to_pairwise(rec)]


def fit_problems(dataset, k=4, rng_seed=0):
    """Each pipeline's full comparisons and its K training folds, by name."""
    problems = {}
    for pid in sorted(dataset.pipelines):
        records = dataset.records_for(pid)
        problems[f"pipeline {pid}"] = comparisons_of(records)
        for i, (train, _) in enumerate(holdout_folds(records, k, rng_seed)):
            problems[f"pipeline {pid} (fold {i})"] = comparisons_of(train)
    return problems


def assert_matches_serial(problems):
    """fit_elo_many against the serial oracle, problem by problem."""
    tables = fit_elo_many(
        {key: EloProblem.from_comparisons(c) for key, c in problems.items()}
    )
    assert list(tables) == list(problems)
    for key, comparisons in problems.items():
        want, got = serial_fit_elo(comparisons), tables[key]
        assert got.iterations == want.iterations, key
        assert got.scores.keys() == want.scores.keys(), key
        for obj, score in want.scores.items():
            assert got.scores[obj] == pytest.approx(score, abs=1e-9), (key, obj)
        assert got.no_goal_score == 0.0
        assert got.final_step < CONVERGENCE_TOL
    return tables


def test_lockstep_matches_serial_on_population_fits_and_folds():
    tables = assert_matches_serial(fit_problems(population_dataset(seed=3), rng_seed=3))
    assert len(tables) == 4 * 5
    # the problems stop at different iterations, so some leave early
    assert len({t.iterations for t in tables.values()}) > 1


def test_lockstep_matches_serial_on_folds_lacking_competitors():
    # A dense block of 10 objects plus one object seen in a single record:
    # the fold that holds that record out has no score for the object.
    objects = enumerate_objects()
    records = [
        r
        for r in population_dataset(seed=5, n_pipelines=1).records
        if {r.object_a, r.object_b} <= set(objects[:10])
        or {r.object_a, r.object_b} == {objects[0], objects[10]}
    ]
    folds = holdout_folds(records, k=2)
    problems = {"full": comparisons_of(records)}
    problems.update({i: comparisons_of(train) for i, (train, _) in enumerate(folds)})
    tables = assert_matches_serial(problems)
    assert sorted(len(t.scores) for t in tables.values()) == [10, 11, 11]


def test_lockstep_matches_serial_on_mixed_fast_and_slow_problems():
    problems = {
        "population": comparisons_of(population_dataset(seed=5, n_pipelines=1).records),
        "symmetric": to_pairwise(record(40, 40, 20)),
        "single": [PairwiseComparison(RC, BD, 0.7, 1.0)],
    }
    tables = assert_matches_serial(problems)
    iterations = [t.iterations for t in tables.values()]
    assert max(iterations) > 5 * min(iterations)


def test_single_comparison_problem_alone():
    single = {"single": [PairwiseComparison(RC, None, 0.25, 2.0)]}
    table = assert_matches_serial(single)["single"]
    # P(RC beats no-goal) = 0.25 puts RC 400 log10(3) below the anchor; the
    # first-order descent stops about 0.2 points short of it.
    assert table.scores[RC] == pytest.approx(-400 * math.log10(3), abs=0.5)


def test_merging_sums_comparisons_per_ordered_pair():
    records = population_dataset(seed=5, n_pipelines=1).records
    comparisons = comparisons_of(records)
    problem = EloProblem.from_comparisons(iter(comparisons))
    assert len(comparisons) == 3 * 276
    # 276 object pairs plus each of the 24 objects against no-goal
    assert len(problem.weight) == 276 + 24
    assert problem.weight.sum() == pytest.approx(sum(c.weight for c in comparisons))
    assert problem.weighted_rate.sum() == pytest.approx(
        sum(c.weight * c.win_rate_a for c in comparisons)
    )


def test_fit_elo_many_of_no_problems_is_empty():
    assert fit_elo_many({}) == {}


def test_non_convergence_names_the_problem_that_failed():
    population = comparisons_of(population_dataset(seed=5, n_pipelines=1).records)
    cap = serial_fit_elo(population).iterations
    problems = {
        "pipeline p00": EloProblem.from_comparisons(population),
        "pipeline p01 (fold 2)": EloProblem.from_comparisons(
            to_pairwise(record(40, 40, 20))
        ),
    }
    with pytest.raises(NumericalError) as info:
        fit_elo_many(problems, max_iterations=cap)
    message = str(info.value)
    assert message.startswith(
        f"Elo fit for pipeline p01 (fold 2) did not converge in {cap} iterations"
    )
    assert "gradient norm" in message
    with pytest.raises(NumericalError, match=r"^Elo fit did not converge in 3 "):
        fit_elo(to_pairwise(record(90, 5, 5)), max_iterations=3)


def test_holdout_report_is_unchanged_by_lockstep_folds():
    records = list(population_dataset(seed=3, n_pipelines=1).records)
    folds = holdout_folds(records, 4, rng_seed=1)
    tables = [serial_fit_elo(comparisons_of(train)) for train, _ in folds]
    report = elo_holdout_validation(records, k=4, rng_seed=1)
    want = score_holdout([test for _, test in folds], tables)
    for field in ("kl", "tv", "brier", "directional_accuracy"):
        assert getattr(report, field) == pytest.approx(getattr(want, field), abs=1e-12)
    assert report.n_directional == want.n_directional


REFERENCE = Path(__file__).parent / "data" / "elo_cli_reference.json"


def read_csv(text):
    return list(csv.reader(text.splitlines()))


def test_elo_command_output_matches_recorded_values(tmp_path):
    # Recorded with the serial one-fit-per-call solver on this dataset.
    data = tmp_path / "population.jsonl"
    save_dataset(population_dataset(seed=7, n_pipelines=2), data)
    out = tmp_path / "elo"
    assert main(["elo", "--data", str(data), "--out", str(out), "--seed", "3"]) == 0
    reference = json.loads(REFERENCE.read_text())
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(reference)
    for name, text in reference.items():
        got, want = read_csv((out / name).read_text()), read_csv(text)
        assert len(got) == len(want) and got[0] == want[0], name
        for got_row, want_row in zip(got[1:], want[1:]):
            assert got_row[0] == want_row[0], name
            for g, w in zip(got_row[1:], want_row[1:]):
                if w.replace("-", "").isalpha():
                    assert g == w, name
                else:
                    assert float(g) == pytest.approx(float(w), abs=1e-6), name

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import population_dataset
from goalgen import elo
from goalgen.cli import main
from goalgen.dataset import (
    Dataset,
    PreferenceRecord,
    TrainingPipeline,
    TrainingStage,
    save_dataset,
    seeded_folds,
)
from goalgen.elo import (
    CONVERGENCE_TOL,
    ELO_SCALE,
    GRADIENT_STEP,
    MAX_ITERATIONS,
    RIDGE,
    EloProblem,
    EloTable,
    RecordComparisons,
    _COMPETITORS,
    elo_by_agent,
    elo_holdout_validation,
    elo_predict,
    elo_table_to_csv,
    fit_elo,
    fit_elo_many,
    holdout_folds,
    marginalised_elo,
    score_holdout,
)
from goalgen.errors import NumericalError, ValidationError
from goalgen.features import Colour, ObjectFeatures, Shape, enumerate_objects
from goalgen.harness import kfold_partition

RC = ObjectFeatures(Colour.RED, Shape.CROSS)
BD = ObjectFeatures(Colour.BLUE, Shape.DIAMOND)


def record(count_a, count_b, count_none, episodes=100, a=RC, b=BD, pid="agent"):
    return PreferenceRecord(pid, a, b, count_a, count_b, count_none, episodes)


def comparisons_of_record(count_a, count_b, count_none):
    """RecordComparisons' (a, b), (a, no goal), (b, no goal) columns of one
    record: competitor a, competitor b, win rate of a and weight."""
    rc = RecordComparisons([record(count_a, count_b, count_none)])
    a = [_COMPETITORS[c] for c in rc.code_a[0]]
    b = [_COMPETITORS[c] for c in rc.code_b[0]]
    return list(zip(a, b, rc.rate[0].tolist(), rc.weight[0].tolist()))


def test_record_comparisons_no_null_mass():
    a_vs_b, a_vs_none, b_vs_none = comparisons_of_record(73, 27, 0)
    assert [c[:2] for c in (a_vs_b, a_vs_none, b_vs_none)] == [
        (RC, BD),
        (RC, None),
        (BD, None),
    ]
    assert a_vs_b[2] == pytest.approx(0.73)
    assert a_vs_b[3] == pytest.approx(1.0)
    assert a_vs_none[2] == 1.0
    assert a_vs_none[3] == pytest.approx(0.73)
    assert b_vs_none[3] == pytest.approx(0.27)


def test_record_comparisons_even_split():
    _, a_vs_none, _ = comparisons_of_record(50, 50, 0)
    assert a_vs_none[2] == 1.0
    assert a_vs_none[3] == pytest.approx(0.5)


def test_record_comparisons_zero_mass_comparison():
    a_vs_b, a_vs_none, b_vs_none = comparisons_of_record(0, 0, 100)
    assert a_vs_b[2:] == (0.5, 0.0)
    assert a_vs_none[2] == 0.0
    assert b_vs_none[3] == pytest.approx(1.0)


def test_masked_rates_renormalise():
    a_vs_b, a_vs_none, b_vs_none = comparisons_of_record(50, 30, 20)
    assert a_vs_b[2] == pytest.approx(50 / 80)
    assert a_vs_none[2] == pytest.approx(50 / 70)
    assert b_vs_none[2] == pytest.approx(30 / 50)


def test_fit_symmetric_data_gives_equal_scores():
    table = fit_elo([record(40, 40, 20)])
    assert table.scores[RC] == pytest.approx(table.scores[BD], abs=1e-6)


def test_fit_single_comparison_recovers_400_gap():
    # 50:5 between the objects is 10:1, and 50:45 and 5:45 against no goal
    # agree with it, so the optimum puts RC exactly 400 points above BD.
    table = fit_elo([record(50, 5, 45)])
    gap = table.scores[RC] - table.scores[BD]
    assert gap == pytest.approx(400.0, abs=2.0)


def test_anchoring_no_goal_at_zero():
    table = fit_elo([record(60, 25, 15)])
    assert table.no_goal_score == 0.0
    # P(object > no-goal) is the link applied to the anchored score itself
    for obj in (RC, BD):
        expected = 1.0 / (1.0 + 10 ** (-table.scores[obj] / 400.0))
        assert elo_predict(table, obj, None) == pytest.approx(expected)


def test_duplicating_comparisons_leaves_fit_unchanged():
    # The likelihood argmax is duplication-invariant; the fixed 1e-8 ridge
    # breaks exactness by ~0.1 Elo in 240, hence the sub-Elo tolerance.
    records = [record(60, 25, 15)]
    t1 = fit_elo(records)
    t2 = fit_elo(records + records)
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
    # Every record has positive-weight comparisons, so only no records lack them.
    with pytest.raises(ValidationError, match="no positive-weight"):
        fit_elo([])


def test_table_csv_round(tmp_path):
    table = EloTable(scores={RC: 120.5, BD: -33.25})
    path = tmp_path / "elo.csv"
    elo_table_to_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "object_colour,object_shape,score"
    assert lines[-1].startswith("no-goal,no-goal,")
    assert len(lines) == 4


def masked_comparisons(records):
    """Each record's (a, b), (a, no goal) and (b, no goal) comparisons, one
    by one, as (competitor a, competitor b, win rate of a, weight)."""
    comparisons = []
    for r in records:
        p = {
            r.object_a: r.count_a / r.episodes,
            r.object_b: r.count_b / r.episodes,
            None: r.count_none / r.episodes,
        }
        for a, b in ((r.object_a, r.object_b), (r.object_a, None), (r.object_b, None)):
            weight = p[a] + p[b]
            comparisons.append((a, b, p[a] / weight if weight > 0 else 0.5, weight))
    return comparisons


def serial_fit_elo(
    comparisons,
    step=GRADIENT_STEP,
    tol=CONVERGENCE_TOL,
    max_iterations=MAX_ITERATIONS,
):
    """The one-problem gradient descent that fit_elo_many runs in lockstep,
    one term per comparison: the oracle for the merged, batched solver."""
    active = [c for c in comparisons if c[3] > 0]
    competitors = {c[0] for c in active} | {c[1] for c in active}
    objects = sorted(
        competitors - {None}, key=lambda o: (o.colour.value, o.shape.value)
    )
    index = {obj: i for i, obj in enumerate(objects)}
    index[None] = len(objects)
    n = len(objects) + 1

    ia = np.array([index[c[0]] for c in active])
    ib = np.array([index[c[1]] for c in active])
    rate = np.array([c[2] for c in active])
    weight = np.array([c[3] for c in active])

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


def fit_problems(dataset, k=4, rng_seed=0):
    """Each pipeline's full records and its K training folds, by name."""
    problems = {}
    for pid in sorted(dataset.pipelines):
        records = dataset.records_for(pid)
        problems[f"pipeline {pid}"] = records
        for i, (train, _) in enumerate(holdout_folds(len(records), k, rng_seed)):
            problems[f"pipeline {pid} (fold {i})"] = [records[j] for j in train]
    return problems


def assert_matches_table(got, want, key):
    assert got.iterations == want.iterations, key
    assert got.scores.keys() == want.scores.keys(), key
    for obj, score in want.scores.items():
        assert got.scores[obj] == pytest.approx(score, abs=1e-9), (key, obj)
    assert got.no_goal_score == 0.0
    assert got.final_step < CONVERGENCE_TOL


def assert_matches_serial(problems):
    """fit_elo_many on each record list's merged problem against the serial
    oracle on its comparisons, problem by problem."""
    tables = fit_elo_many(
        {key: RecordComparisons(records).problem() for key, records in problems.items()}
    )
    assert list(tables) == list(problems)
    for key, records in problems.items():
        want = serial_fit_elo(masked_comparisons(records))
        assert_matches_table(tables[key], want, key)
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
    folds = holdout_folds(len(records), k=2)
    problems = {"full": records}
    problems.update({i: [records[j] for j in train] for i, (train, _) in enumerate(folds)})
    tables = assert_matches_serial(problems)
    assert sorted(len(t.scores) for t in tables.values()) == [10, 11, 11]


def test_lockstep_matches_serial_on_mixed_fast_and_slow_problems():
    problems = {
        "population": population_dataset(seed=5, n_pipelines=1).records,
        "symmetric": [record(40, 40, 20)],
        "lopsided": [record(60, 25, 15)],
    }
    tables = assert_matches_serial(problems)
    iterations = [t.iterations for t in tables.values()]
    assert max(iterations) > 5 * min(iterations)


def test_single_comparison_problem_alone():
    # RC against no goal only: slot 0 is RC, slot 1 the no-goal competitor.
    problem = EloProblem(
        (RC,), np.array([0]), np.array([1]), np.array([2.0]), np.array([0.5])
    )
    table = fit_elo_many({"single": problem})["single"]
    assert_matches_table(table, serial_fit_elo([(RC, None, 0.25, 2.0)]), "single")
    # P(RC beats no-goal) = 0.25 puts RC 400 log10(3) below the anchor; the
    # first-order descent stops about 0.2 points short of it.
    assert table.scores[RC] == pytest.approx(-400 * math.log10(3), abs=0.5)


def test_merging_sums_comparisons_per_ordered_pair():
    records = population_dataset(seed=5, n_pipelines=1).records
    comparisons = masked_comparisons(records)
    problem = RecordComparisons(records).problem()
    assert len(comparisons) == 3 * 276
    # 276 object pairs plus each of the 24 objects against no-goal
    assert len(problem.weight) == 276 + 24
    assert problem.weight.sum() == pytest.approx(sum(c[3] for c in comparisons))
    assert problem.weighted_rate.sum() == pytest.approx(
        sum(c[3] * c[2] for c in comparisons)
    )


def test_fit_elo_many_of_no_problems_is_empty():
    assert fit_elo_many({}) == {}


def test_non_convergence_names_the_problem_that_failed(monkeypatch):
    records = population_dataset(seed=5, n_pipelines=1).records
    cap = serial_fit_elo(masked_comparisons(records)).iterations
    problems = {
        "pipeline p00": RecordComparisons(records).problem(),
        "pipeline p01 (fold 2)": RecordComparisons([record(40, 40, 20)]).problem(),
    }
    monkeypatch.setattr(elo, "MAX_ITERATIONS", cap)
    with pytest.raises(NumericalError) as info:
        fit_elo_many(problems)
    message = str(info.value)
    assert message.startswith(
        f"Elo fit for pipeline p01 (fold 2) did not converge in {cap} iterations"
    )
    assert "gradient norm" in message
    monkeypatch.setattr(elo, "MAX_ITERATIONS", 3)
    with pytest.raises(NumericalError, match=r"^Elo fit did not converge in 3 "):
        fit_elo([record(90, 5, 5)])


def test_holdout_report_is_unchanged_by_lockstep_folds():
    records = list(population_dataset(seed=3, n_pipelines=1).records)
    splits = holdout_folds(len(records), 4, rng_seed=1)
    folds = [([records[j] for j in train], test) for train, test in splits]
    tables = [serial_fit_elo(masked_comparisons(train)) for train, _ in folds]
    report = elo_holdout_validation(records, k=4, rng_seed=1)
    comparisons = RecordComparisons(records)
    want = score_holdout(comparisons, [test for _, test in folds], tables)
    for field in ("kl", "tv", "brier", "directional_accuracy"):
        assert getattr(report, field) == pytest.approx(getattr(want, field), abs=1e-12)
    assert report.n_directional == want.n_directional


def test_holdout_accuracy_skips_folds_without_a_directional_pair():
    table = EloTable({RC: 100.0, BD: -100.0})
    comparisons = RecordComparisons([record(80, 20, 0), record(50, 50, 0)])
    held_out = [np.array([0]), np.array([1])]
    report = score_holdout(comparisons, held_out, [table, table])
    assert (report.directional_accuracy, report.n_directional) == (1.0, 1)
    report = score_holdout(comparisons, held_out[1:], [table])
    assert (report.directional_accuracy, report.n_directional) == (0.0, 0)


# Held-out positions of each fold, and pipeline fold ids, as computed
# before the two splitters shared ``seeded_folds``.
PINNED_HOLDOUT_FOLDS = {
    (7, 2, 0): [[4, 5, 2, 1], [0, 6, 3]],
    (10, 4, 3): [[9, 8, 6], [1, 0, 4], [2, 7], [5, 3]],
    (13, 5, 11): [[12, 5, 9], [10, 11, 8], [6, 4, 3], [2, 0], [1, 7]],
}
PINNED_PARTITIONS = {
    (5, 2, 0): [0, 0, 0, 1, 1],
    (9, 4, 3): [1, 3, 2, 0, 0, 0, 2, 1, 3],
    (12, 5, 11): [2, 3, 1, 2, 4, 1, 0, 4, 1, 3, 0, 0],
}


@pytest.mark.parametrize("n, k, seed", list(PINNED_HOLDOUT_FOLDS))
def test_holdout_folds_are_unchanged(n, k, seed):
    held = PINNED_HOLDOUT_FOLDS[n, k, seed]
    folds = holdout_folds(n, k, seed)
    assert [test.tolist() for _, test in folds] == held
    for i, (train, _) in enumerate(folds):
        # the other folds, in fold order: the order the merged sums take
        assert train.tolist() == [j for f, fold in enumerate(held) if f != i for j in fold]
    shared = seeded_folds(n, k, [0x656C6F, seed], "records")
    assert [fold.tolist() for fold in shared] == held


@pytest.mark.parametrize("n, k, seed", list(PINNED_PARTITIONS))
def test_kfold_partition_is_unchanged(n, k, seed):
    ids = [f"p{i:02d}" for i in range(n)]
    want = PINNED_PARTITIONS[n, k, seed]
    assert kfold_partition(ids[::-1], k, seed) == dict(zip(ids, want))
    shared = seeded_folds(n, k, [0x666F6C64, seed], "pipelines")
    assert [sorted(fold.tolist()) for fold in shared] == [
        [i for i, f in enumerate(want) if f == fold] for fold in range(k)
    ]


def test_splitters_keep_their_error_wording():
    with pytest.raises(ValidationError, match="^need at least 2 folds, got 1$"):
        holdout_folds(5, 1)
    with pytest.raises(ValidationError, match="^3 records cannot fill 4 folds$"):
        holdout_folds(3, 4)
    with pytest.raises(ValidationError, match="^need at least 2 folds, got 1$"):
        kfold_partition(["a", "b"], 1, 0)
    with pytest.raises(ValidationError, match="^2 pipelines cannot fill 3 folds$"):
        kfold_partition(["a", "b"], 3, 0)


def mixed_agents_dataset():
    """A full 276-pair agent, an agent with fewer records than 4 folds, and
    one whose four records share no object, so no fold scores its held-out
    record. The sparse agents' records sit among the full agent's."""
    objects = enumerate_objects()
    full = population_dataset(seed=11, n_pipelines=1)
    few = [
        record(50, 30, 20, a=objects[0], b=objects[1], pid="few"),
        record(20, 70, 10, a=objects[0], b=objects[2], pid="few"),
    ]
    disjoint = [
        record(60, 25, 15, a=objects[2 * i], b=objects[2 * i + 1], pid="disjoint")
        for i in range(4)
    ]
    records = list(full.records)
    for i, r in enumerate(few + disjoint):
        records.insert(40 * i + 7, r)
    stage = (TrainingStage(objects[3]),)
    pipelines = {
        **full.pipelines,
        "few": TrainingPipeline("few", stage),
        "disjoint": TrainingPipeline("disjoint", stage),
    }
    return Dataset(pipelines, tuple(records))


def rows_by_pipeline(records):
    rows = {}
    for i, r in enumerate(records):
        rows.setdefault(r.pipeline_id, []).append(i)
    return {pid: np.array(rows[pid]) for pid in sorted(rows)}


def test_elo_by_agent_matches_each_agent_alone():
    records = mixed_agents_dataset().records
    agent_rows = rows_by_pipeline(records)
    results = elo_by_agent(records, agent_rows, k=4, rng_seed=2)
    assert list(results) == ["disjoint", "few", "p000"]
    for pid, (table, report) in results.items():
        alone = [records[i] for i in agent_rows[pid]]
        assert table == fit_elo(alone), pid
        try:
            want = elo_holdout_validation(alone, k=4, rng_seed=2)
        except ValidationError as exc:
            want = exc
        if isinstance(want, ValidationError):
            assert isinstance(report, ValidationError) and str(report) == str(want)
        else:
            assert report == want, pid
    skipped = {pid: str(r) for pid, (_, r) in results.items() if isinstance(r, Exception)}
    assert skipped == {
        "disjoint": "no held-out record involved two competitors seen during fitting",
        "few": "2 records cannot fill 4 folds",
    }


def test_elo_by_agent_fits_every_problem_in_one_call(monkeypatch):
    calls = []

    def recording(problems):
        calls.append(list(problems))
        return fit_elo_many(problems)

    monkeypatch.setattr(elo, "fit_elo_many", recording)
    records = mixed_agents_dataset().records
    elo_by_agent(records, rows_by_pipeline(records), k=4, rng_seed=2)
    folds = [f" (fold {i})" for i in range(4)]
    assert calls == [
        ["pipeline disjoint", *(f"pipeline disjoint{f}" for f in folds)]
        + ["pipeline few", "pipeline p000", *(f"pipeline p000{f}" for f in folds)]
    ]
    # The holdout alone fits no problem of all the records.
    calls.clear()
    elo_holdout_validation([r for r in records if r.pipeline_id == "p000"], k=4)
    assert calls == [[f"fold {i}" for i in range(4)]]


def test_elo_command_skips_holdout_rows_as_before(tmp_path):
    data = tmp_path / "mixed.jsonl"
    save_dataset(mixed_agents_dataset(), data)
    out = tmp_path / "elo"
    assert main(["elo", "--data", str(data), "--out", str(out), "--seed", "2"]) == 0
    for pid in ("disjoint", "few", "p000"):
        assert (out / f"elo_{pid}.csv").exists()
    rows = read_csv((out / "elo_holdout.csv").read_text())
    assert [row[0] for row in rows] == ["pipeline_id", "p000"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["diagnostics"]) == ["disjoint", "few", "p000"]


REFERENCE = Path(__file__).parent / "data" / "elo_cli_reference.json"


def read_csv(text):
    return list(csv.reader(text.splitlines()))


def test_elo_command_output_matches_recorded_values(tmp_path):
    # Recorded with the serial one-fit-per-call solver on this dataset. The
    # holdout rows count the two exact 10-point gaps each agent has.
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

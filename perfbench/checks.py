"""Output checks. Each returns a list of failure messages, empty when fine.

The checks read the files the CLI wrote, not the program's in-memory
state, so a corrupted output is caught the same way a wrong one is.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from goalgen import enumerate_objects, load_dataset
from goalgen.agent import evaluate_preferences

# Gates against the recorded values of the shipped seeds.
LOSS_TOL = 1e-9
ELO_TOL = 1e-6
FLOOR_TOL = 1e-6
# The CLI prints Elo scores and sweep losses with six decimals; two
# roundings of at most half a unit each separate two printed values.
PRINT_TOL = 1e-6
# Convergence slack of the floor solvers when ordering the floors.
ORDER_TOL = 1e-6
N_OBJECTS = len(enumerate_objects())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _object_key(data) -> tuple[str, str]:
    return (data["colour"], data["shape"])


def read_tallies(path: Path) -> tuple[dict, list[dict]]:
    """Header and records of a preference file, parsed without goalgen."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def check_tallies(path: Path, agents: list[str], n_pairs: int, episodes: int) -> list[str]:
    """Counts sum to episodes and each agent has n_pairs distinct pairs."""
    try:
        header, records = read_tallies(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    errors = []
    if sorted(header.get("pipelines", {})) != sorted(agents):
        errors.append(f"{path.name}: header agents {sorted(header.get('pipelines', {}))}")
    pairs: dict[str, set] = {pid: set() for pid in agents}
    for i, rec in enumerate(records):
        counts = rec.get("counts")
        if (
            not isinstance(counts, list)
            or len(counts) != 3
            or any(not isinstance(c, int) or c < 0 for c in counts)
            or sum(counts) != rec.get("episodes")
            or rec.get("episodes") != episodes
        ):
            errors.append(f"record {i}: counts {counts} vs episodes {rec.get('episodes')}")
            continue
        pairs.setdefault(rec.get("pipeline_id"), set()).add(
            (_object_key(rec["a"]), _object_key(rec["b"]))
        )
    for pid, seen in pairs.items():
        if len(seen) != n_pairs:
            errors.append(f"agent {pid!r}: {len(seen)} pairs, expected {n_pairs}")
    return errors


def check_swapped(
    path: Path, policies: dict, n_sample: int, episodes: int, seed: int, wall_prob: float
) -> list[str]:
    """Re-evaluating sampled pairs swapped must give exactly swapped counts."""
    dataset = load_dataset(path)
    rng = np.random.default_rng([0x73776170, seed])
    errors = []
    for pid in sorted(policies):
        records = dataset.records_for(pid)
        for j in rng.choice(len(records), size=min(n_sample, len(records)), replace=False):
            rec = records[j]
            (again,) = evaluate_preferences(
                policies[pid],
                [(rec.object_b, rec.object_a)],
                episodes_per_pair=episodes,
                rng_seed=seed,
                pipeline_id=pid,
                wall_prob=wall_prob,
            )
            got = (again.count_b, again.count_a, again.count_none)
            want = (rec.count_a, rec.count_b, rec.count_none)
            if got != want:
                errors.append(
                    f"agent {pid!r} pair ({rec.object_a.name}, {rec.object_b.name}): "
                    f"swapped counts {got} != {want}"
                )
    return errors


def read_elo(out: Path, agents: list[str]) -> tuple[dict[str, list[float]], list[str]]:
    """Scores per agent in file order (no-goal row last) and any errors."""
    scores, errors = {}, []
    for pid in agents:
        path = out / f"elo_{pid}.csv"
        try:
            with path.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            values = [float(r["score"]) for r in rows]
        except (OSError, KeyError, ValueError) as exc:
            errors.append(f"{path.name}: unreadable ({exc})")
            continue
        if len(values) != N_OBJECTS + 1 or not all(map(math.isfinite, values)):
            errors.append(f"{path.name}: {len(values)} rows or non-finite scores")
        elif rows[-1]["object_colour"] != "no-goal" or values[-1] != 0.0:
            errors.append(f"{path.name}: no-goal row is not anchored at 0")
        scores[pid] = values
    try:
        n_holdout = len((out / "elo_holdout.csv").read_text().splitlines()) - 1
    except OSError:
        n_holdout = 0
    if n_holdout != len(agents):
        errors.append(f"elo_holdout.csv: {n_holdout} agents, expected {len(agents)}")
    return scores, errors


def read_fit(out: Path, n_records: int) -> tuple[dict, list[str]]:
    try:
        report = json.loads((out / "fit_report.json").read_text())
    except (OSError, ValueError) as exc:
        return {}, [f"fit_report.json: unreadable ({exc})"]
    loss = report.get("train_loss")
    errors = []
    if not (isinstance(loss, float) and math.isfinite(loss) and loss >= 0.0):
        errors.append(f"fit: train loss {loss} is not a finite mean KL")
    if report.get("n_examples") != n_records:
        errors.append(f"fit: {report.get('n_examples')} examples, expected {n_records}")
    return report, errors


def read_transfer(out: Path, n_train: int, n_eval: int) -> tuple[dict, list[str]]:
    try:
        report = json.loads((out / "transfer_report.json").read_text())
        metric_rows = (out / "metrics.csv").read_text().splitlines()
    except (OSError, ValueError) as exc:
        return {}, [f"eval: unreadable output ({exc})"]
    errors = []
    if (report.get("n_train_pipelines"), report.get("n_eval_pipelines")) != (n_train, n_eval):
        errors.append(f"eval: split {report.get('n_train_pipelines')}/{report.get('n_eval_pipelines')}")
    if not math.isfinite(report.get("eval_loss", math.nan)):
        errors.append(f"eval: eval loss {report.get('eval_loss')}")
    if len(metric_rows) != 3:
        errors.append(f"eval: metrics.csv has {len(metric_rows)} lines, expected 3")
    return report, errors


def read_sweep(out: Path, dims: list[int]) -> tuple[list[list[float]], list[str]]:
    try:
        with (out / "sweep.csv").open(newline="") as fh:
            rows = [[int(r["d"]), float(r["loss"])] for r in csv.DictReader(fh)]
    except (OSError, KeyError, ValueError) as exc:
        return [], [f"sweep.csv: unreadable ({exc})"]
    if [d for d, _ in rows] != list(dims) or not all(math.isfinite(l) for _, l in rows):
        return rows, [f"sweep.csv: rows {rows} for dims {list(dims)}"]
    return rows, []


def check_floor_order(floors: dict, train_loss: float, uniform: float) -> list[str]:
    """per-goal <= per-feature <= full-fit train loss < uniform baseline.

    Holds because the full model's values are linear in the features, so
    the per-feature floor minimises over a superset of what it can reach.
    """
    goal, feature = floors["floor_goal"], floors["floor_feature"]
    if goal <= feature + ORDER_TOL and feature <= train_loss + ORDER_TOL and train_loss < uniform:
        return []
    return [f"floors: goal {goal} <= feature {feature} <= fit {train_loss} < uniform {uniform} fails"]


def compare(found: dict, reference: dict) -> list[str]:
    """Recorded values of a shipped seed against this run's values."""
    errors = []
    for key, want in reference.items():
        got = found.get(key)
        if key == "sha256":
            ok = got == want
        elif key == "elo":
            ok = isinstance(got, dict) and sorted(got) == sorted(want) and all(
                len(got[pid]) == len(want[pid])
                and all(abs(a - b) <= ELO_TOL + PRINT_TOL for a, b in zip(got[pid], want[pid]))
                for pid in want
            )
        elif key == "sweep":
            ok = got is not None and len(got) == len(want) and all(
                g[0] == w[0] and abs(g[1] - w[1]) <= LOSS_TOL + PRINT_TOL for g, w in zip(got, want)
            )
        else:
            tol = FLOOR_TOL if key.startswith("floor") else LOSS_TOL
            ok = got is not None and abs(got - want) <= tol
        if not ok:
            errors.append(f"{key}: {got!r} differs from recorded {want!r}")
    return errors

"""Tiny-size runs of every workload print every metric with its unit."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

BENCH = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
# Per workload, the end-to-end metrics the detail block must carry.
COMMAND_METRICS = {
    "desk": {"gen_data_s", "fit_s", "eval_s"},
    "desk-train": {"gen_data_s"},
    "population": {"elo_s", "fit_s", "eval_s", "sweep_s", "floors_s"},
}
COMMON = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB", "fail_ratio": "failed/attempted"}
TINY = {
    "desk": dict(episodes_per_stage=5, eval_episodes=1, max_pairs=12),
    "desk-train": dict(n_stages=2, episodes_per_stage=10, eval_episodes=2),
    "population": dict(n_pipelines=2, sweep_dims=(1, 24)),
}


def test_contract_lists_match_the_code():
    assert [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        n: w.why for n, w in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    raw = run.measure(w, seed=0, seconds=0.0, trace=trace, workdir=tmp_path, reference=None)
    assert raw["passes"] == 1 and raw["failed"] == 0, raw["failures"]
    detail = run.end_to_end(raw, import_s=0.5)
    expected = {**COMMON, **{m: "s" for m in COMMAND_METRICS[name]}}
    assert {k: unit for k, (_, unit) in detail.items()} == expected
    assert all(value > 0 for k, (value, _) in detail.items() if k != "fail_ratio")
    if trace:
        assert set(raw["layers"]) == {n for n, _ in layers.PER_LAYER}
        if name == "population":
            assert raw["layers"]["maze.generate.calls"] == 0
            assert raw["layers"]["fitting.sweep_fit_s.d24"] > 0
        else:
            assert raw["layers"]["maze.generate.calls"] > 0
            assert raw["layers"]["agent.eval.episodes_per_s"] > 0


def test_reference_mismatch_fails_the_run(tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS["desk-train"], **TINY["desk-train"])
    raw = run.measure(w, 0, 0.0, False, tmp_path, reference={"sha256": "0" * 64})
    assert raw["failed"] == 1 and "sha256" in raw["failures"][0]


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

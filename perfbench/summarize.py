"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/summarize.py --workloads desk,population --seeds 1-10 \
        --seconds 38 --out perfbench-summary.json

Runs perfbench/run.py once per (workload, seed), one after another, and
reports for every metric the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, with quartiles
as statistics.quantiles(values, n=4) gives them. End-to-end metrics come
from the untraced runs; --trace 1 summarises the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(final-line result, detail block) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    detail = next(json.loads(l)["detail"] for l in lines if l.startswith('{"detail"'))
    return json.loads(lines[-1]), detail


def spread(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4)
    mid = median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid if mid else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="desk,desk-train,population")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    summary = {}
    environment = None
    for workload in args.workloads.split(","):
        collected: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds(args.seeds):
            result, detail = run_once(workload, seed, args.seconds, args.trace)
            environment = environment or {k: v for k, v in detail["environment"].items() if k != "seed"}
            metrics = dict(result["metrics"])
            if not args.trace:
                metrics.update(detail["metrics"])
            for name, m in metrics.items():
                collected.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={result['metrics'][k]['value']:.4g}" for k in list(result["metrics"])[:6]
            ), flush=True)
        summary[workload] = {
            name: {"unit": units[name], **spread(values)} for name, values in collected.items()
        }
        for name, s in summary[workload].items():
            print(f"  {workload:<11} {name:<32} median {s['median']:<12.6g} spread {s['spread']:.3f}")
    doc = {"environment": environment, "seeds": seeds(args.seeds), "seconds": args.seconds,
           "trace": args.trace, "workloads": summary}
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the output values that runs on the shipped seeds are checked against.

    python3 perfbench/record_reference.py --seeds 0-23

For each workload and seed, runs the first pass of a benchmark run and
writes its tally digest and fitted values to perfbench/reference.json.
Re-record only for a change that is meant to alter outputs, and say so:
the recorded values are what later changes are gated on.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from summarize import seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-23")
    args = parser.parse_args(argv)
    if not run.import_goalgen():
        print(f"error: no goalgen sources under {run.SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, run_pass, write_inputs

    recorded: dict = {}
    workdir = run.WORK / "record-reference"
    try:
        for name, w in WORKLOADS.items():
            for seed in seeds(args.seeds):
                inst = write_inputs(w, seed * 1000, workdir / name / str(seed))
                res = run_pass(w, inst, inst.root / "plain", None)
                failures = [m for errs in res.errors.values() for m in errs]
                if failures:
                    print(f"{name} seed {seed}: {failures}", file=sys.stderr)
                    return 1
                recorded.setdefault(name, {})[str(seed)] = res.values
                print(f"{name} seed {seed}: recorded {sorted(res.values)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

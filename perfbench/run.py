"""Benchmark entry point: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports goalgen from its
src/ directory. A run repeats passes until the next one would overrun
--seconds; each pass generates a fresh input instance from the seed and
the pass number, runs the workload's operations and checks every output.
With --trace 0 it reports the end-to-end metrics (medians over passes);
with --trace 1 each pass runs twice on the same instance, once plain and
once with spans, and it reports the per-layer metrics and the tracing
overhead. The last line of standard output is a JSON object with keys
correct, attempted, failed and metrics. The exit code is 0 when every
operation and check passed, 1 when one failed and 2 when goalgen cannot
be found.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# One BLAS thread: the matrices are tiny, and one thread keeps the
# process within nproc threads and its timings steadier.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# The metrics the final line carries with --trace 0, as in BENCHMARK.json.
END_TO_END = [("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB")]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_goalgen() -> bool:
    """Put the checkout's src/ first on the path; False when it is missing."""
    if not (SRC / "goalgen" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import goalgen

    return Path(goalgen.__file__).resolve().parent == SRC / "goalgen"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return "unknown"


def source_digest() -> str:
    """sha256 over goalgen's source files, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "goalgen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(),
    }


def measure(w, seed: int, seconds: float, trace: bool, workdir: Path, reference: dict | None) -> dict:
    """Run passes for about `seconds`; return raw per-pass figures."""
    from layers import layer_metrics
    from spans import Recorder
    from workloads import check_reference, run_pass, write_inputs

    rec = Recorder() if trace else None
    setup, plain, traced, overheads = [], [], [], []
    op_times: dict[str, list[float]] = {op: [] for op in w.ops}
    attempted, failed_ops, failures = 0, 0, []
    started = time.perf_counter()
    n = 0
    while True:
        pass_started = time.perf_counter()
        inst = write_inputs(w, seed * 1000 + n, workdir / f"pass{n}")
        setup.append(time.perf_counter() - pass_started)
        runs = [("plain", None)] + ([("traced", rec)] if trace else [])
        if n % 2:
            runs.reverse()  # alternate the order so neither side always runs warm
        totals = {}
        for label, recorder in runs:
            if recorder is not None:
                recorder.run = n
            res = run_pass(w, inst, inst.root / label, recorder)
            if n == 0 and reference:
                check_reference(res.values, reference, res.errors)
            attempted += len(w.ops)
            failed_ops += sum(1 for errs in res.errors.values() if errs)
            failures += [f"pass {n} {label} {op}: {m}" for op, errs in res.errors.items() for m in errs]
            totals[label] = sum(res.times.values())
            if recorder is None:
                for op, t in res.times.items():
                    op_times[op].append(t)
        plain.append(totals["plain"])
        if trace:
            traced.append(totals["traced"])
            overheads.append(totals["traced"] - totals["plain"])
        shutil.rmtree(inst.root)
        n += 1
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            break
    return {
        "passes": n,
        "setup": setup,
        "plain": plain,
        "traced": traced,
        "op_times": op_times,
        "attempted": attempted,
        "failed": failed_ops,
        "failures": failures,
        "layers": layer_metrics(rec, overheads) if trace else None,
    }


def end_to_end(raw: dict, import_s: float) -> dict[str, tuple[float, str]]:
    from workloads import OP_METRIC

    out = {
        "setup_s": (import_s + median(raw["setup"]), "s"),
        "pipeline_s": (median(raw["plain"]), "s"),
    }
    for op, times in raw["op_times"].items():
        out[OP_METRIC[op]] = (median(times), "s")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    out["fail_ratio"] = (raw["failed"] / raw["attempted"], "failed/attempted")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not import_goalgen():
        print(f"error: no goalgen sources under {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads

    import_s = time.perf_counter() - _STARTED
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    reference = None
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(w.name, {}).get(str(args.seed))

    workdir = WORK / f"{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        raw = measure(w, args.seed, args.seconds, bool(args.trace), workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # left in place while another run still uses it

    detail = end_to_end(raw, import_s)
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace} passes={raw['passes']}")
    for name, (value, unit) in detail.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    if args.trace:
        for name, unit in layers.PER_LAYER:
            print(f"  {name:<32} {raw['layers'][name]:>14.6g} {unit}")
    for message in raw["failures"][:20]:
        print(f"  FAILED {message}")
    summary = {
        "workload": w.name,
        "trace": args.trace,
        "passes": raw["passes"],
        "environment": environment(args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "pass_seconds": {"plain": raw["plain"], "traced": raw["traced"]},
        "reference_checked": reference is not None,
    }
    print(json.dumps({"detail": summary}))

    if args.trace:
        chosen = {name: {"value": raw["layers"][name], "unit": unit} for name, unit in layers.PER_LAYER}
    else:
        chosen = {name: {"value": detail[name][0], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": chosen,
    }))
    return 0 if raw["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

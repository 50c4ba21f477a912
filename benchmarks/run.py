"""Benchmark of the duosurv command line: one workload per run.

    python3 benchmarks/run.py --workload power9 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; duosurv is imported from its
``src/`` directory.  The workload runs in a fresh child process
(``child.py``), which issues CLI commands generated from ``--seed`` for
``--seconds`` seconds and checks every output.

With ``--trace 0`` the end-to-end metrics are reported: ``setup_s`` (child
start until the first timed command), ``rep_ms`` (timed command wall per
requested replication) and ``peak_rss_mb`` (peak resident memory of the
child).  With ``--trace 1`` an untraced child runs first; a traced child
then repeats exactly its commands with a span around each layer call, and
the per-layer metrics come from those spans.  The two children's outputs
must match byte for byte; their wall ratio is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run outputs go to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "rep_ms": "ms", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one duosurv benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("power9", "null_fwer", "plan_ex_last"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spawn(args, outdir: Path, deadline: float, trace: int = 0,
          ops: int = 0) -> tuple:
    """Run one child to completion; returns its result and its start time."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--outdir", str(outdir)]
    cmd += ["--ops", str(ops)] if ops else ["--seconds", str(args.seconds)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                              timeout=max(deadline - started, 1.0),
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload process timed out: {exc}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process exited {proc.returncode}")
    with open(outdir / "result.json", encoding="utf-8") as fh:
        return json.load(fh), started


def rep_ms(ops) -> float:
    """Timed wall of the successful commands per replication they asked for."""
    good = [op for op in ops if op["ok"]]
    if not good:
        raise BenchmarkError("no command succeeded")
    return 1e3 * timed_wall(good) / sum(op["requested_reps"] for op in good)


def timed_wall(ops) -> float:
    return sum(op["wall_s"] for op in ops)


def same_outputs(a: Path, b: Path) -> list:
    """Names of output files that differ between two output directories."""
    def outputs(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())
                if p.suffix in (".csv", ".trace") and p.name != "spans.csv"}

    left, right = outputs(a), outputs(b)
    return sorted(k for k in set(left) | set(right)
                  if left.get(k) != right.get(k))


def report_errors(result) -> None:
    for line in result["errors"] + result["pool_errors"]:
        print(line, file=sys.stderr)


def measure(args) -> dict:
    if not (ROOT / "src" / "duosurv" / "cli.py").is_file():
        raise BenchmarkError(f"no duosurv sources under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    outdir = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)

    plain, started = spawn(args, outdir / "plain", deadline)
    report_errors(plain)
    correct = not plain["pool_errors"]
    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {"setup_s": plain["t_first"] - started,
                  "rep_ms": rep_ms(plain["ops"]),
                  "peak_rss_mb": peak_kb / 1024.0}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        final = plain
    else:
        traced, _ = spawn(args, outdir / "traced", deadline, trace=1,
                          ops=len(plain["ops"]))
        report_errors(traced)
        differ = same_outputs(outdir / "plain", outdir / "traced")
        for name in differ:
            print(f"traced output differs: {name}", file=sys.stderr)
        for name in traced["unobserved"]:
            print(f"unobserved layer: {name}", file=sys.stderr)
        correct = correct and not traced["pool_errors"] and not differ
        from tracer import METRIC_UNITS

        values = dict(traced["layers"])
        values["trace.overhead_pct"] = 100.0 * (
            timed_wall(traced["ops"]) / timed_wall(plain["ops"]) - 1.0)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in METRIC_UNITS.items()}
        final = traced
    return {"correct": correct,
            "attempted": len(final["ops"]),
            "failed": sum(not op["ok"] for op in final["ops"]),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        result = measure(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The workload process: import duosurv, warm up, then issue CLI commands.

Started by ``run.py`` in a fresh interpreter, so its import time and peak
memory are those a user of the command line pays.  Commands run in-process
through ``duosurv.cli.main``.  Each command is timed on its own; its checks
run outside the timed part.  The outcome goes to ``result.json`` in the
output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="issue commands until this much time has passed")
    parser.add_argument("--ops", type=int, default=0,
                        help="issue exactly this many commands instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--n-reps", type=int, dest="n_reps",
                        help="replications per command (default: workload's)")
    return parser.parse_args(argv)


def run(args) -> dict:
    import duosurv
    import duosurv.cli as cli

    if Path(duosurv.__file__).resolve().parent != SRC / "duosurv":
        raise SystemExit(f"duosurv imported from {duosurv.__file__}, "
                         f"not from {SRC}")
    from workloads import WORKLOADS, Pool, sim_seeds

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.paused = True

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.n_reps)
    sink = io.StringIO()

    def run_cli(argv) -> int:
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink):
            return cli.main(list(argv))

    warm = workload.warmup(outdir)
    Path(warm.config_path).write_text(warm.config, encoding="utf-8")
    if run_cli(warm.argv) != 0:
        raise SystemExit("warm-up command failed")

    pool = Pool()
    seeds = sim_seeds(workload.name, args.seed)
    ops, errors = [], []
    t_first = None
    while True:
        cmd = workload.command(len(ops), next(seeds), outdir)
        Path(cmd.config_path).write_text(cmd.config, encoding="utf-8")
        if tracer is not None:
            tracer.paused = False
        start = time.monotonic()
        if t_first is None:
            t_first = start
        try:
            if tracer is not None:
                code = tracer.span("cli.main", run_cli, cmd.argv)
            else:
                code = run_cli(cmd.argv)
        except SystemExit as exc:  # argparse usage errors exit this way
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        wall = time.monotonic() - start
        if tracer is not None:
            tracer.paused = True

        ok = code == 0
        if not ok:
            errors.append(f"command {cmd.index} ({' '.join(cmd.argv)}): "
                          f"exit {code}")
        else:
            try:
                workload.check(cmd, pool, run_cli)
            except Exception:
                ok = False
                errors.append(f"command {cmd.index}: "
                              f"{traceback.format_exc()}")
        ops.append({"wall_s": wall, "requested_reps": cmd.requested_reps,
                    "ok": ok})
        if args.ops:
            if len(ops) >= args.ops:
                break
        elif time.monotonic() - t_first >= args.seconds:
            break

    result = {
        "t_first": t_first,
        "ops": ops,
        "errors": errors,
        "pool_errors": workload.check_pool(pool) if pool.totals else [],
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(str(outdir / "spans.csv"))
        result["layers"] = tracer.metrics(
            sum(op["requested_reps"] for op in ops), len(ops))
        result["unobserved"] = tracer.unobserved
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    with open(Path(args.outdir) / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

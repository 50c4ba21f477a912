"""Print one SHA-256 digest per acceptance fixture, and one of a set of
``analyze`` reports, to check that no decision moved between two trees.

The five fixtures are those of ``tests/test_acceptance.py``: criterion 1
(model 1 at full effect, all nine procedures), criterion 2 (model 1
under the null with bon, ex_last and os at 1,600 patients without and with
frailty, and at 128 patients) and criterion 7 (the ex_last plan for 80%
power on model 1 at full effect), each run at seed 20260814 in one worker.
A simulate fixture's digest covers, in this order: ``rep_ids`` as int64
bytes, each procedure's outcome array (bool, one row of six bits per
analyzable replication) in procedure order, and the UTF-8 text of the
sorted ``(label, count)`` failure pairs.  The plan's digest covers the
UTF-8 text of the line ``selected=<d_os>`` followed by one line
``<d_os>,<repr(power)>`` per evaluation, in ``d_os`` order; the line also
prints the selected ``d_os`` and the number of evaluations.

The sixth line covers ``analyze``: 32 simulated cohorts (16 of model 1 at
full effect, 8 each of the model-1 null at 128 and 256 patients, seed
20260814, replications 0 up), every other one with its rows shuffled, are
written with ``%.17g`` to a temporary directory and run through
``cli.main`` in-process under each of the nine procedures, at the
scenario's event targets.  Its digest covers, per report in that order,
the UTF-8 text of the exit code, a newline and the report's stdout; the
line also prints the number of reports.  It does not depend on ``--reps``.

    PYTHONPATH=src python tools/outcome_digests.py            # 10,000 reps
    PYTHONPATH=src python tools/outcome_digests.py --reps 200 # quick check
"""

import argparse
import hashlib
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from duosurv import cli
from duosurv.harness import (
    default_designs,
    null_scenario,
    plan_events,
    power_scenario,
    run_experiment,
)
from duosurv.multistate import FrailtySpec, simulate_cohorts
from duosurv.testing import PROCEDURES

SEED = 20260814


def fixtures():
    """``(label, scenario, designs)`` of the criterion-1 and -2 runs."""
    null_designs = default_designs(("bon", "ex_last", "os"))
    return [
        ("criterion1", power_scenario(1, 1.0), default_designs()),
        ("criterion2_n1600", null_scenario(1, 1600), null_designs),
        ("criterion2_n1600_frailty",
         null_scenario(1, 1600, FrailtySpec()), null_designs),
        ("criterion2_n128", null_scenario(1, 128), null_designs),
    ]


def digest(result) -> str:
    h = hashlib.sha256(result.rep_ids.astype(np.int64).tobytes())
    for procedure in result.procedures:
        h.update(result.outcomes[procedure].tobytes())
    h.update(repr(sorted(result.failures.items())).encode())
    return h.hexdigest()


def plan_digest(plan) -> str:
    lines = [f"selected={plan.d_os}"]
    lines += [f"{d},{power!r}" for d, power in sorted(plan.evaluations.items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def analyze_digest(tmp: Path):
    """Digest and count of the ``analyze`` reports of the sixth line, with
    the data and config files written to ``tmp``."""
    h, reports = hashlib.sha256(), 0
    rng = np.random.default_rng(SEED)
    for scenario, count in ((power_scenario(1, 1.0), 16),
                            (null_scenario(1, 128), 8),
                            (null_scenario(1, 256), 8)):
        config = tmp / f"{scenario.name}.yaml"
        config.write_text(f"targets: {{d_pfs: {scenario.targets.d_pfs}, "
                          f"d_os: {scenario.targets.d_os}}}\n")
        for rep in range(count):
            cohort = simulate_cohorts(scenario.model, SEED, [rep])
            rows = np.vstack((cohort.arm, cohort.entry, cohort.t_pfs,
                              cohort.t_os, cohort.dropout)).T
            if rep % 2:
                rows = rows[rng.permutation(len(rows))]
            data = tmp / f"{scenario.name}_{rep}.txt"
            data.write_text("".join("%d %.17g %.17g %.17g %.17g\n"
                                    % tuple(row) for row in rows))
            for procedure in PROCEDURES:
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.main(["analyze", "--data", str(data),
                                     "--config", str(config),
                                     "--procedures", procedure])
                h.update(f"{code}\n{out.getvalue()}".encode())
                reports += 1
    return h.hexdigest(), reports


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=10_000,
                        help="replications per fixture (default 10000)")
    args = parser.parse_args(argv)
    for label, scenario, designs in fixtures():
        result = run_experiment(scenario, designs, args.reps, SEED, workers=1)
        print(f"{label} {digest(result)}", flush=True)
    plan = plan_events(power_scenario(1, 1.0),
                       default_designs(("ex_last",))[0], target_power=0.80,
                       n_reps=args.reps, seed=SEED)
    print(f"criterion7_plan {plan_digest(plan)} selected={plan.d_os} "
          f"evaluations={len(plan.evaluations)}", flush=True)
    with tempfile.TemporaryDirectory(prefix="duosurv-analyze-") as tmp:
        report_digest, reports = analyze_digest(Path(tmp))
    print(f"analyze {report_digest} reports={reports}", flush=True)


if __name__ == "__main__":
    main()

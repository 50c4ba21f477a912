"""Print one SHA-256 digest per acceptance fixture, to check that no
decision moved between two trees.

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

    PYTHONPATH=src python tools/outcome_digests.py            # 10,000 reps
    PYTHONPATH=src python tools/outcome_digests.py --reps 200 # quick check
"""

import argparse
import hashlib

import numpy as np

from duosurv.harness import (
    default_designs,
    null_scenario,
    plan_events,
    power_scenario,
    run_experiment,
)
from duosurv.multistate import FrailtySpec

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


if __name__ == "__main__":
    main()

"""Print one SHA-256 digest per acceptance fixture, to check that no
decision moved between two trees.

The four fixtures are those of ``tests/test_acceptance.py``: criterion 1
(model 1 at full effect, all nine procedures) and criterion 2 (model 1
under the null with bon, ex_last and os at 1,600 patients without and with
frailty, and at 128 patients), each run at seed 20260814 in one worker.
A fixture's digest covers, in this order: ``rep_ids`` as int64 bytes, each
procedure's outcome array (bool, one row of six bits per analyzable
replication) in procedure order, and the UTF-8 text of the sorted
``(label, count)`` failure pairs.

    PYTHONPATH=src python tools/outcome_digests.py            # 10,000 reps
    PYTHONPATH=src python tools/outcome_digests.py --reps 200 # quick check
"""

import argparse
import hashlib

import numpy as np

from duosurv.harness import (
    default_designs,
    null_scenario,
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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=10_000,
                        help="replications per fixture (default 10000)")
    args = parser.parse_args(argv)
    for label, scenario, designs in fixtures():
        result = run_experiment(scenario, designs, args.reps, SEED, workers=1)
        print(f"{label} {digest(result)}", flush=True)


if __name__ == "__main__":
    main()

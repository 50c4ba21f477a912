"""Workload definitions: the CLI commands each workload issues and the checks
applied to their outputs.

Every command is generated from the run's seed alone.  Command ``k`` of a
run gets its own simulation seed, so no two commands of a run share cohorts
(and no solve the package memoizes can carry over from one command to the
next).  The checks rest on properties of the method or on figures computed
apart from the program; none compares against a stored copy of earlier
output.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field

ALPHA = 0.025
TARGET_POWER = 0.80
NINE = ("bon", "rec", "ex_last", "ex_first", "bon_gs", "rec_gs",
        "ex_gs_last", "ex_gs_first", "os")
FWER_PROCEDURES = ("bon", "ex_last", "os")
FWER_SIZES = (128, 256, 640, 1600)
RATES = ("rej_pfs", "rej_os", "disjunctive", "conjunctive", "early_stop")
CSV_HEADER = ("scenario", "procedure", "n_reps", *RATES, "se_rej_pfs",
              "se_rej_os", "se_disj", "se_conj", "se_early", "failures")

# Model 1 of the paper: the smaller-hazard row (experimental arm) and the
# full-separation row (control arm) as (0->1, 0->2, 1->2) monthly hazards,
# with the planned interim PFS event target.
MODEL1_GOOD = (0.06, 0.30, 0.30)
MODEL1_BAD = (0.10, 0.40, 0.30)
MODEL1_D_PFS = 433

# Reference rates at 10,000 replications for model 1 at full effect, as
# pinned by acceptance criterion 1 (tests/test_acceptance.py).
REFERENCE_10K = 10_000
REFERENCE_RATES = (
    ("bon", "rej_os", 0.8072),
    ("rec", "rej_os", 0.8225),
    ("ex_last", "rej_os", 0.8264),
    ("os", "rej_os", 0.8313),
    ("bon", "disjunctive", 0.8960),
    ("ex_last", "disjunctive", 0.8999),
    ("bon", "conjunctive", 0.7049),
    ("ex_first", "early_stop", 0.4265),
)
# Standard errors allowed between a pooled rate and its reference.  At 4.5
# the chance that a correct program fails one of the pooled checks of a run
# is below 1e-4.
MC_Z = 4.5
# Each CSV rate is rounded to 6 decimals; an identity of three rates holds
# to three half-units.
ROUNDING = 1.5e-6 + 1e-12


class CheckFailed(Exception):
    """An output violates a property the method guarantees."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload."""

    index: int
    sim_seed: int
    argv: tuple
    config: str
    config_path: str
    out_path: str
    requested_reps: int


@dataclass
class Pool:
    """Counts pooled over the commands of one run for the statistical checks."""

    counts: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)

    def add(self, key, rate: float, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + round(rate * n)
        self.totals[key] = self.totals.get(key, 0) + n

    def rate(self, key) -> tuple:
        n = self.totals[key]
        return self.counts[key] / n, n


def _yaml_list(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def sim_seeds(workload: str, seed: int):
    """Endless stream of simulation seeds for the commands of one run."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def parse_rates_csv(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise CheckFailed(f"unexpected CSV header {rows[:1]}")
    out = []
    for row in rows[1:]:
        if len(row) != len(CSV_HEADER):
            raise CheckFailed(f"CSV row has {len(row)} fields")
        rec = dict(zip(CSV_HEADER, row))
        for key in CSV_HEADER[3:-1]:
            rec[key] = float(rec[key])
        rec["n_reps"] = int(rec["n_reps"])
        rec["failures"] = int(rec["failures"])
        out.append(rec)
    return out


def check_rate_rows(rows, procedures, n_reps: int) -> None:
    """Rates are probabilities and the disjunctive/conjunctive identity
    holds."""
    if [r["procedure"] for r in rows] != list(procedures):
        raise CheckFailed(f"procedures {[r['procedure'] for r in rows]}")
    for r in rows:
        if r["n_reps"] != n_reps:
            raise CheckFailed(f"{r['procedure']}: n_reps {r['n_reps']}")
        for key in RATES:
            if not 0.0 <= r[key] <= 1.0:
                raise CheckFailed(f"{r['scenario']}/{r['procedure']}: "
                                  f"{key}={r[key]} outside [0, 1]")
        union = r["rej_pfs"] + r["rej_os"] - r["conjunctive"]
        if abs(r["disjunctive"] - union) > ROUNDING:
            raise CheckFailed(f"{r['procedure']}: disjunctive "
                              f"{r['disjunctive']} != {union}")


def check_nesting(by_proc: dict, chain, keys) -> None:
    """Rejection sets nest per replication, so their rates nest exactly."""
    for weaker, stronger in zip(chain[:-1], chain[1:]):
        for key in keys:
            if by_proc[weaker][key] > by_proc[stronger][key]:
                raise CheckFailed(f"{key}: {weaker} {by_proc[weaker][key]} > "
                                  f"{stronger} {by_proc[stronger][key]}")


def mc_tolerance(p: float, n: int, n_ref: int | None = None) -> float:
    var = p * (1.0 - p) / n
    if n_ref:
        var += p * (1.0 - p) / n_ref
    return MC_Z * math.sqrt(var)


class Workload:
    name = ""
    n_reps = 0

    def __init__(self, n_reps: int | None = None):
        if n_reps is not None:
            self.n_reps = n_reps

    def config_text(self, sim_seed: int, n_reps: int) -> str:
        raise NotImplementedError

    def command(self, index: int, sim_seed: int, outdir) -> Command:
        stem = f"{self.name}-{index:03d}"
        config_path = f"{outdir}/{stem}.yaml"
        out_path = f"{outdir}/{stem}.{self.suffix}"
        return Command(
            index=index, sim_seed=sim_seed,
            argv=(self.subcommand, "--config", config_path, "--out", out_path),
            config=self.config_text(sim_seed, self.n_reps),
            config_path=config_path, out_path=out_path,
            requested_reps=self.n_reps * self.scenarios)

    def warmup(self, outdir) -> Command:
        """A tiny command that reaches the same code paths before timing."""
        text = self.warmup_config()
        return Command(index=-1, sim_seed=0,
                       argv=("simulate", "--config", f"{outdir}/warmup.yaml",
                             "--out", f"{outdir}/warmup.csv"),
                       config=text, config_path=f"{outdir}/warmup.yaml",
                       out_path=f"{outdir}/warmup.csv", requested_reps=0)

    def check(self, cmd: Command, pool: Pool, run_cli) -> None:
        raise NotImplementedError

    def check_pool(self, pool: Pool) -> list:
        return []


class Power9(Workload):
    """Model 1 at full effect, all nine procedures on shared cohorts."""

    name = "power9"
    n_reps = 25
    scenarios = 1
    subcommand = "simulate"
    suffix = "csv"

    def config_text(self, sim_seed, n_reps):
        return (
            "mode: single\n"
            "scenario: {model: 1, kind: power, weight: 1.0}\n"
            "design:\n  alpha: 0.025\n  rho_pfs: 0.2\n  rho_os: 0.8\n"
            f"  procedures: {_yaml_list(NINE)}\n"
            f"execution: {{n_reps: {n_reps}, seed: {sim_seed}, workers: 1}}\n")

    def warmup_config(self):
        return self.config_text(7, 2)

    def check(self, cmd, pool, run_cli):
        with open(cmd.out_path, encoding="utf-8") as fh:
            rows = parse_rates_csv(fh.read())
        check_rate_rows(rows, NINE, self.n_reps)
        by_proc = {r["procedure"]: r for r in rows}
        for chain in (("bon", "rec", "ex_last"),
                      ("bon_gs", "rec_gs", "ex_gs_last")):
            check_nesting(by_proc, chain, ("rej_pfs", "rej_os"))
        for proc in ("bon", "rec", "ex_last", "os"):
            if by_proc[proc]["early_stop"] != 0.0:
                raise CheckFailed(f"{proc} stops early without an interim "
                                  "OS look")
        if any(r["failures"] for r in rows):
            raise CheckFailed(f"{rows[0]['failures']} unanalyzable "
                              "replications")
        for proc, key, _ in REFERENCE_RATES:
            pool.add((proc, key), by_proc[proc][key], self.n_reps)

    def check_pool(self, pool):
        errors = []
        for proc, key, want in REFERENCE_RATES:
            got, n = pool.rate((proc, key))
            tol = mc_tolerance(want, n, REFERENCE_10K)
            if abs(got - want) > tol:
                errors.append(f"{proc} {key} {got:.4f} over {n} reps is not "
                              f"within {tol:.4f} of {want}")
        return errors


class NullFwer(Workload):
    """Null sweep over total sizes, frailty off and on (fwer mode)."""

    name = "null_fwer"
    n_reps = 15
    scenarios = 2 * len(FWER_SIZES)
    subcommand = "simulate"
    suffix = "csv"

    def config_text(self, sim_seed, n_reps, sizes=FWER_SIZES):
        return (
            "mode: fwer\n"
            f"scenario: {{model: 1, sizes: {_yaml_list(sizes)}}}\n"
            f"design: {{procedures: {_yaml_list(FWER_PROCEDURES)}}}\n"
            f"execution: {{n_reps: {n_reps}, seed: {sim_seed}, workers: 1}}\n")

    def warmup_config(self):
        return self.config_text(7, 2, sizes=(FWER_SIZES[0],))

    def check(self, cmd, pool, run_cli):
        with open(cmd.out_path, encoding="utf-8") as fh:
            rows = parse_rates_csv(fh.read())
        expected = [f"m1_null_n{n}{tag}" for n in FWER_SIZES
                    for tag in ("", "_frailty")]
        k = len(FWER_PROCEDURES)
        if [rows[i]["scenario"] for i in range(0, len(rows), k)] != expected:
            raise CheckFailed("unexpected scenario rows")
        largest = FWER_SIZES[-1]
        for i, scenario in enumerate(expected):
            block = rows[i * k:(i + 1) * k]
            check_rate_rows(block, FWER_PROCEDURES, self.n_reps)
            by_proc = {r["procedure"]: r for r in block}
            check_nesting(by_proc, ("bon", "ex_last"), ("disjunctive",))
            if scenario.startswith(f"m1_null_n{largest}"):
                n_eff = self.n_reps - block[0]["failures"]
                frailty = scenario.endswith("_frailty")
                pool.add(("ex_last", "disjunctive", frailty),
                         by_proc["ex_last"]["disjunctive"], n_eff)
                pool.add(("os", "rej_os", frailty),
                         by_proc["os"]["rej_os"], n_eff)

    def check_pool(self, pool):
        errors = []
        for key in sorted(pool.totals):
            got, n = pool.rate(key)
            tol = mc_tolerance(ALPHA, n)
            if abs(got - ALPHA) > tol:
                errors.append(f"{key} {got:.4f} over {n} reps at n="
                              f"{FWER_SIZES[-1]} is not within {tol:.4f} of "
                              f"alpha {ALPHA}")
        return errors


def parse_plan_trace(text: str) -> tuple:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "d_os,power" or \
            not lines[-1].startswith("# selected="):
        raise CheckFailed("malformed plan trace")
    curve = {}
    for line in lines[1:-1]:
        d, power = line.split(",")
        curve[int(d)] = power
    return int(lines[-1].split("=", 1)[1]), curve


def check_plan(selected: int, curve: dict, target: float) -> None:
    """The selected target reaches the power goal; one event fewer does
    not."""
    if selected not in curve:
        raise CheckFailed(f"selected d_os={selected} was never evaluated")
    if not float(curve[selected]) >= target:
        raise CheckFailed(f"power {curve[selected]} at selected d_os="
                          f"{selected} misses target {target}")
    below = curve.get(selected - 1)
    if below is not None and float(below) >= target:
        raise CheckFailed(f"d_os={selected - 1} already reaches {below}")


class PlanExLast(Workload):
    """OS event-target planning for ``ex_last`` at 80% power."""

    name = "plan_ex_last"
    n_reps = 100
    scenarios = 1
    subcommand = "plan"
    suffix = "trace"

    def config_text(self, sim_seed, n_reps):
        return (
            "scenario: {model: 1, kind: power, weight: 1.0}\n"
            "design: {procedures: [ex_last]}\n"
            f"plan: {{target_power: {TARGET_POWER}}}\n"
            f"execution: {{n_reps: {n_reps}, seed: {sim_seed}, workers: 1}}\n")

    def warmup_config(self):
        return self.recheck_config(7, 2, 630)

    def recheck_config(self, sim_seed, n_reps, d_os):
        """The planned scenario written out in full, at a given OS target."""
        return (
            "mode: single\n"
            "scenario:\n  name: plan_recheck\n"
            f"  control: {_yaml_list(MODEL1_BAD)}\n"
            f"  experimental_target: {_yaml_list(MODEL1_GOOD)}\n"
            "  per_arm_rate: 25.0\n  max_per_arm: 800\n  frailty: false\n"
            f"  d_pfs: {MODEL1_D_PFS}\n  d_os: {d_os}\n"
            "design: {procedures: [ex_last]}\n"
            f"execution: {{n_reps: {n_reps}, seed: {sim_seed}, workers: 1}}\n")

    def check(self, cmd, pool, run_cli):
        with open(cmd.out_path, encoding="utf-8") as fh:
            selected, curve = parse_plan_trace(fh.read())
        check_plan(selected, curve, TARGET_POWER)
        # an independent simulate run at the selected target must reproduce
        # the power the planner saw there
        stem = cmd.out_path.rsplit(".", 1)[0]
        config_path, out_path = stem + "-recheck.yaml", stem + "-recheck.csv"
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(self.recheck_config(cmd.sim_seed, self.n_reps, selected))
        code = run_cli(("simulate", "--config", config_path, "--out",
                        out_path))
        if code != 0:
            raise CheckFailed(f"re-check simulate exited {code}")
        with open(out_path, encoding="utf-8") as fh:
            rows = parse_rates_csv(fh.read())
        check_rate_rows(rows, ("ex_last",), self.n_reps)
        if f"{rows[0]['rej_os']:.6f}" != curve[selected]:
            raise CheckFailed(f"simulate at d_os={selected} gives rej_os "
                              f"{rows[0]['rej_os']:.6f}, plan saw "
                              f"{curve[selected]}")


WORKLOADS = {w.name: w for w in (Power9, NullFwer, PlanExLast)}

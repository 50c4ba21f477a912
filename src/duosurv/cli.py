"""Command-line front end: ``simulate``, ``analyze`` and ``plan``.

Configuration lives in YAML files with a strict schema: every block has a
fixed key set and unknown keys are rejected before any computation starts.
Command-line flags override the corresponding config entries.  Exit codes
are fixed for scripting: 0 on success, 2 on configuration problems, 3 on
runtime failures such as an unreachable planning target.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np
import yaml

from .errors import ConfigError, DuosurvError, InvalidModel
from .harness import (DROPOUT_RATE, Scenario, analyze_cohort,
                      default_designs, metrics_csv_text, null_scenario,
                      plan_events, power_scenario, run_experiment)
from .multistate import (Cohort, CohortModel, FrailtySpec,
                         TransitionIntensities)
from .testing import PROCEDURES, run_procedure
from .trialdata import CutoffTargets

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# Default worker count when neither --workers nor the config provide one.
WORKERS_ENV = "DUOSURV_WORKERS"

_MODES = ("single", "fwer", "power")


def normalize_procedure(token: str) -> str:
    """Map a display id like ``EX/GS/LAST`` onto the internal name."""
    name = token.strip().lower().replace("/", "_")
    if name not in PROCEDURES:
        raise ConfigError(
            f"unknown procedure '{token}'; choose from {', '.join(PROCEDURES)}")
    return name


def _parse_procedures(spec) -> tuple:
    if isinstance(spec, str):
        spec = [p for p in spec.split(",") if p.strip()]
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ConfigError("procedures must be a non-empty list")
    names = tuple(normalize_procedure(str(p)) for p in spec)
    if len(set(names)) != len(names):
        raise ConfigError("duplicate procedure in list")
    return names


def _mapping(obj, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"'{where}' must be a mapping")
    return obj


def _check_keys(block: dict, allowed, where: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in '{where}': {', '.join(unknown)}")


def _number(block, key, where, default=None, required=False):
    if key not in block or block[key] is None:
        if required:
            raise ConfigError(f"'{where}.{key}' is required")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}.{key}' must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"'{where}.{key}' must be finite")
    return float(value)


def _integer(block, key, where, default=None, required=False):
    value = _number(block, key, where, default, required)
    if value is None:
        return None
    if value != int(value):
        raise ConfigError(f"'{where}.{key}' must be an integer")
    return int(value)


def _entries(block, key, where, rule) -> list:
    """The non-empty list ``block[key]``, each entry checked by ``rule``
    (``_number`` or ``_integer``)."""
    values = block.get(key)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"'{where}.{key}' must be a non-empty list")
    return [rule({key: v}, key, where, required=True) for v in values]


def _intensities(block, key, where, required=True):
    if key not in block or block[key] is None:
        if required:
            raise ConfigError(f"'{where}.{key}' is required")
        return None
    value = block[key]
    if (not isinstance(value, (list, tuple)) or len(value) != 3
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   or not math.isfinite(v) for v in value)):
        raise ConfigError(f"'{where}.{key}' must be a list of three finite "
                          "rates [l01, l02, l12]")
    return TransitionIntensities(*(float(v) for v in value))


def _frailty(block, where) -> FrailtySpec:
    value = block.get("frailty", False)
    if value is None or value is False:
        return FrailtySpec(enabled=False)
    if value is True:
        return FrailtySpec(enabled=True)
    if isinstance(value, dict):
        where = f"{where}.frailty"
        _check_keys(value, ("shape", "rate"), where)
        return FrailtySpec(enabled=True,
                           shape=_number(value, "shape", where, 10.0),
                           rate=_number(value, "rate", where, 10.0))
    raise ConfigError(f"'{where}.frailty' must be a flag or {{shape, rate}}")


_BUILDER_KEYS = ("model", "kind", "weight", "frailty", "n_total")
_EXPLICIT_KEYS = ("name", "control", "experimental_target", "weight",
                  "per_arm_rate", "max_per_arm", "dropout_rate", "frailty",
                  "d_pfs", "d_os")


def _scenario_from_config(block: dict, where: str = "scenario") -> Scenario:
    """Either a table-model builder form or a fully explicit form."""
    block = _mapping(block, where)
    if "model" in block:
        _check_keys(block, _BUILDER_KEYS, where)
        index = _integer(block, "model", where, required=True)
        kind = block.get("kind", "power")
        if kind is None:  # YAML reads an unquoted ``kind: null`` as None
            kind = "null"
        frailty = _frailty(block, where)
        if kind == "power":
            if "n_total" in block:
                raise ConfigError(f"'{where}.n_total' only applies to kind null")
            return power_scenario(index, _number(block, "weight", where, 1.0),
                                  frailty)
        if kind == "null":
            if "weight" in block:
                raise ConfigError(f"'{where}.weight' only applies to kind power")
            return null_scenario(index,
                                 _integer(block, "n_total", where, required=True),
                                 frailty)
        raise ConfigError(f"'{where}.kind' must be 'power' or 'null'")

    _check_keys(block, _EXPLICIT_KEYS, where)
    c = _intensities(block, "control", where)
    e = _intensities(block, "experimental_target", where, required=False) or c
    e.validate()  # checked here, since weight 0 would hide a bad target
    w = _number(block, "weight", where, 1.0)
    if not 0.0 <= w <= 1.0:
        raise InvalidModel("effect weight must lie in [0, 1]")
    # arm 1 sits weight of the way from the control to the target
    experimental = TransitionIntensities(
        lambda_01=c.lambda_01 - w * (c.lambda_01 - e.lambda_01),
        lambda_02=c.lambda_02 - w * (c.lambda_02 - e.lambda_02),
        lambda_12=c.lambda_12 - w * (c.lambda_12 - e.lambda_12))
    return Scenario(
        name=str(block.get("name", "custom")),
        model=CohortModel(
            control=c, experimental=experimental,
            per_arm_rate=_number(block, "per_arm_rate", where, required=True),
            max_per_arm=_integer(block, "max_per_arm", where, required=True),
            dropout_rate=_number(block, "dropout_rate", where, DROPOUT_RATE),
            frailty=_frailty(block, where)),
        targets=CutoffTargets(d_pfs=_integer(block, "d_pfs", where, required=True),
                              d_os=_integer(block, "d_os", where, required=True)),
    )


def _designs_from_config(block: dict, procedures_override=None):
    block = _mapping(block, "design")
    _check_keys(block, ("alpha", "rho_pfs", "rho_os", "procedures"), "design")
    if procedures_override is not None:
        procedures = procedures_override
    elif "procedures" in block:
        procedures = _parse_procedures(block["procedures"])
    else:
        procedures = PROCEDURES
    rho_pfs = _number(block, "rho_pfs", "design", 0.2)
    rho_os = _number(block, "rho_os", "design")
    # OS gets what PFS leaves; a stated OS fraction must agree
    if rho_os is not None and rho_os <= 0.0:
        raise ConfigError("level fractions must be positive")
    if rho_os is not None and abs(rho_pfs + rho_os - 1.0) > 1e-9:
        raise ConfigError("rho_pfs and rho_os must sum to one")
    return default_designs(procedures=procedures,
                           alpha=_number(block, "alpha", "design", 0.025),
                           rho_pfs=rho_pfs)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    return _mapping(config, "config")


def _execution(config: dict, args) -> dict:
    block = _mapping(config.get("execution"), "execution")
    _check_keys(block, ("n_reps", "seed", "workers", "out"), "execution")
    workers = args.workers
    if workers is None:
        workers = _integer(block, "workers", "execution")
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is not None:
            try:
                workers = int(env)
            except ValueError as exc:
                raise ConfigError(f"{WORKERS_ENV} must be an integer") from exc
    workers = 1 if workers is None else workers
    if workers < 1:
        raise ConfigError("workers must be at least 1")

    n_reps = args.n_reps if args.n_reps is not None else _integer(
        block, "n_reps", "execution")
    seed = args.seed if args.seed is not None else _integer(
        block, "seed", "execution", 0)
    out = args.out if getattr(args, "out", None) else block.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("'execution.out' must be a file path")
    if out:
        _check_output(out)
    return {"n_reps": n_reps, "seed": seed, "workers": workers, "out": out}


def _check_output(path: str) -> None:
    """Fail before any work if ``path`` cannot be opened for writing; a
    file that did not exist yet is removed again."""
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def _write_output(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def _scenarios(mode: str, block: dict) -> list:
    """Every scenario of a ``simulate`` run, built before any replication."""
    if mode == "single":
        return [_scenario_from_config(block)]
    if mode == "fwer":
        _check_keys(block, ("model", "sizes"), "scenario")
        sizes = _entries(block, "sizes", "scenario", _integer)
        index = _integer(block, "model", "scenario", required=True)
        return [null_scenario(index, n, FrailtySpec(enabled=frailty))
                for n in sizes for frailty in (False, True)]
    _check_keys(block, ("model", "weights", "frailty"), "scenario")
    weights = _entries(block, "weights", "scenario", _number)
    index = _integer(block, "model", "scenario", required=True)
    frailty = _frailty(block, "scenario")
    return [power_scenario(index, w, frailty) for w in weights]


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    _check_keys(config, ("mode", "scenario", "design", "execution"), "config")
    mode = config.get("mode", "single")
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {', '.join(_MODES)}")
    overrides = _parse_procedures(args.procedures) if args.procedures else None
    designs = _designs_from_config(config.get("design"), overrides)
    execution = _execution(config, args)
    if execution["n_reps"] is None:
        raise ConfigError("'execution.n_reps' is required for simulate")

    rows = []
    for scenario in _scenarios(mode, _mapping(config.get("scenario"),
                                              "scenario")):
        rows += run_experiment(scenario, designs, execution["n_reps"],
                               execution["seed"],
                               workers=execution["workers"]).rows()
    if execution["out"]:
        _write_output(execution["out"], metrics_csv_text(rows))
        print(f"wrote {execution['out']} ({len(rows)} rows)")
    else:
        sys.stdout.write(metrics_csv_text(rows))
    return EXIT_OK


def _cohort_row_problem(values) -> str | None:
    """Why a parsed ``arm entry t_pfs t_os dropout`` row is no patient."""
    arm, entry, t_pfs, t_os, dropout = values
    if any(np.isnan(v) for v in values):
        return "nan value"
    if arm not in (0.0, 1.0):
        return "arm must be 0 or 1"
    if not np.isfinite(entry):
        return "entry must be finite"
    if min(t_pfs, t_os, dropout) < 0.0:
        return "t_pfs, t_os and dropout must not be negative"
    if t_pfs > t_os:
        return "t_pfs exceeds t_os"
    return None


def read_cohort(path: str) -> Cohort:
    """Parse the plain-text cohort format.

    One patient per line with five whitespace-separated columns
    ``arm entry t_pfs t_os dropout``; ``#`` comments and blank lines are
    skipped.  Times are latent (uncensored) and relative to entry except
    for ``entry`` itself, which is a calendar date.  Latent times and
    drop-out may be ``inf``; no value may be ``nan`` or negative, ``entry``
    must be finite, and ``t_pfs`` may not exceed ``t_os``.
    """
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 5:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 5 columns "
                        "(arm entry t_pfs t_os dropout)")
                try:
                    values = [float(p) for p in parts]
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
                problem = _cohort_row_problem(values)
                if problem:
                    raise ConfigError(f"{path}:{lineno}: {problem}")
                rows.append(values)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"dataset {path} contains no patients")
    data = np.asarray(rows, dtype=float)
    return Cohort(arm=data[:, 0].astype(int), entry=data[:, 1],
                  t_pfs=data[:, 2], t_os=data[:, 3], dropout=data[:, 4])


# report keys of the correlations the procedures read, with their indices
# in the covariance order pfs@interim, os@interim, pfs@final, os@final
_REPORTED_CORRELATIONS = {"os_interim_os_final": (1, 3),
                          "pfs_interim_os_final": (0, 3),
                          "pfs_interim_os_interim": (0, 1)}


def _format_matrix(matrix) -> str:
    return "\n".join("  " + "  ".join(f"{v: .4f}" for v in row)
                     for row in np.asarray(matrix))


def cmd_analyze(args) -> int:
    config = load_config(args.config)
    _check_keys(config, ("design", "targets"), "config")
    overrides = _parse_procedures(args.procedures) if args.procedures else None
    designs = _designs_from_config(config.get("design"), overrides)
    if len(designs) != 1:
        raise ConfigError("analyze needs exactly one procedure")
    design = designs[0]

    targets_block = _mapping(config.get("targets"), "targets")
    _check_keys(targets_block, ("d_pfs", "d_os"), "targets")
    targets = CutoffTargets(
        d_pfs=_integer(targets_block, "d_pfs", "targets", required=True),
        d_os=_integer(targets_block, "d_os", "targets", required=True))
    targets.validate()

    inputs, interim, final = analyze_cohort(read_cohort(args.data), targets)
    outcome = run_procedure(design, inputs)
    t_interim, t_final = interim.calendar_time, final.calendar_time
    z = {k: getattr(inputs, k) for k in ("z_pfs_interim", "z_os_interim",
                                         "z_pfs_final", "z_os_final")}

    yes = {True: "yes", False: "no"}
    print(f"procedure        {design.procedure}")
    print(f"interim cutoff   t={t_interim:.4f}  ({targets.d_pfs} pfs events)")
    print(f"final cutoff     t={t_final:.4f}  ({targets.d_os} os events)")
    print("z values         " + "  ".join(f"{k}={v:.4f}" for k, v in z.items()))
    print(f"os information   {inputs.os_fraction_interim:.4f}")
    print("correlation matrix (pfs@interim, os@interim, pfs@final, os@final)")
    print(_format_matrix(inputs.covariance.corr))
    if outcome.inflation_factors:
        print("inflation        " + "  ".join(
            f"{k}={v:.5f}" for k, v in sorted(outcome.inflation_factors.items())))
    print(f"case             {outcome.case_label}")
    print(f"reject global    {yes[outcome.rejected_global]}")
    print(f"reject pfs       {yes[outcome.rejected_pfs]}")
    print(f"reject os        {yes[outcome.rejected_os]}"
          + (f"  (at {outcome.analysis_of_os_rejection})"
             if outcome.rejected_os else ""))
    print(f"early stop       {yes[outcome.early_stop]}")

    print("---")
    report = {"procedure": design.procedure,
              "interim_time": f"{t_interim:.6f}",
              "final_time": f"{t_final:.6f}",
              **{k: f"{v:.6f}" for k, v in z.items()},
              **{k: f"{inputs.covariance.correlation(i, j):.6f}"
                 for k, (i, j) in _REPORTED_CORRELATIONS.items()},
              **{k: f"{v:.6f}" for k, v in sorted(outcome.inflation_factors.items())},
              "case": outcome.case_label,
              "rejected_global": int(outcome.rejected_global),
              "rejected_pfs": int(outcome.rejected_pfs),
              "rejected_os": int(outcome.rejected_os),
              "early_stop": int(outcome.early_stop)}
    for key, value in report.items():
        print(f"{key}={value}")
    return EXIT_OK


def cmd_plan(args) -> int:
    config = load_config(args.config)
    _check_keys(config, ("scenario", "design", "plan", "execution"), "config")
    overrides = _parse_procedures(args.procedures) if args.procedures else None
    designs = _designs_from_config(config.get("design"), overrides)
    if len(designs) != 1:
        raise ConfigError("plan needs exactly one procedure")
    scenario = _scenario_from_config(config.get("scenario"))

    plan_block = _mapping(config.get("plan"), "plan")
    _check_keys(plan_block, ("target_power", "bracket"), "plan")
    target = _number(plan_block, "target_power", "plan", required=True)
    bracket = plan_block.get("bracket")
    if bracket is not None:
        if not isinstance(bracket, list) or len(bracket) != 2:
            raise ConfigError("'plan.bracket' must be [low, high]")
        bracket = tuple(_entries(plan_block, "bracket", "plan", _integer))

    execution = _execution(config, args)
    n_reps = execution["n_reps"] if execution["n_reps"] is not None else 10000
    result = plan_events(scenario, designs[0], target, n_reps,
                         execution["seed"], workers=execution["workers"],
                         bracket=bracket)

    se = (result.power * (1.0 - result.power) / n_reps) ** 0.5
    print(f"procedure        {designs[0].procedure}")
    print(f"scenario         {scenario.name}")
    print(f"target power     {result.target_power:.4f}")
    print(f"calibrated d_os  {result.d_os}  (d_pfs fixed at {result.d_pfs})")
    print(f"power at d_os    {result.power:.4f}  (mc se {se:.4f}, "
          f"{n_reps} reps per evaluation)")
    print("evaluations")
    for d_os in sorted(result.evaluations):
        print(f"  d_os={d_os:4d}  power={result.evaluations[d_os]:.4f}")
    if execution["out"]:
        lines = ["d_os,power"]
        lines += [f"{d},{result.evaluations[d]:.6f}"
                  for d in sorted(result.evaluations)]
        lines.append(f"# selected={result.d_os}")
        _write_output(execution["out"], "\n".join(lines) + "\n")
        print(f"wrote {execution['out']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duosurv",
        description="Group-sequential closed testing of PFS and OS: "
                    "simulation experiments, single-trial analysis and "
                    "event-number planning.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_out=True):
        p.add_argument("--config", required=True, help="YAML configuration")
        p.add_argument("--seed", type=int, help="override execution.seed")
        p.add_argument("--n-reps", type=int, dest="n_reps",
                       help="override execution.n_reps")
        p.add_argument("--workers", type=int,
                       help=f"worker processes (default from {WORKERS_ENV})")
        p.add_argument("--procedures",
                       help="comma-separated procedure ids, e.g. bon,ex/last")
        if with_out:
            p.add_argument("--out", help="output file (default stdout)")

    sim = sub.add_parser("simulate", help="run replicated experiments")
    common(sim)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="test decisions for one dataset")
    ana.add_argument("--data", required=True, help="cohort text file")
    ana.add_argument("--config", required=True, help="YAML design/targets")
    ana.add_argument("--procedures", help="override the config procedure")
    ana.set_defaults(func=cmd_analyze)

    plan = sub.add_parser("plan", help="calibrate the OS event target")
    common(plan)
    plan.set_defaults(func=cmd_plan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DuosurvError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

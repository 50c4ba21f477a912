"""End-to-end CLI behaviour through in-process ``main`` calls."""

import os

import numpy as np
import pytest

from duosurv import cli, harness
from duosurv.multistate import TransitionIntensities


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


STEEP_SCENARIO = """\
scenario:
  name: steep
  control: [0.5, 0.8, 0.8]
  experimental_target: [0.05, 0.1, 0.1]
  per_arm_rate: 25
  max_per_arm: 40
  dropout_rate: 0.0
  d_pfs: 10
  d_os: 25
"""


def simulate_config(tmp_path, procedures="[bon, os]", extra=""):
    return write(tmp_path / "sim.yaml", STEEP_SCENARIO + f"""\
mode: single
design:
  procedures: {procedures}
execution:
  n_reps: 30
  seed: 5
{extra}""")


def make_cohort_text(n=24, seed=99):
    rng = np.random.default_rng(seed)
    lines = ["# arm entry t_pfs t_os dropout"]
    for k in range(n):
        arm = k % 2
        entry = k / 8.0
        t_pfs = float(rng.choice([0.25, 0.5, 0.75, 1.0, 1.5, 2.0]))
        t_os = t_pfs + float(rng.choice([0.25, 0.5, 1.0, 1.5]))
        lines.append(f"{arm} {entry} {t_pfs} {t_os} 64.0")
    return "\n".join(lines) + "\n"


ANALYZE_CONFIG = """\
design:
  procedures: [ex_gs_last]
targets:
  d_pfs: 8
  d_os: 14
"""


def parse_report(stdout):
    """key=value block after the --- separator."""
    block = stdout.split("---\n", 1)[1]
    out = {}
    for line in block.strip().splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


def test_simulate_writes_csv_to_stdout(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", simulate_config(tmp_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("scenario,procedure,n_reps,")
    assert len(lines) == 3
    assert lines[1].split(",")[:3] == ["steep", "bon", "30"]
    assert lines[2].split(",")[1] == "os"


def test_simulate_worker_count_does_not_change_output(tmp_path, capsys):
    cfg = simulate_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(b),
                     "--workers", "2"]) == 0
    assert "wrote" in capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()


def test_simulate_flag_overrides_and_normalization(tmp_path, capsys):
    cfg = simulate_config(tmp_path)
    rc = cli.main(["simulate", "--config", cfg, "--n-reps", "10",
                   "--procedures", "BON, EX/GS/LAST"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split(",")[1] for l in lines[1:]] == ["bon", "ex_gs_last"]
    assert all(l.split(",")[2] == "10" for l in lines[1:])


def test_simulate_fwer_mode(tmp_path, capsys):
    cfg = write(tmp_path / "fwer.yaml", """\
mode: fwer
scenario:
  model: 1
  sizes: [128]
design:
  procedures: [bon]
execution:
  n_reps: 20
  seed: 7
""")
    assert cli.main(["simulate", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "m1_null_n128"
    assert lines[2].split(",")[0] == "m1_null_n128_frailty"


def test_simulate_power_mode(tmp_path, capsys):
    cfg = write(tmp_path / "power.yaml", """\
mode: power
scenario:
  model: 1
  weights: [0.9, 1.0]
design:
  procedures: [os, bon]
execution:
  n_reps: 5
  seed: 7
""")
    assert cli.main(["simulate", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [tuple(l.split(",")[:2]) for l in lines[1:]] == [
        ("m1_power_w090", "os"), ("m1_power_w090", "bon"),
        ("m1_power_w100", "os"), ("m1_power_w100", "bon")]


def builder_config(tmp_path, scenario, mode="single", n_reps=5):
    """A table-model ``simulate`` config around the ``scenario`` lines."""
    return write(tmp_path / "builder.yaml", f"""\
mode: {mode}
scenario:
  model: 1
{scenario}design:
  procedures: [bon, ex_last, os]
execution:
  n_reps: {n_reps}
  seed: 3
""")


@pytest.mark.parametrize("kind", ["null", "'null'"])
def test_simulate_null_kind_quoted_or_not(tmp_path, capsys, kind):
    cfg = builder_config(tmp_path, f"  kind: {kind}\n  n_total: 128\n")
    assert cli.main(["simulate", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["m1_null_n128"] * 3


FRAILTY_FORMS = {"single": "  kind: power\n  frailty: {frailty}\n",
                 "power": "  weights: [1.0]\n  frailty: {frailty}\n"}


@pytest.mark.parametrize("mode", sorted(FRAILTY_FORMS))
def test_builder_frailty_spec_is_validated(tmp_path, capsys, monkeypatch,
                                           mode):
    def no_run(*args, **kwargs):
        pytest.fail("an invalid frailty is rejected before any replication")

    monkeypatch.setattr(harness, "_run_chunk", no_run)
    cfg = builder_config(tmp_path, FRAILTY_FORMS[mode].format(
        frailty="{shape: 0}"), mode)
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "frailty shape" in capsys.readouterr().err


@pytest.mark.parametrize("mode", sorted(FRAILTY_FORMS))
def test_builder_frailty_spec_is_used(tmp_path, capsys, mode):
    csv = {}
    for frailty in ("true", "{shape: 2, rate: 2}", "{shape: 10, rate: 10}"):
        cfg = builder_config(tmp_path, FRAILTY_FORMS[mode].format(
            frailty=frailty), mode, n_reps=20)
        assert cli.main(["simulate", "--config", cfg]) == 0
        csv[frailty] = capsys.readouterr().out
    assert csv["true"] != csv["{shape: 2, rate: 2}"]
    # the default spec spelled out is the plain flag
    assert csv["true"] == csv["{shape: 10, rate: 10}"]


@pytest.mark.parametrize("mode, scenario", [
    ("fwer", "  sizes: [128, 127]\n"),
    ("power", "  weights: [1.0, 1.5]\n"),
], ids=["fwer_sizes", "power_weights"])
def test_every_scenario_is_built_before_the_first_run(tmp_path, capsys,
                                                      monkeypatch, mode,
                                                      scenario):
    def no_run(*args, **kwargs):
        pytest.fail("a bad scenario is rejected before any replication")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.setattr(harness, "_run_chunk", no_run)
    cfg = builder_config(tmp_path, scenario, mode)
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def _dead_worker(*args):
    os._exit(1)


def test_crashed_worker_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    # two CPUs, so the replications really go to a process pool
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "_run_chunk", _dead_worker)
    cfg = simulate_config(tmp_path)
    assert cli.main(["simulate", "--config", cfg, "--workers", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: WorkerCrash:")
    assert "scenario steep" in err


def test_explicit_weight_interpolates_arm_1():
    block = {"control": [0.10, 0.40, 0.30],
             "experimental_target": [0.06, 0.30, 0.30],
             "per_arm_rate": 25, "max_per_arm": 40, "d_pfs": 10, "d_os": 25}
    full = cli._scenario_from_config(block).model
    assert full.control == TransitionIntensities(0.10, 0.40, 0.30)
    assert full.experimental == TransitionIntensities(0.06, 0.30, 0.30)

    half = cli._scenario_from_config({**block, "weight": 0.5}).model
    assert half.experimental.lambda_01 == pytest.approx(0.08)
    assert half.experimental.lambda_02 == pytest.approx(0.35)
    assert half.experimental.lambda_12 == pytest.approx(0.30)

    none = cli._scenario_from_config({**block, "weight": 0}).model
    assert none.experimental == none.control

    # without a target arm 1 follows the control at any weight
    del block["experimental_target"]
    alone = cli._scenario_from_config({**block, "weight": 0.5}).model
    assert alone.experimental == alone.control


@pytest.mark.parametrize("mutation, fragment", [
    ("mode: telescope", "mode"),
    ("unexpected_key: 1", "unknown key"),
    ("design:\n  procedures: [bon, bon]", "duplicate"),
    ("design:\n  procedures: [holm]", "unknown procedure"),
])
def test_simulate_config_errors(tmp_path, capsys, mutation, fragment):
    cfg = write(tmp_path / "bad.yaml", STEEP_SCENARIO + f"""\
execution:
  n_reps: 5
{mutation}
""")
    rc = cli.main(["simulate", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert fragment in err


@pytest.mark.parametrize("command, text, key", [
    ("simulate", "mode: fwer\nscenario:\n  model: 1\n  sizes: [abc]\n",
     "scenario.sizes"),
    ("simulate", "mode: power\nscenario:\n  model: 1\n  weights: [1.0, w]\n",
     "scenario.weights"),
    ("plan", STEEP_SCENARIO + "design:\n  procedures: [os]\nplan:\n"
     "  target_power: 0.6\n  bracket: [x, 60]\n", "plan.bracket"),
    ("simulate", STEEP_SCENARIO + "  frailty: {shape: abc}\n",
     "scenario.frailty.shape"),
])
def test_non_numeric_list_entries_are_config_errors(tmp_path, capsys,
                                                    command, text, key):
    cfg = write(tmp_path / "bad.yaml",
                text + "execution:\n  n_reps: 5\n  seed: 7\n")
    assert cli.main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key in err


@pytest.mark.parametrize("command, old, new, fragment", [
    ("simulate", "  d_os: 25\n", "  d_os: 25\n  frailty: {shape: 0}\n",
     "frailty shape"),
    ("simulate", "d_pfs: 10", "d_pfs: 0", "event targets"),
    ("simulate", "  d_os: 25\n", "  d_os: 25\n  weight: 1.5\n",
     "effect weight"),
    ("simulate", "experimental_target: [0.05, 0.1, 0.1]",
     "experimental_target: [0.0, 0.0, 0.1]\n  weight: 0",
     "positive exit intensity"),
    ("simulate", "per_arm_rate: 25", "per_arm_rate: -2", "recruitment rate"),
    ("analyze", "d_pfs: 8", "d_pfs: 0", "event targets"),
    ("simulate", "n_reps: 30", "n_reps: .inf", "'execution.n_reps' must be"),
    ("simulate", "  procedures: [bon, os]\n",
     "  procedures: [bon, os]\n  rho_pfs: .nan\n",
     "'design.rho_pfs' must be finite"),
    ("simulate", "  procedures: [bon, os]\n",
     "  procedures: [bon, os]\n  rho_os: 0.9\n", "sum to one"),
    ("simulate", "  procedures: [bon, os]\n",
     "  procedures: [bon, os]\n  rho_pfs: 1.0\n  rho_os: 0.0\n", "positive"),
    ("simulate", "  procedures: [bon, os]\n",
     "  procedures: [bon, os]\n  rho_os: .nan\n",
     "'design.rho_os' must be finite"),
    ("simulate", "dropout_rate: 0.0", "dropout_rate: .nan",
     "'scenario.dropout_rate' must be finite"),
    ("simulate", "control: [0.5, 0.8, 0.8]", "control: [.nan, 0.8, 0.8]",
     "'scenario.control' must be"),
], ids=["frailty_shape", "d_pfs", "weight", "target_at_weight_0",
        "per_arm_rate", "analyze_d_pfs", "n_reps_inf", "rho_pfs_nan",
        "rho_os_sum", "rho_os_zero", "rho_os_nan", "dropout_rate_nan",
        "control_nan"])
def test_out_of_range_model_values_are_config_errors(tmp_path, capsys, command,
                                                     old, new, fragment):
    if command == "simulate":
        argv = ["simulate", "--config", simulate_config(tmp_path)]
    else:
        argv = ["analyze", "--config", write(tmp_path / "an.yaml",
                                             ANALYZE_CONFIG),
                "--data", write(tmp_path / "trial.txt", make_cohort_text())]
    cfg = tmp_path / ("sim.yaml" if command == "simulate" else "an.yaml")
    text = cfg.read_text(encoding="utf-8")
    assert old in text
    cfg.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert fragment in err


def test_simulate_requires_n_reps(tmp_path, capsys):
    cfg = write(tmp_path / "bad.yaml", STEEP_SCENARIO + "mode: single\n")
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "n_reps" in capsys.readouterr().err


def test_missing_and_malformed_config_files(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    bad = write(tmp_path / "bad.yaml", "mode: [unclosed\n")
    assert cli.main(["simulate", "--config", bad]) == 2
    assert "malformed YAML" in capsys.readouterr().err
    binary = tmp_path / "binary.yaml"
    binary.write_bytes(b"\xffmode: single\n")
    assert cli.main(["simulate", "--config", str(binary)]) == 2
    assert "config error: cannot read config" in capsys.readouterr().err


def test_workers_env_variable(tmp_path, capsys, monkeypatch):
    cfg = simulate_config(tmp_path)
    monkeypatch.setenv(cli.WORKERS_ENV, "2")
    assert cli.main(["simulate", "--config", cfg, "--n-reps", "10"]) == 0
    capsys.readouterr()
    monkeypatch.setenv(cli.WORKERS_ENV, "abc")
    assert cli.main(["simulate", "--config", cfg, "--n-reps", "10"]) == 2
    assert cli.WORKERS_ENV in capsys.readouterr().err


def test_analyze_report_fields(tmp_path, capsys):
    data = write(tmp_path / "trial.txt", make_cohort_text())
    cfg = write(tmp_path / "an.yaml", ANALYZE_CONFIG)
    rc = cli.main(["analyze", "--data", data, "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    assert "procedure        ex_gs_last" in out
    assert "correlation matrix" in out
    report = parse_report(out)
    for key in ("procedure", "interim_time", "final_time", "z_pfs_interim",
                "z_os_interim", "z_pfs_final", "z_os_final",
                "pfs_interim_os_interim", "os_interim_os_final",
                "interim_joint", "case", "rejected_global", "rejected_pfs",
                "rejected_os", "early_stop"):
        assert key in report, key
    assert float(report["interim_time"]) < float(report["final_time"])
    assert report["rejected_global"] in ("0", "1")


def test_analyze_arm_flip_negates_z(tmp_path, capsys):
    text = make_cohort_text()
    data = write(tmp_path / "trial.txt", text)
    cfg = write(tmp_path / "an.yaml", ANALYZE_CONFIG)
    assert cli.main(["analyze", "--data", data, "--config", cfg,
                     "--procedures", "bon"]) == 0
    base = parse_report(capsys.readouterr().out)

    flipped_lines = []
    for line in text.splitlines():
        if line.startswith("#"):
            flipped_lines.append(line)
            continue
        parts = line.split()
        parts[0] = "1" if parts[0] == "0" else "0"
        flipped_lines.append(" ".join(parts))
    flipped = write(tmp_path / "flipped.txt", "\n".join(flipped_lines) + "\n")
    assert cli.main(["analyze", "--data", flipped, "--config", cfg,
                     "--procedures", "bon"]) == 0
    other = parse_report(capsys.readouterr().out)
    for key in ("z_pfs_interim", "z_os_interim", "z_os_final", "z_pfs_final"):
        assert float(other[key]) == pytest.approx(-float(base[key]), abs=2e-6)
    assert base["interim_time"] == other["interim_time"]


def test_analyze_overwhelming_benefit_stops_early(tmp_path, capsys):
    # arm 0 fails fast, arm 1 has no events at all: every statistic is
    # deeply negative and the exhaustive test settles everything at interim
    lines = []
    for k in range(20):
        t_pfs = 0.25 + (k % 4) * 0.25
        lines.append(f"0 {k * 0.125} {t_pfs} {t_pfs + 0.25} 1000.0")
        lines.append(f"1 {k * 0.125} 90.0 99.0 1000.0")
    data = write(tmp_path / "strong.txt", "\n".join(lines) + "\n")
    cfg = write(tmp_path / "an.yaml", """\
design:
  procedures: [ex_gs_first]
targets:
  d_pfs: 12
  d_os: 16
""")
    assert cli.main(["analyze", "--data", data, "--config", cfg]) == 0
    report = parse_report(capsys.readouterr().out)
    assert report["case"] == "1.1"
    assert report["rejected_global"] == "1"
    assert report["rejected_pfs"] == "1"
    assert report["rejected_os"] == "1"
    assert report["early_stop"] == "1"


def test_analyze_degenerate_variance_is_runtime_error(tmp_path, capsys):
    # arm 1 enters only after every early PFS event, so the interim log-rank
    # variance is exactly zero: reported as a runtime failure, no decision
    lines = [f"0 0.0 {1.0 + 0.125 * k} {30.0 + k} 1000.0" for k in range(10)]
    lines += [f"1 100.0 {1.0 + 0.125 * k} {2.0 + 0.125 * k} 1000.0"
              for k in range(10)]
    data = write(tmp_path / "degen.txt", "\n".join(lines) + "\n")
    cfg = write(tmp_path / "an.yaml", ANALYZE_CONFIG.replace("ex_gs_last",
                                                             "bon"))
    rc = cli.main(["analyze", "--data", data, "--config", cfg])
    assert rc == 3
    assert "error: DegenerateVariance" in capsys.readouterr().err


def test_analyze_requires_one_procedure_and_ordered_cutoffs(tmp_path, capsys):
    data = write(tmp_path / "trial.txt", make_cohort_text())
    two = write(tmp_path / "two.yaml",
                ANALYZE_CONFIG.replace("[ex_gs_last]", "[bon, rec]"))
    assert cli.main(["analyze", "--data", data, "--config", two]) == 2
    assert "exactly one procedure" in capsys.readouterr().err

    swapped = write(tmp_path / "sw.yaml", """\
design:
  procedures: [bon]
targets:
  d_pfs: 20
  d_os: 1
""")
    assert cli.main(["analyze", "--data", data, "--config", swapped]) == 2
    assert "not before final" in capsys.readouterr().err


def test_cohort_parsing_rules(tmp_path, capsys):
    cfg = write(tmp_path / "an.yaml", ANALYZE_CONFIG)
    bad_cols = write(tmp_path / "c.txt", "0 0.0 1.0 2.0\n")
    assert cli.main(["analyze", "--data", bad_cols, "--config", cfg]) == 2
    assert "expected 5 columns" in capsys.readouterr().err

    bad_arm = write(tmp_path / "a.txt", "2 0.0 1.0 2.0 5.0\n")
    assert cli.main(["analyze", "--data", bad_arm, "--config", cfg]) == 2
    assert "arm must be 0 or 1" in capsys.readouterr().err

    empty = write(tmp_path / "e.txt", "# only a comment\n\n")
    assert cli.main(["analyze", "--data", empty, "--config", cfg]) == 2
    assert "no patients" in capsys.readouterr().err

    not_num = write(tmp_path / "n.txt", "0 0.0 one 2.0 5.0\n")
    assert cli.main(["analyze", "--data", not_num, "--config", cfg]) == 2

    binary = tmp_path / "b.txt"
    binary.write_bytes(b"\xff" + make_cohort_text().encode())
    assert cli.main(["analyze", "--data", str(binary), "--config", cfg]) == 2
    assert "config error: cannot read dataset" in capsys.readouterr().err


@pytest.mark.parametrize("row, reason", [
    ("0 nan 1.0 2.0 5.0", "nan value"),
    ("1 0.5 1.0 nan 5.0", "nan value"),
    ("0 inf 1.0 2.0 5.0", "entry must be finite"),
    ("1 0.5 -1.0 2.0 5.0", "must not be negative"),
    ("0 0.5 1.0 -inf 5.0", "must not be negative"),
    ("1 0.5 1.0 2.0 -0.5", "must not be negative"),
    ("0 0.5 3.0 2.0 5.0", "t_pfs exceeds t_os"),
])
def test_bad_cohort_rows_are_config_errors(tmp_path, capsys, row, reason):
    lines = make_cohort_text().splitlines()
    lines[4] = row
    data = write(tmp_path / "c.txt", "\n".join(lines) + "\n")
    cfg = write(tmp_path / "an.yaml", ANALYZE_CONFIG)
    assert cli.main(["analyze", "--data", data, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{data}:5:" in err
    assert reason in err


def test_infinite_latent_times_and_dropout_are_allowed(tmp_path, capsys):
    text = make_cohort_text() + "1 0.0 inf inf inf\n0 0.0 1.0 inf 2.0\n"
    data = write(tmp_path / "c.txt", text)
    cfg = write(tmp_path / "an.yaml", ANALYZE_CONFIG)
    assert cli.main(["analyze", "--data", data, "--config", cfg]) == 0


def plan_config(tmp_path, target, bracket, n_reps=40):
    return write(tmp_path / "plan.yaml", STEEP_SCENARIO + f"""\
design:
  procedures: [os]
plan:
  target_power: {target}
  bracket: {bracket}
execution:
  n_reps: {n_reps}
  seed: 21
""")


def test_plan_reports_and_traces(tmp_path, capsys):
    cfg = plan_config(tmp_path, 0.6, "[15, 60]")
    trace = tmp_path / "trace.csv"
    rc = cli.main(["plan", "--config", cfg, "--out", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "calibrated d_os" in out
    assert "evaluations" in out
    selected = int(out.split("calibrated d_os")[1].split()[0])
    lines = trace.read_text().splitlines()
    assert lines[0] == "d_os,power"
    assert lines[-1] == f"# selected={selected}"
    assert all("," in l for l in lines[1:-1])
    assert 15 <= selected <= 60


@pytest.mark.parametrize("command, out_value, out_flag", [
    ("simulate", "true", None),
    ("simulate", "123", None),
    ("simulate", "[a, b]", None),
    ("plan", "true", None),
    ("simulate", None, "missing/x.csv"),
    ("plan", None, "missing/x.csv"),
])
def test_bad_output_paths_are_config_errors(tmp_path, capsys, monkeypatch,
                                            command, out_value, out_flag):
    def no_run(*args, **kwargs):
        pytest.fail("the output path is checked before any replication")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.setattr(cli, "plan_events", no_run)
    cfg = (simulate_config(tmp_path) if command == "simulate"
           else plan_config(tmp_path, 0.6, "[15, 60]", n_reps=10))
    argv = [command, "--config", cfg]
    if out_value is not None:
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write(f"  out: {out_value}\n")
        named = "execution.out"
    else:
        named = str(tmp_path / out_flag)
        argv += ["--out", named]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert named in err


def test_plan_unreachable_target_is_runtime_error(tmp_path, capsys):
    # both arms identical, so no event target can buy 90% power
    cfg = write(tmp_path / "null_plan.yaml", """\
scenario:
  name: flat
  control: [0.5, 0.8, 0.8]
  per_arm_rate: 25
  max_per_arm: 40
  dropout_rate: 0.0
  d_pfs: 10
  d_os: 25
design:
  procedures: [os]
plan:
  target_power: 0.9
  bracket: [15, 20]
execution:
  n_reps: 15
  seed: 21
""")
    trace = tmp_path / "trace.csv"
    rc = cli.main(["plan", "--config", cfg, "--out", str(trace)])
    assert rc == 3
    assert "error: NoSolution" in capsys.readouterr().err
    # checking the output path early leaves no file behind
    assert not trace.exists()


def test_plan_rejects_bad_bracket(tmp_path, capsys):
    cfg = plan_config(tmp_path, 0.6, "[15]")
    assert cli.main(["plan", "--config", cfg]) == 2
    assert "bracket" in capsys.readouterr().err


def test_bundled_configs_are_loadable():
    from importlib import resources

    import yaml
    root = resources.files("duosurv") / "configs"
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".yaml"))
    assert "scenario1_full.yaml" in names
    assert "scenario1_smoke.yaml" in names
    for name in names:
        cfg = yaml.safe_load((root / name).read_text(encoding="utf-8"))
        assert isinstance(cfg, dict)


def test_argparse_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["unknown-command"])
    capsys.readouterr()

"""Quick tests of the benchmark itself: every workload runs at a tiny size,
tracing leaves the outputs unchanged, and each output check rejects a
deliberately corrupted output.

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import METRIC_UNITS  # noqa: E402
from workloads import (REFERENCE_RATES, WORKLOADS, CheckFailed,  # noqa: E402
                       Pool, check_plan, parse_plan_trace)

TINY_REPS = {"power9": 4, "null_fwer": 2, "plan_ex_last": 20}
SEED = 5


def run_child(outdir: Path, workload: str, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(SEED), "--ops", "1", "--trace", str(trace),
         "--outdir", str(outdir), "--n-reps", str(TINY_REPS[workload])],
        check=True, timeout=300)
    return json.loads((outdir / "result.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny(request, tmp_path_factory):
    """One command of a workload, untraced and traced."""
    base = tmp_path_factory.mktemp(request.param)
    plain = run_child(base / "plain", request.param, 0)
    traced = run_child(base / "traced", request.param, 1)
    return request.param, base, plain, traced


def test_tiny_workload_runs_clean(tiny):
    _, _, plain, traced = tiny
    for result in (plain, traced):
        assert result["errors"] == []
        assert result["pool_errors"] == []
        assert [op["ok"] for op in result["ops"]] == [True]


def test_tracing_keeps_outputs_byte_identical(tiny):
    _, base, _, _ = tiny
    assert bench.same_outputs(base / "plain", base / "traced") == []
    assert (base / "traced" / "spans.csv").stat().st_size > 0


def test_traced_run_reports_every_layer(tiny):
    name, _, _, traced = tiny
    layers = traced["layers"]
    assert set(METRIC_UNITS) - set(layers) == {"trace.overhead_pct"}
    assert traced["unobserved"] == []
    assert layers["trace.unobserved_layers"] == 0
    assert layers["multistate.simulate_cohort.ms_per_rep"] > 0
    assert layers["mvnorm.solve_inflation.calls_per_rep"] > 0
    expected_cohorts = 1.0 if name != "plan_ex_last" else 2.0
    assert layers["multistate.simulate_cohort.calls_per_rep"] >= \
        expected_cohorts


def test_unobserved_shim_is_reported_not_fatal(monkeypatch):
    sys.path.insert(0, str(HERE.parent / "src"))
    import duosurv.harness
    from tracer import Tracer

    monkeypatch.delattr(duosurv.harness, "simulate_cohort")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unobserved == ["duosurv.harness.simulate_cohort"]
        metrics = tracer.metrics(requested_reps=1, commands=1)
    finally:
        tracer.uninstall()
    assert metrics["trace.unobserved_layers"] == 1
    assert metrics["multistate.simulate_cohort.calls_per_rep"] == 0


def _power9_output(tmp_path):
    """A command of the power9 workload and its real CSV output."""
    workload = WORKLOADS["power9"](TINY_REPS["power9"])
    outdir = tmp_path / "power9"
    run_child(outdir, "power9", 0)
    cmd = workload.command(0, 0, outdir)
    return workload, cmd, Path(cmd.out_path).read_text()


def _rewrite(cmd, text, changes):
    """Write ``text`` back with some fields of some rows replaced."""
    lines = text.splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        for key, value in changes.get(fields[1], {}).items():
            fields[header.index(key)] = value
        lines[i] = ",".join(fields)
    Path(cmd.out_path).write_text("\n".join(lines) + "\n")


def _rates(pfs, os_, conj):
    """A consistent set of rates: disjunctive = pfs + os - conjunctive."""
    return {"rej_pfs": pfs, "rej_os": os_, "conjunctive": conj,
            "disjunctive": f"{float(pfs) + float(os_) - float(conj):.6f}"}


def test_checks_accept_real_output_and_reject_corruptions(tmp_path):
    workload, cmd, text = _power9_output(tmp_path)
    workload.check(cmd, Pool(), run_cli=None)

    # a rate outside [0, 1]
    _rewrite(cmd, text, {"bon": _rates("1.200000", "0.400000", "0.050000")})
    with pytest.raises(CheckFailed, match="outside"):
        workload.check(cmd, Pool(), run_cli=None)

    # rec rejects OS more often than ex_last on the same cohorts
    _rewrite(cmd, text, {
        "bon": _rates("0.100000", "0.400000", "0.050000"),
        "rec": _rates("0.100000", "0.900000", "0.050000"),
        "ex_last": _rates("0.100000", "0.500000", "0.050000")})
    with pytest.raises(CheckFailed, match="rej_os: rec"):
        workload.check(cmd, Pool(), run_cli=None)

    # disjunctive != rej_pfs + rej_os - conjunctive
    _rewrite(cmd, text, {"ex_first": {
        "rej_pfs": "0.000000", "rej_os": "0.500000",
        "conjunctive": "0.000000", "disjunctive": "0.000000"}})
    with pytest.raises(CheckFailed, match="disjunctive"):
        workload.check(cmd, Pool(), run_cli=None)

    # a single-look procedure that stops early
    _rewrite(cmd, text, {"os": {"early_stop": "0.250000"}})
    with pytest.raises(CheckFailed, match="stops early"):
        workload.check(cmd, Pool(), run_cli=None)


def test_pooled_rate_far_from_reference_is_rejected():
    pool = Pool()
    for proc, key, want in REFERENCE_RATES:
        pool.add((proc, key), want, 2000)
    assert WORKLOADS["power9"]().check_pool(pool) == []
    pool.add(("bon", "rej_os"), 0.5, 2000)
    assert len(WORKLOADS["power9"]().check_pool(pool)) == 1

    null = Pool()
    null.add(("ex_last", "disjunctive", False), 0.025, 1000)
    null.add(("os", "rej_os", True), 0.08, 1000)
    errors = WORKLOADS["null_fwer"]().check_pool(null)
    assert len(errors) == 1 and "os" in errors[0]


def test_plan_check_rejects_a_target_that_misses_the_power_goal():
    selected, curve = parse_plan_trace(
        "d_os,power\n441,0.700000\n589,0.790000\n590,0.810000\n"
        "591,0.820000\n630,0.840000\n# selected=590\n")
    check_plan(selected, curve, 0.80)
    with pytest.raises(CheckFailed, match="misses target"):
        check_plan(589, curve, 0.80)
    with pytest.raises(CheckFailed, match="already reaches"):
        check_plan(591, curve, 0.80)
    with pytest.raises(CheckFailed, match="never evaluated"):
        check_plan(600, curve, 0.80)


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    copy = tmp_path / "benchmarks"
    copy.mkdir()
    for name in ("run.py", "child.py", "workloads.py", "tracer.py"):
        (copy / name).write_bytes((HERE / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "power9",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Apply each mutant of a fixed table to a copy of the tree and check that
the fast tests named for it fail.

A mutant names a file, an exact old text, the text that replaces it and
the tests expected to fail (pytest paths: a file, or a file and a test).
The tool copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary
directory and first runs every named test on the unmutated copy, which
must pass.  Then, one mutant at a time, it applies the mutant, runs its
tests with ``-m "not slow"`` and restores the file.  A mutant is killed
when pytest reports a failed test; a clean pass means it survived, and
any other pytest outcome (say, an import error) is reported as broken.

The tool exits 1 if a mutant survives or breaks, or if an old text does
not occur exactly once in its file: the change that moved the code then
ports the mutant.

    python tools/mutants.py             # every mutant, about 15 s each

Left out: ``XI_TOL`` loosened 100-fold.  Under the Newton solver that
mutant is equivalent: over 600 model-shaped solves the inflation factors
moved by at most 3.7e-10, far inside every test tolerance, so no test can
kill it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    killers: tuple


MUTANTS = (
    # the closed-test rules
    Mutant("bon_budget_full_alpha", "src/duosurv/testing.py",
           "return self.level_os if self.procedure in _BONFERRONI "
           "else self.alpha",
           "return self.alpha",
           ("tests/test_properties.py",)),
    Mutant("first_step_gated_on_gs", "src/duosurv/testing.py",
           "(self.procedure in _FIRST or tau >= 1.0)",
           "(self.procedure in _FIRST and self.is_group_sequential "
           "or tau >= 1.0)",
           ("tests/test_properties.py",)),
    Mutant("level_os_half_alpha", "src/duosurv/testing.py",
           "return self.alpha - self.level_pfs",
           "return self.alpha / 2",
           ("tests/test_properties.py",)),
    Mutant("first_step_only_at_tau_1", "src/duosurv/testing.py",
           "(self.procedure in _FIRST or tau >= 1.0)",
           "(tau >= 1.0)",
           ("tests/test_properties.py",)),
    Mutant("interim_elementary_check_dropped", "src/duosurv/testing.py",
           "at_interim = zo1 <= ndtri(test.e1)",
           "at_interim = np.zeros_like(case1)",
           ("tests/test_properties.py",)),
    Mutant("final_3x3_p1o2_o1o2_swapped", "src/duosurv/testing.py",
           "[one, x.r_p1o2, x.r_o1o2],\n"
           "                [x.r_p1o2, one, x.r_p1o1],\n"
           "                [x.r_o1o2, x.r_p1o1, one],",
           "[one, x.r_o1o2, x.r_p1o2],\n"
           "                [x.r_o1o2, one, x.r_p1o1],\n"
           "                [x.r_p1o2, x.r_p1o1, one],",
           ("tests/test_testing.py::test_ex_gs_case2_threshold_and_gate",)),
    Mutant("solve_cache_dropped", "src/duosurv/testing.py",
           "xi = inputs.solves.setdefault(key, np.full(len(inputs), np.nan))",
           "xi = np.full(len(inputs), np.nan)",
           ("tests/test_harness.py::"
            "test_procedures_of_one_trial_share_inflation_solves",)),
    # the statistics -> thresholds boundary
    Mutant("r_p1o2_reads_final_pfs", "src/duosurv/harness.py",
           "r_p1o2=corr[ok, 0, 3]",
           "r_p1o2=corr[ok, 0, 2]",
           ("tests/test_harness.py::"
            "test_analysis_inputs_hold_the_interim_pfs_and_os_correlations",)),
    Mutant("r_p1o2_r_o1o2_swapped", "src/duosurv/harness.py",
           "r_p1o2=corr[ok, 0, 3],\n        r_o1o2=corr[ok, 1, 3],",
           "r_p1o2=corr[ok, 1, 3],\n        r_o1o2=corr[ok, 0, 3],",
           ("tests/test_harness.py::"
            "test_analysis_inputs_hold_the_interim_pfs_and_os_correlations",)),
    # the orthant kernel and the solver
    Mutant("beta_product_rule", "src/duosurv/mvnorm.py",
           "beta = np.where(np.signbit(h) != np.signbit(k), 0.5, 0.0)",
           "beta = np.where((h * k < 0.0) | ((h * k == 0.0) & (h + k < 0.0)),"
           " 0.5, 0.0)",
           ("tests/test_mvnorm.py::test_bivariate_independence_factorizes",
            "tests/test_mvnorm.py::"
            "test_bivariate_zero_thresholds_arcsine_identity")),
    Mutant("beta_ignores_signed_zeros", "src/duosurv/mvnorm.py",
           "beta = np.where(np.signbit(h) != np.signbit(k), 0.5, 0.0)",
           "beta = np.where((h < 0.0) != (k < 0.0), 0.5, 0.0)",
           ("tests/test_mvnorm.py::test_bivariate_independence_factorizes",)),
    Mutant("newton_slope_sign", "src/duosurv/mvnorm.py",
           "total = total + levels[:, k] * _conditional_upper(b, corr, k)",
           "total = total - levels[:, k] * _conditional_upper(b, corr, k)",
           ("tests/test_mvnorm.py::test_inflation_solver_work",)),
    # blocks of trials
    Mutant("solved_factors_reversed", "src/duosurv/testing.py",
           "mvnorm.solve_inflation(*(a[todo] for a in problem))",
           "mvnorm.solve_inflation(*(a[todo] for a in problem))[::-1]",
           ("tests/test_testing.py::"
            "test_a_block_decides_each_trial_as_alone",)),
    Mutant("solve_cache_keyed_by_shapes", "src/duosurv/testing.py",
           "key = tuple(np.ascontiguousarray(a).tobytes() for a in problem)",
           "key = tuple(np.shape(a) for a in problem)",
           ("tests/test_exact_law.py::test_fwer_under_the_partial_nulls",)),
    Mutant("newton_stops_at_first_converged_row", "src/duosurv/mvnorm.py",
           "if not rows.size:\n            return out",
           "if rows.size < len(out):\n            return out",
           ("tests/test_mvnorm.py::"
            "test_a_block_of_problems_gives_the_factors_of_its_rows",)),
    # the statistics and the cohort
    Mutant("c12_c21", "src/duosurv/logrank.py",
           "c11, c12, c21, c22 = (",
           "c11, c21, c12, c22 = (",
           ("tests/test_logrank.py::"
            "test_covariance_matrix_layout_and_symmetry",)),
    Mutant("tie_group_ge", "src/duosurv/logrank.py",
           "np.greater(xs[:, 1:], xs[:, :-1], out=first[:, 1:])",
           "np.greater_equal(xs[:, 1:], xs[:, :-1], out=first[:, 1:])",
           ("tests/test_acceptance.py::"
            "test_criterion_4_statistics_match_brute_force_oracles",)),
    Mutant("event_dates_endpoint_unchecked", "src/duosurv/trialdata.py",
           "    _check_endpoint(endpoint)\n    t = cohort.t_pfs",
           "    t = cohort.t_pfs",
           ("tests/test_trialdata.py::"
            "test_event_cutoffs_reject_an_unknown_endpoint",)),
    Mutant("event_on_cutoff_excluded", "src/duosurv/trialdata.py",
           "d = _event_dates(cohort, endpoint) <= t",
           "d = _event_dates(cohort, endpoint) < t",
           ("tests/test_trialdata.py::"
            "test_event_on_cutoff_date_is_included",)),
    Mutant("frailty_divides_dropout", "src/duosurv/multistate.py",
           "cohort.t_os / gamma, cohort.dropout)",
           "cohort.t_os / gamma, cohort.dropout / gamma)",
           ("tests/test_multistate.py::"
            "test_frailty_divides_event_times_and_nothing_else",)),
    # blocks of cohorts
    Mutant("arm1_at_risk_counts_absent_patients", "src/duosurv/logrank.py",
           "zs &= (np.arange(width) < n_present[:, None]).ravel()",
           "pass",
           ("tests/test_logrank.py::"
            "test_block_rows_match_the_oracles_whatever_their_padding",)),
    Mutant("row_sums_pairwise_over_padding", "src/duosurv/logrank.py",
           "np.cumsum(pfs[:, :width] * os_[:, :width], axis=1)[:, -1]",
           "(pfs[:, :width] * os_[:, :width]).sum(axis=1)",
           ("tests/test_harness.py::"
            "test_chunk_and_block_bounds_change_no_decision_and_no_factor",)),
    # the interim half shared by the candidates of a plan
    Mutant("interim_sums_scaled_by_a_fixed_n_ref", "src/duosurv/logrank.py",
           "results = [LogrankResult(interim.score[k] / np.sqrt(n_ref),\n"
           "                             interim.info[k] / n_ref,",
           "results = [LogrankResult(interim.score[k] / np.sqrt("
           "interim.resid.shape[2]),\n"
           "                             interim.info[k] / "
           "interim.resid.shape[2],",
           ("tests/test_harness.py::"
            "test_analysis_inputs_hold_the_interim_pfs_and_os_correlations",)),
    Mutant("sub_block_reads_another_interim", "src/duosurv/harness.py",
           "held = None if kept is None else kept.get(low)",
           "held = None if kept is None else kept.get(first)",
           ("tests/test_harness.py::"
            "test_a_plan_reads_each_candidate_as_a_standalone_reduction",)),
    Mutant("interim_rows_taken_by_position", "src/duosurv/harness.py",
           "curves = curves.take(np.searchsorted(interim.rows, rows))",
           "curves = curves.take(rows)",
           ("tests/test_harness.py::"
            "test_a_plan_reads_each_candidate_as_a_standalone_reduction",)),
    # the cohort columns kept from the first candidate of a plan
    Mutant("kept_columns_end_at_the_interim_cutoff", "src/duosurv/harness.py",
           "width = _span(cohort.entry <= t_final[:, None])",
           "width = _span(cohort.entry <= self.t[:, None])",
           ("tests/test_harness.py::"
            "test_a_plan_reads_each_candidate_as_a_standalone_reduction",)),
    Mutant("kept_columns_read_above_their_d_os", "src/duosurv/harness.py",
           "if held is None or d_os > held.d_os:",
           "if held is None:",
           ("tests/test_harness.py::"
            "test_a_plan_draws_each_cohort_once_up_to_its_first_candidate",)),
    Mutant("kept_grid_stored_per_row", "src/duosurv/harness.py",
           "self.grid = [np.array(c[0, :width])",
           "self.grid = [np.array(c[:, :width])",
           ("tests/test_harness.py::"
            "test_a_plan_keeps_16_bytes_per_cell_of_each_sub_blocks_interim_span",
            )),
    # the analyze report of a block of one
    Mutant("analyze_os_rejection_times_swapped", "src/duosurv/cli.py",
           'when = "interim" if decided["early_stop"] else "final"',
           'when = "final" if decided["early_stop"] else "interim"',
           ("tests/test_cli.py::"
            "test_analyze_overwhelming_benefit_stops_early",)),
)


def table_problems(root: Path = ROOT, mutants=MUTANTS) -> list:
    """Why the table does not fit the tree at ``root``: an old text that
    does not occur exactly once, or a named test that does not exist."""
    problems = []
    for m in mutants:
        count = (root / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times "
                            f"in {m.path}")
        for killer in m.killers:
            path, _, test = killer.partition("::")
            source = root / path
            if not source.is_file() or (
                    test and f"def {test}(" not in
                    source.read_text(encoding="utf-8")):
                problems.append(f"{m.name}: no test {killer}")
    return problems


def _pytest(tree: Path, targets) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-m", "not slow",
         "-p", "no:cacheprovider", *targets],
        cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def run(mutants) -> bool:
    """Whether every mutant is killed; prints one line per mutant."""
    with tempfile.TemporaryDirectory(prefix="duosurv-mutants-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", tree)

        targets = sorted({k for m in mutants for k in m.killers})
        if _pytest(tree, targets) != 0:
            print("the named tests fail on the unmutated tree")
            return False
        ok = True
        for m in mutants:
            source = tree / m.path
            original = source.read_text(encoding="utf-8")
            source.write_text(original.replace(m.old, m.new, 1),
                              encoding="utf-8")
            try:
                code = _pytest(tree, m.killers)
            finally:
                source.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(
                code, f"BROKEN (pytest exit {code})")
            print(f"{m.name:36s} {verdict}", flush=True)
            ok &= code == 1
    return ok


def main() -> int:
    problems = table_problems()
    for problem in problems:
        print(problem)
    if problems:
        return 1
    return 0 if run(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())

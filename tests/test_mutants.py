"""The mutant table of ``tools/mutants.py`` still fits the tree.

Running the mutants takes minutes and lives outside the suite; this only
checks that every old text occurs exactly once in its file and that every
named test exists, so the table cannot rot unnoticed.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
# a dataclass looks its module up in sys.modules
sys.modules["mutants"] = mutants
_spec.loader.exec_module(mutants)


def test_mutant_table_fits_the_tree():
    assert mutants.table_problems(ROOT) == []


def test_table_check_reports_a_moved_old_text_and_a_missing_test():
    moved = mutants.Mutant("moved", "src/duosurv/testing.py", "no such text",
                           "x", ("tests/test_testing.py",))
    missing = mutants.Mutant("missing", "src/duosurv/testing.py",
                             "def run_procedure(", "x",
                             ("tests/test_testing.py::test_no_such_test",))
    assert mutants.table_problems(ROOT, (moved, missing)) == [
        "moved: old text occurs 0 times in src/duosurv/testing.py",
        "missing: no test tests/test_testing.py::test_no_such_test"]

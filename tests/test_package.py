"""The public names each module of the package declares."""

import importlib
import pkgutil

import duosurv

DECLARING = ("harness", "logrank", "multistate", "mvnorm", "spending",
             "testing", "trialdata")


def test_every_name_in_each_module_all_resolves():
    declaring = set()
    for info in pkgutil.iter_modules(duosurv.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(f"duosurv.{info.name}")
        if hasattr(module, "__all__"):
            declaring.add(info.name)
            missing = [name for name in module.__all__
                       if not hasattr(module, name)]
            assert missing == [], info.name
    assert set(DECLARING) <= declaring

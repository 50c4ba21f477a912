"""Spending-function shapes, the elementary OS spending built on them, and
their validation."""

from functools import partial

import numpy as np
import pytest
from scipy.stats import norm

from duosurv.errors import ConfigError
from duosurv.spending import SPENDING_KINDS, SpendingFunction
from duosurv.testing import DesignSpec


def obf_reference(s, level):
    return 2.0 * norm.sf(norm.ppf(1.0 - 0.5 * level) / np.sqrt(s))


def test_full_at_one_releases_only_at_full_information():
    f = SpendingFunction("full_at_one")
    assert f.spend(0.0, 0.025) == 0.0
    assert f.spend(-1.0, 0.025) == 0.0
    assert f.spend(0.999, 0.025) == 0.0
    assert f.spend(1.0, 0.025) == 0.025
    # overshoot past the target clamps to fraction one
    assert f.spend(1.4, 0.025) == 0.025


def test_obf_shape_matches_reference_formula():
    f = SpendingFunction("obf_lan_demets")
    for s in (0.1, 0.3, 0.644, 0.9, 1.0):
        for level in (0.005, 0.02, 0.025):
            assert f.spend(s, level) == pytest.approx(
                obf_reference(s, level), abs=1e-14)
    # spends everything at fraction one
    assert f.spend(1.0, 0.02) == pytest.approx(0.02, abs=1e-12)
    assert f.spend(2.5, 0.02) == pytest.approx(0.02, abs=1e-12)
    # conservative early: the familiar steep O'Brien-Fleming start
    assert f.spend(0.644, 0.02) == pytest.approx(0.003718, abs=5e-5)
    assert f.spend(0.25, 0.025) < 1e-4


def test_spending_is_monotone_and_bounded():
    # the two shapes at level 0.025, and the elementary OS spending of the
    # exhaustive procedures, which spends alpha = 0.025 with a step
    spends = [partial(SpendingFunction(kind).spend, level=0.025)
              for kind in SPENDING_KINDS] + [
        DesignSpec(p).elementary_os_spend
        for p in ("ex_last", "ex_first", "ex_gs_last", "ex_gs_first")]
    taus = np.linspace(0.01, 1.3, 40)
    for spend in spends:
        values = [spend(t) for t in taus]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 0.025 + 1e-12 for v in values)
        assert values[-1] == pytest.approx(0.025, abs=1e-12)


def test_elementary_os_spend_adds_the_recycled_step():
    # tau <= 0 short-circuits, even for the step at time zero of _first
    for proc in ("ex_last", "ex_first", "ex_gs_last", "ex_gs_first"):
        assert DesignSpec(proc).elementary_os_spend(0.0) == 0.0
        assert DesignSpec(proc).elementary_os_spend(-0.5) == 0.0

    # _first: the step pa counts at any positive fraction
    first = DesignSpec("ex_first")
    assert first.elementary_os_spend(1e-12) == first.level_pfs
    assert first.elementary_os_spend(0.3) == first.level_pfs
    assert first.elementary_os_spend(1.0) == pytest.approx(0.025, abs=1e-15)

    # _last: nothing before fraction one, then the step plus the rest
    last = DesignSpec("ex_last")
    assert last.elementary_os_spend(0.3) == 0.0
    assert last.elementary_os_spend(0.999) == 0.0
    assert last.elementary_os_spend(1.0) == pytest.approx(0.025, abs=1e-15)
    assert last.elementary_os_spend(1.4) == pytest.approx(0.025, abs=1e-15)

    gs_first = DesignSpec("ex_gs_first")
    assert gs_first.elementary_os_spend(0.6) == pytest.approx(
        0.005 + obf_reference(0.6, 0.02), abs=1e-14)
    gs_last = DesignSpec("ex_gs_last")
    assert gs_last.elementary_os_spend(0.6) == pytest.approx(
        obf_reference(0.6, 0.02), abs=1e-14)
    assert gs_last.elementary_os_spend(1.0) == pytest.approx(0.025, abs=1e-12)


def test_construction_validation():
    assert set(SPENDING_KINDS) == {"full_at_one", "obf_lan_demets"}
    with pytest.raises(ConfigError, match="unknown spending kind"):
        SpendingFunction("pocock")


def test_spend_validation():
    with pytest.raises(ConfigError, match="must be non-negative"):
        SpendingFunction("obf_lan_demets").spend(0.5, -0.01)

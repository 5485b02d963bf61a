"""Shared binomial rows: a scan or CLI call computes each row once and reuses it.

Members built from one ``row_cache()`` must equal members built with fresh
rows, whatever order the specs come in, and no row may outlive its call.
"""

import sys

import pytest

from reciprodick import (
    FAMILIES,
    DomainError,
    FamilySpec,
    GF,
    THEOREM_IDS,
    Z,
    binomial,
    build,
    scan,
)
from reciprodick.classifier import RULE_TABLE
from reciprodick.families import row_cache

K_WINDOW = range(-5, 7)
RINGS = (Z, GF(2), GF(3), GF(13))


def _specs_interleaved(n_max):
    # descending n with the families alternating innermost, so that every
    # spec asks for different rows than the one before it
    for n in range(n_max, -1, -1):
        for k in K_WINDOW:
            for ring in RINGS:
                for family in FAMILIES:
                    if family == "dickson":
                        continue
                    try:
                        yield FamilySpec(family, n, k, ring)
                    except DomainError:
                        pass


def test_build_with_shared_rows_equals_fresh_build():
    rows = row_cache()
    checked = set()
    for spec in _specs_interleaved(80):
        assert build(spec, rows) == build(spec), spec
        checked.add(spec.family)
    assert checked == set(FAMILIES) - {"dickson"}


@pytest.mark.parametrize("rule", [t for t in THEOREM_IDS if RULE_TABLE[t].kind == "classification"])
def test_scan_observations_equal_fresh_builds(rule):
    verdicts = scan(rule, n_max=60)
    assert verdicts
    for v in verdicts:
        assert v.observed == build(v.spec).is_self_reciprocal(), v


def test_scan_computes_each_row_once_per_call(monkeypatch):
    # counts binomial calls wherever the package binds the function, so that
    # a builder calling it per coefficient is counted too
    calls = []

    def counting(n, m):
        calls.append((n, m))
        return binomial(n, m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "reciprodick" and vars(module).get("binomial") is binomial:
            monkeypatch.setattr(module, "binomial", counting)
    ns = range(100, 105, 2)  # T2_1 scans even n only
    two_rows = sum((n // 2 + 1) + ((n - 1) // 2 + 1) for n in ns)
    scan("T2_1", n_min=100, n_max=104, k_values=K_WINDOW)
    first = len(calls)
    assert 0 < first <= two_rows
    calls.clear()
    scan("T2_1", n_min=100, n_max=104, k_values=K_WINDOW)
    assert len(calls) == first  # no row survives from the first call

"""Shared binomial rows: a scan or CLI call computes each row once and reuses it.

Members built from one ``row_cache()`` must equal members built with fresh
rows, whatever order the specs come in, and no row may outlive its call.
Over GF(p) the rows of ``row_cache(GF(p))`` are read mod p; the members built
from them must equal the members built over Z and then reduced.
"""

import sys
from collections import Counter
from functools import lru_cache

import pytest

from reciprodick import (
    FAMILIES,
    CapacityError,
    DomainError,
    FamilySpec,
    GF,
    THEOREM_IDS,
    Z,
    binomial,
    binomial_row,
    build,
    scan,
)
from reciprodick.binomics import ROW_MOD_P_CAP
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
    scan("T2_1", n_min=100, n_max=104, k_values=K_WINDOW)
    # f reads the one row of n - 1, whose lower half binomial_row computes, once each
    assert Counter(calls) == {(n - 1, m): 1 for n in ns for m in range((n - 1) // 2 + 1)}
    first = len(calls)
    calls.clear()
    scan("T2_1", n_min=100, n_max=104, k_values=K_WINDOW)
    assert len(calls) == first  # no row survives from the first call


def _fp_specs(p, n_max):
    for n in range(n_max + 1):
        for k in range(p):
            for family in FAMILIES:
                if family == "dickson":
                    continue
                try:
                    yield FamilySpec(family, n, k, GF(p))
                except DomainError:
                    pass


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_fp_rows_build_the_reduced_members(p):
    # the reference is build(spec): rows over Z, reduced after the build;
    # memoizing binomial_row only saves recomputing the same Z rows
    z_rows = lru_cache(maxsize=None)(binomial_row)
    fp_rows = row_cache(GF(p))
    checked = set()
    for spec in _fp_specs(p, 300):
        assert build(spec, fp_rows) == build(spec, z_rows), spec
        checked.add(spec.family)
    assert checked == set(FAMILIES) - {"dickson"} - ({"fchar2"} if p > 2 else set())


def _count_rows(monkeypatch):
    # records (n, p) of every mod-p row and (n, m) of every binomial, wherever the package binds them
    from reciprodick.binomics import binomial_row_mod_p

    rows, entries = [], []

    def counting_row(n, p):
        rows.append((n, p))
        return binomial_row_mod_p(n, p)

    def counting_binomial(n, m):
        entries.append((n, m))
        return binomial(n, m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "reciprodick":
            if vars(module).get("binomial_row_mod_p") is binomial_row_mod_p:
                monkeypatch.setattr(module, "binomial_row_mod_p", counting_row)
            if vars(module).get("binomial") is binomial:
                monkeypatch.setattr(module, "binomial", counting_binomial)
    return rows, entries


def test_fp_scan_computes_each_row_once_per_call(monkeypatch):
    rows, entries = _count_rows(monkeypatch)
    primes = [3, 5, 7]
    ns = range(100, 105, 2)  # T3_1 scans even n only, every k < p per prime
    scan("T3_1", n_min=100, n_max=104, p_list=primes)
    # one mod-p row per (n, p), the row of n - 1
    assert Counter(rows) == {(n - 1, p): 1 for n in ns for p in primes}
    assert entries == []  # no member over GF(p) reads a row over Z
    first = len(rows)
    rows.clear()
    scan("T3_1", n_min=100, n_max=104, p_list=primes)
    assert len(rows) == first  # no row survives from the first call


def test_row_caps_admit_f_one_n_further_than_the_kinds():
    # f and its end copies read the row of n - 1 alone, the kinds the row of n
    n, ring = ROW_MOD_P_CAP + 1, GF(3)
    rows = row_cache(ring)
    for family in ("f", "gstar", "hstar"):
        assert build(FamilySpec(family, n, 1, ring), rows).degree <= n // 2
    for family in ("kind1", "kind2"):
        with pytest.raises(CapacityError, match=f"^the binomial row of n = {n} mod 3 is above ROW_MOD_P_CAP"):
            build(FamilySpec(family, n, 0, ring), rows)

"""Shared binomial rows: a scan or CLI call computes each row once and reuses it.

Over Z a call computes its first row entry by entry and builds each row one
or two above the last from it by Pascal's rule; the stepped rows must equal
the fresh ones on any walk of n, and refuse a row above ROW_CAP as the fresh
ones do.  Members built from one ``RowCache()`` must equal members built
with fresh rows, whatever order and ring the specs come in, and no row may
outlive its call.  A scan past a row cap is refused before any row is read.
Over GF(p) the rows of a ``RowCache`` are read mod p; the members built
from them, through every entry point that builds a GF(p) member, must equal
the members built over Z and then reduced, and none of them may read a row
over Z.  A GF(p) row is never stepped, so a call keeps only its last one,
and its memory does not grow with its primes.
"""

import random
import re
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache

import pytest

from reciprodick import (
    FAMILIES,
    CapacityError,
    DomainError,
    FamilySpec,
    GF,
    HypothesisError,
    KSet,
    Poly,
    THEOREM_IDS,
    Z,
    binomial,
    binomial_row,
    binomial_row_mod_p,
    build,
    check_corollary,
    coterm_construct,
    coterm_from_self_reciprocal,
    f_expanded_even,
    f_expanded_odd,
    f_family,
    is_prime,
    oracle_self_reciprocal,
    palindromic_ks,
    reduce_mod_p,
    scan,
)
from reciprodick import binomics, families
from reciprodick.binomics import ROW_MOD_P_CAP, next_binomial_row
from reciprodick.classifier import RULE_TABLE, _not_srim
from reciprodick.coterm_codes import COTERM_TABLE
from reciprodick.families import FAMILY_TABLE, RowCache

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
    rows = RowCache()
    checked = set()
    for spec in _specs_interleaved(80):
        assert build(spec, rows) == build(spec), spec
        checked.add(spec.family)
    assert checked == set(FAMILIES) - {"dickson"}


def _z_reference(spec: FamilySpec, z_rows=binomial_row):
    # the spec's member over Z, v + k*u from its table builder's pair read from rows over Z, then reduced mod p
    # over GF(p); fchar2 is f at k = 1
    family = "f" if spec.family == "fchar2" else spec.family
    v, u = FAMILY_TABLE[family].build(FamilySpec(family, spec.n, spec.k, Z, spec.a), z_rows)
    member = Poly(Z, [x + spec.k * y for x, y in zip(v, u)] if u else v)
    return member if spec.ring == Z else reduce_mod_p(member, spec.ring.p)


def test_one_cache_serves_every_ring_in_turn():
    # one RowCache reads f at n = 6 and 8 over GF(5), GF(3) and Z in turn, twice round: no ring's rows or pair
    # serve another ring's member
    rows = RowCache()
    for _ in range(2):
        for ring in (GF(5), GF(3), Z):
            for n in (6, 8):
                for k in range(3):
                    spec = FamilySpec("f", n, k, ring)
                    member = build(spec, rows)
                    assert member == build(spec) == _z_reference(spec), spec
    rows = RowCache()
    assert build(FamilySpec("f", 6, 1, GF(5)), rows).coeffs == (2, 0, 1, 1)
    assert build(FamilySpec("f", 6, 1, GF(3)), rows).coeffs == (1, 2, 0, 1)
    assert palindromic_ks("f", 8, GF(5), rows) == KSet(frozenset({0, 2}))
    assert palindromic_ks("f", 8, GF(3), rows) == KSet(frozenset({0, 2}))
    build(FamilySpec("f", 8, 1, GF(5)), rows)
    assert palindromic_ks("f", 8, GF(3), rows) == KSet(frozenset({0, 2}))


class _ForgedRows(RowCache):
    # build trusts a RowCache's pair to hold plain ints, so a subclass could hand it anything
    def pair(self, spec):
        return [1.5, "x"], []


@pytest.mark.parametrize("rows", [binomial_row, lambda n: binomial_row(n), _ForgedRows()],
                         ids=["binomial_row", "lambda", "subclass"])
@pytest.mark.parametrize("call", [
    lambda rows: build(FamilySpec("f", 6, 1, GF(3)), rows),
    lambda rows: oracle_self_reciprocal(FamilySpec("f", 6, 1, GF(3)), rows),
    lambda rows: palindromic_ks("f", 8, GF(3), rows),
], ids=["build", "oracle_self_reciprocal", "palindromic_ks"])
def test_rows_that_are_not_a_row_cache_are_refused(call, rows):
    with pytest.raises(DomainError, match="^rows must be a RowCache, got "):
        call(rows)


@pytest.mark.parametrize("rule", [t for t in THEOREM_IDS if RULE_TABLE[t].kind == "classification"])
def test_scan_observations_equal_fresh_builds(rule):
    verdicts = scan(rule, n_max=60)
    assert verdicts
    for v in verdicts:
        assert v.observed == _z_reference(v.spec).is_self_reciprocal(), v


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
    steps = []

    def counting_step(row):
        steps.append(len(row))  # the n of the row it builds
        return next_binomial_row(row)

    monkeypatch.setattr(families, "next_binomial_row", counting_step)
    # T2_1 scans even n only, and f reads the one row of n - 1: binomial_row computes the lower half of the
    # call's first row, 99, once each, and the rows 101 and 103 are stepped from it by Pascal's rule
    scan("T2_1", n_min=100, n_max=104, k_values=K_WINDOW)
    assert Counter(calls) == {(99, m): 1 for m in range(50)}
    assert steps == [100, 101, 102, 103]
    calls.clear()
    steps.clear()
    scan("T2_1", n_min=100, n_max=104, k_values=K_WINDOW)
    # no row survives from the first call: the second computes row 99 afresh
    assert Counter(calls) == {(99, m): 1 for m in range(50)}
    assert steps == [100, 101, 102, 103]


def _mixed_walk(n_max):
    # a seeded walk from 0 up to n_max that repeats, steps by 1 and 2, descends and jumps
    rng = random.Random(2016)
    walk = [0]
    while walk[-1] < n_max:
        walk.append(min(max(walk[-1] + rng.choice((-40, -3, -1, 0, 0, 1, 1, 1, 2, 2, 2, 3, 97)), 0), n_max))
    return walk


def _is_binomial_row(row, n):
    # the identities that fix the row of n: C(n, 0) = 1 and (m + 1) C(n, m + 1) = (n - m) C(n, m)
    return (len(row) == n + 1 and row[0] == 1
            and all(b * (m + 1) == a * (n - m) for m, (a, b) in enumerate(zip(row, row[1:]))))


_WALKS = {"+1": range(2001), "+2 even": range(0, 2001, 2), "+2 odd": range(1, 2001, 2), "mixed": _mixed_walk(2000)}


@pytest.mark.parametrize("walk", _WALKS)
def test_stepped_rows_equal_fresh_rows(walk):
    # rows up to 700 against binomial_row itself; above it, where fresh rows would take 35 s on a 2-core
    # Xeon for every n <= 2000, by the identities that fix the row, which binomial_row's rows satisfy too
    rows = RowCache()
    for n in _WALKS[walk]:
        row = rows.row(n, None)
        assert row == binomial_row(n) if n <= 700 else _is_binomial_row(row, n), n
    if walk == "mixed":
        moves = {b - a for a, b in zip(_WALKS[walk], _WALKS[walk][1:])}
        assert {-40, -3, -1, 0, 1, 2, 3, 97} <= moves  # every kind of move the cache tells apart


def test_the_identities_accept_binomial_rows_and_refuse_a_changed_entry():
    for n in (*range(60), 1999, 2000):
        assert _is_binomial_row(binomial_row(n), n)
        assert not _is_binomial_row(binomial_row(n)[:-1] + (2,), n)


def test_a_stepped_row_above_the_cap_is_refused(monkeypatch):
    # ROW_CAP is read at call time, and the refused step leaves the kept row as it was
    monkeypatch.setattr(binomics, "ROW_CAP", 50)
    with pytest.raises(CapacityError, match="^the binomial row of n = 51 is above ROW_CAP = 50$"):
        next_binomial_row(binomial_row(50))
    for start in (49, 50):
        rows = RowCache()
        assert rows.row(start, None) == binomial_row(start)
        with pytest.raises(CapacityError, match="^the binomial row of n = 51 is above ROW_CAP = 50$"):
            rows.row(51, None)
        assert rows.row(50, None) == binomial_row(50)


def test_a_scan_past_the_row_cap_is_refused_before_any_row(monkeypatch):
    # the largest member's row is checked first, with the text that member raises when built alone
    monkeypatch.setattr(binomics, "ROW_CAP", 100)
    calls = []
    monkeypatch.setattr(binomics, "binomial", lambda n, m: calls.append((n, m)))
    text = "^the binomial row of n = 109 is above ROW_CAP = 100$"
    with pytest.raises(CapacityError, match=text):
        build(FamilySpec("f", 110, 0))
    with pytest.raises(CapacityError, match=text):
        scan("T2_1", n_min=90, n_max=111)
    with pytest.raises(CapacityError, match="^the binomial row of n = 1000001 mod 3 is above ROW_MOD_P_CAP"):
        scan("T3_1", n_min=10**6 - 4, n_max=10**6 + 2, p_list=[3])
    with pytest.raises(CapacityError, match="^the binomial row of n = 1000001 mod 3 is above ROW_MOD_P_CAP"):
        scan("L1", n_min=10**6 - 4, n_max=10**6 + 2, p_list=[3])
    assert calls == []
    # a rule with side conditions checks the largest member they admit: p = 3 divides 1000008
    with pytest.raises(CapacityError, match="^the binomial row of n = 1000003 mod 3 is above ROW_MOD_P_CAP"):
        scan("C3_3", n_min=10**6 - 4, n_max=10**6 + 8, p_list=[3, 5])


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


def _refusing_binomial(monkeypatch):
    # makes binomial raise wherever the package binds it, so that any row over Z, or entry of one, fails
    def refused(n, m):
        raise AssertionError(f"a GF(p) member read C({n}, {m}) over Z")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "reciprodick" and vars(module).get("binomial") is binomial:
            monkeypatch.setattr(module, "binomial", refused)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_fp_rows_build_the_reduced_members(p, monkeypatch):
    # the reference is the member built over Z and reduced mod p; memoizing
    # binomial_row only saves recomputing the same Z rows
    ring = GF(p)
    z_rows = lru_cache(maxsize=None)(binomial_row)
    fp_rows = RowCache()
    checked = set()
    for spec in _fp_specs(p, 300):
        assert build(spec, fp_rows) == _z_reference(spec, z_rows), spec
        checked.add(spec.family)
    assert checked == set(FAMILIES) - {"dickson"} - ({"fchar2"} if p > 2 else set())
    # every entry point that builds a GF(p) member, dickson's aside, reads its rows mod p alone
    specs = list(_fp_specs(p, 200))
    reference = {(s.family, s.n, s.k): _z_reference(s, z_rows) for s in specs}
    _refusing_binomial(monkeypatch)
    for spec in specs:
        member = reference[spec.family, spec.n, spec.k]
        assert build(spec) == member, spec
        assert oracle_self_reciprocal(spec) == member.is_self_reciprocal(), spec
        if spec.family == "f":
            assert f_family(spec.n, spec.k, ring) == member, spec
            if spec.n > 1:
                expanded = (f_expanded_even, f_expanded_odd)[spec.n % 2]
                assert expanded(spec.n, spec.k, ring) == member, spec
        if spec.k == 0 and FAMILY_TABLE[spec.family].fixed_k is None:
            solved = palindromic_ks(spec.family, spec.n, ring)
            assert [k in solved for k in range(p)] == [
                reference[spec.family, spec.n, k].is_self_reciprocal() for k in range(p)], spec
    # the corollaries and coterm constructions over this ring, at every n their hypotheses admit
    checks = {"corollary": lambda t, spec, member: check_corollary(t, spec) == _not_srim(member),
              "coterm": lambda t, spec, member: (coterm_construct(t, spec.n, spec.k, ring)[:2]
                                                 == coterm_from_self_reciprocal(member))}
    ruled = set()
    for t, row in [*RULE_TABLE.items(), *COTERM_TABLE.items()]:
        if row.kind not in checks or not row.ring.holds(ring):
            continue
        family = row.families[0]
        for n in range(FAMILY_TABLE[family].n_min, 201):
            spec = FamilySpec(family, n, row.fixed_k, ring)
            try:
                agrees = checks[row.kind](t, spec, reference[family, n, row.fixed_k])
            except HypothesisError:
                continue
            assert agrees, (t, spec)
            ruled.add(t)
    assert ruled == ({"C4_2", "CHAR2"} if p == 2 else {"C3_2", "C3_3", "C3_5", "T5_7", "T5_8", "T5_9"})


def _count_rows(monkeypatch):
    # records (n, p) of every mod-p row and (n, m) of every binomial, wherever the package binds them; every
    # mod-p row, binomial_row_mod_p's and RowCache's, is made by binomial_row_mod_p's core
    from reciprodick.binomics import _binomial_row_mod_p

    rows, entries = [], []

    def counting_row(n, p):
        rows.append((n, p))
        return _binomial_row_mod_p(n, p)

    def counting_binomial(n, m):
        entries.append((n, m))
        return binomial(n, m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "reciprodick":
            if vars(module).get("_binomial_row_mod_p") is _binomial_row_mod_p:
                monkeypatch.setattr(module, "_binomial_row_mod_p", counting_row)
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


def test_fp_scan_and_build_prove_no_prime_per_row(monkeypatch):
    # a spec's Ring has proved its p prime, so a GF(p) row is read with no further prime test; each row
    # used to run binomial_row_mod_p's require_prime
    from reciprodick import ringpoly

    tests = []
    for module in (binomics, ringpoly):
        monkeypatch.setattr(module, "is_prime", lambda n, test=module.is_prime: tests.append(n) or test(n))
    rows, _ = _count_rows(monkeypatch)
    verdicts = scan("T3_1", n_min=2, n_max=60, p_list=[3, 5, 7])
    assert verdicts and len(rows) == 3 * 30
    assert sorted(tests) == [3, 5, 7]  # each listed prime once, by GF
    specs = [FamilySpec(family, n, k, ring) for ring in (GF(2), GF(3), GF(13))
             for family, k in (("f", 1), ("kind1", 0)) for n in range(1, 25)]
    specs += [FamilySpec("fchar2", n, 1, GF(2)) for n in range(1, 25)]
    tests.clear()
    rows.clear()
    shared = RowCache()
    for spec in specs:
        assert build(spec) == build(spec, shared)
    assert len(rows) > len(specs) and tests == []
    # binomial_row_mod_p itself still proves its p first
    assert binomial_row_mod_p(10, 3) == (1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1) and tests == [3]


@pytest.mark.parametrize("n, p, text", [
    (-1, 3, "binomial_row_mod_p requires n >= 0"),
    (5, 4, "4 is not prime"),
    (-1, 4, "4 is not prime"),  # p first, as binomial_row_mod_p refuses it
    (2.5, 3, "binomial_row_mod_p n must be an integer, got 2.5"),
    (-1, None, "binomial_row requires n >= 0"),
    (2.5, None, "binomial_row n must be an integer, got 2.5"),
])
def test_a_row_asked_of_the_cache_is_checked(n, p, text):
    # the public row checks n and p as binomial_row and binomial_row_mod_p do, whatever row it keeps;
    # only pair's rows skip the prime test
    for kept in (None, 2):
        rows = RowCache()
        if kept is not None:
            rows.row(kept, 3 if p is not None else None)
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            rows.row(n, p)
    assert RowCache().row(5, 3) == binomial_row_mod_p(5, 3) and RowCache().row(5, None) == binomial_row(5)


def test_fp_scan_memory_does_not_grow_with_the_primes():
    # a GF(p) row is never stepped, so a call keeps only its last one: 50 primes near n = 30000 peak
    # at about one row's size (2 MB); a row kept per prime would take over 20 MB
    primes = [p for p in range(257, 600) if is_prime(p)][:50]
    assert len(primes) == 50
    tracemalloc.start()
    try:
        verdicts = scan("T3_1", n_min=29998, n_max=30000, k_values=[0], p_list=primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(verdicts) == 2 * 50  # n = 29998 and 30000, k = 0
    assert peak < 5 * 10**6, peak


def test_row_caps_admit_f_one_n_further_than_the_kinds():
    # f and its end copies read the row of n - 1 alone, the kinds the row of n
    n, ring = ROW_MOD_P_CAP + 1, GF(3)
    rows = RowCache()
    for family in ("f", "gstar", "hstar"):
        assert build(FamilySpec(family, n, 1, ring), rows).degree <= n // 2
    for family in ("kind1", "kind2"):
        with pytest.raises(CapacityError, match=f"^the binomial row of n = {n} mod 3 is above ROW_MOD_P_CAP"):
            build(FamilySpec(family, n, 0, ring), rows)

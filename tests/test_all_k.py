"""Every k of a member at once: ``palindromic_ks`` against the per-k oracle.

The solver assumes one thing, that a member's coefficient list is affine in
k; ``test_members_are_affine_in_k`` checks that from ``build`` alone.  The
oracle (``oracle_self_reciprocal``, one build per k) stays the reference
that the solver and the scans that use it are compared with.
"""

import dataclasses
import os
import random
import sys
from collections import Counter

import pytest

from reciprodick import (
    DEFAULT_K_WINDOW,
    DomainError,
    FamilySpec,
    GF,
    KSet,
    Poly,
    Verdict,
    Z,
    build,
    check_corollary,
    coterm_construct,
    f_expanded_even,
    f_expanded_odd,
    f_family,
    f_kind,
    lemma_l1,
    oracle_self_reciprocal,
    palindromic_ks,
    reversed_dickson,
    scan,
)
from reciprodick import cli
from reciprodick.classifier import RULE_TABLE, _candidates, _not_srim, check_hypotheses
from reciprodick.families import FAMILY_TABLE, RowCache

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _free_k_members(n, dickson_as):
    # (family, a) of every family with a free k that admits n
    yield "f", 1
    if n >= 2 and n % 2 == 0:
        yield from (("g", 1), ("h", 1))
    if n >= 3 and n % 2 == 1:
        yield from (("gstar", 1), ("hstar", 1))
    for a in dickson_as:
        yield "dickson", a


def _rings_and_ks(z_ks):
    yield Z, z_ks
    for p in SMALL_PRIMES:
        yield GF(p), range(p)


@pytest.mark.parametrize("ring, ks", list(_rings_and_ks(DEFAULT_K_WINDOW)), ids=str)
def test_members_are_affine_in_k(ring, ks):
    # c(k) = c(0) + k*(c(1) - c(0)) coefficientwise, read over the ring
    rows = RowCache()
    for n in range(201):
        for family, a in _free_k_members(n, (1, 2, -3)):
            c0, c1 = (build(FamilySpec(family, n, k, ring, a), rows).coeffs for k in (0, 1))
            size = max(len(c0), len(c1))
            v, w = (c + (0,) * (size - len(c)) for c in (c0, c1))
            for k in ks:
                affine = Poly(ring, [x + k * (y - x) for x, y in zip(v, w)])
                assert build(FamilySpec(family, n, k, ring, a), rows) == affine, (family, n, k, ring, a)


@pytest.mark.parametrize("ring, ks", list(_rings_and_ks(range(-8, 13))), ids=str)
def test_solver_agrees_with_the_oracle_at_every_k(ring, ks):
    rows = RowCache()
    for n in range(301):
        for family, _ in _free_k_members(n, (1,)):
            solved = palindromic_ks(family, n, ring, rows)
            for k in ks:
                spec = FamilySpec(family, n, k, ring)
                assert (k in solved) == oracle_self_reciprocal(spec, rows), spec


def _every_k_but(*ks):
    return KSet(frozenset(ks), cofinite=True)


def test_the_paper_s_sets_over_every_integer_k():
    rows = RowCache()
    for n in range(2, 201):
        f = palindromic_ks("f", n, Z, rows)
        if n % 2 == 0:
            assert f == KSet(frozenset({0, 2})), n  # T2_1
            if n >= 6:
                for family in ("g", "h"):  # T2_3
                    assert palindromic_ks(family, n, Z, rows) == KSet(frozenset({0})), (family, n)
        else:
            if n >= 5:
                assert f == KSet(frozenset({1})), n  # T2_4
            if n >= 7:
                for family in ("gstar", "hstar"):  # T2_7
                    assert palindromic_ks(family, n, Z, rows) == KSet(frozenset({1})), (family, n)


@pytest.mark.parametrize("family, n, expected", [
    ("f", 3, KSet(frozenset({1, 3}))),
    ("g", 2, _every_k_but(2)),
    ("g", 4, _every_k_but(2)),
    ("h", 2, _every_k_but(-2)),
    ("h", 4, _every_k_but()),
    ("gstar", 3, _every_k_but(3)),
    ("hstar", 3, _every_k_but(-1)),
    ("gstar", 5, _every_k_but()),
    ("hstar", 5, _every_k_but()),
])
def test_short_interiors_in_closed_form(family, n, expected):
    assert palindromic_ks(family, n, Z) == expected


def test_a_huge_prime_solves_by_modular_inverses():
    p = 2**61 - 1
    assert palindromic_ks("f", 4, GF(p)) == KSet(frozenset({0, 2}))
    assert palindromic_ks("f", 3, GF(p)) == KSet(frozenset({1, 3}))
    assert palindromic_ks("g", 2, GF(p)) == _every_k_but(2)


@pytest.mark.parametrize("ring, ks", list(_rings_and_ks(range(-8, 13))), ids=str)
def test_solver_takes_dickson_s_a(ring, ks):
    rows = RowCache()
    for n in range(80):
        for a in (2, -3):
            solved = palindromic_ks("dickson", n, ring, rows, a)
            for k in ks:
                spec = FamilySpec("dickson", n, k, ring, a)
                assert (k in solved) == oracle_self_reciprocal(spec, rows), spec
            if ring.p is not None and a % ring.p == 0 and n % 2:
                # every coefficient carries a power of a: v and u are all zeros, trimmed together to nothing
                assert solved == KSet(), (n, ring, a)


def test_dickson_s_palindromic_set_depends_on_a_squared():
    # the x^i coefficient carries a^(n-2i), so the member at -a is (-1)^n times the member at a: the
    # palindromic set at a equals the set at -a, by membership over GF(p) and as equal KSets over Z
    for p in SMALL_PRIMES:
        ring = GF(p)
        rows = RowCache()
        for n in range(150):
            for a in range(1, p):
                at_a, at_minus_a = (palindromic_ks("dickson", n, ring, rows, b) for b in (a, -a))
                assert [k in at_a for k in range(p)] == [k in at_minus_a for k in range(p)], (n, p, a)
    rows = RowCache()
    for n in range(121):
        for a in range(1, 7):
            assert palindromic_ks("dickson", n, Z, rows, a) == palindromic_ks("dickson", n, Z, rows, -a), (n, a)


def test_a_belongs_to_dickson_alone():
    assert palindromic_ks("dickson", 4, Z, a=1) == palindromic_ks("dickson", 4, Z)
    with pytest.raises(DomainError, match="family 'f' takes no parameter a"):
        palindromic_ks("f", 4, Z, a=2)


def _synthetic_pairs(rng, p):
    # seeded (v, u) pairs of length 1 to 6 over Z (small entries) or GF(p), in the shapes the solver must get
    # right; k0 is the k* of the last three, the k that zeroes the top coefficient
    entry = (lambda: rng.randrange(p)) if p else (lambda: rng.randint(-3, 3))

    def palindrome(size):
        half = [entry() for _ in range((size + 1) // 2)]
        return half + half[: size // 2][::-1]

    for _ in range(150):
        size = rng.randint(1, 6)
        v, u = [entry() for _ in range(size)], [entry() for _ in range(size)]
        k0 = rng.randrange(p) if p else rng.randint(-5, 5)
        u_k0 = u[:-1] + [u[-1] or 1]  # a nonzero top, so that k0 is k*
        yield v, u
        yield palindrome(size), u
        yield v, palindrome(size)
        yield v[:-1] + [0], u[:-1] + [0]  # zero tops: the pair trims
        for at_k0 in (
            [0] * size,  # the member vanishes at k*
            palindrome(size - 1) + [0],  # at k* a palindrome of lower degree
            ([0] + [entry() for _ in range(size - 2)] + [0])[:size],  # the x^0 pair's root is k*
        ):
            yield [c - k0 * y for c, y in zip(at_k0, u_k0)], u_k0


@pytest.mark.parametrize("ring", [Z, GF(2), GF(3), GF(5), GF(7)], ids=str)
def test_solver_over_synthetic_pairs(monkeypatch, ring):
    # the solver reads nothing but the pair: over seeded pairs, membership is the palindrome test of v + k*u
    rng = random.Random(f"synthetic pairs {ring}")
    current = []
    monkeypatch.setitem(FAMILY_TABLE, "f", dataclasses.replace(FAMILY_TABLE["f"], build=lambda s, rows: current[-1]))
    for v, u in _synthetic_pairs(rng, ring.p):
        current.append((v, u))
        solved = palindromic_ks("f", 4, ring)
        ks = range(ring.p) if ring.p else {*range(-40, 41), *solved.ks}
        for k in ks:
            assert (k in solved) == Poly(ring, [x + k * y for x, y in zip(v, u)]).is_self_reciprocal(), (v, u, k)


@pytest.mark.parametrize("family, n, ring, text", [
    ("kind1", 4, Z, "takes no kind parameter k"),
    ("kind3", 4, Z, "takes no kind parameter k"),
    ("fchar2", 4, GF(2), "fixes k = 1"),
    ("e", 4, Z, "unknown family"),
    ("g", 5, Z, "requires even n > 1"),
    ("f", -1, Z, "n must be >= 0"),
    ("f", 4, "Z", "ring must be"),
])
def test_refusals(family, n, ring, text):
    with pytest.raises(DomainError, match=text):
        palindromic_ks(family, n, ring)


# ------------------------------------------------------------ scan's use of it


def _count_builds(monkeypatch):
    # records every build's spec, wherever the package binds build, and every read of a family's pair from
    # FAMILY_TABLE as (the spec read through, whether a build made it)
    built, reads, building = [], [], []

    def counting(spec, *args):
        built.append(spec)
        building.append(spec)
        try:
            return build(spec, *args)
        finally:
            building.pop()

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "reciprodick" and vars(module).get("build") is build:
            monkeypatch.setattr(module, "build", counting)

    def reader(coeffs):
        def reading(spec, rows):
            reads.append((spec, bool(building)))
            return coeffs(spec, rows)

        return reading

    for family, row in list(FAMILY_TABLE.items()):
        monkeypatch.setitem(FAMILY_TABLE, family, dataclasses.replace(row, build=reader(row.build)))
    return built, reads


@pytest.mark.parametrize("rule, kwargs", [
    ("T2_1", {"k_values": DEFAULT_K_WINDOW}),
    ("T2_3", {"k_values": DEFAULT_K_WINDOW}),
    ("T3_1", {"p_list": [3, 13]}),
    ("T4_1", {}),
])
def test_scan_reads_one_pair_per_family_n_and_ring(monkeypatch, rule, kwargs):
    # every (family, n, ring) reads its pair (v, u) exactly once, outside any build, and the only members
    # built are the requested candidates, at most two per (family, n, ring); T4_1's fixed k has none
    verdicts = scan(rule, n_max=40, **kwargs)
    candidates = [v.spec for v in verdicts if v.spec.k in _candidates(v.spec, RowCache())[0]]
    built, reads = _count_builds(monkeypatch)
    assert scan(rule, n_max=40, **kwargs) == verdicts
    members = {(v.spec.family, v.spec.n, v.spec.ring) for v in verdicts}
    assert {(s.family, s.n, s.ring) for s, _ in reads} == members
    assert len(reads) == len(members)
    assert not any(via_build for _, via_build in reads)
    assert Counter(built) == Counter(candidates)
    assert max(Counter((s.family, s.n, s.ring) for s in built).values(), default=0) <= 2
    assert (built == []) == (rule == "T4_1")


def test_scan_of_one_k_builds_one_member(monkeypatch):
    # k = 0 is the root of f's first unequal pair at n = 4, so the scan builds it; k = 5 is no candidate,
    # so its scan builds nothing; each reads the pair once, outside the build
    built, reads = _count_builds(monkeypatch)
    scan("T2_1", n_min=4, n_max=4, k_values=[0])
    assert built == [FamilySpec("f", 4, 0, Z)]
    assert reads == [(FamilySpec("f", 4, 0, Z), False)]
    scan("T2_1", n_min=4, n_max=4, k_values=[5])
    assert built == [FamilySpec("f", 4, 0, Z)]
    assert reads[1:] == [(FamilySpec("f", 4, 5, Z), False)]


def test_a_group_with_no_k_below_its_p_reads_no_row(monkeypatch):
    # k = 7 lies below 11 but not below 3: GF(3) gives no verdict and reads no row mod 3
    from reciprodick import families

    primes = Counter()
    row_mod_p = families.binomial_row_mod_p
    monkeypatch.setattr(families, "binomial_row_mod_p", lambda n, p: primes.update([p]) or row_mod_p(n, p))
    verdicts = scan("T3_1", n_max=400, k_values=[7], p_list=[3, 11])
    assert {v.spec.ring.p for v in verdicts} == {11}
    assert primes == {11: 200}


@pytest.mark.parametrize("rule, primes", [("C3_3", [3, 7]), ("L1", [2, 3, 7])])
def test_scan_builds_each_corollary_and_lemma_member_once(monkeypatch, rule, primes):
    # one build per verdict, and every pair read inside a build
    built, reads = _count_builds(monkeypatch)
    verdicts = scan(rule, p_list=primes)
    assert verdicts
    assert Counter(built) == Counter(v.spec for v in verdicts)
    assert reads and all(via_build for _, via_build in reads)


def _cli(*argv):
    # a CLI command run in-process with its records written to the null device
    def run():
        assert cli.main([*argv, "--out", os.devnull]) == 0

    return run


@pytest.mark.parametrize("run", [
    _cli("classify", "--family", "f", "--ring", "fp", "--p", "13", "--n-max", "40", "--k-min", "0", "--k-max", "12"),
    _cli("gen", "--family", "dickson", "--n-max", "30", "--k-min", "0", "--k-max", "3", "--a", "3"),
    lambda: scan("L1", p_list=[3, 7]),
], ids=["classify f over GF(13)", "gen dickson a=3", "scan L1"])
def test_each_family_n_ring_and_a_reads_one_pair(monkeypatch, run):
    # the members of one (family, n, ring, a), built one k after another, share one pair read
    built, reads = _count_builds(monkeypatch)
    run()
    members = Counter((s.family, s.n, s.ring, s.a) for s in built)
    assert Counter((s.family, s.n, s.ring, s.a) for s, _ in reads) == dict.fromkeys(members, 1)
    assert len(built) > 2 * len(members)


def _cli_specs(family, ns, ks, ring=Z, a=1):
    return [FamilySpec(family, n, k, ring, a) for n in ns for k in ks]


@pytest.mark.parametrize("call, specs", [
    (lambda: f_family(6, 2, GF(5)), [FamilySpec("f", 6, 2, GF(5))]),
    (lambda: reversed_dickson(7, 3, 2), [FamilySpec("dickson", 7, 3, Z, 2)]),
    (lambda: f_kind(6, 2), [FamilySpec("kind2", 6)]),
    (lambda: f_expanded_even(8, 3), [FamilySpec("f", 8, 3)]),
    (lambda: f_expanded_odd(9, 1, GF(7)), [FamilySpec("f", 9, 1, GF(7))]),
    (lambda: check_corollary("C3_3", FamilySpec("f", 8, 2, GF(3))), [FamilySpec("f", 8, 2, GF(3))]),
    (lambda: coterm_construct("T5_3", 8, 0, Z), [FamilySpec("g", 8, 0)]),
    (lambda: coterm_construct("CHAR2", 6, 1, GF(2)), [FamilySpec("fchar2", 6, 1, GF(2))]),
    (lambda: oracle_self_reciprocal(FamilySpec("h", 6, 1, GF(3))), [FamilySpec("h", 6, 1, GF(3))]),
    (_cli("gen", "--family", "dickson", "--n-max", "5", "--k-min", "0", "--k-max", "2", "--a", "3"),
     _cli_specs("dickson", range(6), range(3), a=3)),
    (_cli("gen", "--family", "f", "--n", "7", "--k", "4", "--format", "csv"), [FamilySpec("f", 7, 4)]),
    (_cli("classify", "--family", "g", "--ring", "fp", "--p", "5", "--n-min", "1", "--n-max", "9",
          "--k-min", "0", "--k-max", "4"), _cli_specs("g", (2, 4, 6, 8), range(5), GF(5))),
    (_cli("classify", "--family", "fchar2", "--n-max", "4"), _cli_specs("fchar2", range(1, 5), [1], GF(2))),
], ids=["f_family", "reversed_dickson", "f_kind", "f_expanded_even", "f_expanded_odd", "check_corollary",
        "coterm_construct", "coterm_construct CHAR2", "oracle_self_reciprocal", "cli gen sweep", "cli gen one",
        "cli classify sweep", "cli classify fchar2"])
def test_every_entry_point_builds_each_member_once_through_build(monkeypatch, call, specs):
    # families.build is the one maker of a member: no entry point builds one another way, or twice
    built, _ = _count_builds(monkeypatch)
    call()
    assert built == specs


@pytest.mark.parametrize("kwargs, primes", [
    ({"k_values": [4]}, [5, 7, 11, 13]),  # the default primes, 3 among them
    ({"k_values": [5], "p_list": [3, 7]}, [7]),
])
def test_scan_passes_over_a_ring_with_no_k_below_its_p(kwargs, primes):
    # GF(3) admits none of the k asked for, a larger p does: GF(3) gives no verdict, the rest theirs
    verdicts = scan("T3_1", n_max=6, **kwargs)
    assert [(v.spec.n, v.spec.ring.p) for v in verdicts] == [(n, p) for n in (2, 4, 6) for p in primes]
    assert all(v.observed == oracle_self_reciprocal(v.spec) for v in verdicts)


@pytest.mark.parametrize("rule, kwargs", [
    (rule, {"k_values": ks})
    for rule in ("T2_1", "T2_3", "T2_4", "T2_7")
    for ks in ([1, 1], [4, -1, 1, 4, 0, 12], [3, 7], [7, 3], [2, 5], [3, 0, 3])
] + [
    (rule, {"k_values": [0, 2], "p_list": [2**61 - 1]}) for rule in ("T3_1", "T3_4")
] + [
    (rule, {"k_values": [2, 0, 2, 1], "p_list": [13, 3]}) for rule in ("T3_1", "T3_4")
])
def test_scan_observations_equal_the_oracle(rule, kwargs):
    # repeated and unsorted k, a window without 0 or 1, the k* that zeroes the top
    # coefficient (2 for f at even n, 3 at n = 3), and a prime near 2^61
    verdicts = scan(rule, n_max=30, **kwargs)
    assert verdicts
    for v in verdicts:
        assert v.observed == oracle_self_reciprocal(v.spec), v


# scan restated one spec at a time, straight from the rows: the specs in (n, k, ring, family) order, each
# admitted when FamilySpec and the row's hypotheses both take it, each observed alone
_REFERENCE_OBSERVERS = {
    "classification": (oracle_self_reciprocal, "predicate and oracle disagree"),
    "corollary": (lambda spec: _not_srim(build(spec)), "corollary violated"),
    "lemma": (lambda spec: lemma_l1(build(spec)), "odd-degree srim found"),
}


def _reference_scan(t, n_max, k_values=None, p_list=None):
    row = RULE_TABLE[t]
    lo, _ = row.scan_n
    pinned = len(row.ring.rings) == 1
    rings = row.ring.rings if pinned or p_list is None else tuple(GF(p) for p in sorted(set(p_list)))
    if row.fixed_k is not None:
        ks = [row.fixed_k]
    elif rings[-1] == Z:
        ks = list(DEFAULT_K_WINDOW if k_values is None else k_values)
    else:
        ks = sorted(set(range(rings[-1].p) if k_values is None else k_values))
    observe, note = _REFERENCE_OBSERVERS[row.kind]
    out = []
    for n in range(lo, n_max + 1):
        for k in ks:
            for ring in rings:
                # the families the table pins to this ring, else those it does not pin to any
                families = [f for f in row.families if FAMILY_TABLE[f].ring == ring]
                for family in families or [f for f in row.families if FAMILY_TABLE[f].ring is None]:
                    try:
                        spec = FamilySpec(family, n, k, ring)
                        check_hypotheses(t, row, family, n, k, ring)
                    except DomainError:
                        continue
                    predicted = True if row.predict is None else row.predict(n, k, ring.p)
                    observed = observe(spec)
                    out.append(Verdict(t, spec, predicted, observed, "" if predicted == observed else note))
    return out


@pytest.mark.parametrize("rule, kwargs", [
    (rule, {"n_max": 60}) for rule in RULE_TABLE
] + [
    (rule, {"n_max": 40, "k_values": ks})
    for rule in ("T2_1", "T2_3", "T2_4", "T2_7") for ks in ([3, 0, 3], [7, 3], [4], [1, 1])
] + [
    (rule, {"n_max": 40, "p_list": [13, 3]}) for rule in ("T3_1", "T3_4", "C3_3", "C3_5", "L1")
] + [
    # a window that leaves GF(3) one k and GF(7) two
    (rule, {"n_max": 40, "k_values": [5, 0, 5], "p_list": [3, 7]}) for rule in ("T3_1", "T3_4", "L1")
])
def test_grouped_scan_equals_the_per_spec_reference(rule, kwargs):
    expected = _reference_scan(rule, **kwargs)
    assert expected
    assert scan(rule, **kwargs) == expected

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` to get one line per criterion;
add -s to see the timing detail on passing runs.
"""

import time

from reciprodick import (
    FamilySpec,
    GF,
    Poly,
    Z,
    binomial,
    binomial_mod_p_lucas,
    build,
    build_cyclic_code,
    check_corollary,
    check_dickson_f_identity,
    coterm_construct,
    divisibility_by_digit_dominance,
    f_expanded_even,
    f_expanded_odd,
    f_family,
    is_coterm,
    is_power_of,
    mismatches,
    monic_divisors,
    reduce_mod_p,
    reversed_dickson,
    scan,
    verify_reversibility_by_enumeration,
    weight_base_p,
)
from reciprodick.cli import main as cli_main

ODD_PRIMES = (3, 5, 7, 11, 13)
K_WINDOW = tuple(range(-5, 7))


def _report(cid, detail=""):
    print(f"ACCEPTANCE {cid}: PASS {detail}".rstrip())


def _mismatch_keys(verdicts):
    return {(v.spec.family, v.spec.n, v.spec.k) for v in mismatches(verdicts)}


def test_criterion_01_even_integer_classification():
    t0 = time.perf_counter()
    verdicts = scan("T2_1", n_min=2, n_max=200, k_values=K_WINDOW)
    elapsed = time.perf_counter() - t0
    assert len(verdicts) == 100 * 12
    assert mismatches(verdicts) == []
    assert elapsed < 10.0
    _report(1, f"(T2_1: {len(verdicts)} specs, {elapsed:.2f}s)")


def test_criterion_02_odd_integer_classification():
    verdicts = scan("T2_4", n_min=3, n_max=199, k_values=K_WINDOW)
    assert len(verdicts) == 99 * 12
    assert mismatches(verdicts) == []
    _report(2, f"(T2_4: {len(verdicts)} specs)")


def test_criterion_03_end_variant_classification_and_findings(capsys):
    clean_even = scan("T2_3", n_min=6, n_max=200, k_values=K_WINDOW)
    assert len(clean_even) == 98 * 12 * 2
    assert mismatches(clean_even) == []
    clean_odd = scan("T2_7", n_min=7, n_max=199, k_values=K_WINDOW)
    assert len(clean_odd) == 97 * 12 * 2
    assert mismatches(clean_odd) == []

    # pinned small-n findings: the interior is too short to force the claim
    found = _mismatch_keys(scan("T2_3", n_min=4, n_max=4, k_values=K_WINDOW))
    expected = {("g", 4, k) for k in K_WINDOW if k not in (0, 2)}
    expected |= {("h", 4, k) for k in K_WINDOW if k != 0}
    assert found == expected

    found = _mismatch_keys(scan("T2_7", n_min=3, n_max=5, k_values=K_WINDOW))
    expected = {("gstar", 3, k) for k in K_WINDOW if k not in (1, 3)}
    expected |= {("hstar", 3, k) for k in K_WINDOW if k not in (1, -1)}
    expected |= {(fam, 5, k) for fam in ("gstar", "hstar") for k in K_WINDOW if k != 1}
    assert found == expected

    # the CLI must surface those ranges as findings via exit code 2
    assert cli_main(["verify", "--theorem", "t2.3", "--n-min", "4", "--n-max", "4"]) == 2
    assert cli_main(["verify", "--theorem", "t2.7", "--n-min", "3", "--n-max", "5"]) == 2
    capsys.readouterr()
    _report(3, "(T2_3/T2_7 clean on [6,200]/[7,199]; n=4 and n=3,5 findings pinned, exit 2)")


def test_criterion_04_even_prime_field_classification():
    t0 = time.perf_counter()
    verdicts = scan("T3_1", n_min=2, n_max=200, p_list=ODD_PRIMES)
    elapsed = time.perf_counter() - t0
    assert len(verdicts) == 100 * sum(ODD_PRIMES)
    assert mismatches(verdicts) == []
    assert elapsed < 60.0
    _report(4, f"(T3_1: {len(verdicts)} specs, {elapsed:.2f}s)")


def test_criterion_05_odd_prime_field_classification():
    verdicts = scan("T3_4", n_min=1, n_max=199, p_list=ODD_PRIMES)
    assert len(verdicts) == 100 * sum(ODD_PRIMES)
    findings = [v.to_json_dict() for v in mismatches(verdicts)]
    # pinned observed mismatch set: empty
    assert findings == [], f"unexpected findings: {findings}"
    _report(5, f"(T3_4: {len(verdicts)} specs, pinned mismatch set empty)")


def test_criterion_06_characteristic_two_classification():
    verdicts = scan("T4_1", n_min=2, n_max=200)
    assert len(verdicts) == 199
    assert mismatches(verdicts) == []
    _report(6, f"(T4_1: {len(verdicts)} specs)")


def test_criterion_07_dickson_composition_identity():
    for n in range(1, 65):
        for k in range(-3, 7):
            assert check_dickson_f_identity(n, k), (n, k)
    _report(7, "(2^n * D_{n,k}(1,x) = f(1-4x) for n <= 64, k in [-3,6])")


def test_criterion_08_integrality_and_form_agreement():
    for n in range(1, 201):
        for k in K_WINDOW:
            reversed_dickson(n, k)  # raises if any coefficient fails the exact division
    for n in range(2, 201):
        for k in K_WINDOW:
            expanded = f_expanded_even(n, k) if n % 2 == 0 else f_expanded_odd(n, k)
            direct = f_family(n, k)
            assert expanded == direct, (n, k)
            for p in ODD_PRIMES:
                assert reduce_mod_p(expanded, p) == reduce_mod_p(direct, p)
    _report(8, "(coefficients integral and closed forms agree for n <= 200)")


def test_criterion_09_lucas_reduction():
    t0 = time.perf_counter()
    primes = (2, 3, 5, 7, 11)
    for n in range(501):
        for m in range(501):
            c = binomial(n, m)
            for p in primes:
                r = binomial_mod_p_lucas(n, m, p)
                assert r == c % p, (n, m, p)
                assert divisibility_by_digit_dominance(n, m, p) == (r == 0), (n, m, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(9, f"(all n,m <= 500 and 5 primes, {elapsed:.2f}s)")


def test_criterion_10_coterm_constructions():
    degenerate_counts = {"T5_7": 0, "T5_8": 0, "T5_9": 0, "CHAR2": 0}
    constants = {"T5_7": 2, "T5_8": 2, "T5_9": 1, "CHAR2": 1}

    for n in range(4, 121, 2):
        for rule in ("T5_1", "T5_3"):
            poly, ctx, deg = coterm_construct(rule, n, 0, Z)
            assert not deg and is_coterm(poly, ctx)
    for n in range(6, 121, 2):
        poly, ctx, deg = coterm_construct("T5_2", n, 2, Z)
        assert not deg and is_coterm(poly, ctx)
    for n in range(5, 121, 2):
        for rule in ("T5_4", "T5_5"):
            poly, ctx, deg = coterm_construct(rule, n, 1, Z)
            assert not deg and is_coterm(poly, ctx)

    for p in ODD_PRIMES:
        ring = GF(p)
        for n in range(4, 121, 2):
            poly, ctx, deg = coterm_construct("T5_7", n, 0, ring)
            assert is_coterm(poly, ctx)
            assert deg == (weight_base_p(n, p) == 2)
            if deg:
                degenerate_counts["T5_7"] += 1
                assert poly == Poly.constant(ring, constants["T5_7"])
        for n in range(6, 121, 2):
            if n % p == 0:
                continue
            poly, ctx, deg = coterm_construct("T5_8", n, 2, ring)
            assert is_coterm(poly, ctx)
            assert deg == is_power_of(n - 1, p)
            if deg:
                degenerate_counts["T5_8"] += 1
                assert poly == Poly.constant(ring, constants["T5_8"])
        for n in range(5, 121, 2):
            if (n + 1) % p == 0:
                continue
            poly, ctx, deg = coterm_construct("T5_9", n, 1, ring)
            assert is_coterm(poly, ctx)
            assert deg == is_power_of(n, p)
            if deg:
                degenerate_counts["T5_9"] += 1
                assert poly == Poly.constant(ring, constants["T5_9"])

    ring = GF(2)
    for n in range(4, 121, 2):
        poly, ctx, deg = coterm_construct("CHAR2", n, 1, ring)
        assert is_coterm(poly, ctx)
        assert deg == is_power_of(n, 2)
        if deg:
            degenerate_counts["CHAR2"] += 1
            assert poly == Poly.constant(ring, constants["CHAR2"])

    # every degenerate side case occurs in range, with its exact constant
    assert degenerate_counts == {"T5_7": 27, "T5_8": 9, "T5_9": 9, "CHAR2": 5}
    _report(10, f"(all constructions coterm; degenerate cases {degenerate_counts})")


def test_criterion_11_massey_iff_by_enumeration():
    t0 = time.perf_counter()
    checked = 0
    outcomes = {True: 0, False: 0}
    for p in (2, 3, 5):
        for m in range(1, 16):
            for g in monic_divisors(p, m):
                code = build_cyclic_code(p, m, g)
                if p**code.dimension > 10**6:
                    continue
                result = verify_reversibility_by_enumeration(code)
                assert result == code.reversible, (p, m, g.coeffs)
                outcomes[result] += 1
                checked += 1
    elapsed = time.perf_counter() - t0
    assert outcomes[True] and outcomes[False]  # both directions of the iff exercised
    assert elapsed < 120.0
    _report(11, f"({checked} codes, {outcomes[True]} reversible / {outcomes[False]} not, {elapsed:.1f}s)")


def test_criterion_12_irreducibility_corollaries():
    from reciprodick import build, is_irreducible

    total = 0
    for cid in ("C3_2", "C3_3", "C3_5", "C4_2"):
        verdicts = scan(cid)
        assert verdicts, cid
        assert mismatches(verdicts) == [], cid
        total += len(verdicts)
        for v in verdicts:
            assert check_corollary(cid, v.spec)
            a = build(v.spec)
            deg = a.degree or 0
            assert not (deg >= 3 and deg % 2 == 1 and a.is_self_reciprocal() and is_irreducible(a))
    l1 = scan("L1", n_max=20)
    assert mismatches(l1) == []
    total += len(l1)
    _report(12, f"(corollaries and even-degree law on {total} specs)")


def test_criterion_13_anchor_values():
    for k in K_WINDOW:
        assert f_family(0, k) == Poly.constant(Z, 2 - k)
        assert f_family(1, k) == Poly.constant(Z, 2)
    assert f_family(3, 3) == Poly.constant(Z, 8)
    assert build(FamilySpec("fchar2", 2, 1, GF(2))) == Poly(GF(2), (1, 1))
    _report(13, "(constant and degree-one anchors reproduced exactly)")

import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

from reciprodick import (
    COTERM_RULES,
    FAMILIES,
    THEOREM_IDS,
    CapacityError,
    DomainError,
    FamilySpec,
    GF,
    HypothesisError,
    Poly,
    Z,
    check_corollary,
    coterm_construct,
    is_irreducible,
    lemma_l1,
    mismatches,
    normalize_theorem_id,
    oracle_self_reciprocal,
    predicate,
    pow_mod,
    scan,
)
from reciprodick import classifier
from reciprodick.coterm_codes import COTERM_TABLE, coterm_rule
from reciprodick.families import FAMILY_TABLE

K_WINDOW = tuple(range(-5, 7))
SRC_DIR = str(Path(classifier.__file__).resolve().parents[1])


def P(ring, *coeffs):
    return Poly(ring, coeffs)


class TestOracle:
    def test_examples(self):
        assert oracle_self_reciprocal(FamilySpec("f", 4, 0)) is True
        assert oracle_self_reciprocal(FamilySpec("f", 5, 3)) is False
        assert oracle_self_reciprocal(FamilySpec("f", 3, 3)) is True


class TestPredicate:
    def test_examples(self):
        assert predicate("T2_1", FamilySpec("f", 10, 2)) is True
        assert predicate("T3_4", FamilySpec("f", 9, 0, GF(3))) is True
        assert predicate("T3_1", FamilySpec("f", 6, 2, GF(3))) is False

    def test_t2_rules(self):
        assert predicate("t2.1", FamilySpec("f", 8, 1)) is False
        assert predicate("t2.4", FamilySpec("f", 3, 3)) is True
        assert predicate("t2.4", FamilySpec("f", 5, 3)) is False
        assert predicate("t2.3", FamilySpec("g", 8, 0)) is True
        assert predicate("t2.7", FamilySpec("hstar", 9, 1)) is True

    def test_t3_4_cases(self):
        assert predicate("T3_4", FamilySpec("f", 1, 4, GF(5))) is True  # n = 1
        assert predicate("T3_4", FamilySpec("f", 25, 0, GF(5))) is True  # n = p^2
        assert predicate("T3_4", FamilySpec("f", 15, 0, GF(5))) is False
        assert predicate("T3_4", FamilySpec("f", 3, 3, GF(5))) is True  # p > 3 only
        assert predicate("T3_4", FamilySpec("f", 9, 1, GF(5))) is False  # p | n + 1
        assert predicate("T3_4", FamilySpec("f", 7, 1, GF(5))) is True

    def test_t4_1(self):
        assert predicate("T4_1", FamilySpec("fchar2", 8, 1, GF(2))) is True
        assert predicate("T4_1", FamilySpec("fchar2", 9, 1, GF(2))) is False

    def test_hypothesis_errors_name_the_condition(self):
        with pytest.raises(HypothesisError, match="even n > 1"):
            predicate("T2_1", FamilySpec("f", 5, 0))
        with pytest.raises(HypothesisError, match="family f"):
            predicate("T2_1", FamilySpec("g", 4, 0))
        with pytest.raises(HypothesisError, match="over Z"):
            predicate("T2_1", FamilySpec("f", 4, 0, GF(3)))
        with pytest.raises(HypothesisError, match="p odd"):
            predicate("T3_1", FamilySpec("f", 4, 0, GF(2)))

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            predicate("T9_9", FamilySpec("f", 4, 0))

    def test_an_id_of_the_other_kind_is_refused_by_name(self):
        with pytest.raises(DomainError, match=r"^C3_2 is not a classification rule; use check_corollary or lemma_l1$"):
            predicate("C3_2", FamilySpec("f", 6, 0, GF(3)))
        with pytest.raises(DomainError, match=r"^T2_1 is not a corollary id$"):
            check_corollary("T2_1", FamilySpec("f", 4, 0, Z))

    def test_spec_must_be_a_family_spec(self):
        # each used to raise a bare AttributeError, e.g. predicate("T2_1", 3)
        calls = (lambda v: predicate("T2_1", v), lambda v: check_corollary("C3_2", v), oracle_self_reciprocal)
        for call in calls:
            for bad in (3, None, ("f", 4, 0)):
                with pytest.raises(DomainError, match=r"^spec must be a FamilySpec, got "):
                    call(bad)

    def test_id_normalization(self):
        assert normalize_theorem_id("t2.1") == "T2_1"
        assert normalize_theorem_id(" c3-5 ") == "C3_5"
        assert normalize_theorem_id("l1") == "L1"


def _mismatch_keys(verdicts):
    return {(v.spec.family, v.spec.n, v.spec.k) for v in mismatches(verdicts)}


class TestScan:
    def test_t2_1_clean_window(self):
        verdicts = scan("T2_1", n_max=60)
        assert len(verdicts) == 30 * len(K_WINDOW)
        assert mismatches(verdicts) == []

    def test_order_is_deterministic(self):
        verdicts = scan("T2_3", n_max=6)
        keys = [(v.spec.n, v.spec.k, v.spec.family) for v in verdicts]
        assert keys == sorted(keys)
        again = scan("T2_3", n_max=6)
        assert [v.to_json_dict() for v in again] == [v.to_json_dict() for v in verdicts]

    def test_t2_3_small_n_findings(self):
        # at n = 2 and n = 4 the interior is too short to force k = 0; the
        # scanner reports the disagreements instead of hiding them
        verdicts = scan("T2_3", n_min=4, n_max=4)
        expected = {("g", 4, k) for k in K_WINDOW if k not in (0, 2)}
        expected |= {("h", 4, k) for k in K_WINDOW if k != 0}
        assert _mismatch_keys(verdicts) == expected

        verdicts = scan("T2_3", n_min=2, n_max=2)
        expected = {("g", 2, k) for k in K_WINDOW if k not in (0, 2)}
        expected |= {("h", 2, k) for k in K_WINDOW if k not in (0, -2)}
        assert _mismatch_keys(verdicts) == expected

    def test_t2_7_small_n_findings(self):
        verdicts = scan("T2_7", n_min=3, n_max=3)
        expected = {("gstar", 3, k) for k in K_WINDOW if k not in (1, 3)}
        expected |= {("hstar", 3, k) for k in K_WINDOW if k not in (1, -1)}
        assert _mismatch_keys(verdicts) == expected

        verdicts = scan("T2_7", n_min=5, n_max=5)
        expected = {(fam, 5, k) for fam in ("gstar", "hstar") for k in K_WINDOW if k != 1}
        assert _mismatch_keys(verdicts) == expected

    def test_mismatch_carries_note(self):
        bad = mismatches(scan("T2_3", n_min=4, n_max=4))
        assert bad and all(v.note for v in bad)

    def test_fp_scan_covers_k_below_each_p(self):
        verdicts = scan("T3_1", n_max=10, p_list=(3, 5))
        pairs = {(v.spec.k, v.spec.ring.p) for v in verdicts}
        assert pairs == {(k, p) for p in (3, 5) for k in range(p)}
        assert mismatches(verdicts) == []

    def test_fp_scan_enumerates_only_requested_k(self):
        # k runs over the requested values, not over all of [0, p-1]
        verdicts = scan("T3_1", n_min=2, n_max=4, k_values=[0, 2], p_list=[2**61 - 1])
        assert [(v.spec.n, v.spec.k) for v in verdicts] == [(2, 0), (2, 2), (4, 0), (4, 2)]
        assert mismatches(verdicts) == []

    def test_scan_reads_the_rows_families_over_gfp(self, monkeypatch):
        # a GF(p) row on families g and h scans g and h members, with k in [0, p-1]
        row = classifier.Rule("classification", ("g", "h"), classifier.OVER_ODD_P, classifier._EVEN_N,
                              (2, 8), lambda n, k, p: k == 0)
        monkeypatch.setitem(classifier.RULE_TABLE, "X3_G", row)
        verdicts = scan("X3_G", p_list=[5, 3])
        assert [(v.spec.family, v.spec.n, v.spec.k, v.spec.ring.p) for v in verdicts] == [
            (fam, n, k, p) for n in (2, 4, 6, 8) for k in range(5) for p in (3, 5) if k < p for fam in "gh"]
        assert {v.predicted for v in verdicts if v.spec.k == 0} == {True}

    @pytest.mark.parametrize("rule", ["T3_1", "T3_4", "C3_2", "C3_3", "C3_5", "L1"])
    def test_an_empty_p_list_scans_no_ring(self, rule):
        # no ring, and so no verdict, as an empty k_values gives no k
        assert scan(rule, n_max=10, p_list=[]) == []

    def test_fp_scan_rejects_even_p(self):
        with pytest.raises(DomainError):
            scan("T3_1", n_max=10, p_list=(2,))

    def test_each_listed_prime_is_proved_prime_once(self, monkeypatch):
        from reciprodick import binomics, ringpoly

        tests = []
        for module in (binomics, ringpoly):
            monkeypatch.setattr(module, "is_prime", lambda n, test=module.is_prime: tests.append(n) or test(n))
        rings = classifier._rings(classifier.OVER_ODD_P, [13, 3, 13])
        assert tests == [3, 13]
        assert rings == [GF(3), GF(13)]
        # the refusals keep their wording and their order, by increasing p
        for p_list, text in (([9, 3], "^9 is not prime$"), ([9, 2], "^this rule is stated for odd primes$"),
                             ([9, 4], "^4 is not prime$"), ([1, 0], "^0 is not prime$")):
            with pytest.raises(DomainError, match=text):
                scan("T3_1", n_max=10, p_list=p_list)

    def test_rejects_non_integer_bounds(self):
        # scan("T2_1", n_min=2.5, n_max=4) used to raise a bare TypeError
        for bounds in ({"n_min": 2.5, "n_max": 4}, {"n_min": 2, "n_max": 4.0}, {"n_max": True}):
            with pytest.raises(DomainError):
                scan("T2_1", **bounds)

    def test_rejects_non_string_ids(self):
        # scan(5) used to raise AttributeError: 'int' object has no attribute 'strip'
        spec = FamilySpec("f", 4, 0)
        for bad in (5, None, 2.1, ("T2_1",), b"T2_1"):
            for call in (lambda: scan(bad), lambda: normalize_theorem_id(bad),
                         lambda: predicate(bad, spec), lambda: coterm_rule(bad)):
                with pytest.raises(DomainError, match="must be a string"):
                    call()

    def test_rejects_non_integer_iterables(self):
        # each used to raise a bare TypeError
        for kwargs in ({"k_values": 5}, {"k_values": ["a"]}, {"k_values": [1.0]}, {"k_values": "12"}):
            for rule in ("T2_1", "T3_1"):
                with pytest.raises(DomainError, match="k_values"):
                    scan(rule, 2, 4, **kwargs)
        for p_list in (3, [3.0], ["3"], [True]):
            with pytest.raises(DomainError, match="p_list"):
                scan("T3_1", 2, 4, p_list=p_list)
        # any iterable of integers serves, and the verdicts do not depend on its type
        assert scan("T3_1", 2, 6, k_values=iter([2, 1]), p_list=(x for x in (5, 3))) == \
            scan("T3_1", 2, 6, k_values=[1, 2], p_list=[3, 5])
        assert scan("T2_1", 2, 6, k_values=range(3)) == scan("T2_1", 2, 6, k_values=[0, 1, 2])

    def test_refuses_past_its_cap_before_listing(self):
        # each used to run for years: k over all of [0, p-1], or n up to 10^12.
        # A child process with a timeout makes a hang fail instead of stall the run
        probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); import reciprodick as R\n"
                 "for args, kwargs in ((('T3_1', 2, 2), {'p_list': [2305843009213693951]}),\n"
                 "                     (('T3_1', 2, 2), {'p_list': [18446744073709551557]}),\n"
                 "                     (('T2_1',), {'n_max': 10**12})):\n"
                 "    start = time.perf_counter()\n"
                 "    try: R.scan(*args, **kwargs)\n"
                 "    except R.CapacityError as exc: assert 'above the cap 1000000' in str(exc), exc\n"
                 "    else: raise AssertionError(args)\n"
                 "    assert time.perf_counter() - start < 1, args\n")
        subprocess.run([sys.executable, "-c", probe, SRC_DIR], check=True, timeout=60)

    def test_cap_refusal_names_the_count(self):
        with pytest.raises(CapacityError, match=r"^T2_1 would scan 11999988 candidate members, above the cap 1000000$"):
            scan("T2_1", n_max=10**6)

    def test_reads_at_most_the_cap_of_an_iterable(self):
        # each used to list its whole iterable first: count() never returned and range(10**10) ran out
        # of memory; with no k to take, n up to 10^12 was listed all the same.  The child's address
        # space is limited to about 2 GB, so an unbounded listing fails there instead of swapping
        probe = ("import itertools, resource, sys, time\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                 "sys.path.insert(0, sys.argv[1]); import reciprodick as R\n"
                 "for t, kwargs in (('T2_1', {'k_values': itertools.count()}),\n"
                 "                  ('T3_1', {'p_list': itertools.count(2)}),\n"
                 "                  ('T2_1', {'k_values': range(10**10)}),\n"
                 "                  ('T4_1', {'k_values': range(10**6 + 1)})):\n"
                 "    start = time.perf_counter()\n"
                 "    try: R.scan(t, 2, 2, **kwargs)\n"
                 "    except R.CapacityError as exc: assert 'more entries than the cap 1000000' in str(exc), exc\n"
                 "    else: raise AssertionError(kwargs)\n"
                 "    assert time.perf_counter() - start < 2, kwargs\n"
                 "for t, kwargs in (('T2_1', {'k_values': []}), ('T3_1', {'k_values': [9], 'p_list': [3]})):\n"
                 "    start = time.perf_counter()\n"
                 "    assert R.scan(t, 2, 10**12, **kwargs) == [], kwargs\n"
                 "    assert time.perf_counter() - start < 2, kwargs\n"
                 "start = time.perf_counter()\n"
                 "assert len(R.scan('T3_1', 2, 2, k_values=range(10**6), p_list=[3])) == 3\n"
                 "assert time.perf_counter() - start < 2\n")
        subprocess.run([sys.executable, "-c", probe, SRC_DIR], check=True, timeout=60)

    def test_verdict_json_shape(self):
        v = scan("T3_1", n_min=6, n_max=6, k_values=(2,), p_list=(3,))[0]
        assert v.to_json_dict() == {
            "theorem": "T3_1",
            "family": "f",
            "n": 6,
            "k": 2,
            "p": 3,
            "predicted": False,
            "observed": False,
            "match": True,
        }


class TestIrreducible:
    def test_examples(self):
        assert is_irreducible(P(GF(2), 1, 1)) is True
        assert is_irreducible(P(GF(2), 1, 1, 1)) is True
        assert is_irreducible(P(GF(2), 1, 0, 1)) is False  # (x+1)^2

    def test_degree_and_ring_requirements(self):
        with pytest.raises(DomainError):
            is_irreducible(P(GF(2), 1))
        with pytest.raises(DomainError):
            is_irreducible(Poly.zero(GF(3)))
        with pytest.raises(DomainError):
            is_irreducible(P(Z, 1, 1))
        # a non-Poly used to raise a bare AttributeError, here and in lemma_l1
        for call in (is_irreducible, lemma_l1):
            with pytest.raises(DomainError, match=f"{call.__name__}'s argument must be a Poly, got 3$"):
                call(3)

    def test_unknown_method_rejected_at_every_degree(self):
        # at degree 1 an unknown method used to return True
        for coeffs in ((1, 1), (1, 1, 1)):
            with pytest.raises(DomainError, match="unknown irreducibility method"):
                is_irreducible(Poly(GF(3), coeffs), "bogus")

    def test_trial_capacity(self):
        big = Poly(GF(13), tuple([1] * 29))
        with pytest.raises(CapacityError):
            is_irreducible(big, method="trial")

    def test_trial_matches_gcd_exhaustively(self):
        # every monic polynomial of these degrees
        for p, max_deg in ((2, 10), (3, 6), (5, 4), (7, 3)):
            ring = GF(p)
            for deg in range(2, max_deg + 1):
                for tail in itertools.product(range(p), repeat=deg):
                    a = Poly(ring, tail + (1,))
                    assert is_irreducible(a, "trial") == is_irreducible(a, "gcd"), a

    def test_trial_matches_gcd_where_the_root_search_runs(self):
        # the gcd route looks for a root at p <= deg: every monic input at p = 5 of degree 5, and a seeded
        # sample at degrees p to p + 2 for p = 5 and 7
        rng = random.Random(35)
        cases = [(5, tail) for tail in itertools.product(range(5), repeat=5)]
        for p, deg, count in ((5, 6, 400), (5, 7, 200), (7, 7, 300), (7, 8, 150), (7, 9, 60)):
            cases += [(p, tuple(rng.randrange(p) for _ in range(deg))) for _ in range(count)]
        for p, tail in cases:
            a = Poly(GF(p), tail + (1,))
            assert is_irreducible(a, "trial") == is_irreducible(a, "gcd"), a

    @pytest.mark.parametrize("p", [11, 13])
    def test_root_free_inputs_of_degree_p_and_above(self, p):
        # x^p - x - c, c != 0, is irreducible over GF(p) (Artin-Schreier); a product of irreducibles of degree
        # >= 2 has no root, so the search passes it on and Ben-Or's rounds must find its factor
        ring = GF(p)
        artin_schreier = [Poly.monomial(ring, 1, p) - P(ring, c, 1) for c in range(1, p)]
        assert all(is_irreducible(a, "gcd") for a in artin_schreier)
        rng = random.Random(p)
        factors = {}  # degree -> an irreducible of that degree, by trial division
        for d in (2, 3, 5, 6, 7):
            while d not in factors:
                a = Poly(ring, tuple(rng.randrange(p) for _ in range(d)) + (1,))
                if is_irreducible(a, "trial"):
                    factors[d] = a
        products = [factors[2] * factors[5] * factors[6], factors[6] * factors[7], factors[7] * factors[7],
                    factors[2] * artin_schreier[0], factors[3] * artin_schreier[-1]]
        for a in products:
            assert a.degree >= p and all(a.evaluate(c) for c in range(p)), a
            assert is_irreducible(a, "gcd") is False, a

    def test_a_root_at_zero_alone_stops_before_ben_or(self, monkeypatch):
        # x * (x^p - x - 1) has the one root 0: the search must try c = 0, or Ben-Or's rounds would run
        exponents = []
        monkeypatch.setattr(classifier, "pow_mod", lambda base, e, mod: exponents.append(e) or pow_mod(base, e, mod))
        for p in (2, 3, 5, 7, 11, 13):
            ring = GF(p)
            a = P(ring, 0, 1) * (Poly.monomial(ring, 1, p) - P(ring, 1, 1))
            assert is_irreducible(a, "gcd") is False, a
        assert exponents == []

    def test_no_root_search_above_the_degree(self, monkeypatch):
        # at p > deg the search is skipped, so a large p never costs p evaluations; Ben-Or's rounds decide alone
        points = []
        monkeypatch.setattr(Poly, "evaluate", lambda self, v, evaluate=Poly.evaluate: points.append(v)
                            or evaluate(self, v))
        rng = random.Random(40)
        big = GF(1000003)
        tail = Poly(big, tuple(rng.randrange(1000003) for _ in range(39)) + (1,))
        assert is_irreducible(P(big, -5, 1) * tail, "gcd") is False
        seven = GF(7)
        sextic = next(a for a in (Poly(seven, tuple(rng.randrange(7) for _ in range(6)) + (1,)) for _ in range(999))
                      if is_irreducible(a, "trial"))
        assert is_irreducible(sextic, "gcd") is True
        assert is_irreducible(P(seven, 0, 1) * P(seven, 3, 0, 0, 0, 0, 1), "gcd") is False
        assert points == []
        # at p = deg it runs, and stops at the first root
        assert is_irreducible(P(seven, 0, 1) * sextic, "gcd") is False
        assert points == [0]

    def test_gcd_counts_match_gauss_formula(self):
        # monic irreducibles of degree d over GF(p): (1/d) * sum over e | d of mu(e) * p^(d/e)
        def mobius(n):
            out, q = 1, 2
            while q * q <= n:
                if n % q == 0:
                    n //= q
                    if n % q == 0:
                        return 0
                    out = -out
                q += 1
            return -out if n > 1 else out

        for p, max_deg in ((2, 12), (3, 7)):
            ring = GF(p)
            for deg in range(1, max_deg + 1):
                found = sum(is_irreducible(Poly(ring, tail + (1,)), "gcd")
                            for tail in itertools.product(range(p), repeat=deg))
                gauss = sum(mobius(e) * p ** (deg // e) for e in range(1, deg + 1) if deg % e == 0) // deg
                assert found == gauss, (p, deg)

    def test_known_counts(self):
        # GF(2) irreducible counts by degree: 2, 1, 2, 3, 6
        counts = {}
        for deg in range(1, 6):
            n = 0
            for tail in itertools.product(range(2), repeat=deg):
                a = Poly(GF(2), tail + (1,))
                if a.degree == deg and is_irreducible(a):
                    n += 1
            counts[deg] = n
        assert counts == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}

    def test_big_degree_gcd_route(self):
        # x^29 + x^2 + 1 is a known primitive polynomial over GF(2)
        a = Poly(GF(2), (1, 0, 1) + (0,) * 26 + (1,))
        assert is_irreducible(a) is True
        assert is_irreducible(a * P(GF(2), 1, 1)) is False


class TestCorollaries:
    def test_examples(self):
        assert check_corollary("C3_2", FamilySpec("f", 6, 0, GF(3))) is True
        assert check_corollary("C3_5", FamilySpec("f", 7, 1, GF(3))) is True
        assert check_corollary("C4_2", FamilySpec("fchar2", 6, 1, GF(2))) is True

    def test_hypothesis_errors(self):
        with pytest.raises(HypothesisError, match="k = 0"):
            check_corollary("C3_2", FamilySpec("f", 6, 1, GF(3)))
        with pytest.raises(HypothesisError, match="2 mod 4"):
            check_corollary("C3_2", FamilySpec("f", 8, 0, GF(3)))
        with pytest.raises(HypothesisError, match="dividing n"):
            check_corollary("C3_3", FamilySpec("f", 12, 2, GF(3)))
        with pytest.raises(HypothesisError, match=r"n \+ 1"):
            check_corollary("C3_5", FamilySpec("f", 11, 1, GF(3)))

    def test_scans_find_no_violations(self):
        for cid in ("C3_2", "C3_3", "C3_5", "C4_2"):
            assert mismatches(scan(cid)) == []

    def test_reducible_member_stops_at_its_linear_factor(self, monkeypatch):
        # the member has odd degree 45 and is a palindrome, so x + 1 divides it:
        # the root search finds -1 and no Frobenius step x -> x^13 runs
        exponents = []

        def recording(base, e, mod):
            exponents.append(e)
            return pow_mod(base, e, mod)

        monkeypatch.setattr(classifier, "pow_mod", recording)
        assert check_corollary("C3_3", FamilySpec("f", 92, 2, GF(13))) is True
        assert exponents == []


class TestLemmaL1:
    def test_even_degree_srim_is_fine(self):
        assert lemma_l1(P(GF(2), 1, 1, 1)) is True  # irreducible palindrome, even degree

    def test_odd_degree_cases(self):
        # odd-degree irreducible but not palindromic
        assert lemma_l1(P(GF(2), 1, 1, 0, 1)) is True
        # odd-degree palindrome but reducible: (x+1)^3 over GF(2)
        assert lemma_l1(P(GF(2), 1, 1) ** 3) is True

    def test_exhaustive_small(self):
        # no self-reciprocal irreducible of odd degree 3 or 5 exists over GF(2), GF(3)
        for p in (2, 3):
            ring = GF(p)
            for deg in (3, 5):
                for tail in itertools.product(range(p), repeat=deg):
                    a = Poly(ring, tail + (1,))
                    if a.degree == deg and a.is_self_reciprocal():
                        assert not is_irreducible(a), a

    def test_scan(self):
        assert mismatches(scan("L1", n_max=12)) == []

    def test_scan_honours_k_values(self):
        verdicts = scan("L1", n_min=1, n_max=3, k_values=[0, 1], p_list=(3, 5))
        assert {v.spec.k for v in verdicts} == {0, 1}
        assert {v.spec.k for v in scan("L1", n_min=1, n_max=3, p_list=(3,))} == {0, 1, 2}


@pytest.mark.parametrize("t", [t for t in THEOREM_IDS
                               if classifier.RULE_TABLE[t].kind in ("classification", "corollary")])
def test_scan_lists_exactly_the_members_its_rule_accepts(t):
    # scan lists its members from the row's own conditions and asks neither predicate
    # nor check_corollary; on a grid, they are exactly the specs those two accept
    row = classifier.RULE_TABLE[t]
    call = {"classification": predicate, "corollary": check_corollary}[row.kind]
    accepted = {}
    for family, n, k, ring in itertools.product(FAMILIES, range(31), range(-1, 5),
                                                (Z, GF(2), GF(3), GF(5), GF(7))):
        try:
            spec = FamilySpec(family, n, k, ring)
            accepted[family, n, k, ring] = call(t, spec)
        except DomainError:
            continue
    verdicts = scan(t, n_min=0, n_max=30, k_values=range(-1, 5), p_list=(3, 5, 7))
    scanned = {(v.spec.family, v.spec.n, v.spec.k, v.spec.ring): v for v in verdicts}
    assert len(scanned) == len(verdicts) and scanned.keys() == accepted.keys()
    # and each verdict reads what predicate or check_corollary answers
    field = "predicted" if row.kind == "classification" else "observed"
    assert all(getattr(v, field) == accepted[key] for key, v in scanned.items())


# ------------------------------------------------------- the hypothesis check


def _failed_hypotheses(row, family, n, k, ring) -> list[str]:
    """The row's failed hypotheses in the order they are checked: family, ring, n, k, sides."""
    failed = []
    if family not in row.families:
        failed.append("family")
    if not row.ring.holds(ring):
        failed.append("ring")
    if not row.n.holds(n):
        failed.append("n")
    if row.fixed_k is not None and k != row.fixed_k:
        failed.append("k")
    if ring.is_field:
        failed += [side.text for side in row.sides if not side.holds(n, ring.p)]
    return failed


def _refusal(t, row, family, first) -> str:
    if first == "family":
        fams = row.families
        return f"{t} applies to {'families' if len(fams) > 1 else 'family'} {' and '.join(fams)}"
    if first == "ring":
        return f"{t} is stated over {row.ring.text}"
    if first == "n":
        return f"{t} requires {row.n.text}"
    if first == "k":
        fixed = FAMILY_TABLE[family].fixed_k
        return f"{t} {fixed[1]}" if fixed else f"{t} requires k = {row.fixed_k}"
    return f"{t} requires {first}"


@pytest.mark.parametrize("t", [t for t in THEOREM_IDS if classifier.RULE_TABLE[t].kind != "lemma"]
                         + list(COTERM_RULES))
def test_every_broken_hypothesis_is_named_first_in_check_order(t):
    # break one or two hypotheses of each rule and each coterm construction at a time:
    # the refusal names the failed one, or the first of the two in check order
    coterm = t in COTERM_TABLE
    row = COTERM_TABLE[t] if coterm else classifier.RULE_TABLE[t]
    call = {"classification": predicate, "corollary": check_corollary}.get(row.kind)
    seen = set()
    for family, n, k, ring in itertools.product(row.families if coterm else FAMILIES, range(30),
                                                range(-1, 5), (Z, GF(2), GF(3), GF(5), GF(7))):
        failed = _failed_hypotheses(row, family, n, k, ring)
        if len(failed) > 2 or tuple(failed) in seen:
            continue
        if coterm:
            run = lambda: coterm_construct(t, n, k, ring)  # noqa: E731
        else:
            try:
                spec = FamilySpec(family, n, k, ring)
            except DomainError:
                continue
            run = lambda: call(t, spec)  # noqa: E731
        seen.add(tuple(failed))
        if not failed:
            run()
            continue
        with pytest.raises(HypothesisError) as info:
            run()
        assert str(info.value) == _refusal(t, row, family, failed[0]), failed
    # every hypothesis was broken, and an unbroken point passed
    hypotheses = {"ring", "n", *(side.text for side in row.sides)}
    if row.fixed_k is not None:
        hypotheses.add("k")
    if not coterm:
        hypotheses.add("family")
    assert () in seen and set().union(*seen) == hypotheses

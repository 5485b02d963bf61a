import ast
import itertools
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import reciprodick
from reciprodick import (
    CapacityError,
    CotermContext,
    CyclicCode,
    DomainError,
    GF,
    HypothesisError,
    Poly,
    Z,
    build_cyclic_code,
    coterm_construct,
    coterm_from_self_reciprocal,
    f_family,
    factor_xm_minus_1,
    generates_reversible_code,
    is_coterm,
    is_prime,
    monic_divisors,
    monic_reciprocal,
    self_reciprocal_divisors,
    verify_reversibility_by_enumeration,
    verify_reversibility_by_rank,
)
from reciprodick import coterm_codes
from reciprodick.coterm_codes import ENUMERATION_CAP, RANK_STEP_CAP


def P(ring, *coeffs):
    return Poly(ring, coeffs)


def xm_minus_1(p, m):
    return Poly(GF(p), (-1,) + (0,) * (m - 1) + (1,))


REFERENCE_WORDS = 10**5


def reference_shift(code, i):
    # x^i * g as a length-m digit tuple
    g = code.generator.coeffs
    return (0,) * i + g + (0,) * (code.m - i - len(g))


def reference_words(code):
    # the words u * g over all u with deg u < dim, as digit tuples; no library enumeration code
    p, m = code.p, code.m
    words = {(0,) * m}
    for i in range(code.dimension):
        shifted = reference_shift(code, i)
        words = {tuple([(a + c * b) % p for a, b in zip(w, shifted)]) for w in words for c in range(p)}
    return words


def check_against_reference(code):
    # the verdict against the reference's: is the set of words closed under reversal?
    result = verify_reversibility_by_enumeration(code)
    words = reference_words(code)
    reversed_words = {w[::-1] for w in words}
    assert result == (words == reversed_words), code
    return result


def split_divisors(p, m):
    # for m | p - 1, x^m - 1 is the product of x - r over the m-th roots of
    # unity r, and its monic divisors are the products over subsets of them
    ring = GF(p)
    roots = sorted({pow(a, (p - 1) // m, p) for a in range(1, p)})
    assert len(roots) == m
    return [math.prod((P(ring, -r, 1) for r in subset), start=Poly.one(ring))
            for k in range(m + 1) for subset in itertools.combinations(roots, k)]


class _Index:
    # an integer-like value that defines __index__ alone
    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


class TestIsCoterm:
    def test_examples(self):
        assert is_coterm(P(Z, 2, 12), CotermContext(2, Z)) is True
        assert is_coterm(P(Z, 5), CotermContext(1, Z)) is True
        assert is_coterm(P(Z, 1, 2, 3), CotermContext(4, Z)) is False

    def test_constant_term_is_free(self):
        assert is_coterm(P(Z, 99, 1, 5, 1), CotermContext(4, Z)) is True

    def test_absent_coefficients_read_as_zero(self):
        assert is_coterm(P(Z, 1, 2), CotermContext(4, Z)) is False  # a_2 pairs with itself, a_1 with a_3 = 0
        assert is_coterm(P(Z, 1, 0, 7), CotermContext(4, Z)) is True

    def test_degree_must_stay_below_m(self):
        with pytest.raises(DomainError):
            is_coterm(P(Z, 1, 2, 3), CotermContext(2, Z))

    def test_ring_must_match(self):
        with pytest.raises(DomainError):
            is_coterm(P(Z, 1), CotermContext(3, GF(3)))

    def test_bad_modulus(self):
        with pytest.raises(DomainError):
            CotermContext(0, Z)

    def test_context_rejects_non_integer_modulus(self):
        # CotermContext(2.5, Z) used to fail later with a bare TypeError, and m = True was accepted
        for bad in (2.5, 2.0, True, "4", None):
            with pytest.raises(DomainError, match="must be an integer"):
                is_coterm(P(Z, 1), CotermContext(bad, Z))

    def test_context_stores_the_converted_modulus(self):
        # an m defining only __index__ used to be kept as given, so is_coterm raised a bare TypeError
        ctx = CotermContext(_Index(5), GF(3))
        assert type(ctx.m) is int and ctx == CotermContext(5, GF(3))
        assert is_coterm(P(GF(3), 1, 2, 0, 0, 2), ctx) is True

    def test_context_rejects_non_ring(self):
        # CotermContext(4, "Z") used to fail later with "ring mismatch: Z vs Z"
        for bad in ("Z", 5, None):
            with pytest.raises(DomainError, match="Ring"):
                CotermContext(4, bad)

    def test_context_must_be_a_coterm_context(self):
        # is_coterm(g, 4) used to raise a bare AttributeError
        for bad in (4, None, (4, Z)):
            with pytest.raises(DomainError, match=rf"^coterm context must be a CotermContext, got {re.escape(repr(bad))}$"):
                is_coterm(P(Z, 1, 2, 2), bad)


@pytest.mark.parametrize("call", [
    lambda v: is_coterm(v, CotermContext(4, GF(3))),
    lambda v: coterm_from_self_reciprocal(v),
    lambda v: build_cyclic_code(2, 3, v),
    lambda v: monic_reciprocal(v),
    lambda v: generates_reversible_code(v),
], ids=["is_coterm", "coterm_from_self_reciprocal", "build_cyclic_code", "monic_reciprocal",
        "generates_reversible_code"])
def test_polynomial_arguments_must_be_polys(call):
    # each used to raise a bare AttributeError, e.g. build_cyclic_code(2, 3, 5)
    for bad in (5, [1, 1], None):
        with pytest.raises(DomainError, match=rf"must be a Poly, got {re.escape(repr(bad))}$"):
            call(bad)


class TestFromSelfReciprocal:
    def test_examples(self):
        poly, ctx = coterm_from_self_reciprocal(P(Z, 2, 12, 2))
        assert poly == P(Z, 2, 12) and ctx == CotermContext(2, Z)
        poly, ctx = coterm_from_self_reciprocal(P(Z, 6, 20, 6))
        assert poly == P(Z, 6, 20) and ctx == CotermContext(2, Z)
        poly, ctx = coterm_from_self_reciprocal(P(GF(2), 1, 0, 1))
        assert poly == P(GF(2), 1) and ctx == CotermContext(2, GF(2))

    def test_result_is_coterm(self):
        for n in range(2, 80, 2):
            poly, ctx = coterm_from_self_reciprocal(f_family(n, 0))
            assert is_coterm(poly, ctx)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            coterm_from_self_reciprocal(P(Z, 1, 2))  # not palindromic
        with pytest.raises(DomainError):
            coterm_from_self_reciprocal(P(Z, 5))  # constants have no leading term

    def test_all_scan_found_palindromes_give_coterms(self):
        from reciprodick import build, scan

        hits = 0
        for theorem, kwargs in (
            ("T2_1", {"n_max": 40}),
            ("T2_4", {"n_max": 39}),
            ("T2_3", {"n_max": 40}),
            ("T2_7", {"n_max": 39}),
            ("T3_1", {"n_max": 30, "p_list": (3, 5)}),
            ("T3_4", {"n_max": 29, "p_list": (3, 5)}),
            ("T4_1", {"n_max": 30}),
        ):
            for v in scan(theorem, **kwargs):
                if not v.observed:
                    continue
                poly = build(v.spec)
                if (poly.degree or 0) < 1:
                    continue
                trimmed, ctx = coterm_from_self_reciprocal(poly)
                assert is_coterm(trimmed, ctx), v.spec
                hits += 1
        assert hits > 100


class TestCotermConstruct:
    def test_z_examples(self):
        poly, ctx, degenerate = coterm_construct("T5_1", 4, 0, Z)
        assert (poly, ctx.m, degenerate) == (P(Z, 2, 12), 2, False)
        poly, ctx, degenerate = coterm_construct("T5_4", 5, 1, Z)
        assert (poly, ctx.m, degenerate) == (P(Z, 6, 20), 2, False)

    def test_degenerate_examples(self):
        poly, ctx, degenerate = coterm_construct("T5_9", 9, 1, GF(3))
        assert degenerate and poly == P(GF(3), 1) and ctx.m == 4
        poly, _, degenerate = coterm_construct("T5_7", 6, 0, GF(3))  # 6 = 2*3 has digit weight 2
        assert degenerate and poly == P(GF(3), 2)
        poly, _, degenerate = coterm_construct("T5_8", 10, 2, GF(3))  # 10 = 3^2 + 1
        assert degenerate and poly == P(GF(3), 2)
        poly, _, degenerate = coterm_construct("char2", 8, 1, GF(2))
        assert degenerate and poly == P(GF(2), 1)

    def test_non_degenerate_fp(self):
        poly, ctx, degenerate = coterm_construct("T5_7", 8, 0, GF(3))
        assert not degenerate and is_coterm(poly, ctx)

    def test_rule_name_normalization(self):
        assert coterm_construct("t5.1", 4, 0, Z) == coterm_construct("T5_1", 4, 0, Z)
        with pytest.raises(DomainError):
            coterm_construct("t5.6", 4, 0, Z)

    def test_hypothesis_errors_name_the_condition(self):
        with pytest.raises(HypothesisError, match="even n >= 4"):
            coterm_construct("T5_1", 3, 0, Z)
        with pytest.raises(HypothesisError, match="k = 0"):
            coterm_construct("T5_1", 4, 1, Z)
        with pytest.raises(HypothesisError, match="over Z"):
            coterm_construct("T5_1", 4, 0, GF(3))
        with pytest.raises(HypothesisError, match="p odd"):
            coterm_construct("T5_7", 4, 0, GF(2))
        with pytest.raises(HypothesisError, match="not dividing n"):
            coterm_construct("T5_8", 6, 2, GF(3))
        with pytest.raises(HypothesisError, match=r"n \+ 1"):
            coterm_construct("T5_9", 5, 1, GF(3))
        with pytest.raises(HypothesisError, match="odd n > 3"):
            coterm_construct("T5_4", 3, 1, Z)

    def test_rejects_non_ring(self):
        # coterm_construct("T5_7", 10, 0, "Z") used to raise AttributeError
        for rule in ("T5_1", "T5_7", "CHAR2"):
            for bad in ("Z", 3, None):
                with pytest.raises(DomainError, match="Ring"):
                    coterm_construct(rule, 10, 0, bad)

    def test_rejects_non_integer_n_and_k(self):
        # coterm_construct("T5_1", "4", 0, Z) used to raise a bare TypeError
        for n, k in (("4", 0), (4.0, 0), (True, 0), (4, 0.0), (4, False), (4, None)):
            with pytest.raises(DomainError, match="must be an integer"):
                coterm_construct("T5_1", n, k, Z)

    def test_every_rule_yields_coterm(self):
        for n in range(4, 41, 2):
            for rule in ("T5_1", "T5_3"):
                poly, ctx, _ = coterm_construct(rule, n, 0, Z)
                assert is_coterm(poly, ctx), (rule, n)
        for n in range(6, 41, 2):
            poly, ctx, _ = coterm_construct("T5_2", n, 2, Z)
            assert is_coterm(poly, ctx)
        for n in range(5, 41, 2):
            for rule in ("T5_4", "T5_5"):
                poly, ctx, _ = coterm_construct(rule, n, 1, Z)
                assert is_coterm(poly, ctx), (rule, n)


class TestFactorXmMinus1:
    def test_examples(self):
        assert factor_xm_minus_1(2, 3) == [(P(GF(2), 1, 1), 1), (P(GF(2), 1, 1, 1), 1)]
        assert factor_xm_minus_1(2, 7) == [
            (P(GF(2), 1, 1), 1),
            (P(GF(2), 1, 0, 1, 1), 1),
            (P(GF(2), 1, 1, 0, 1), 1),
        ]
        assert factor_xm_minus_1(3, 2) == [(P(GF(3), 1, 1), 1), (P(GF(3), 2, 1), 1)]

    def test_repeated_factors(self):
        assert factor_xm_minus_1(2, 4) == [(P(GF(2), 1, 1), 4)]
        assert factor_xm_minus_1(3, 6) == [(P(GF(3), 1, 1), 3), (P(GF(3), 2, 1), 3)]

    def test_product_reconstructs(self):
        for p in (2, 3, 5, 7):
            for m in range(1, 19):
                product = Poly.one(GF(p))
                for f, mult in factor_xm_minus_1(p, m):
                    product = product * f**mult
                assert product == xm_minus_1(p, m), (p, m)

    def test_factors_are_monic_irreducible(self):
        from reciprodick import is_irreducible

        for p in (2, 3, 5):
            for m in range(1, 16):
                for f, _ in factor_xm_minus_1(p, m):
                    assert f.is_monic()
                    assert is_irreducible(f, "trial"), (p, m, f)

    def test_matches_trial_division_oracle(self):
        # blind re-factorization by trial division over all monic polynomials
        def naive_factors(p, m):
            ring = GF(p)
            rem = xm_minus_1(p, m)
            out = []
            d = 1
            while rem.degree and rem.degree > 0:
                if rem.degree < 2 * d:
                    out.append((rem, 1))
                    break
                hit = None
                for tail in itertools.product(range(p), repeat=d):
                    cand = Poly(ring, tail + (1,))
                    if not rem % cand:
                        hit = cand
                        break
                if hit is None:
                    d += 1
                    continue
                mult = 0
                while not rem % hit:
                    rem = rem // hit
                    mult += 1
                out.append((hit, mult))
            return sorted(out, key=lambda fm: (len(fm[0].coeffs), fm[0].coeffs))

        for p in (2, 3, 5):
            for m in range(1, 13):
                assert factor_xm_minus_1(p, m) == naive_factors(p, m), (p, m)

    def test_capacity_and_domain_errors(self):
        with pytest.raises(CapacityError):
            factor_xm_minus_1(2, 33)
        with pytest.raises(CapacityError):
            factor_xm_minus_1(17, 4)
        with pytest.raises(DomainError):
            factor_xm_minus_1(4, 3)
        with pytest.raises(DomainError):
            factor_xm_minus_1(3, 0)

    def test_rejects_non_integer_length(self):
        # a float length used to raise a bare TypeError, and True read as m = 1
        for m in (3.0, 3.5, True, "3"):
            for call in (factor_xm_minus_1, monic_divisors):
                with pytest.raises(DomainError):
                    call(2, m)

    def test_cyclotomic_coset_cross_check(self):
        # with m = p^a * m' and p not dividing m', the irreducible factors of
        # x^m - 1 correspond to the p-cyclotomic cosets {t * p^j mod m'} of Z/m':
        # degree = coset size, multiplicity = p^a, and a factor is its own
        # monic reciprocal exactly when its coset is closed under negation
        for p in (2, 3, 5, 7, 11, 13):
            for m in range(1, 33):
                core = m
                while core % p == 0:
                    core //= p
                cosets = {frozenset(t * p**j % core for j in range(core)) for t in range(core)}
                factors = factor_xm_minus_1(p, m)
                assert sorted(f.degree for f, _ in factors) == sorted(len(c) for c in cosets), (p, m)
                assert {mult for _, mult in factors} == {m // core}, (p, m)
                closed = sum(c == frozenset(-t % core for t in c) for c in cosets)
                assert sum(monic_reciprocal(f) == f for f, _ in factors) == closed, (p, m)

    def test_larger_scale(self):
        # worst allowed shape: two octic factors among smaller ones
        factors = factor_xm_minus_1(13, 32)
        assert sum(f.degree * mult for f, mult in factors) == 32
        product = Poly.one(GF(13))
        for f, mult in factors:
            product = product * f**mult
        assert product == xm_minus_1(13, 32)


class TestDivisors:
    def test_monic_divisor_count(self):
        assert len(monic_divisors(2, 3)) == 4
        assert len(monic_divisors(2, 7)) == 8
        assert len(monic_divisors(2, 4)) == 5  # (x+1)^e for e in 0..4

    def test_self_reciprocal_divisors_examples(self):
        ring = GF(2)
        assert self_reciprocal_divisors(2, 3) == [
            Poly.one(ring),
            P(ring, 1, 1),
            P(ring, 1, 1, 1),
            P(ring, 1, 0, 0, 1),
        ]
        sr7 = self_reciprocal_divisors(2, 7)
        assert [d.coeffs for d in sr7] == [
            (1,),
            (1, 1),
            (1, 1, 1, 1, 1, 1, 1),
            (1, 0, 0, 0, 0, 0, 0, 1),
        ]

    def test_odd_p_m1_only_trivial(self):
        # x - 1 is not palindromic over an odd-characteristic field
        for p in (3, 5, 7):
            assert self_reciprocal_divisors(p, 1) == [Poly.one(GF(p))]

    def test_every_divisor_divides(self):
        for p, m in ((2, 9), (3, 8), (5, 6)):
            modulus = xm_minus_1(p, m)
            for d in monic_divisors(p, m):
                assert not modulus % d

    def test_divisor_cap(self):
        with pytest.raises(CapacityError):
            monic_divisors(13, 24)  # 18 distinct factors give 2^18 divisors


class TestCyclicCodes:
    def test_build_examples(self):
        code = build_cyclic_code(2, 3, P(GF(2), 1, 1))
        assert code.dimension == 2 and code.reversible is True
        code = build_cyclic_code(2, 7, P(GF(2), 1, 1, 0, 1))
        assert code.dimension == 4 and code.reversible is False
        code = build_cyclic_code(3, 2, Poly.one(GF(3)))
        assert code.dimension == 2 and code.reversible is True

    def test_build_validation(self):
        with pytest.raises(DomainError):
            build_cyclic_code(2, 7, P(GF(2), 1, 1, 1))  # not a divisor
        with pytest.raises(DomainError):
            build_cyclic_code(3, 2, P(GF(3), 2, 2))  # not monic
        with pytest.raises(DomainError):
            build_cyclic_code(3, 2, P(GF(2), 1, 1))  # ring mismatch
        for m in (3.0, 3.5, True):  # a float length used to raise a bare TypeError
            with pytest.raises(DomainError):
                build_cyclic_code(2, m, P(GF(2), 1, 1))

    def test_stores_the_converted_prime(self):
        # a p defining only __index__ used to be kept as given, so its own generator ring was refused
        code = CyclicCode(_Index(3), 4, P(GF(3), 2, 1))
        assert type(code.p) is int and code == CyclicCode(3, 4, P(GF(3), 2, 1))
        assert code.to_json_dict()["p"] == 3
        assert factor_xm_minus_1(_Index(3), 4) == factor_xm_minus_1(3, 4)

    def test_json_shape(self):
        code = build_cyclic_code(2, 7, P(GF(2), 1, 1, 0, 1))
        assert code.to_json_dict(enumeration_checked=True) == {
            "p": 2,
            "m": 7,
            "generator": ["1", "1", "0", "1"],
            "dimension": 4,
            "reversible": False,
            "enumeration_checked": True,
        }

    def test_monic_reciprocal(self):
        # x - 1 = x + 2 over GF(3): reversal is 2x + 1, monic form is x + 2 again
        g = P(GF(3), 2, 1)
        assert g.reciprocal() == P(GF(3), 1, 2)
        assert monic_reciprocal(g) == g
        assert generates_reversible_code(g) is True
        assert not g.is_self_reciprocal()

    def test_enumeration_examples(self):
        assert verify_reversibility_by_enumeration(build_cyclic_code(2, 3, P(GF(2), 1, 1))) is True
        assert verify_reversibility_by_enumeration(build_cyclic_code(2, 7, P(GF(2), 1, 1, 0, 1))) is False
        full = build_cyclic_code(2, 5, xm_minus_1(2, 5))
        assert full.dimension == 0
        assert verify_reversibility_by_enumeration(full) is True

    def test_enumeration_rejects_malformed_codes(self):
        # a malformed code used to be constructible and refused only by the
        # enumeration; now CyclicCode refuses it as it is made
        x1 = P(GF(2), 1, 1)
        malformed = ((2, 3, P(GF(3), 1, 1)),  # over GF(3), not GF(2)
                     (3, 3, P(GF(3), 2, 2)),  # not monic
                     (2, 3, P(GF(2), 0, 1)),  # x divides no x^m - 1
                     (2, 30, P(GF(2), 0, 1)),  # nor x^30 - 1, whose codes are over the cap
                     (2, 7, P(GF(2), 1, 1, 1)),  # not a divisor
                     (2, 3, (1, 1)), (2, 3, P(Z, 1, 1)), (2, 3, None),
                     (2, 3.0, x1), (2, True, x1), (2, 0, x1), (2, -3, x1),
                     (4, 3, x1), ("2", 3, x1), (2.0, 3, x1))
        for args in malformed:
            with pytest.raises(DomainError):
                CyclicCode(*args)
            with pytest.raises(DomainError):
                build_cyclic_code(*args)
        # the dimension and the verdict are derived, never given
        for extra in ((2,), (2, True)):
            with pytest.raises(TypeError):
                CyclicCode(2, 3, x1, *extra)
        with pytest.raises(TypeError):
            CyclicCode(2, 3, x1, dimension=2)
        code = CyclicCode(2, 3, x1)
        assert (code.dimension, code.reversible) == (2, True) and code == build_cyclic_code(2, 3, x1)
        # a non-code is refused by the enumeration itself
        for bad in ("x", None, (2, 3, x1)):
            with pytest.raises(DomainError, match=r"^code must be a CyclicCode"):
                verify_reversibility_by_enumeration(bad)
        # the refusals keep their order: the cap, then p > 181, then dim = 0
        with pytest.raises(CapacityError, match=r"^191\^3 codewords exceed"):
            verify_reversibility_by_enumeration(CyclicCode(191, 4, P(GF(191), -1, 1)))
        with pytest.raises(CapacityError, match=r"supports p <= 181, not GF\(191\)$"):
            verify_reversibility_by_enumeration(CyclicCode(191, 1, P(GF(191), -1, 1)))
        assert verify_reversibility_by_enumeration(CyclicCode(181, 1, P(GF(181), -1, 1))) is True

    def test_ring_check_reads_p_without_a_second_primality_test(self, monkeypatch):
        from reciprodick import binomics, ringpoly

        g = P(GF(13), -1, 1)
        tests = []
        for module in (binomics, ringpoly):
            monkeypatch.setattr(module, "is_prime", lambda n, test=module.is_prime: tests.append(n) or test(n))
        assert CyclicCode(13, 32, g).reversible and tests == [13]  # p is proved prime once, by the length check
        for bad, text in ((P(GF(3), 1, 1), "F3"), (P(Z, -1, 1), "Z")):
            with pytest.raises(DomainError, match=rf"^generator ring {text} does not match GF\(13\)$"):
                CyclicCode(13, 32, bad)

    def test_code_length_is_capped_before_x_m_minus_1_is_built(self):
        # x^m - 1 is built densely to check the generator, so an m past the cap is refused before it is built
        g = P(GF(3), 2, 1)
        for make in (CyclicCode, build_cyclic_code):
            with pytest.raises(CapacityError, match=r"^code length m = 10001 is above the cap 10000$"):
                make(3, 10**4 + 1, g)
        assert CyclicCode(3, 10**4, g).dimension == 10**4 - 1

    def test_enumeration_refuses_malformed_codes(self):
        # a malformed code is refused as it is made, and a non-code by the enumeration
        g = P(GF(2), 0, 1)
        for make in (lambda: CyclicCode(2, 3, g), lambda: build_cyclic_code(2, 3, g)):
            with pytest.raises(DomainError, match=r"^generator does not divide x\^3 - 1$"):
                make()
        with pytest.raises(DomainError, match=r"^code must be a CyclicCode, got \(2, 3, Poly\("):
            verify_reversibility_by_enumeration((2, 3, g))

    def test_enumeration_cap(self):
        code = build_cyclic_code(2, 25, Poly.one(GF(2)))
        with pytest.raises(CapacityError):
            verify_reversibility_by_enumeration(code)

    def test_enumeration_memory(self):
        # 2^19 messages of 256 digits, the largest code under the cap, meet as two listings of
        # 2^10 and 2^9 words; listing all 2^19 words at once takes tens of MB
        code = build_cyclic_code(2, 256, P(GF(2), 1, 1) ** 237)
        assert code.dimension == 19 and code.reversible
        tracemalloc.start()
        try:
            assert verify_reversibility_by_enumeration(code) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_enumeration_word_range(self):
        # the enumeration supports p <= 181
        code = build_cyclic_code(181, 2, P(GF(181), -1, 1))
        assert code.reversible and verify_reversibility_by_enumeration(code) is True
        with pytest.raises(CapacityError, match=r"supports p <= 181, not GF\(191\)$"):
            verify_reversibility_by_enumeration(build_cyclic_code(191, 2, P(GF(191), -1, 1)))

    def test_enumeration_wide_words(self):
        # 40 fields of 3 bits make one 120-bit word: a reversed shift is found only where every field matches
        x40 = xm_minus_1(3, 40)
        for h, reversible in ((P(GF(3), -1, 1), True), (P(GF(3), 2, 1, 1), False)):
            code = build_cyclic_code(3, 40, x40 // h)
            assert code.reversible is reversible
            assert verify_reversibility_by_enumeration(code) is reversible
            assert verify_reversibility_by_rank(code) is reversible

    def test_enumeration_matches_reference(self):
        # every code of these lengths; the pure-Python reference takes a few
        # microseconds a word, so the 12 codes above 10^5 words meet the criterion only
        seen = {True: 0, False: 0}
        for primes, lengths in (((2, 3, 5, 7), range(1, 9)), ((11, 13), range(1, 6))):
            for p in primes:
                for m in lengths:
                    for g in monic_divisors(p, m):
                        code = build_cyclic_code(p, m, g)
                        if p**code.dimension > ENUMERATION_CAP:
                            with pytest.raises(CapacityError):
                                verify_reversibility_by_enumeration(code)
                            continue
                        if p**code.dimension <= REFERENCE_WORDS:
                            result = check_against_reference(code)
                        else:
                            result = verify_reversibility_by_enumeration(code)
                        assert result == code.reversible, (p, m, g)
                        seen[result] += 1
        assert seen[True] and seen[False]

    @pytest.mark.parametrize("p", [131, 181])
    def test_enumeration_wide_digits(self, p):
        # digit sums reach 2(p - 1) > 255, so the fields are 9 bits wide; at
        # m = 5 two shifts meet in one digit, and x^5 - 1 splits over GF(p)
        seen = {True: 0, False: 0}
        for m in (2, 5):
            for g in split_divisors(p, m):
                code = build_cyclic_code(p, m, g)
                if p**code.dimension > ENUMERATION_CAP:
                    continue
                result = check_against_reference(code)
                assert result == code.reversible, (p, m, g)
                seen[result] += 1
        assert seen[True] and seen[False]

    @pytest.mark.parametrize("p, m", [(3, 21), (7, 16), (3, 26), (181, 9)])
    def test_enumeration_words_up_to_and_past_64_bits(self, p, m):
        # words that fill one 64-bit machine word or spill past it:
        # 21 fields of 3 bits take 63 bits, 16 of 4 bits 64, 26 of 3 bits 78 and 9 of 9 bits 81.
        # Every code up to 1000 words, and the largest of each verdict below 10^5
        divisors = split_divisors(p, m) if p == 181 else monic_divisors(p, m)
        codes = [code for g in divisors if p ** (code := build_cyclic_code(p, m, g)).dimension <= REFERENCE_WORDS]
        large = [code for code in codes if p**code.dimension > 1000]
        chosen = [code for code in codes if p**code.dimension <= 1000]
        chosen += [next(code for code in large if code.reversible is r) for r in {code.reversible for code in large}]
        seen = {True: 0, False: 0}
        for code in chosen:
            result = check_against_reference(code)
            assert result == code.reversible, code
            seen[result] += 1
        assert seen[True] and (seen[False] or (p, m) == (3, 21))  # every code of length 21 over GF(3) is reversible

    def test_hamming_reversal_witness(self):
        # 1101000 reverses to 0001011 = x^3*(1 + x^2 + x^3); the other cubic
        # factor is coprime to the generator, so the reversal is no codeword
        g = P(GF(2), 1, 1, 0, 1)
        other = P(GF(2), 1, 0, 1, 1)
        assert (other % g).degree is not None and other % g

    def test_massey_iff_small(self):
        # enumeration agrees with the generator criterion on every divisor
        seen = {True: 0, False: 0}
        for p in (2, 3, 5):
            for m in range(1, 9):
                for g in monic_divisors(p, m):
                    code = build_cyclic_code(p, m, g)
                    result = verify_reversibility_by_enumeration(code)
                    assert result == code.reversible, (p, m, g)
                    seen[result] += 1
        assert seen[True] and seen[False]

    def test_palindromic_generators_always_reversible(self):
        for p in (2, 3, 5):
            for m in range(1, 9):
                for g in self_reciprocal_divisors(p, m):
                    assert generates_reversible_code(g)


def rank_mod_p(rows, p):
    # textbook elimination, column by column over the whole matrix; shares no code with the library
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pick = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[rank], rows[pick] = rows[pick], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        top = rows[rank] = [a * inverse % p for a in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if c := rows[i][col]:
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def generator_rows(code):
    # G: the shifts x^i * g, i < dim
    g, dim = list(code.generator.coeffs), code.dimension
    return [[0] * i + g + [0] * (dim - 1 - i) for i in range(dim)]


def parity_rows(code):
    # H: the shifts of the reciprocal of h = (x^m - 1) / g, which span the dual code
    h = list((xm_minus_1(code.p, code.m) // code.generator).coeffs)
    r = code.m - code.dimension
    return [[0] * i + h[::-1] + [0] * (r - 1 - i) for i in range(r)]


@pytest.fixture(scope="module")
def sweep():
    # every code with p <= 13 and m <= 32 whose x^m - 1 has at most DIVISOR_CAP monic divisors
    codes = []
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, 33):
            try:
                divisors = monic_divisors(p, m)
            except CapacityError:
                continue
            codes += [build_cyclic_code(p, m, g) for g in divisors]
    return codes


def test_codes_of_divisors_equal_the_checked_codes(sweep):
    # the code command makes its codes from monic_divisors or self_reciprocal_divisors with no
    # check of the generator; over every (p, m) it accepts, each must equal the code checked at the boundary
    groups = [(pm, list(codes)) for pm, codes in itertools.groupby(sweep, key=lambda code: (code.p, code.m))]
    assert (len(groups), len(sweep)) == (184, 40160)
    for (p, m), codes in groups:
        palindromic = self_reciprocal_divisors(p, m)
        checked = codes + [build_cyclic_code(p, m, g) for g in palindromic]
        made = [CyclicCode._of_divisor(p, m, g) for g in monic_divisors(p, m) + palindromic]
        assert [vars(code) for code in made] == [vars(code) for code in checked], (p, m)
        assert [code.to_json_dict() for code in made] == [code.to_json_dict() for code in checked], (p, m)


def test_only_coterm_codes_and_cli_make_unchecked_codes():
    # CyclicCode._of_divisor skips the checks of a generator, so it must not reach a generator from outside
    src = Path(reciprodick.__file__).resolve().parent
    users = {f.name for f in src.rglob("*.py") if "_of_divisor" in f.read_text()}
    assert users == {"coterm_codes.py", "cli.py"}


class TestRankOracle:
    def test_examples(self):
        hamming = build_cyclic_code(2, 7, P(GF(2), 1, 1, 0, 1))
        assert verify_reversibility_by_rank(hamming) is False
        # x - 1 over GF(3) is not palindromic, yet its code is reversible
        assert verify_reversibility_by_rank(build_cyclic_code(3, 4, P(GF(3), -1, 1))) is True
        for p, m in ((2, 1), (2, 7), (3, 8), (13, 32), (191, 5)):
            zero, full = build_cyclic_code(p, m, xm_minus_1(p, m)), build_cyclic_code(p, m, Poly.one(GF(p)))
            assert (zero.dimension, full.dimension) == (0, m)
            assert verify_reversibility_by_rank(zero) is True and verify_reversibility_by_rank(full) is True

    def test_refuses_what_the_enumeration_refuses_as_a_non_code(self):
        x1 = P(GF(2), 1, 1)
        for bad in ("x", None, (2, 3, x1), x1):
            messages = []
            for oracle in (verify_reversibility_by_rank, verify_reversibility_by_enumeration):
                with pytest.raises(DomainError, match=r"^code must be a CyclicCode") as info:
                    oracle(bad)
                messages.append(str(info.value))
            assert messages[0] == messages[1]

    def test_step_cap(self):
        # 2 * dim * m entries of [G; rev G]: 2 * 2235 * 2236 is within 10^7, 2 * 2236 * 2237 is not
        assert RANK_STEP_CAP == 10**7 and 2 * 2235 * 2236 <= RANK_STEP_CAP < 2 * 2236 * 2237
        code = build_cyclic_code(3, 2237, P(GF(3), -1, 1))
        with pytest.raises(CapacityError, match=r"dimension 2236 has 10003864 matrix entries, above the cap"):
            verify_reversibility_by_rank(code)

    def test_uses_neither_the_criterion_nor_numpy(self, monkeypatch):
        codes = [build_cyclic_code(p, m, g) for p, m in ((2, 7), (3, 8), (5, 6)) for g in monic_divisors(p, m)]

        def forbidden(*_):
            raise AssertionError("the rank oracle must not call the criterion")

        monkeypatch.setattr(coterm_codes, "monic_reciprocal", forbidden)
        monkeypatch.setattr(coterm_codes, "generates_reversible_code", forbidden)
        monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy now raises ImportError
        assert [verify_reversibility_by_rank(code) for code in codes] == [code.reversible for code in codes]

    def test_agrees_with_the_criterion_on_the_sweep(self, sweep):
        assert len(sweep) == 40160
        verdicts = [verify_reversibility_by_rank(code) for code in sweep]
        assert [code for code, v in zip(sweep, verdicts) if v != code.reversible] == []
        assert sum(verdicts) == 8076

    def test_agrees_with_the_enumeration(self, sweep):
        # the sweep's codes of at most 10^4 words, the code command's default, and GF(181) up to the cap
        codes = [code for code in sweep if code.p**code.dimension <= 10**4]
        codes += [code for m in (2, 5) for g in split_divisors(181, m)
                  if 181 ** (code := build_cyclic_code(181, m, g)).dimension <= ENUMERATION_CAP]
        assert len(codes) == 3875 + 20
        for code in codes:
            assert verify_reversibility_by_rank(code) == verify_reversibility_by_enumeration(code), code

    @pytest.mark.parametrize("p", [181, 191])
    def test_large_primes(self, p):
        # the enumeration refuses GF(191); the rank has no bound on p or p^dim
        seen = {True: 0, False: 0}
        for m in (2, 5):
            for g in split_divisors(p, m):
                code = build_cyclic_code(p, m, g)
                result = verify_reversibility_by_rank(code)
                assert result == code.reversible, (p, m, g)
                seen[result] += 1
        assert seen[True] and seen[False]

    def test_lcd_second_witness(self, sweep):
        # for p not dividing m a cyclic code is reversible exactly when it meets its dual only
        # in 0 (Yang and Massey 1994), that is when rank [G; H] = m
        codes = [code for code in sweep if code.p <= 7 and code.m <= 20 and code.m % code.p]
        assert len(codes) == 3764
        seen = {True: 0, False: 0}
        for code in codes:
            lcd = rank_mod_p(generator_rows(code) + parity_rows(code), code.p) == code.m
            assert lcd == code.reversible == verify_reversibility_by_rank(code), code
            seen[lcd] += 1
        assert seen[True] and seen[False]
        # for p | m the witness does not hold: x + 1 generates {00, 11}, reversible and its own dual
        code = build_cyclic_code(2, 2, P(GF(2), 1, 1))
        assert code.reversible and rank_mod_p(generator_rows(code) + parity_rows(code), 2) == 1


def test_import_loads_no_numpy():
    # nothing loads numpy: not the import, not the code command, and not an enumeration
    src_dir = str(Path(reciprodick.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import reciprodick, reciprodick.cli; "
             "assert 'numpy' not in sys.modules; "
             "assert reciprodick.cli.main(['code', '--p', '3', '--m', '8']) == 0; "
             "assert reciprodick.cli.main(['code', '--p', '5', '--m', '6', '--enum-cap', '30']) == 0; "
             "assert 'numpy' not in sys.modules; "
             "reciprodick.verify_reversibility_by_enumeration(reciprodick.build_cyclic_code("
             "2, 3, reciprodick.Poly(reciprodick.GF(2), (1, 1)))); assert 'numpy' not in sys.modules")
    subprocess.run([sys.executable, "-c", probe, src_dir], check=True, capture_output=True)


def test_src_imports_only_the_standard_library():
    # every import in the package names a standard-library module or the package itself
    src = Path(reciprodick.__file__).resolve().parent
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | {"reciprodick"}]
    assert outside == []

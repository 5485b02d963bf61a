import json
import random
import re
import time
from pathlib import Path

import pytest

from reciprodick import CapacityError, DomainError, FamilySpec, GF, Poly, Ring, Z, build, gcd, pow_mod, reduce_mod_p


def P(ring, *coeffs):
    return Poly(ring, coeffs)


class TestRing:
    def test_kinds(self):
        assert Ring() == Z and Z.p is None and not Z.is_field and str(Z) == "Z"
        assert Ring(5) == GF(5) and GF(5).p == 5 and GF(5).is_field and str(GF(5)) == "F5"
        assert Z.normalize(-7) == -7 and GF(5).normalize(-7) == 3

    def test_prime_validation(self):
        for bad in (4, 1, 0, -3):
            with pytest.raises(DomainError, match="field order must be prime"):
                GF(bad)
        # a float used to be truncated and a bool taken as 0 or 1; GF(None) must not be Z
        for bad in (5.0, 5.9, True, "5", None):
            with pytest.raises(DomainError, match="field order must be an integer"):
                GF(bad)
        for bad in (4, 5.0, True):
            with pytest.raises(DomainError):
                Ring(bad)

    def test_stores_an_index_value_as_its_int(self):
        # Ring(x) used to keep x: unequal to GF(5), and FamilySpec's k-range check raised a bare TypeError
        class Five:
            def __index__(self):
                return 5

        ring = Ring(Five())
        assert type(ring.p) is int and ring.p == 5
        assert ring == GF(5) and hash(ring) == hash(GF(5)) and {GF(5): "F5"}[ring] == "F5"
        spec = FamilySpec("f", 4, 1, ring)
        assert spec.ring == GF(5) and spec.to_flat_dict()["p"] == 5
        assert build(spec) == build(FamilySpec("f", 4, 1, GF(5)))


class TestArithmetic:
    def test_add_identity(self):
        assert P(Z, 1, 1) + Poly.zero(Z) == P(Z, 1, 1)

    def test_mul_difference_of_squares(self):
        assert P(Z, 1, 1) * P(Z, 1, -1) == P(Z, 1, 0, -1)

    def test_scale_mod_5(self):
        # 2*(1+3x) = 2+6x = 2+x over F5
        assert P(GF(5), 1, 3).scale(2) == P(GF(5), 2, 1)

    def test_scale_checks_its_factor(self):
        # scale(True) used to multiply by 1, although a bool coefficient is refused
        class Three:
            def __index__(self):
                return 3

        for ring in (Z, GF(5)):
            for g in (P(ring, 1, 3), Poly.zero(ring)):
                for c, shown in ((True, "True"), (False, "False"), (1.5, "1.5"), ("2", "'2'"), (None, "None")):
                    with pytest.raises(DomainError, match=f"^scale factor must be an integer, got {re.escape(shown)}$"):
                        g.scale(c)
        assert P(GF(5), 1, 3).scale(Three()) == P(GF(5), 3, 4)
        assert P(Z, 1, 3).scale(-2) == P(Z, -2, -6) and P(GF(5), 1, 3).scale(5) == Poly.zero(GF(5))

    def test_only_ringpoly_and_families_make_unchecked_polys(self):
        # Poly._canonical skips the check of coefficients, so it must not reach code that handles outside input
        src = Path(__file__).resolve().parents[1] / "src" / "reciprodick"
        users = {f.name for f in src.rglob("*.py") if "_canonical" in f.read_text()}
        assert users == {"ringpoly.py", "families.py"}

    def test_ring_mismatch(self):
        with pytest.raises(DomainError):
            P(Z, 1) + P(GF(3), 1)
        with pytest.raises(DomainError):
            P(GF(3), 1) * P(GF(5), 1)

    def test_rejects_non_ring_and_non_poly_operands(self):
        # each used to raise a bare AttributeError
        g = P(GF(3), 1, 1)
        calls = (lambda: Poly("Z", (1,)), lambda: Poly(None, ()), lambda: g + 3, lambda: g - 3,
                 lambda: g * 3, lambda: g % 3, lambda: divmod(g, 3), lambda: gcd(g, 3),
                 lambda: pow_mod(g, 2, 3), lambda: pow_mod(3, 2, g))
        for call in calls:
            with pytest.raises(DomainError):
                call()

    def test_reflected_operators_refuse_non_polys(self):
        # 3 * g, 3 + g and 3 - g used to raise a bare TypeError while g * 3 raised DomainError,
        # and g - 3 named -3
        g = P(GF(3), 1, 1)
        for call in (lambda: 3 * g, lambda: 3 + g, lambda: 3 - g, lambda: g * 3, lambda: g + 3, lambda: g - 3):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == "operand must be a Poly, got 3"
        with pytest.raises(DomainError, match="got 2.5"):
            2.5 * g
        with pytest.raises(DomainError, match=r"got \[1\]"):
            g - [1]  # used to raise a bare TypeError from negating the list
        with pytest.raises(DomainError) as info:
            pow_mod(g, 2, 3)
        assert str(info.value) == "pow_mod's modulus must be a Poly, got 3"
        # gcd(3, g) and reduce_mod_p(3, 5) used to raise a bare AttributeError
        for call in (lambda: gcd(3, g), lambda: reduce_mod_p(3, 5)):
            with pytest.raises(DomainError, match="must be a Poly, got 3$"):
                call()

    def test_rejects_non_integer_coefficients(self):
        for ring in (Z, GF(5)):
            for coeffs in ((2.7,), (1.0,), (True,), (1, False), ("1",), "12", (None,)):
                with pytest.raises(DomainError):
                    Poly(ring, coeffs)

    def test_one_shot_iterators(self):
        # the integer pass used to consume the iterator before the bool check: iter([True, 2]) was 1 + 2x
        for ring in (Z, GF(5)):
            for coeffs in ([True, 2], [2, False], [2.5, 1]):
                with pytest.raises(DomainError):
                    Poly(ring, iter(coeffs))
        assert Poly(Z, (v for v in (1, -7, 0, 12, 0))) == P(Z, 1, -7, 0, 12)
        assert Poly(GF(5), (v for v in (1, -7, 0, 12, 0))) == P(GF(5), 1, 3, 0, 2)
        assert Poly(GF(5), iter([5, 10])) == Poly.zero(GF(5))

    def test_inputs_other_than_plain_ints_keep_their_conversions_and_messages(self):
        # lists of plain ints skip the per-coefficient conversion; everything else reads as it always did
        class Three:
            def __index__(self):
                return 3

        class Small(int):
            pass

        for ring, expected in ((Z, (3, -1, 3)), (GF(5), (3, 4, 3))):
            for coeffs in ([Three(), -1, Three()], [Small(3), -1, 3], (3, Small(-1), Three())):
                for given in (coeffs, iter(coeffs)):
                    c = Poly(ring, given).coeffs
                    assert c == expected and all(type(x) is int for x in c), (ring, coeffs)
            assert Poly(ring, iter([3, -1, 3])).coeffs == expected
            assert Poly(ring, (v for v in [3, -1, 3, 0])).coeffs == expected
            not_bool = "polynomial coefficients must be integers, not bool"
            not_int = "polynomial coefficients must be integers: '{}' object cannot be interpreted as an integer"
            for coeffs, text in (
                ([1, True], not_bool),
                ([False], not_bool),
                ([Three(), True], not_bool),
                ([1, 2.5], not_int.format("float")),
                ([True, 2.5], not_int.format("float")),  # the conversion pass fails before the bool check
                ((1.0,), not_int.format("float")),
                (["1"], not_int.format("str")),
                ([None], not_int.format("NoneType")),
            ):
                for given in (coeffs, iter(coeffs)):
                    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
                        Poly(ring, given)

    def test_trimming_and_degree(self):
        assert P(Z, 1, 2, 0, 0).coeffs == (1, 2)
        assert P(Z).degree is None
        assert P(Z, 7).degree == 0
        assert P(GF(3), 1, 3).coeffs == (1,)  # leading coefficient vanishes mod 3

    def test_zero_polynomial(self):
        z = Poly.zero(Z)
        assert not z and z.coeffs == ()

    def test_evaluate(self):
        f = P(Z, 2, 12, 2)
        assert f.evaluate(0) == 2
        assert f.evaluate(1) == 16
        assert P(Z, 0, 0, 1).evaluate(-1) == 1
        assert P(GF(5), 1, 3).evaluate(4) == (1 + 12) % 5

    def test_evaluate_rejects_non_integer_points(self):
        # 2.9 used to be read as 2 and True as 1
        for v in (2.9, 2.0, True, "2", None):
            with pytest.raises(DomainError):
                P(Z, 0, 1).evaluate(v)

    def test_coefficient_index_is_an_integer(self):
        # [1.5] and ["a"] used to raise a bare TypeError, and [True] returned a_1
        f = P(Z, 1, 2, 3)
        for i in (1.5, 1.0, "a", True, None):
            with pytest.raises(DomainError, match=rf"^coefficient index must be an integer, got {re.escape(repr(i))}$"):
                f[i]
        with pytest.raises(DomainError, match="^negative coefficient index$"):
            f[-1]
        assert (f[0], f[2], f[3], f[10**30]) == (1, 3, 0, 0)

    def test_compose_linear(self):
        x2 = P(Z, 0, 0, 1)
        assert x2.compose_linear(1, -4) == P(Z, 1, -8, 16)
        assert P(Z, 2, 12, 2).compose_linear(1, -4) == P(Z, 16, -64, 32)
        f = P(Z, 3, 1, 4)
        assert f.compose_linear(0, 1) == f

    def test_pow(self):
        assert P(Z, 1, 1) ** 2 == P(Z, 1, 2, 1)
        assert P(Z, 1, 1) ** 0 == Poly.one(Z)

    def test_exponents_must_be_integers(self):
        # x ** 2.0 and monomial(..., 2.0) used to raise a bare TypeError, x ** True returned x
        x = Poly.x(GF(3))
        for e in (2.0, 2.5, True, "2"):
            with pytest.raises(DomainError):
                x ** e
            with pytest.raises(DomainError):
                Poly.monomial(GF(3), 1, e)
        assert Poly.monomial(GF(3), 2, 3) == x ** 3 * P(GF(3), 2)

    def test_monomial_and_power_refuse_a_degree_above_the_cap(self):
        # Poly.monomial(GF(3), 1, 10**12) raised a bare MemoryError, and (1 + 2x) ** 10**20 over GF(3)
        # was still squaring after 10 s: each is now refused before anything is allocated or squared
        ring = GF(3)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"^monomial exponent 1000000000000 is above the cap 1000000$"):
            Poly.monomial(ring, 1, 10**12)
        with pytest.raises(CapacityError, match=r"^a power of degree 10{20} is above the cap 10000$"):
            P(ring, 1, 2) ** 10**20
        with pytest.raises(CapacityError, match=r"^a power of degree 10002 is above the cap 10000$"):
            P(Z, 1, 0, 1) ** 5001  # two terms: a dense power
        with pytest.raises(CapacityError, match=r"^a power of degree 1000002 is above the cap 1000000$"):
            P(Z, 0, 0, -2) ** 500001  # one term: a monomial
        with pytest.raises(CapacityError, match=r"^a power of degree a 16610-bit integer is above the cap 1000000$"):
            Poly.x(ring) ** 10**5000  # named by its size, past Python's limit on the digits of an int made text
        assert time.perf_counter() - start < 1
        # each cap itself is admitted, and a zero or constant base to any power still works
        sparse = P(ring, 1, *[0] * 4999, 1)
        assert sparse ** 2 == P(ring, 1, *[0] * 4999, 2, *[0] * 4999, 1)
        assert Poly.monomial(ring, 2, 10**6).degree == 10**6
        assert Poly.monomial(ring, 0, 10**6) == Poly.zero(ring)
        assert P(ring, 2) ** 10**20 == Poly.one(ring) and P(ring, 2) ** (10**20 + 1) == P(ring, 2)
        assert Poly.zero(ring) ** 10**20 == Poly.zero(ring) and P(Z, -1) ** (10**20 + 1) == P(Z, -1)
        assert P(GF(2), 1, 1) ** 237 == P(GF(2), 1, 1) ** 200 * P(GF(2), 1, 1) ** 37

    def test_a_sparse_monomial_above_the_dense_cap_is_made(self):
        # a monomial's power is O(degree) to make, so it takes the cap of a GF(p) member's row, not 10**4:
        # x**n - 1 can be formed beside a member of degree n
        ring = GF(3)
        start = time.perf_counter()
        assert Poly.x(ring) ** 50000 == Poly.monomial(ring, 1, 50000)
        assert (P(ring, 0, 2) ** 50001).coeffs == (0,) * 50001 + (2,)
        assert (Poly.monomial(ring, 1, 50000) - Poly.one(ring)).coeffs == (2,) + (0,) * 49999 + (1,)
        assert (P(Z, 0, -2) ** 20001).coeffs == (0,) * 20001 + (-(2**20001),)
        assert time.perf_counter() - start < 1

    def test_mul_properties_random(self):
        rng = random.Random(20260809)
        for ring in (Z, GF(7)):
            for _ in range(60):
                a = Poly(ring, [rng.randint(-6, 6) for _ in range(rng.randint(0, 5))])
                b = Poly(ring, [rng.randint(-6, 6) for _ in range(rng.randint(0, 5))])
                c = Poly(ring, [rng.randint(-6, 6) for _ in range(rng.randint(0, 5))])
                assert a * b == b * a
                assert (a * b) * c == a * (b * c)
                v = rng.randint(-9, 9)
                lhs = (a * b).evaluate(v)
                rhs = a.evaluate(v) * b.evaluate(v)
                assert lhs == ring.normalize(rhs)


class TestReciprocal:
    def test_examples(self):
        assert P(Z, 14, 20, -2).reciprocal() == P(Z, -2, 20, 14)
        assert P(Z, 9).reciprocal() == P(Z, 9)
        assert P(Z, 2, 2).reciprocal() == P(Z, 2, 2)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            Poly.zero(Z).reciprocal()

    def test_involution_with_nonzero_constant(self):
        rng = random.Random(7)
        for _ in range(80):
            coeffs = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
            a = Poly(Z, coeffs)
            assert a.reciprocal().reciprocal() == a

    def test_zero_constant_term_multiset(self):
        # reversal trims the vanished constant; the nonzero coefficients survive
        a = P(Z, 0, 0, 3, 5)
        twice = a.reciprocal().reciprocal()
        assert sorted(c for c in twice.coeffs if c) == sorted(c for c in a.coeffs if c)

    def test_is_self_reciprocal_examples(self):
        assert P(Z, 8).is_self_reciprocal()
        assert P(Z, 6, 20, 6).is_self_reciprocal()
        assert not P(Z, 14, 20, -2).is_self_reciprocal()
        assert not Poly.zero(Z).is_self_reciprocal()

    def test_is_self_reciprocal_matches_definition(self):
        rng = random.Random(11)
        for _ in range(200):
            a = Poly(Z, [rng.randint(-3, 3) for _ in range(rng.randint(0, 7))])
            n = a.degree
            if n is None:
                expected = False
            else:
                expected = all(a[i] == a[n - i] for i in range(n + 1))
            assert a.is_self_reciprocal() == expected


class TestReduceModP:
    def test_examples(self):
        assert reduce_mod_p(P(Z, 2, 12, 2), 3) == P(GF(3), 2, 0, 2)
        assert reduce_mod_p(Poly.zero(Z), 5) == Poly.zero(GF(5))
        assert reduce_mod_p(P(Z, 8), 5) == P(GF(5), 3)

    def test_degree_can_drop(self):
        assert reduce_mod_p(P(Z, 1, 5), 5) == P(GF(5), 1)

    def test_rejects_non_prime_and_non_z(self):
        with pytest.raises(DomainError):
            reduce_mod_p(P(Z, 1), 6)
        with pytest.raises(DomainError):
            reduce_mod_p(P(GF(3), 1), 3)

    def test_homomorphism(self):
        rng = random.Random(13)
        for p in (2, 3, 7):
            for _ in range(40):
                a = Poly(Z, [rng.randint(-20, 20) for _ in range(rng.randint(0, 6))])
                b = Poly(Z, [rng.randint(-20, 20) for _ in range(rng.randint(0, 6))])
                assert reduce_mod_p(a + b, p) == reduce_mod_p(a, p) + reduce_mod_p(b, p)
                assert reduce_mod_p(a * b, p) == reduce_mod_p(a, p) * reduce_mod_p(b, p)


class TestFieldOps:
    def test_divmod(self):
        ring = GF(5)
        a = P(ring, 1, 0, 0, 1)  # 1 + x^3
        b = P(ring, 1, 1)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree is None or r.degree < b.degree

    def test_divmod_random(self):
        rng = random.Random(17)
        ring = GF(7)
        for _ in range(100):
            a = Poly(ring, [rng.randint(0, 6) for _ in range(rng.randint(0, 8))])
            b = Poly(ring, [rng.randint(0, 6) for _ in range(rng.randint(1, 5))])
            if not b:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a

    def test_divmod_needs_field(self):
        with pytest.raises(DomainError):
            divmod(P(Z, 1, 1), P(Z, 1))

    def test_refusal_texts(self):
        ring = GF(3)
        with pytest.raises(DomainError, match=r"^monomial exponent must be >= 0$"):
            Poly.monomial(ring, 1, -1)
        with pytest.raises(DomainError, match=r"^negative polynomial power$"):
            P(ring, 1, 1) ** -1
        with pytest.raises(DomainError, match=r"^the zero polynomial has no monic form$"):
            Poly.zero(ring).monic()
        with pytest.raises(ZeroDivisionError, match=r"^polynomial division by zero$"):
            divmod(P(ring, 1, 1), Poly.zero(ring))

    def test_gcd(self):
        ring = GF(2)
        a = P(ring, 1, 1) * P(ring, 1, 1, 1)
        b = P(ring, 1, 1) * P(ring, 1, 0, 1)
        assert gcd(a, b) == P(ring, 1, 1)

    def test_monic(self):
        assert P(GF(5), 1, 2).monic() == P(GF(5), 3, 1)

    def test_pow_mod(self):
        ring = GF(3)
        mod = P(ring, 1, 0, 1)
        x = Poly.x(ring)
        assert pow_mod(x, 9, mod) == (x**9) % mod

    def test_pow_mod_rejects_bad_input(self):
        # used to raise ZeroDivisionError, a bare TypeError, and to compute x^1 for True
        ring = GF(3)
        x, mod = Poly.x(ring), P(ring, 1, 0, 1)
        for e, m in ((3, Poly.zero(ring)), (3.0, mod), (True, mod), ("3", mod), (-1, mod)):
            with pytest.raises(DomainError):
                pow_mod(x, e, m)


class TestJson:
    def test_canonical_form(self):
        d = P(Z, 2, 12, 2).to_json_dict()
        assert d == {"ring": "Z", "coeffs": ["2", "12", "2"]}
        d = P(GF(5), 2, 1).to_json_dict()
        assert d == {"ring": "Fp", "p": 5, "coeffs": ["2", "1"]}

    def test_big_coefficients_are_exact_decimal_strings(self):
        a = Poly(Z, (1, -(10**40), 10**40 + 7, 1))
        d = json.loads(json.dumps(a.to_json_dict()))
        assert d == {"ring": "Z", "coeffs": ["1", "-" + "1" + "0" * 40, "1" + "0" * 39 + "7", "1"]}

    def test_str(self):
        assert str(P(Z, 2, 12, 2)) == "2 + 12*x + 2*x^2"
        assert str(Poly.zero(Z)) == "0"

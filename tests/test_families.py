import json
import re
from fractions import Fraction
from math import comb

import pytest

from reciprodick import (
    DEFAULT_K_WINDOW,
    DomainError,
    FamilySpec,
    GF,
    Poly,
    Z,
    build,
    check_dickson_f_identity,
    f_expanded_even,
    f_expanded_odd,
    f_family,
    f_kind,
    reduce_mod_p,
    reversed_dickson,
)
from reciprodick.classifier import Verdict
from reciprodick.families import FAMILY_TABLE, RowCache

K_WINDOW = range(-5, 7)


def P(ring, *coeffs):
    return Poly(ring, coeffs)


def member(family, n, k=0, ring=Z):
    return build(FamilySpec(family, n, k, ring))


class TestFFamily:
    def test_anchor_values(self):
        for k in K_WINDOW:
            assert f_family(0, k) == Poly.constant(Z, 2 - k)
            assert f_family(1, k) == P(Z, 2)
        assert f_family(3, 3) == P(Z, 8)
        assert f_family(4, 0) == P(Z, 2, 12, 2)
        assert f_family(4, 2) == P(Z, 8, 8)
        assert f_family(5, 3) == P(Z, 14, 20, -2)
        assert f_family(5, 1) == P(Z, 6, 20, 6)

    def test_matches_direct_summation(self):
        # independent accumulation straight from the defining sums
        for n in range(1, 80):
            for k in (-5, -1, 0, 1, 2, 3, 6):
                acc = [0] * (n // 2 + 2)
                for j in range(n // 2 + 1):
                    b1 = comb(n - 1, 2 * j + 1) if 2 * j + 1 <= n - 1 else 0
                    acc[j] += k * b1 + 2 * (comb(n, 2 * j) if 2 * j <= n else 0)
                    acc[j + 1] -= k * b1
                assert f_family(n, k) == Poly(Z, acc), (n, k)

    def test_degree_bound(self):
        for n in range(1, 60):
            for k in K_WINDOW:
                d = f_family(n, k).degree
                assert d is None or d <= n // 2

    def test_fp_k_range(self):
        assert f_family(6, 2, GF(3)) == P(GF(3), 0, 1)
        with pytest.raises(DomainError):
            f_family(6, 3, GF(3))
        with pytest.raises(DomainError):
            f_family(6, -1, GF(5))

    def test_collapse_identity_even_k2(self):
        # at k = 2 the even-index sums collapse to 2 * sum C(n, 2j+1) x^j
        for n in range(2, 120, 2):
            expected = Poly(Z, [2 * comb(n, 2 * j + 1) for j in range(n // 2)])
            assert f_family(n, 2) == expected

    def test_collapse_identity_odd_k1(self):
        # at k = 1 the odd-index sums collapse to sum C(n+1, 2j+1) x^j
        for n in range(3, 120, 2):
            expected = Poly(Z, [comb(n + 1, 2 * j + 1) for j in range((n + 1) // 2)])
            assert f_family(n, 1) == expected


class TestExpandedForms:
    def test_examples(self):
        assert f_expanded_even(4, 0) == P(Z, 2, 12, 2)
        for k in K_WINDOW:
            assert f_expanded_odd(3, k) == P(Z, 2 * k + 2, 6 - 2 * k)
        assert f_expanded_odd(5, 1) == P(Z, 6, 20, 6)

    def test_parity_enforced(self):
        for call in (lambda: f_expanded_even(5, 0), lambda: f_expanded_even(1, 0), lambda: f_expanded_even(0, 0)):
            with pytest.raises(DomainError, match=r"^f_expanded_even requires even n > 1$"):
                call()
        for call in (lambda: f_expanded_odd(4, 0), lambda: f_expanded_odd(1, 0)):
            with pytest.raises(DomainError, match=r"^f_expanded_odd requires odd n > 1$"):
                call()

    def test_agreement_with_summation(self):
        for n in range(2, 121):
            for k in K_WINDOW:
                expanded = f_expanded_even(n, k) if n % 2 == 0 else f_expanded_odd(n, k)
                assert expanded == f_family(n, k), (n, k)

    def test_agreement_after_reduction(self):
        for p in (3, 5, 13):
            for n in range(2, 40):
                for k in (-5, 0, 1, 2, 6):
                    expanded = f_expanded_even(n, k) if n % 2 == 0 else f_expanded_odd(n, k)
                    assert reduce_mod_p(expanded, p) == reduce_mod_p(f_family(n, k), p)


class TestEndVariants:
    def test_g_h_examples(self):
        assert member("g", 4, 0) == P(Z, 2, 12, 2)
        assert member("h", 4, 1) == P(Z, 5, 10, 5)
        assert member("g", 6, 2) == P(Z, 0, 40, 12)  # ends vanish, degree drops

    def test_gstar_hstar_examples(self):
        for k in K_WINDOW:
            assert member("hstar", 5, k) == P(Z, 4 * k + 2, 20, 4 * k + 2)
        assert member("gstar", 5, 1) == P(Z, 6, 20, 6)
        assert member("gstar", 7, 0) == P(Z, 14, 42, 70, 14)

    def test_share_interior_with_f(self):
        for n in (6, 8, 14):
            for k in (-2, 0, 1, 3):
                f = f_family(n, k)
                g = member("g", n, k)
                h = member("h", n, k)
                for j in range(1, n // 2):
                    assert g[j] == f[j] == h[j]
        for n in (7, 9, 15):
            for k in (-2, 0, 1, 3):
                f = f_family(n, k)
                gs = member("gstar", n, k)
                hs = member("hstar", n, k)
                for j in range(1, (n - 1) // 2):
                    assert gs[j] == f[j] == hs[j]

    def test_parity_enforced(self):
        with pytest.raises(DomainError):
            member("g", 5, 0)
        with pytest.raises(DomainError):
            member("hstar", 4, 0)

    def test_swapped_ends_not_palindromic(self):
        # with both end coefficients exchanged, k = 1 never yields a palindrome
        def swapped(n):
            c = f_family(n, 1).coeffs
            return Poly(Z, (c[-1],) + c[1:-1] + (c[0],))

        for n in range(6, 62, 2):
            assert not swapped(n).is_self_reciprocal()
        assert swapped(6) == P(Z, 1, 35, 21, 7)


class TestKinds:
    def test_examples(self):
        assert f_kind(4, 1) == P(Z, 1, 6, 1)
        assert f_kind(4, 2) == P(Z, 4, 4)
        assert f_kind(0, 1) == P(Z, 1)
        assert f_kind(6, 2) == f_kind(6, 3)

    def test_specialization_relations(self):
        for n in range(0, 60):
            assert f_kind(n, 1).scale(2) == f_family(n, 0)
        for n in range(2, 60, 2):
            assert f_kind(n, 2).scale(2) == f_family(n, 2)

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            f_kind(4, 4)

    def test_rejects_non_integers(self):
        # f_kind(4, True) used to return the kind-1 member
        for args in ((4, True), (4, 1.0), (4.0, 1), ("4", 2)):
            with pytest.raises(DomainError, match="must be an integer"):
                f_kind(*args)


class TestFChar2:
    def test_examples(self):
        assert member("fchar2", 2, 1, GF(2)) == P(GF(2), 1, 1)
        assert member("fchar2", 4, 1, GF(2)) == P(GF(2), 1, 0, 1)
        assert member("fchar2", 3, 1, GF(2)) == Poly.zero(GF(2))

    def test_equals_f_reduced_mod_2(self):
        for n in range(1, 121):
            # the defining sum C(n-1, 2j+1) * (x^j - x^(j+1)), accumulated blind
            acc = [0] * (n // 2 + 2)
            for j in range(n // 2 + 1):
                b = comb(n - 1, 2 * j + 1) if 2 * j + 1 <= n - 1 else 0
                acc[j] += b
                acc[j + 1] -= b
            assert member("fchar2", n, 1, GF(2)) == Poly(GF(2), acc) == reduce_mod_p(f_family(n, 1), 2)

    def test_even_closed_form(self):
        for n in range(2, 121, 2):
            expected = Poly(GF(2), [comb(n + 1, 2 * j + 1) for j in range(n // 2 + 1)])
            assert member("fchar2", n, 1, GF(2)) == expected

    def test_requires_positive_n(self):
        with pytest.raises(DomainError):
            member("fchar2", 0, 1, GF(2))


class TestReversedDickson:
    def test_examples(self):
        for k in K_WINDOW:
            assert reversed_dickson(0, k) == Poly.constant(Z, 2 - k)
            assert reversed_dickson(2, k) == P(Z, 1, -(2 - k))
        assert reversed_dickson(4, 0, 1) == P(Z, 1, -4, 2)

    def test_general_a(self):
        for a in (-2, 0, 1, 3):
            assert reversed_dickson(2, 1, a) == P(Z, a * a, -1)
        # over F5, a is reduced first
        assert reversed_dickson(2, 1, 7, GF(5)) == P(GF(5), 4, 4)

    def test_integrality_identity(self):
        # (n-ki)/(n-i)*C(n-i,i) = C(n-i,i) - (k-1)*C(n-i-1,i-1), verified blind
        for n in range(1, 51):
            for k in K_WINDOW:
                for i in range(n // 2 + 1):
                    lhs = Fraction((n - k * i) * comb(n - i, i), n - i)
                    rhs = comb(n - i, i) - (k - 1) * (comb(n - i - 1, i - 1) if i else 0)
                    assert lhs == rhs

    def test_recurrence(self):
        # D_n(1, x) = D_{n-1}(1, x) - x * D_{n-2}(1, x), an independent route
        x = Poly.x(Z)
        for k in K_WINDOW:
            prev2, prev1 = reversed_dickson(0, k), reversed_dickson(1, k)
            for n in range(2, 61):
                expected = prev1 - x * prev2
                cur = reversed_dickson(n, k)
                assert cur == expected, (n, k)
                prev2, prev1 = prev1, cur

    def test_identity_examples(self):
        for k in K_WINDOW:
            assert check_dickson_f_identity(1, k)
            assert check_dickson_f_identity(2, k)
        assert check_dickson_f_identity(4, 0)

    def test_identity_requires_positive_n(self):
        with pytest.raises(DomainError, match=r"^check_dickson_f_identity requires n >= 1$"):
            check_dickson_f_identity(0, 1)

    def test_identity_hand_expansion(self):
        lhs = reversed_dickson(4, 0).scale(16)
        assert lhs == P(Z, 16, -64, 32)
        assert f_family(4, 0).compose_linear(1, -4) == P(Z, 16, -64, 32)

    def test_negative_n(self):
        with pytest.raises(DomainError):
            reversed_dickson(-1, 0)

    def test_rejects_non_integers(self):
        # reversed_dickson(4, 0.5) used to raise a false RuntimeError, (4.0, 0) a bare TypeError
        for args in ((4, 0.5), (4.0, 0), (4, True), (True, 0), ("4", 0), (4, 0, 1.5), (4, 0, True)):
            with pytest.raises(DomainError, match="must be an integer"):
                reversed_dickson(*args)
        for args in ((4.5, 0), (4, 0.0), (4, True)):
            with pytest.raises(DomainError, match="must be an integer"):
                check_dickson_f_identity(*args)


class TestFamilySpec:
    def test_build_dispatch(self):
        assert build(FamilySpec("f", 4, 0)) == P(Z, 2, 12, 2)
        assert build(FamilySpec("fchar2", 2, 1, GF(2))) == P(GF(2), 1, 1)
        assert build(FamilySpec("dickson", 4, 0, Z, a=1)) == P(Z, 1, -4, 2)
        assert build(FamilySpec("kind1", 4)) == P(Z, 1, 6, 1)
        assert build(FamilySpec("kind2", 4, ring=GF(3))) == P(GF(3), 1, 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            FamilySpec("g", 5, 0)
        with pytest.raises(DomainError):
            FamilySpec("gstar", 4, 0)
        with pytest.raises(DomainError):
            FamilySpec("g", 0, 0)
        with pytest.raises(DomainError):
            FamilySpec("fchar2", 2, 1)  # needs the F2 ring
        with pytest.raises(DomainError):
            FamilySpec("fchar2", 2, 0, GF(2))
        with pytest.raises(DomainError):
            FamilySpec("f", 4, 3, GF(3))
        with pytest.raises(DomainError):
            FamilySpec("kind1", 4, 1)
        with pytest.raises(DomainError):
            FamilySpec("nope", 4, 0)

    def test_rejects_float_and_bool_fields(self):
        # FamilySpec("f", 4.7, 0) used to raise a bare TypeError in build, ("f", 4, True) built k = 1
        for bad in (4.7, 4.0, True, "4"):
            for args in (("f", bad, 0), ("f", 4, bad), ("dickson", 4, 0, Z, bad)):
                with pytest.raises(DomainError):
                    FamilySpec(*args)

    def test_a_belongs_to_dickson_alone(self):
        # FamilySpec("f", 4, 0, Z, 5) used to build f_{4,0} and drop a
        for family, n, k, ring in (("f", 4, 0, Z), ("g", 4, 0, Z), ("h", 4, 0, GF(3)), ("gstar", 5, 0, Z),
                                   ("hstar", 5, 1, Z), ("kind1", 4, 0, Z), ("kind2", 4, 0, Z), ("kind3", 4, 0, Z),
                                   ("fchar2", 4, 1, GF(2))):
            for a in (5, 0, -1):
                with pytest.raises(DomainError, match=rf"^family {family!r} takes no parameter a$"):
                    FamilySpec(family, n, k, ring, a)
            assert FamilySpec(family, n, k, ring, 1).a == 1
        assert FamilySpec("dickson", 4, 0, Z, 5).a == 5

    def test_rejects_non_ring(self):
        # FamilySpec("f", 4, 0, "Z") used to raise AttributeError
        for bad in ("Z", 5, None, {"ring": "Z"}):
            with pytest.raises(DomainError, match="Ring"):
                FamilySpec("f", 4, 0, bad)

    def test_stores_the_converted_integers(self):
        # FamilySpec("f", numpy.int64(6), numpy.int64(2)) used to keep the int64 values, which json.dumps refuses
        class Index:
            def __init__(self, v):
                self.v = v

            def __index__(self):
                return self.v

        for spec in (FamilySpec("f", Index(6), Index(2)), FamilySpec("dickson", Index(5), Index(4), GF(7), Index(3))):
            assert all(type(getattr(spec, field)) is int for field in ("n", "k", "a"))
            assert spec == FamilySpec(spec.family, int(spec.n), int(spec.k), spec.ring, int(spec.a))
            json.dumps(spec.to_flat_dict())
            json.dumps(Verdict("T2_1", spec, True, True).to_json_dict())
        assert FamilySpec("f", Index(6), Index(2)).to_flat_dict() == {"family": "f", "n": 6, "k": 2}

    def test_build_rejects_non_spec(self):
        # build(3) used to raise a bare AttributeError
        for bad in (3, "f", None, ("f", 4, 0)):
            with pytest.raises(DomainError, match=rf"^spec must be a FamilySpec, got {re.escape(repr(bad))}$"):
                build(bad)


def test_builders_reject_non_ring():
    # each used to raise AttributeError: ... has no attribute 'is_field'
    calls = (lambda r: f_family(3, 0, r), lambda r: f_expanded_even(4, 0, r),
             lambda r: f_expanded_odd(5, 0, r), lambda r: reversed_dickson(3, 0, 1, r))
    for call in calls:
        for bad in (5, "Z", None):
            with pytest.raises(DomainError, match=rf"^ring must be a Ring, got {re.escape(repr(bad))}$"):
                call(bad)


def test_builders_check_each_member_once_through_family_spec(monkeypatch):
    # the builders hold no checks of their own: a refusal is FamilySpec's, word for word.
    # f_expanded_even("4", 0) used to raise a bare TypeError, (4.0, 0) named n - 1, f_expanded_odd(5, True) built k = 1
    cases = ((lambda: f_family(-1, 0), ("f", -1, 0)), (lambda: f_family(4, 3, GF(3)), ("f", 4, 3, GF(3))),
             (lambda: f_family(4.0, 0), ("f", 4.0, 0)), (lambda: reversed_dickson(-1, 0), ("dickson", -1, 0)),
             (lambda: reversed_dickson(4, 0, 1.5), ("dickson", 4, 0, Z, 1.5)),
             (lambda: reversed_dickson(4, -1, 1, GF(5)), ("dickson", 4, -1, GF(5))),
             (lambda: f_kind(-1, 1), ("kind1", -1)), (lambda: f_kind("4", 2), ("kind2", "4")),
             (lambda: f_expanded_even("4", 0), ("f", "4", 0)), (lambda: f_expanded_even(4.0, 0), ("f", 4.0, 0)),
             (lambda: f_expanded_odd(5, True), ("f", 5, True)), (lambda: f_expanded_odd(5, 1.0), ("f", 5, 1.0)),
             (lambda: f_expanded_even(-2, 0), ("f", -2, 0)), (lambda: f_expanded_odd(5, 5, GF(5)), ("f", 5, 5, GF(5))))
    for call, spec_args in cases:
        with pytest.raises(DomainError) as expected:
            FamilySpec(*spec_args)
        with pytest.raises(DomainError, match=rf"^{re.escape(str(expected.value))}$"):
            call()
    # and each member is checked once, by the FamilySpec it is built from, not again by its builder
    checks = []
    check = FamilySpec.__post_init__
    monkeypatch.setattr(FamilySpec, "__post_init__", lambda spec: checks.append(spec) or check(spec))
    calls = (lambda: f_family(6, 2, GF(3)), lambda: reversed_dickson(6, 2, 1, GF(3)),
             lambda: build(FamilySpec("f", 6, 2, GF(3))), lambda: f_expanded_even(6, 2, GF(3)))
    for call in calls:
        checks.clear()
        call()
        assert len(checks) == 1


def test_end_variants_carry_one_closed_form_end_of_f_at_both_ends():
    # g and gstar carry f's top end, 2-k for even n and 2n-k(n-1) for odd n; h and hstar its low end k(n-1)+2
    for ring, ks in [(Z, DEFAULT_K_WINDOW)] + [(GF(p), range(p)) for p in (2, 3, 5, 7, 11, 13)]:
        rows = RowCache()
        for n in range(2, 201):
            top_family, low_family = ("g", "h") if n % 2 == 0 else ("gstar", "hstar")
            for k in ks:
                top = 2 - k if n % 2 == 0 else 2 * n - k * (n - 1)
                for family, end in ((top_family, top), (low_family, k * (n - 1) + 2)):
                    member = build(FamilySpec(family, n, k, ring), rows)
                    assert member[0] == member[n // 2] == ring.normalize(end), (family, n, k, ring)


def _f_sums(n):
    # f_{n,k} = k*u + v straight from the defining sums with math.comb, never from the library's rows:
    # u_j = C(n-1, 2j+1) - C(n-1, 2j-1) and v_j = 2*C(n, 2j), the constant 2-k at n = 0
    if n == 0:
        return [-1], [2]
    odd = [comb(n - 1, 2 * j + 1) for j in range(n // 2)] + [0]  # C(n-1, 2j+1), j = 0..n//2
    return [b - a for a, b in zip([0] + odd, odd)], [2 * comb(n, 2 * j) for j in range(n // 2 + 1)]


def _trimmed(c):
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def test_one_row_builder_matches_defining_sums():
    # every free-k family and fchar2, over Z for n <= 600 and over GF(p), p <= 13, for n <= 300 and every k < p;
    # g and gstar copy f's x^(n//2) end onto its x^0 end, h and hstar the x^0 end onto the other
    fields = {p: GF(p) for p in (2, 3, 5, 7, 11, 13)}
    rows = RowCache()  # one cache serves every ring
    for n in range(601):
        u, v = _f_sums(n)
        variants = {"f": None} if n < 2 else {"f": None, ("g", "gstar")[n % 2]: -1, ("h", "hstar")[n % 2]: 0}
        cases = [(Z, k, None) for k in (-3, 0, 1, 2, 5)]
        if n <= 300:
            cases += [(ring, k, p) for p, ring in fields.items() for k in range(p)]
        for ring, k, p in cases:
            c = [k * a + b for a, b in zip(u, v)]
            if p is not None:
                c = [x % p for x in c]
            for family, end in variants.items():
                expected = list(c)
                if end is not None:
                    expected[0] = expected[-1] = c[end]
                got = build(FamilySpec(family, n, k, ring), rows)
                assert got.coeffs == _trimmed(expected), (family, n, k, ring)
            if p == 2 and k == 1 and n >= 1:
                assert build(FamilySpec("fchar2", n, 1, ring), rows).coeffs == _trimmed(c), n


# --------------------------------------------------- the table's pairs (v, u)


def _c(n, m):
    return comb(n, m) if 0 <= m <= n else 0


def _reference(family, n, k, a):
    # the member at k over Z, untrimmed, restated from the module docstring's sums with math.comb;
    # dickson by its division form, each quotient asserted exact
    if family == "kind1":
        return [_c(n, 2 * j) for j in range(n // 2 + 1)]
    if family in ("kind2", "kind3"):
        return [_c(n, 2 * j + 1) for j in range((n + 1) // 2)]
    if n == 0:
        return [2 - k]
    if family == "dickson":
        coeffs = []
        for i in range(n // 2 + 1):
            q, r = divmod((n - k * i) * _c(n - i, i), n - i)
            assert r == 0, (n, k, i)
            coeffs.append((-1) ** i * q * a ** (n - 2 * i))
        return coeffs
    odd = [_c(n - 1, 2 * j + 1) - _c(n - 1, 2 * j - 1) for j in range(n // 2 + 1)]  # sum of C(n-1, 2j+1)(x^j - x^(j+1))
    if family == "fchar2":
        return odd
    c = [k * d + 2 * _c(n, 2 * j) for j, d in enumerate(odd)]
    end = {"g": -1, "gstar": -1, "h": 0, "hstar": 0}.get(family)
    if end is not None:
        c[0] = c[-1] = c[end]
    return c


_PAIR_RINGS = (Z,) + tuple(GF(p) for p in (2, 3, 5, 7, 11, 13))


def _table_members():
    # (family, n, a, its fixed k or None, its rings) for every family, n <= 120, dickson's a in {1, 2, -3},
    # over Z and GF(p), p <= 13, or the family's one ring
    for n in range(121):
        for family, row in FAMILY_TABLE.items():
            for a in (1, 2, -3) if family == "dickson" else (1,):
                if n < row.n_min or (row.parity is not None and n % 2 != row.parity):
                    continue
                fixed = row.fixed_k[0] if row.fixed_k else None
                yield family, n, a, fixed, _PAIR_RINGS if row.ring is None else (row.ring,)


def _reduced_and_trimmed(v, u, p):
    # the pair reduced mod p over GF(p), then trimmed together: its top index dropped while v_D = u_D = 0
    v, u = [x if p is None else x % p for x in v], [y if p is None else y % p for y in u]
    while v and not v[-1] and not (u and u[-1]):
        v.pop()
        del u[len(v):]
    return tuple(v), tuple(u)


def test_every_table_pair_matches_the_defining_sums():
    # the table builder's pair, read by RowCache.pair, is (c(0), c(1) - c(0)) of the reference, or (c, ()) for a
    # family with a fixed k, reduced over the ring and trimmed together; and build at every k of the window is
    # v + k*u over the ring
    rows = RowCache()  # one cache serves every ring
    for family, n, a, fixed, rings in _table_members():
        v_ref = _reference(family, n, 0 if fixed is None else fixed, a)
        u_ref = () if fixed is not None else [y - x for x, y in zip(v_ref, _reference(family, n, 1, a))]
        for ring in rings:
            p = ring.p
            pair = rows.pair(FamilySpec(family, n, 0 if fixed is None else fixed, ring, a))
            assert pair == _reduced_and_trimmed(v_ref, u_ref, p), (family, n, ring, a)
            ks = [fixed] if fixed is not None else DEFAULT_K_WINDOW if p is None else range(p)
            for k in ks:
                expected = Poly(ring, [x + k * y for x, y in zip(v_ref, u_ref)] if u_ref else v_ref)
                assert build(FamilySpec(family, n, k, ring, a), rows) == expected, (family, n, k, ring, a)


def test_every_table_pair_is_canonical():
    # RowCache.pair keeps each pair in one form: two tuples of equal length (u is () for a family with a fixed
    # k), entries in [0, p-1] over GF(p), and a top (v_D, u_D) != (0, 0) unless the pair is empty
    rows = RowCache()
    for family, n, a, fixed, rings in _table_members():
        for ring in rings:
            v, u = rows.pair(FamilySpec(family, n, 0 if fixed is None else fixed, ring, a))
            where = family, n, ring, a
            assert type(v) is tuple and type(u) is tuple, where
            assert len(u) == (0 if fixed is not None else len(v)), where
            if ring.p is not None:
                assert all(0 <= x < ring.p for x in v + u), where
            assert not v or v[-1] or (u and u[-1]), where

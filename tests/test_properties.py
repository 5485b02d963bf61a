"""Property tests: ring axioms, division, reciprocals, Lucas and irreducibility.

The differential tests compare Poly arithmetic, which reduces mod p once per
result and skips the constructor's check, with schoolbook references that
reduce at every step, and check that every result is canonical.

Hypothesis draws the inputs.  ``derandomize=True`` fixes the examples for a
given hypothesis version, so the suite stays deterministic, and
``max_examples`` keeps each property to a fraction of a second or so.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reciprodick import (
    FAMILIES,
    GF,
    FamilySpec,
    Poly,
    Z,
    binomial_mod_p_lucas,
    binomial_row_mod_p,
    build,
    check_dickson_f_identity,
    gcd,
    is_irreducible,
    is_prime,
    pow_mod,
)
from reciprodick.families import FAMILY_TABLE

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

rings = st.sampled_from([Z] + [GF(p) for p in SMALL_PRIMES])
fields = st.sampled_from([GF(p) for p in SMALL_PRIMES])


def polys(ring, max_len=8):
    return st.lists(st.integers(-60, 60), max_size=max_len).map(lambda c: Poly(ring, c))


def monic(ring, deg):
    return st.lists(st.integers(0, ring.p - 1), min_size=deg, max_size=deg).map(
        lambda c: Poly(ring, c + [1]))


@st.composite
def triples(draw):
    ring = draw(rings)
    return tuple(draw(polys(ring)) for _ in range(3))


@PROPERTY
@given(triples())
def test_ring_axioms(t):
    a, b, c = t
    zero, one = Poly.zero(a.ring), Poly.one(a.ring)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a and a - a == zero
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a
    assert a * (b + c) == a * b + a * c


@PROPERTY
@given(st.data())
def test_divmod_identity(data):
    ring = data.draw(fields)
    a = data.draw(polys(ring, 12))
    b = data.draw(polys(ring))
    assume(b)
    q, r = divmod(a, b)
    assert a == (a // b) * b + a % b == q * b + r
    assert r.degree is None or r.degree < b.degree


@PROPERTY
@given(st.data())
def test_reciprocal_is_an_involution(data):
    ring = data.draw(rings)
    a = data.draw(polys(ring))
    assume(a and a[0] != 0)
    r = a.reciprocal()
    assert r.degree == a.degree
    assert r.reciprocal() == a


@PROPERTY
@given(st.sampled_from((2, 3, 5, 7, 13, 101)), st.integers(0, 3000), st.integers(0, 3100))
def test_lucas_matches_math_comb(p, n, m):
    assert binomial_mod_p_lucas(n, m, p) == math.comb(n, m) % p


def _prime_at_most(q):
    while not is_prime(q):
        q -= 1
    return q


primes = st.one_of(st.sampled_from(SMALL_PRIMES), st.integers(2, 2**61 - 1).map(_prime_at_most))


@PROPERTY
@given(primes, st.integers(0, 1999), st.lists(st.integers(0, 1999), min_size=1, max_size=8))
def test_row_mod_p_matches_lucas(p, n, ms):
    # each Lucas call tests p for primality, so a few entries per row, not all
    row = binomial_row_mod_p(n, p)
    assert len(row) == n + 1
    for m in ms:
        m %= n + 1
        assert row[m] == binomial_mod_p_lucas(n, m, p)


@PROPERTY
@given(st.integers(1, 100), st.integers(-10**6, 10**6))
def test_dickson_f_identity(n, k):
    # 2^n * D_{n,k}(1, x) = f_{n,k}(1 - 4x)
    assert check_dickson_f_identity(n, k)


@settings(PROPERTY, max_examples=100)
@given(st.data())
def test_products_are_reducible(data):
    ring = data.draw(fields)
    da = data.draw(st.integers(1, 29))
    db = data.draw(st.integers(1, 30 - da))
    a, b = data.draw(monic(ring, da)), data.draw(monic(ring, db))
    assert is_irreducible(a * b, "gcd") is False
    assert is_irreducible(a * b) is False


# ---------------------------------------------------- differential arithmetic

# 2^89 - 1 lies above is_prime's deterministic bound (about 2^81.5), so Ring refuses it: the widest field
# is the largest prime below 2^81
WIDE_FIELDS = [GF(p) for p in (2, 3, 5, 13, 2**61 - 1, _prime_at_most(2**81))]
wide_rings = st.sampled_from([Z] + WIDE_FIELDS)
wide_fields = st.sampled_from(WIDE_FIELDS)
coefficients = st.one_of(st.integers(-3, 3), st.integers(-(2**100), 2**100))


def wide_polys(ring, min_len=0, max_len=8):
    return st.lists(coefficients, min_size=min_len, max_size=max_len).map(lambda c: Poly(ring, c))


def assert_canonical(r):
    p = r.ring.p
    assert type(r) is Poly and type(r.coeffs) is tuple
    assert all(type(c) is int for c in r.coeffs)
    assert not r.coeffs or r.coeffs[-1] != 0
    assert p is None or all(0 <= c < p for c in r.coeffs)
    assert r == Poly(r.ring, list(r.coeffs))


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def schoolbook_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y if p is None else (out[i + j] + x * y) % p
    return _trim(out)


def schoolbook_divmod(a, b, p):
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        quo[i] = c = rem[i + len(b) - 1] * inv % p
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] - c * y) % p
    return _trim(quo), _trim(rem)


@PROPERTY
@given(st.data())
def test_ring_operations_are_canonical_and_match_schoolbook(data):
    ring = data.draw(wide_rings)
    a, b = data.draw(wide_polys(ring)), data.draw(wide_polys(ring))
    c = data.draw(coefficients)
    results = [a + b, a - b, -a, a * b, a.scale(c), b.scale(c)]
    results += [a.reciprocal()] if a else []
    for r in results:
        assert_canonical(r)
    assert (a * b).coeffs == schoolbook_mul(a.coeffs, b.coeffs, ring.p)
    assert (a - b) + b == a and a.scale(c) == Poly(ring, [c * v for v in a.coeffs])


@PROPERTY
@given(st.data())
def test_field_division_is_canonical_and_matches_schoolbook(data):
    # deg a up to 40 over deg b up to 5: long quotients keep the remainder unreduced for many steps
    ring = data.draw(wide_fields)
    length = data.draw(st.integers(0, 41))
    a = data.draw(wide_polys(ring, length, length))
    b = data.draw(wide_polys(ring, min_len=1, max_len=6))
    assume(b)
    q, r = divmod(a, b)
    for x in (q, r, a // b, a % b, gcd(a, b), pow_mod(a, data.draw(st.integers(0, 50)), b)):
        assert_canonical(x)
    assert (q.coeffs, r.coeffs) == schoolbook_divmod(a.coeffs, b.coeffs, ring.p)
    if a:
        assert_canonical(a.monic())


@st.composite
def members(draw):
    family = draw(st.sampled_from(FAMILIES))
    row = FAMILY_TABLE[family]
    ring = row.ring or draw(wide_rings)
    n = draw(st.integers(row.n_min, 30))
    n += row.parity is not None and n % 2 != row.parity
    ks = st.integers(-(10**6), 10**6) if ring.p is None else st.integers(0, ring.p - 1)
    k = row.fixed_k[0] if row.fixed_k else draw(ks)
    a = draw(st.integers(-5, 5)) if family == "dickson" else 1
    return FamilySpec(family, n, k, ring, a)


@PROPERTY
@given(members())
def test_members_are_canonical(spec):
    assert_canonical(build(spec))

"""Property tests: ring axioms, division, reciprocals, Lucas and irreducibility.

Hypothesis draws the inputs.  ``derandomize=True`` fixes the examples for a
given hypothesis version, so the suite stays deterministic, and
``max_examples`` keeps each property to a fraction of a second or so.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reciprodick import (
    GF,
    Poly,
    Z,
    binomial_mod_p_lucas,
    binomial_row_mod_p,
    check_dickson_f_identity,
    is_irreducible,
    is_prime,
)

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

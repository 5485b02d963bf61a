"""Coterm polynomials and reversible cyclic codes.

A coterm polynomial in R[x]/(x^m - 1) is a_0 + a_1 x + ... + a_{m-1} x^{m-1}
with a_i = a_{m-i} for 1 <= i <= floor(m/2); the constant term is free.
Removing the leading term of a self-reciprocal polynomial of degree m yields
a coterm polynomial for that modulus, and each named construction (one
``classifier.Rule`` row of COTERM_TABLE) is a member the classification
proves self-reciprocal with its leading term removed.

The code half factors x^m - 1 over GF(p) from its p-cyclotomic cosets,
enumerates monic divisors, builds the cyclic codes they generate, and
decides reversibility.  A code is checked once: ``CyclicCode`` checks a
generator from outside at the boundary, and the divisors the library makes
are divisors by construction, so the ``code`` command makes their codes
with no second division of x^m - 1.  A cyclic code is reversible exactly
when its monic generator g equals its monic reciprocal
g(0)^-1 * x^deg(g) * g(1/x); for generators with constant term 1 (always
the case over GF(2)) this coincides with g being palindromic.  Two oracles
check that criterion independently: the rank of the generator matrix
stacked over its reversal, and a brute-force search of every codeword for
each reversed generator shift rev(x^i * g), met in the middle over Python
ints.  Both are plain Python.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .binomics import is_power_of, require_prime, weight_base_p
from .classifier import (
    OVER_F2,
    OVER_ODD_P,
    OVER_Z,
    P_NOT_DIVIDING_N,
    P_NOT_DIVIDING_N_PLUS_1,
    Condition,
    Rule,
    canonical_id,
    check_hypotheses,
)
from .errors import CapacityError, DomainError, as_int, int_text, require_type
from .families import FamilySpec, build
from .ringpoly import GF, Poly, Ring, gcd

ENUMERATION_CAP = 10**6
RANK_STEP_CAP = 10**7
_ENUMERATION_P_MAX = 181  # kept as the oracle's published refusal; no word width depends on it
DIVISOR_CAP = 4096
_FACTOR_P_CAP = 13
_FACTOR_M_CAP = 32
_CODE_M_CAP = 10**4  # x^m - 1 mod a dense monic g of degree m/2 took 1.0 s over GF(2), 1.8 s over GF(13) at the cap


# ------------------------------------------------------------------- coterm


@dataclass(frozen=True)
class CotermContext:
    """Ambient modulus for cotermness: the ring R[x]/(x^m - 1)."""

    m: int
    ring: Ring

    def __post_init__(self):
        m = as_int(self.m, "coterm modulus m")
        if m < 1:
            raise DomainError("coterm modulus m must be >= 1")
        require_type(self.ring, Ring, "coterm ring")
        object.__setattr__(self, "m", m)


def is_coterm(a: Poly, ctx: CotermContext) -> bool:
    """True iff a_i = a_{m-i} for all 1 <= i <= floor(m/2) (a_0 is free)."""
    ring = require_type(ctx, CotermContext, "coterm context").ring
    if require_type(a, Poly, "coterm candidate").ring != ring:
        raise DomainError(f"ring mismatch: {a.ring} vs {ctx.ring}")
    deg = a.degree
    if deg is not None and deg >= ctx.m:
        raise DomainError(f"degree {deg} is not below the modulus m = {ctx.m}")
    return all(a[i] == a[ctx.m - i] for i in range(1, ctx.m // 2 + 1))


def coterm_from_self_reciprocal(a: Poly) -> tuple[Poly, CotermContext]:
    """Drop the leading term of a self-reciprocal polynomial of degree >= 1.

    The result is coterm for the modulus m = deg(a).
    """
    if not require_type(a, Poly, "input").is_self_reciprocal():
        raise DomainError("input must be self-reciprocal")
    deg = a.degree
    if deg < 1:
        raise DomainError("a nonzero constant has no term to remove")
    trimmed = Poly(a.ring, a.coeffs[:-1])
    return trimmed, CotermContext(deg, a.ring)


class CotermConstruction(NamedTuple):
    poly: Poly
    context: CotermContext
    degenerate: bool


_EVEN_N_GE_4 = Condition("even n >= 4", lambda n: n >= 4 and n % 2 == 0)
_EVEN_N_GE_6 = Condition("even n >= 6", lambda n: n >= 6 and n % 2 == 0)
_ODD_N_GT_3 = Condition("odd n > 3", lambda n: n > 3 and n % 2 == 1)

COTERM_TABLE = {
    "T5_1": Rule("coterm", ("f",), OVER_Z, _EVEN_N_GE_4, fixed_k=0),
    "T5_2": Rule("coterm", ("f",), OVER_Z, _EVEN_N_GE_6, fixed_k=2),
    "T5_3": Rule("coterm", ("g",), OVER_Z, _EVEN_N_GE_4, fixed_k=0),
    "T5_4": Rule("coterm", ("f",), OVER_Z, _ODD_N_GT_3, fixed_k=1),
    "T5_5": Rule("coterm", ("gstar",), OVER_Z, _ODD_N_GT_3, fixed_k=1),
    "T5_7": Rule("coterm", ("f",), OVER_ODD_P, _EVEN_N_GE_4, fixed_k=0,
                 degenerate=(lambda n, p: weight_base_p(n, p) == 2, 2)),
    "T5_8": Rule("coterm", ("f",), OVER_ODD_P, _EVEN_N_GE_6, fixed_k=2,
                 sides=(P_NOT_DIVIDING_N,), degenerate=(lambda n, p: is_power_of(n - 1, p), 2)),
    "T5_9": Rule("coterm", ("f",), OVER_ODD_P, _ODD_N_GT_3, fixed_k=1,
                 sides=(P_NOT_DIVIDING_N_PLUS_1,), degenerate=(lambda n, p: is_power_of(n, p), 1)),
    "CHAR2": Rule("coterm", ("fchar2",), OVER_F2, _EVEN_N_GE_4, fixed_k=1,
                  degenerate=(lambda n, p: is_power_of(n, 2), 1)),
}

COTERM_RULES = tuple(COTERM_TABLE)
_ALIASES = {"R5_CHAR2": "CHAR2", "T5_CHAR2": "CHAR2"}


def coterm_rule(name: str) -> tuple[str, Rule]:
    """The canonical id of a coterm rule (spellings like 't5.1') and its table row."""
    t = canonical_id(name, COTERM_TABLE, "coterm rule", _ALIASES)
    return t, COTERM_TABLE[t]


def coterm_construct(rule: str, n: int, k: int, ring: Ring) -> CotermConstruction:
    """Build the named coterm polynomial; degenerate side cases are flagged.

    ``check_hypotheses``, shared with the rules, names a failed hypothesis.
    When a degenerate side case applies (flag True) the result is the known
    constant: 2 for T5_7 with digit weight w_p(n) = 2, 2 for T5_8 with
    n = p^l + 1, 1 for T5_9 with n = p^l, and 1 for CHAR2 with n = 2^l.
    """
    t, row = coterm_rule(rule)
    n, k = as_int(n, f"{t} n"), as_int(k, f"{t} k")
    if not isinstance(ring, Ring):
        raise DomainError(f"{t} takes a Ring, got {ring!r}")
    check_hypotheses(t, row, row.families[0], n, k, ring)
    poly, context = coterm_from_self_reciprocal(build(FamilySpec(row.families[0], n, k, ring)))
    test, value = row.degenerate or (None, None)
    degenerate = test is not None and test(n, ring.p)
    if degenerate and poly != Poly.constant(ring, value):
        raise RuntimeError(f"degenerate coterm case must collapse to the constant {value}, got {poly}")
    return CotermConstruction(poly, context, degenerate)


# ------------------------------------------------------- factoring x^m - 1


def _poly_key(f: Poly):
    return (len(f.coeffs), f.coeffs)


def _xm_minus_1(ring: Ring, m: int) -> Poly:
    return Poly(ring, (-1,) + (0,) * (m - 1) + (1,))


def _prime_and_length(p: int, m: int) -> tuple[int, int]:
    """p and m as ints, once p is prime and m is an integer >= 1."""
    require_prime(p)
    m = as_int(m, "length m")
    if m < 1:
        raise DomainError("length m must be >= 1")
    return as_int(p, "prime p"), m


def _factor_squarefree_core(p: int, m: int) -> list[Poly]:
    # monic irreducible factors of x^m - 1 over GF(p), p not dividing m, by
    # Berlekamp's splitting with its basis known in closed form: the residues
    # v with v^p = v mod x^m - 1 are spanned by the coset sums e_C = sum of x^t
    # over the orbits C of t -> p*t on Z/m, one orbit per irreducible factor
    ring = GF(p)
    cosets, seen = [], set()
    for s in range(m):
        if s not in seen:
            cosets.append({s * pow(p, j, m) % m for j in range(m)})
            seen |= cosets[-1]
    factors = [_xm_minus_1(ring, m)]
    for coset in cosets[1:]:  # the sum over {0} is the constant 1, which splits nothing
        if len(factors) == len(cosets):
            break
        e = Poly(ring, [int(t in coset) for t in range(m)])
        # e^p = e mod g, so the gcd(g, e - c) over c in GF(p) are coprime with product g
        factors = [h for g in factors for c in range(p)
                   if (h := gcd(g, e - Poly.constant(ring, c))).degree]
    return sorted(factors, key=_poly_key)


def factor_xm_minus_1(p: int, m: int) -> list[tuple[Poly, int]]:
    """Complete factorization of x^m - 1 over GF(p) as (factor, multiplicity).

    Writing m = p^a * m' with p not dividing m', x^m - 1 equals
    (x^m' - 1)^(p^a), so every irreducible factor of the squarefree core
    carries multiplicity p^a.
    """
    p, m = _prime_and_length(p, m)
    if p > _FACTOR_P_CAP or m > _FACTOR_M_CAP:
        raise CapacityError(f"factor_xm_minus_1 supports p <= {_FACTOR_P_CAP}, m <= {_FACTOR_M_CAP}")
    mult = 1
    core = m
    while core % p == 0:
        core //= p
        mult *= p
    return [(f, mult) for f in _factor_squarefree_core(p, core)]


def monic_divisors(p: int, m: int) -> list[Poly]:
    """All monic divisors of x^m - 1 over GF(p), sorted, capped at 4096."""
    factors = factor_xm_minus_1(p, m)
    total = math.prod(mult + 1 for _, mult in factors)
    if total > DIVISOR_CAP:
        raise CapacityError(f"x^{m} - 1 has {total} monic divisors, above the cap {DIVISOR_CAP}")
    divisors = [Poly.one(GF(p))]
    for f, mult in factors:
        powers = [f]
        for _ in range(mult - 1):
            powers.append(powers[-1] * f)
        divisors += [d * q for d in divisors for q in powers]
    return sorted(divisors, key=_poly_key)


def self_reciprocal_divisors(p: int, m: int) -> list[Poly]:
    """The palindromic monic divisors of x^m - 1 over GF(p)."""
    return [d for d in monic_divisors(p, m) if d.is_self_reciprocal()]


# --------------------------------------------------------------- cyclic codes


def monic_reciprocal(g: Poly) -> Poly:
    """The reciprocal of g scaled monic: g(0)^-1 * x^deg * g(1/x) for g(0) != 0."""
    require_type(g, Poly, "monic_reciprocal's argument")._require_field()
    return g.reciprocal().monic()


def generates_reversible_code(g: Poly) -> bool:
    """Massey's criterion: the cyclic code of g is reversible iff g equals
    its monic reciprocal."""
    return monic_reciprocal(require_type(g, Poly, "generator")) == g


@dataclass(frozen=True)
class CyclicCode:
    """A cyclic code of length m over GF(p) with monic generator g | x^m - 1, checked when made from outside."""

    p: int
    m: int
    generator: Poly
    dimension: int = field(init=False)
    reversible: bool = field(init=False)

    def __post_init__(self):
        p, m = _prime_and_length(self.p, self.m)
        if m > _CODE_M_CAP:
            raise CapacityError(f"code length m = {int_text(m)} is above the cap {_CODE_M_CAP}")
        g = require_type(self.generator, Poly, "generator")
        if g.ring.p != p:
            raise DomainError(f"generator ring {g.ring} does not match GF({p})")
        if not g.is_monic():
            raise DomainError("generator must be monic")
        if _xm_minus_1(g.ring, m) % g:
            raise DomainError(f"generator does not divide x^{m} - 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "dimension", m - g.degree)
        object.__setattr__(self, "reversible", generates_reversible_code(g))

    @classmethod
    def _of_divisor(cls, p: int, m: int, g: Poly) -> CyclicCode:
        """The code of a divisor g that ``monic_divisors`` returned for this (p, m), made unchecked.

        factor_xm_minus_1 has checked p and m, and g is a product of its monic
        irreducible factors, each to at most its multiplicity, so g is a monic
        divisor of x^m - 1 over GF(p) by construction.  Only such a g may be
        passed: a generator from outside goes through ``CyclicCode``.
        """
        code = object.__new__(cls)
        code.__dict__.update(p=p, m=m, generator=g, dimension=m - g.degree,
                             reversible=generates_reversible_code(g))
        return code

    def to_json_dict(self, enumeration_checked: bool = False) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "generator": [str(c) for c in self.generator.coeffs],
            "dimension": self.dimension,
            "reversible": self.reversible,
            "enumeration_checked": enumeration_checked,
        }


def build_cyclic_code(p: int, m: int, generator: Poly) -> CyclicCode:
    """The cyclic code of length m over GF(p) that ``generator`` generates, checked as it is made."""
    return CyclicCode(p, m, generator)


def verify_reversibility_by_rank(code: CyclicCode) -> bool:
    """Linear-algebra oracle: the code is reversible iff rank [G; rev G] = dim.

    G has the dim rows x^i * g, i < dim, as length-m coefficient lists, and
    rev G each of them reversed.  The code is closed under reversal exactly
    when the reversed rows lie in the row space of G.  Gaussian elimination
    over GF(p) on Python lists takes the 2 * dim rows in turn, reduces each
    by the pivot rows so far in ascending pivot column, and returns False as
    soon as the rank exceeds dim.  It does not use Massey's criterion, and
    works for every prime p with no p^dim cap.

    Each of the 2 * dim rows is made, scanned and scaled once and read at
    each pivot column.  The rows x^i * g enter as pivots unreduced, since
    g(0) != 0.  A reversed row in their span is c * x^j * g, since rev g has
    g's degree, and is cleared by one subtraction; the first reversed row
    outside it ends the elimination after at most dim.  So the work is a few
    steps per entry of [G; rev G].  Above RANK_STEP_CAP = 10^7 entries
    (2 * dim * m) it raises CapacityError before any row is made; at the cap
    a call took at most about 1 s on one core of a 2-core x86-64 host.
    Anything but a CyclicCode is refused with DomainError.
    """
    p, m, dim = require_type(code, CyclicCode, "code").p, code.m, code.dimension
    if 2 * dim * m > RANK_STEP_CAP:
        raise CapacityError(f"the rank check of a length-{m} code of dimension {dim} has "
                            f"{2 * dim * m} matrix entries, above the cap {RANK_STEP_CAP}")
    g = list(code.generator.coeffs)

    def shift(i):  # x^i * g; g has m - dim + 1 coefficients
        return [0] * i + g + [0] * (dim - 1 - i)

    rows = itertools.chain(map(shift, range(dim)), (shift(i)[::-1] for i in range(dim)))
    columns = []  # the pivot columns, ascending
    pivots = {}  # column -> (end, entries): a pivot row's nonzero span [column, end), led by a 1
    for row in rows:
        for col in columns:
            if c := row[col]:
                end, entries = pivots[col]
                row[col:end] = [(a - c * b) % p for a, b in zip(row[col:end], entries)]
        support = [j for j, a in enumerate(row) if a]
        if not support:
            continue
        col, end = support[0], support[-1] + 1
        inverse = pow(row[col], -1, p)
        pivots[col] = (end, [a * inverse % p for a in row[col:end]])
        bisect.insort(columns, col)
        if len(columns) > dim:
            return False
    return len(columns) == dim


def verify_reversibility_by_enumeration(code: CyclicCode) -> bool:
    """Brute-force oracle: search every codeword for each reversed generator shift.

    The codewords are exactly u(x) * g(x) for deg(u) < dimension.  Reversal
    permutes coordinates, so the reversed code is spanned by the reversed
    shifts rev(x^i * g), i < dimension; it has as many words as the code, so
    the code is closed under reversal iff every one of them is a codeword.

    The search meets in the middle.  A codeword u * g is a + b, where
    a = u_lo * g for the low h = ceil(dim / 2) digits u_lo of u and
    b = x^h * u_hi * g for the rest, so rev(x^i * g) is a codeword exactly
    when rev(x^i * g) - b is one of the p^h words a for one of the
    p^(dim - h) words b.  Every message u is tried, but only
    p^ceil(dim/2) + p^floor(dim/2) words are listed.  Each word is one int,
    digit j in the w-bit field j, w = bit_length(p - 1) + 1, so a sum of two
    digits fits its field, and one guard-bit step reduces every field mod p
    with no division.  The first reversed shift that is no codeword answers
    False.
    """
    p, m, dim = require_type(code, CyclicCode, "code").p, code.m, code.dimension
    if p**dim > ENUMERATION_CAP:
        raise CapacityError(f"{p}^{dim} codewords exceed the enumeration cap {ENUMERATION_CAP}")
    if p > _ENUMERATION_P_MAX:
        raise CapacityError(f"the enumeration oracle supports p <= {_ENUMERATION_P_MAX}, not GF({p})")
    if dim == 0:
        return True  # only the zero word, which reverses to itself
    w = (p - 1).bit_length() + 1
    ones = ((1 << w * m) - 1) // ((1 << w) - 1)  # a 1 in each of the m fields
    bias = ones * ((1 << w - 1) - p)

    def reduce(s):  # a field holding s_j < 2p sets its guard bit in s_j + 2^(w-1) - p exactly when s_j >= p
        return s - ((s + bias) >> w - 1 & ones) * p

    coeffs = code.generator.coeffs
    g = sum(c << w * j for j, c in enumerate(coeffs))
    multiples = [0]  # c * g for c < p
    for _ in range(p - 1):
        multiples.append(reduce(multiples[-1] + g))

    def span(shifts):  # every sum of c * x^i * g over the shifts i, c < p
        words = [0]
        for i in shifts:
            words = [reduce(u + c) for c in [c << w * i for c in multiples] for u in words]
        return words

    h = (dim + 1) // 2
    low, high = set(span(range(h))), span(range(h, dim))  # the words a and the words b
    full = ones * p  # r - b is r + p - b reduced, which borrows from no field
    reversed_g = sum(c << w * (m - 1 - j) for j, c in enumerate(coeffs))
    reversed_shifts = (reversed_g >> w * i for i in range(dim))  # rev(x^i * g)
    return all(any(reduce(r + full - b) in low for b in high) for r in reversed_shifts)

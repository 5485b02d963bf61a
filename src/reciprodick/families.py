"""Constructors for the reversed-Dickson-derived polynomial families.

Wire names (shared by the CLI, the JSON forms, and the classifiers):

  dickson   n-th reversed Dickson polynomial of the (k+1)-th kind,
            D_{n,k}(a, x) = sum_i (n-ki)/(n-i) * C(n-i, i) * (-x)^i * a^(n-2i)
            for n >= 1, with the constant 2-k at n = 0.
  f         k * sum_j C(n-1, 2j+1) * (x^j - x^(j+1)) + 2 * sum_j C(n, 2j) * x^j
            for n >= 1, with the constant 2-k at n = 0.  The composition
            f(1 - 4x) equals 2^n * D_{n,k}(1, x) coefficientwise over Z.
  g, h      f for even n with one end copied onto the other: its x^(n/2) end
            2-k at both ends (g), or its x^0 end k(n-1)+2 at both (h).
  gstar,    the odd-n analogues: f's x^((n-1)/2) end 2n-k(n-1) at both ends
  hstar     (gstar), or its x^0 end k(n-1)+2 at both (hstar).
  kind1     sum_j C(n, 2j) * x^j          (first-kind specialization)
  kind2/3   sum_j C(n, 2j+1) * x^j        (second- and third-kind; identical)
  fchar2    f at k = 1 over GF(2), where the even-binomial part vanishes:
            sum_j C(n-1, 2j+1) * (x^j - x^(j+1)).

All but dickson read one binomial row from a row source ``rows``, n ->
(C(n, 0), ..., C(n, n)): f, fchar2, g, h, gstar and hstar read the row of n-1
alone, C(n, 2j) coming from it by Pascal's rule C(n, 2j) = C(n-1, 2j) +
C(n-1, 2j-1), and kind1/kind2/kind3 read the row of n; each table row states
which (``row_lag``), so ``require_rows`` refuses a member whose row is above
its cap without reading any row.  So f and its end copies reach one n further
under the row caps than the kinds.  One ``RowCache`` per call serves every
ring, and the spec's ring picks its rows: over Z under ROW_CAP, or mod p
under ROW_MOD_P_CAP with no big integers.  It keeps the last Z row and the
last GF(p) row, whatever its p, and over Z it builds a row one or two above
the kept one from it by Pascal's rule, so a walk of n upward computes only
its first Z row entry by entry.
The builders use only sums and products of row entries, so a GF(p) member is
the Z member reduced, whichever entry point builds it; Poly trims its degree
drops.  Dickson reads its Z binomials directly, under ROW_CAP, over either
ring.  Over GF(p) the kind parameter k is restricted to [0, p-1].

Every member is affine in k (D_{n,k} = k*D_{n,1} + (1-k)*D_{n,0}), and each
table builder returns its family's pair (v, u), read from ``rows``, the
member at k being v + k*u; g, h, gstar and hstar are f's pair with one end
copied, dickson's pair needs no division, and a family with a fixed k
returns (its list, ()).  ``RowCache.pair``, the only code that reduces or
trims a pair, keeps the last one canonical: reduced mod p over GF(p), trimmed
together to (v_D, u_D) != (0, 0), as tuples.  ``build``, the only maker of a
member's Poly, reads it as is: v at k = 0 or a fixed k, else v + k*u, reduced
mod p over GF(p), made unchecked (``Poly._canonical``).  A member's n, k, a
and ring are checked once, by ``FamilySpec`` (a != 1 belongs to dickson
alone): the public builders build through it; the table's are unchecked cores.
``f_expanded_even/odd`` are the closed-form reference for f's ends: f's
interior between the ends k(n-1)+2 and 2-k (even n) or 2n-k(n-1) (odd n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .binomics import ROW_CAP, binomial, binomial_row, binomial_row_mod_p, next_binomial_row, require_row
from .errors import CapacityError, DomainError, as_int, int_text, require_type
from .ringpoly import GF, Poly, Ring, Z


@dataclass(frozen=True)
class Family:
    """One row of the family table: the n, k and ring a family admits, and its builder.

    A family without ``fixed_k`` takes any k over Z and k in [0, p-1] over GF(p).
    """

    # the pair (v, u) of (spec, rows): the member at k is v + k*u; u is () for a family with a fixed k
    build: Callable[["FamilySpec", Callable[[int], tuple[int, ...]]], tuple[Sequence[int], Sequence[int]]]
    parity: int | None = None  # required n % 2, for a family stated for n > 1 only
    n_min: int = 0  # least admitted n; the CLI starts its sweeps there
    fixed_k: tuple[int, str] | None = None  # the only k, and how errors state it
    ring: Ring | None = None  # the only ring, for a family that has one
    row_lag: int | None = 1  # the builder reads the row of n - row_lag; None: Z binomials read directly


@dataclass(frozen=True, slots=True)
class FamilySpec:
    """A fully parametrized family member: which family, n, k, ring, and a."""

    family: str
    n: int
    k: int = 0
    ring: Ring = Z
    a: int = 1

    def __post_init__(self):
        # scan makes one spec per verdict, so plain ints and an exact Ring skip the conversions
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        n, k, a, ring = self.n, self.k, self.a, self.ring
        if type(n) is not int or type(k) is not int or type(a) is not int:
            n, k, a = (as_int(getattr(self, field), f"family {field}") for field in ("n", "k", "a"))
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "k", k)
            object.__setattr__(self, "a", a)
        if n < 0:
            raise DomainError("family index n must be >= 0")
        if type(ring) is not Ring:
            require_type(ring, Ring, "ring")
        row = FAMILY_TABLE[self.family]
        if a != 1 and self.family != "dickson":
            raise DomainError(f"family {self.family!r} takes no parameter a")
        if row.ring is not None and ring != row.ring:
            raise DomainError(f"family {self.family!r} lives over {row.ring}")
        if row.fixed_k is not None and k != row.fixed_k[0]:
            raise DomainError(f"family {self.family!r} {row.fixed_k[1]}")
        if n < row.n_min or (row.parity is not None and n % 2 != row.parity):
            n_text = f"n >= {row.n_min}" if row.parity is None else f"{('even', 'odd')[row.parity]} n > 1"
            raise DomainError(f"family {self.family!r} requires {n_text}")
        if row.fixed_k is None and ring.p is not None and not 0 <= k < ring.p:
            raise DomainError(f"over {ring} the kind parameter k must lie in [0, {ring.p - 1}], got {int_text(k)}")

    def to_flat_dict(self) -> dict:
        """The spec as flat record fields: family, n, k, then p over GF(p) and a for dickson."""
        d = {"family": self.family, "n": self.n, "k": self.k}
        if self.ring.is_field:
            d["p"] = self.ring.p
        if self.family == "dickson":
            d["a"] = self.a
        return d


# --------------------------------------------------------------- summation forms


class RowCache:
    """One call's binomial rows, the last over Z and the last over any GF(p), and the last family pair.

    ``row(n, p)`` makes a row it does not keep by ``binomial_row_mod_p`` over GF(p); over Z it builds the
    row one or two above the kept one from it by Pascal's rule (``next_binomial_row``), any other by
    ``binomial_row``.  A GF(p) row is never stepped, so only the last one is kept, whatever its p.
    ``pair(spec)`` is the spec's pair (v, u) from its family's table builder, fed the rows of the spec's own
    ring, reduced mod p over GF(p) and trimmed together into tuples; it is kept, keyed by (family, n, ring, a).
    """

    __slots__ = ("_z", "_fp", "_key", "_pair")

    def __init__(self):
        self._z = None, ()  # (n, row) of the last row read over Z
        self._fp = None, None, ()  # (p, n, row) of the last row read over any GF(p)
        self._key = self._pair = None

    @staticmethod
    def of(rows) -> "RowCache":  # rows itself, a new RowCache for None; DomainError for anything else
        if rows is None:
            return RowCache()
        if type(rows) is not RowCache:  # not isinstance: build trusts the pair, so no subclass may supply it
            raise DomainError(f"rows must be a RowCache, got {rows!r}")
        return rows

    def row(self, n: int, p: int | None) -> tuple[int, ...]:
        if p is not None:
            kept_p, kept_n, row = self._fp
            if n != kept_n or p != kept_p:
                row = binomial_row_mod_p(n, p)
                self._fp = p, n, row
            return row
        kept_n, row = self._z
        if n != kept_n:
            if kept_n is not None and 0 < n - kept_n <= 2:
                for _ in range(n - kept_n):
                    row = next_binomial_row(row)
            else:
                row = binomial_row(n)
            self._z = n, row
        return row

    def pair(self, spec: "FamilySpec") -> tuple[tuple[int, ...], tuple[int, ...]]:
        p = spec.ring.p  # a ring is its p
        key = spec.family, spec.n, p, spec.a
        if key != self._key:
            v, u = FAMILY_TABLE[spec.family].build(spec, lambda n: self.row(n, p))
            if p is not None:
                v, u = [x % p for x in v], [y % p for y in u]
            d = len(v)  # u is () or as long as v
            while d and not v[d - 1] and not (u and u[d - 1]):
                d -= 1
            self._pair = tuple(v)[:d], tuple(u)[:d]
            self._key = key
        return self._pair


def require_rows(family: str, n: int, ring: Ring) -> None:
    """The CapacityError that building a member (family, n, ring) raises for a row above its cap, reading no row."""
    lag = FAMILY_TABLE[family].row_lag
    if lag is None:
        if n > ROW_CAP:
            raise CapacityError(f"the reversed Dickson member of n = {int_text(n)} reads binomials above "
                                f"ROW_CAP = {ROW_CAP}")
    elif n >= lag:
        require_row(n - lag, ring.p)


def _f_u(r: tuple[int, ...]) -> list[int]:
    # f's k-part from the row r of n-1: x^j has r[2j+1] - r[2j-1], entries outside the row being 0
    odd = r[1::2]
    return [b1 - b1_before for b1, b1_before in zip(odd + (0,), (0,) + odd)]


def _f(s: FamilySpec, rows) -> tuple[list[int], list[int]]:
    # the summation form of f as its pair (v, u): the constant 2-k at n = 0, else the defining sums
    # collected by power, read from the one row r of n-1 by Pascal's rule C(n, 2j) = C(n-1, 2j) +
    # C(n-1, 2j-1): x^j has v_j = 2 * (r[2j] + r[2j-1]) and u_j = r[2j+1] - r[2j-1]
    n = s.n
    if n == 0:
        return [2], [-1]
    r = rows(n - 1)
    return [2 * (b0 + b1_before) for b0, b1_before in zip(r[::2] + (0,), (0,) + r[1::2])], _f_u(r)


def _copied_end(end: int):
    # f's pair with its end ``end`` at both ends: the x^(n//2) end (-1) for g and gstar,
    # the x^0 end (0) for h and hstar; the interior is f's
    def coeffs(s: FamilySpec, rows) -> tuple[list[int], list[int]]:
        v, u = _f(s, rows)
        v[0] = v[-1] = v[end]
        u[0] = u[-1] = u[end]
        return v, u

    return coeffs


def f_family(n: int, k: int, ring: Ring = Z) -> Poly:
    """The generating family: its summation form, from the ring's binomial rows."""
    return build(FamilySpec("f", n, k, ring))


def _f_expanded(n: int, k: int, ring: Ring, parity: int) -> Poly:
    """The closed coefficient form of f_{n,k}, n > 1 of the given parity: f's interior between closed-form ends."""
    s = FamilySpec("f", n, k, ring)
    n, k, word = s.n, s.k, ("even", "odd")[parity]
    if n <= 1 or n % 2 != parity:
        raise DomainError(f"f_expanded_{word} requires {word} n > 1")
    high = 2 - k if parity == 0 else 2 * n - k * (n - 1)  # when build trims entries, they and high are zero
    return Poly(ring, (k * (n - 1) + 2, *build(s).coeffs[1 : n // 2], high))


def f_expanded_even(n: int, k: int, ring: Ring = Z) -> Poly:
    """Closed coefficient form for even n > 1: ends k(n-1)+2 and 2-k."""
    return _f_expanded(n, k, ring, 0)


def f_expanded_odd(n: int, k: int, ring: Ring = Z) -> Poly:
    """Closed coefficient form for odd n > 1: ends k(n-1)+2 and -k(n-1)+2n."""
    return _f_expanded(n, k, ring, 1)


def f_kind(n: int, kind: int) -> Poly:
    """Kind specializations over Z: kind 1 picks even binomials, 2 and 3 odd."""
    kind = as_int(kind, "f_kind kind")
    if kind not in (1, 2, 3):
        raise DomainError(f"kind must be 1, 2 or 3, got {int_text(kind)}")
    return build(FamilySpec(f"kind{kind}", n))


# ------------------------------------------------------------ reversed Dickson


def reversed_dickson(n: int, k: int, a: int = 1, ring: Ring = Z) -> Poly:
    """D_{n,k}(a, x), computed exactly without division.

    Each x^i coefficient is (-1)^i * (n-ki)/(n-i) * C(n-i, i) * a^(n-2i), which
    equals (-1)^i * a^(n-2i) * [C(n-i, i) + (1-k) * C(n-i-1, i-1)]: a sum of
    integers for every n >= 1, i <= n//2 and any integer k.
    """
    return build(FamilySpec("dickson", n, k, ring, a))


def _dickson(s: FamilySpec, rows) -> tuple[list[int], list[int]]:
    # the division-free form as its pair (v, u): x^i has v_i = (-1)^i * a^(n-2i) * [C(n-i, i) + C(n-i-1, i-1)]
    # and u_i = -(-1)^i * a^(n-2i) * C(n-i-1, i-1), C(n-1, -1) being 0
    n = s.n
    if n == 0:
        return [2], [-1]
    require_rows("dickson", n, s.ring)
    a = s.ring.normalize(s.a)
    v, u = [], []
    for i in range(n // 2 + 1):
        sign_power = (-1) ** i * a ** (n - 2 * i)
        low = binomial(n - i - 1, i - 1) if i else 0
        v.append(sign_power * (binomial(n - i, i) + low))
        u.append(-sign_power * low)
    return v, u


def check_dickson_f_identity(n: int, k: int) -> bool:
    """True iff 2^n * D_{n,k}(1, x) equals f_{n,k}(1 - 4x) coefficientwise over Z."""
    n, k = as_int(n, "check_dickson_f_identity n"), as_int(k, "check_dickson_f_identity k")
    if n < 1:
        raise DomainError("check_dickson_f_identity requires n >= 1")
    lhs = reversed_dickson(n, k).scale(2**n)
    rhs = f_family(n, k).compose_linear(1, -4)
    return lhs == rhs


# ----------------------------------------------------------------- the table


_KIND2 = Family(lambda s, rows: (rows(s.n)[1::2], ()), fixed_k=(0, "takes no kind parameter k"), row_lag=0)

FAMILY_TABLE = {
    "dickson": Family(_dickson, row_lag=None),
    "f": Family(_f),
    "g": Family(_copied_end(-1), parity=0, n_min=2),
    "h": Family(_copied_end(0), parity=0, n_min=2),
    "gstar": Family(_copied_end(-1), parity=1, n_min=3),
    "hstar": Family(_copied_end(0), parity=1, n_min=3),
    "kind1": Family(lambda s, rows: (rows(s.n)[::2], ()), fixed_k=(0, "takes no kind parameter k"), row_lag=0),
    "kind2": _KIND2,
    "kind3": _KIND2,  # the third kind coincides with the second
    # f at k = 1 over GF(2), where v = 2 * (...) vanishes: f's u alone
    "fchar2": Family(lambda s, rows: (_f_u(rows(s.n - 1)), ()), n_min=1, fixed_k=(1, "fixes k = 1"), ring=GF(2)),
}

FAMILIES = tuple(FAMILY_TABLE)


def build(spec: FamilySpec, rows: RowCache | None = None) -> Poly:
    """The only maker of a member's Poly: v + k*u from the spec's pair in ``rows``, by default a new RowCache."""
    v, u = RowCache.of(rows).pair(require_type(spec, FamilySpec, "spec"))
    k, p = spec.k, spec.ring.p
    # the pair is canonical and k a plain int, so only v + k*u is reduced, and the member is not re-checked
    if not (u and k):  # k = 0 or a fixed k: the member is v
        c = list(v)
    elif p is None:
        c = [x + k * y for x, y in zip(v, u)]
    else:
        c = [(x + k * y) % p for x, y in zip(v, u)]
    return Poly._canonical(spec.ring, c)

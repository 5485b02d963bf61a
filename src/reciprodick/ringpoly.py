"""Exact dense polynomial arithmetic over Z and over prime fields.

A polynomial a_0 + a_1 x + ... + a_n x^n is stored as the coefficient tuple
(a_0, ..., a_n) with trailing zeros trimmed.  The zero polynomial is the
empty tuple and has no degree (``degree`` is None).  Over GF(p) every stored
coefficient lies in [0, p-1].  Ring and Poly values are immutable and every
operation is a pure function, so values are safe to share between threads.

A Poly is checked once, at the boundary: ``Poly(ring, coeffs)`` converts and
checks outside input.  The operations, and ``families.build``, compute their
coefficients from ints already canonical, reduce them mod p once and make their
result through ``Poly._canonical``, which trims and stores without a re-check.

The canonical JSON form (output only) keeps coefficients as base-10
strings so arbitrary-precision integers survive any JSON reader:

    {"ring": "Z", "coeffs": ["2", "12", "2"]}
    {"ring": "Fp", "p": 5, "coeffs": ["2", "1"]}
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .binomics import is_prime
from .errors import DomainError, as_int, int_text, require_type


@dataclass(frozen=True, slots=True)
class Ring:
    """Coefficient domain: the integers (p is None) or the prime field GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            p = as_int(self.p, "field order")
            if not is_prime(p):
                shown = int_text(p) if type(self.p) is int else repr(self.p)
                raise DomainError(f"field order must be prime, got {shown}")
            object.__setattr__(self, "p", p)  # an __index__ value is stored as the int it stands for

    @property
    def is_field(self) -> bool:
        return self.p is not None

    def normalize(self, c: int) -> int:
        return c if self.p is None else c % self.p

    def __str__(self):
        return "Z" if self.p is None else f"F{self.p}"

    def to_json_dict(self) -> dict:
        if self.p is None:
            return {"ring": "Z"}
        return {"ring": "Fp", "p": self.p}


Z = Ring()


def GF(p: int) -> Ring:
    """The prime field with p elements."""
    return Ring(as_int(p, "field order"))


@dataclass(frozen=True, slots=True)
class Poly:
    """Dense polynomial with exact coefficients over a Ring."""

    ring: Ring
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        # the check of outside input (operations use _canonical), so read (and reduce) the integers in one pass
        if not isinstance(self.ring, Ring):
            raise DomainError(f"polynomial ring must be a Ring, got {self.ring!r}")
        p = self.ring.p
        coeffs = self.coeffs
        try:
            if not isinstance(coeffs, (tuple, list)):
                coeffs = tuple(coeffs)  # a one-shot iterator must survive both passes
            types = set(map(type, coeffs))
            if types <= {int}:  # plain ints, as every builder makes them: no conversion to do
                c = list(coeffs) if p is None else [v % p for v in coeffs]
            elif p is None:
                c = list(map(operator.index, coeffs))
            else:
                c = [operator.index(v) % p for v in coeffs]
        except TypeError as e:
            raise DomainError(f"polynomial coefficients must be integers: {e}") from None
        if bool in types:
            raise DomainError("polynomial coefficients must be integers, not bool")
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @classmethod
    def _canonical(cls, ring: Ring, c: list[int]) -> "Poly":
        """The Poly of a fresh list c of plain ints, in [0, p-1] over GF(p): c is trimmed, not re-checked."""
        while c and c[-1] == 0:
            c.pop()
        poly = object.__new__(cls)
        object.__setattr__(poly, "ring", ring)
        object.__setattr__(poly, "coeffs", tuple(c))
        return poly

    # ------------------------------------------------------------- builders

    @classmethod
    def zero(cls, ring: Ring) -> "Poly":
        return cls(ring, ())

    @classmethod
    def constant(cls, ring: Ring, c: int) -> "Poly":
        return cls(ring, (c,))

    @classmethod
    def one(cls, ring: Ring) -> "Poly":
        return cls(ring, (1,))

    @classmethod
    def x(cls, ring: Ring) -> "Poly":
        return cls(ring, (0, 1))

    @classmethod
    def monomial(cls, ring: Ring, c: int, e: int) -> "Poly":
        """c * x**e."""
        e = as_int(e, "monomial exponent")
        if e < 0:
            raise DomainError("monomial exponent must be >= 0")
        return cls(ring, (0,) * e + (c,))

    # ------------------------------------------------------------ structure

    @property
    def degree(self) -> int | None:
        """Degree of the trimmed polynomial; None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> int:
        """Coefficient of x**i (0 beyond the stored degree)."""
        i = as_int(i, "coefficient index")
        if i < 0:
            raise DomainError("negative coefficient index")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self) -> bool:
        return self.leading_coefficient == 1

    def _same_ring(self, other: "Poly") -> None:
        if self.ring != require_type(other, Poly, "operand").ring:
            raise DomainError(f"ring mismatch: {self.ring} vs {other.ring}")

    # ----------------------------------------------------------- arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        self._same_ring(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        p = self.ring.p
        low = [x + y for x, y in zip(a, b)] if p is None else [(x + y) % p for x, y in zip(a, b)]
        return Poly._canonical(self.ring, low + list(a[len(b):]))

    def __neg__(self) -> "Poly":
        p = self.ring.p
        return Poly._canonical(self.ring, [-v if p is None else -v % p for v in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -require_type(other, Poly, "operand")

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_ring(other)
        if not self.coeffs or not other.coeffs:
            return Poly._canonical(self.ring, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        p = self.ring.p
        return Poly._canonical(self.ring, out if p is None else [v % p for v in out])

    # Python reflects an operator only onto a left operand that is not a Poly, which _same_ring refuses
    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __pow__(self, e: int) -> "Poly":
        e = as_int(e, "polynomial exponent")
        if e < 0:
            raise DomainError("negative polynomial power")
        result = Poly.one(self.ring)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c: int) -> "Poly":
        """Multiply every coefficient by the ring element c."""
        c, p = as_int(c, "scale factor"), self.ring.p
        return Poly._canonical(self.ring, [c * v if p is None else c * v % p for v in self.coeffs])

    def evaluate(self, v: int) -> int:
        """Horner evaluation at the ring element v."""
        v = self.ring.normalize(as_int(v, "evaluation point"))
        acc = 0
        for c in reversed(self.coeffs):
            acc = self.ring.normalize(acc * v + c)
        return acc

    def compose_linear(self, c0: int, c1: int) -> "Poly":
        """The exact expansion of self(c0 + c1*x)."""
        lin = Poly(self.ring, (c0, c1))
        out = Poly.zero(self.ring)
        for c in reversed(self.coeffs):
            out = out * lin + Poly.constant(self.ring, c)
        return out

    # ------------------------------------------------ reciprocal machinery

    def reciprocal(self) -> "Poly":
        """Coefficient reversal x^deg * self(1/x), at the trimmed degree."""
        if not self.coeffs:
            raise DomainError("reciprocal of the zero polynomial is undefined")
        return Poly._canonical(self.ring, list(reversed(self.coeffs)))

    def is_self_reciprocal(self) -> bool:
        """True iff nonzero with a palindromic coefficient tuple.

        Nonzero constants are self-reciprocal; the zero polynomial is not.
        """
        return bool(self.coeffs) and self.coeffs == self.coeffs[::-1]

    # --------------------------------------------------- field-only helpers

    def _require_field(self) -> int:
        if not self.ring.is_field:
            raise DomainError("operation requires a prime-field ring")
        return self.ring.p

    def monic(self) -> "Poly":
        """Scale a nonzero polynomial over GF(p) to leading coefficient 1."""
        p = self._require_field()
        if not self.coeffs:
            raise DomainError("the zero polynomial has no monic form")
        inv = pow(self.leading_coefficient, p - 2, p)
        return self.scale(inv)

    def __divmod__(self, other: "Poly"):
        self._same_ring(other)
        p = self._require_field()
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        b = other.coeffs
        db = len(b) - 1
        rem = list(self.coeffs)
        dq = len(rem) - len(b)
        if dq < 0:
            return Poly._canonical(self.ring, []), self
        quo = [0] * (dq + 1)
        inv = pow(b[-1], p - 2, p)
        # rem's entries stay only congruent mod p: each step reduces the one it reads, and skips the
        # leading term it cancels, so the remainder is rem[:db], reduced once at the end
        for i in range(dq, -1, -1):
            c = rem[i + db] * inv % p
            if c:
                quo[i] = c
                for j in range(db):
                    rem[i + j] -= c * b[j]
        return Poly._canonical(self.ring, quo), Poly._canonical(self.ring, [v % p for v in rem[:db]])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    # -------------------------------------------------------- serialization

    def to_json_dict(self) -> dict:
        d = self.ring.to_json_dict()
        try:
            d["coeffs"] = [str(c) for c in self.coeffs]
        except ValueError:  # a coefficient past Python's limit on the digits of an int made text
            d["coeffs"] = [_decimal(c) for c in self.coeffs]
        return d

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            text = _decimal(c)
            if i == 0:
                terms.append(text)
            elif i == 1:
                terms.append(f"{text}*x" if c != 1 else "x")
            else:
                terms.append(f"{text}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(terms)


def _decimal(c: int) -> str:
    """str(c) in full, also past Python's limit on the digits of an int made text, which stays as it is.

    Past the limit c is split at a power of ten into halves, each written the same way.
    """
    try:
        return str(c)
    except ValueError:
        if c < 0:
            return "-" + _decimal(-c)
        k = c.bit_length() * 3 // 20  # about half of c's digits: log10(2) > 3/10
        high, low = divmod(c, 10**k)
        return _decimal(high) + _decimal(low).zfill(k)


def reduce_mod_p(a: Poly, p: int) -> Poly:
    """Coefficientwise reduction of an integer polynomial into GF(p)."""
    if require_type(a, Poly, "reduce_mod_p's argument").ring != Z:
        raise DomainError("reduce_mod_p expects a polynomial over Z")
    return Poly(GF(p), a.coeffs)


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over a prime field (0 for gcd(0, 0))."""
    require_type(a, Poly, "operand")._same_ring(b)
    a._require_field()
    while b:
        a, b = b, a % b
    return a.monic() if a else a


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    """base**e reduced mod a nonzero polynomial over a prime field."""
    e = as_int(e, "exponent")
    if e < 0:
        raise DomainError("negative exponent")
    require_type(mod, Poly, "pow_mod's modulus")._same_ring(base)
    mod._require_field()
    if not mod:
        raise DomainError("pow_mod needs a nonzero modulus")
    result = Poly.one(base.ring) % mod
    base = base % mod
    while e:
        if e & 1:
            result = result * base % mod
        base = base * base % mod
        e >>= 1
    return result

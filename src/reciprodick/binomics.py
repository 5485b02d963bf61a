"""Exact binomial coefficients and base-p digit machinery.

Everything here is plain integer arithmetic: arbitrary-precision binomial
coefficients, canonical base-p expansions, the digitwise (Lucas) reduction
of C(n, m) and of a whole binomial row modulo a prime, and the base-p digit
weight.  These are the number-theoretic kernels the polynomial families and
classifiers build on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import CapacityError, DomainError, as_int, int_text

# Deterministic Miller-Rabin witness set: the primes up to 41 decide every
# n below _MR_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

# binomial_mod_p_lucas refuses a C(n, m) mod p whose digit factors take more steps
LUCAS_STEP_CAP = 10**6
# binomial_row, next_binomial_row and binomial_row_mod_p refuse a row of a larger n: on a 2-core Xeon
# the row of n = 10^4 took 6.7 s over Z made fresh, growing as about n^2.8, and 2.2 ms stepped from the
# row of n - 1 (it holds 9 MB of digits); the row of n = 10^6 mod 1000003, one digit row, took 0.2 s,
# and mod 2, 3 or 13 25 ms or less
ROW_CAP = 10**4
ROW_MOD_P_CAP = 10**6


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with a fixed witness set)."""
    n = as_int(n, "is_prime argument")
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise CapacityError(f"is_prime is deterministic only below {_MR_BOUND}")
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """DomainError "<p> is not prime" unless p is prime."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")


def binomial(n: int, m: int) -> int:
    """C(n, m) exactly, with value 0 whenever m < 0 or m > n."""
    # called once per row entry, so plain ints skip the conversion
    if type(n) is not int or type(m) is not int:
        n, m = as_int(n, "binomial n"), as_int(m, "binomial m")
    if n < 0:
        raise DomainError("binomial requires n >= 0")
    if m < 0 or m > n:
        return 0
    return math.comb(n, m)


def require_row(n: int, p: int | None = None) -> None:
    """CapacityError when the row of n is above its cap: ROW_CAP over Z (p None), ROW_MOD_P_CAP mod p."""
    if p is None:
        if n > ROW_CAP:
            raise CapacityError(f"the binomial row of n = {int_text(n)} is above ROW_CAP = {ROW_CAP}")
    elif n > ROW_MOD_P_CAP:
        raise CapacityError(f"the binomial row of n = {int_text(n)} mod {p} is above ROW_MOD_P_CAP = {ROW_MOD_P_CAP}")


def binomial_row(n: int) -> tuple[int, ...]:
    """(C(n, 0), ..., C(n, n)): the lower half by ``binomial``, the upper half by symmetry."""
    n = as_int(n, "binomial_row n")
    if n < 0:
        raise DomainError("binomial_row requires n >= 0")
    require_row(n)
    half = [binomial(n, m) for m in range(n // 2 + 1)]
    return tuple(half + half[: (n + 1) // 2][::-1])


def next_binomial_row(row: tuple[int, ...]) -> tuple[int, ...]:
    """The row of n + 1 from ``row``, the row of n, by Pascal's rule C(n+1, j) = C(n, j-1) + C(n, j).

    The lower half is one sum per entry, the upper half its mirror, as in
    ``binomial_row``, which stays the reference.
    """
    n = len(row)  # the n of the new row
    require_row(n)
    half = [1, *map(operator.add, row[: n // 2], row[1 : n // 2 + 1])]
    return tuple(half + half[: (n + 1) // 2][::-1])


def is_power_of(n: int, p: int) -> bool:
    """True iff n = p**l for some integer l >= 1."""
    # runs in T3_4's predicate and the coterm degenerate tests, so plain ints skip the conversion
    if type(n) is not int or type(p) is not int:
        n, p = as_int(n, "is_power_of n"), as_int(p, "is_power_of p")
    if p < 2:
        raise DomainError(f"is_power_of requires a base p >= 2, got {int_text(p)}")
    if n < p:
        return False
    while n % p == 0:
        n //= p
    return n == 1


@dataclass(frozen=True)
class PadicDigits:
    """Base-p digits of a non-negative integer, least significant first.

    The digit list is canonical: each digit lies in [0, p-1], the last digit
    is nonzero, and the value 0 has the empty digit list.
    """

    p: int
    digits: tuple[int, ...]

    def value(self) -> int:
        v = 0
        for d in reversed(self.digits):
            v = v * self.p + d
        return v


def digits_base_p(n: int, p: int) -> PadicDigits:
    """Canonical base-p expansion of n >= 0."""
    require_prime(p)
    return PadicDigits(p, tuple(_digits(_natural(n, "digits_base_p"), p)))


def weight_base_p(n: int, p: int) -> int:
    """Sum of the base-p digits of n."""
    require_prime(p)
    return sum(_digits(_natural(n, "weight_base_p"), p))


def _natural(n: int, what: str) -> int:
    # n as an int, DomainError unless n >= 0
    n = as_int(n, f"{what} n")
    if n < 0:
        raise DomainError(f"{what} requires n >= 0")
    return n


def _digits(n: int, p: int) -> list[int]:
    # base-p digits of an int n >= 0, least significant first, for a prime p already checked
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return digits


def _digit_pairs(n: int, m: int, p: int, what: str) -> list[tuple[int, int]]:
    # the aligned base-p digits (a, b) of n and m >= 0, as far as m has digits
    require_prime(p)
    n, m = as_int(n, f"{what} n"), as_int(m, f"{what} m")
    if n < 0 or m < 0:
        raise DomainError(f"{what} requires n, m >= 0")
    pairs = []
    while m:
        n, a = divmod(n, p)
        m, b = divmod(m, p)
        pairs.append((a, b))
    return pairs


def _binomial_below_p(a: int, b: int, p: int) -> int:
    # C(a, b) mod p for 0 <= b <= a < p, as a falling product over b!, with min(b, a - b) factors
    b = min(b, a - b)
    num = den = 1
    for i in range(b):
        num = num * (a - i) % p
        den = den * (i + 1) % p
    return num * pow(den, -1, p) % p


def binomial_mod_p_lucas(n: int, m: int, p: int) -> int:
    """C(n, m) mod p via the digitwise product of the base-p expansions.

    Equals binomial(n, m) % p for all n, m >= 0.  It is 0 when a digit of m
    exceeds the matching digit of n, which is checked before any factor is
    computed.  Each digit factor C(a, b) mod p is computed directly, with
    min(b, a - b) steps and no p x p table; CapacityError is raised when the
    steps over all digits exceed LUCAS_STEP_CAP.
    """
    pairs = _digit_pairs(n, m, p, "binomial_mod_p_lucas")
    if any(b > a for a, b in pairs):
        return 0
    steps = sum(min(b, a - b) for a, b in pairs)
    if steps > LUCAS_STEP_CAP:
        raise CapacityError(f"C(n, m) mod {p} takes {steps} digit steps, above LUCAS_STEP_CAP = {LUCAS_STEP_CAP}")
    r = 1
    for a, b in pairs:
        r = r * _binomial_below_p(a, b, p) % p
    return r


def binomial_row_mod_p(n: int, p: int) -> tuple[int, ...]:
    """(C(n, 0), ..., C(n, n)) mod p, by Lucas's theorem (Amer. J. Math. 1, 1878).

    With n = sum d_i p^i, C(n, sum b_i p^i) = prod C(d_i, b_i) mod p, so the
    row is the Kronecker product of the digit rows (C(d, 0), ..., C(d, d), 0,
    ..., 0) of length p, cut to n + 1 entries.  The product starts from the
    top digit's row, and each lower digit d spreads the row so far over the
    slices b = 0..d of the next one: a slice whose factor C(d, b) is 1 is a
    copy of that row, and only the others cost a product mod p per entry.
    Over GF(2) every factor is 1.  A digit row is computed over its lower
    half, C(d, b) = C(d, b - 1) * (d - b + 1) / b with the inverses of
    1..d/2 mod p, and mirrored, since C(d, b) = C(d, d - b).
    """
    require_prime(p)
    return _binomial_row_mod_p(_natural(n, "binomial_row_mod_p"), p)


def _binomial_row_mod_p(n: int, p: int) -> tuple[int, ...]:
    # binomial_row_mod_p's row of an int n >= 0 mod a p already proved prime, as a Ring proves it
    require_row(n, p)  # before the digits, which cost quadratic time in n's size
    digits = _digits(n, p)
    inv = [0, 1]
    for i in range(2, max(digits, default=0) // 2 + 1):
        inv.append(-(p // i) * inv[p % i] % p)

    def digit_row(d: int) -> list[int]:
        half = [1]
        for b in range(1, d // 2 + 1):
            half.append(half[-1] * (d - b + 1) % p * inv[b] % p)
        return half + half[: (d + 1) // 2][::-1]

    row = digit_row(digits[-1]) if digits else [1]
    for d in reversed(digits[:-1]):
        # the entries with low digit b are row * C(d, b); those with b > d stay 0
        out = [0] * ((len(row) - 1) * p + d + 1)
        for b, c in enumerate(digit_row(d)):
            out[b::p] = row if c == 1 else [r * c % p for r in row]
        row = out
    return tuple(row)


def divisibility_by_digit_dominance(n: int, m: int, p: int) -> bool:
    """True iff some base-p digit of m exceeds the matching digit of n.

    Equivalent to p dividing C(n, m), for 0 <= m <= n.
    """
    return any(b > a for a, b in _digit_pairs(n, m, p, "divisibility_by_digit_dominance"))

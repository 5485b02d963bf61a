"""Exact binomial coefficients and base-p digit machinery.

Everything here is plain integer arithmetic: arbitrary-precision binomial
coefficients, canonical base-p expansions, the digitwise (Lucas) reduction
of C(n, m) modulo a prime, and the base-p digit weight.  These are the
number-theoretic kernels the polynomial families and classifiers build on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapacityError, DomainError, as_int

# Deterministic Miller-Rabin witness set: the primes up to 41 decide every
# n below _MR_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


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


def _require_prime(p: int) -> None:
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


def binomial_row(n: int) -> tuple[int, ...]:
    """(C(n, 0), ..., C(n, n)): the lower half by ``binomial``, the upper half by symmetry."""
    n = as_int(n, "binomial_row n")
    if n < 0:
        raise DomainError("binomial_row requires n >= 0")
    half = [binomial(n, m) for m in range(n // 2 + 1)]
    return tuple(half + half[: (n + 1) // 2][::-1])


def is_power_of(n: int, p: int) -> bool:
    """True iff n = p**l for some integer l >= 1."""
    if p < 2:
        raise DomainError(f"is_power_of requires a base p >= 2, got {p}")
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
    _require_prime(p)
    if n < 0:
        raise DomainError("digits_base_p requires n >= 0")
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return PadicDigits(p, tuple(digits))


def weight_base_p(n: int, p: int) -> int:
    """Sum of the base-p digits of n."""
    _require_prime(p)
    if n < 0:
        raise DomainError("weight_base_p requires n >= 0")
    w = 0
    while n:
        n, d = divmod(n, p)
        w += d
    return w


@lru_cache(maxsize=None)
def _small_binomials(p: int) -> tuple[tuple[int, ...], ...]:
    # C(a, b) mod p for all 0 <= a, b < p
    return tuple(tuple(math.comb(a, b) % p if b <= a else 0 for b in range(p)) for a in range(p))


def binomial_mod_p_lucas(n: int, m: int, p: int) -> int:
    """C(n, m) mod p via the digitwise product of the base-p expansions.

    Equals binomial(n, m) % p for all n, m >= 0; the product short-circuits
    to 0 as soon as a digit of m exceeds the matching digit of n.
    """
    _require_prime(p)
    if n < 0 or m < 0:
        raise DomainError("binomial_mod_p_lucas requires n, m >= 0")
    table = _small_binomials(p)
    r = 1
    while m:
        n, a = divmod(n, p)
        m, b = divmod(m, p)
        if b > a:
            return 0
        r = r * table[a][b] % p
    return r


def divisibility_by_digit_dominance(n: int, m: int, p: int) -> bool:
    """True iff some base-p digit of m exceeds the matching digit of n.

    Equivalent to p dividing C(n, m), for 0 <= m <= n.
    """
    _require_prime(p)
    if n < 0 or m < 0:
        raise DomainError("divisibility_by_digit_dominance requires n, m >= 0")
    while m:
        n, a = divmod(n, p)
        m, b = divmod(m, p)
        if b > a:
            return True
    return False

import math
import time

import pytest

from reciprodick import (
    CapacityError,
    DomainError,
    PadicDigits,
    binomial,
    binomial_mod_p_lucas,
    binomial_row,
    binomial_row_mod_p,
    digits_base_p,
    divisibility_by_digit_dominance,
    is_power_of,
    is_prime,
    weight_base_p,
)
from reciprodick.binomics import LUCAS_STEP_CAP


def reference_binomial(n, m):
    # independent running-product oracle with exact division at each step
    if m < 0 or m > n:
        return 0
    m = min(m, n - m)
    out = 1
    for i in range(1, m + 1):
        out = out * (n - m + i) // i
    return out


class TestBinomial:
    def test_examples(self):
        assert binomial(6, 3) == 20
        assert binomial(17, 0) == 1
        assert binomial(3, 5) == 0
        assert binomial(5, -1) == 0

    def test_negative_n(self):
        with pytest.raises(DomainError):
            binomial(-1, 0)

    def test_rejects_non_integers(self):
        # binomial(4.5, 2) used to raise a bare TypeError, binomial(True, 1) returned 1
        for args in ((4.5, 2), (4, 2.0), (True, 1), (4, False), ("4", 2)):
            with pytest.raises(DomainError):
                binomial(*args)
        with pytest.raises(DomainError):
            binomial_row(4.0)

    def test_against_running_product(self):
        for n in range(0, 121):
            for m in range(-1, n + 2):
                assert binomial(n, m) == reference_binomial(n, m)

    def test_exceeds_64_bits(self):
        assert binomial(200, 100) == reference_binomial(200, 100) > 2**64


class TestBinomialRow:
    def test_matches_math_comb(self):
        for n in range(0, 301):
            assert binomial_row(n) == tuple(math.comb(n, m) for m in range(n + 1)), n

    def test_negative_n(self):
        with pytest.raises(DomainError):
            binomial_row(-1)


class TestPrimes:
    def test_is_prime(self):
        def sieve_prime(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        for n in range(-2, 500):
            assert is_prime(n) == sieve_prime(n), n
        assert is_prime(104729)
        assert not is_prime(104730)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)

    def test_is_prime_rejects_non_integers(self):
        # is_prime(7.0) used to return True
        for bad in (7.0, 7.5, True, "7", None):
            with pytest.raises(DomainError):
                is_prime(bad)

    def test_is_prime_strong_pseudoprime_to_bases_up_to_37(self):
        # 399165290221 * 798330580441 passes every witness up to 37; 41 rejects it
        assert not is_prime(318665857834031151167461)
        with pytest.raises(CapacityError):
            is_prime(3317044064679887385961981)

    def test_is_power_of(self):
        assert is_power_of(9, 3) and is_power_of(3, 3) and is_power_of(128, 2)
        assert not is_power_of(1, 3)
        assert not is_power_of(12, 3)

    def test_is_power_of_rejects_base_below_2(self):
        for p in (1, 0, -2):
            with pytest.raises(DomainError):
                is_power_of(8, p)

    def test_is_power_of_rejects_non_integers(self):
        # is_power_of(9.0, 3) and is_power_of(9, 3.0) used to be True
        for args in ((9.0, 3), (9, 3.0), (9.5, 3), (True, 2), (4, True), ("9", 3)):
            with pytest.raises(DomainError):
                is_power_of(*args)


class TestDigits:
    def test_examples(self):
        assert digits_base_p(10, 3) == PadicDigits(3, (1, 0, 1))
        assert digits_base_p(0, 7) == PadicDigits(7, ())
        assert digits_base_p(7, 2) == PadicDigits(2, (1, 1, 1))

    def test_value_reconstruction(self):
        for p in (2, 3, 5, 11):
            for n in range(0, 400, 7):
                d = digits_base_p(n, p)
                assert d.value() == n
                assert all(0 <= x < p for x in d.digits)
                assert not d.digits or d.digits[-1] != 0

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            digits_base_p(3, 4)
        with pytest.raises(DomainError):
            digits_base_p(-1, 3)

    def test_rejects_non_integers(self):
        # digits_base_p(9.5, 3) used to have the digit 0.5, weight_base_p(9.5, 3) was 1.5
        for n in (9.5, 9.0, True, "9"):
            for call in (digits_base_p, weight_base_p):
                with pytest.raises(DomainError):
                    call(n, 3)


class TestWeight:
    def test_examples(self):
        assert weight_base_p(10, 3) == 2
        assert weight_base_p(0, 5) == 0
        assert weight_base_p(7, 2) == 3

    def test_prime_powers_have_weight_one(self):
        for p in (2, 3, 5, 7, 11):
            for l in range(0, 6):
                assert weight_base_p(p**l, p) == 1


class TestLucas:
    def test_examples(self):
        assert binomial_mod_p_lucas(10, 4, 3) == 0  # 210 = 2*3*5*7
        assert binomial_mod_p_lucas(7, 3, 2) == 1  # 35 is odd
        assert binomial_mod_p_lucas(42, 0, 5) == 1

    def test_matches_exact_binomial(self):
        for p in (2, 3, 5, 7, 11):
            for n in range(0, 121):
                for m in range(0, n + 1):
                    assert binomial_mod_p_lucas(n, m, p) == binomial(n, m) % p

    def test_dominance_examples(self):
        assert divisibility_by_digit_dominance(10, 4, 3) is True
        assert divisibility_by_digit_dominance(33, 0, 7) is False
        assert divisibility_by_digit_dominance(7, 3, 2) is False

    def test_dominance_iff_zero_residue(self):
        for p in (2, 3, 5, 7, 11):
            for n in range(0, 121):
                for m in range(0, n + 1):
                    dom = divisibility_by_digit_dominance(n, m, p)
                    assert dom == (binomial(n, m) % p == 0)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            binomial_mod_p_lucas(5, 2, 6)
        with pytest.raises(DomainError):
            binomial_mod_p_lucas(-1, 0, 3)
        with pytest.raises(DomainError):
            divisibility_by_digit_dominance(5, -2, 3)

    def test_rejects_non_integers(self):
        # binomial_mod_p_lucas(True, 1, 3) used to be 1, and floats were read as digits
        for args in ((True, 1, 3), (5, 2.0, 3), (5.0, 2, 3), (5.5, 2, 3), (5, False, 3)):
            for call in (binomial_mod_p_lucas, divisibility_by_digit_dominance):
                with pytest.raises(DomainError):
                    call(*args)

    def test_large_prime_needs_no_table(self):
        # each digit's C(a, b) mod p is computed directly: a p x p table took
        # 8 s at p = 1009 and never finished at p = 4001
        for p in (1009, 4001, 2**61 - 1):
            assert binomial_mod_p_lucas(5, 2, p) == 10
        assert binomial_mod_p_lucas(2**61 - 2, 2, 2**61 - 1) == 1  # C(-1, 2) = 1 mod p
        assert binomial_mod_p_lucas(10**6, 3, 1009) == math.comb(10**6, 3) % 1009

    def test_huge_digits(self):
        # one digit pair (2^60, 2^59) used to run about 2^59 steps
        p = 2**61 - 1
        t0 = time.perf_counter()
        with pytest.raises(CapacityError, match=f"LUCAS_STEP_CAP = {LUCAS_STEP_CAP}"):
            binomial_mod_p_lucas(2**60, 2**59, p)
        with pytest.raises(CapacityError):
            binomial_mod_p_lucas(2**60, 2**60 - 2**59 + 1, p)  # min(b, a - b) counts, not b
        # a digit of m above n's gives 0 before any digit factor is computed, here
        # before the low digit pair (2^60, 2^59)
        assert binomial_mod_p_lucas(2**60 + p, 2**59 + 2 * p, p) == 0
        assert binomial_mod_p_lucas(2**60, 2**60 - 3, p) == math.comb(2**60, 3) % p  # 3 steps
        assert time.perf_counter() - t0 < 0.5


class TestBinomialRowModP:
    def test_matches_lucas_and_math_comb(self):
        for n in range(0, 301):
            exact = [math.comb(n, m) for m in range(n + 1)]
            for p in (2, 3, 5, 7, 11, 13, 101):
                row = binomial_row_mod_p(n, p)
                assert row == tuple(c % p for c in exact), (n, p)
                assert row == tuple(binomial_mod_p_lucas(n, m, p) for m in range(n + 1)), (n, p)

    def test_matches_at_a_61_bit_prime(self):
        p = 2**61 - 1
        for n in range(0, 301):
            assert binomial_row_mod_p(n, p) == tuple(math.comb(n, m) % p for m in range(n + 1)), n
        # each Lucas call tests p for primality (about 0.25 ms at this p), so fewer rows here
        for n in (*range(0, 21), 150, 299, 300):
            assert binomial_row_mod_p(n, p) == tuple(binomial_mod_p_lucas(n, m, p) for m in range(n + 1)), n

    def test_digit_blocks(self):
        # 10 = 1 + 0*3 + 1*9: C(10, m) mod 3 is 1 where m's digits are at most (1, 0, 1), else 0
        assert binomial_row_mod_p(10, 3) == (1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1)
        assert binomial_row_mod_p(0, 7) == (1,)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 10007])
    def test_matches_pascal_rows_mod_p(self, p):
        # a reference that never splits n into digits: every row n <= 2048 stepped by C(n+1, j) = C(n, j-1) + C(n, j)
        # mod p; at p = 10007 each row is one digit's, so the mirrored half-row is checked at odd and even n
        row = [1]
        for n in range(2049):
            assert binomial_row_mod_p(n, p) == tuple(row), n
            row = [1, *[(a + b) % p for a, b in zip(row, row[1:])], 1]

    def test_refuses_a_huge_n_before_its_digits(self):
        # the base-p digits of 10^100000 took 8.2 s before the cap was checked
        n = 10**100000
        t0 = time.perf_counter()
        with pytest.raises(CapacityError, match="^the binomial row of n = a 332193-bit integer mod 3 is above"):
            binomial_row_mod_p(n, 3)
        # the refusals keep their order: p, then n's type and sign, then the cap
        with pytest.raises(DomainError, match="^4 is not prime$"):
            binomial_row_mod_p(n, 4)
        with pytest.raises(DomainError, match="requires n >= 0"):
            binomial_row_mod_p(-n, 3)
        with pytest.raises(DomainError, match="must be an integer"):
            binomial_row_mod_p(float(10**300), 3)
        assert time.perf_counter() - t0 < 0.5

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            binomial_row_mod_p(-1, 3)
        with pytest.raises(DomainError):
            binomial_row_mod_p(5, 4)
        for args in ((5.0, 3), (True, 3), (5, 3.0)):
            with pytest.raises(DomainError):
                binomial_row_mod_p(*args)

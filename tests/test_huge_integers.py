"""Integers past Python's limit on the digits of an int made text (4300 by default).

A refusal must raise its own exception however large the integer it names, and
a polynomial's text must hold its coefficients in full, without the process-wide
limit being touched.
"""

import ast
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import reciprodick
from reciprodick import (
    GF,
    CapacityError,
    CyclicCode,
    DomainError,
    FamilySpec,
    Poly,
    Z,
    binomial_row,
    binomial_row_mod_p,
    build,
    coterm_construct,
    f_family,
    f_kind,
    is_irreducible,
    is_power_of,
    lemma_l1,
    normalize_theorem_id,
    palindromic_ks,
    reversed_dickson,
    scan,
)

HUGE = 10**5000
PAST = "past Python's limit on the digits of an int made text$"


@pytest.fixture(autouse=True)
def default_limit():
    # these cases are about the default limit; whatever the process had is restored afterwards
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    assert sys.get_int_max_str_digits() == 4300  # nothing under test moved it
    sys.set_int_max_str_digits(before)


def chunked(c: int) -> str:
    # decimal text by base-10^100 limbs, no limb anywhere near the limit
    if c < 0:
        return "-" + chunked(-c)
    limbs = []
    while True:
        c, limb = divmod(c, 10**100)
        limbs.append(limb)
        if not c:
            break
    return str(limbs[-1]) + "".join(str(limb).zfill(100) for limb in reversed(limbs[:-1]))


@pytest.mark.parametrize("call, error, text", [
    (lambda: scan("T2_1", n_max=HUGE), CapacityError, "T2_1 would scan a 16614-bit integer candidate members"),
    (lambda: binomial_row(HUGE), CapacityError, "the binomial row of n = a 16610-bit integer is above ROW_CAP"),
    (lambda: binomial_row_mod_p(HUGE, 3), CapacityError,
     "the binomial row of n = a 16610-bit integer mod 3 is above ROW_MOD_P_CAP"),
    (lambda: f_family(HUGE, 0), CapacityError, "the binomial row of n = a 16610-bit integer is above ROW_CAP"),
    (lambda: reversed_dickson(HUGE, 0), CapacityError,
     "the reversed Dickson member of n = a 16610-bit integer reads binomials above ROW_CAP"),
    (lambda: palindromic_ks("f", HUGE, Z), CapacityError, "the binomial row of n = a 16610-bit integer is above"),
    (lambda: FamilySpec("f", 4, HUGE, GF(3)), DomainError, r"lie in \[0, 2\], got a 16610-bit integer$"),
    (lambda: FamilySpec("f", 4, -HUGE, GF(3)), DomainError, "got a negative 16610-bit integer$"),
    (lambda: f_kind(4, HUGE), DomainError, "kind must be 1, 2 or 3, got a 16610-bit integer$"),
    (lambda: is_power_of(9, -HUGE), DomainError, "got a negative 16610-bit integer$"),
    (lambda: GF(-HUGE), DomainError, "^field order must be prime, got a negative 16610-bit integer$"),
    (lambda: lemma_l1(HUGE), DomainError, "^lemma_l1's argument must be a Poly, got a 16610-bit integer$"),
    (lambda: CyclicCode(3, HUGE, Poly(GF(3), (2, 1))), CapacityError,
     "^code length m = a 16610-bit integer is above the cap 10000$"),
    (lambda: binomial_row(Fraction(HUGE, 3)), DomainError, "^binomial_row n must be an integer, got a Fraction " + PAST),
    (lambda: FamilySpec("f", Fraction(HUGE, 3)), DomainError, "^family n must be an integer, got a Fraction " + PAST),
    (lambda: is_irreducible(Fraction(HUGE, 3)), DomainError,
     "^is_irreducible's argument must be a Poly, got a Fraction " + PAST),
    (lambda: normalize_theorem_id(Fraction(HUGE, 3)), DomainError,
     "^theorem id must be a string, got a Fraction " + PAST),
    (lambda: scan("T2_1", k_values=Fraction(HUGE, 3)), DomainError,
     "^k_values must be an iterable of integers, got a Fraction " + PAST),
    (lambda: scan("T3_1", p_list=[-HUGE]), DomainError, "^a negative 16610-bit integer is not prime$"),
    (lambda: build(FamilySpec("f", 4), Fraction(HUGE, 3)), DomainError,
     "^rows must be a RowCache, got a Fraction " + PAST),
    (lambda: FamilySpec(Fraction(HUGE, 3), 4), DomainError, "^unknown family a Fraction " + PAST),
    (lambda: palindromic_ks(Fraction(HUGE, 3), 4, Z), DomainError, "^unknown family a Fraction " + PAST),
    (lambda: is_irreducible(Poly(GF(3), (1, 1, 1)), method=Fraction(HUGE, 3)), DomainError,
     "^unknown irreducibility method a Fraction " + PAST),
    (lambda: coterm_construct("T5_1", 4, 0, Fraction(HUGE, 3)), DomainError,
     "^T5_1 takes a Ring, got a Fraction " + PAST),
    (lambda: Poly(Fraction(HUGE, 3), ()), DomainError, "^polynomial ring must be a Ring, got a Fraction " + PAST),
], ids=["scan", "binomial_row", "binomial_row_mod_p", "f_family", "reversed_dickson", "palindromic_ks",
        "FamilySpec", "FamilySpec-negative", "f_kind", "is_power_of", "GF", "lemma_l1",
        "CyclicCode", "binomial_row-Fraction", "FamilySpec-Fraction", "is_irreducible-Fraction",
        "normalize_theorem_id-Fraction", "scan-k_values-Fraction", "scan-p_list-negative", "build-rows-Fraction",
        "FamilySpec-family-Fraction", "palindromic_ks-Fraction", "is_irreducible-method-Fraction",
        "coterm_construct-Fraction", "Poly-ring-Fraction"])
def test_a_refusal_names_a_huge_integer_by_its_size(call, error, text):
    t0 = time.perf_counter()
    with pytest.raises(error, match=text):
        call()
    assert time.perf_counter() - t0 < 0.5


def test_no_refusal_formats_a_value_with_repr():
    # repr raises ValueError on a value holding an int past the limit, so a refusal names an outside value
    # through errors._text, never by an f-string's !r or a repr call
    src = Path(reciprodick.__file__).resolve().parent
    def formats_by_repr(node) -> bool:
        if isinstance(node, ast.FormattedValue):
            return node.conversion == ord("r")
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "repr"

    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                found += [(path.name, inner.lineno) for inner in ast.walk(node) if formats_by_repr(inner)]
    assert found == []


def test_a_refusal_below_the_limit_names_the_integer_in_full():
    n = 10**4299  # 4300 digits, the most the limit lets str write
    with pytest.raises(CapacityError, match=f"^the binomial row of n = {n} is above ROW_CAP = 10000$"):
        binomial_row(n)


@pytest.mark.parametrize("a", [10**440, -(10**440) - 1, 7**6000], ids=["10^440", "-10^440-1", "7^6000"])
def test_poly_text_writes_huge_coefficients_in_full(a):
    poly = reversed_dickson(10, 0, a)
    big = [c for c in poly.coeffs if abs(c) >= 10**4300]
    assert big  # a^10 is past the limit
    assert poly.to_json_dict() == {"ring": "Z", "coeffs": [chunked(c) for c in poly.coeffs]}
    terms = [chunked(c) if i == 0 else f"{chunked(c)}*x" if i == 1 else f"{chunked(c)}*x^{i}"
             for i, c in enumerate(poly.coeffs) if c]
    assert str(poly) == " + ".join(terms)


def test_poly_text_of_a_coefficient_at_the_limit():
    for c in (10**4299, 10**4300, -(10**4300), 10**4300 - 1, 10**8601):
        poly = Poly(Z, (c, 1))
        assert poly.to_json_dict()["coeffs"] == [chunked(c), "1"]
        assert str(poly) == f"{chunked(c)} + x"

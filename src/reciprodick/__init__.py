"""Reversed-Dickson polynomial families, self-reciprocal classification, and
reversible cyclic codes over Z and prime fields, all in exact arithmetic."""

from .binomics import (
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
from .classifier import (
    DEFAULT_K_WINDOW,
    DEFAULT_ODD_PRIMES,
    THEOREM_IDS,
    KSet,
    Verdict,
    check_corollary,
    is_irreducible,
    lemma_l1,
    mismatches,
    normalize_theorem_id,
    oracle_self_reciprocal,
    palindromic_ks,
    predicate,
    scan,
)
from .coterm_codes import (
    COTERM_RULES,
    CotermConstruction,
    CotermContext,
    CyclicCode,
    build_cyclic_code,
    coterm_construct,
    coterm_from_self_reciprocal,
    factor_xm_minus_1,
    generates_reversible_code,
    is_coterm,
    monic_divisors,
    monic_reciprocal,
    self_reciprocal_divisors,
    verify_reversibility_by_enumeration,
    verify_reversibility_by_rank,
)
from .errors import CapacityError, DomainError, HypothesisError
from .families import (
    FAMILIES,
    FamilySpec,
    build,
    check_dickson_f_identity,
    f_expanded_even,
    f_expanded_odd,
    f_family,
    f_kind,
    reversed_dickson,
)
from .ringpoly import GF, Poly, Ring, Z, gcd, pow_mod, reduce_mod_p

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "DomainError", "HypothesisError",
    "GF", "Poly", "Ring", "Z", "gcd", "pow_mod", "reduce_mod_p",
    "PadicDigits", "binomial", "binomial_mod_p_lucas", "binomial_row", "binomial_row_mod_p",
    "digits_base_p",
    "divisibility_by_digit_dominance", "is_power_of", "is_prime", "weight_base_p",
    "FAMILIES", "FamilySpec", "build", "check_dickson_f_identity",
    "f_expanded_even", "f_expanded_odd", "f_family", "f_kind", "reversed_dickson",
    "DEFAULT_K_WINDOW", "DEFAULT_ODD_PRIMES", "THEOREM_IDS", "KSet", "Verdict",
    "check_corollary", "is_irreducible", "lemma_l1", "mismatches",
    "normalize_theorem_id", "oracle_self_reciprocal", "palindromic_ks", "predicate", "scan",
    "COTERM_RULES", "CotermConstruction", "CotermContext", "CyclicCode",
    "build_cyclic_code", "coterm_construct", "coterm_from_self_reciprocal",
    "factor_xm_minus_1", "generates_reversible_code", "is_coterm",
    "monic_divisors", "monic_reciprocal", "self_reciprocal_divisors",
    "verify_reversibility_by_enumeration", "verify_reversibility_by_rank",
]

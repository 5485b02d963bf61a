"""Classification rules, the self-reciprocality oracle, and range scanners.

Each rule is one row of RULE_TABLE, which states its hypotheses, its
default scan range and its prediction; in summary:

  T2_1  over Z, even n > 1, family f:        palindromic iff k in {0, 2}
  T2_3  over Z, even n > 1, families g, h:   palindromic iff k = 0
  T2_4  over Z, odd n > 1, family f:         palindromic iff k = 1, or n = 3
                                             with k = 3 (a constant)
  T2_7  over Z, odd n > 1, gstar and hstar:  palindromic iff k = 1
  T3_1  over GF(p), p odd, even n > 1:       k = 0, or k = 2 with p not
                                             dividing n
  T3_4  over GF(p), p odd, odd n >= 1:       n = 1; or k = 0 and n = p^l; or
                                             n = 3, k = 3, p > 3; or k = 1 and
                                             p not dividing n + 1
  T4_1  over GF(2), n > 1, family fchar2:    palindromic iff n is even
  C3_2/C3_3/C3_5/C4_2  irreducibility corollaries: on their parameter
        families the polynomial is never simultaneously irreducible and
        self-reciprocal (its degree is odd there)
  L1    a self-reciprocal irreducible polynomial of degree >= 2 has even
        degree

The oracle is definition-based: build the polynomial and compare its
coefficient tuple with its own reversal; it is the reference.  Each member
with a free k is affine in k, so its pair (v, u), the member at k being
v + k*u, settles every k of a (family, n, ring) but at most two candidates,
each decided by ``build``: still the definition, never a rule.  ``scan``
evaluates predicate and oracle over finite ranges and reports one Verdict
per in-hypothesis spec; it walks n by n, one (ring, member family) group at
a time, and observes a classification group one way, from its pair, building
only the requested candidates, and a corollary or L1 group spec by spec;
disagreements are data (findings), never errors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable

from .binomics import is_power_of, require_prime
from .errors import CapacityError, DomainError, HypothesisError, as_int, int_text, require_type
from .families import FAMILIES, FAMILY_TABLE, FamilySpec, RowCache, build, require_rows
from .ringpoly import GF, Poly, Ring, Z, gcd, pow_mod

DEFAULT_ODD_PRIMES = (3, 5, 7, 11, 13)
DEFAULT_K_WINDOW = tuple(range(-5, 7))
SCAN_CAP = 10**6  # candidate members of one scan

# trial-division irreducibility is used below this candidate count
_TRIAL_AUTO_LIMIT = 200_000
_TRIAL_HARD_LIMIT = 2_000_000

F2 = GF(2)


# ---------------------------------------------------- vocabulary of the rules


@dataclass(frozen=True)
class Condition:
    """A named hypothesis: ``text`` is its wording in messages, ``holds`` its test.

    ``holds`` takes the ring for a ring condition, n for a condition on n,
    and (n, p) for a side condition.
    """

    text: str
    holds: Callable[..., bool]
    rings: tuple[Ring, ...] = ()  # a ring condition's default rings; exactly one pins that ring


OVER_Z = Condition("Z", lambda r: r == Z, (Z,))
OVER_F2 = Condition("F2", lambda r: r == F2, (F2,))
OVER_ODD_P = Condition("GF(p) with p odd", lambda r: r.is_field and r.p != 2, tuple(map(GF, DEFAULT_ODD_PRIMES)))
OVER_FIELD = Condition("GF(p)", lambda r: r.is_field, (F2,) + OVER_ODD_P.rings)
P_NOT_DIVIDING_N = Condition("p not dividing n", lambda n, p: n % p != 0)
P_NOT_DIVIDING_N_PLUS_1 = Condition("p not dividing n + 1", lambda n, p: (n + 1) % p != 0)


def canonical_id(name: str, ids, noun: str, aliases: dict) -> str:
    """Map spellings like 't2.1' or 'l-1' onto the canonical id among ``ids``."""
    if not isinstance(name, str):
        raise DomainError(f"{noun} must be a string, got {name!r}")
    t = name.strip().upper().replace(".", "_").replace("-", "_")
    t = aliases.get(t, t)
    if t not in ids:
        raise DomainError(f"unknown {noun} {name!r}")
    return t


# ------------------------------------------------------------- the rule table


@dataclass(frozen=True)
class Rule:
    """One row of the rule table or of the coterm table: its hypotheses, and what it states.

    A classification predicts self-reciprocality and scan compares it with
    the oracle; a corollary, and the lemma L1, claim on every spec of their
    domain that the polynomial is not both self-reciprocal and irreducible; a
    coterm construction removes the leading term of its family's member at
    ``fixed_k``, which these hypotheses make self-reciprocal, and the member's
    degree is the coterm modulus m.  ``check_hypotheses`` checks every kind.
    """

    kind: str  # "classification", "corollary", "lemma" or "coterm"
    families: tuple[str, ...]
    ring: Condition
    n: Condition
    scan_n: tuple[int, int] | None = None  # default scan range of n; its low end is also a floor
    predict: Callable[[int, int, int | None], bool] | None = None  # of (n, k, p)
    fixed_k: int | None = None
    sides: tuple[Condition, ...] = ()
    # (test, c) for a coterm construction known to collapse to the constant c when test(n, p)
    degenerate: tuple[Callable[[int, int], bool], int] | None = None


_EVEN_N = Condition("even n > 1", lambda n: n > 1 and n % 2 == 0)
_ODD_N = Condition("odd n > 1", lambda n: n > 1 and n % 2 == 1)
_N_2_MOD_4 = Condition("n > 2 with n = 2 mod 4", lambda n: n > 2 and n % 4 == 2)

RULE_TABLE = {
    "T2_1": Rule("classification", ("f",), OVER_Z, _EVEN_N, (2, 200), lambda n, k, p: k in (0, 2)),
    "T2_3": Rule("classification", ("g", "h"), OVER_Z, _EVEN_N, (2, 200), lambda n, k, p: k == 0),
    "T2_4": Rule("classification", ("f",), OVER_Z, _ODD_N, (3, 199),
                 lambda n, k, p: k == 1 or (n == 3 and k == 3)),
    "T2_7": Rule("classification", ("gstar", "hstar"), OVER_Z, _ODD_N, (3, 199), lambda n, k, p: k == 1),
    "T3_1": Rule("classification", ("f",), OVER_ODD_P, _EVEN_N, (2, 200),
                 lambda n, k, p: k == 0 or (k == 2 and n % p != 0)),
    "T3_4": Rule("classification", ("f",), OVER_ODD_P,
                 Condition("odd n >= 1", lambda n: n >= 1 and n % 2 == 1), (1, 199),
                 lambda n, k, p: (
                     n == 1
                     or (k == 0 and is_power_of(n, p))
                     or (n == 3 and k == 3 and p > 3)
                     or (k == 1 and (n + 1) % p != 0)
                 )),
    "T4_1": Rule("classification", ("fchar2",), OVER_F2, Condition("n > 1", lambda n: n > 1), (2, 200),
                 lambda n, k, p: n % 2 == 0, fixed_k=1),
    # corollary defaults keep the constructed degree at most 10
    "C3_2": Rule("corollary", ("f",), OVER_ODD_P, _N_2_MOD_4, (6, 18), fixed_k=0),
    "C3_3": Rule("corollary", ("f",), OVER_ODD_P, Condition("n = 0 mod 4", lambda n: n % 4 == 0 and n > 0),
                 (4, 20), fixed_k=2, sides=(P_NOT_DIVIDING_N,)),
    "C3_5": Rule("corollary", ("f",), OVER_ODD_P, Condition("n = 3 mod 4", lambda n: n % 4 == 3),
                 (3, 19), fixed_k=1, sides=(P_NOT_DIVIDING_N_PLUS_1,)),
    "C4_2": Rule("corollary", ("fchar2",), OVER_F2, _N_2_MOD_4, (6, 18), fixed_k=1),
    "L1": Rule("lemma", ("f", "fchar2"), OVER_FIELD, Condition("any n", lambda n: True), (1, 20)),
}

THEOREM_IDS = tuple(RULE_TABLE)


def normalize_theorem_id(name: str) -> str:
    """Map spellings like 't2.1' or 'l-1' onto the canonical rule id."""
    return canonical_id(name, RULE_TABLE, "theorem id", {})


# Ring, Poly, FamilySpec and Verdict take slots=True: a scan makes them by the thousand
@dataclass(frozen=True, slots=True)
class Verdict:
    """One predicate-vs-oracle comparison for a single family member."""

    theorem: str
    spec: FamilySpec
    predicted: bool
    observed: bool
    note: str = ""

    @property
    def match(self) -> bool:
        return self.predicted == self.observed

    def to_json_dict(self) -> dict:
        d = {"theorem": self.theorem, **self.spec.to_flat_dict()}
        d["predicted"] = self.predicted
        d["observed"] = self.observed
        d["match"] = self.match
        if self.note:
            d["note"] = self.note
        return d


def oracle_self_reciprocal(spec: FamilySpec, rows=None) -> bool:
    """Definition-based oracle: build the polynomial and test the palindrome.

    The reference ``palindromic_ks`` and ``scan`` are tested against: the
    member is built by ``build`` from ``rows``, by default a new ``RowCache``.
    """
    return build(spec, rows).is_self_reciprocal()


@dataclass(frozen=True)
class KSet:
    """A set of kind parameters k: those in ``ks``, or, when ``cofinite``, every k but those.

    Over GF(p) its members are the residues in [0, p-1], and one set of
    residues can take either form, so compare two of them by membership.
    """

    ks: frozenset[int] = frozenset()
    cofinite: bool = False

    def __contains__(self, k: int) -> bool:
        return (k in self.ks) != self.cofinite


def _candidates(spec: FamilySpec, rows) -> tuple[set[int], bool]:
    """(candidates, cofinite) of the spec's pair: every k but the candidates is self-reciprocal iff cofinite.

    A member's coefficient list is affine in k: c(k) = v + k*u, the pair
    read once from ``rows`` as ``build`` reads it, reduced over the ring and
    trimmed together to length D + 1 there (``RowCache.pair``), so
    (v_D, u_D) != (0, 0), and for every k but the one k* = -v_D/u_D that
    zeroes the top coefficient the member has degree D.  Away from k* it is a
    palindrome exactly when (u_j - u_{D-j})*k + (v_j - v_{D-j}) = 0 for every
    j < D/2: every k solves that when u and v are palindromes; else the first
    unequal pair's equation admits at most one k (an integer over Z, a
    residue over GF(p)).  So the candidates are k* and that root.  A family
    with a fixed k has no u: its one member is v, and no k is a candidate.
    """
    v, u = RowCache.of(rows).pair(spec)
    p = spec.ring.p
    if not u:  # a fixed k, the member being v, or the zero polynomial at every k
        return set(), bool(v) and v == v[::-1]

    def root(slope: int, offset: int) -> int | None:
        # the k with slope*k + offset = 0 for slope != 0; None when over Z it is not an integer
        if p is not None:
            return -offset * pow(slope, -1, p) % p
        k, r = divmod(-offset, slope)
        return None if r else k

    d = len(v) - 1
    cofinite = u == u[::-1] and v == v[::-1]  # then every k but k* solves the system
    candidates = {root(u[d], v[d]) if u[d] else None}
    if not cofinite:
        j = next(j for j in range(len(v) // 2) if u[j] != u[d - j] or v[j] != v[d - j])
        if u[j] != u[d - j]:
            candidates.add(root(u[j] - u[d - j], v[j] - v[d - j]))
    return candidates - {None}, cofinite


def palindromic_ks(family: str, n: int, ring: Ring, rows=None, a: int = 1) -> KSet:
    """Every k at which the member (family, n, k, ring, a) is self-reciprocal, from its pair (v, u).

    The pair settles every k but its candidates (``_candidates``), and each
    candidate is decided by ``build``, as the oracle decides it: the set is
    the passing candidates, or, when every pair is equal, every k but the
    failing ones.  The spec at k = 0, with dickson's ``a``, is checked by
    ``FamilySpec`` before the pair is read from ``rows`` (by default a new
    ``RowCache``); a family with a fixed k raises DomainError.
    """
    if family in FAMILIES and FAMILY_TABLE[family].fixed_k is not None:
        raise DomainError(f"family {family!r} {FAMILY_TABLE[family].fixed_k[1]}: there is no k to solve for")
    s = FamilySpec(family, n, 0, ring, a)
    rows = RowCache.of(rows)
    candidates, cofinite = _candidates(s, rows)
    return KSet(frozenset(k for k in candidates if build(replace(s, k=k), rows).is_self_reciprocal() != cofinite),
                cofinite)


# ------------------------------------------------------------------ predicates


def check_hypotheses(t: str, row: Rule, family: str, n: int, k: int, ring: Ring) -> None:
    """HypothesisError naming the first hypothesis of row ``t`` that fails.

    The order is the family, the ring, n, the fixed k, then the side conditions.
    """
    fams = row.families
    if family not in fams:
        named = f"{'families' if len(fams) > 1 else 'family'} {' and '.join(fams)}"
        raise HypothesisError(f"{t} applies to {named}")
    if not row.ring.holds(ring):
        raise HypothesisError(f"{t} is stated over {row.ring.text}")
    if not row.n.holds(n):
        raise HypothesisError(f"{t} requires {row.n.text}")
    if row.fixed_k is not None and k != row.fixed_k:
        # a row on a family that fixes k (fchar2) words it as the family does
        fixed = FAMILY_TABLE[family].fixed_k
        raise HypothesisError(f"{t} {fixed[1] if fixed else f'requires k = {row.fixed_k}'}")
    for side in row.sides:
        if not side.holds(n, ring.p):
            raise HypothesisError(f"{t} requires {side.text}")


def _check_hypotheses(theorem: str, kind: str, spec: FamilySpec, wrong_kind: str) -> Rule:
    """The rule's row, once it is of ``kind`` (else "<id> is not <wrong_kind>") and holds on spec."""
    t = normalize_theorem_id(theorem)
    rule = RULE_TABLE[t]
    if rule.kind != kind:
        raise DomainError(f"{t} is not {wrong_kind}")
    check_hypotheses(t, rule, require_type(spec, FamilySpec, "spec").family, spec.n, spec.k, spec.ring)
    return rule


def predicate(theorem: str, spec: FamilySpec) -> bool:
    """Evaluate a classification rule's side conditions on an in-range spec."""
    rule = _check_hypotheses(theorem, "classification", spec,
                             "a classification rule; use check_corollary or lemma_l1")
    return rule.predict(spec.n, spec.k, spec.ring.p)


# -------------------------------------------------------------- irreducibility


def _trial_candidates(p: int, deg: int) -> int:
    return sum(p**d for d in range(1, deg // 2 + 1))


def is_irreducible(a: Poly, method: str = "auto") -> bool:
    """Irreducibility over GF(p).

    ``trial`` divides by every monic polynomial of degree <= deg/2 and is the
    desk-scale oracle.  ``gcd`` is Ben-Or's test: for i = 1, 2, ..., deg/2 it
    raises x to the p-th power once more mod a and returns False at the first
    i with gcd(x^(p^i) - x, a) != 1.  That i is the least degree of an
    irreducible factor of a, so an input with a small factor costs few steps.
    ``auto`` picks by candidate count.
    """
    if not require_type(a, Poly, "is_irreducible's argument").ring.is_field:
        raise DomainError("irreducibility testing requires a prime-field ring")
    deg = a.degree
    if deg is None or deg < 1:
        raise DomainError("irreducibility is defined for degree >= 1")
    if method not in ("auto", "trial", "gcd"):
        raise DomainError(f"unknown irreducibility method {method!r}")
    p = a.ring.p
    if method == "auto":
        small = deg <= 10 and _trial_candidates(p, deg) <= _TRIAL_AUTO_LIMIT
        method = "trial" if small else "gcd"
    if method == "trial":
        if _trial_candidates(p, deg) > _TRIAL_HARD_LIMIT:
            raise CapacityError("trial division out of desk scale; use method='gcd'")
        for d in range(1, deg // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                if not a % Poly(a.ring, tail + (1,)):
                    return False
        return True
    f = a.monic()
    v = x = Poly.x(a.ring) % f
    for _ in range(deg // 2):
        v = pow_mod(v, p, f)
        if gcd(v - x, f).degree > 0:
            return False
    return True


def _not_srim(a: Poly) -> bool:
    """True unless a has degree >= 2 and is both self-reciprocal and irreducible."""
    deg = a.degree
    if deg is None or deg < 2 or not a.is_self_reciprocal():
        return True
    return not is_irreducible(a)


def lemma_l1(a: Poly) -> bool:
    """Even-degree law: no self-reciprocal irreducible has odd degree >= 3."""
    deg = require_type(a, Poly, "lemma_l1's argument").degree
    return (deg is not None and deg % 2 == 0) or _not_srim(a)


def check_corollary(corollary: str, spec: FamilySpec) -> bool:
    """True iff the spec's polynomial is not both irreducible and palindromic.

    Each corollary pins a parameter family on which the constructed
    polynomial has odd degree, so the conjunction (with degree >= 2) must
    never hold.
    """
    _check_hypotheses(corollary, "corollary", spec, "a corollary id")
    return _not_srim(build(spec))


# ------------------------------------------------------------------- scanning

# per corollary and lemma: how scan observes one spec from its rows, and the note a disagreement carries; each
# names the module's functions at call time, so a wrapper set on the module sees scan's calls
_OBSERVERS = {
    "corollary": (lambda spec, rows: _not_srim(build(spec, rows)), "corollary violated"),
    "lemma": (lambda spec, rows: lemma_l1(build(spec, rows)), "odd-degree srim found"),
}


def _rings(over: Condition, p_list) -> list[Ring]:
    """The ring a condition pins, else GF(p) for the distinct p of p_list (its rings when None), increasing."""
    if len(over.rings) == 1 or p_list is None:
        return list(over.rings)
    rings = []
    for p in sorted(set(p_list)):
        require_prime(p)
        rings.append(GF(p))
        if not over.holds(rings[-1]):
            raise DomainError("this rule is stated for odd primes")
    return rings


def _members(rule: Rule, ring: Ring) -> list[tuple[str, int | None]]:
    """(family, its fixed k) for the row's families pinned to ring; else (family, None) for its unpinned ones."""
    pinned = [(fam, FAMILY_TABLE[fam].fixed_k[0]) for fam in rule.families if FAMILY_TABLE[fam].ring == ring]
    return pinned or [(fam, None) for fam in rule.families if FAMILY_TABLE[fam].ring is None]


def entry_count(values) -> int:
    """The number of entries of a list, tuple or range; a range's without len(), which overflows past sys.maxsize."""
    return max(-((values.start - values.stop) // values.step), 0) if isinstance(values, range) else len(values)


def _int_list(values, what: str) -> list[int]:
    """The integers of an iterable, reading at most SCAN_CAP + 1 of them (CapacityError past SCAN_CAP)."""
    try:
        items = list(itertools.islice(values, SCAN_CAP + 1))
    except TypeError:
        raise DomainError(f"{what} must be an iterable of integers, got {values!r}") from None
    if len(items) > SCAN_CAP:
        raise CapacityError(f"{what} lists more entries than the cap {SCAN_CAP}")
    return [as_int(v, f"a {what} entry") for v in items]


def scan(theorem, n_min=None, n_max=None, k_values=None, p_list=None) -> list[Verdict]:
    """Evaluate one rule over finite ranges, one Verdict per in-range spec.

    The rings and member families are read from the rule's row (``_rings``
    and ``_members``).  Iteration order is (n, then k, then p, then family),
    so output is deterministic.  Over Z, k runs over ``k_values`` as given
    (default DEFAULT_K_WINDOW); over GF(p), over the distinct ``k_values`` in
    [0, p-1] in increasing order (default all of them).  Rules with a fixed
    k ignore ``k_values``.  ``k_values`` and ``p_list`` may be any iterables
    of at most SCAN_CAP integers; at most SCAN_CAP + 1 entries of each are
    read.  Mismatches are reported as data, not raised.  Scan walks n by n,
    and at each n takes once each (ring, member family) group that admits a
    k, evaluating the side conditions once; a group with no k below its p
    reads no row.  A classification group is observed one way: its pair
    settles every requested k but the candidates (``_candidates``), and only
    the requested candidates are built, by ``build``.  A corollary or L1
    group is observed one spec at a time by its kind's observer, which
    builds the member.  The members come from the row's own conditions, its
    hypotheses, so none is checked again; over SCAN_CAP candidates (n range
    x k values x ring and member family pairs) raise CapacityError before
    any is listed, and so does, with the text it raises when built alone, a
    group's largest member whose binomial row is above its cap
    (``require_rows``).  One ``RowCache``, made for this call, serves every
    ring: a group reads one pair (v, u) per n, and over Z, as n walks
    upward, each row after the call's first is built from the one before by
    Pascal's rule.
    """
    t = normalize_theorem_id(theorem)
    rule = RULE_TABLE[t]
    k_values = None if k_values is None else _int_list(k_values, "k_values")
    p_list = None if p_list is None else _int_list(p_list, "p_list")
    lo, hi = rule.scan_n
    lo = lo if n_min is None else max(as_int(n_min, "n_min"), lo)
    hi = hi if n_max is None else as_int(n_max, "n_max")
    rings = _rings(rule.ring, p_list)
    top = rings[-1].p if rings else None  # an empty p_list lists no ring, and so no member
    if rule.fixed_k is not None:
        ks = [rule.fixed_k]
    elif top is None:
        ks = DEFAULT_K_WINDOW if k_values is None else k_values
    else:
        ks = range(top) if k_values is None else sorted(k for k in set(k_values) if 0 <= k < top)
    members = [(r, _members(rule, r)) for r in rings]
    count = entry_count(range(lo, hi + 1)) * entry_count(ks) * sum(len(fams) for _, fams in members)
    if count > SCAN_CAP:
        raise CapacityError(f"{t} would scan {int_text(count)} candidate members, above the cap {SCAN_CAP}")
    # with no candidate the n range is not listed: n_max alone may make it as long as it likes
    ns = [n for n in range(lo, hi + 1) if rule.n.holds(n)] if count else []
    observe, note = _OBSERVERS.get(rule.kind, (None, "predicate and oracle disagree"))  # None: a classification
    # one group per (ring, member family) with a k and an n: a pinned member takes only its fixed k, an unpinned
    # one every distinct k, below p over GF(p); a group with no k reads no row
    rows = RowCache()
    groups = []
    for r, fams in members:
        top = next((n for n in reversed(ns) if all(side.holds(n, r.p) for side in rule.sides)), None)
        for fam, fixed in fams:
            gks = list(dict.fromkeys(k for k in ks if (k == fixed if fixed is not None else r.p is None or k < r.p)))
            if gks and top is not None:  # else the group observes nothing
                require_rows(fam, top, r)  # the group's largest member reads its largest row
                groups.append((r, fam, gks))
    out = []
    for n in ns:
        seen = []  # per group admitted at this n, its Verdicts by k
        for r, fam, gks in groups:
            if rule.sides and not all(side.holds(n, r.p) for side in rule.sides):
                continue
            specs = [FamilySpec(fam, n, k, r) for k in gks]
            if observe is None:  # the group's pair settles every k but its candidates, built when requested
                candidates, cofinite = _candidates(specs[0], rows)
                observed = [build(s, rows).is_self_reciprocal() if s.k in candidates else cofinite for s in specs]
            else:
                observed = [observe(s, rows) for s in specs]
            verdicts = {}
            for spec, obs in zip(specs, observed):
                pred = True if rule.predict is None else rule.predict(n, spec.k, r.p)
                verdicts[spec.k] = Verdict(t, spec, pred, obs, "" if pred == obs else note)
            seen.append(verdicts)
        # in (n, k, ring, family) order, a repeated k repeating its Verdicts
        out.extend(v[k] for k in ks for v in seen if k in v)
    return out


def mismatches(verdicts) -> list[Verdict]:
    """The sub-list of verdicts whose prediction disagrees with the oracle."""
    return [v for v in verdicts if not v.match]

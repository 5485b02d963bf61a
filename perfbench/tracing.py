"""In-memory call tracing for the benchmark's traced run.

``Tracer.install`` replaces each traced library function, in every
``reciprodick`` module that binds it, with a timing wrapper (methods are
replaced on their class), and ``Tracer.uninstall`` puts the originals back.
Nothing is written while calls run: hot leaves only bump a count and a
summed time, coarse calls also append a span (id, parent id, name, start,
end) to a list that is written out when the run ends.

Self time is a call's duration minus the time spent in wrapped calls it
made, so wrapper overhead lands in the caller's self time.
"""

from __future__ import annotations

import contextlib
import sys
import time

from reciprodick import binomics, classifier, cli, coterm_codes, families, ringpoly

Poly = ringpoly.Poly

# metric prefix -> (owner, attribute, records spans)
TARGETS = {
    "binomics.binomial": (binomics, "binomial", False),
    "binomics.binomial_mod_p_lucas": (binomics, "binomial_mod_p_lucas", False),
    "binomics.is_prime": (binomics, "is_prime", False),
    "families.build": (families, "build", True),
    "ringpoly.Poly.new": (Poly, "__init__", False),
    "ringpoly.Poly.mul": (Poly, "__mul__", False),
    "ringpoly.Poly.divmod": (Poly, "__divmod__", False),
    "ringpoly.pow_mod": (ringpoly, "pow_mod", False),
    "ringpoly.gcd": (ringpoly, "gcd", False),
    "ringpoly.Poly.is_self_reciprocal": (Poly, "is_self_reciprocal", False),
    "ringpoly.Poly.to_json_dict": (Poly, "to_json_dict", False),
    "classifier.scan": (classifier, "scan", True),
    "classifier.predicate": (classifier, "predicate", False),
    "classifier.oracle_self_reciprocal": (classifier, "oracle_self_reciprocal", False),
    "classifier.is_irreducible": (classifier, "is_irreducible", True),
    "classifier.check_corollary": (classifier, "check_corollary", True),
    "classifier.lemma_l1": (classifier, "lemma_l1", True),
    "coterm_codes.factor_xm_minus_1": (coterm_codes, "factor_xm_minus_1", True),
    "coterm_codes.monic_divisors": (coterm_codes, "monic_divisors", True),
    "coterm_codes.build_cyclic_code": (coterm_codes, "build_cyclic_code", True),
    "coterm_codes.verify_reversibility_by_enumeration":
        (coterm_codes, "verify_reversibility_by_enumeration", True),
    "coterm_codes.coterm_construct": (coterm_codes, "coterm_construct", True),
    "cli.main": (cli, "main", True),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "reciprodick" or name.startswith("reciprodick."))]


class Tracer:
    """Per-function call counts and times, spans of coarse calls, and counters."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TARGETS}  # calls, s, self_s
        self.counters = {"binomics.binomial.pairs": 0, "families.build.coeff_bits_max": 0,
                         "classifier.verdicts": 0, "classifier.mismatches": 0,
                         "coterm_codes.enumeration.codewords": 0}
        self.spans: list[tuple] = []  # (id, parent, name, start, end) in perf_counter seconds
        self.missing: list[str] = []  # targets the library no longer defines
        self._pairs: set = set()
        self._child = [0.0]  # wrapped-child time of each open call
        self._open = [0]  # ids of open spans; 0 is the root
        self._next_id = 1
        self._undo: list[tuple] = []

    # -------------------------------------------------------------- spans

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a benchmark-level block, so library spans get a parent."""
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1]
        self._open.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self.spans.append((sid, parent, name, t0, time.perf_counter()))

    def new_pass(self) -> None:
        """Distinct binomial arguments are counted per pass."""
        self.counters["binomics.binomial.pairs"] += len(self._pairs)
        self._pairs.clear()

    # ------------------------------------------------------------ wrapping

    def _after(self, name: str):
        # counters derived from arguments or results, taken outside the timing
        c = self.counters
        if name == "binomics.binomial":
            pairs = self._pairs
            return lambda args, kwargs, out: pairs.add(args)
        if name == "families.build":
            def after(args, kwargs, out):
                bits = max((abs(v).bit_length() for v in out.coeffs), default=0)
                if bits > c["families.build.coeff_bits_max"]:
                    c["families.build.coeff_bits_max"] = bits
            return after
        if name == "classifier.scan":
            def after(args, kwargs, out):
                c["classifier.verdicts"] += len(out)
                c["classifier.mismatches"] += sum(not v.match for v in out)
            return after
        if name == "coterm_codes.verify_reversibility_by_enumeration":
            def after(args, kwargs, out):
                code = args[0] if args else kwargs["code"]
                c["coterm_codes.enumeration.codewords"] += code.p ** code.dimension
            return after
        return None

    def _wrap(self, name: str, fn, coarse: bool):
        stat = self.stats[name]
        child, open_, spans = self._child, self._open, self.spans
        after = self._after(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if coarse:
                sid = tracer._next_id
                tracer._next_id = sid + 1
                parent = open_[-1]
                open_.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if coarse:
                    open_.pop()
                    spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = _package_modules()
        for name, (owner, attr, coarse) in TARGETS.items():
            fn = owner.__dict__.get(attr)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, coarse)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._undo.append((holder, key, fn))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()

    # ------------------------------------------------------------- metrics

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass means of every count and time; maxima and ratios as is."""
        self.new_pass()
        out = {}
        for name, (calls, s, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.s"] = s / passes
            out[f"{name}.self_s"] = self_s / passes
        c = self.counters
        calls = self.stats["binomics.binomial"][0]
        out["binomics.binomial.repeat_ratio"] = calls / c["binomics.binomial.pairs"] if calls else 0.0
        out["families.build.coeff_bits_max"] = c["families.build.coeff_bits_max"]
        for name in ("classifier.verdicts", "classifier.mismatches", "coterm_codes.enumeration.codewords"):
            out[name] = c[name] / passes
        return out

"""Moment sequences m = (m(p)) and their growth diagnostics.

Built-in kinds:

* ``factorial``          m(p) = p!                     (exact)
* ``q_factorial(q)``     m(p) = [p]_q!, [k]_q = 1+q+...+q^{k-1}  (exact for
  rational q)
* ``geometric(b)``       m(p) = b^p                    (exact for rational b;
  finite radius of convergence, the standard counterexample sequence)
* ``mittag_leffler(k)``  m(p) = Gamma(1 + p/k)         (binary64 only)
* ``custom``             finite table of positive rationals

``rapid_growth_declared`` asserts liminf m(p)^{1/p} = +infinity, which makes
the associated exponential series entire.  It is set automatically for the
built-in kinds and must be passed explicitly for custom tables.
"""

from __future__ import annotations

import json
import math
import threading
from fractions import Fraction

from .errors import SequenceError


def _as_fraction(x, what):
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SequenceError(f"{what} must be rational, got {x!r}") from exc


class MomentSequence:
    """Memoized positive sequence m(p) with m(0) = 1."""

    def __init__(self, kind, param=None, values=None, rapid_growth_declared=None):
        self.kind = kind
        self.param = param
        self._table = ()
        self._lock = threading.Lock()
        if kind == "factorial":
            self.exact = True
            default_rapid = True
        elif kind == "q_factorial":
            self.param = _as_fraction(param, "q")
            if self.param <= 1:
                raise SequenceError("q_factorial requires q > 1")
            self.exact = True
            default_rapid = True
        elif kind == "geometric":
            self.param = _as_fraction(param, "b")
            if self.param <= 0:
                raise SequenceError("geometric requires b > 0")
            self.exact = True
            default_rapid = False
        elif kind == "mittag_leffler":
            self.param = float(param)
            if not (math.isfinite(self.param) and self.param > 0):
                raise SequenceError("mittag_leffler requires a finite k > 0")
            self.exact = False
            default_rapid = True
        elif kind == "custom":
            if not values:
                raise SequenceError("custom sequence needs a nonempty table")
            self._table = tuple(_as_fraction(v, "custom value") for v in values)
            if self._table[0] != 1:
                raise SequenceError("m(0) must equal 1")
            if any(v <= 0 for v in self._table):
                raise SequenceError("moment values must be positive")
            self.exact = True
            if rapid_growth_declared is None:
                raise SequenceError(
                    "custom sequences must declare rapid growth explicitly"
                )
            default_rapid = rapid_growth_declared
        else:
            raise SequenceError(f"unknown sequence kind {kind!r}")
        self.rapid_growth_declared = (
            default_rapid if rapid_growth_declared is None else rapid_growth_declared
        )
        self._cache = [Fraction(1) if self.exact else 1.0]

    # -- constructors ---------------------------------------------------

    @classmethod
    def factorial(cls):
        return cls("factorial")

    @classmethod
    def q_factorial(cls, q):
        return cls("q_factorial", q)

    @classmethod
    def geometric(cls, b):
        return cls("geometric", b)

    @classmethod
    def mittag_leffler(cls, k):
        return cls("mittag_leffler", k)

    @classmethod
    def custom(cls, values, rapid_growth_declared):
        return cls("custom", values=values, rapid_growth_declared=rapid_growth_declared)

    # -- evaluation -------------------------------------------------------

    def q_number(self, k):
        q = self.param
        return (q**k - 1) / (q - 1)

    def _compute(self, p):
        # called under the lock with len(_cache) == p
        prev = self._cache[p - 1]
        if self.kind == "factorial":
            return prev * p
        if self.kind == "q_factorial":
            return prev * self.q_number(p)
        if self.kind == "geometric":
            return prev * self.param
        if self.kind == "mittag_leffler":
            try:
                return math.gamma(1 + p / self.param)
            except OverflowError:
                return math.inf
        # custom
        if p >= len(self._table):
            raise SequenceError(
                f"custom sequence has {len(self._table)} values; m({p}) undefined"
            )
        return self._table[p]

    def value(self, p):
        if p < 0:
            raise ValueError("p must be nonnegative")
        if p < len(self._cache):
            return self._cache[p]
        with self._lock:
            while len(self._cache) <= p:
                self._cache.append(self._compute(len(self._cache)))
        return self._cache[p]

    def step_ratio(self, p):
        """m(p-1)/m(p), computed stably (log-gamma for mittag_leffler)."""
        if p < 1:
            raise ValueError("p must be >= 1")
        if self.kind == "mittag_leffler":
            k = self.param
            return math.exp(math.lgamma(1 + (p - 1) / k) - math.lgamma(1 + p / k))
        return self.value(p - 1) / self.value(p)

    def log_value(self, p):
        if self.kind == "mittag_leffler":
            return math.lgamma(1 + p / self.param)
        v = self.value(p)
        return math.log(v.numerator) - math.log(v.denominator)

    def specifier(self):
        if self.kind == "factorial":
            return "factorial"
        if self.kind == "mittag_leffler":
            return f"ml:{self.param:g}"
        if self.kind == "q_factorial":
            return f"qfac:{self.param}"
        if self.kind == "geometric":
            return f"geom:{self.param}"
        return "custom"

    def _key(self):
        return self.kind, self.param, self._table

    def __eq__(self, other):
        """Value equality: same kind, parameter and (custom) table."""
        if not isinstance(other, MomentSequence):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"MomentSequence({self.specifier()!r})"


# -- growth probe -------------------------------------------------------

class GrowthReport:
    """Result of sampling m(p)^{1/p}: smallest root, trend, radius verdict."""

    def __init__(self, min_root, trend, finite_radius_suspected):
        self.min_root = min_root
        self.trend = trend
        self.finite_radius_suspected = finite_radius_suspected

    def to_json(self):
        return {
            "min_root": self.min_root,
            "trend": self.trend,
            "finite_radius_suspected": self.finite_radius_suspected,
        }


def growth_probe(seq, P):
    """Sample m(p)^{1/p} for p <= P and flag a suspected finite radius.

    The flag is raised when the tail values plateau (relative increase below
    1% over the last P/4 sample points).  It never overrides
    ``rapid_growth_declared``; it is advisory only.
    """
    if P < 8:
        raise ValueError("P must be at least 8")
    roots = [math.exp(seq.log_value(p) / p) for p in range(1, P + 1)]
    window = max(P // 4, 1)
    base = roots[-1 - window]
    rel_increase = (roots[-1] - base) / base if base > 0 else 0.0
    plateau = rel_increase < 0.01
    return GrowthReport(
        min_root=min(roots),
        trend="plateau" if plateau else "increasing",
        finite_radius_suspected=plateau,
    )


# -- CLI specifier strings ----------------------------------------------

def parse_specifier(spec):
    """Parse 'factorial' | 'ml:k' | 'qfac:q' | 'geom:b' | 'custom:<path>'."""
    if spec == "factorial":
        return MomentSequence.factorial()
    if spec.startswith("ml:"):
        return MomentSequence.mittag_leffler(float(spec[3:]))
    if spec.startswith("qfac:"):
        return MomentSequence.q_factorial(spec[5:])
    if spec.startswith("geom:"):
        return MomentSequence.geometric(spec[5:])
    if spec.startswith("custom:"):
        return load_custom(spec[7:])
    raise SequenceError(f"unknown moment sequence specifier {spec!r}")


def load_custom(path):
    """Load a custom sequence from a JSON list of 'p/q' strings; rapid growth
    is not declared for it."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise SequenceError("custom sequence file must hold a JSON list")
    return MomentSequence.custom(data, rapid_growth_declared=False)

"""Moment sequences m = (m(p)) and their growth diagnostics.

Each kind is one row of ``_KINDS``; a sequence reads all its rules there.

kind (specifier)         m(p)                   exact  growth    log-convex  closed form      series variable
-----------------------  ---------------------  -----  --------  ----------  ---------------  ---------------
factorial (factorial)    p m(p-1) = p!          yes    rapid     yes         -                Az *
q_factorial (qfac:q>1)   [p]_q m(p-1) = [p]_q!  yes    rapid     yes         -                Az
geometric (geom:b>0)     b m(p-1) = b^p         yes    finite    yes         (I - Az/b)^{-1}  Az
mittag_leffler (ml:k>0)  Gamma(1 + p/k)         no     rapid     yes         -                Y = (Az)^k *
custom (custom:<path>)   entry p of its table   yes    declared  not known   -                Az

[k]_q = 1+q+...+q^{k-1}; q, b and table entries are rational, k a finite
float.  Rapid growth, liminf m(p)^{1/p} = +infinity, makes E(Az) entire; a
built-in kind fixes growth and exactness, a custom table declares growth.
A log-convex kind has a nonincreasing step ratio r(p) = m(p-1)/m(p), as the
moments of a positive kernel do, so one term's ratio bounds every later
one and the float sums certify their tails from it (``evaluation._sum``).

(*) The kind's ``ramify`` rule gives its order k, where
m(p + k) = (1 + p/k) m(p): 1 for factorial, and for mittag_leffler the
parameter k itself where it is an integer k >= 1 (``ml:1`` is factorial in
floats).  Each residue class p = kq + r is then a series of exponential
type in Y = (Az)^k, and the float matrix series can be summed in Y by
Paterson-Stockmeyer (``evaluation._ramified``, which does so where it
pays).  A non-integer k, such as ``ml:1.5``, is summed in Az, and so is
q_factorial: its m(p + 1) = [p + 1]_q m(p) only exceeds (1 + p) m(p), and
the bound of the largest term rests on the equality.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from .errors import SequenceError


def _as_fraction(x, what):
    try:
        if isinstance(x, bool):  # Fraction(True) is 1
            raise TypeError
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SequenceError(f"{what} must be rational, got {x!r}") from exc


def _as_float(x, what):
    try:
        if isinstance(x, bool):  # float(True) is 1.0
            raise TypeError
        return float(x)
    except (ValueError, TypeError, OverflowError) as exc:
        raise SequenceError(f"{what} must be a real number, got {x!r}") from exc


def _gamma(x):
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


class _Kind(NamedTuple):
    prefix: str  # of the specifier
    exact: bool
    rapid: bool | None  # None: the caller declares a table's growth
    param: tuple | None  # (cast, check, error) of the parameter; None: none
    value: Callable | None  # m(p) from (seq, m(p-1), p); None: table entry p
    log: Callable | None = None  # log m(p) from (seq, p), not from m(p)
    neumann: bool = False  # E(Az) = (I - Az/param)^{-1}
    log_convex: bool = False  # r(p) = m(p-1)/m(p) is nonincreasing in p
    ramify: Callable | None = None  # order k >= 1 from the param, or None, where
    #                                 m(p + k) = (1 + p/k) m(p): sum in (Az)^k


_KINDS = {
    "factorial": _Kind("factorial", True, True, None, lambda s, m, p: m * p,
                       log_convex=True, ramify=lambda _: 1),
    "q_factorial": _Kind("qfac", True, True,
                         (partial(_as_fraction, what="q"), lambda q: q > 1,
                          "q_factorial requires q > 1"),
                         lambda s, m, p: m * s.q_number(p), log_convex=True),
    "geometric": _Kind("geom", True, False,
                       (partial(_as_fraction, what="b"), lambda b: b > 0,
                        "geometric requires b > 0"),
                       lambda s, m, p: m * s.param, neumann=True, log_convex=True),
    "mittag_leffler": _Kind("ml", False, True,
                            (partial(_as_float, what="k"), lambda k: math.isfinite(k) and k > 0,
                             "mittag_leffler requires a finite k > 0"),
                            lambda s, m, p: _gamma(1 + p / s.param),
                            log=lambda s, p: math.lgamma(1 + p / s.param),
                            log_convex=True,
                            ramify=lambda k: int(k) if k.is_integer() else None),
    "custom": _Kind("custom", True, None, None, None),
}


class MomentSequence:
    """Memoized positive sequence m(p) with m(0) = 1, by the ``rules`` of its kind.

    Besides the values, an object memoizes the ratio rows of
    :meth:`ratio_row` and one row of float step ratios
    (:meth:`float_step_ratio`), all filled by :meth:`_fill` under one lock.
    """

    def __init__(self, kind, param=None, values=None, rapid_growth_declared=None):
        rules = _KINDS.get(kind)
        if rules is None:
            raise SequenceError(f"unknown sequence kind {kind!r}")
        rapid = rules.rapid
        if rapid is None and rapid_growth_declared is None:
            raise SequenceError("custom sequences must declare rapid growth explicitly")
        if rapid is not None and rapid_growth_declared is not None:
            raise SequenceError(f"the growth of a {kind} sequence is fixed by its kind")
        if param is not None and rules.param is None:
            raise SequenceError(f"a {kind} sequence takes no parameter")
        self.rapid_growth_declared = rapid_growth_declared if rapid is None else rapid
        self.kind, self.rules, self.exact = kind, rules, rules.exact
        self._table = ()
        self._path = None  # the table's file, as its specifier wrote it
        self._lock = threading.Lock()
        self._rows = []  # ratio rows, see ratio_row
        self._float_ratios = [math.nan]  # see float_step_ratio; entry 0 unused
        if rules.param is not None:
            cast, check, error = rules.param
            param = cast(param)
            if not check(param):
                raise SequenceError(error)
        elif rules.value is None:
            if not values:
                raise SequenceError("custom sequence needs a nonempty table")
            self._table = tuple(_as_fraction(v, "custom value") for v in values)
            if self._table[0] != 1:
                raise SequenceError("m(0) must equal 1")
            if any(v <= 0 for v in self._table):
                raise SequenceError("moment values must be positive")
        self.param = param
        self._cache = [Fraction(1) if self.exact else 1.0]

    # -- constructors ---------------------------------------------------

    factorial = classmethod(lambda cls: cls("factorial"))
    q_factorial = classmethod(lambda cls, q: cls("q_factorial", q))
    geometric = classmethod(lambda cls, b: cls("geometric", b))
    mittag_leffler = classmethod(lambda cls, k: cls("mittag_leffler", k))
    custom = classmethod(lambda cls, values, rapid_growth_declared: cls(
        "custom", values=values, rapid_growth_declared=rapid_growth_declared))

    # -- evaluation -------------------------------------------------------

    def q_number(self, k):
        q = self.param
        return (q**k - 1) / (q - 1)

    def _compute(self, p):
        # called under the lock with len(_cache) == p
        if self.rules.value is not None:
            return self.rules.value(self, self._cache[p - 1], p)
        if p >= len(self._table):
            raise SequenceError(
                f"custom sequence has {len(self._table)} values; m({p}) undefined"
            )
        return self._table[p]

    def _fill(self, memo, p, entry):
        """memo[p], appending entry(q) for q = len(memo)..p under the lock."""
        with self._lock:
            while len(memo) <= p:
                memo.append(entry(len(memo)))
        return memo[p]

    def value(self, p):
        if p < 0:
            raise ValueError("p must be nonnegative")
        if p < len(self._cache):
            return self._cache[p]
        return self._fill(self._cache, p, self._compute)

    def ratio_row(self, p):
        """(m(p) / (m(n) m(p-n)))_{n<=p}, the weights of coefficient p of a
        moment-basis product, in the sequence's own number type (Fraction,
        or float for mittag_leffler).  Rows are memoized on the object; a
        row whose m(p) is past the float range is formed from log_value."""
        if p < len(self._rows):
            return self._rows[p]
        self.value(p)  # fills m(0..p) first; value takes the lock itself
        return self._fill(self._rows, p, self._ratio_row)

    def _ratio_row(self, q):
        m = self._cache
        if self.exact:  # one gcd per entry, for the half n <= q/2 of a symmetric row
            a, b = m[q].numerator, m[q].denominator
            half = [Fraction(a * m[n].denominator * m[q - n].denominator,
                             b * m[n].numerator * m[q - n].numerator) for n in range(q // 2 + 1)]
            return tuple(half + half[:q + 1 - len(half)][::-1])
        if m[q] == math.inf:
            lg = [self.log_value(n) for n in range(q + 1)]
            return tuple(math.exp(lg[q] - (lg[n] + lg[q - n])) for n in range(q + 1))
        return tuple(m[q] / (m[n] * m[q - n]) for n in range(q + 1))

    def step_ratio(self, p):
        """m(p-1)/m(p), computed stably (from the log form, if the kind has one)."""
        if p < 1:
            raise ValueError("p must be >= 1")
        log = self.rules.log
        if log is not None:
            return math.exp(log(self, p - 1) - log(self, p))
        return self.value(p - 1) / self.value(p)

    def float_step_ratio(self, p):
        """float(step_ratio(p)), correctly rounded, read from one row of
        float step ratios memoized on the object like ``ratio_row``; the
        float term loops read it instead of dividing two moment values."""
        row = self._float_ratios
        if 0 < p < len(row):
            return row[p]
        if p < 1:
            raise ValueError("p must be >= 1")
        if self.rules.log is not None:  # then step_ratio reads no moment value
            return self._fill(row, p, self.step_ratio)
        self.value(p)  # fills m(0..p) first; value takes the lock itself
        m = self._cache
        return self._fill(row, p, lambda q: float(m[q - 1] / m[q]))

    def log_value(self, p):
        if self.rules.log is not None:
            return self.rules.log(self, p)
        v = self.value(p)
        return math.log(v.numerator) - math.log(v.denominator)

    def specifier(self):
        """The string :func:`parse_specifier` reads back as this sequence:
        a table read by :func:`load_custom` prints ``custom:<path>``, one
        built in memory ``custom``, which names no file; ``ml:k`` prints k
        with ``:g`` when that reads back as k, else in full."""
        prefix = self.rules.prefix
        k = self.param if self._path is None else self._path
        if type(k) is float and float(f"{k:g}") == k:
            k = f"{k:g}"
        return prefix if k is None else f"{prefix}:{k}"

    def _key(self):
        # a custom table's file is not part of its value
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

@dataclass(frozen=True)
class GrowthReport:
    """Result of sampling m(p)^{1/p}: smallest root, trend, radius verdict."""

    min_root: float
    trend: str
    finite_radius_suspected: bool

    def to_json(self):
        return asdict(self)


def growth_probe(seq, P):
    """Sample m(p)^{1/p} for p <= P and flag a suspected finite radius.

    The flag is raised when the tail values plateau (relative increase below
    1% over the last P/4 sample points).  It never overrides
    ``rapid_growth_declared``; it is advisory only.
    """
    if P < 8:
        raise ValueError("P must be at least 8")
    # the roots m(p)^{1/p} stay in logs: only the least need have a float
    logs = [seq.log_value(p) / p for p in range(1, P + 1)]
    plateau = logs[-1] - logs[-1 - max(P // 4, 1)] < math.log1p(0.01)
    return GrowthReport(min_root=math.exp(min(logs)),
                        trend="plateau" if plateau else "increasing",
                        finite_radius_suspected=plateau)


# -- CLI specifier strings ----------------------------------------------

def parse_specifier(spec, base=""):
    """Parse 'factorial' | 'ml:k' | 'qfac:q' | 'geom:b' | 'custom:<path>': a
    parameter or a table's file follows the colon.  A relative custom path is
    read from the directory ``base`` and kept as written, so the sequence's
    specifier is ``spec`` itself."""
    if not isinstance(spec, str):
        raise SequenceError(f"moment sequence specifier must be a string, got {spec!r}")
    prefix, colon, arg = spec.partition(":")
    kind = next((k for k, row in _KINDS.items() if row.prefix == prefix), None)
    rules = _KINDS.get(kind)
    if rules is None or bool(colon) != (rules.param is not None or rules.value is None):
        raise SequenceError(f"unknown moment sequence specifier {spec!r}")
    if rules.value is None:
        seq = load_custom(os.path.join(base, arg))
        seq._path = arg
        return seq
    return MomentSequence(kind, arg) if colon else MomentSequence(kind)


def load_custom(path):
    """Load a custom sequence from a JSON list of 'p/q' strings; rapid growth
    is not declared for it.  The sequence keeps ``path`` for its specifier."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise SequenceError("custom sequence file must hold a JSON list")
    seq = MomentSequence.custom(data, rapid_growth_declared=False)
    seq._path = path
    return seq

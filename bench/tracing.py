"""Span recorder for the traced run.

``Tracer.install()`` replaces the public functions of each momexp module and
the methods of ``CMatrix``, ``MomentSequence`` and ``IVPSolution`` with
wrappers that record one span per call; ``uninstall()`` puts the originals
back.  Nothing under ``src/`` changes: the wrappers are bound at run time,
in every module namespace that holds the original object, so calls made
from inside the package are seen too.

A span is ``[name, start, end, parent, op]``.  Spans are kept in memory and
written out when the run ends.  Self time is a span's duration minus the
duration of its child spans.  Book-keeping done inside a wrapper after its
clock stops (counting bits, reading reports) is excluded from every
enclosing span, so it shows up neither as self time nor as child time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name); the name may be refined per call below.
FUNCTIONS = [
    ("evaluation", "eval_exp", "evaluation.eval_exp"),
    ("evaluation", "delta_E", "evaluation.delta_E"),
    ("evaluation", "eval_via_jordan", "evaluation.eval_via_jordan"),
    ("evaluation", "jordan_block_exp", "evaluation.jordan_block_exp"),
    ("evaluation", "norm_bound_check", "evaluation.norm_bound_check"),
    ("series", "cauchy_product", "series.cauchy_product"),
    ("series", "inverse_series", "series.inverse_series"),
    ("series", "exp_series", "series.exp_series"),
    ("series", "phi_coefficients", "series.phi_coefficients"),
    ("jordan", "jordan_decompose", "jordan.jordan_decompose"),
    ("jordan", "eigenvalues", "jordan.eigenvalues"),
    ("jordan", "verify_decomposition", "jordan.verify_decomposition"),
    ("solver", "residual_check", "solver.residual_check"),
    ("solver", "q_derivative_residual", "solver.q_derivative_residual"),
    ("solver", "fundamental_matrix", "solver.fundamental_matrix"),
    ("solver", "recover_exponential", "solver.recover_exponential"),
    ("matrices", "matrix_from_json", "matrices.json.parse"),
    ("matrices", "matrix_to_json", "matrices.json.emit"),
    ("cli", "main", "cli.main"),
]

# (class module, class name, method, span name)
METHODS = [
    ("matrices", "CMatrix", "__matmul__", "matrices.matmul"),
    ("matrices", "CMatrix", "__add__", "matrices.add"),
    ("matrices", "CMatrix", "__sub__", "matrices.add"),
    ("matrices", "CMatrix", "scale", "matrices.scale"),
    ("matrices", "CMatrix", "inverse", "matrices.inverse"),
    ("matrices", "CMatrix", "det", "matrices.det"),
    ("matrices", "CMatrix", "row_sum_norm", "matrices.row_sum_norm"),
    ("moments", "MomentSequence", "value", "moments.value"),
    ("moments", "MomentSequence", "step_ratio", "moments.step_ratio"),
    ("solver", "IVPSolution", "__call__", "solver.ivp_call"),
]


def _bits(m):
    """Largest numerator or denominator bit length of an exact CMatrix."""
    best = 0
    for row in m.rows:
        for x in row:
            for part in (x.re, x.im):
                best = max(best, part.numerator.bit_length(),
                           part.denominator.bit_length())
    return best


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []           # [name, start, end, parent, op]
        self.child = []           # per span: summed duration of its children
        self.excluded = []        # per span: book-keeping time inside it
        self.stack = []
        self.op = None            # id of the operation being traced
        self.counts = defaultdict(float)   # (op, counter) -> value
        self.maxima = defaultdict(int)     # counter -> max value
        self.samples = defaultdict(list)   # counter -> per-call values
        self._saved = []

    # -- span bookkeeping ------------------------------------------------

    def _begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op])
        self.child.append(0.0)
        self.excluded.append(0.0)
        self.stack.append(idx)
        return idx

    def _end(self, idx):
        end = self.clock()
        span = self.spans[idx]
        span[2] = end
        self.stack.pop()
        if span[3] >= 0:
            self.child[span[3]] += end - span[1] - self.excluded[idx]
        return end

    def _exclude_since(self, t0):
        """Charge clock time since t0 as book-keeping to every open span."""
        dt = self.clock() - t0
        for idx in self.stack:
            self.excluded[idx] += dt

    def count(self, name, value=1):
        self.counts[(self.op, name)] += value

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name, post=None, namer=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._begin(namer(args) if namer else name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end = tracer._end(idx)
                tracer.count(f"{name}.raised.{type(exc).__name__}")
                tracer._exclude_since(end)
                raise
            end = tracer._end(idx)
            if post is not None:
                post(args, out)
                tracer._exclude_since(end)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _post_matmul(self, args, out):
        kind = "exact" if out.backend == "exact" else "float"
        self.count(f"matrices.scalar_mults_{kind}", out.n ** 3)
        if kind == "exact":
            self.maxima["matrices.exact_bits_max"] = max(
                self.maxima["matrices.exact_bits_max"], _bits(out))

    def _post_eval(self, args, rep):
        self.count("evaluation.terms_used.sum", rep.terms_used)
        self.count(f"evaluation.status.{rep.status}")
        self.samples["evaluation.terms_used"].append(rep.terms_used)

    def _post_delta(self, args, rep):
        self.count("evaluation.delta_E.terms_sum", rep.terms_used)

    def _post_cauchy(self, args, out):
        N = out.order
        self.count("series.coeff_products", (N + 1) * (N + 2) // 2)

    def _wrap_fundamental(self, fn, name):
        outer = self._wrap(fn, name)
        tracer = self

        def fundamental_matrix(*args, **kwargs):
            return tracer._wrap(outer(*args, **kwargs), name)

        fundamental_matrix.__wrapped__ = fn
        return fundamental_matrix

    def _make(self, attr, fn, name):
        if attr == "__matmul__":
            return self._wrap(
                fn, name, self._post_matmul,
                namer=lambda a: "matrices.matmul_exact" if a[0].backend == "exact"
                else "matrices.matmul_float")
        if attr == "eval_exp":
            return self._wrap(fn, name, self._post_eval)
        if attr == "delta_E":
            return self._wrap(fn, name, self._post_delta)
        if attr == "cauchy_product":
            return self._wrap(fn, name, self._post_cauchy)
        if attr == "jordan_decompose":
            return self._wrap(
                fn, name,
                namer=lambda a: "jordan.exact" if a[0].backend == "exact" else name)
        if attr == "fundamental_matrix":
            return self._wrap_fundamental(fn, name)
        return self._wrap(fn, name)

    def install(self):
        """Swap every traced callable for its wrapper, package-wide."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {k: v for k, v in sys.modules.items()
                if k == "momexp" or k.startswith("momexp.")}
        for mod, attr, name in FUNCTIONS:
            fn = getattr(mods[f"momexp.{mod}"], attr)
            wrapped = self._make(attr, fn, name)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._saved.append((m, key, val))
                        setattr(m, key, wrapped)
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(mods[f"momexp.{mod}"], cls_name)
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._make(attr, fn, name))

    def uninstall(self):
        for owner, key, val in reversed(self._saved):
            setattr(owner, key, val)
        self._saved = []

    # -- results ---------------------------------------------------------

    def self_times(self):
        """{(op, span name): [calls, self seconds]}."""
        out = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            dur = end - start - self.excluded[i]
            acc = out[(op, name)]
            acc[0] += 1
            acc[1] += dur - self.child[i]
        return out

    def totals(self):
        """{(op, span name): summed duration}, children included."""
        out = defaultdict(float)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            out[(op, name)] += end - start - self.excluded[i]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

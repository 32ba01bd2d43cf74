"""Command-line front-end with JSON input and output.

One verb per run; a single strict JSON document (non-finite numbers written
as null) goes to standard output and all diagnostics to standard error.
Exit status: 0 on success, 2 on input or parse errors, 3 on numeric failure
(radius exceeded, non-convergence, singular matrix, failed chain
construction, a value past the float range).

A verb computes exactly only on an exact ("p/q") matrix, and there it reads
a float --z or --v0 as the binary rational it is.  eval sums the series
exactly when the sequence is exact too and z is an integer or the kind has
a closed form, and prints the value exactly only at an integer z.  In every
other case, and when the exact series stops at max_terms_reached (it ends
only for a nilpotent Az), it sums A.to_float().  solve builds one exact
solution: --check residual reads it, and a closed form is evaluated on it
at each --z; the series at --z and --check qres are summed in floats.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

from . import __version__
from .errors import (
    ChainConstructionFailed,
    EvaluationError,
    MomexpError,
    SingularMatrix,
)
from .evaluation import (
    CONVERGED,
    MAX_TERMS_REACHED,
    TruncationPolicy,
    eval_exp,
    eval_via_jordan,
)
from .exact import GaussianRational
from .jordan import JordanDecomposition, jordan_decompose, verify_decomposition
from .matrices import (
    EXACT,
    CMatrix,
    matrix_from_json,
    matrix_to_json,
    scalar_from_json,
    vector_from_json,
    vector_to_json,
)
from .moments import growth_probe, parse_specifier
from .series import (
    MomentSeries,
    cauchy_product,
    inverse_series,
    moment_derivative,
    phi_coefficients,
)
from .solver import q_derivative_residual, residual_check, solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _parse_complex(text):
    """The value of a --z option, written 're' or 're,im'."""
    parts = text.split(",")
    try:
        if len(parts) > 2:
            raise ValueError
        z = complex(*map(float, parts))
    except ValueError:
        raise ValueError(f"--z values are written 're,im', got {text!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"--z values must be finite, got {text!r}")
    return z


def _binary_rational(x):
    """An exact scalar as it is, a float one as the Gaussian rational it is."""
    return x if isinstance(x, GaussianRational) else GaussianRational(x.real, x.imag)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_matrix(args):
    """The matrix in the file named by --matrix, remembered on ``args`` so
    that a value past the float range can be traced back to it."""
    A = matrix_from_json(_load_json(args.matrix))
    args.inputs.append((f"--matrix {args.matrix}", A))
    return A


def _past_float_range(inputs):
    """Name the first entry of an input matrix or vector that has no float,
    or None."""
    for source, value in inputs:
        if isinstance(value, CMatrix):
            entries = (((i, j), x) for i, row in enumerate(value.rows)
                       for j, x in enumerate(row))
        else:
            entries = enumerate(value)
        for index, x in entries:
            try:
                complex(x)
            except OverflowError:
                return f"entry {index} of {source} is past the float range"
    return None


def _policy(args):
    return TruncationPolicy(tol=args.tol, max_terms=args.max_terms)


def _series_to_json(s):
    return {
        "sequence": s.seq.specifier(),
        "coeffs": [matrix_to_json(c) for c in s.coeffs],
    }


def _series_from_json(path):
    """The series in the JSON file ``path``; a relative ``custom:<path>`` in
    it names a table beside that file."""
    obj = _load_json(path)
    if not (isinstance(obj, dict) and "sequence" in obj and isinstance(obj.get("coeffs"), list)):
        raise ValueError("series JSON must be an object with a 'sequence' and a 'coeffs' list")
    seq = parse_specifier(obj["sequence"], os.path.dirname(path))
    coeffs = [matrix_from_json(c) for c in obj["coeffs"]]
    return MomentSeries(seq, coeffs)


def _strict_json(obj):
    """Replace non-finite floats, which strict JSON cannot hold, by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    return obj


def _emit(doc):
    json.dump(_strict_json(doc), sys.stdout, allow_nan=False)
    sys.stdout.write("\n")


def _report_doc(rep):
    return {
        "value": matrix_to_json(rep.value) if rep.value is not None else None,
        "terms_used": rep.terms_used,
        "tail_estimate": rep.tail_estimate,
        "status": rep.status,
    }


# -- verbs ---------------------------------------------------------------

def _cmd_eval(args):
    A = _read_matrix(args)
    seq = parse_specifier(args.moment)
    z = _parse_complex(args.z)
    policy = _policy(args)
    doc = None
    status = CONVERGED
    if args.path in ("series", "both"):
        integer = z.imag == 0 and z.real.is_integer()
        rep = None
        if A.backend == EXACT and seq.exact and (integer or seq.rules.neumann):
            rep = eval_exp(A, _binary_rational(z), seq, policy)
        if rep is None or rep.status == MAX_TERMS_REACHED:
            rep = eval_exp(A.to_float(), z, seq, policy)
        elif not integer and rep.value is not None:
            rep.value = rep.value.to_float()
        doc = _report_doc(rep)
        status = rep.status
    if args.path in ("jordan", "both"):
        dec = jordan_decompose(A.to_float())
        jrep = eval_via_jordan(dec, z, seq, policy)
        if args.path == "jordan":
            doc = _report_doc(jrep)
            status = jrep.status
        elif status == CONVERGED and jrep.status == CONVERGED:
            doc["discrepancy"] = (rep.value.to_float() - jrep.value).row_sum_norm()
        else:
            doc["discrepancy"] = None
            status = status if status != CONVERGED else jrep.status
    _emit(doc)
    return EXIT_OK if status == CONVERGED else EXIT_NUMERIC


def _cmd_solve(args):
    A = _read_matrix(args)
    seq = parse_specifier(args.moment)
    v0 = vector_from_json(json.loads(args.v0))
    if len(v0) != A.n:
        raise ValueError(f"--v0 has {len(v0)} entries for a {A.n} x {A.n} matrix")
    args.inputs.append(("--v0", v0))
    policy = _policy(args)
    exact = A.backend == EXACT
    closed = exact and seq.rules.neumann
    exact_sol = solve(A, tuple(map(_binary_rational, v0)), seq, policy) if exact else None
    # an exact matrix goes to floats only for a series at --z or --check
    # qres, so one past the float range still has its exact residual
    sol = None
    if not exact or (args.z and not closed) or args.check == "qres":
        sol = solve(A.to_float(), tuple(complex(x) for x in v0), seq, policy)
    results = []
    ok = True
    for ztext in args.z or []:
        z = _parse_complex(ztext)
        if closed:
            rep = exact_sol.evaluate_report(_binary_rational(z))
        else:
            rep = sol.evaluate_report(z)
        ok = ok and rep.status == CONVERGED
        results.append(
            {
                "z": [z.real, z.imag],
                "y": (vector_to_json(tuple(map(complex, rep.value)))
                      if rep.status == CONVERGED else None),
                "status": rep.status,
            }
        )
    doc = {"results": results}
    if args.check == "residual":
        doc["residual"] = residual_check(exact_sol if exact else sol, args.order)
    elif args.check == "qres":
        if seq.kind != "q_factorial":
            raise ValueError("--check qres requires a qfac:<q> moment sequence")
        zs = [_parse_complex(t) for t in (args.z or [])] or [0.25]
        doc["q_residual"] = q_derivative_residual(sol, float(seq.param), zs)
    _emit(doc)
    return EXIT_OK if ok else EXIT_NUMERIC


def _cmd_jordan(args):
    A = _read_matrix(args).to_float()
    dec = jordan_decompose(A, tol=args.tol, eig_tol=args.eig_tol)
    _emit(
        {
            "blocks": [[lam.real, lam.imag, size] for lam, size in dec.blocks],
            "P": matrix_to_json(dec.P),
            "P_inv": matrix_to_json(dec.P_inv),
            "residual": verify_decomposition(A, dec, tol=args.tol)["residual"],
        }
    )
    return EXIT_OK


def _cmd_verify_jordan(args):
    A = _read_matrix(args)
    obj = _load_json(args.decomposition)
    entries = obj.get("blocks") if isinstance(obj, dict) else None
    if not isinstance(entries, list) or not all(
        isinstance(e, list) and len(e) == 3 and type(e[2]) is int for e in entries
    ):
        raise ValueError("decomposition JSON needs 'blocks': [[re, im, size], ...]")
    if missing := [k for k in ("P", "P_inv") if k not in obj]:
        raise ValueError(f"decomposition JSON needs {' and '.join(map(repr, missing))}")
    blocks = [(scalar_from_json(e[:2]), e[2]) for e in entries]
    dec = JordanDecomposition(
        P=matrix_from_json(obj["P"]),
        blocks=blocks,
        P_inv=matrix_from_json(obj["P_inv"]),
    )
    args.inputs += [(f"--decomposition {args.decomposition}", m) for m in (dec.P, dec.P_inv)]
    result = verify_decomposition(A, dec, tol=args.tol)
    _emit(result)
    return EXIT_OK if result["ok"] else EXIT_NUMERIC


_SERIES_INPUTS = {
    "derive": ("series",),
    "product": ("series", "series2"),
    "inverse": ("matrix", "moment"),
    "phi": ("moment",),
}


def _cmd_series(args):
    missing = [f"--{a}" for a in _SERIES_INPUTS[args.op] if getattr(args, a) is None]
    if missing:
        raise ValueError(f"--op {args.op} needs {' and '.join(missing)}")
    if args.op == "derive":
        out = moment_derivative(_series_from_json(args.series))
        _emit(_series_to_json(out))
    elif args.op == "product":
        s1 = _series_from_json(args.series)
        s2 = _series_from_json(args.series2)
        _emit(_series_to_json(cauchy_product(s1, s2)))
    elif args.op == "inverse":
        A = _read_matrix(args)
        seq = parse_specifier(args.moment)
        _emit(_series_to_json(inverse_series(A, seq, args.order)))
    else:  # phi
        seq = parse_specifier(args.moment)
        phis = phi_coefficients(seq, args.order)
        _emit({"phi": [str(x) if seq.exact else x for x in phis]})
    return EXIT_OK


def _cmd_probe(args):
    seq = parse_specifier(args.moment)
    if args.terms < 8:
        raise ValueError(f"--terms must be at least 8, got {args.terms}")
    report = growth_probe(seq, args.terms)
    doc = {"sequence": seq.specifier()}
    doc.update(report.to_json())
    _emit(doc)
    return EXIT_OK


# -- parser ---------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="momexp",
        description="Generalized matrix exponentials and moment-differential systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="evaluate E(Az)")
    p.add_argument("--matrix", required=True)
    p.add_argument("--z", default="1,0")
    p.add_argument("--moment", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-terms", dest="max_terms", type=int, default=10000)
    p.add_argument("--path", choices=["series", "jordan", "both"], default="series")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("solve", help="solve dy = Ay, y(0) = v0")
    p.add_argument("--matrix", required=True)
    p.add_argument("--moment", required=True)
    p.add_argument("--v0", required=True, help='JSON, e.g. "[[1,0],[2,0]]"')
    p.add_argument("--z", action="append")
    p.add_argument("--check", choices=["residual", "qres", "none"], default="none")
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-terms", dest="max_terms", type=int, default=10000)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("jordan", help="Jordan canonical decomposition")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--eig-tol", dest="eig_tol", type=float, default=1e-2)
    p.set_defaults(func=_cmd_jordan)

    p = sub.add_parser("verify-jordan", help="verify a supplied decomposition")
    p.add_argument("--matrix", required=True)
    p.add_argument("--decomposition", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_verify_jordan)

    p = sub.add_parser("series", help="formal series operations")
    p.add_argument("--op", choices=["derive", "product", "inverse", "phi"], required=True)
    p.add_argument("--series")
    p.add_argument("--series2")
    p.add_argument("--matrix")
    p.add_argument("--moment")
    p.add_argument("--order", type=int, default=20)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("probe", help="growth diagnostics for a moment sequence")
    p.add_argument("--moment", required=True)
    p.add_argument("--terms", type=int, default=64)
    p.set_defaults(func=_cmd_probe)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_INPUT
    args.inputs = []  # (option and file, matrix or vector) pairs
    try:
        return args.func(args)
    except (SingularMatrix, EvaluationError, ChainConstructionFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OverflowError as exc:
        print(f"error: {_past_float_range(args.inputs) or exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MomexpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

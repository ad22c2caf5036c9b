"""Command-line interface.

Subcommands: ``classify``, ``scan``, ``complex-scan``, ``richardson``,
``certify``, ``drift``.  Problem files are JSON documents (see
``coefficients.problem_from_dict``).  Data goes to stdout (or ``--out``);
diagnostics go to stderr.  Exit codes: 0 success, 2 invalid input,
3 numerical failure, 4 certificate hypothesis violation.

The ``SL_THREADS`` environment variable sets the scan worker count
(default 1, serial).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import warnings

from . import certificates as certs
from . import coefficients as coeffs
from . import richardson as rich
from . import spectrum as spec_mod
from .errors import (HypothesisViolation, InvalidProblemError, NumericalFailure)


def _warn(message: object) -> None:
    print(f"WARNING: {message}", file=sys.stderr)


def _cmd_classify(args: argparse.Namespace) -> str:
    spec = coeffs.load_problem(args.problem)
    report = certs.classify_definiteness(spec)
    return coeffs._json_text(report.to_dict())


def _cmd_scan(args: argparse.Namespace) -> str:
    spec = coeffs.load_problem(args.problem)
    result = spec_mod.find_real_eigenvalues(spec, tuple(args.window), args.tol)
    for w in result.warnings:
        _warn(w)
    if args.format == "csv":
        return spec_mod.scan_to_csv(result)
    return spec_mod.scan_to_json(result)


def _cmd_complex_scan(args: argparse.Namespace) -> str:
    spec = coeffs.load_problem(args.problem)
    records = spec_mod.find_complex_eigenvalues(
        spec, (tuple(args.re), tuple(args.im)), args.tol)
    if args.format == "csv":
        return spec_mod.records_to_csv(records)
    return coeffs._json_text({
        "rect": {"re": list(args.re), "im": list(args.im)},
        "tol": args.tol,
        "eigenvalues": [r.to_dict() for r in records],
    })


def _cmd_richardson(args: argparse.Namespace) -> str:
    spec = coeffs.load_problem(args.problem)
    report = rich.richardson_numbers(spec, tuple(args.window), args.tol)
    for w in report.scan.warnings:
        _warn(w)
    if args.format == "csv":
        return rich.report_to_csv(spec, report, with_drift=args.drift)
    return rich.report_to_json(report)


def _cmd_drift(args: argparse.Namespace) -> str:
    spec = coeffs.load_problem(args.problem)
    value = rich.zero_drift(spec, args.lam, args.zero_index)
    return coeffs._json_text({"lambda": args.lam,
                              "zero_index": args.zero_index, "drift": value})


def _parse_mus(raw: str) -> list[float]:
    try:
        return [float(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InvalidProblemError(f"cannot parse mu list {raw!r}: {exc}") from exc


def _cmd_certify(args: argparse.Namespace) -> str:
    kind = args.kind
    if kind == "one_tp":
        if args.q0 is None:
            raise InvalidProblemError("certify --kind one_tp needs --q0")
        upper, lower = certs.bound_one_turning_point(args.q0)
        return coeffs._json_text({"upper": certs.certificate_to_dict(upper),
                                  "lower": certs.certificate_to_dict(lower)})
    if kind == "application":
        if args.m is None:
            raise InvalidProblemError("certify --kind application needs --m")
        return certs.certificate_to_json(
            certs.certify_application(args.m, args.q_const))
    if args.problem is None:
        raise InvalidProblemError(f"certify --kind {kind} needs a problem file")
    spec = coeffs.load_problem(args.problem)
    if kind == "prop3":
        if args.lam is None or args.mu is None:
            raise InvalidProblemError("certify --kind prop3 needs --lam and --mu")
        cert = certs.certify_prop3(spec, args.lam, _parse_mus(args.mu),
                                   tol=args.tol)
    else:
        needed = {"--mu": args.mu, "--lambda-star": args.lambda_star,
                  "--c": args.c, "--d": args.d, "--e": args.e}
        missing = [k for k, v in needed.items() if v is None]
        if missing:
            raise InvalidProblemError(
                f"certify --kind {kind} needs {', '.join(missing)}")
        mus = _parse_mus(args.mu)
        if len(mus) != 1:
            raise InvalidProblemError(
                f"certify --kind {kind} needs one --mu value, got {args.mu!r}")
        fn = certs.certify_prop4 if kind == "prop4" else certs.certify_prop5
        cert = fn(spec, mus[0], args.lambda_star, args.c, args.d, args.e)
    return certs.certificate_to_json(cert)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slindef",
        description="Spectral toolkit for Sturm-Liouville problems with "
                    "sign-indefinite piecewise-constant weights.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("problem", help="problem JSON file")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="numerical tolerance (default 1e-9)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default json)")
        p.add_argument("--out", default=None,
                       help="write output to this file instead of stdout")

    p = sub.add_parser("classify", help="definiteness classification")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scan", help="real eigenvalue scan over a window")
    add_common(p)
    p.add_argument("--window", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("complex-scan",
                       help="eigenvalues inside a complex rectangle")
    add_common(p)
    p.add_argument("--re", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--im", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.set_defaults(func=_cmd_complex_scan)

    p = sub.add_parser("richardson",
                       help="type thresholds with tail evidence")
    add_common(p)
    p.add_argument("--window", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--drift", action="store_true",
                   help="append the first-zero drift column to CSV output")
    p.set_defaults(func=_cmd_richardson)

    p = sub.add_parser("drift", help="zero drift d x_k / d lambda")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("--lam", type=float, required=True,
                   help="real spectral value")
    p.add_argument("--zero-index", type=int, required=True,
                   help="1-based index of the interior zero")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_drift)

    p = sub.add_parser("certify", help="bound certificates")
    p.add_argument("problem", nargs="?", default=None,
                   help="problem JSON file (prop3/prop4/prop5)")
    p.add_argument("--kind", required=True,
                   choices=("one_tp", "application", "prop3", "prop4", "prop5"))
    p.add_argument("--q0", type=float, default=None,
                   help="constant potential (one_tp)")
    p.add_argument("--m", type=float, default=None,
                   help="potential bound M (application)")
    p.add_argument("--q-const", type=float, default=0.0,
                   help="constant potential for the application problem")
    p.add_argument("--lam", type=float, default=None,
                   help="eigenvalue to certify from (prop3)")
    p.add_argument("--mu", default=None,
                   help="comparison value; comma list for prop3")
    p.add_argument("--lambda-star", type=float, default=None,
                   help="claimed bound (prop4/prop5)")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--e", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="eigenvalue residual tolerance (prop3)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the library's warnings (the complex search's contour retry) print
        # as the scan's do; the filters are restored on exit
        with warnings.catch_warnings(record=True) as caught:
            try:
                text = args.func(args)
                with (open(args.out, "w", encoding="utf-8") if args.out
                      else contextlib.nullcontext(sys.stdout)) as out:
                    out.write(text)
                return 0
            finally:
                for w in caught:
                    _warn(w.message)
    except (InvalidProblemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 4
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sweep a family of sign-indefinite problems and tabulate its spectral
thresholds.

For each potential level q0 in the requested range the script scans a real
window, extracts the Richardson thresholds (lambda_plus / lambda_minus), the
empirical oscillation-count indices, and the eigenvalue count, and emits one
CSV row.  stdout carries data only; progress goes to stderr.

Examples:
    python3 scripts/richardson_sweep.py --family one_tp --q0-from -25 \
        --q0-to -2 --step 0.5
    python3 scripts/richardson_sweep.py --family two_tp --blocks -1 1 -1 \
        --q0-from -15 --q0-to 0 --step 1 --out sweep.csv
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from slindef import (
    application_problem,
    one_turning_point,
    richardson_numbers,
    two_turning_point,
)
from slindef.errors import SlindefError


def _build(args: argparse.Namespace, q0: float):
    if args.family == "one_tp":
        return one_turning_point(q0)
    if args.family == "two_tp":
        return two_turning_point(*args.blocks, q0)
    return application_problem(q0)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(value)


def run(args: argparse.Namespace) -> str:
    rows = ["q0,lambda_plus,lambda_minus,n_r,n_h,n_eigenvalues,seconds"]
    i = 0
    # point i is q0_from + i * step, so rounding does not pile up along the grid
    while (q0 := args.q0_from + i * args.step) <= args.q0_to + 1e-12:
        i += 1
        lim = abs(q0) + args.window_pad
        t0 = time.monotonic()
        try:
            rep = richardson_numbers(_build(args, q0), (-lim, lim), args.tol)
        except SlindefError as exc:
            print(f"q0={q0:g}: {exc}", file=sys.stderr)
            continue
        dt = time.monotonic() - t0
        rows.append(",".join([
            repr(q0), _fmt(rep.lambda_plus), _fmt(rep.lambda_minus),
            _fmt(rep.n_r_empirical), _fmt(rep.n_h_empirical),
            str(len(rep.scan.records)),
            f"{dt:.3f}",
        ]))
        print(f"q0={q0:g}: lambda_plus={rep.lambda_plus} "
              f"lambda_minus={rep.lambda_minus} ({dt:.2f}s)", file=sys.stderr)
    return "\n".join(rows) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="one_tp",
                        choices=["one_tp", "two_tp", "application"])
    parser.add_argument("--q0-from", type=float, default=-25.0)
    parser.add_argument("--q0-to", type=float, default=-2.0)
    parser.add_argument("--step", type=float, default=0.5)
    parser.add_argument("--blocks", type=float, nargs=3,
                        default=(-1.0, 1.0, -1.0),
                        metavar=("A", "B", "C"),
                        help="block weights for the two_tp family")
    parser.add_argument("--window-pad", type=float, default=50.0,
                        help="scan window is [-(|q0|+pad), |q0|+pad]")
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--out", default=None,
                        help="write CSV here instead of stdout")
    args = parser.parse_args(argv)

    # read once, before the loop: a value that fails every point is one error
    for name in ("step", "tol"):
        value = getattr(args, name)
        if not 0.0 < value < math.inf:
            print(f"{name} must be positive and finite, got {value!r}",
                  file=sys.stderr)
            return 2

    csv = run(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(csv)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

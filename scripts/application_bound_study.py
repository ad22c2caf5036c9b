#!/usr/bin/env python3
"""Measure how tight the certified block-weight threshold bound is.

For each potential magnitude M in the requested range the script certifies
the a-priori bound for the block-weight problem (weights -1, 2, -1 on
[-1, 2]) with the constant potential q ≡ q_factor * M, scans a real window
for the actual lambda_plus threshold, and reports the slack between them.
stdout carries data only; progress goes to stderr.

Example:
    python3 scripts/application_bound_study.py --m-from 0.6 --m-to 4 \
        --step 0.2 --q-factor -1
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from slindef import application_problem, certify_application, richardson_numbers
from slindef.errors import SlindefError


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(value)


def run(args: argparse.Namespace) -> str:
    rows = ["m,q0,certificate_valid,bound,lambda_plus,slack,seconds"]
    i = 0
    # point i is m_from + i * step, so rounding does not pile up along the grid
    while (m := args.m_from + i * args.step) <= args.m_to + 1e-12:
        i += 1
        q0 = args.q_factor * m
        t0 = time.monotonic()
        try:
            cert = certify_application(m, q0)
            lim = 10.5 * m + abs(q0) + args.window_pad
            rep = richardson_numbers(application_problem(q0),
                                     (-lim, lim), args.tol)
        except SlindefError as exc:
            print(f"M={m:g}: {exc}", file=sys.stderr)
            continue
        dt = time.monotonic() - t0
        slack = (None if rep.lambda_plus is None
                 else cert.bound - rep.lambda_plus)
        rows.append(",".join([
            repr(m), repr(q0), str(cert.valid).lower(), repr(cert.bound),
            _fmt(rep.lambda_plus), _fmt(slack), f"{dt:.3f}",
        ]))
        print(f"M={m:g}: valid={cert.valid} bound={cert.bound:g} "
              f"lambda_plus={rep.lambda_plus} ({dt:.2f}s)", file=sys.stderr)
    return "\n".join(rows) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m-from", type=float, default=0.6)
    parser.add_argument("--m-to", type=float, default=4.0)
    parser.add_argument("--step", type=float, default=0.2)
    parser.add_argument("--q-factor", type=float, default=0.0,
                        help="constant potential is q ≡ q_factor * M "
                             "(must keep |q| <= M)")
    parser.add_argument("--window-pad", type=float, default=40.0)
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--out", default=None,
                        help="write CSV here instead of stdout")
    args = parser.parse_args(argv)

    if abs(args.q_factor) > 1.0:
        print("q-factor must lie in [-1, 1] so that |q| <= M", file=sys.stderr)
        return 2
    if not 0.0 < args.step < math.inf:
        print(f"step must be positive and finite, got {args.step!r}",
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

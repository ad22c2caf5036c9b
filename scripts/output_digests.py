#!/usr/bin/env python3
"""Print SHA-256 digests of the library's outputs on fixed inputs, so that
two checkouts can be compared for bit-identical results.

Usage:
    python3 scripts/output_digests.py ROOT

ROOT is the checkout whose ``src/`` (the library) and ``perfbench/`` (the
benchmark's problem pools) are imported.  Five kinds of line are printed:

* ``random N HEX``: 2400 seeded random problems, constant and tabulated
  pieces, real, large and complex lambda, through the characteristic
  function, the lambda-fold, ``solution_at``, the zero walk, the weighted
  norm and ``disconjugate_on``;
* ``pointwise N HEX``: every op of the ``pointwise`` pools of seeds 1-3;
* ``scan_const SEED N HEX``: the ``richardson_numbers`` report of every op
  of the ``scan_const`` pool of seeds 1-5, in pool order;
* ``scan_tabulated N HEX``: ``find_real_eigenvalues`` on 40 seeded problems
  with tabulated and constant pieces, windows ``(-W, W)`` with ``W <= 60``,
  every third at ``refine=2``;
* ``complex_scan N HEX``: ``find_complex_eigenvalues`` on 24 seeded
  ``one_turning_point(q0)`` rectangles, above, below and across the real
  axis, with the warnings each call gives.

``N`` counts the outputs hashed; each is the ``repr`` of the result, or
the error's type and message.  The real scans honour ``SL_THREADS``, whose
outputs should not depend on it.  The ``scan_tabulated`` line does: a
Newton polish started in one worker's chunk can land on a root in the
other's, where serially it is kept beside that chunk's own copy and the
merge keeps the lower of the two, so one root's last bits change.  Digests
can differ between platforms whose maths libraries round differently.
"""

from __future__ import annotations

import hashlib
import random
import sys
import warnings
from pathlib import Path


def out(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def random_digest(lib) -> tuple[int, str]:
    from slindef import Piece, PiecewiseCoefficient, ProblemSpec

    rng, h, n = random.Random(27), hashlib.sha256(), 0
    for i in range(2400):
        x, pieces = rng.uniform(-1, 1), []
        for _ in range(rng.randint(1, 4)):
            x1, k = x + rng.uniform(0.1, 1.0), rng.randint(1, 5)
            q = rng.uniform(-20, 20) if k == 1 else tuple(
                (x + j * (x1 - x) / (k - 1) if j < k - 1 else x1,
                 rng.uniform(-20, 20))
                for j in range(k))
            pieces.append(Piece(x, x1, rng.choice((-1, 1)) * rng.uniform(0.2, 3), q))
            x = x1
        spec = ProblemSpec(PiecewiseCoefficient(tuple(pieces)),
                           rng.uniform(0, 3.1), rng.uniform(0, 3.1))
        lam = rng.uniform(-1e3, 1e3)
        if i % 3 == 1:
            lam = rng.choice((-1, 1)) * 10 ** rng.uniform(3, 6)
        elif i % 3 == 2:
            lam = complex(rng.uniform(-500, 500), rng.uniform(-50, 50))
        xs = [*spec.coeff.breakpoints,
              *(rng.uniform(spec.a, spec.b) for _ in range(3))]
        rows = [out(lib.spectrum.characteristic_scaled, spec, lam),
                out(lib.propagator._lambda_fold, spec, lam,
                    rng.uniform(spec.a, spec.b)),
                out(lib.propagator._lambda_fold, spec, lam, spec.b),
                out(lib.propagator.solution_at, spec, lam, xs)]
        if i % 3 != 2:
            c = rng.uniform(spec.a, spec.b)
            d = rng.uniform(c, spec.b)
            rows += [out(lib.spectrum._zero_walk, spec, lam, None),
                     out(lib.spectrum._zero_walk, spec, lam, []),
                     out(lib.spectrum.interior_zeros, spec, lam),
                     out(lib.propagator.weighted_norm, spec, lam),
                     out(lib.certificates.disconjugate_on, spec, lam / 100, (c, d))]
        n += len(rows)
        h.update("\n".join(rows).encode())
    return n, h.hexdigest()


def pointwise_digest(lib, workloads) -> tuple[int, str]:
    h, n = hashlib.sha256(), 0
    for seed in (1, 2, 3):
        for op in workloads["pointwise"].generate(seed):
            spec = lib.coefficients.problem_from_dict(op["problem"])
            mod = lib.richardson if op["func"] == "weighted_norm" else lib.spectrum
            h.update(out(getattr(mod, op["func"]), spec, op["lam"]).encode())
            n += 1
    return n, h.hexdigest()


def scan_const_digest(lib, workloads, seed: int) -> tuple[int, str]:
    h, n = hashlib.sha256(), 0
    for op in workloads["scan_const"].generate(seed):
        spec = lib.coefficients.problem_from_dict(op["problem"])
        h.update(out(lib.richardson.richardson_numbers, spec,
                     tuple(op["window"])).encode())
        n += 1
    return n, h.hexdigest()


def scan_tabulated_digest(lib) -> tuple[int, str]:
    from slindef import Piece, PiecewiseCoefficient, ProblemSpec

    rng, h, n = random.Random(32), hashlib.sha256(), 0
    for i in range(40):
        x, pieces = rng.uniform(-1, 1), []
        for _ in range(rng.randint(1, 3)):
            x1, k = x + rng.uniform(0.3, 1.0), rng.randint(1, 4)
            q = rng.uniform(-15, 15) if k == 1 else tuple(
                (x + j * (x1 - x) / (k - 1) if j < k - 1 else x1,
                 rng.uniform(-15, 15))
                for j in range(k))
            pieces.append(Piece(x, x1, rng.choice((-1, 1)) * rng.uniform(0.5, 2), q))
            x = x1
        spec = ProblemSpec(PiecewiseCoefficient(tuple(pieces)),
                           rng.uniform(0, 3.1), rng.uniform(0, 3.1))
        w = rng.uniform(10, 60)
        h.update(out(lib.spectrum.find_real_eigenvalues, spec, (-w, w), 1e-9,
                     2 if i % 3 == 2 else 1).encode())
        n += 1
    return n, h.hexdigest()


def complex_scan_digest(lib) -> tuple[int, str]:
    rng, h, n = random.Random(33), hashlib.sha256(), 0
    for i in range(24):
        spec = lib.coefficients.one_turning_point(rng.uniform(-15, 25))
        re, im = rng.uniform(5, 40), rng.uniform(1, 15)
        lo = (0.5, -im, -0.5 * im)[i % 3]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            text = out(lib.spectrum.find_complex_eigenvalues, spec,
                       ((-re, re), (lo, lo + im)))
        h.update("\n".join([text, *(str(w.message) for w in caught)]).encode())
        n += 1
    return n, h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_digests.py ROOT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import slindef.certificates
    import slindef.coefficients
    import slindef.propagator
    import slindef.richardson
    import slindef.spectrum
    from workloads import WORKLOADS

    lib = slindef
    print("random", *random_digest(lib), flush=True)
    print("pointwise", *pointwise_digest(lib, WORKLOADS), flush=True)
    for seed in range(1, 6):
        print("scan_const", seed, *scan_const_digest(lib, WORKLOADS, seed),
              flush=True)
    print("scan_tabulated", *scan_tabulated_digest(lib), flush=True)
    print("complex_scan", *complex_scan_digest(lib), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

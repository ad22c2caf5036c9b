"""Per-layer metrics: how the tracer's aggregates become the named metrics
of ``BENCHMARK.json``.

Every count and time is per op, averaged over a fixed prefix of the
workload's op pool, so the numbers of two commits compare the same work.
Layer names are module names.
"""

from __future__ import annotations

from tracer import COMPLEX_SCAN, REAL_SCAN, Tracer

CERTIFY = ("certificates.certify_prop3", "certificates.certify_prop4",
           "certificates.certify_prop5", "certificates.certify_application",
           "certificates.bound_one_turning_point")

# (name, unit, better); the order is the output order
PER_LAYER = [
    ("propagator.transfer_table.calls", "count", "lower"),
    ("propagator.transfer_table.self_s", "s", "lower"),
    ("propagator.rk45.calls", "count", "lower"),
    ("propagator.rk45.rhs_evals", "count", "lower"),
    ("propagator.rk45.self_s", "s", "lower"),
    ("propagator.rk45.rhs_evals_per_transfer", "ratio", "lower"),
    ("propagator.transfer_const.calls", "count", "lower"),
    ("propagator.transfer_const.self_s", "s", "lower"),
    ("propagator.cs_kernels.real_calls", "count", "lower"),
    ("propagator.cs_kernels.complex_calls", "count", "lower"),
    ("propagator.cs_kernels.self_s", "s", "lower"),
    ("propagator.norm_kernels.calls", "count", "lower"),
    ("propagator.norm_kernels.self_s", "s", "lower"),
    ("propagator.states_on_grid.calls", "count", "lower"),
    ("propagator.states_on_grid.self_s", "s", "lower"),
    ("spectrum.characteristic.real_calls", "count", "lower"),
    ("spectrum.characteristic.complex_calls", "count", "lower"),
    ("spectrum.characteristic.self_s", "s", "lower"),
    ("spectrum.count_zeros.calls", "count", "lower"),
    ("spectrum.count_zeros.self_s", "s", "lower"),
    ("spectrum.real_scan.self_s", "s", "lower"),
    ("spectrum.real_scan.d_evals_per_root", "ratio", "lower"),
    ("spectrum.real_scan.counts_per_root", "ratio", "lower"),
    ("spectrum.complex_scan.self_s", "s", "lower"),
    ("spectrum.complex_scan.d_evals_per_root", "ratio", "lower"),
    ("richardson.weighted_norm.calls", "count", "lower"),
    ("richardson.weighted_norm.self_s", "s", "lower"),
    ("richardson.richardson_numbers.self_s", "s", "lower"),
    ("richardson.zero_drift.calls", "count", "lower"),
    ("richardson.zero_drift.self_s", "s", "lower"),
    ("certificates.classify.calls", "count", "lower"),
    ("certificates.classify.self_s", "s", "lower"),
    ("certificates.certify.self_s", "s", "lower"),
    ("certificates.disconjugate_on.calls", "count", "lower"),
    ("certificates.disconjugate_on.self_s", "s", "lower"),
    ("coefficients.load_problem.self_s", "s", "lower"),
    ("cli.process_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def metrics(tr: Tracer, n_ops: int, extra: dict[str, float]) -> dict[str, float]:
    """Named per-layer values, per op; ``extra`` supplies the ``cli.*``
    and ``trace.*`` values measured outside the tracer."""
    calls, self_s = tr.calls, tr.self_s

    def n(*names: str) -> float:
        return sum(calls[x] for x in names) / n_ops

    def s(*names: str) -> float:
        return sum(self_s[x] for x in names) / n_ops

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    table = "propagator.transfer_across:table"
    const = "propagator.transfer_across:const"
    d_real = "spectrum.characteristic_scaled:real"
    d_cplx = "spectrum.characteristic_scaled:complex"
    zeros = ("spectrum.interior_zeros",)
    real_roots = calls[REAL_SCAN + ".results"]
    cplx_roots = calls[COMPLEX_SCAN + ".results"]
    values = {
        "propagator.transfer_table.calls": n(table),
        "propagator.transfer_table.self_s": s(table),
        "propagator.rk45.calls": n("propagator.rk45"),
        "propagator.rk45.rhs_evals": n("propagator.rk45.callback"),
        "propagator.rk45.self_s": s("propagator.rk45"),
        "propagator.rk45.rhs_evals_per_transfer":
            per(calls["propagator.rk45.callback"], calls[table]),
        "propagator.transfer_const.calls": n(const),
        "propagator.transfer_const.self_s": s(const),
        "propagator.cs_kernels.real_calls": n("propagator.cs_kernels:real"),
        "propagator.cs_kernels.complex_calls": n("propagator.cs_kernels:complex"),
        "propagator.cs_kernels.self_s":
            s("propagator.cs_kernels:real", "propagator.cs_kernels:complex"),
        "propagator.norm_kernels.calls": n("propagator.norm_kernels"),
        "propagator.norm_kernels.self_s": s("propagator.norm_kernels"),
        "propagator.states_on_grid.calls": n("propagator.states_on_grid"),
        "propagator.states_on_grid.self_s": s("propagator.states_on_grid"),
        "spectrum.characteristic.real_calls": n(d_real),
        "spectrum.characteristic.complex_calls": n(d_cplx),
        "spectrum.characteristic.self_s":
            s(d_real, d_cplx, "spectrum.characteristic"),
        "spectrum.count_zeros.calls": n(*zeros),
        "spectrum.count_zeros.self_s": s("spectrum.count_zeros", *zeros),
        "spectrum.real_scan.self_s": s(REAL_SCAN),
        "spectrum.real_scan.d_evals_per_root":
            per(tr.nested[REAL_SCAN, d_real], real_roots),
        "spectrum.real_scan.counts_per_root":
            per(tr.nested[REAL_SCAN, zeros[0]], real_roots),
        "spectrum.complex_scan.self_s": s(COMPLEX_SCAN),
        "spectrum.complex_scan.d_evals_per_root":
            per(tr.nested[COMPLEX_SCAN, d_cplx] + tr.nested[COMPLEX_SCAN, d_real],
                cplx_roots),
        "richardson.weighted_norm.calls": n("richardson.weighted_norm"),
        "richardson.weighted_norm.self_s": s("richardson.weighted_norm"),
        "richardson.richardson_numbers.self_s": s("richardson.richardson_numbers"),
        "richardson.zero_drift.calls": n("richardson.zero_drift"),
        "richardson.zero_drift.self_s": s("richardson.zero_drift"),
        "certificates.classify.calls": n("certificates.classify_definiteness"),
        "certificates.classify.self_s": s("certificates.classify_definiteness"),
        "certificates.certify.self_s": s(*CERTIFY),
        "certificates.disconjugate_on.calls": n("certificates.disconjugate_on"),
        "certificates.disconjugate_on.self_s": s("certificates.disconjugate_on"),
        "coefficients.load_problem.self_s": s("coefficients.load_problem"),
    }
    for name, _, _ in PER_LAYER:
        values.setdefault(name, extra.get(name, 0.0))
    return values

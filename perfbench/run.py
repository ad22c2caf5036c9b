"""slindef benchmark: one seeded workload, closed loop, one op in flight.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from its
``src/``.  With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced replay of the same ops.  Lines above it give the run record, the
failure classes and which percentile ``op_tail_ms`` is.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import closed_form as cf             # noqa: E402
import layers                        # noqa: E402
from tracer import Tracer            # noqa: E402
from workloads import WORKLOADS, Findings, two_tp     # noqa: E402

SETUP_REPEATS = 15
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# An op fails when it raises (a documented SlindefError, or any other
# exception), exits with a code outside the documented ones, returns a value
# its oracle contradicts, or omits an eigenvalue the oracle settles.  Only a
# wrong exit code or a contradicted value that is not a known defect makes a
# run incorrect; every failure is counted and left out of the latencies.
# Counts are per op of the pool, not per call: the loop repeats ops for as
# many passes as the time allows, and a count per call would vary with that.
FAIL_CLASSES = ("slindef_error", "bare_exception", "wrong_exit",
                "oracle_mismatch", "incomplete")
DOCUMENTED_EXIT = (2, 3, 4)
END_TO_END = [("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("ok_frac", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
MODULES = ("slindef", "slindef.coefficients", "slindef.propagator",
           "slindef.spectrum", "slindef.richardson", "slindef.certificates",
           "slindef.cli")


# The reference kernel: fixed closed-form evaluations from the benchmark's
# own oracle, which no change to slindef touches.  Every timed interval is
# scaled by REF_NOMINAL_S over the kernel's time measured around it, so times
# read as on a machine where the kernel takes REF_NOMINAL_S.  Shared virtual
# machines switch between speeds (up to 1.9x here, for seconds to minutes at
# a time); the kernel is pure-Python float and complex code like slindef's
# own, so it slows down with them.
#
# A child process does not slow down like in-process code: start-up, page
# faults and imports gain less than pure-Python work in a slow spell, so
# scaling ``cli_batch``'s children by the kernel made them read up to 10%
# faster in slow spells.  That workload's reference is a child of its own
# (REF_CHILD_CODE: a fresh interpreter that imports the closed form and runs
# the kernel once), which is made of the same parts as a CLI child.
REF_PROBLEM = two_tp(-1.25, 2.0, -0.75, 3.0)
REF_LAMS = (-137.5, -37.5, 12.25, 80.0, 150.5, 233.0) * 16
REF_NOMINAL_S = 1.28e-3
REF_CHILD_CODE = (f"import sys\nsys.path.insert(0, {str(HERE)!r})\n"
                  f"import closed_form as cf\np = {REF_PROBLEM!r}\n"
                  f"for lam in {REF_LAMS!r}:\n"
                  f"    cf.newton_step(p, lam)\n    cf.count_zeros(p, lam)\n")
REF_CHILD_NOMINAL_S = 40e-3


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` (to 0.1) among ``n``."""
    return -(-round(10 * p) * n // 1000)


def tail_percentile(n: int) -> float:
    """Highest percentile of the ladder whose nearest-rank sample still has
    at least 10 of ``n`` samples beyond it (50 when none has)."""
    for p in TAIL_LADDER:
        if n - rank(p, n) >= 10:
            return p
    return 50.0


def band_mean(values: list[float], p: float) -> float:
    """Percentile ``p``, estimated as the mean of the order statistics from
    percentile ``p - h`` to ``p + h``, with ``h = (100 - p) / 5`` (40th to
    60th for the median, 70th to 80th for p75): costs near a percentile of
    a mixed op pool can sit far apart, and a single sample jumps between
    them from seed to seed."""
    ordered = sorted(values)
    n, h = len(ordered), (100.0 - p) / 5.0
    lo = math.floor((p - h) / 100.0 * (n - 1))
    hi = math.ceil((p + h) / 100.0 * (n - 1))
    return statistics.fmean(ordered[lo:hi + 1])


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    for lam in REF_LAMS:
        cf.newton_step(REF_PROBLEM, lam)
        cf.count_zeros(REF_PROBLEM, lam)
    return time.perf_counter() - t0


def reference_child_s() -> float:
    """Wall time of one reference child process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REF_CHILD_CODE], cwd=ROOT,
                   capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


def reference(name: str):
    """The timing function and nominal time of reference ``name``
    (``"kernel"`` or ``"child"``)."""
    if name == "child":
        return reference_child_s, REF_CHILD_NOMINAL_S
    return reference_s, REF_NOMINAL_S


def scaled(fn, ref: str = "kernel"):
    """``fn()``, timed and scaled to the nominal speed by the reference's
    mean time just before and just after it.  Returns the result and the
    scaled and raw seconds."""
    measure, nominal = reference(ref)
    before = measure()
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    after = measure()
    return out, raw * 2.0 * nominal / (before + after), raw


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def import_library(src: Path) -> SimpleNamespace:
    """Fresh import of slindef from ``src`` (module bodies run again)."""
    for name in [m for m in sys.modules if m == "slindef" or m.startswith("slindef.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = [importlib.import_module(m) for m in MODULES]
    pkg = Path(mods[0].__file__).resolve()
    if pkg.parent != (src / "slindef").resolve():
        raise SetupError(f"slindef imported from {pkg}, not from {src}")
    lib = SimpleNamespace(modules=mods, package=mods[0])
    for m in mods[1:]:
        setattr(lib, m.__name__.split(".")[1], m)
    lib.errors = importlib.import_module("slindef.errors")
    return lib


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_record(lib, sl_threads_unset: bool) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "git_commit": git_commit(ROOT),
            "slindef_file": lib.package.__file__,
            "sl_threads_unset": sl_threads_unset}


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def execute(fn, expected_rc: int | None, lib) -> tuple[str, object]:
    try:
        out = fn()
    except lib.errors.SlindefError as exc:
        return "slindef_error", f"{type(exc).__name__}: {exc}"
    except Exception as exc:         # a bare exception is a measured outcome
        return "bare_exception", f"{type(exc).__name__}: {exc}"
    if expected_rc is not None and out[0] != expected_rc:
        if expected_rc == 0 and out[0] in DOCUMENTED_EXIT:
            return "slindef_error", out
        return "wrong_exit", out
    return "ok", out


def closed_loop(runners, rcs, lib, seconds: float, ref: str = "kernel"):
    """Passes over the pool, in order, until ``seconds`` have passed and
    the first pass is complete.  Each op is scaled like ``scaled`` does,
    with one reference measurement between consecutive ops.  Returns
    ``(op, scaled_s, status, output)`` records, and the raw time of the
    loop and of its ops."""
    measure, nominal = reference(ref)
    records, raw_ops = [], 0.0
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    before = measure()
    i = 0
    while i < len(runners) or time.perf_counter() < deadline:
        k = i % len(runners)
        i += 1
        t0 = time.perf_counter()
        status, out = execute(runners[k], rcs[k], lib)
        raw = time.perf_counter() - t0
        after = measure()
        records.append((k, raw * 2.0 * nominal / (before + after), status, out))
        raw_ops += raw
        before = after
    return records, time.perf_counter() - start, raw_ops


def fingerprint(status: str, out: object) -> str:
    return status + ":" + repr(out)


def judge(wl, ops, records, lib, workdir: Path):
    """Oracle-check the first output of every op, and every repeat against
    the first.  Returns the records with statuses updated and the findings."""
    first: dict[int, object] = {}
    for k, _, status, out in records:
        if status == "ok":
            first.setdefault(k, out)
    f = Findings()
    try:
        wl.check(ops, first, lib, workdir, f)
    except Exception as exc:         # an oracle crash must not pass silently
        f.bad.append(f"oracle raised {type(exc).__name__}: {exc}")

    def op_ids(messages: list[str]) -> set[int]:
        return {int(m.split()[1]) for m in messages if m.startswith("op ")}

    wrong, missed = op_ids(f.bad + f.known), op_ids(f.missed)
    out_records = []
    for k, lat, status, out in records:
        if status == "ok":
            if repr(out) != repr(first[k]):
                f.bad.append(f"op {k}: output differs between repeats")
                status = "oracle_mismatch"
            elif k in wrong:
                status = "oracle_mismatch"
            elif k in missed:
                status = "incomplete"
        out_records.append((k, lat, status, out))
    return out_records, f


def correctness(records, problems: list[str]) -> bool:
    """No wrong answer beyond the known defects: no unexplained oracle
    contradiction and no undocumented exit code."""
    return not problems and all(status != "wrong_exit"
                                for _, _, status, _ in records)


def failure_summary(records, f) -> dict:
    """Ops attempted and failed; an op fails, in the class of its first
    failed call, when any of its calls fails."""
    status_of: dict[int, str] = {}
    for k, _, status, _ in records:
        if status_of.get(k, "ok") == "ok":
            status_of[k] = status
    counts = {c: 0 for c in FAIL_CLASSES}
    for status in status_of.values():
        if status != "ok":
            counts[status] += 1
    attempted = len(status_of)
    failed = sum(counts.values())
    return {"attempted": attempted, "failed": failed,
            "fail_frac": failed / attempted, "classes": counts,
            "known_defect_ops": len({m.split()[1] for m in f.known})}


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def set_up(wl, seed: int, workdir: Path):
    """Import, generate, prepare and warm up, SETUP_REPEATS times; the last
    repeat's objects are used.  Returns them with the median scaled set-up
    time."""
    times, first_ops = [], None
    reference(wl.reference)[0]()         # the reference's own first-call costs

    def once():
        lib = import_library(ROOT / "src")
        ops = wl.generate(seed)
        runners = wl.prepare(ops, lib, workdir)
        wl.warm_up(lib, workdir)
        return lib, ops, runners

    for _ in range(SETUP_REPEATS):
        (lib, ops, runners), t, _ = scaled(once, wl.reference)
        times.append(t)
        if first_ops is None:
            first_ops = ops
        elif ops != first_ops:
            raise SetupError("input generation is not deterministic")
    return lib, ops, runners, statistics.median(times)


def plain_run(wl, seed, seconds, workdir):
    """The closed loop.  Each op of the pool gets the median of its scaled
    latencies over the passes; the metrics are taken over the whole pool,
    so every run of a seed measures the same inputs."""
    lib, ops, runners, setup_s = set_up(wl, seed, workdir)
    rcs = [op.get("rc") if "argv" in op else None for op in ops]
    records, wall, raw_ops = closed_loop(runners, rcs, lib, seconds,
                                         wl.reference)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if wl.name == "cli_batch"
                             else resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.path.insert(1, str(ROOT / "tests"))
    records, found = judge(wl, ops, records, lib, workdir)
    samples: dict[int, list[float]] = {}
    failed_ops = set()
    for k, lat, status, _ in records:
        samples.setdefault(k, []).append(lat)
        if status != "ok":
            failed_ops.add(k)
    per_op = {k: statistics.median(v) for k, v in samples.items()}
    basis = [per_op[k] for k in per_op if k not in failed_ops]
    summary = failure_summary(records, found)
    p_tail = tail_percentile(len(basis))
    done = sum(status == "ok" for _, _, status, _ in records)
    metrics = {
        "ops_per_s": len(basis) / sum(per_op.values()),
        "op_p50_ms": 1e3 * band_mean(basis, 50.0) if basis else math.nan,
        "op_tail_ms": 1e3 * band_mean(basis, p_tail) if basis else math.nan,
        "ok_frac": 1.0 - summary["fail_frac"],
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    notes = {"lib": lib, "problems": found.bad + found.known + found.missed,
             "roots": found.roots_summary(),
             "pool_ops": len(ops), "passes": round(len(records) / len(ops), 2),
             "raw_ops_per_s": done / wall,
             "machine_slowdown": raw_ops / sum(lat for _, lat, _, _ in records),
             "tail": f"op_tail_ms is p{p_tail:g} of the {len(basis)} completed "
                     f"ops of the pool"}
    units = dict(END_TO_END)
    out = {name: {"value": metrics[name], "unit": units[name]}
           for name, _ in END_TO_END}
    return correctness(records, found.bad), summary, out, notes


def _median_scaled(cmd: list[str], env: dict, repeats: int = 5) -> float:
    return statistics.median(
        scaled(lambda: subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                      timeout=120, check=True))[1]
        for _ in range(repeats))


def cli_layer(wl, ops, workdir, main_ms: dict[int, float]) -> tuple:
    """``cli.*`` values (scaled times): each op once as a child process
    against the untraced in-process ``cli.main`` time of the same argv, plus
    the import cost of a fresh interpreter.  Returns the values and the
    child outputs."""
    process_ms, outputs = {}, {}
    for k, op in enumerate(ops):
        outputs[k], t, _ = scaled(wl.subprocess_runner(wl.argv(op, workdir)))
        process_ms[k] = 1e3 * t
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    imp = _median_scaled([sys.executable, "-c", "import slindef.cli"], env)
    bare = _median_scaled([sys.executable, "-c", "pass"], env)
    p = statistics.median(process_ms.values())
    m = statistics.median(main_ms[k] for k in process_ms)
    return {"cli.process_ms": p, "cli.main_ms": m, "cli.startup_ms": p - m,
            "cli.import_ms": 1e3 * (imp - bare)}, outputs


def run_sequence(runners, rcs, lib, seq: list[int]):
    """One pass over ``seq``: the records, with scaled latencies, and the
    scaled total."""
    records = []
    gc.collect()
    for k in seq:
        (status, out), lat, _ = scaled(lambda: execute(runners[k], rcs[k], lib))
        records.append((k, lat, status, out))
    return records, sum(lat for _, lat, _, _ in records)


def traced_run(wl, seed, seconds, workdir):
    """The first ``wl.trace_ops`` ops of the pool, untraced and then traced,
    so the per-layer counts of two commits cover the same work.  Outputs of
    the two passes must match byte for byte."""
    lib, ops, runners, _ = set_up(wl, seed, workdir)
    rcs = [op.get("rc") if "argv" in op else None for op in ops]
    if wl.name == "cli_batch":
        runners = [wl.inprocess_runner(lib, wl.argv(op, workdir)) for op in ops]
    seq = list(range(min(wl.trace_ops, len(ops))))
    untraced, wall_u = run_sequence(runners, rcs, lib, seq)
    tr = Tracer(lib.modules)
    with tr:
        traced, wall_t = run_sequence(runners, rcs, lib, seq)
    problems = [f"traced output of op {k} differs from the untraced one"
                for (k, _, s1, o1), (_, _, s2, o2) in zip(untraced, traced)
                if fingerprint(s1, o1) != fingerprint(s2, o2)]
    extra = {"trace.overhead_frac": wall_t / wall_u - 1.0}
    sys.path.insert(1, str(ROOT / "tests"))
    judged = untraced
    if wl.name == "cli_batch":
        main_ms = {k: 1e3 * lat for k, lat, _, _ in untraced}
        cli_values, child_out = cli_layer(wl, [ops[k] for k in seq], workdir,
                                          main_ms)
        extra.update(cli_values)
        judged = [(k, 0.0, *execute(lambda o=o: o, rcs[k], lib))
                  for k, o in child_out.items()]
    judged, found = judge(wl, ops, judged, lib, workdir)
    problems += found.bad
    records = judged + traced + (untraced if wl.name == "cli_batch" else [])
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{wl.name}-seed{seed}.json.gz"
    tr.write(str(trace_path))
    values = layers.metrics(tr, len(seq), extra)
    out = {name: {"value": values[name], "unit": unit}
           for name, unit, _ in layers.PER_LAYER}
    summary = failure_summary(records, found)
    notes = {"lib": lib, "problems": problems + found.known + found.missed,
             "roots": found.roots_summary(), "traced_ops": len(seq),
             "trace_file": str(trace_path.relative_to(ROOT)),
             "spans_dropped": tr.dropped}
    return correctness(records, problems), summary, out, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the closed loop runs (at least one "
                             "pass of the pool); the traced run replays a "
                             "fixed prefix and ignores it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "slindef" / "__init__.py").is_file():
        print(f"error: no slindef sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    sl_threads_unset = "SL_THREADS" not in os.environ
    os.environ.pop("SL_THREADS", None)     # the serial default, for children too
    wl = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_out" / f"{wl.name}-seed{args.seed}"
    mode = traced_run if args.trace else plain_run
    try:
        ok, summary, metrics, notes = mode(wl, args.seed, args.seconds, workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("run record: " + json.dumps(run_record(notes.pop("lib"),
                                                 sl_threads_unset)))
    print("failures: " + json.dumps(summary))
    for p in notes.pop("problems")[:20]:
        print("problem: " + p)
    print("notes: " + json.dumps(notes))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

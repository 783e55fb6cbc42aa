#!/usr/bin/env python3
"""thermaldrift benchmark.

One run of one workload:

    python3 perfbench/run.py --workload steady-compare --seed 0 --seconds 25 --trace 0

repeats the workload's pipeline until ``--seconds`` have passed (at least
once), checks every output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it, ``detail {...}``, carries the check values, failure reasons,
CSV digests and provenance.

    python3 perfbench/run.py --report [--seeds 0,1]

runs all three workloads (``figure8`` included), untraced and traced, and
prints every end-to-end metric with its unit, the correctness gate, the
tracing overhead and every per-layer metric.  ``--self-check`` runs only the
harness self-checks, which every run also runs first.

Run from the root of a source checkout; the package is imported from its
``src/``.  Outputs go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 5
REPORT_WORKLOADS = ("steady-compare", "transition", "figure8")
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]


# ---------------------------------------------------------------------------
# statistics shared by a run and the report
# ---------------------------------------------------------------------------

def median(samples):
    """Median where a failed sample is +inf, so failures never read fast."""
    return statistics.median(samples) if samples else math.inf


def tail_percentile(samples, min_beyond=10,
                    candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """Highest nearest-rank percentile with at least ``min_beyond`` samples
    above it, as (p, value), or None when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in candidates:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= min_beyond:
            return p, ordered[rank - 1]
    return None


def finite_or_none(x):
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# provenance and digests
# ---------------------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(load_at_start):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "loadavg_start": load_at_start,
    }


def csv_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


class DigestStore:
    """First-seen CSV digests per (workload, seed, source); later runs of the
    same key must reproduce them byte for byte."""

    def __init__(self, path):
        self.path = path
        try:
            self.data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def check(self, key, digests):
        first = self.data.get(key)
        if first is None:
            self.data[key] = digests
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
            return []
        return [f"determinism: {name} differs from the first run"
                for name in sorted(set(first) | set(digests))
                if first.get(name) != digests.get(name)]


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------

def self_check():
    """Harness invariants; returns a list of broken ones."""
    from tracer import Tracer, span_self_times
    from workloads import THETA_BAND, THETA_NOMINAL, theta0_for_seed

    bad = []
    if theta0_for_seed(0) != 30.0:
        bad.append("seed 0 does not give theta0 = 30 degC")
    for seed in range(1, 50):
        th = theta0_for_seed(seed)
        if th != theta0_for_seed(seed) or \
                not THETA_NOMINAL - THETA_BAND <= th <= THETA_NOMINAL:
            bad.append(f"seed {seed} gives theta0 {th} outside the band")
            break

    if median([1.0, 2.0, math.inf]) != 2.0 or median([1.0, math.inf]) != \
            math.inf or median([math.inf] * 3) != math.inf:
        bad.append("failed runs do not count as +inf in the median")
    if tail_percentile([1.0] * 5 + [math.inf] * 15) != (50.0, math.inf):
        bad.append("failed runs do not count as +inf in the percentile")
    if tail_percentile(list(range(1, 101))) != (90.0, 90) or \
            tail_percentile([1.0] * 19) is not None:
        bad.append("tail percentile does not keep 10 samples beyond it")

    # nested calls on a clock that advances 1 per read: outer [0, 12]
    # holds inner [2, 8] and a hot leaf [9, 10]; inner holds a hot leaf
    # [4, 5] and a span [6, 7]
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    leaf = tr.hot("leaf", lambda: None)
    pure = tr.span("pure", lambda: None)

    def inner_body():
        tr.clock()
        leaf()
        pure()

    inner = tr.span("inner", inner_body)

    def outer_body():
        tr.clock()
        inner()
        leaf()
        tr.clock()

    tr.span("outer", outer_body)()
    names = [sp[0] for sp in tr.spans]
    selfs = {sp[0]: sp[5] for sp in tr.spans}
    want = {"outer": 12.0 - 6.0 - 1.0, "inner": 6.0 - 1.0 - 1.0, "pure": 1.0}
    if names != ["outer", "inner", "pure"] or selfs != want or \
            [sp[3] for sp in tr.spans] != [None, 0, 1] or \
            tr.stats["leaf"] != [2, 2.0, 2.0] or \
            tr.stats["outer"] != [1, 12.0, 5.0]:
        bad.append(f"self-time arithmetic wrong: {selfs} {tr.stats}")
    # without hot calls the interval arithmetic must agree exactly
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    a = tr.span("a", lambda: None)
    b = tr.span("b", lambda: (a(), a()))
    tr.span("c", lambda: (b(), a()))()
    if span_self_times(tr.spans) != [sp[5] for sp in tr.spans]:
        bad.append("span self times disagree with their intervals")
    return bad


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _load_package():
    """Import the package from this checkout's src/ or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import thermaldrift
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import thermaldrift from {SRC}: {exc}")
    where = Path(thermaldrift.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"perfbench: thermaldrift imported from {where}, not {SRC}")


def setup_probe(workload, seed):
    """Time, in a fresh interpreter, everything before the first timed call:
    interpreter start, imports, parameter load and seeded inputs."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


def run_workload(args, load_at_start):
    import layers
    from tracer import Patcher, Tracer
    from workloads import WORKLOADS, Captured

    setup, pipeline = WORKLOADS[args.workload]
    setup_samples = [setup_probe(args.workload, args.seed)
                     for _ in range(SETUP_PROBES)]
    inputs = setup(args.seed)
    out = WORK / "out" / args.workload
    WORK.mkdir(exist_ok=True)
    store = DigestStore(WORK / "digests.json")
    key = f"{args.workload}|seed={args.seed}|src={source_digest()[:16]}"

    captured = Captured()
    tr = Tracer() if args.trace else None
    patcher = Patcher()
    layers.install_capture(patcher, captured)
    if tr is not None:
        layers.install_trace(patcher, tr)
    samples, failures, values, digests = [], [], {}, {}
    start = time.perf_counter()
    try:
        while not samples or time.perf_counter() - start < args.seconds:
            if out.exists():
                shutil.rmtree(out)
            out.mkdir(parents=True)
            if tr is not None:
                tr.run_id = len(samples)
            captured.clear()  # free the last repeat's results first
            t0 = time.perf_counter()
            try:
                outcome = pipeline(inputs, out, captured)
                errs = list(outcome.failures)
                values = outcome.values
            except Exception as exc:  # noqa: BLE001 - a failed operation
                errs = [f"{type(exc).__name__}: {exc}"]
            elapsed = time.perf_counter() - t0
            digests = csv_digests(out)
            errs += store.check(key, digests)
            samples.append(math.inf if errs else elapsed)
            failures.append(errs)
    finally:
        patcher.restore()

    attempted = len(samples)
    failed = sum(1 for errs in failures if errs)
    wall = median(samples)
    e2e = {"wall_s": wall, "setup_s": median(setup_samples),
           "peak_rss_mib":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    detail = {
        "workload": args.workload, "seed": args.seed,
        "theta0_C": inputs["theta0"], "trace": args.trace,
        "wall_samples_s": [finite_or_none(s) for s in samples],
        "wall_tail": [(p, finite_or_none(v)) for p, v in
                      filter(None, [tail_percentile(samples)])],
        "setup_samples_s": setup_samples,
        "end_to_end": {k: finite_or_none(v) for k, v in e2e.items()},
        "values": values,
        "failed_ratio": {"failed": failed, "attempted": attempted,
                         "ratio": failed / attempted},
        "failures": sorted({e for errs in failures for e in errs}),
        "csv_digests": digests,
        "provenance": provenance(load_at_start),
    }
    if tr is not None:
        metrics = layers.layer_metrics(tr, attempted)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        detail["per_layer"] = metrics
        detail["span_counts"] = {k: v[0] for k, v in sorted(tr.stats.items())}
        (WORK / "trace").mkdir(exist_ok=True)
        trace_file = WORK / "trace" / f"{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tr.to_json()))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = e2e
        units = dict(END_TO_END)

    for errs in failures:
        for e in errs:
            print(f"FAILED {args.workload} seed {args.seed}: {e}")
    print(f"{args.workload} seed {args.seed} theta0 {inputs['theta0']} C: "
          f"{attempted - failed}/{attempted} ok, wall_s {wall:.3f}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": finite_or_none(metrics[name]),
                           "unit": units[name]} for name in units}}))


# ---------------------------------------------------------------------------
# the report over all three workloads
# ---------------------------------------------------------------------------

def _child_run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    for line in proc.stdout.splitlines():
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    raise RuntimeError(f"{workload} seed {seed}: no detail line")


def _fmt(v, unit=""):
    if v is None:
        return "inf" if unit == "s" else "n/a"
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.10g} {unit}".strip()
    if isinstance(v, float):
        v = int(v)
    return f"{v} {unit}".strip()


def report(seeds):
    import layers
    from workloads import REF_J, REF_LENGTH, REF_MAX_ABS_E

    refs = {"max_abs_e_m": REF_MAX_ABS_E, "transition_J": REF_J,
            "transition_length_m": REF_LENGTH}
    units = dict(END_TO_END, max_abs_e_m="m", transition_J="1",
                 transition_length_m="m")
    any_failed = False
    prov = None
    for workload in REPORT_WORKLOADS:
        plain = [_child_run(workload, s, 0) for s in seeds]
        traced = [_child_run(workload, s, 1) for s in seeds]
        prov = plain[0]["provenance"]
        walls = [math.inf if w is None else w
                 for d in plain for w in d["wall_samples_s"]]
        failed = sum(d["failed_ratio"]["failed"] for d in plain)
        attempted = sum(d["failed_ratio"]["attempted"] for d in plain)
        any_failed |= failed > 0
        print(f"== {workload}  seeds {','.join(map(str, seeds))}  theta0 "
              f"{', '.join(str(d['theta0_C']) for d in plain)} degC")
        tail = tail_percentile(walls)
        tail_txt = (f"p{tail[0]:g} {_fmt(finite_or_none(tail[1]), 's')}"
                    if tail else "no percentile has 10 samples beyond it")
        print(f"  wall_s        median {_fmt(finite_or_none(median(walls)), 's')}"
              f" over {len(walls)} run(s); {tail_txt}")
        for name in ("setup_s", "peak_rss_mib"):
            vals = [d["end_to_end"][name] for d in plain]
            print(f"  {name:<13} median {_fmt(median(vals), units[name])}")
        print(f"  failed_ratio  {failed}/{attempted} = {failed / attempted:.3f}")
        for name in ("max_abs_e_m", "transition_J", "transition_length_m"):
            vals = [d["values"].get(name) for d in plain]
            ref = f"  (seed-0 reference {refs[name]})" if 0 in seeds else ""
            print(f"  {name:<20} "
                  f"{', '.join(_fmt(v, units[name]) for v in vals)}{ref}")
        for d in plain:
            for e in d["failures"]:
                print(f"  FAILED seed {d['seed']}: {e}")
        t_plain = median(walls)
        t_traced = median([math.inf if w is None else w
                           for d in traced for w in d["wall_samples_s"]])
        overhead = t_traced - t_plain if math.isfinite(t_plain + t_traced) \
            else None
        spans = sum(d["per_layer"]["trace.spans"] for d in traced) / len(seeds)
        hot = sum(d["per_layer"]["trace.hot_calls"] for d in traced) / len(seeds)
        print(f"  trace overhead {_fmt(overhead, 's')} (traced minus untraced "
              f"wall_s); spans {spans:.0f}, hot calls {hot:.0f} per run")
        print("  calls per wrapped name (seed " f"{traced[0]['seed']}): "
              + ", ".join(f"{k} {v}" for k, v in
                          traced[0]["span_counts"].items()))
        print("  per-layer (traced, mean over seeds):")
        for name, unit, _ in layers.PER_LAYER:
            v = statistics.fmean(d["per_layer"][name] for d in traced)
            print(f"    {name:<28} {_fmt(v, unit)}")
    print("== provenance " + json.dumps(prov, sort_keys=True))
    print("correctness gate: " + ("FAILED (see FAILED lines)" if any_failed
                                  else "ok"))
    return 1 if any_failed else 0


# ---------------------------------------------------------------------------

def main(argv=None):
    load_at_start = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=REPORT_WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--seeds", default="0",
                    help="comma-separated seeds for --report")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # BLAS threads capped at the cores this process may use; recorded in
    # the provenance.  Must happen before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)
    _load_package()

    if args.setup_probe:
        from workloads import WORKLOADS
        import layers  # noqa: F401 - the timed run imports it too
        WORKLOADS[args.workload][0](args.seed)
        print(time.monotonic())
        return 0
    bad = self_check()
    if bad:
        print("perfbench self-check failed:\n  " + "\n  ".join(bad),
              file=sys.stderr)
        return 3
    if args.self_check:
        print("perfbench self-check ok")
        return 0
    if args.report:
        return report([int(s) for s in args.seeds.split(",")])
    if args.workload is None:
        ap.error("--workload is required")
    run_workload(args, load_at_start)
    return 0


if __name__ == "__main__":
    sys.exit(main())

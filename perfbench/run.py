"""Benchmark runner for the scopesets library.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload cli-wide --seed 1 --seconds 20 --trace 0

The runner imports the library from ``src/`` of the checkout, builds the
workload's inputs from the seed, sets up several times, measures for the given
number of seconds with one closed-loop caller, and prints a report, a run
manifest and, as the last line, one JSON object with the metrics.  With
``--trace 1`` the first half of the time runs untraced and the second half
under the span tracer; the JSON then carries the per-layer metrics and the
traced figures next to the untraced ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Fixed for the whole run so dense linear algebra times repeat; at most nproc.
BLAS_THREADS = 1
SETUP_REPEATS = 3
SETUP_PROBE_REPEATS = 20
SPAN_CAP = 50_000

STAGE_METRICS = ("stage1_p50_s", "stage2_p50_s", "stage3_p50_s")

# The figures each workload is meant to move, under their user-facing names:
# (name, unit, source metric).
NAMED = {
    "sim-harness": (("sim_reps_per_s", "reps/s", "throughput_per_s"),),
    "cli-wide": (("scope_p50_s", "s", "stage1_p50_s"),
                 ("insig_p50_s", "s", "stage2_p50_s"),
                 ("tests_p50_s", "s", "stage3_p50_s")),
    "field-loop": (("field_realizations_per_s", "1/s", "throughput_per_s"),
                   ("field_op_p90_s", "s", "op_p90_s")),
    "mc-calibrate": (("mc_oracle_p50_s", "s", "stage1_p50_s"),
                     ("bootstrap_p50_s", "s", "stage2_p50_s"),
                     ("scheffe_cdf_p50_s", "s", "stage3_p50_s")),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(NAMED))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library(root: Path):
    """Import scopesets from the checkout's src/, and from nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import scopesets

    where = Path(scopesets.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"scopesets resolved to {where}, outside {src}")
    return scopesets


def measure(workload, seconds: float, tracer=None):
    from workloads import SpeedProbe, Tally

    by_parts = {}
    for parts in workload.probe_parts.values():
        if parts not in by_parts:
            by_parts[parts] = SpeedProbe(parts, workload.probe_repeats)
    probes = {stage: by_parts[parts] for stage, parts in workload.probe_parts.items()}
    tally = Tally(workload.stages, probes, tracer)
    deadline = time.perf_counter() + seconds
    while True:
        workload.run_pass(tally)
        tally.end_pass()
        if time.perf_counter() >= deadline:
            return tally


def _p90(values):
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def summarize(tally) -> dict:
    """End-to-end figures of one phase: {name: (value, unit, samples)}."""
    busy = sum(sum(v) for v in tally.times.values())
    out = {"throughput_per_s": (tally.work / busy if busy else None, "1/s", len(tally.pass_s))}
    for metric, stage in zip(STAGE_METRICS, tally.stages):
        times = tally.times[stage]
        out[metric] = (statistics.median(times) if times else None, "s", len(times))
    out["op_p90_s"] = (_p90(tally.pass_s), "s", len(tally.pass_s))
    return out


def raw_figures(tally) -> dict:
    """Wall-clock figures before the speed rescaling, for the manifest."""
    busy = sum(sum(v) for v in tally.raw.values())
    out = {"throughput_per_s": tally.work / busy if busy else None,
           "speed_factor_p50": statistics.median(tally.factors) if tally.factors else None}
    for metric, stage in zip(STAGE_METRICS, tally.stages):
        out[metric] = statistics.median(tally.raw[stage]) if tally.raw[stage] else None
    return out


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path):
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"vendor": vendor, "threads": BLAS_THREADS}


def set_up(wl, probe):
    """Set the workload up SETUP_REPEATS times; return rescaled set-up times."""
    times = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        dt = time.perf_counter() - t
        after = probe()
        times.append(dt * 2.0 / (before + after))
        before = after
    return times


def layer_metrics(tracer, traced, e2e) -> dict:
    """Per-layer figures of the traced phase, with the tracing overhead."""
    ops = max(1, len(traced.pass_s))
    layer = tracer.metrics(ops, statistics.median(traced.factors))
    layer["cli.bytes_read"] = (traced.bytes_read / ops, "B/op")
    layer["cli.bytes_written"] = (traced.bytes_written / ops, "B/op")
    t_sum = summarize(traced)
    for name in ("throughput_per_s",) + STAGE_METRICS:
        layer[f"untraced.{name}"] = e2e[name][:2]
        layer[f"traced.{name}"] = t_sum[name][:2]
    u_rate, t_rate = e2e["throughput_per_s"][0], t_sum["throughput_per_s"][0]
    layer["trace.overhead_frac"] = (u_rate / t_rate - 1.0 if u_rate and t_rate else None,
                                    "ratio")
    return layer


def print_report(workload: str, e2e: dict, main_phase, attempted: int, failed: int) -> None:
    for name, (value, unit, n) in sorted(e2e.items()):
        if name != "op_p90_s":
            print(f"{workload:<13} {name:<26} {value!s:<22} {unit:<7} n={n}")
    for name, unit, source in NAMED[workload]:
        value, _, n = e2e[source]
        if source == "op_p90_s" and n < 100:  # fewer than ten samples beyond p90
            name, value = name.replace("p90", "p50"), statistics.median(main_phase.pass_s)
        print(f"{workload:<13} {name:<26} {value!s:<22} {unit:<7} n={n}")
    print(f"{workload:<13} {'fail_frac':<26} {failed / max(1, attempted)!s:<22} "
          f"{'ratio':<7} n={attempted}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    t0 = time.perf_counter()
    try:
        import_library(root)
    except ImportError as exc:
        print(f"perfbench: cannot import scopesets from {root / 'src'}: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy
    import workloads

    import_s = time.perf_counter() - t0
    wl_cls = workloads.WORKLOADS[args.workload]
    # import time is rescaled by the probe right after it
    probe = workloads.SpeedProbe(workloads.SpeedProbe.SETUP_PARTS, SETUP_PROBE_REPEATS)
    import_s /= probe()

    out_dir = bench_dir / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        wl = wl_cls(args.seed, str(workdir))
        setup_times = set_up(wl, probe)
        if args.trace:
            from tracer import Tracer

            untraced = measure(wl, args.seconds / 2)
            tracer = Tracer(SPAN_CAP)
            tracer.install()
            try:
                traced = measure(wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            phases = (untraced, traced)
        else:
            phases = (measure(wl, args.seconds),)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in phases)
    failed = sum(t.failed for t in phases)
    main_phase = phases[0]
    e2e = summarize(main_phase)
    e2e["setup_s"] = (import_s + statistics.median(setup_times), "s", SETUP_REPEATS)
    e2e["peak_rss_mb"] = (peak_rss_mb, "MB", 1)

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print_report(args.workload, e2e, main_phase, attempted, failed)
    for t in phases:
        for e in t.errors:
            print(f"# failure: {e}")

    if tracer is not None:
        metrics = layer_metrics(tracer, phases[1], e2e)
        for name, (value, unit) in sorted(metrics.items()):
            print(f"{args.workload:<13} {name:<48} {value!s:<22} {unit}")
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        samples = {"traced_ops": len(phases[1].pass_s), "untraced_ops": len(main_phase.pass_s),
                   "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
                   "spans_file": str(spans_path.relative_to(root))}
    else:
        metrics = {k: v[:2] for k, v in e2e.items() if k != "op_p90_s"}
        samples = {k: v[2] for k, v in e2e.items()}

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "work_unit": wl.work_unit,
        "stages": dict(zip(STAGE_METRICS, wl.stages)),
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "samples": samples,
        "missing_hooks": tracer.missing if tracer else [],
        "wall_clock": raw_figures(main_phase),
    }
    print("# manifest " + json.dumps(manifest, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""skewcalc benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pbw-products, invariants, cli-session (see bench/README.md).
One caller runs the workload's deck of jobs in a closed loop, pass after
pass, for about S seconds; every result is checked against an oracle
outside the clock. With --trace 1 the deck instead runs once, each job
traced and then untraced, to give the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("pbw-products", "invariants", "cli-session")
START_REPS = 5  # interpreter start-ups timed for the cli.* metrics
MIN_JOBS = 100  # so that at least 10 latencies lie beyond the 90th percentile
MIN_RUNS = 2
LIGHT_S = 0.1  # a job faster than this in the warm-up pass is light
LIGHT_RATIO = 1.0  # light passes get as much time as the heavy jobs
SETUP_PROBES = 5  # set-up samples per run (each of `reps` set-ups)


def _import_skewcalc():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import skewcalc  # noqa: F401


def api_setup(workload, seed):
    """Import skewcalc and build the workload's jobs (the set-up)."""
    _import_skewcalc()
    make = workloads.pbw_jobs if workload == "pbw-products" else workloads.invariants_jobs
    return make(seed)


def _child_seconds(argv, env=None):
    t0 = perf_counter()
    out = subprocess.run(argv, capture_output=True, env=env, timeout=170, check=True)
    return perf_counter() - t0, out.stdout


def setup_samples(workload, seed, env, reps):
    """Set-up time, measured in fresh interpreters."""
    samples = []
    for _ in range(reps):
        if workload == "cli-session":
            dt, _ = _child_seconds([sys.executable, "-c", "import skewcalc.cli"], env)
        else:
            _, out = _child_seconds([sys.executable, os.path.abspath(__file__),
                                     "--setup-probe", "--workload", workload,
                                     "--seed", str(seed)])
            dt = float(out.decode().split()[-1])
        samples.append(dt)
    return samples


def _run_one(job, call=lambda op: op()):
    """Prepare outside the clock, time the operation, check it against its
    oracle. Returns (passed, seconds, text)."""
    op = job.prepare()
    t0 = perf_counter()
    try:
        result = call(op)
    except Exception as exc:  # a failed operation is counted, not fatal
        return False, perf_counter() - t0, f"error:{type(exc).__name__}:{exc}"
    dt = perf_counter() - t0
    try:
        ok = bool(job.check(result))
    except Exception:  # an unexpected result shape fails its oracle
        ok = False
    return ok, dt, job.text(result)


def timed_loop(jobs, seconds, probe):
    """Run the deck in a closed loop for `seconds` and keep each job's
    fastest latency.

    This kind of shared machine switches between a fast and a slow state
    (up to 1.7x slower) that last seconds each. The fastest sample is
    steady only if a job's samples are spread over the whole run, so
    after one warm-up pass over the deck (its samples count too) the
    loop alternates between the jobs that took LIGHT_S or more, one at a
    time in rotation, and whole passes over the light jobs, giving the
    light passes LIGHT_RATIO of the heavy jobs' time. Every job runs at
    least MIN_RUNS times. `probe` runs SETUP_PROBES times, spread evenly
    over the run."""
    if len(jobs) < MIN_JOBS:
        raise SystemExit(f"deck has {len(jobs)} jobs, fewer than {MIN_JOBS}")
    n = len(jobs)
    best, passed, first, runs = [float("inf")] * n, [True] * n, [None] * n, [0] * n
    failed = 0

    def run(i):
        nonlocal failed
        ok, dt, text = _run_one(jobs[i])
        if first[i] is None:
            first[i] = text
        ok = ok and text == first[i]  # every run of a job gives one result
        best[i] = min(best[i], dt)
        passed[i] = passed[i] and ok
        runs[i] += 1
        failed += not ok
        if not ok:
            print(f"FAILED {jobs[i].label}: {text[:200]}", file=sys.stderr)
        return dt

    start = perf_counter()
    deadline = start + seconds
    probe_at = [start + k * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]

    def maybe_probe():
        if probe_at and perf_counter() >= probe_at[0]:
            probe_at.pop(0)
            probe()

    maybe_probe()
    warm = [run(i) for i in range(n)]
    light = [i for i in range(n) if warm[i] < LIGHT_S]
    heavy = [i for i in range(n) if warm[i] >= LIGHT_S]
    light_s = heavy_s = 0.0
    turn = 0
    while perf_counter() < deadline or min(runs) < MIN_RUNS:
        maybe_probe()
        if light and (not heavy or light_s < LIGHT_RATIO * heavy_s):
            light_s += sum(run(i) for i in light)
        else:
            heavy_s += run(heavy[turn % len(heavy)])
            turn += 1
    while probe_at:  # a run that ended early still takes every sample
        probe_at.pop(0)
        probe()
    h = hashlib.sha256()
    for job, text in zip(jobs, first):
        h.update(f"{job.label}={text}\n".encode())
    return {"best": best, "passed": sum(passed), "attempted": sum(runs),
            "failed": failed, "digest": h.hexdigest(), "heavy": len(heavy),
            "runs": runs, "wall_s": perf_counter() - start}


def end_to_end(loop, setup, rss_mb):
    best = loop["best"]
    return {
        "ops_per_s": (loop["passed"] / sum(best), "1/s"),
        "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(best, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cli_env():
    return dict(os.environ, PYTHONPATH=SRC)


def run_untraced(args):
    env = _cli_env()
    # set-up is sampled at times spread over the run, so its median spans it
    setup = []
    reps = 2 if args.workload == "cli-session" else 1

    def probe():
        setup.extend(setup_samples(args.workload, args.seed, env, reps))

    if args.workload == "cli-session":
        workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        try:
            session = workloads.CliSession(ROOT, workdir, in_process=False)
            jobs = workloads.cli_jobs(args.seed, session)
            loop = timed_loop(jobs, args.seconds, probe)
            rc, _ = session.call(workloads.KNOWN_DEFECT)()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        _report_defect(rc)
        rss = _rss_mb(resource.RUSAGE_CHILDREN)
    else:
        jobs = api_setup(args.workload, args.seed)
        untimed = [job for job in jobs if not job.timed]
        jobs = [job for job in jobs if job.timed]
        loop = timed_loop(jobs, args.seconds, probe)
        rss = _rss_mb(resource.RUSAGE_SELF)
        run_untimed(untimed, loop)
    metrics = end_to_end(loop, setup, rss)
    runs = loop["runs"]
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs "
          f"({loop['heavy']} heavy), {loop['attempted']} "
          f"operations, {loop['failed']} failed, {loop['wall_s']:.1f} s")
    print(f"digest {loop['digest']}")
    print(f"failed_ratio {loop['failed'] / loop['attempted']:.4f}")
    for name, (value, unit) in metrics.items():
        extra = f" (n={len(jobs)} jobs, each the fastest of {min(runs)} to " \
            f"{max(runs)} runs)" if name.startswith("op") else ""
        extra = f" (median of {len(setup)})" if name == "setup_s" else extra
        print(f"{name} {value:.6g} {unit}{extra}")
    return {"correct": loop["failed"] == 0,
            "attempted": loop["attempted"], "failed": loop["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_untimed(jobs, loop):
    """Run each job once after the timed loop, oracle-checked and counted
    in `loop`'s attempted and failed, but in no metric."""
    for job in jobs:
        ok, dt, text = _run_one(job)
        loop["attempted"] += 1
        loop["failed"] += not ok
        print(f"untimed {job.label}: {dt * 1e3:.1f} ms{'' if ok else ' FAILED'}")
        if not ok:
            print(f"FAILED {job.label}: {text[:200]}", file=sys.stderr)


def _report_defect(rc):
    if rc != 0:
        print(f"known defect: `skewcalc {' '.join(workloads.KNOWN_DEFECT)}` "
              f"exits {rc}, expected 0", file=sys.stderr)


# ---------------------------------------------------------------------------
# traced run


def run_traced(args):
    _import_skewcalc()
    import skewcalc.cli  # noqa: F401  (its entry points are traced too)
    setup_tr, tr = tracer.Tracer(), tracer.Tracer()  # set-up, operations
    workdir = None
    cli = {"interp_start_s": 0.0, "import_s": 0.0, "known_defect_failures": 0}
    setup_tr.install()
    try:
        if args.workload == "cli-session":
            workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
            session = workloads.CliSession(ROOT, workdir, in_process=True)
            jobs = workloads.cli_jobs(args.seed, session)
        else:  # the traced deck is the timed one
            jobs = [job for job in api_setup(args.workload, args.seed) if job.timed]
    finally:
        setup_tr.uninstall()
    plain_s = traced_s = 0.0
    failed = 0
    h = hashlib.sha256()
    try:
        for i, job in enumerate(jobs):
            # traced first, so the trace sees the caches a fresh session has
            tr.install()
            try:
                ok1, dt, text = _run_one(job, lambda op: tr.run_op(i, op))
            finally:
                tr.uninstall()
            traced_s += dt
            ok2, dt, _ = _run_one(job)
            plain_s += dt
            if not (ok1 and ok2):
                failed += 1
                print(f"FAILED {job.label}: {text[:200]}", file=sys.stderr)
            h.update(f"{job.label}={text}\n".encode())
        if args.workload == "cli-session":
            rc, _ = session.call(workloads.KNOWN_DEFECT)()
            _report_defect(rc)
            cli["known_defect_failures"] = int(rc != 0)
            env = _cli_env()
            start = [_child_seconds([sys.executable, "-c", "pass"], env)[0]
                     for _ in range(START_REPS)]
            imp = [_child_seconds([sys.executable, "-c", "import skewcalc.cli"], env)[0]
                   for _ in range(START_REPS)]
            cli["interp_start_s"] = statistics.median(start)
            cli["import_s"] = statistics.median(imp) - cli["interp_start_s"]
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
    tr.write_spans(spans_path)
    metrics = layer_metrics(tr, setup_tr, cli, traced_s / plain_s if plain_s else 0.0)
    print(f"workload {args.workload} seed {args.seed}: traced pass of {len(jobs)} jobs, "
          f"{failed} failed; {len(tr.spans)} spans ({tr.dropped} dropped) in {spans_path}")
    print(f"digest {h.hexdigest()}")
    layers = tr.layer_self_s()
    total = sum(layers.values()) or 1.0
    print("self time by layer: " + ", ".join(
        f"{k} {v:.3f} s ({100 * v / total:.1f}%)" for k, v in layers.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def layer_metrics(tr, setup_tr, cli, overhead):
    """Per-layer metrics of the operations; validation and family builds
    also count the set-up, where API workloads do them."""
    c, self_s, total = tr.counts, tr.self_s, tr.total_s
    layers = tr.layer_self_s()
    setup_total = setup_tr.total_s

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "scalars.ops.rational": (c["scalars.ops.rational"], "count"),
        "scalars.ops.prime": (c["scalars.ops.prime"], "count"),
        "scalars.ops.ratfunc": (c["scalars.ops.ratfunc"], "count"),
        "scalars.ops.cyclotomic": (c["scalars.ops.cyclotomic"], "count"),
        "scalars.const_calls": (c["FieldDescriptor.zero"] + c["FieldDescriptor.one"]
                                + c["FieldDescriptor.from_int"], "count"),
        "scalars.self_s": (layers["scalars"], "s"),
        "scalars.is_prime_s": (total["is_prime"], "s"),
        "presentation.nf_calls": (c["Presentation.word_normal_form"], "count"),
        "presentation.nf_self_s": (self_s["Presentation.word_normal_form"], "s"),
        "presentation.mono_pairs": (c["Presentation._mono_mul"], "count"),
        "presentation.cache_hit_ratio": (ratio(c["presentation.mono_hits"],
                                               c["Presentation._mono_mul"]), "ratio"),
        "presentation.multiply_calls": (c["Presentation.multiply"], "count"),
        "presentation.multiply_self_s": (self_s["Presentation.multiply"], "s"),
        "presentation.validate_s": (total["Presentation.validate"]
                                    + setup_total["Presentation.validate"], "s"),
        "presentation.parse_s": (total["parse_element"], "s"),
        "presentation.self_s": (layers["presentation"], "s"),
        "linalg.rref_calls": (c["rref"], "count"),
        "linalg.rref_self_s": (self_s["rref"], "s"),
        "linalg.cells": (c["linalg.cells"], "count"),
        "linalg.nonzero_ratio": (ratio(c["linalg.nonzero"], c["linalg.cells"]), "ratio"),
        "linalg.span_add_calls": (c["SpanBasis.add"], "count"),
        "linalg.span_grew_ratio": (ratio(c["linalg.span_grew"], c["SpanBasis.add"]), "ratio"),
        "linalg.span_self_s": (self_s["SpanBasis.add"] + self_s["SpanBasis.reduce"]
                               + self_s["SpanBasis.contains"], "s"),
        "linalg.self_s": (layers["linalg"], "s"),
        "families.build_s": (total["build"] + setup_total["build"], "s"),
        "invariants.center_s": (total["center_bounded"], "s"),
        "invariants.growth_s": (total["growth_dims"], "s"),
        "invariants.self_s": (layers["invariants"], "s"),
        "divisor.closure_calls": (c["divisor_closure"], "count"),
        "divisor.rounds": (c["divisor.rounds"], "count"),
        "divisor.self_s": (layers["divisor"], "s"),
        "divisor.subwords_per_nullspace": (ratio(c["divisor.subwords"],
                                                 c["nullspace@divisor"]), "ratio"),
        "cancel.decompose_s": (total["local_decomposition"], "s"),
        "cancel.self_s": (layers["cancel"], "s"),
        "cli.interp_start_s": (cli["interp_start_s"], "s"),
        "cli.import_s": (cli["import_s"], "s"),
        "cli.parse_file_s": (total["parse_algebra_file"], "s"),
        "cli.emit_s": (total["emit_report"], "s"),
        "cli.report_bytes": (c["cli.report_bytes"], "bytes"),
        "cli.self_s": (layers["cli"], "s"),
        "cli.known_defect_failures": (cli["known_defect_failures"], "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skewcalc", "__init__.py")):
        print(f"error: no skewcalc sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        t0 = perf_counter()
        api_setup(args.workload, args.seed)
        print(perf_counter() - t0)
        return 0
    os.makedirs(OUT, exist_ok=True)
    result = run_traced(args) if args.trace else run_untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""mezofit benchmark: matched-budget training and a mid-scale step loop, each
with samples of the verify battery's inner loop, timed from outside the
package.

Run from the repository root:

    python3 perfbench/run.py --workload train-matched --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload step-mid --seed 0 --seconds 45 --trace 1

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
PROBE_REPEATS = 9
TAIL_BEYOND = 10
LOW_PERCENTILE = 1
# verify.check_quadratic_unbiasedness is sampled in batches of this many
# directions (a few ms each), after every job, for this share of the run
VERIFY_DIRECTIONS = 50
VERIFY_SHARE = 0.1


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_blas_threads() -> int:
    """Fix the BLAS thread count before numpy is first imported. One thread:
    a step then runs on one core, and its time depends neither on how many
    cores the host gives nor on how busy a second one is."""
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("train-matched", "step-mid"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup_probe(args) -> float:
    """Wall time of a fresh process that imports the package and builds the
    workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def low(samples: list[float]) -> float:
    """The LOW_PERCENTILE-th percentile: the sample with that share of the
    samples below it (the smallest, with fewer than 100 samples). On a shared
    host whose cores alternate between a fast state and one up to twice as
    slow, the low percentile of samples spread over a run reads the fast
    state; a median or a mean follows the mix of the two, which changes from
    run to run."""
    s = sorted(samples)
    return s[len(s) * LOW_PERCENTILE // 100]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile). With too few samples, the maximum."""
    s = sorted(samples)
    k = len(s)
    if k <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[k - TAIL_BEYOND - 1], 100.0 * (k - TAIL_BEYOND) / k


def _median_time(fn, repeats: int = PROBE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _env_line(threads: int) -> str:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env blas_threads={threads} nproc={_nproc()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')}")


def run(args, threads: int) -> int:
    clock = time.perf_counter
    # The first probe fills the bytecode cache and is not counted; the others
    # are spread evenly over the run.
    _setup_probe(args)
    setup_s = []

    from mezofit import verify, zo
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer() if args.trace else None
    jobs, traced_jobs = [], []
    direction_us = []  # per-direction time of each untraced verify batch
    verify_busy = 0.0

    def verify_batch(traced: bool) -> float:
        check = lambda: verify.check_quadratic_unbiasedness(directions=VERIFY_DIRECTIONS)
        t0 = clock()
        if traced:
            with tracer.installed(tracer.verify_targets()):
                tracer.run(spans.VERIFY_BATCH_SPAN, check)
        else:
            check()
        busy = clock() - t0
        if not traced:
            direction_us.append(1e6 * busy / VERIFY_DIRECTIONS)
        return busy

    wl.warm()
    verify_batch(traced=False)
    direction_us.clear()
    # Each job, with the samples and probes after it, runs on the next core
    # in turn. The cores of a shared host slow down at different times, so a
    # run samples each of them and its low percentiles read the fastest.
    cores = sorted(os.sched_getaffinity(0))
    t_start = clock()
    while True:
        os.sched_setaffinity(0, {cores[(len(jobs) + len(traced_jobs)) % len(cores)]})
        traced = tracer is not None and len(jobs) > len(traced_jobs)
        if traced:
            with tracer.installed(tracer.layer_targets()):
                traced_jobs.append(wl.job(lambda fn, *a: tracer.run(wl.job_span, fn, *a)))
        else:
            jobs.append(wl.job(lambda fn, *a: fn(*a)))
        while verify_busy < VERIFY_SHARE * (clock() - t_start):
            verify_busy += verify_batch(traced)
        elapsed = clock() - t_start
        if len(setup_s) < SETUP_REPEATS * min(1.0, elapsed / args.seconds):
            setup_s.append(_setup_probe(args))
        # stop where the run ends closest to --seconds
        elapsed = clock() - t_start
        per_round = elapsed / (len(jobs) + len(traced_jobs))
        enough = len(jobs) >= 2 and (tracer is None or traced_jobs)
        if enough and elapsed + per_round / 2 >= args.seconds:
            break
    os.sched_setaffinity(0, cores)
    while len(setup_s) < SETUP_REPEATS:
        setup_s.append(_setup_probe(args))

    memory = wl.memory_pass()
    restored = workloads.restore_check(args.seed)
    checks, battery_s = [], None
    if wl.runs_verify_battery:
        t0 = clock()
        checks = verify.run_verification()
        battery_s = clock() - t0

    all_jobs = jobs + traced_jobs
    correctness = dict(wl.check(all_jobs))
    if wl.runs_verify_battery:
        correctness["verify_checks_pass"] = all(c.passed for c in checks)
    correctness["restore_bitwise_at_mid_p"] = restored
    attempted = sum(j.attempted for j in all_jobs) + len(checks) + 1
    failed = (sum(j.failed for j in all_jobs) + sum(not c.passed for c in checks)
              + (not restored))

    lines = [_env_line(threads)]
    lines.append(f"workload {args.workload} seed={args.seed} jobs={len(jobs)} "
                 f"traced_jobs={len(traced_jobs)} verify_batches={len(direction_us)} "
                 f"run_s={clock() - t_start:.1f}")
    e2e = {}

    def put(name, value, unit, detail=""):
        e2e[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<24} {value!r} {unit}" + (f"  ({detail})" if detail else ""))

    put("setup_s", statistics.median(setup_s), "s",
        f"median of {len(setup_s)} fresh processes spread over the run")
    for method in ("mezo", "bp"):
        samples = [v for j in jobs for v in getattr(j, f"{method}_ms")]
        value, pct = tail(samples)
        put(f"{method}_step_ms.p{LOW_PERCENTILE}", low(samples), "ms",
            f"{len(samples)} samples; median {statistics.median(samples):.4g} ms, "
            f"tail p{pct:.2f} {value:.4g} ms")
    put("mezo_peak_bytes", memory["mezo_peak_bytes"], "B", "tracemalloc peak of one step")
    put("bp_peak_bytes", memory["bp_peak_bytes"], "B", "tracemalloc peak of one step")
    put(f"verify_direction_us.p{LOW_PERCENTILE}", low(direction_us), "us",
        f"{len(direction_us)} batches of {VERIFY_DIRECTIONS} directions; "
        f"median {statistics.median(direction_us):.4g} us")
    # throughput over the whole run: printed, not metrics (see README)
    lines.append(f"train_s {statistics.fmean(j.wall_s for j in jobs)!r} s  "
                 f"(mean wall of {len(jobs)} untraced jobs)")
    for method in ("mezo", "bp"):
        steps = sum(j.steps[method] for j in jobs)
        seconds = sum(j.step_s[method] for j in jobs)
        lines.append(f"{method}_steps_per_s {steps / seconds!r} 1/s  "
                     f"({steps} steps in {seconds:.2f} s)")
    if battery_s is not None:
        lines.append(f"verify battery: one run_verification() in {battery_s:.2f} s")
    for c in checks:
        lines.append(f"verify.{c.name} {'PASS' if c.passed else 'FAIL'}: {c.detail}")
    for key in ("mezo_best_acc", "bp_best_acc", "csv_sha256"):
        values = sorted({j.notes[key] for j in all_jobs if key in j.notes})
        if values:
            lines.append(f"{key} {' '.join(map(repr, values))}")
    lines.append(f"fail_frac {failed}/{attempted} = {failed / attempted!r} "
                 "(failed train runs + non-finite steps + failed checks / "
                 "train runs + steps + verify checks + restore check)")

    metrics = e2e
    if tracer is not None:
        layer, residual = spans.layer_metrics(tracer.spans, wl.job_span)
        correctness["mezo_spans_accounted"] = (
            residual < 1e-6 and layer["zo.loss_evals_per_step"] == 2 * wl.directions)
        layer["zo.regen_ms"] = 1e3 * _median_time(
            lambda: sum(1 for _ in zo.iter_noise_chunks(
                zo.PerturbationSeed(args.seed, 0), wl.noise_length)))
        layer["memory.mezo_peak_over_analytic_acts"] = (
            memory["mezo_peak_bytes"] / memory["mezo_analytic_acts"])
        layer["memory.bp_peak_over_analytic_acts"] = (
            memory["bp_peak_bytes"] / memory["bp_analytic_acts"])
        layer["configfile.parse_ms"] = 1e3 * _median_time(wl.parse)
        layer["trace.overhead"] = (statistics.median(j.wall_s for j in traced_jobs)
                                   / statistics.median(j.wall_s for j in jobs))
        metrics = {}
        for name, unit in spans.LAYER_UNITS.items():
            metrics[name] = {"value": layer[name], "unit": unit}
            lines.append(f"{name:<36} {layer[name]!r} {unit}")
        lines.append(f"mezo_step accounting: max |span - (loss_fn + gaps)| = {residual!r} s; "
                     f"analytic activations at 8 B/element: mezo {memory['mezo_analytic_acts']!r} B, "
                     f"bp {memory['bp_analytic_acts']!r} B")
        out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(out)
        lines.append(f"spans written to {out.relative_to(ROOT)} ({len(tracer.spans)} spans)")

    for name, ok in correctness.items():
        lines.append(f"check {name} {'ok' if ok else 'FAILED'}")
    print("\n".join(lines))
    print(json.dumps({"correct": all(correctness.values()), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mezofit" / "__init__.py").is_file():
        print(f"perfbench: no mezofit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads = _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads
        workloads.WORKLOADS[args.workload](args.seed)
        return 0
    return run(args, threads)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner: runs one workload from a seed and checks every job.

    python3 perfbench/run.py --workload kernel-routes --seed 1 --seconds 10 --trace 0

Run from the repository root. The library is imported from `src/` next to
this directory; without it the script exits 2 and prints no result.

Every job starts with the library's caches cleared, as a fresh CLI process
would find them, so a job costs the same wherever and however often it runs;
the one exception is a job marked as continuing the previous job's session.
The first round runs every job once. Later rounds rerun the fresh jobs that
took under REPEAT_UNDER_S, at least MIN_ROUNDS rounds in all and more until
`--seconds` have elapsed; every run of a job is checked. Everything runs in
this one process on one Python thread.

Timings take each job's median run. The host's virtual CPUs change speed by
up to about 1.4x, sometimes within seconds and sometimes for minutes, so a
single run of a short job is a sample of one moment; its median over runs
spread across the whole run is not. Jobs above REPEAT_UNDER_S span many
seconds themselves and run once. `wall_s` sums the jobs' median times;
`job_p50_s` and `job_tail_s` rank them.

With `--trace 0` the result carries the end-to-end metrics. With `--trace 1`
the untraced rounds are followed by one traced pass over every job; the
result carries the per-layer metrics of the traced pass and
`trace.overhead_s` (traced wall minus the untraced wall), and the run
is correct only if every run of a job produced byte-identical outputs.

The last line of standard output is the JSON result. `failed` counts jobs
that failed without a documented parent defect (see workloads.py); jobs
failing on a documented defect are listed above it and counted in fail_ratio.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# One BLAS thread unless the caller sets one: with two cores shared with
# other work, a second BLAS thread stalls on the busy core and timings jump.
# The setting in force is part of the environment record.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# job_tail_s takes the highest of these percentiles that leaves at least
# TAIL_BEYOND jobs of one pass above it
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
# set-up probes are spread evenly over `--seconds`, between jobs, so their
# median does not rest on one moment of the host's speed
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120.0
# jobs faster than this repeat in later rounds; no job of any workload takes
# between 5 and 20 s, so the split does not hang on the host's speed
REPEAT_UNDER_S = 10.0
MIN_ROUNDS = 3
# Gauss-rule build times ROADMAP quotes for scipy 1.17.1 on 2 cores; it timed
# roots_legendre, while abel-r1 builds roots_jacobi rules of these sizes
ROADMAP_RULE_S = {16384: 8.9, 32768: 34.8}


def tail_percentile(n_jobs: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND of n jobs beyond it.

    It is fixed by the workload's job count, so a faster program that fits
    more rounds into the run reports the same percentile."""
    best = None
    for p in TAIL_LADDER:
        if n_jobs - math.ceil(p / 100.0 * n_jobs) >= TAIL_BEYOND:
            best = p
    return best


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    k = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[k - 1]


# ---- one job, one pass --------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    name: str
    seconds: float
    ok: bool
    known: str | None
    error: str | None = None
    value: float | None = None
    bound: float | None = None
    digest: str = ""


def digest(obj) -> str:
    """Hash of a job output's exact bytes (floats and arrays bit for bit)."""
    import numpy as np

    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(f"nd{o.dtype}{o.shape}".encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, (float, np.floating)):
            h.update(b"f" + float(o).hex().encode())
        elif isinstance(o, (bool, int, str, np.integer, np.bool_)) or o is None:
            h.update(f"{type(o).__name__}:{o!r}".encode())
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for v in o:
                feed(v)
            h.update(b"]")
        elif isinstance(o, dict):
            for k in sorted(o):
                h.update(str(k).encode())
                feed(o[k])
        elif dataclasses.is_dataclass(o):
            h.update(type(o).__name__.encode())
            for f in dataclasses.fields(o):
                v = getattr(o, f.name)
                if not callable(v):
                    feed(v)
        else:
            raise TypeError(f"no digest for {type(o).__name__}")

    feed(obj)
    return h.hexdigest()


def run_job(job, package, tracer=None, job_id: int = 0) -> Outcome:
    if job.fresh:
        clear_caches(package)
    scope = tracer.job_span(job_id, job.name) if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            out = job.run()
    except Exception as exc:  # a failing job is recorded, never fatal
        seconds = time.perf_counter() - t0
        return Outcome(job.name, seconds, False, job.known, error=type(exc).__name__,
                       digest=digest(f"{type(exc).__name__}: {exc}"))
    seconds = time.perf_counter() - t0
    o = Outcome(job.name, seconds, False, job.known, digest=digest(out))
    try:
        chk = job.check(out)
    except Exception as exc:
        o.error = f"check raised {type(exc).__name__}"
        return o
    o.ok, o.value, o.bound = bool(chk.ok), chk.value, chk.bound
    return o


def clear_caches(package) -> None:
    """Empty every lru cache and module-level cache dict of the library."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith(package.__name__ + "."):
            continue
        for attr, val in list(vars(mod).items()):
            # a traced run's wrapper keeps the cached function as __wrapped__
            cached = val if hasattr(val, "cache_clear") else getattr(val, "__wrapped__", None)
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
            elif attr.endswith("_cache") and isinstance(val, dict):
                val.clear()


def run_pass(jobs, package, tracer=None, which=None, before_job=lambda: None) -> list[Outcome]:
    """One run of each job (of the indices in `which`, or all), in order;
    `before_job` runs untimed before each."""
    gc.collect()
    which = range(len(jobs)) if which is None else which
    outcomes = []
    for i in which:
        before_job()
        outcomes.append(run_job(jobs[i], package, tracer, i))
    return outcomes


def run_rounds(jobs, package, seconds: float, before_job=lambda: None) -> list[list[Outcome]]:
    """Every run of each job: the first round runs all jobs, later rounds the
    fresh ones under REPEAT_UNDER_S, at least MIN_ROUNDS rounds and more
    until `seconds` have elapsed. `before_job` runs untimed before each job."""
    deadline = time.perf_counter() + seconds
    runs = [[o] for o in run_pass(jobs, package, before_job=before_job)]
    short = [i for i, r in enumerate(runs) if r[0].seconds < REPEAT_UNDER_S and jobs[i].fresh]
    rounds = 1
    while short and (rounds < MIN_ROUNDS or time.perf_counter() < deadline):
        for i, o in zip(short, run_pass(jobs, package, which=short, before_job=before_job)):
            runs[i].append(o)
        rounds += 1
    return runs


def job_times(runs) -> list[float]:
    """Each job's median time over its runs."""
    return [statistics.median(o.seconds for o in r) for r in runs]


# ---- environment record -----------------------------------------------------


def git_commit() -> str:
    """HEAD from .git files; a checkout that is not a git repo has none."""
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
    return "unavailable (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = {k: os.environ.get(k, "unset") for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        blas["library"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas["library"] = "unknown"
    blas["note"] = "OpenBLAS uses nproc threads when OPENBLAS_NUM_THREADS is unset"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": git_commit(),
        "seed": seed,
    }


# ---- metrics ------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the library and generates
    this workload's inputs, then exits: the set-up a user's process pays."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
    # a wait with a timeout polls every 50 ms and would round the time up to
    # that step; a blocking wait returns at exit, and a timer kills a hang
    killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        status = proc.wait()
    finally:
        killer.cancel()
    seconds = time.perf_counter() - t0
    if status != 0:
        raise subprocess.CalledProcessError(status, argv)
    return seconds


def end_to_end(runs, setup_times) -> tuple[dict, dict]:
    outcomes = [o for r in runs for o in r]
    times = job_times(runs)
    pct = tail_percentile(len(times))
    if pct is None:
        tail, pct_label = max(times), "max (fewer than 20 jobs)"
    else:
        tail, pct_label = nearest_rank(times, pct), f"p{pct:g}"
    beyond = sum(1 for t in times if t > tail)
    failed = sum(1 for o in outcomes if not o.ok)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(times), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "fail_ratio": (failed / len(outcomes), "ratio"),
        "tail": f"{pct_label} of {len(times)} jobs' median runs, {beyond} beyond",
    }
    return metrics, extra


def report(workload, seed, runs, metrics, extra, env) -> None:
    counts = [len(r) for r in runs]
    print(f"workload {workload} seed {seed}: {len(runs)} jobs, "
          f"{min(counts)} to {max(counts)} runs each")
    for name, (value, unit) in metrics.items():
        note = f"  ({extra['tail']})" if name == "job_tail_s" else ""
        print(f"  {name:<12} {value:.6g} {unit}{note}")
    value, unit = extra["fail_ratio"]
    print(f"  {'fail_ratio':<12} {value:.6g} {unit}  (known parent defects included)")
    for r in runs:
        o = next((o for o in r if not o.ok), None)
        if o is None:
            continue
        what = o.error or f"check value {o.value:.6g} vs bound {o.bound}"
        tag = f"known: {o.known}" if o.known else "UNEXPECTED"
        print(f"  FAIL {o.name}: {what} [{tag}]")
    print("env " + json.dumps(env, sort_keys=True))


def result_line(runs, metrics, correct=True) -> str:
    outcomes = [o for r in runs for o in r]
    unexpected = sum(1 for o in outcomes if not o.ok and o.known is None)
    return json.dumps({
        "correct": bool(correct and unexpected == 0),
        "attempted": len(outcomes),
        "failed": unexpected,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# ---- main ---------------------------------------------------------------------


def load_library():
    if not (SRC / "jacobi_watson" / "__init__.py").is_file():
        raise FileNotFoundError(f"library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import jacobi_watson

    if Path(jacobi_watson.__file__).resolve().parent != SRC / "jacobi_watson":
        raise ImportError(f"imported {jacobi_watson.__file__}, not the checkout's copy")
    return jacobi_watson


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        package = load_library()
        sys.path.insert(0, str(HERE))
        import workloads
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.GENERATORS:
        print(f"perfbench: unknown workload {args.workload!r}; have {tuple(workloads.GENERATORS)}",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        run_cli = workloads.CliRunner(tmp)
        jobs = workloads.GENERATORS[args.workload](args.seed, run_cli)
        if args.setup_probe:
            return 0
        env = environment(args.seed)
        if args.trace:
            return traced_run(args, package, jobs, env)
        setup_times = []
        start = time.perf_counter()

        def probe(force=False):
            due = start + len(setup_times) * args.seconds / SETUP_PROBES
            if len(setup_times) < SETUP_PROBES and (force or time.perf_counter() >= due):
                setup_times.append(setup_probe(args.workload, args.seed))

        runs = run_rounds(jobs, package, args.seconds, probe)
        while len(setup_times) < SETUP_PROBES:
            probe(force=True)
        metrics, extra = end_to_end(runs, setup_times)
        report(args.workload, args.seed, runs, metrics, extra, env)
        print(result_line(runs, metrics))
    return 0


def traced_run(args, package, jobs, env) -> int:
    import spans as tr

    runs = run_rounds(jobs, package, args.seconds)
    untraced_wall = sum(job_times(runs))
    tracer = tr.Tracer()
    tracer.install(package)
    try:
        traced = run_pass(jobs, package, tracer)
    finally:
        tracer.uninstall()
    mismatched = [t.name for t, r in zip(traced, runs) if any(o.digest != t.digest for o in r)]
    metrics = layer_metrics(tracer.spans, untraced_wall, traced, mismatched)
    print(f"workload {args.workload} seed {args.seed}: traced pass of {len(jobs)} jobs, "
          f"untraced wall {untraced_wall:.6g} s (sum of median runs), "
          f"traced wall {_wall(traced):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    for name in mismatched:
        print(f"  OUTPUT MISMATCH {name}: traced and untraced outputs differ")
    for s in tr.rule_builds(tracer.spans):
        n = s.attrs["n"]
        note = ""
        if n in ROADMAP_RULE_S:
            ratio = s.duration / ROADMAP_RULE_S[n]
            verdict = "within" if abs(ratio - 1.0) <= 0.2 else "OUTSIDE"
            note = f"  ({ratio:.2f}x ROADMAP's {ROADMAP_RULE_S[n]} s, {verdict} +-20%)"
        if n >= 4096:
            print(f"  rule build {s.name} n={n} exponents={s.attrs['exponents']}: "
                  f"{s.duration:.3f} s{note}")
    print("env " + json.dumps(env, sort_keys=True))
    print(result_line([r + [t] for r, t in zip(runs, traced)], metrics,
                      correct=not mismatched))
    return 0


def _wall(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def layer_metrics(span_list, untraced_wall, traced, mismatched) -> dict:
    """Per-layer metrics of the traced pass, with tracing cost and failures."""
    import spans as tr

    layer = tr.aggregate(span_list)
    layer["trace.overhead_s"] = _wall(traced) - untraced_wall
    layer["trace.output_mismatches"] = len(mismatched)
    failed = [o for o in traced if not o.ok]
    layer["jobs.fail_ratio"] = len(failed) / len(traced)
    layer["jobs.known_failed"] = sum(1 for o in failed if o.known)
    for cls in ("ConvergenceError", "RegionError"):
        layer[f"jobs.fail.{cls}"] = sum(1 for o in failed if o.error == cls)
    layer["jobs.fail.check"] = sum(1 for o in failed if o.error is None)
    return {k: (v, unit_of(k)) for k, v in layer.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)

"""Run one retta benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,online,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; retta is imported from `src/` there,
never from an installed copy.  With `--trace 0` the workload runs untraced
for about S seconds and the end-to-end metrics are reported, every time
rescaled to a reference host speed by probe loops run around each call.  With
`--trace 1` it runs untraced for about S/2 seconds, then makes one traced
pass and reports the per-layer metrics, the tracing overhead and the
cached-vs-recompute timing of `analysis.bench_cache`.  The last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it print every metric by name and unit.
Artifacts (the `cli` dataset and runs, span dumps, result files) go under
`.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before anything imports numpy: the benchmark
# drives retta from one thread, and a 2-core host should never hold more
# runnable threads than it has cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns as clock  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# the probe loop's length, and its time on the reference host: a 2 GHz Xeon
# vCPU with no neighbour contending for the core
PROBE_ITERATIONS = 700
PROBE_REF_NS = 5_000_000
# the host's speed flips within a second, so a gap between two timed calls
# holds at least this many probes, and probes for at least this share of
# the call before it: a long call is set against the host speed of the
# seconds around it, not of two instants
MIN_GAP_PROBES = 2
PROBE_SHARE = 0.1
BENCH_CACHE_REPEATS = 3
BENCH_CACHE_QUERIES = 200

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import metrics, tracing, workloads  # noqa: E402


def import_retta():
    """Import retta from this checkout's `src/`, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "retta" / "__init__.py").is_file():
        raise SystemExit(f"error: no retta sources under {src}")
    sys.path.insert(0, str(src))
    import retta
    import retta.cli  # noqa: F401  (the cli module is not imported by the package)

    if Path(retta.__file__).resolve().parent != (src / "retta").resolve():
        raise SystemExit(f"error: imported retta from {retta.__file__}, not {src}")
    return retta


def git_commit() -> str | None:
    """The checked-out commit, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(retta) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "retta": retta.__version__,
        "git_commit": git_commit(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def probe_ns() -> int:
    """Wall time of a fixed loop of small numpy ops: the host-speed yardstick.

    Like retta, the loop spends its time in Python calls on 16-dimensional
    arrays, so its time moves with the host's speed and with nothing in
    retta.  The garbage collector is off while it runs, so the size of the
    heap retta leaves behind does not lengthen it.
    """
    v = np.linspace(-1.0, 1.0, 16)
    m = np.outer(v, v) + np.eye(16)
    acc = 0.0
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        for i in range(PROBE_ITERATIONS):
            w = m @ v
            e = np.exp(w - w.max())
            acc += float(e.sum()) / (1.0 + i)
            v = w / np.linalg.norm(w)
        return clock() - t0
    finally:
        if collecting:
            gc.enable()


def probe_gap(previous_call_ns: float) -> float:
    """Mean probe time over one gap between timed calls."""
    times = []
    while len(times) < MIN_GAP_PROBES or sum(times) < PROBE_SHARE * previous_call_ns:
        times.append(probe_ns())
    return sum(times) / len(times)


def at_reference_speed(elapsed_ns, before_ns: float, after_ns: float):
    """Rescale a wall time to the host speed at which the probe takes PROBE_REF_NS.

    `before_ns` and `after_ns` are the mean probes of the gaps either side.
    """
    return elapsed_ns * 2 * PROBE_REF_NS / (before_ns + after_ns)


def measure(workload, seconds: float, tracer=None) -> dict:
    """Call the workload's calls round-robin, closed loop, for about `seconds`.

    Every call runs at least once; after that a call starts only if the
    timed calls are expected to stay within `seconds`.  Probes fill the gap
    before and after every call, and each call's time (and each labelling
    wait inside it) is rescaled to the reference host speed by the mean
    probes of those two gaps.
    Outputs are checked between calls, outside the timed region and the
    budget.  A call that raises fails all its samples.
    """
    calls = workload.calls()
    stats = {"attempted": 0, "failed": 0,
             "times_ns": {c.method: [] for c in calls},
             "raw_ns": {c.method: [] for c in calls},
             "latencies_ns": {c.method: [] for c in calls},
             "samples": {c.method: c.samples for c in calls},
             "gap_probe_ns": [probe_gap(0)]}
    budget_ns = seconds * 1e9
    spent_ns = 0
    made = 0
    while True:
        call = calls[made % len(calls)]
        error = None
        with tracer.installed(workload.retta) if tracer else nullcontext():
            t0 = clock()
            try:
                result, latencies = call.fn()
            except Exception as exc:  # a failing call is counted, not fatal
                error = exc
            elapsed = clock() - t0
        before, after = stats["gap_probe_ns"][-1], probe_gap(elapsed)
        stats["gap_probe_ns"].append(after)
        made += 1
        spent_ns += elapsed
        stats["attempted"] += call.samples
        if error is not None:
            print(f"call {call.method} raised {error!r}", file=sys.stderr)
            stats["failed"] += call.samples
        else:
            stats["raw_ns"][call.method].append(elapsed)
            stats["times_ns"][call.method].append(at_reference_speed(elapsed, before, after))
            if latencies is not None:
                stats["latencies_ns"][call.method].append(
                    at_reference_speed(np.asarray(latencies, dtype=np.float64), before, after))
            stats["failed"] += workload.check(call.method, result)
        if made >= len(calls):
            upcoming = stats["raw_ns"][calls[made % len(calls)].method]
            expected = sum(upcoming) / len(upcoming) if upcoming else 0
            if spent_ns + expected > budget_ns:
                stats["rounds"] = made // len(calls)
                return stats


def samples_per_s(stats, key: str = "times_ns") -> float:
    """Samples of one pass over the seconds its calls take, each a median."""
    times = stats[key]
    done = [m for m, t in times.items() if t]
    if not done:
        return 0.0
    seconds = sum(float(np.median(times[m])) for m in done) / 1e9
    return sum(stats["samples"][m] for m in done) / seconds


def end_to_end(workload, stats, setup_s: float) -> dict[str, float]:
    lat = workload.latencies_us(stats["times_ns"], stats["latencies_ns"], stats["samples"])
    return {
        "setup_s": setup_s,
        "samples_per_s": samples_per_s(stats),
        "sample_latency_us_p50": float(np.percentile(lat, 50)),
        "sample_latency_us_p99": float(np.percentile(lat, 99)),
        "macro_accuracy": workload.macro_accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def bench_cache(retta, seed: int, stats: dict) -> dict[str, float]:
    """`analysis.bench_cache` at the criterion-10 config (C*k = 50), medians of 3.

    bench_cache asserts that the cached and recomputing engines agree on
    every query before it times them; a disagreement fails the queries.
    """
    stream = retta.datagen.StreamConfig(num_classes=5, num_domains=3, dim=16,
                                        samples_per_domain=300, seed=seed)
    samples, bank = retta.datagen.generate(stream)
    cfg = retta.adapter.AdapterConfig(capacity_per_class=120, retrieve_k=10, beta=5.0,
                                      lr=1e-2, batch_size=100, seed=seed)
    runs = []
    for _ in range(BENCH_CACHE_REPEATS):
        stats["attempted"] += BENCH_CACHE_QUERIES
        try:
            runs.append(retta.analysis.bench_cache(samples, cfg, bank,
                                                   num_queries=BENCH_CACHE_QUERIES))
        except AssertionError as exc:
            print(f"bench_cache failed: {exc}", file=sys.stderr)
            stats["failed"] += BENCH_CACHE_QUERIES
    return {f"adapter.{key}": float(np.median([r[key] for r in runs])) if runs else 0.0
            for key in ("cached_ns_per_sample", "naive_ns_per_sample")}


def timed_setup(workload, repeats: int) -> float:
    """Median seconds of `repeats` set-ups, each at the reference host speed."""
    times = []
    before = probe_gap(0)
    for _ in range(repeats):
        t0 = clock()
        workload.setup()
        elapsed = clock() - t0
        after = probe_gap(elapsed)
        times.append(at_reference_speed(elapsed, before, after) / 1e9)
        before = after
    return float(np.median(times))


def traced(workload, retta, seconds: float, out_dir: Path) -> tuple[dict, dict, list]:
    """Untraced run of `seconds`, then one traced set-up and one traced pass."""
    untraced = measure(workload, seconds)
    setup_tracer = tracing.Tracer()
    with setup_tracer.installed(retta):
        workload.setup()
    tracer = tracing.Tracer()
    stats = measure(workload, 0, tracer=tracer)
    summary = tracing.summarize(tracer.spans)
    samples = sum(stats["samples"][m] * len(t) for m, t in stats["times_ns"].items())
    values = metrics.layer_metrics(summary, tracer.counts, samples, stats["rounds"],
                                   tracing.summarize(setup_tracer.spans))
    values["trace.samples_per_s_overhead"] = samples_per_s(untraced) - samples_per_s(stats)
    tracer.dump(out_dir / "spans.jsonl")
    for stat in ("attempted", "failed"):
        stats[stat] += untraced[stat]
    return values, stats, self_time_table(summary)


def self_time_table(summary: dict) -> list[str]:
    root = summary[""]["total_ns"] or 1
    rows = sorted(((name, r) for name, r in summary.items() if name),
                  key=lambda item: -item[1]["self_ns"])
    lines = [f"{'span':34s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s} {'self_share':>10s}"]
    for name, r in rows:
        lines.append(f"{name:34s} {r['calls']:9d} {r['total_ns'] / 1e9:9.4f} "
                     f"{r['self_ns'] / 1e9:9.4f} {r['self_ns'] / root:10.4f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    retta = import_retta()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload '{args.workload}' "
                     f"(choose from {', '.join(workloads.WORKLOADS)})")
    out_dir = OUT_DIR / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](retta, args.seed, out_dir)

    env = environment(retta)
    setup_s = timed_setup(workload, SETUP_REPEATS)
    if args.trace:
        values, stats, table = traced(workload, retta, args.seconds / 2, out_dir)
        values.update(bench_cache(retta, args.seed, stats))
        catalogue = metrics.PER_LAYER
    else:
        stats = measure(workload, args.seconds)
        values = end_to_end(workload, stats, setup_s)
        table = []
        catalogue = metrics.END_TO_END

    attempted, failed = stats["attempted"], stats["failed"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in catalogue},
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"rounds {stats['rounds']}")
    print("env " + json.dumps(env, sort_keys=True))
    for method, times in stats["raw_ns"].items():
        if times:
            print(f"call {method}: {len(times)} calls, median wall "
                  f"{statistics.median(times) / 1e9:.4f} s, at reference speed "
                  f"{statistics.median(stats['times_ns'][method]) / 1e9:.4f} s")
    print(f"host speed {PROBE_REF_NS / statistics.median(stats['gap_probe_ns']):.4f} of reference "
          f"(median over {len(stats['gap_probe_ns'])} gaps); unscaled samples_per_s "
          f"{samples_per_s(stats, 'raw_ns'):.6g}")
    for line in table:
        print(line)
    for m in catalogue:
        moves = f"  (moves {m.moves})" if m.moves else ""
        print(f"{m.name} {values[m.name]:.6g} {m.unit}{moves}")
    print(f"failed_share {failed / attempted:.6g} share ({failed} of {attempted} samples)")
    with open(out_dir / f"result-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "env": env, "rounds": stats["rounds"],
                   "call_times_ns": stats["times_ns"], "call_wall_ns": stats["raw_ns"],
                   "gap_probe_ns": stats["gap_probe_ns"], "failed_share": failed / attempted,
                   **result}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

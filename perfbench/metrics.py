"""The benchmark's metric catalogue: name, unit, direction and what it should move.

`END_TO_END` is what `--trace 0` reports and `PER_LAYER` what `--trace 1`
reports; BENCHMARK.json lists the same names and units.  For each per-layer
metric, `moves` names the end-to-end metric and workloads a change in that
layer should move, written down before any optimisation is measured.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("samples_per_s", "1/s", "higher"),
    Metric("sample_latency_us_p50", "us", "lower"),
    Metric("sample_latency_us_p99", "us", "lower"),
    Metric("macro_accuracy", "share", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)

_ENGINE = "samples_per_s on sweep (every engine variant and entmin), slightly on online; not cli"
_MEMORY = "samples_per_s and both latency percentiles on online, samples_per_s on sweep; not cli"
_ADAPTER = "samples_per_s on sweep and online"
_CLI = "samples_per_s on cli only"

PER_LAYER = (
    Metric("model.posterior_evals_per_sample", "count", "lower", _ENGINE),
    Metric("model.batch_grads.ns_per_sample", "ns", "lower", _ENGINE),
    Metric("model.predict.ns_per_call", "ns", "lower", _ENGINE),
    Metric("memory.retrieve.ns_per_call", "ns", "lower", _MEMORY),
    Metric("memory.retrieve.self_share", "share", "lower", _MEMORY),
    Metric("memory.entries_scanned_per_query", "count", "lower", _MEMORY),
    Metric("memory.insert.ns_per_call", "ns", "lower", _MEMORY),
    Metric("memory.sample_uniform.ns_per_call", "ns", "lower", _MEMORY),
    Metric("memory.weigh.ns_per_call", "ns", "lower", _MEMORY),
    Metric("adapter.process_batch.ns_per_sample", "ns", "lower", _ADAPTER),
    Metric("adapter.adapt_and_predict.self_ns", "ns", "lower", _ADAPTER),
    Metric("adapter.aggregate.ns_per_call", "ns", "lower", _ADAPTER),
    Metric("adapter.signsgd_step.ns_per_call", "ns", "lower", _ADAPTER),
    Metric("adapter.run_entropy_baseline.ns_per_sample", "ns", "lower", _ADAPTER),
    Metric("adapter.run_zero_shot.ns_per_sample", "ns", "lower", _ADAPTER),
    Metric("adapter.support_size_mean", "count", "higher", _ADAPTER),
    Metric("adapter.zero_shot_fallbacks", "count", "lower", _ADAPTER),
    Metric("adapter.cached_ns_per_sample", "ns", "lower",
           "none directly: the paper's cached-vs-recompute figure at C*k=50"),
    Metric("adapter.naive_ns_per_sample", "ns", "lower",
           "none directly: the recompute reference the cached figure is read against"),
    Metric("datagen.load_jsonl.s", "s", "lower", _CLI),
    Metric("datagen.generate.s", "s", "lower", "setup_s on every workload"),
    Metric("analysis.similarity_bins.s", "s", "lower", _CLI),
    Metric("analysis.similarity_bins.calls", "count", "lower", _CLI),
    Metric("analysis.evaluate.s", "s", "lower", _CLI),
    Metric("analysis.write_report_files.s", "s", "lower", _CLI),
    Metric("cli.run.self_s", "s", "lower", _CLI),
    Metric("cli.analyze.self_s", "s", "lower", _CLI),
    Metric("trace.samples_per_s_overhead", "1/s", "lower",
           "none: untraced minus traced samples_per_s on the same workload"),
)


def layer_metrics(summary: dict, counts: dict, samples: int, passes: int,
                  setup_summary: dict) -> dict[str, float]:
    """Derive the per-layer values from one traced phase.

    `summary` and `counts` come from the traced timed phase, which made
    `passes` whole passes over the workload and classified `samples` samples;
    `setup_summary` from one traced set-up.  A layer the workload never
    reaches reads 0.
    """

    def row(name):
        return summary.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(name):
        r = row(name)
        return ratio(r["total_ns"], r["calls"])

    def per_sample(name):
        return ratio(row(name)["total_ns"], counts.get(name + ".samples", 0))

    def seconds(name):
        return row(name)["total_ns"] / 1e9 / passes

    def self_seconds(name):
        return row(name)["self_ns"] / 1e9 / passes

    queries = row("memory.retrieve")["calls"] + row("memory.sample_uniform")["calls"]
    adapted = row("adapter.adapt_and_predict")["calls"]
    return {
        "model.posterior_evals_per_sample": ratio(
            row("model.predict")["calls"] + row("model.sample_grad")["calls"], samples),
        "model.batch_grads.ns_per_sample": per_sample("model.batch_grads"),
        "model.predict.ns_per_call": per_call("model.predict"),
        "memory.retrieve.ns_per_call": per_call("memory.retrieve"),
        "memory.retrieve.self_share": ratio(row("memory.retrieve")["self_ns"],
                                            row("")["total_ns"]),
        "memory.entries_scanned_per_query": ratio(
            counts.get("memory.entries_scanned", 0), queries),
        "memory.insert.ns_per_call": per_call("memory.insert"),
        "memory.sample_uniform.ns_per_call": per_call("memory.sample_uniform"),
        "memory.weigh.ns_per_call": per_call("memory.weigh"),
        "adapter.process_batch.ns_per_sample": per_sample("adapter.process_batch"),
        "adapter.adapt_and_predict.self_ns": ratio(
            row("adapter.adapt_and_predict")["self_ns"], adapted),
        "adapter.aggregate.ns_per_call": per_call("adapter.aggregate"),
        "adapter.signsgd_step.ns_per_call": per_call("adapter.signsgd_step"),
        "adapter.run_entropy_baseline.ns_per_sample": per_sample("adapter.run_entropy_baseline"),
        "adapter.run_zero_shot.ns_per_sample": per_sample("adapter.run_zero_shot"),
        "adapter.support_size_mean": ratio(counts.get("adapter.support_size", 0), adapted),
        "adapter.zero_shot_fallbacks": counts.get("adapter.zero_shot_fallbacks", 0) / passes,
        "datagen.load_jsonl.s": seconds("datagen.load_jsonl"),
        "datagen.generate.s": setup_summary.get("datagen.generate", {}).get(
            "total_ns", 0) / 1e9,
        "analysis.similarity_bins.s": seconds("analysis.similarity_bins"),
        "analysis.similarity_bins.calls": row("analysis.similarity_bins")["calls"] / passes,
        "analysis.evaluate.s": seconds("analysis.evaluate"),
        "analysis.write_report_files.s": seconds("analysis.write_report_files"),
        "cli.run.self_s": self_seconds("cli.run"),
        "cli.analyze.self_s": self_seconds("cli.analyze"),
    }

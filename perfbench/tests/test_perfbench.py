"""The benchmark's own tests, on a 100-sample stream so they run in seconds.

Run from the repository root: python -m pytest perfbench/tests
"""

import json
import math
from dataclasses import replace

import pytest

import retta
import retta.cli  # noqa: F401
from perfbench import run, tracing, workloads
from perfbench.metrics import END_TO_END, PER_LAYER

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    """Shrink the reference stream, send artifacts to tmp_path, one bench_cache run."""

    def tiny_config(seed=0, ordering="mixed"):
        return retta.datagen.StreamConfig(num_classes=4, num_domains=4, dim=16,
                                          samples_per_domain=25, ordering=ordering,
                                          seed=seed)

    monkeypatch.setattr(retta.datagen, "reference_stream_config", tiny_config)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "BENCH_CACHE_REPEATS", 1)


def run_bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines


def test_catalogue_matches_benchmark_json():
    for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]]
        assert listed == [(m.name, m.unit, m.better) for m in catalogue]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(capsys, workload, trace):
    result, lines = run_bench(capsys, workload, trace)
    catalogue = PER_LAYER if trace else END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m.name for m in catalogue]
    for m in catalogue:
        entry = result["metrics"][m.name]
        assert entry["unit"] == m.unit
        assert math.isfinite(entry["value"])
        assert any(line.startswith(f"{m.name} ") and f" {m.unit}" in line for line in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("failed_share 0 ") for line in lines)
    if not trace:
        assert all(result["metrics"][m.name]["value"] > 0 for m in END_TO_END)


def wrong_reference(retta_mod, samples, cfg, bank):
    """An oracle that shifts every label by one class."""
    outcomes = retta_mod.adapter.run_stream(samples, cfg, bank, recompute_grads=True)
    shifted = []
    for o in outcomes:
        label = (o.prediction.pseudo_label + 1) % bank.num_classes
        shifted.append(replace(o, prediction=replace(o.prediction, pseudo_label=label)))
    return shifted


@pytest.mark.parametrize("workload", ["sweep", "online"])
def test_wrong_oracle_makes_failed_share_nonzero(capsys, monkeypatch, workload):
    monkeypatch.setattr(workloads, "engine_reference", wrong_reference)
    result, lines = run_bench(capsys, workload, 0)
    assert not result["correct"]
    assert result["failed"] > 0
    share = next(float(line.split()[1]) for line in lines if line.startswith("failed_share "))
    assert share == result["failed"] / result["attempted"] > 0


def test_raising_call_counts_its_samples_as_failed(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken engine")

    monkeypatch.setattr(retta.adapter, "run_zero_shot", broken)
    result, _ = run_bench(capsys, "sweep", 0)
    assert result["failed"] == 100 and not result["correct"]


def wrapped_points():
    out = {}
    for module, path, *_ in tracing.WRAP_POINTS:
        owner, attr = tracing._owner(retta, module, path)
        out[(module, path)] = vars(owner)[attr]
    return out


def test_wrappers_restore_the_original_functions():
    before = wrapped_points()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(retta):
            during = wrapped_points()
            assert all(during[key] is not before[key] for key in before)
            raise RuntimeError("leave the block early")
    after = wrapped_points()
    assert all(after[key] is before[key] for key in before)


def test_self_time_never_exceeds_duration():
    samples, bank = retta.datagen.generate(retta.datagen.reference_stream_config(0))
    cfg = retta.adapter.reference_adapter_config(0)
    tracer = tracing.Tracer()
    with tracer.installed(retta):
        retta.adapter.run_stream(samples, cfg, bank)
        retta.adapter.run_entropy_baseline(samples, cfg, bank)
    assert tracer.spans
    for span, self_ns in zip(tracer.spans, tracing.self_times(tracer.spans)):
        assert 0 <= self_ns <= span[2] - span[1]
    # adapter binds predict and sample_grad at import: calls through it count too
    summary = tracing.summarize(tracer.spans)
    evals = summary["model.predict"]["calls"] + summary["model.sample_grad"]["calls"]
    assert evals == 2 * 4 * len(samples)


def test_self_time_subtracts_only_covered_parts():
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 30, 0, 0],
        ["b", 20, 50, 0, 0],   # overlaps a: 10..50 covered once
        ["c", 90, 120, 0, 0],  # runs past the root's end: 90..100 counts
        ["leaf", 12, 18, 1, 0],
    ]
    assert tracing.self_times(spans) == [100 - 40 - 10, 14, 30, 30, 6]


def test_times_are_rescaled_by_the_probes_around_them():
    ref = run.PROBE_REF_NS
    assert run.at_reference_speed(1000.0, ref, ref) == 1000.0
    # a host twice as slow as the reference: the call counts half its wall time
    assert run.at_reference_speed(1000.0, 2 * ref, 2 * ref) == 500.0
    assert run.at_reference_speed(1000.0, ref, 3 * ref) == 500.0


def test_online_latencies_cover_every_sample_once(monkeypatch, tmp_path):
    workload = workloads.Online(retta, 0, tmp_path)
    workload.setup()
    stats = run.measure(workload, 0)
    assert stats["failed"] == 0 and stats["rounds"] == 1
    lat = workload.latencies_us(stats["times_ns"], stats["latencies_ns"], stats["samples"])
    assert lat.shape == (len(workload.samples),) and (lat > 0).all()


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.import_retta()
    assert exc.value.code not in (0, None)

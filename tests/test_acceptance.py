"""Acceptance suite: every repository-level claim at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`
to see them).  Trend margins are frozen against the reference benchmark
(datagen.reference_stream_config + adapter.reference_adapter_config, seeds
0..4) and regression-tested here.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np
import pytest

import retta
from retta.adapter import (
    ablation_config,
    aggregate,
    process_batch,
    reference_adapter_config,
    run_entropy_baseline,
    run_stream,
    run_zero_shot,
    signsgd_step,
    weigh,
)
from retta.analysis import (
    bench_cache,
    bias_gradient_check,
    evaluate,
    reflect_across_text_bisector,
    similarity_bins,
    verify_feature_importance,
)
from retta.datagen import StreamConfig, generate, order_stream, reference_stream_config
from retta.memory import ClassMemory
from retta.model import (
    AffineParams,
    TextBank,
    finite_diff_grad,
    forward,
    predict,
    sample_grad,
)

VARIANTS = ("full", "no-pb", "no-dc", "no-pb-dc", "no-entw", "no-simw")
SEEDS = (0, 1, 2, 3, 4)


class _Criterion:
    def __init__(self, num, name):
        self.num = num
        self.name = name
        self.detail = ""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.num:>2} ({self.name}): {status} "
              f"{self.detail} [{elapsed:.1f}s]")
        return False


@pytest.fixture(scope="module")
def reference_sweep():
    """All engine variants plus baselines over the frozen benchmark seeds."""
    sweep = {
        "acc": {v: [] for v in VARIANTS},
        "entmin": [],
        "zero_shot": [],
        "seq_gap": [],
        "seed0": {},
        "crit6_runtime": None,
    }
    for seed in SEEDS:
        samples, bank = generate(reference_stream_config(seed=seed))
        cfg = reference_adapter_config(seed=seed)
        t0 = time.perf_counter()
        for var in VARIANTS:
            outcomes = run_stream(samples, ablation_config(cfg, var), bank)
            report = evaluate(samples, outcomes)
            sweep["acc"][var].append(report.macro_average)
            if var == "full" and seed == 0:
                sweep["seed0"]["composition_diag"] = float(
                    np.mean(np.diag(report.composition_matrix))
                )
        em = evaluate(samples, run_entropy_baseline(samples, cfg, bank)).macro_average
        sweep["entmin"].append(em)
        zs = evaluate(samples, run_zero_shot(samples, bank)).macro_average
        sweep["zero_shot"].append(zs)
        sequential = order_stream(samples, "sequential", seed)
        seq_acc = evaluate(sequential, run_stream(sequential, cfg, bank)).macro_average
        sweep["seq_gap"].append(abs(sweep["acc"]["full"][-1] - seq_acc))
        if seed == 0:
            # criterion 6's own workload: full mixed + entmin mixed + full sequential
            sweep["crit6_runtime"] = time.perf_counter() - t0
            sweep["seed0"]["bins"] = similarity_bins(samples, seed=seed)
    return sweep


def test_criterion_1_gradient_exactness():
    with _Criterion(1, "gradient exactness vs finite differences") as c:
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(100):
            C = int(rng.integers(2, 11))
            d = int(rng.integers(2, 33))
            emb = rng.standard_normal((C, d))
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
            bank = TextBank(emb, float(rng.uniform(0.0, np.log(10.0))),
                            [f"c{i}" for i in range(C)])
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            params = AffineParams(rng.uniform(0.5, 1.5, d), rng.uniform(-0.3, 0.3, d))
            exact = sample_grad(v, params, bank)
            fd = finite_diff_grad(v, params, bank, step=1e-5)
            num = np.linalg.norm(np.concatenate(
                [exact.d_weight - fd.d_weight, exact.d_bias - fd.d_bias]))
            den = np.linalg.norm(np.concatenate([exact.d_weight, exact.d_bias]))
            worst = max(worst, num / den)
        elapsed = time.perf_counter() - t0
        c.detail = f"max rel err {worst:.2e} < 1e-6 over 100 draws"
        assert worst < 1e-6
        assert elapsed < 5.0


def test_criterion_2_cache_equivalence():
    with _Criterion(2, "cached aggregation equals gradient recomputation") as c:
        t0 = time.perf_counter()
        cfg = reference_stream_config(seed=0)
        from dataclasses import replace

        samples, bank = generate(replace(cfg, samples_per_domain=250))
        assert len(samples) == 1000
        acfg = reference_adapter_config(seed=0)
        cached = run_stream(samples, acfg, bank, recompute_grads=False)
        naive = run_stream(samples, acfg, bank, recompute_grads=True)
        worst = 0.0
        for a, b in zip(cached, naive):
            gap = float(np.max(np.abs(a.prediction.logits - b.prediction.logits)))
            scale = max(float(np.max(np.abs(b.prediction.logits))), 1e-300)
            worst = max(worst, gap / scale)
        elapsed = time.perf_counter() - t0
        c.detail = f"max logit rel err {worst:.2e} < 1e-12 over 1000 samples"
        assert worst < 1e-12
        assert elapsed < 30.0


def test_criterion_3_importance_prediction_exactness():
    with _Criterion(3, "closed-form importance shift is exact") as c:
        t0 = time.perf_counter()
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(4, 17))
            emb = rng.standard_normal((2, d))
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
            bank = TextBank(emb, float(rng.uniform(0.0, np.log(5.0))), ["c0", "c1"])
            feats = rng.standard_normal((int(rng.integers(4, 33)), d))
            feats /= np.linalg.norm(feats, axis=1, keepdims=True)
            eta = float(rng.uniform(1e-5, 1e-3))
            check = verify_feature_importance(list(feats), bank, eta=eta)
            worst = max(worst, check.max_abs_gap)
        # axis-aligned supports: diagonal simplification must agree exactly
        worst_diag = 0.0
        for _ in range(20):
            d = 6
            emb = rng.standard_normal((2, d))
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
            bank = TextBank(emb, 0.5, ["c0", "c1"])
            feats = []
            for _ in range(24):
                v = np.zeros(d)
                v[int(rng.integers(d))] = 1.0 if rng.random() < 0.5 else -1.0
                feats.append(v)
            check = verify_feature_importance(feats, bank, eta=1e-3)
            worst_diag = max(worst_diag, check.diag_only_gap, check.max_abs_gap)
        elapsed = time.perf_counter() - t0
        c.detail = (f"max gap {worst:.2e} (100 seeds), diagonal gap {worst_diag:.2e}, "
                    f"both < 1e-12")
        assert worst < 1e-12
        assert worst_diag < 1e-12
        assert elapsed < 10.0


def test_criterion_4_signsgd_weight_scale_invariance():
    with _Criterion(4, "scaling raw weights never changes a prediction") as c:
        samples, bank = generate(reference_stream_config(seed=0))
        cfg = reference_adapter_config(seed=0)
        mem = ClassMemory(bank.num_classes, cfg.capacity_per_class)
        rng = np.random.default_rng(cfg.seed)
        for start in range(0, 1000, cfg.batch_size):
            process_batch(samples[start : start + cfg.batch_size], mem, cfg, bank, rng=rng)
        params0 = AffineParams.pretrained(bank.dim)
        scales = (2.0**-20, 0.5, 2.0, 1024.0, 3.0, 7.3e5, 1e-6)
        checked = 0
        for q in samples[1000:1200]:
            z = forward(q.feature, params0)
            support = mem.retrieve(z, cfg.retrieve_k)
            raw, weights = weigh(support, z, cfg.beta)
            base = predict(
                forward(q.feature, signsgd_step(params0, aggregate(support, weights), cfg.lr)),
                bank,
            )
            for scale in scales:
                w = scale * raw
                pred = predict(
                    forward(q.feature,
                            signsgd_step(params0, aggregate(support, w / w.sum()), cfg.lr)),
                    bank,
                )
                np.testing.assert_array_equal(pred.logits, base.logits)
                assert pred.pseudo_label == base.pseudo_label
                checked += 1
        c.detail = f"{checked} scaled predictions bitwise identical"


def test_criterion_5_retrieval_matches_brute_force():
    with _Criterion(5, "top-k retrieval equals per-class scan oracle") as c:
        rng = np.random.default_rng(105)
        trials = 0
        for _ in range(1000):
            C = int(rng.integers(2, 6))
            K = int(rng.integers(2, 41))
            split = bool(rng.integers(2))
            d = int(rng.integers(2, 9))
            mem = ClassMemory(num_classes=C, capacity_per_class=K, split=split)
            # the test's own FIFO replay of (arrival number, z) per queue, oldest first
            replay = [deque(maxlen=K if split else C * K) for _ in range(C if split else 1)]
            n = int(rng.integers(0, 100))
            pool = [rng.standard_normal(d) for _ in range(max(n // 3, 1))]
            pool = [v / np.linalg.norm(v) for v in pool]
            for i in range(n):
                z = pool[int(rng.integers(len(pool)))]  # duplicates force ties
                label = int(rng.integers(C))
                # row i carries entropy float(i), a payload retrieval never reads
                mem.insert(z, np.zeros(d), float(i), pseudo_label=label)
                replay[label if split else 0].append((i, z))
            if rng.random() < 0.5:
                query = pool[int(rng.integers(len(pool)))]
            else:
                query = rng.standard_normal(d)
                query /= np.linalg.norm(query)
            k = int(rng.integers(1, 8))
            support = mem.retrieve(query, k)
            got = support["entropy"].tolist() if support else []
            budget = k if split else C * k
            expected = []
            for q in replay:
                if not q:
                    continue
                # stacked oldest first, the gemv shape of `select`; ties to the newer entry
                sims = np.stack([z for _, z in q]) @ query
                ranked = sorted(range(len(q)), key=lambda j: (-sims[j], -j))
                expected.extend(float(q[j][0]) for j in ranked[:budget])
            assert got == expected
            trials += 1
        c.detail = f"{trials} random (memory, query, k) trials incl. tie cases"


def test_criterion_6_mixed_domain_trend(reference_sweep):
    with _Criterion(6, "beats online entropy minimization under mixing") as c:
        full = np.array(reference_sweep["acc"]["full"])
        entmin = np.array(reference_sweep["entmin"])
        margins = full - entmin
        seq_gaps = np.array(reference_sweep["seq_gap"])
        c.detail = (f"margin over EntMin {margins.mean():+.4f} "
                    f"(per-seed min {margins.min():+.4f}, frozen floor 0.15); "
                    f"max |mixed-sequential| {seq_gaps.max()*100:.2f}pp <= 2pp; "
                    f"crit-6 runs took {reference_sweep['crit6_runtime']:.0f}s")
        assert np.all(margins > 0.0)
        # frozen after the first reference run: measured +0.22..+0.33
        assert margins.mean() >= 0.15
        assert np.all(seq_gaps <= 0.02)
        assert reference_sweep["crit6_runtime"] < 120.0


def test_criterion_7_ablation_ordering(reference_sweep):
    with _Criterion(7, "full engine >= every ablation (5-seed mean)") as c:
        full = np.array(reference_sweep["acc"]["full"])
        details = []
        for variant in VARIANTS[1:]:
            margin = float(np.mean(full - np.array(reference_sweep["acc"][variant])))
            details.append(f"{variant}:{margin:+.4f}")
            assert margin >= 0.0, f"full < {variant} by {margin:+.4f} on 5-seed mean"
        c.detail = " ".join(details)


def test_criterion_8_composition_diagonal(reference_sweep):
    with _Criterion(8, "retrieval prefers the query's own domain") as c:
        diag = reference_sweep["seed0"]["composition_diag"]
        c.detail = f"mean diagonal {diag:.1f}% >= 50% (2x the uniform 25%)"
        assert diag >= 50.0


def test_criterion_9_similarity_bins(reference_sweep):
    with _Criterion(9, "same-domain ratio falls across similarity deciles") as c:
        bins = reference_sweep["seed0"]["bins"]
        inversions = [max(0.0, bins[i + 1] - bins[i]) for i in range(9)]
        count = sum(1 for v in inversions if v > 1e-12)
        c.detail = (f"bins {bins[0]:.2f}..{bins[-1]:.2f}, "
                    f"{count} inversion(s), max {max(inversions)*100:.2f}pp")
        assert count <= 1
        assert max(inversions) <= 0.01


def test_criterion_10_cache_speedup():
    with _Criterion(10, "cached engine vs naive recomputation timing") as c:
        scfg = StreamConfig(num_classes=5, num_domains=3, dim=16,
                            samples_per_domain=300, seed=0)
        samples, bank = generate(scfg)

        def best_of_three(k):
            cfg = retta.AdapterConfig(capacity_per_class=120, retrieve_k=k, beta=5.0,
                                      lr=1e-2, batch_size=100, seed=0)
            best = None
            for _ in range(3):
                t = bench_cache(samples, cfg, bank, num_queries=200)
                best = t if best is None else {key: min(best[key], t[key]) for key in t}
            return best

        t10 = best_of_three(10)  # C*k = 50
        t20 = best_of_three(20)
        ratio = t10["naive_ns_per_sample"] / t10["cached_ns_per_sample"]
        naive_slope = t20["naive_ns_per_sample"] / t10["naive_ns_per_sample"]
        cached_change = abs(t20["cached_ns_per_sample"] / t10["cached_ns_per_sample"] - 1.0)
        c.detail = (f"naive/cached {ratio:.1f}x >= 5x at C*k=50; doubling k: naive "
                    f"{naive_slope:.2f}x >= 1.5x, cached change {cached_change*100:.0f}% < 20%")
        assert ratio >= 5.0
        assert naive_slope >= 1.5
        assert cached_change < 0.20


def test_criterion_10_cached_path_makes_no_gradient_calls(monkeypatch):
    with _Criterion(10, "cached engine makes no per-entry gradient calls") as c:
        scfg = StreamConfig(num_classes=5, num_domains=3, dim=16,
                            samples_per_domain=300, seed=0)
        samples, bank = generate(scfg)
        cfg = retta.AdapterConfig(capacity_per_class=120, retrieve_k=10, beta=5.0,
                                  lr=1e-2, batch_size=100, seed=0)
        calls = {"sample_grad": 0, "batch_grads": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (retta.model, retta.adapter):
            monkeypatch.setattr(module, "sample_grad", counted("sample_grad", module.sample_grad))
        monkeypatch.setattr(retta.adapter, "batch_grads",
                            counted("batch_grads", retta.adapter.batch_grads))
        cached = run_stream(samples, cfg, bank)
        cached_calls = dict(calls)
        # the counter does see the recomputing engine: one call per support entry
        calls.update(sample_grad=0, batch_grads=0)
        naive = run_stream(samples[:200], cfg, bank, recompute_grads=True)
        entries = sum(o.support_size for o in cached)
        c.detail = (f"cached: {cached_calls['sample_grad']} sample_grad calls for {entries} "
                    f"support entries, {cached_calls['batch_grads']} batch_grads calls for "
                    f"{len(samples) // cfg.batch_size} batches")
        assert entries > 0
        assert cached_calls["sample_grad"] == 0
        assert cached_calls["batch_grads"] == len(samples) // cfg.batch_size
        assert calls["sample_grad"] == sum(o.support_size for o in naive)


def test_criterion_10b_singleton_support_parity():
    with _Criterion(10, "degenerate single-entry support timing parity") as c:
        scfg = StreamConfig(num_classes=2, num_domains=2, dim=12,
                            samples_per_domain=30, seed=0)
        samples, bank = generate(scfg)
        cfg = retta.AdapterConfig(capacity_per_class=1, retrieve_k=1, beta=5.0,
                                  lr=1e-2, batch_size=10, seed=0)
        best = None
        for _ in range(3):
            t = bench_cache(samples, cfg, bank, num_queries=60)
            best = t if best is None else {key: min(best[key], t[key]) for key in t}
        ratio = best["naive_ns_per_sample"] / best["cached_ns_per_sample"]
        c.detail = f"support<=2: naive/cached {ratio:.2f}x within 3x"
        assert ratio < 3.0


def test_criterion_11_balanced_support_bias_gradient():
    with _Criterion(11, "mirror-balanced support cancels the bias gradient") as c:
        rng = np.random.default_rng(111)
        worst = 0.0
        for _ in range(10):
            d = 8
            emb = rng.standard_normal((2, d))
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
            bank = TextBank(emb, float(rng.uniform(0.0, np.log(5.0))), ["c0", "c1"])
            feats = []
            for _ in range(8):
                v = rng.standard_normal(d)
                v /= np.linalg.norm(v)
                feats.append(v)
                feats.append(reflect_across_text_bisector(v, bank))
            worst = max(worst, bias_gradient_check(feats, bank))
        c.detail = f"max ||bias grad||_inf {worst:.2e} < 1e-12 over 10 mirrored supports"
        assert worst < 1e-12

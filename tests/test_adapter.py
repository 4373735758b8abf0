"""Optimizers, gradient aggregation, and the episodic engine."""

from __future__ import annotations

import copy
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retta.adapter
import retta.memory
from retta.adapter import (
    VARIANTS,
    AdapterConfig,
    Outcomes,
    ablation_config,
    adapt_and_predict,
    aggregate,
    aggregate_recomputed,
    gd_step,
    process_batch,
    reference_adapter_config,
    run_entropy_baseline,
    run_stream,
    run_zero_shot,
    signsgd_step,
    weigh,
)
from retta.datagen import StreamConfig, generate, reference_stream_config
from retta.memory import ClassMemory
from retta.model import (
    AffineParams,
    GradRecord,
    Sample,
    Stream,
    TextBank,
    batch_grads,
    forward,
    predict,
    sample_grad,
)
from test_memory import queues


def small_stream(seed=0, n=200):
    cfg = StreamConfig(num_classes=4, num_domains=3, dim=16,
                       samples_per_domain=n // 3 + 1, seed=seed)
    samples, bank = generate(cfg)
    return samples[:n], bank


def small_engine_cfg(seed=0, **kw):
    defaults = dict(capacity_per_class=40, retrieve_k=3, beta=5.0, lr=1e-2,
                    batch_size=20, seed=seed)
    defaults.update(kw)
    return AdapterConfig(**defaults)


# ---------------------------------------------------------------- aggregate


def make_support(rng, n, d, grad=None):
    """A one-query support of n rows as `retrieve` gives it: unit z and, unless `grad` gives
    every row's, random gradients."""
    z = rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    if grad is None:
        d_weight, d_bias = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    else:
        d_weight, d_bias = np.tile(grad.d_weight, (n, 1)), np.tile(grad.d_bias, (n, 1))
    return {"z": z, "d_weight": d_weight, "d_bias": d_bias, "entropy": rng.uniform(0, 1.2, n),
            "domain": np.full(n, -1)}


def normalized(raw):
    return raw / raw.sum()


def test_singleton_support_returns_its_own_gradient():
    rng = np.random.default_rng(0)
    support = make_support(rng, 1, 8)
    agg = aggregate(support, normalized(np.array([3.7])))
    np.testing.assert_array_equal(agg.d_weight, support["d_weight"][0])
    np.testing.assert_array_equal(agg.d_bias, support["d_bias"][0])


def test_identical_gradients_survive_any_weighting():
    rng = np.random.default_rng(1)
    g = GradRecord(rng.standard_normal(6), rng.standard_normal(6))
    support = make_support(rng, 5, 6, grad=g)
    agg = aggregate(support, normalized(rng.uniform(0.1, 5.0, 5)))
    np.testing.assert_allclose(agg.d_weight, g.d_weight, rtol=1e-14)


def test_aggregate_matches_recompute_from_scratch():
    # cache equivalence at the aggregation level: cached gradients vs gradients
    # recomputed from the stored embeddings at pretrained parameters
    rng = np.random.default_rng(2)
    for _ in range(20):
        C, d = 4, 12
        emb = rng.standard_normal((C, d))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        bank = TextBank(emb, float(rng.uniform(0, 2)), [f"c{i}" for i in range(C)])
        params0 = AffineParams.pretrained(d)
        mem = ClassMemory(C, capacity_per_class=8, split=False)
        for _ in range(8):
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            pred = predict(forward(v, params0), bank)
            mem.insert(v, sample_grad(v, params0, bank).d_bias, pred.entropy, pred.pseudo_label)
        query = rng.standard_normal(d)
        query /= np.linalg.norm(query)
        support = mem.retrieve(query, k=2)  # the unsplit budget C * k: all 8 rows
        _, weights = weigh(support, query, beta=4.0)
        cached = aggregate(support, weights)
        fresh = aggregate_recomputed(support, weights, params0, bank)
        np.testing.assert_allclose(cached.d_weight, fresh.d_weight, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(cached.d_bias, fresh.d_bias, rtol=1e-12, atol=1e-300)


def test_aggregate_requires_weights():
    rng = np.random.default_rng(3)
    support = make_support(rng, 2, 4)
    params0, bank = AffineParams.pretrained(4), TextBank(np.eye(4), 0.0, list("abcd"))
    for weights in (None, np.ones(3) / 3, np.ones((1, 2)) / 2):
        with pytest.raises(ValueError, match="weights"):
            aggregate(support, weights)
        with pytest.raises(ValueError, match="weights"):
            aggregate_recomputed(support, weights, params0, bank)
    with pytest.raises(ValueError, match="empty"):
        aggregate({}, np.ones(0))


# ---------------------------------------------------------------- optimizers


def test_signsgd_ignores_exact_zeros():
    params = AffineParams.pretrained(3)
    stepped = signsgd_step(params, GradRecord(np.zeros(3), np.zeros(3)), eta=0.01)
    np.testing.assert_array_equal(stepped.weight, params.weight)
    np.testing.assert_array_equal(stepped.bias, params.bias)


def test_signsgd_arithmetic():
    params = AffineParams(np.array([1.0, 1.0, 1.0]), np.zeros(3))
    grad = GradRecord(np.array([3.0, -0.5, 0.0]), np.zeros(3))
    stepped = signsgd_step(params, grad, eta=0.01)
    np.testing.assert_allclose(stepped.weight, [0.99, 1.01, 1.00], atol=1e-15)


def test_signsgd_is_invariant_to_gradient_scale():
    rng = np.random.default_rng(4)
    params = AffineParams(rng.uniform(0.5, 1.5, 8), rng.uniform(-0.2, 0.2, 8))
    g = GradRecord(rng.standard_normal(8), rng.standard_normal(8))
    base = signsgd_step(params, g, eta=0.01)
    for c in (1e-6, 0.5, 3.0, 1e9):
        scaled = signsgd_step(params, GradRecord(c * g.d_weight, c * g.d_bias), eta=0.01)
        np.testing.assert_array_equal(scaled.weight, base.weight)
        np.testing.assert_array_equal(scaled.bias, base.bias)


def test_gd_step_zero_eta_changes_nothing():
    rng = np.random.default_rng(5)
    params = AffineParams(rng.uniform(0.5, 1.5, 6), rng.uniform(-0.2, 0.2, 6))
    g = GradRecord(rng.standard_normal(6), rng.standard_normal(6))
    stepped = gd_step(params, g, eta=0.0)
    np.testing.assert_array_equal(stepped.weight, params.weight)


def test_gd_step_matches_scalar_axpy_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = 8
        params = AffineParams(rng.standard_normal(d), rng.standard_normal(d))
        g = GradRecord(rng.standard_normal(d), rng.standard_normal(d))
        eta = float(rng.uniform(0.001, 0.5))
        stepped = gd_step(params, g, eta)
        for h in range(d):
            assert abs(stepped.weight[h] - (params.weight[h] - eta * g.d_weight[h])) < 1e-15
            assert abs(stepped.bias[h] - (params.bias[h] - eta * g.d_bias[h])) < 1e-15


# ---------------------------------------------------------------- engine


def test_cold_start_support_is_the_sample_itself():
    samples, bank = small_stream()
    cfg = small_engine_cfg()
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class)
    s = samples[0]
    params0 = AffineParams.pretrained(bank.dim)
    pred = predict(forward(s.feature, params0), bank)
    grad = sample_grad(s.feature, params0, bank)
    mem.insert(s.feature, grad.d_bias, pred.entropy, pred.pseudo_label)

    out = adapt_and_predict(s, mem, cfg, bank)
    assert out.support_size == 1
    # one signsgd step on the sample's own gradient
    expected = predict(forward(s.feature, signsgd_step(params0, grad, cfg.lr)), bank)
    np.testing.assert_array_equal(out.prediction.logits, expected.logits)


def test_empty_memory_falls_back_to_zero_shot():
    samples, bank = small_stream()
    cfg = small_engine_cfg()
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class)
    out = adapt_and_predict(samples[0], mem, cfg, bank)
    assert out.support_size == 0
    np.testing.assert_array_equal(out.prediction.logits, out.zero_shot.logits)


def test_tiny_learning_rate_reduces_to_zero_shot_argmax():
    # eta -> 0 limit: the affine params barely move, predictions match zero-shot
    samples, bank = small_stream()
    cfg = small_engine_cfg(lr=1e-15)
    outcomes = run_stream(samples, cfg, bank)
    for o in outcomes:
        assert o.prediction.pseudo_label == o.zero_shot.pseudo_label
        np.testing.assert_allclose(o.prediction.logits, o.zero_shot.logits, atol=1e-10)


def test_cached_engine_matches_naive_recompute_engine():
    samples, bank = small_stream(n=150)
    cfg = small_engine_cfg()
    cached = run_stream(samples, cfg, bank, recompute_grads=False)
    naive = run_stream(samples, cfg, bank, recompute_grads=True)
    for a, b in zip(cached, naive):
        gap = np.max(np.abs(a.prediction.logits - b.prediction.logits))
        scale = max(float(np.max(np.abs(b.prediction.logits))), 1e-300)
        assert gap / scale < 1e-12


def test_episodic_adaptation_never_mutates_pretrained_params():
    samples, bank = small_stream(n=60)
    cfg = small_engine_cfg()
    params0 = AffineParams.pretrained(bank.dim)
    w_before, b_before = params0.weight.copy(), params0.bias.copy()
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class)
    rng = np.random.default_rng(cfg.seed)
    process_batch(samples[:20], mem, cfg, bank, rng=rng)
    for s in samples[:20]:
        adapt_and_predict(s, mem, cfg, bank, rng=rng)
    np.testing.assert_array_equal(AffineParams.pretrained(bank.dim).weight, w_before)
    np.testing.assert_array_equal(AffineParams.pretrained(bank.dim).bias, b_before)


def test_run_stream_is_deterministic_under_seed():
    samples, bank = small_stream()
    cfg = small_engine_cfg(topk_selection=False, beta=0.0, seed=7)
    a = run_stream(samples, cfg, bank)
    b = run_stream(samples, cfg, bank)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.prediction.logits, y.prediction.logits)
        assert x.support_domain_ids == y.support_domain_ids


def test_batch_of_one_equals_single_sample_engine():
    samples, bank = small_stream(n=40)
    one = run_stream(samples, small_engine_cfg(batch_size=1), bank)
    # process manually with the same flow
    cfg = small_engine_cfg(batch_size=1)
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class)
    rng = np.random.default_rng(cfg.seed)
    manual = []
    for s in samples:
        manual.extend(process_batch([s], mem, cfg, bank, rng=rng))
    for a, b in zip(one, manual):
        np.testing.assert_array_equal(a.prediction.logits, b.prediction.logits)


def test_duplicate_samples_in_one_batch_retrieve_each_other():
    samples, bank = small_stream()
    s = samples[0]
    twin = Sample(feature=s.feature.copy(), true_label=s.true_label, domain_id=s.domain_id)
    cfg = small_engine_cfg(batch_size=2, retrieve_k=2)
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class)
    outcomes = process_batch([s, twin], mem, cfg, bank)
    assert all(o.support_size == 2 for o in outcomes)


def test_prewarmed_memory_makes_batch_size_irrelevant():
    # with memory already saturated, B=1 and B=50 retrievals see the same state
    samples, bank = small_stream(n=180)
    warm, tail = samples[:120], samples[120:160]
    for B in (1, 50):
        cfg = small_engine_cfg(batch_size=50, capacity_per_class=10)
        mem = ClassMemory(bank.num_classes, cfg.capacity_per_class)
        rng = np.random.default_rng(cfg.seed)
        for start in range(0, len(warm), 50):
            process_batch(warm[start : start + 50], mem, cfg, bank, rng=rng)
        if B == 1:
            base_mem_state = queues(mem)
            base = [adapt_and_predict(s, mem, cfg, bank, rng=rng) for s in tail]
        else:
            assert queues(mem) == base_mem_state
            again = [adapt_and_predict(s, mem, cfg, bank, rng=rng) for s in tail]
            for a, b in zip(base, again):
                np.testing.assert_array_equal(a.prediction.logits, b.prediction.logits)


def test_prediction_balance_is_structural_with_warm_queues():
    samples, bank = small_stream(n=180)
    cfg = small_engine_cfg(capacity_per_class=10, retrieve_k=2, batch_size=30)
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class)
    rng = np.random.default_rng(0)
    outcomes = []
    for start in range(0, len(samples), 30):
        outcomes.extend(process_batch(samples[start : start + 30], mem, cfg, bank, rng=rng))
    # once every queue holds >= k entries, every support is exactly C*k
    assert min(len(q) for q in queues(mem)) >= cfg.retrieve_k
    for o in outcomes[-30:]:
        assert o.support_size == bank.num_classes * cfg.retrieve_k


@settings(max_examples=25)
@given(data=st.data())
def test_batched_engine_matches_per_sample_oracle(data):
    """Each cached `process_batch` outcome equals `adapt_and_predict` with recomputed
    gradients on the same post-insert memory, over random batch partitions and
    engine switches."""
    samples, bank = small_stream(seed=data.draw(st.integers(0, 3), label="stream"), n=90)
    topk = data.draw(st.booleans(), label="topk")
    cfg = small_engine_cfg(
        seed=data.draw(st.integers(0, 99), label="seed"),
        capacity_per_class=data.draw(st.integers(1, 30), label="capacity"),
        retrieve_k=data.draw(st.integers(1, 5), label="k"),
        batch_size=data.draw(st.integers(1, 40), label="batch_size"),
        optimizer=data.draw(st.sampled_from(["signsgd", "gd"]), label="optimizer"),
        split_memory=data.draw(st.booleans(), label="split"),
        topk_selection=topk,
        beta=5.0 if topk else 0.0,
        entropy_weighting=data.draw(st.booleans(), label="entw"),
        similarity_weighting=data.draw(st.booleans(), label="simw"),
    )
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class, split=cfg.split_memory)
    rng = np.random.default_rng(cfg.seed)
    start = 0
    while start < len(samples):
        batch = samples[start : start + data.draw(st.integers(1, cfg.batch_size), label="size")]
        start += len(batch)
        clone = copy.deepcopy(rng)
        for s, got in zip(batch, process_batch(batch, mem, cfg, bank, rng=rng)):
            ref = adapt_and_predict(s, mem, cfg, bank, rng=clone, recompute_grads=True)
            assert got.prediction.pseudo_label == ref.prediction.pseudo_label
            assert got.support_size == ref.support_size
            assert got.support_domain_ids == ref.support_domain_ids
            np.testing.assert_array_equal(got.zero_shot.logits, ref.zero_shot.logits)
            gap = np.max(np.abs(got.prediction.logits - ref.prediction.logits))
            assert gap <= 1e-12 * np.max(np.abs(ref.prediction.logits))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_selected_gradients_are_bitwise_the_gradient_pass_of_their_sample(data):
    """After each `process_batch` of a random partition, every `select` row's d_weight
    and d_bias are bitwise the `batch_grads` row of the sample with that row's z.

    Small queues and a long stream force evictions and window compaction.  The
    stream's features are distinct, so a row's z names its sample.
    """
    samples, bank = small_stream(seed=data.draw(st.integers(0, 3), label="stream"), n=90)
    cfg = small_engine_cfg(capacity_per_class=data.draw(st.integers(1, 6), label="capacity"),
                           batch_size=40, split_memory=data.draw(st.booleans(), label="split"))
    k = data.draw(st.integers(1, 8), label="k")
    grads = batch_grads(samples.features, AffineParams.pretrained(bank.dim), bank)
    sample_of = {v.tobytes(): i for i, v in enumerate(samples.features)}
    assert len(sample_of) == len(samples)
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class, split=cfg.split_memory)
    rng = np.random.default_rng(data.draw(st.integers(0, 99), label="seed"))
    start = 0
    while start < len(samples):
        batch = samples[start : start + data.draw(st.integers(1, cfg.batch_size), label="size")]
        start += len(batch)
        process_batch(batch, mem, cfg, bank, rng=rng)
        queries = np.stack([s.feature for s in batch])
        for block in (mem.select(queries, k), mem.select(queries, k, rng)):
            for q in range(len(queries)):
                rows = [sample_of[z.tobytes()] for z in block["z"][q]]
                assert block["d_weight"][q].tobytes() == grads.d_weight[rows].tobytes()
                assert block["d_bias"][q].tobytes() == grads.d_bias[rows].tobytes()


def near_class_stream(seed: int, C: int, labels: list[int], domains: list[int],
                      names: tuple[str, ...]) -> tuple[Stream, TextBank]:
    """A stream whose row i lies near class labels[i]'s text embedding (so it takes that
    pseudo-label), with domain codes `domains` (-1: no domain) into `names`."""
    rng = np.random.default_rng(seed)
    d = 8
    emb = rng.standard_normal((C, d))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    V = emb[labels].reshape(len(labels), d) + 0.1 * rng.standard_normal((len(labels), d))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return (Stream(V, np.full(len(labels), -1), np.array(domains, dtype=np.int64), names),
            TextBank(emb, float(np.log(10.0)), [f"c{c}" for c in range(C)]))


def assert_run_stream_replays_process_batch(stream: Stream, bank: TextBank, cfg: AdapterConfig):
    """`run_stream` equals one `process_batch` per batch on one persistent memory and
    generator: both posteriors, the support sizes and domains bitwise, and (through the
    engine `run_stream` runs on a fresh memory) the final generator state and queues."""
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class, split=cfg.split_memory)
    rng = np.random.default_rng(cfg.seed)
    got = retta.adapter._adapt(stream, mem, cfg, bank, rng)
    mem2 = ClassMemory(bank.num_classes, cfg.capacity_per_class, split=cfg.split_memory)
    rng2 = np.random.default_rng(cfg.seed)
    want = Outcomes.concat([process_batch(stream[start : start + cfg.batch_size], mem2, cfg, bank,
                                          rng=rng2)
                            for start in range(0, len(stream), cfg.batch_size)])
    for out in (got, run_stream(stream, cfg, bank)):
        for name in ("adapted", "zero_shot"):
            a, b = getattr(out, name), getattr(want, name)
            for key in ("logits", "probs", "entropy", "labels"):
                x, y = getattr(a, key), getattr(b, key)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        for x, y in ((out.support_size, want.support_size),
                     (out.support_domains, want.support_domains)):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        assert out.domain_names == want.domain_names
        assert out.support_domains.shape[1] == out.support_size.max()  # no spare padding
    assert rng.bit_generator.state == rng2.bit_generator.state
    assert queues(mem) == queues(mem2)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_run_stream_is_a_replay_of_process_batch_on_one_memory(data):
    """Over 2-5 classes (a text bank needs two; a class that never appears leaves one
    queue), queues of 1-12 rows, k 1-4, every variant (split and unsplit, top-k and
    uniform draws), batch sizes that need not divide the stream, rows without a domain
    and a class that first appears late or never."""
    C = data.draw(st.integers(2, 5), label="C")
    n = data.draw(st.integers(1, 40), label="n")
    labels = data.draw(st.lists(st.integers(0, C - 1), min_size=n, max_size=n), label="labels")
    late = data.draw(st.integers(0, C - 1), label="late class")
    first = data.draw(st.integers(0, n), label="its first row (n: never)")
    labels = [(c + 1) % C if c == late and i < first else c for i, c in enumerate(labels)]
    names = ("a", "b", "c")[: data.draw(st.integers(0, 3), label="domains")]
    domains = data.draw(st.lists(st.integers(-1, len(names) - 1), min_size=n, max_size=n),
                        label="domain codes")
    stream, bank = near_class_stream(data.draw(st.integers(0, 9), label="stream seed"), C,
                                     labels, domains, names)
    cfg = ablation_config(AdapterConfig(
        capacity_per_class=data.draw(st.integers(1, 12), label="capacity"),
        retrieve_k=data.draw(st.integers(1, 4), label="k"),
        batch_size=data.draw(st.sampled_from([1, 2, 3, 5, 7, 16, 40]), label="batch size"),
        seed=data.draw(st.integers(0, 99), label="seed")),
        data.draw(st.sampled_from(sorted(VARIANTS)), label="variant"))
    assert_run_stream_replays_process_batch(stream, bank, cfg)


@pytest.mark.parametrize("C, labels, batch_size", [
    (3, [0, 1, 2] * 9 + [0], 1),   # batch 1; 3 queues: an odd word count per query
    (3, [0, 1, 2, 2, 1] * 6, 4),   # 30 rows in batches of 4, 3 queues
    (5, [0, 2, 4] * 10, 7),        # classes 1 and 3 never appear: 3 queues, odd words
    (4, [0] * 12 + [1, 2, 3] * 6, 5),  # classes 1-3 first appear at row 12
])
@pytest.mark.parametrize("variant", ["no-dc", "no-pb-dc", "full"])
def test_run_stream_replay_on_odd_word_draws_and_late_classes(C, labels, batch_size, variant):
    """Shapes whose uniform draw takes an odd number of 32-bit words per query, so one
    merged draw crosses PCG64's buffered half-word between queries."""
    stream, bank = near_class_stream(1, C, labels, [i % 3 - 1 for i in range(len(labels))],
                                     ("a", "b"))
    cfg = ablation_config(AdapterConfig(capacity_per_class=4, retrieve_k=2,
                                        batch_size=batch_size, seed=3), variant)
    assert_run_stream_replays_process_batch(stream, bank, cfg)


def test_process_batch_reads_every_queue_of_a_memory_wider_than_the_bank():
    """A memory with a queue per class and one more, every queue holding rows: each
    query's support takes a row from every queue, wider than the bank's C * k, as the
    per-sample oracle reads it."""
    samples, bank = small_stream(n=60)
    cfg = small_engine_cfg(batch_size=20, retrieve_k=1)
    mem = ClassMemory(bank.num_classes + 1, cfg.capacity_per_class)
    grads = batch_grads(samples.features[20:], AffineParams.pretrained(bank.dim), bank)
    for labels in (grads.labels, np.full(40, bank.num_classes)):
        mem.insert_block(samples.features[20:], grads.d_bias, grads.entropy, labels, [None] * 40)
    assert all(queues(mem))
    out = process_batch(samples[:20], mem, cfg, bank)
    assert out.support_domains.shape[1] == out.support_size.max() > bank.num_classes
    for s, got in zip(samples[:20], out):
        ref = adapt_and_predict(s, mem, cfg, bank, recompute_grads=True)
        assert (got.support_size, got.support_domain_ids) == (ref.support_size,
                                                              ref.support_domain_ids)


@pytest.fixture(scope="module")
def reference():
    return generate(reference_stream_config(0))


class WriteSpy(np.ndarray):
    """A memory column that records the rows each write into it covers."""

    def __setitem__(self, index, values):
        self.writes.append(np.arange(len(self))[index])
        super().__setitem__(index, values)


@pytest.mark.parametrize("variant", ["no-dc", "no-pb-dc"])
def test_reference_stream_draws_once_per_window_sizes_and_writes_each_queue_once(
        monkeypatch, reference, variant):
    """On the reference stream the uniform draw is one `_uniform_draws` call per distinct
    tuple of window sizes, and each `insert_batches` call writes each non-empty queue
    once: per column, one write covers the queue's new rows, each row once."""
    stream, bank = reference
    cfg = ablation_config(reference_adapter_config(0), variant)
    draws, calls, memories = [], [], []
    real_draws = retta.memory._uniform_draws
    real_layout, real_insert = ClassMemory._layout, ClassMemory.insert_batches

    def draw(rng, sizes, budget, n_queries, block=None):
        draws.append((tuple(sizes), n_queries))
        return real_draws(rng, sizes, budget, n_queries, block)

    def layout(self, d, need):
        real_layout(self, d, need)
        memories.append(self)
        for key, col in self._cols.items():
            self._cols[key] = col.view(WriteSpy)
            self._cols[key].writes = []

    def insert_batches(self, *args, **kwargs):
        steps = real_insert(self, *args, **kwargs)
        yield next(steps)
        calls.append({key: col.writes[:] for key, col in self._cols.items()})
        for col in self._cols.values():
            col.writes.clear()
        yield from steps

    monkeypatch.setattr(retta.memory, "_uniform_draws", draw)
    monkeypatch.setattr(ClassMemory, "_layout", layout)
    monkeypatch.setattr(ClassMemory, "insert_batches", insert_batches)
    run_stream(stream, cfg, bank)
    assert len(draws) == len({sizes for sizes, _ in draws}) < len(stream) // cfg.batch_size
    assert sum(n for _, n in draws) == len(stream)
    (mem,), (writes,) = memories, calls
    bases = [w.base for w in mem._windows]
    filled = [i for i, w in enumerate(mem._windows) if w.size]
    for key in ("z", "d_bias", "entropy", "domain"):
        touched = [set((np.searchsorted(bases, row, side="right") - 1).tolist())
                   for row in writes[key]]
        assert sorted(q for queues in touched for q in queues) == filled
        written = np.concatenate(writes[key])
        assert len(np.unique(written)) == len(written) == len(stream)


# tracemalloc peak bytes of `run_stream` on reference seed 0, each variant in a fresh
# process in this order, measured (numpy 2.4.6) on the engine that inserted and adapted
# each batch on its own and joined the batches' outcomes at the end
BATCH_BY_BATCH_PEAK = {"full": 3575170, "no-dc": 3566954, "no-entw": 3561441, "no-pb": 3558936,
                       "no-pb-dc": 3558960, "no-simw": 3561417}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_run_stream_peak_stays_within_the_batch_by_batch_peak_plus_the_stores(reference,
                                                                            variant):
    """The engine keeps, beyond the batch-by-batch engine, the stream's dH/dz rows until
    the memory's one write, then the whole stream's rows in the memory (n rows of 2 d + 2
    floats, against 2 K per queue), and for a uniform draw a run's indices (at most C * k
    per query).  With the dH/dz rows freed once written, its traced peak stays within
    that engine's peak plus the dH/dz bytes and the indices."""
    stream, bank = reference
    cfg = ablation_config(reference_adapter_config(0), variant)
    n, d = stream.features.shape
    stores = 8 * n * d + (0 if cfg.topk_selection else 8 * n * bank.num_classes * cfg.retrieve_k)
    tracemalloc.start()
    try:
        run_stream(stream, cfg, bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BATCH_BY_BATCH_PEAK[variant] + stores


# Python- and C-level calls of one warm one-row `process_batch` on `online`'s config, counted
# (numpy 2.4.6) on the engine whose insert still planned segments of batches
ONE_ROW_CALLS = 196


def test_one_row_call_makes_no_more_calls_than_counted(reference):
    """A deterministic measure of the one-row path's fixed work, beside perfbench's
    wall-clock bounds: the calls `sys.setprofile` sees in one warm one-row
    `process_batch` on a 500-per-class memory that holds 1200 rows."""
    stream, bank = reference
    cfg = replace(reference_adapter_config(0), batch_size=1, capacity_per_class=500)
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class)
    post = batch_grads(stream.features[:1200], AffineParams.pretrained(bank.dim), bank)
    mem.insert_block(stream.features[:1200], post.d_bias, post.entropy, post.labels,
                     [None] * 1200)
    rng = np.random.default_rng(cfg.seed)
    process_batch(stream[1200:1201], mem, cfg, bank, rng=rng)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        process_batch(stream[1201:1202], mem, cfg, bank, rng=rng)
    finally:
        sys.setprofile(None)
    assert calls <= ONE_ROW_CALLS


def test_cached_engine_builds_no_per_sample_entries_or_grad_records(monkeypatch):
    """Each batch goes into the memory columns as one block and every read is a
    column block: the batched engine builds no `GradRecord`, while the per-sample
    oracle builds exactly one per query (the aggregate) in its cached mode and one
    per support row more (each recomputed gradient) in its recomputing mode."""
    samples, bank = small_stream(n=120)
    cfg = small_engine_cfg()
    calls = 0
    check = GradRecord.__post_init__

    def counted(self):
        nonlocal calls
        calls += 1
        check(self)

    monkeypatch.setattr(GradRecord, "__post_init__", counted)
    for variant in ("full", "no-pb", "no-dc", "no-pb-dc", "no-entw", "no-simw"):
        run_stream(samples, ablation_config(cfg, variant), bank)
    assert calls == 0
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class)
    process_batch(samples[:20], mem, cfg, bank)
    assert calls == 0
    for s in samples[:20]:
        for recompute in (False, True):
            calls = 0
            out = adapt_and_predict(s, mem, cfg, bank, recompute_grads=recompute)
            assert out.support_size > 0
            assert calls == (out.support_size + 1 if recompute else 1)


@pytest.mark.parametrize("variant", ["full", "no-pb", "no-dc"])
def test_row_chunks_leave_results_bitwise_unchanged(monkeypatch, variant):
    """With a byte budget that admits one query per chunk, every `select` call sees
    one query and the engine and zero-shot outcomes are bitwise those of one chunk."""
    samples, bank = small_stream(n=90)
    cfg = ablation_config(small_engine_cfg(batch_size=30, capacity_per_class=10), variant)
    whole = run_stream(samples, cfg, bank)
    whole_zs = run_zero_shot(samples, bank)

    sizes = []
    select = ClassMemory.select

    def spy(self, queries, *args, **kwargs):
        sizes.append(len(queries))
        return select(self, queries, *args, **kwargs)

    monkeypatch.setattr(retta.adapter, "_BLOCK_BYTES", 1)
    monkeypatch.setattr(ClassMemory, "select", spy)
    chunked = run_stream(samples, cfg, bank)
    assert sizes == [1] * len(samples)
    for a, b in zip([*whole, *whole_zs], [*chunked, *run_zero_shot(samples, bank)]):
        np.testing.assert_array_equal(a.prediction.logits, b.prediction.logits)
        np.testing.assert_array_equal(a.zero_shot.logits, b.zero_shot.logits)
        assert (a.support_size, a.support_domain_ids) == (b.support_size, b.support_domain_ids)


def test_zero_shot_chunks_name_the_stream_index_of_a_bad_feature(monkeypatch):
    samples, bank = small_stream(n=20)
    short = np.ones(bank.dim - 1) / np.sqrt(bank.dim - 1)
    rows = [*samples[:13], Sample(feature=short), *samples[13:]]
    monkeypatch.setattr(retta.adapter, "_BLOCK_BYTES", 1)
    with pytest.raises(ValueError, match="batch element 13: feature dim"):
        run_zero_shot(Stream.from_samples(rows, bank.dim), bank)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_adapt_block_rejects_exactly_the_rows_whose_raw_weights_sum_to_zero(data):
    """The underflow check against its literal rule: a batch is rejected when, in some
    row, exp(log_raw) sums to 0 over the support.  Entropies straddle the edge where
    exp(-H) underflows (H near 745.13), so some rows underflow in every entry and
    others in all but a few."""
    B = data.draw(st.integers(1, 4), label="batch")
    m = data.draw(st.integers(1, 5), label="support")
    H = np.array(data.draw(st.lists(st.floats(744.0, 746.5), min_size=B * m, max_size=B * m),
                           label="entropies")).reshape(B, m)
    d = 3
    rng = np.random.default_rng(0)
    V = rng.standard_normal((B, d))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    bank = TextBank(embeddings=np.eye(d), log_temp=0.0, class_names=["a", "b", "c"])
    support = {"z": np.broadcast_to(V[:, None, :], (B, m, d)), "entropy": H,
               "d_bias": rng.standard_normal((B, m, d)), "d_weight": rng.standard_normal((B, m, d))}
    cfg = small_engine_cfg(similarity_weighting=False)
    params0 = AffineParams.pretrained(d)
    if np.any(np.exp(-H).sum(axis=1) == 0.0):
        with pytest.raises(ValueError, match="underflowed to zero"):
            retta.adapter._adapt_block(V, support, cfg, params0, bank)
    else:
        assert retta.adapter._adapt_block(V, support, cfg, params0, bank).logits.shape == (B, d)


def test_batch_size_cap_enforced():
    samples, bank = small_stream(n=30)
    cfg = small_engine_cfg(batch_size=4)
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class)
    with pytest.raises(ValueError, match="batch"):
        process_batch(samples[:10], mem, cfg, bank)


# ---------------------------------------------------------------- baselines


def test_entropy_baseline_tiny_lr_equals_zero_shot():
    samples, bank = small_stream(n=80)
    cfg = small_engine_cfg(lr=1e-15, batch_size=20)
    outcomes = run_entropy_baseline(samples, cfg, bank)
    for o in outcomes:
        assert o.prediction.pseudo_label == o.zero_shot.pseudo_label


def test_entropy_baseline_first_step_is_mean_batch_gradient():
    samples, bank = small_stream(n=20)
    cfg = small_engine_cfg(batch_size=20)
    params0 = AffineParams.pretrained(bank.dim)
    post = batch_grads(samples.features, params0, bank)
    mean_g = GradRecord(np.mean(post.d_weight, axis=0), np.mean(post.d_bias, axis=0))
    stepped = signsgd_step(params0, mean_g, cfg.lr)
    expected = [predict(forward(s.feature, stepped), bank) for s in samples]
    outcomes = run_entropy_baseline(samples, cfg, bank)
    for o, e in zip(outcomes, expected):
        np.testing.assert_array_equal(o.prediction.logits, e.logits)


def test_entropy_baseline_params_drift_across_batches():
    samples, bank = small_stream(n=120)
    cfg = small_engine_cfg(batch_size=20)
    outcomes = run_entropy_baseline(samples, cfg, bank)
    diffs = [
        not np.array_equal(o.prediction.logits, o.zero_shot.logits) for o in outcomes[20:]
    ]
    assert any(diffs)


def test_zero_shot_baseline_is_stateless_predict():
    samples, bank = small_stream(n=50)
    outcomes = run_zero_shot(samples, bank)
    params0 = AffineParams.pretrained(bank.dim)
    for s, o in zip(samples, outcomes):
        expected = predict(forward(s.feature, params0), bank)
        np.testing.assert_array_equal(o.prediction.logits, expected.logits)
        np.testing.assert_array_equal(o.zero_shot.logits, expected.logits)


# ---------------------------------------------------------------- config


def test_config_rejects_random_selection_with_nonzero_beta():
    with pytest.raises(ValueError, match="beta"):
        AdapterConfig(capacity_per_class=10, retrieve_k=2, topk_selection=False, beta=5.0)


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        AdapterConfig(capacity_per_class=0, retrieve_k=2)
    with pytest.raises(ValueError):
        AdapterConfig(capacity_per_class=10, retrieve_k=2, optimizer="adam")
    with pytest.raises(ValueError):
        AdapterConfig(capacity_per_class=10, retrieve_k=2, lr=0.0)


def test_ablation_config_variants():
    cfg = AdapterConfig(capacity_per_class=10, retrieve_k=2)
    assert ablation_config(cfg, "full") is cfg
    assert not ablation_config(cfg, "no-pb").split_memory
    nodc = ablation_config(cfg, "no-dc")
    assert not nodc.topk_selection and nodc.beta == 0.0
    both = ablation_config(cfg, "no-pb-dc")
    assert not both.split_memory and not both.topk_selection
    assert not ablation_config(cfg, "no-entw").entropy_weighting
    assert not ablation_config(cfg, "no-simw").similarity_weighting
    with pytest.raises(ValueError, match="variant"):
        ablation_config(cfg, "no-such")


def test_random_selection_uses_run_rng_reproducibly():
    samples, bank = small_stream(n=80)
    cfg = small_engine_cfg(topk_selection=False, beta=0.0, seed=11)
    a = run_stream(samples, cfg, bank)
    b = run_stream(samples, cfg, bank)
    assert [x.support_domain_ids for x in a] == [y.support_domain_ids for y in b]
    other = run_stream(samples, small_engine_cfg(topk_selection=False, beta=0.0, seed=12), bank)
    assert [x.support_domain_ids for x in a] != [y.support_domain_ids for y in other]

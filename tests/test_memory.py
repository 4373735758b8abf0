"""FIFO cache semantics, top-k retrieval vs brute force, and weighting."""

from __future__ import annotations

import copy
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import retta.memory
from retta.adapter import AdapterConfig, aggregate, process_batch, signsgd_step, weigh
from retta.memory import ClassMemory, _uniform_draws
from retta.model import AffineParams, Stream, TextBank, batch_grads, forward, predict

COLUMNS = ("z", "d_bias", "entropy", "domain")


def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def row(rng, d=4, entropy=None):
    """`insert`'s z, d_bias and entropy for one random row: a unit z, a random dH/dz."""
    return (unit(rng, d), rng.standard_normal(d),
            float(rng.uniform(0.0, 1.2)) if entropy is None else entropy)


def queues(mem: ClassMemory) -> list[list[tuple]]:
    """Each queue's live rows, oldest first, as (z bytes, d_bias bytes, entropy, domain name):
    the window state, read from `_windows` and `_cols`, the one place the tests look past
    `select`."""
    names = mem.domain_names + (None,)
    return [[(z.tobytes(), g.tobytes(), float(h), names[c])
             for z, g, h, c in zip(*(mem._cols[key][w.rows] for key in COLUMNS))] if w.size else []
            for w in mem._windows]


def arrivals(mem: ClassMemory) -> list[list[float]]:
    """Each queue's entropies oldest first: the arrival numbers where a test inserts row i
    with entropy float(i), a payload retrieval never reads."""
    return [[h for _, _, h, _ in q] for q in queues(mem)]


def picked(support: dict) -> list[float]:
    """The entropies of a one-query support, in support order ([] for an empty memory)."""
    return support["entropy"].tolist() if support else []


# ---------------------------------------------------------------- insert


def test_fifo_keeps_the_last_k():
    rng = np.random.default_rng(0)
    mem = ClassMemory(num_classes=2, capacity_per_class=2)
    for i in range(3):
        mem.insert(*row(rng, entropy=float(i)), pseudo_label=0)
    assert arrivals(mem)[0] == [1.0, 2.0]


def test_insert_leaves_other_queues_untouched():
    rng = np.random.default_rng(1)
    mem = ClassMemory(num_classes=3, capacity_per_class=4)
    for _ in range(6):
        mem.insert(*row(rng), pseudo_label=0)
    assert queues(mem)[1] == [] and queues(mem)[2] == []


def test_interleaved_inserts_preserve_per_class_arrival_order():
    rng = np.random.default_rng(2)
    mem = ClassMemory(num_classes=3, capacity_per_class=50)
    replay = {c: [] for c in range(3)}  # replay oracle
    for i in range(120):
        c = int(rng.integers(3))
        replay[c].append(float(i))
        mem.insert(*row(rng, entropy=float(i)), pseudo_label=c)
    assert arrivals(mem) == [replay[c][-50:] for c in range(3)]


def test_capacity_invariants_after_many_random_inserts():
    rng = np.random.default_rng(4)
    split = ClassMemory(num_classes=5, capacity_per_class=16)
    unsplit = ClassMemory(num_classes=5, capacity_per_class=16, split=False)
    for _ in range(10_000):
        c = int(rng.integers(5))
        split.insert(*row(rng), c)
        unsplit.insert(*row(rng), c)
        assert all(len(q) <= 16 for q in queues(split))
        assert len(queues(unsplit)[0]) <= 5 * 16
    assert len(split) == 5 * 16
    assert len(unsplit) == 5 * 16


def test_insert_rejects_out_of_range_class():
    rng = np.random.default_rng(5)
    mem = ClassMemory(num_classes=2, capacity_per_class=4)
    with pytest.raises(ValueError, match="out of range"):
        mem.insert(*row(rng), pseudo_label=2)


def test_insert_rejects_dim_mismatch_and_leaves_memory_intact():
    rng = np.random.default_rng(5)
    mem = ClassMemory(num_classes=1, capacity_per_class=2)
    for i in range(2):
        mem.insert(*row(rng, entropy=float(i)), pseudo_label=0)
    before = queues(mem)
    z = unit(rng, 4)
    for bad in (row(rng, d=3), (z, rng.standard_normal(3), 0.1)):
        with pytest.raises(ValueError, match="dim"):
            mem.insert(*bad, pseudo_label=0)
    assert queues(mem) == before
    assert arrivals(mem) == [[0.0, 1.0]]


def test_entry_rejects_off_unit_embedding():
    mem = ClassMemory(num_classes=1, capacity_per_class=2)
    with pytest.raises(ValueError, match="norm"):
        mem.insert(np.array([1.0, 1.0]), np.zeros(2), 0.5, pseudo_label=0)
    assert len(mem) == 0


def block_of(rng, r, d, C, pool=None):
    """Arguments of `insert_block` for r rows: z from `pool` when given, random dH/dz."""
    z = (np.stack([pool[int(i)] for i in rng.integers(len(pool), size=r)]) if pool is not None
         else np.stack([unit(rng, d) for _ in range(r)]))
    return (z, rng.standard_normal((r, d)), rng.uniform(0.0, 1.2, r), rng.integers(C, size=r),
            [f"dom{i}" for i in rng.integers(3, size=r)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_insert_matches_per_row_inserts(data):
    """A memory filled by `insert_block` and one filled by one `insert` per row hold
    the same queues and give the same `select` blocks, top-k and seeded draws.

    Blocks run from 1 row to 3x a queue's capacity, so a block can overfill a
    queue and windows are compacted mid-block; embeddings come from a small
    pool so exact similarity ties occur.
    """
    C = data.draw(st.integers(1, 4), label="classes")
    K = data.draw(st.integers(1, 8), label="capacity")
    split = data.draw(st.booleans(), label="split")
    d = data.draw(st.integers(1, 5), label="dim")
    cap = K if split else C * K
    sizes = data.draw(st.lists(st.integers(1, 3 * cap), min_size=1, max_size=8), label="blocks")
    k = data.draw(st.integers(1, 2 * K), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    pool = [unit(rng, d) for _ in range(data.draw(st.integers(1, 3 * K), label="pool"))]
    by_block = ClassMemory(num_classes=C, capacity_per_class=K, split=split)
    by_row = ClassMemory(num_classes=C, capacity_per_class=K, split=split)
    for i, r in enumerate(sizes):
        z, d_bias, entropy, labels, domains = block_of(rng, r, d, C, pool)
        by_block.insert_block(z, d_bias, entropy, labels, domains)
        for j in range(r):
            by_row.insert(z[j], d_bias[j], float(entropy[j]), int(labels[j]), domains[j])
        assert queues(by_block) == queues(by_row)
        assert len(by_block) == len(by_row)

        queries = np.stack([pool[int(j)] for j in rng.integers(len(pool), size=3)])
        for draw in (None, i):
            got, expected = (mem.select(queries, k, None if draw is None
                                        else np.random.default_rng(draw))
                             for mem in (by_block, by_row))
            for key in ("z", "d_weight", "d_bias", "entropy", "domain"):
                np.testing.assert_array_equal(got[key], expected[key])


def test_block_insert_rejects_out_of_range_label_and_leaves_memory_intact():
    rng = np.random.default_rng(32)
    mem = ClassMemory(num_classes=3, capacity_per_class=4)
    mem.insert_block(*block_of(rng, 5, 4, 3))
    before = queues(mem)
    for bad in (3, -1):
        z, d_bias, entropy, labels, domains = block_of(rng, 6, 4, 3)
        labels[[2, 4]] = bad
        with pytest.raises(ValueError, match="row 2: pseudo_label .* out of range"):
            mem.insert_block(z, d_bias, entropy, labels, domains)
    assert queues(mem) == before
    assert len(mem) == 5


def test_block_insert_rejects_dim_mismatch_and_leaves_memory_intact():
    rng = np.random.default_rng(33)
    mem = ClassMemory(num_classes=2, capacity_per_class=4)
    mem.insert_block(*block_of(rng, 5, 4, 2))
    before = queues(mem)
    for column in range(2):  # z, d_bias
        args = list(block_of(rng, 3, 4, 2))
        args[column] = args[column][:, :3]
        with pytest.raises(ValueError, match="row 0: .* dim"):
            mem.insert_block(*args)
    assert queues(mem) == before
    assert len(mem) == 5


# ---------------------------------------------------------------- retrieve


def replay_top_k(replay: list[deque], query: np.ndarray, budget: int) -> list[float]:
    """Full scan-and-sort per replayed queue of (arrival number, z): the oracle `retrieve`
    must match.  Each queue is stacked oldest first, the same gemv shape as `select`, so
    the comparison exercises the selection logic, not BLAS rounding; ties go to the newer
    entry, the later place in the queue."""
    expected = []
    for queue in replay:
        if queue:
            sims = np.stack([z for _, z in queue]) @ query
            ranked = sorted(range(len(queue)), key=lambda j: (-sims[j], -j))
            expected.extend(float(queue[j][0]) for j in ranked[:budget])
    return expected


def test_retrieve_saturates_to_whole_memory():
    rng = np.random.default_rng(6)
    mem = ClassMemory(num_classes=3, capacity_per_class=10)
    for _ in range(12):
        mem.insert(*row(rng), pseudo_label=int(rng.integers(3)))
    support = mem.retrieve(unit(rng, 4), k=50)
    assert len(support["z"]) == len(mem)


def test_query_equal_to_stored_embedding_ranks_first():
    rng = np.random.default_rng(7)
    mem = ClassMemory(num_classes=2, capacity_per_class=10)
    target = row(rng, entropy=0.0)
    mem.insert(*target, pseudo_label=0)
    for i in range(1, 10):
        mem.insert(*row(rng, entropy=float(i)), pseudo_label=0)
    support = mem.retrieve(target[0], k=3)
    assert picked(support)[0] == 0.0


def test_retrieve_matches_brute_force_oracle():
    rng = np.random.default_rng(8)
    for trial in range(1000):
        C = int(rng.integers(2, 6))
        K = int(rng.integers(2, 51))
        split = bool(rng.integers(2))
        mem = ClassMemory(num_classes=C, capacity_per_class=K, split=split)
        replay = [deque(maxlen=K if split else C * K) for _ in range(C if split else 1)]
        d = int(rng.integers(2, 9))
        n = int(rng.integers(0, 120))
        pool = [unit(rng, d) for _ in range(max(n // 3, 1))]
        for i in range(n):
            # reuse embeddings from a small pool so exact similarity ties occur
            z = pool[int(rng.integers(len(pool)))]
            label = int(rng.integers(C))
            mem.insert(z, np.zeros(d), float(i), pseudo_label=label)
            replay[label if split else 0].append((i, z))
        query = pool[int(rng.integers(len(pool)))] if rng.random() < 0.5 else unit(rng, d)
        k = int(rng.integers(1, 8))
        got = picked(mem.retrieve(query, k))
        expected = replay_top_k(replay, query, k if split else C * k)
        assert got == expected, f"trial {trial}"


def test_similarity_tie_breaks_to_more_recent_entry():
    rng = np.random.default_rng(9)
    mem = ClassMemory(num_classes=1, capacity_per_class=10)
    z = unit(rng, 4)
    mem.insert(z, np.zeros(4), 0.0, 0)  # older
    mem.insert(z.copy(), np.zeros(4), 1.0, 0)  # newer
    support = mem.retrieve(z, k=1)
    assert picked(support) == [1.0]


def test_unsplit_mode_retrieves_top_ck_from_single_queue():
    rng = np.random.default_rng(10)
    mem = ClassMemory(num_classes=3, capacity_per_class=20, split=False)
    for _ in range(50):
        mem.insert(*row(rng), pseudo_label=int(rng.integers(3)))
    support = mem.retrieve(unit(rng, 4), k=4)
    assert len(support["z"]) == 3 * 4


def test_empty_memory_returns_empty_support():
    mem = ClassMemory(num_classes=2, capacity_per_class=5)
    support = mem.retrieve(np.array([1.0, 0.0]), k=3)
    assert support == {}


def test_retrieve_rejects_nonpositive_k():
    mem = ClassMemory(num_classes=2, capacity_per_class=5)
    with pytest.raises(ValueError, match="k"):
        mem.retrieve(np.array([1.0, 0.0]), k=0)


def test_split_retrieval_is_class_balanced_when_queues_are_warm():
    rng = np.random.default_rng(11)
    mem = ClassMemory(num_classes=4, capacity_per_class=20)
    for c in range(4):
        for _ in range(20):
            mem.insert(*row(rng, entropy=float(c)), pseudo_label=c)  # the class as payload
    support = mem.retrieve(unit(rng, 4), k=5)
    assert Counter(picked(support)) == {0.0: 5, 1.0: 5, 2.0: 5, 3.0: 5}


def test_sample_uniform_draws_without_replacement():
    rng = np.random.default_rng(12)
    mem = ClassMemory(num_classes=2, capacity_per_class=30)
    for c in range(2):
        for j in range(30):
            mem.insert(*row(rng, entropy=float(30 * c + j)), pseudo_label=c)
    drawn = picked(mem.sample_uniform(k=10, rng=np.random.default_rng(0)))
    assert len(drawn) == 20
    assert len(set(drawn)) == 20
    assert Counter(int(i) // 30 for i in drawn) == {0: 10, 1: 10}


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_window_matches_deque_replay_oracle(data):
    """Queues, top-k and uniform draws match a deque(maxlen) replay after every insert.

    Runs go past 3x capacity so every queue's window is compacted several
    times; embeddings come from a small pool so exact similarity ties occur.
    Row i carries entropy float(i), its arrival number.
    """
    K = data.draw(st.integers(1, 8), label="capacity")
    C = data.draw(st.integers(1, 4), label="classes")
    split = data.draw(st.booleans(), label="split")
    d = data.draw(st.integers(1, 5), label="dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pool = [unit(rng, d) for _ in range(data.draw(st.integers(1, 4), label="pool"))]
    n = 3 * K * (C if split else 1) + data.draw(st.integers(1, 12), label="extra")
    steps = data.draw(st.lists(
        st.tuples(st.integers(0, C - 1), st.integers(0, len(pool) - 1),
                  st.integers(0, len(pool) - 1), st.integers(1, 2 * K)),
        min_size=n, max_size=n), label="steps")

    mem = ClassMemory(num_classes=C, capacity_per_class=K, split=split)
    replay = [deque(maxlen=K if split else C * K) for _ in range(C if split else 1)]
    d_bias = {}
    for i, (label, zi, qi, k) in enumerate(steps):
        d_bias[i] = rng.standard_normal(d)
        mem.insert(pool[zi], d_bias[i], float(i), pseudo_label=label)
        replay[label if split else 0].append((i, pool[zi]))
        assert queues(mem) == [[(z.tobytes(), d_bias[j].tobytes(), float(j), None)
                                for j, z in q] for q in replay]
        assert len(mem) == sum(len(q) for q in replay)

        budget = k if split else C * k
        query = pool[qi]
        support = mem.retrieve(query, k)
        expected = replay_top_k(replay, query, budget)
        assert picked(support) == expected
        rows = [int(j) for j in expected]
        np.testing.assert_array_equal(support["z"], np.array([pool[steps[j][1]] for j in rows]))
        np.testing.assert_array_equal(support["d_bias"], np.array([d_bias[j] for j in rows]))
        np.testing.assert_array_equal(support["d_weight"], support["d_bias"] * support["z"])

        drawn = picked(mem.sample_uniform(k, np.random.default_rng(i)))
        clone = np.random.default_rng(i)
        expected = []
        for q in replay:
            if q:
                idx = clone.choice(len(q), size=min(budget, len(q)), replace=False)
                expected.extend(float(q[int(j)][0]) for j in idx)
        assert drawn == expected


@settings(max_examples=60)
@given(data=st.data())
def test_batched_select_matches_per_query_retrieve_and_draws(data):
    """`select` over a query block equals one `retrieve` per query; with a cloned
    generator its uniform draws equal one `sample_uniform` call per query.

    Embeddings and queries come from a small pool so exact similarity ties occur;
    row i carries entropy float(i), its arrival number.
    """
    C = data.draw(st.integers(1, 4), label="classes")
    K = data.draw(st.integers(1, 8), label="capacity")
    split = data.draw(st.booleans(), label="split")
    d = data.draw(st.integers(1, 5), label="dim")
    B = data.draw(st.integers(1, 12), label="batch")
    k = data.draw(st.integers(1, 2 * K), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    pool = [unit(rng, d) for _ in range(data.draw(st.integers(1, 3 * K), label="pool"))]
    mem = ClassMemory(num_classes=C, capacity_per_class=K, split=split)
    for i in range(data.draw(st.integers(1, 4 * C * K), label="inserts")):
        z = pool[int(rng.integers(len(pool)))]
        mem.insert(z, rng.standard_normal(d), float(i), pseudo_label=int(rng.integers(C)),
                   domain=f"dom{rng.integers(3)}")
    queries = np.stack([pool[int(rng.integers(len(pool)))] if rng.random() < 0.5 else unit(rng, d)
                        for _ in range(B)])

    block = mem.select(queries, k)
    drawn = mem.select(queries, k, np.random.default_rng(seed))
    clone = np.random.default_rng(seed)
    for i, query in enumerate(queries):
        for got, expected in ((block, mem.retrieve(query, k)),
                              (drawn, mem.sample_uniform(k, clone))):
            assert sorted(got) == sorted(expected) == sorted(COLUMNS + ("d_weight",))
            for key in expected:
                np.testing.assert_array_equal(got[key][i], expected[key])


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_select_top_k_matches_a_per_queue_sort_oracle(data):
    """`select`'s top-k rows equal a plain oracle per query and queue: the queue's
    embeddings as the test inserted them, oldest first, scored by `z @ q` and sorted
    best first with ties to the newer entry, the first min(budget, size) kept.

    Queue sizes are unequal (empty queues, queues below the budget, queues that
    wrapped), and embeddings and queries come from a small pool, so within one block
    a tie crosses the budget's cut in some rows and not in others.  Row i carries
    entropy float(i), its arrival number.
    """
    C = data.draw(st.integers(1, 5), label="classes")
    K = data.draw(st.integers(1, 8), label="capacity")
    split = data.draw(st.booleans(), label="split")
    d = data.draw(st.integers(1, 5), label="dim")
    B = data.draw(st.integers(1, 6), label="batch")
    k = data.draw(st.integers(1, 2 * K), label="k")
    counts = data.draw(st.lists(st.integers(0, 3 * K), min_size=C, max_size=C), label="counts")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pool = [unit(rng, d) for _ in range(data.draw(st.integers(1, 4), label="pool"))]
    labels = rng.permutation(np.repeat(np.arange(C), counts))
    z = np.array([pool[int(j)] for j in rng.integers(len(pool), size=len(labels))]).reshape(-1, d)
    mem = ClassMemory(num_classes=C, capacity_per_class=K, split=split)
    cap = K if split else C * K
    replay = [deque(maxlen=cap) for _ in range(C if split else 1)]
    start = 0
    while start < len(labels):
        stop = start + int(rng.integers(1, 2 * K + 1))
        r = len(z[start:stop])
        mem.insert_block(z[start:stop], rng.standard_normal((r, d)),
                         np.arange(start, start + r, dtype=np.float64), labels[start:stop],
                         [None] * r)
        for seq in range(start, min(stop, len(labels))):
            replay[labels[seq] if split else 0].append((seq, z[seq]))
        start = stop
    queries = np.stack([pool[int(rng.integers(len(pool)))] if rng.random() < 0.7
                        else unit(rng, d) for _ in range(B)])

    block = mem.select(queries, k)
    if not len(labels):
        assert block == {}
        return
    budget = k if split else C * k
    for b, query in enumerate(queries):
        expected = replay_top_k(replay, query, budget)
        assert block["z"].shape == (B, len(expected), d)
        np.testing.assert_array_equal(block["z"][b], z[[int(i) for i in expected]])
        assert block["entropy"][b].tolist() == expected


def test_select_ranks_every_queue_in_one_top_call(monkeypatch):
    """A deterministic counter beside the timings: on a warm 4-queue memory one `select`
    makes one `_top` call over every (query, queue) row, for one query and for several."""
    rng = np.random.default_rng(14)
    mem = ClassMemory(num_classes=4, capacity_per_class=10)
    for c in range(4):
        for _ in range(10):
            mem.insert(*row(rng), pseudo_label=c)
    shapes = []
    top = retta.memory._top
    monkeypatch.setattr(retta.memory, "_top",
                        lambda sims, budget: shapes.append(sims.shape) or top(sims, budget))
    for B in (1, 3):
        shapes.clear()
        block = mem.select(np.stack([unit(rng, 4) for _ in range(B)]), k=5)
        assert block["z"].shape[:2] == (B, 20)
        assert shapes == [(4 * B, 10)]


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_top_matches_a_per_row_sort_oracle(data):
    """`_top` equals a plain per-row sort, best first with ties to the higher column.

    Values come from a pool of 1-5, so ties are common and often cross the budget's
    cut, with 0.0 and -0.0 (equal, so tied) in some pools; rows are padded with -inf
    at their high columns to any length, below the budget too, as `select` pads a
    short queue.  Per row the first min(budget, finite count) columns are compared,
    the ones `select` keeps.
    """
    R = data.draw(st.integers(1, 40), label="rows")
    n = data.draw(st.integers(1, 60), label="columns")
    budget = data.draw(st.integers(1, 70), label="budget")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pool = rng.standard_normal(data.draw(st.integers(1, 5), label="pool"))
    if data.draw(st.booleans(), label="signed zeros"):
        pool[:2] = [0.0, -0.0][: len(pool)]
    sims = rng.choice(pool, size=(R, n))
    finite = data.draw(st.lists(st.integers(0, n), min_size=R, max_size=R), label="finite")
    for row, count in zip(sims, finite):
        row[count:] = -np.inf

    top = retta.memory._top(sims.copy(), budget)
    assert top.shape == (R, min(budget, n))
    for v, count, got in zip(sims, finite, top):
        ranked = sorted(range(n), key=lambda j: (-v[j], -j))
        keep = min(budget, count)
        assert got[:keep].tolist() == ranked[:keep]


def test_top_ranks_a_block_by_one_partition_of_its_values(monkeypatch):
    """A deterministic counter beside the timings: on a (400, 100) block with budget 5,
    `_top` makes one `np.partition` call and no `np.argpartition` or `np.lexsort` call."""
    calls = {"partition": 0, "argpartition": 0, "lexsort": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    sims = np.random.default_rng(14).standard_normal((400, 100))
    top = retta.memory._top(sims, 5)
    assert calls == {"partition": 1, "argpartition": 0, "lexsort": 0}
    np.testing.assert_array_equal(top, np.argsort(-sims, axis=1)[:, :5])


# ---------------------------------------------------------------- uniform draw


class CountingGenerator(np.random.Generator):
    """A Generator that counts its `choice` calls, to tell the block draw from its fallback."""

    calls = 0

    def choice(self, *args, **kwargs):
        self.calls += 1
        return super().choice(*args, **kwargs)


def generator_at(state: dict) -> CountingGenerator:
    rng = CountingGenerator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def per_call_draws(rng, sizes, budget, n_queries):
    """The reference draw: one `rng.choice` per query and then per queue, stacked per queue."""
    draws = [[rng.choice(n, size=min(budget, n), replace=False) for n in sizes]
             for _ in range(n_queries)]
    return [np.stack([row[j] for row in draws]) for j in range(len(sizes))]


def start_state(seed: int, half_word: bool) -> dict:
    """A PCG64 state, with a buffered 32-bit half word when `half_word` is set."""
    rng = np.random.default_rng(seed)
    if half_word:
        rng.integers(2**32, dtype=np.uint32)
    return rng.bit_generator.state


def assert_block_draw_equals_per_call(state, sizes, budget, n_queries) -> int:
    """`_uniform_draws` against the per-call loop from the same state: the same indices and
    the same final generator state.  Returns the block draw's `choice` calls."""
    block, loop = generator_at(state), generator_at(state)
    got = _uniform_draws(block, sizes, budget, n_queries)
    expected = per_call_draws(loop, sizes, budget, n_queries)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.shape == e.shape
        np.testing.assert_array_equal(g, e)
    assert block.bit_generator.state == loop.bit_generator.state
    return block.calls


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_block_draw_equals_per_call_choice(data):
    """Ragged windows (some below the budget, pops of 1 and 2), the split budget k and
    the unsplit C * k, from states with and without a buffered half word."""
    C = data.draw(st.integers(1, 5), label="classes")
    k = data.draw(st.integers(1, 8), label="k")
    split = data.draw(st.booleans(), label="split")
    budget = k if split else C * k
    sizes = data.draw(st.lists(st.one_of(st.integers(1, 2), st.integers(1, 3 * budget)),
                               min_size=1, max_size=C if split else 1), label="sizes")
    state = start_state(data.draw(st.integers(0, 2**32 - 1), label="seed"),
                        data.draw(st.booleans(), label="half_word"))
    assert_block_draw_equals_per_call(state, sizes, budget,
                                      data.draw(st.integers(1, 8), label="queries"))


@pytest.mark.parametrize("pop", [9999, 10000, 10001, 10002, 19999, 20000, 20001])
@pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
def test_block_draw_equals_per_call_choice_at_the_tail_shuffle_cut(pop, offset):
    """`choice` shuffles a tail instead of running Floyd's algorithm once pop > 10000 and
    size > pop // 50; sizes around that cut fall back to `choice` exactly there."""
    size = pop // 50 + offset
    state = start_state(pop + offset, half_word=offset % 2 == 1)
    calls = assert_block_draw_equals_per_call(state, [pop, 7], size, 2)
    assert calls == (4 if pop > 10000 and size > pop // 50 else 0)


def test_block_draw_makes_no_choice_call():
    """The reference shapes (warm and warm-up queues, split and unsplit) take the block
    path: no `choice` call."""
    for sizes, budget in (([10, 10, 10, 10], 5), ([10, 3, 1, 10], 5), ([40], 20), ([7], 20)):
        assert assert_block_draw_equals_per_call(start_state(0, False), sizes, budget, 64) == 0


@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_block_draw_in_blocks_of_queries_equals_per_call_choice(data):
    """The words fetched `block` queries at a time: the same indices and final state for
    any block size, from states with and without a buffered half word."""
    sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=5), label="sizes")
    budget = data.draw(st.integers(1, 6), label="budget")
    n_queries = data.draw(st.integers(1, 9), label="queries")
    state = start_state(data.draw(st.integers(0, 2**32 - 1), label="seed"),
                        data.draw(st.booleans(), label="half_word"))
    block, loop = generator_at(state), generator_at(state)
    got = _uniform_draws(block, sizes, budget, n_queries,
                         data.draw(st.integers(1, n_queries), label="block"))
    for g, e in zip(got, per_call_draws(loop, sizes, budget, n_queries), strict=True):
        assert g.dtype == e.dtype and g.shape == e.shape
        np.testing.assert_array_equal(g, e)
    assert block.bit_generator.state == loop.bit_generator.state
    assert block.calls == 0


def test_block_draw_falls_back_for_the_block_of_queries_that_would_redraw():
    """A buffered zero half word makes the first block's first draw redraw: that block of
    2 queries (4 `choice` calls) falls back, and the blocks after it draw as one."""
    state = start_state(5, False)
    state.update(has_uint32=1, uinteger=0)
    block, loop = generator_at(state), generator_at(state)
    got = _uniform_draws(block, [7, 7], 3, 5, 2)
    for g, e in zip(got, per_call_draws(loop, [7, 7], 3, 5), strict=True):
        np.testing.assert_array_equal(g, e)
    assert block.bit_generator.state == loop.bit_generator.state
    assert block.calls == 4


def test_block_draw_falls_back_when_lemire_would_redraw():
    """A zero word is rejected by Lemire's method whenever (2**32 - 1 - j) % (j + 1) > 0:
    a buffered zero half word makes the first draw (j = 7 - 3 = 4) redraw, and the block
    falls back to the per-call loop."""
    state = start_state(5, False)
    state.update(has_uint32=1, uinteger=0)
    assert (2**32 - 1 - 4) % 5 > 0
    assert assert_block_draw_equals_per_call(state, [7, 7], 3, 4) == 8


# ---------------------------------------------------------------- weigh


def support_of(rng, n, d=4, entropies=None):
    """A one-query support of n random rows as `retrieve` gives it: unit z, random dH/dz,
    d_weight = dH/dz * z."""
    z = np.stack([unit(rng, d) for _ in range(n)])
    d_bias = rng.standard_normal((n, d))
    entropy = rng.uniform(0.0, 1.2, n) if entropies is None else np.array(entropies, dtype=float)
    return {"z": z, "d_bias": d_bias, "d_weight": d_bias * z, "entropy": entropy,
            "domain": np.full(n, -1)}


def test_weights_uniform_when_both_factors_collapse():
    rng = np.random.default_rng(13)
    raw, weights = weigh(support_of(rng, 5, entropies=[0.0] * 5), unit(rng, 4), beta=0.0)
    np.testing.assert_allclose(raw, np.ones(5), atol=1e-15)
    np.testing.assert_allclose(weights, np.full(5, 0.2), atol=1e-15)


def test_zero_distance_entry_keeps_pure_entropy_weight():
    rng = np.random.default_rng(14)
    support = support_of(rng, 2, entropies=[0.7, 0.2])  # near, far
    raw, _ = weigh(support, support["z"][0], beta=3.0)
    np.testing.assert_allclose(raw[0], np.exp(-0.7), rtol=1e-15)


def test_weights_match_direct_formula_oracle():
    rng = np.random.default_rng(15)
    for _ in range(50):
        support = support_of(rng, int(rng.integers(1, 12)))
        query = unit(rng, 4)
        beta = float(rng.uniform(0.0, 8.0))
        raw, weights = weigh(support, query, beta)
        expected = np.array([np.exp(-h) * np.exp(-beta * np.linalg.norm(query - z))
                             for z, h in zip(support["z"], support["entropy"])])
        np.testing.assert_allclose(raw, expected, rtol=1e-14)
        np.testing.assert_allclose(weights, expected / expected.sum(), rtol=1e-12)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert np.all(raw > 0.0)


def test_weigh_is_permutation_equivariant():
    rng = np.random.default_rng(16)
    support = support_of(rng, 8)
    query = unit(rng, 4)
    base_raw, base = weigh(support, query, beta=4.0)
    perm = np.random.default_rng(1).permutation(8)
    shuffled_raw, shuffled = weigh({key: v[perm] for key, v in support.items()}, query, beta=4.0)
    # the normalizing sum's rounding depends on entry order, so equivariance
    # holds to machine precision rather than bitwise
    np.testing.assert_allclose(shuffled, base[perm], rtol=1e-14)
    np.testing.assert_allclose(shuffled_raw, base_raw[perm], rtol=1e-14)


def test_raising_beta_shifts_weight_toward_the_nearest_entry():
    rng = np.random.default_rng(17)
    for _ in range(30):
        support = support_of(rng, 6)
        query = unit(rng, 4)
        dists = [np.linalg.norm(query - z) for z in support["z"]]
        near, far = int(np.argmin(dists)), int(np.argmax(dists))
        prev_ratio = None
        for beta in (0.0, 1.0, 3.0, 9.0):
            _, w = weigh(support, query, beta)
            ratio = w[far] / w[near]
            if prev_ratio is not None:
                assert ratio <= prev_ratio * (1.0 + 1e-12)
            prev_ratio = ratio


def test_weighting_factors_can_be_disabled():
    rng = np.random.default_rng(18)
    support = support_of(rng, 4)
    query = unit(rng, 4)
    no_ent, _ = weigh(support, query, beta=2.0, entropy_weighting=False)
    expected = np.array([np.exp(-2.0 * np.linalg.norm(query - z)) for z in support["z"]])
    np.testing.assert_allclose(no_ent, expected, rtol=1e-14)
    no_sim, _ = weigh(support, query, beta=2.0, similarity_weighting=False)
    np.testing.assert_allclose(no_sim, np.exp(-support["entropy"]), rtol=1e-14)
    _, neither = weigh(support, query, beta=0.0, entropy_weighting=False,
                       similarity_weighting=False)
    np.testing.assert_allclose(neither, 0.25, atol=1e-15)


def test_weigh_rejects_empty_support_and_negative_beta():
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError, match="empty"):
        weigh({}, unit(rng, 4), beta=1.0)
    with pytest.raises(ValueError, match="beta"):
        weigh(support_of(rng, 1), unit(rng, 4), beta=-0.5)


def test_large_beta_normalization_survives_raw_underflow_threshold():
    # log-domain shift keeps normalized weights healthy even when raw values
    # span hundreds of orders of magnitude
    rng = np.random.default_rng(20)
    support = support_of(rng, 4, entropies=[0.5] * 4)
    _, weights = weigh(support, support["z"][0], beta=500.0)
    assert abs(weights.sum() - 1.0) < 1e-12
    assert weights[0] > 0.99


@settings(max_examples=60)
@given(data=st.data())
def test_rescaled_raw_weights_leave_weights_and_signsgd_logits_unchanged(data):
    """Weights depend on the raw weights only up to a positive scale.

    A power-of-two scale is exact in binary, so weights and the SignSGD-adapted
    logits stay bitwise equal; any scale in [1e-6, 1e6] moves a weight by at
    most 1e-15 relative.  Entropies in [0, 5], distances in [0, 2] and beta in
    [0, 20] keep every raw weight above e^-45, so scaled ones stay normal floats.
    Raw weights w are renormalized as w / w.sum().
    """
    n = data.draw(st.integers(1, 30), label="support")
    d = data.draw(st.integers(2, 16), label="dim")
    C = data.draw(st.integers(2, 5), label="classes")
    beta = data.draw(st.floats(0.0, 20.0), label="beta")
    entropy_weighting = data.draw(st.booleans(), label="entropy_weighting")
    similarity_weighting = data.draw(st.booleans(), label="similarity_weighting")
    entropies = data.draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n), label="entropies")
    power = data.draw(st.integers(-40, 40), label="power")
    scale = data.draw(st.floats(1e-6, 1e6), label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    support = support_of(rng, n, d, entropies)
    query = unit(rng, d)
    bank = TextBank(np.stack([unit(rng, d) for _ in range(C)]), float(rng.uniform(0.0, 4.0)),
                    [f"c{i}" for i in range(C)])

    raw, _ = weigh(support, query, beta, entropy_weighting=entropy_weighting,
                   similarity_weighting=similarity_weighting)

    def normalized(w):
        return w / w.sum()

    base, exact = normalized(raw), normalized(2.0**power * raw)
    np.testing.assert_array_equal(exact, base)
    params0 = AffineParams.pretrained(d)
    logits = [predict(forward(query, signsgd_step(params0, aggregate(support, w), 1e-2)),
                      bank).logits for w in (base, exact)]
    np.testing.assert_array_equal(logits[1], logits[0])
    np.testing.assert_allclose(normalized(scale * raw), base, rtol=1e-15, atol=0)


# ---------------------------------------------------------------- caller-owned memory

DOMAINS = ("a", "b", "c")


class CallerMemory(RuleBasedStateMachine):
    """A memory and generator that a caller keeps across cached and recomputing
    `process_batch` calls, direct `insert_block` calls and `select` probes, against a
    plain model: a deque(maxlen) per queue, a brute-force scan with ties to the newer
    row, and the per-call `rng.choice` loop for uniform draws.

    Batches run from 1 row to 2 * capacity + 3, so windows move to their first row
    and the columns are laid out anew; embeddings come from a pool of 4, so exact
    similarity ties occur.  A model row is (z bytes, d_bias bytes, entropy, domain).
    """

    @initialize(C=st.integers(2, 3), K=st.integers(1, 4), k=st.integers(1, 3),
                split=st.booleans(), topk=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def start(self, C, K, k, split, topk, seed):
        rng = np.random.default_rng(seed)
        self.bank = TextBank(np.stack([unit(rng, 4) for _ in range(C)]), float(np.log(10.0)),
                             [f"c{c}" for c in range(C)])
        self.pool = np.stack([unit(rng, 4) for _ in range(4)])
        cap = K if split else C * K
        self.cfg = AdapterConfig(capacity_per_class=K, retrieve_k=k, beta=5.0 if topk else 0.0,
                                 batch_size=2 * cap + 3, split_memory=split,
                                 topk_selection=topk, seed=seed)
        self.budget = k if split else C * k
        self.mem = ClassMemory(C, K, split=split)
        self.rng, self.model_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        self.model = [deque(maxlen=cap) for _ in range(C if split else 1)]

    def rows(self, data):
        """A block of pool embeddings with their gradient pass and domain names."""
        r = data.draw(st.integers(1, self.cfg.batch_size), label="rows")
        picks = data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r), label="pool")
        codes = data.draw(st.lists(st.integers(-1, 2), min_size=r, max_size=r), label="domains")
        z = self.pool[picks]
        return z, batch_grads(z, AffineParams.pretrained(4), self.bank), codes

    def append(self, z, post, labels, codes):
        names = DOMAINS + (None,)
        for row, label in enumerate(labels):
            self.model[label if self.cfg.split_memory else 0].append(
                (z[row].tobytes(), post.d_bias[row].tobytes(), float(post.entropy[row]),
                 names[codes[row]]))

    def scan(self, queries, k, rng=None):
        """The model's support rows per query: top-k by a scan, or with `rng` the
        per-call uniform draw."""
        budget = k if self.cfg.split_memory else len(self.bank.class_names) * k
        supports = []
        for query in queries:
            support = []
            for queue in self.model:
                if not queue:
                    continue
                if rng is None:
                    sims = np.stack([np.frombuffer(row[0]) for row in queue]) @ query
                    ranked = sorted(range(len(queue)), key=lambda j: (-sims[j], -j))[:budget]
                else:
                    ranked = rng.choice(len(queue), size=min(budget, len(queue)),
                                        replace=False).tolist()
                support.extend(queue[j] for j in ranked)
            supports.append(support)
        return supports

    def selected(self, queries, k, rng=None):
        """The memory's `select` support rows per query, as model rows."""
        block, names = self.mem.select(queries, k, rng), self.mem.domain_names + (None,)
        if not block:
            return [[] for _ in queries]
        return [[(z.tobytes(), g.tobytes(), float(h), names[c])
                 for z, g, h, c in zip(*(block[key][i] for key in COLUMNS))]
                for i in range(len(queries))]

    @rule(data=st.data(), cached=st.booleans())
    def process(self, data, cached):
        """One `process_batch` call, and the other mode on a clone of the memory and
        generator: equal within 1e-12, and both memories and generators equal after."""
        z, post, codes = self.rows(data)
        batch = Stream(z, np.full(len(z), -1), np.array(codes, dtype=np.int64), DOMAINS)
        mem, rng = copy.deepcopy(self.mem), copy.deepcopy(self.rng)
        got = process_batch(batch, self.mem, self.cfg, self.bank, self.rng,
                            recompute_grads=not cached)
        other = process_batch(batch, mem, self.cfg, self.bank, rng, recompute_grads=cached)
        np.testing.assert_array_equal(got.support_size, other.support_size)
        assert ([o.support_domain_ids for o in got]
                == [o.support_domain_ids for o in other])
        np.testing.assert_array_equal(got.zero_shot.logits, other.zero_shot.logits)
        gap = np.max(np.abs(got.adapted.logits - other.adapted.logits))
        assert gap <= 1e-12 * np.max(np.abs(other.adapted.logits))
        assert queues(mem) == queues(self.mem)
        assert rng.bit_generator.state == self.rng.bit_generator.state
        self.append(z, post, post.labels, codes)
        if not self.cfg.topk_selection:
            self.scan(z, self.cfg.retrieve_k, self.model_rng)

    @rule(data=st.data())
    def insert(self, data):
        z, post, codes = self.rows(data)
        labels = data.draw(st.lists(st.integers(0, len(self.model) - 1), min_size=len(z),
                                    max_size=len(z)), label="labels")
        names = DOMAINS + (None,)
        self.mem.insert_block(z, post.d_bias, post.entropy, np.array(labels),
                              [names[c] for c in codes])
        self.append(z, post, labels if self.cfg.split_memory else [0] * len(z), codes)

    @rule(data=st.data(), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def probe(self, data, k, seed):
        """`select` of pool and random queries, top-k and uniform, against the model."""
        queries = np.stack([self.pool[i] if i < 4 else unit(np.random.default_rng(seed), 4)
                            for i in data.draw(st.lists(st.integers(0, 4), min_size=1,
                                                        max_size=3), label="queries")])
        assert self.selected(queries, k) == self.scan(queries, k)
        assert (self.selected(queries, k, np.random.default_rng(seed))
                == self.scan(queries, k, np.random.default_rng(seed)))

    @invariant()
    def agrees(self):
        assert queues(self.mem) == [list(queue) for queue in self.model]
        assert len(self.mem) == sum(map(len, self.model))
        assert self.rng.bit_generator.state == self.model_rng.bit_generator.state
        assert (self.selected(self.pool, self.cfg.retrieve_k)
                == self.scan(self.pool, self.cfg.retrieve_k))


TestCallerMemory = CallerMemory.TestCase
TestCallerMemory.settings = settings(max_examples=25, stateful_step_count=12, derandomize=True,
                                     deadline=None, database=None)

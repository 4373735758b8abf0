"""FIFO cache semantics, top-k retrieval vs brute force, and weighting."""

from __future__ import annotations

import weakref
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retta.memory
from retta.adapter import aggregate, signsgd_step
from retta.memory import ClassMemory, MemoryEntry, SupportSet, _uniform_draws, weigh
from retta.model import AffineParams, GradRecord, TextBank, forward, predict


def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def grad_at(rng, z):
    """A random dH/dz for embedding z, with d_weight = dH/dz * z as the memory requires."""
    dH_dz = rng.standard_normal(len(z))
    return GradRecord(dH_dz * z, dH_dz)


def entry(rng, d=4, entropy=None, domain=None):
    z = unit(rng, d)
    return MemoryEntry(
        z=z,
        grad=grad_at(rng, z),
        entropy=float(rng.uniform(0.0, 1.2)) if entropy is None else entropy,
        domain_id=domain,
    )


# ---------------------------------------------------------------- insert


def test_fifo_keeps_the_last_k():
    rng = np.random.default_rng(0)
    mem = ClassMemory(num_classes=2, capacity_per_class=2)
    entries = [entry(rng) for _ in range(3)]
    for e in entries:
        mem.insert(e, pseudo_label=0)
    held = list(mem.queues[0])
    assert len(held) == 2
    assert held[0] is entries[1] and held[1] is entries[2]


def test_insert_leaves_other_queues_untouched():
    rng = np.random.default_rng(1)
    mem = ClassMemory(num_classes=3, capacity_per_class=4)
    for _ in range(6):
        mem.insert(entry(rng), pseudo_label=0)
    assert len(mem.queues[1]) == 0 and len(mem.queues[2]) == 0


def test_interleaved_inserts_preserve_per_class_arrival_order():
    rng = np.random.default_rng(2)
    mem = ClassMemory(num_classes=3, capacity_per_class=50)
    arrivals = {c: [] for c in range(3)}  # replay oracle
    for _ in range(120):
        c = int(rng.integers(3))
        e = entry(rng)
        arrivals[c].append(e)
        mem.insert(e, pseudo_label=c)
    for c in range(3):
        expected = arrivals[c][-50:]
        assert [id(e) for e in mem.queues[c]] == [id(e) for e in expected]


def test_seq_strictly_increases_across_all_queues():
    rng = np.random.default_rng(3)
    mem = ClassMemory(num_classes=4, capacity_per_class=10)
    last = -1
    for _ in range(100):
        e = entry(rng)
        mem.insert(e, pseudo_label=int(rng.integers(4)))
        assert e.seq > last
        last = e.seq


def test_capacity_invariants_after_many_random_inserts():
    rng = np.random.default_rng(4)
    split = ClassMemory(num_classes=5, capacity_per_class=16)
    unsplit = ClassMemory(num_classes=5, capacity_per_class=16, split=False)
    for _ in range(10_000):
        c = int(rng.integers(5))
        e = entry(rng)
        split.insert(e, c)
        unsplit.insert(entry(rng), c)
        assert all(len(q) <= 16 for q in split.queues)
        assert len(unsplit.queues[0]) <= 5 * 16
    assert len(split) == 5 * 16
    assert len(unsplit) == 5 * 16


def test_insert_rejects_out_of_range_class():
    rng = np.random.default_rng(5)
    mem = ClassMemory(num_classes=2, capacity_per_class=4)
    with pytest.raises(ValueError, match="out of range"):
        mem.insert(entry(rng), pseudo_label=2)


def test_insert_rejects_dim_mismatch_and_leaves_memory_intact():
    rng = np.random.default_rng(5)
    mem = ClassMemory(num_classes=1, capacity_per_class=2)
    held = [entry(rng), entry(rng)]
    for e in held:
        mem.insert(e, pseudo_label=0)
    z = unit(rng, 4)
    wrong = MemoryEntry(z=z, grad=grad_at(rng, z[:3]), entropy=0.1)
    for bad in (entry(rng, d=3), wrong):
        with pytest.raises(ValueError, match="dim"):
            mem.insert(bad, pseudo_label=0)
    assert [id(e) for e in mem.queues[0]] == [id(e) for e in held]


def test_insert_rejects_a_d_weight_that_is_not_d_bias_times_z_and_leaves_memory_intact():
    rng = np.random.default_rng(34)
    mem = ClassMemory(num_classes=2, capacity_per_class=2)
    for c in (0, 1):
        mem.insert(entry(rng), pseudo_label=c)
    before = [as_rows(q) for q in mem.queues]
    z, d_bias = unit(rng, 4), rng.standard_normal(4)
    off_by_one_ulp = d_bias * z
    off_by_one_ulp[2] = np.nextafter(off_by_one_ulp[2], np.inf)
    for d_weight in (rng.standard_normal(4), off_by_one_ulp):
        bad = MemoryEntry(z=z, grad=GradRecord(d_weight, d_bias), entropy=0.1)
        with pytest.raises(ValueError, match="d_weight"):
            mem.insert(bad, pseudo_label=0)
        assert bad.seq == -1
    assert [as_rows(q) for q in mem.queues] == before
    e = entry(rng)
    mem.insert(e, pseudo_label=0)
    assert e.seq == 2


def test_entry_rejects_off_unit_embedding():
    with pytest.raises(ValueError, match="norm"):
        MemoryEntry(z=np.array([1.0, 1.0]), grad=GradRecord(np.zeros(2), np.zeros(2)), entropy=0.5)


def block_of(rng, r, d, C, pool=None):
    """Arguments of `insert_block` for r rows: z from `pool` when given, random dH/dz."""
    z = (np.stack([pool[int(i)] for i in rng.integers(len(pool), size=r)]) if pool is not None
         else np.stack([unit(rng, d) for _ in range(r)]))
    return (z, rng.standard_normal((r, d)), rng.uniform(0.0, 1.2, r), rng.integers(C, size=r),
            [f"dom{i}" for i in rng.integers(3, size=r)])


def as_rows(entries):
    """Every field of each entry, for bitwise comparison."""
    return [(e.seq, e.pseudo_class, e.z.tobytes(), e.grad.d_weight.tobytes(),
             e.grad.d_bias.tobytes(), repr(e.entropy), e.domain_id) for e in entries]


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
            by_row.insert(MemoryEntry(z[j], GradRecord(d_bias[j] * z[j], d_bias[j]),
                                      float(entropy[j]), domain_id=domains[j]), int(labels[j]))
        assert [as_rows(q) for q in by_block.queues] == [as_rows(q) for q in by_row.queues]
        assert len(by_block) == len(by_row)

        queries = np.stack([pool[int(j)] for j in rng.integers(len(pool), size=3)])
        for draw in (None, i):
            got, expected = (mem.select(queries, k, None if draw is None
                                        else np.random.default_rng(draw))
                             for mem in (by_block, by_row))
            for key in ("z", "d_weight", "d_bias", "entropy", "domain"):
                np.testing.assert_array_equal(got[key], expected[key])
            for q in range(len(queries)):
                assert ([e.seq for e in by_block.entries(got["rows"][q])]
                        == [e.seq for e in by_row.entries(expected["rows"][q])])


def test_entries_built_on_demand_keep_their_identity():
    rng = np.random.default_rng(30)
    mem = ClassMemory(num_classes=3, capacity_per_class=5)
    mem.insert_block(*block_of(rng, 12, 4, 3))
    first = mem.queues
    assert [[id(e) for e in q] for q in mem.queues] == [[id(e) for e in q] for q in first]
    support = mem.retrieve(unit(rng, 4), k=2)
    held = {id(e) for q in first for e in q}
    assert all(id(e) in held for e in support.entries)


def test_evicted_row_releases_its_entry_and_a_refilled_row_gets_a_new_one():
    rng = np.random.default_rng(31)
    mem = ClassMemory(num_classes=1, capacity_per_class=2)
    mem.insert_block(*block_of(rng, 2, 4, 1))
    released = [weakref.ref(e) for e in mem.queues[0]]
    old_rows = mem.select(unit(rng, 4)[None], k=2)["rows"]
    mem.insert_block(*block_of(rng, 2, 4, 1))
    assert [ref() for ref in released] == [None, None]
    refill = block_of(rng, 2, 4, 1)
    mem.insert_block(*refill)  # the window is compacted back onto the first rows
    assert sorted(mem.select(unit(rng, 4)[None], k=2)["rows"][0]) == sorted(old_rows[0])
    new = mem.queues[0]
    assert [e.seq for e in new] == [4, 5]
    np.testing.assert_array_equal(np.stack([e.z for e in new]), refill[0])
    np.testing.assert_array_equal(np.stack([e.grad.d_bias for e in new]), refill[1])


def test_block_insert_rejects_out_of_range_label_and_leaves_memory_intact():
    rng = np.random.default_rng(32)
    mem = ClassMemory(num_classes=3, capacity_per_class=4)
    mem.insert_block(*block_of(rng, 5, 4, 3))
    before = [as_rows(q) for q in mem.queues]
    for bad in (3, -1):
        z, d_bias, entropy, labels, domains = block_of(rng, 6, 4, 3)
        labels[[2, 4]] = bad
        with pytest.raises(ValueError, match="row 2: pseudo_label .* out of range"):
            mem.insert_block(z, d_bias, entropy, labels, domains)
    assert [as_rows(q) for q in mem.queues] == before
    e = entry(rng)
    mem.insert(e, pseudo_label=0)
    assert e.seq == 5


def test_block_insert_rejects_dim_mismatch_and_leaves_memory_intact():
    rng = np.random.default_rng(33)
    mem = ClassMemory(num_classes=2, capacity_per_class=4)
    mem.insert_block(*block_of(rng, 5, 4, 2))
    before = [as_rows(q) for q in mem.queues]
    for column in range(2):  # z, d_bias
        args = list(block_of(rng, 3, 4, 2))
        args[column] = args[column][:, :3]
        with pytest.raises(ValueError, match="row 0: .* dim"):
            mem.insert_block(*args)
    assert [as_rows(q) for q in mem.queues] == before
    assert len(mem) == 5


# ---------------------------------------------------------------- retrieve


def brute_force_retrieve(mem: ClassMemory, query: np.ndarray, k: int):
    """Full scan-and-sort per queue: the oracle `retrieve` must match.

    Similarities use the same stacked matrix-vector product as the engine so
    the comparison exercises the selection logic, not BLAS rounding.
    """
    budget = k if mem.split else mem.num_classes * k
    picked = []
    for q in mem.queues:
        if not q:
            continue
        entries = list(q)
        sims = np.stack([e.z for e in entries]) @ query
        scored = sorted(zip(sims, entries), key=lambda t: (-t[0], -t[1].seq))
        picked.extend(e for _, e in scored[: min(budget, len(scored))])
    return picked


def test_retrieve_saturates_to_whole_memory():
    rng = np.random.default_rng(6)
    mem = ClassMemory(num_classes=3, capacity_per_class=10)
    for _ in range(12):
        mem.insert(entry(rng), pseudo_label=int(rng.integers(3)))
    support = mem.retrieve(unit(rng, 4), k=50)
    assert len(support) == len(mem)


def test_query_equal_to_stored_embedding_ranks_first():
    rng = np.random.default_rng(7)
    mem = ClassMemory(num_classes=2, capacity_per_class=10)
    target = entry(rng)
    mem.insert(target, pseudo_label=0)
    for _ in range(9):
        mem.insert(entry(rng), pseudo_label=0)
    support = mem.retrieve(target.z, k=3)
    assert support.entries[0] is target


def test_retrieve_matches_brute_force_oracle():
    rng = np.random.default_rng(8)
    for trial in range(1000):
        C = int(rng.integers(2, 6))
        K = int(rng.integers(2, 51))
        split = bool(rng.integers(2))
        mem = ClassMemory(num_classes=C, capacity_per_class=K, split=split)
        d = int(rng.integers(2, 9))
        n = int(rng.integers(0, 120))
        pool = [unit(rng, d) for _ in range(max(n // 3, 1))]
        for _ in range(n):
            # reuse embeddings from a small pool so exact similarity ties occur
            z = pool[int(rng.integers(len(pool)))]
            e = MemoryEntry(z=z, grad=GradRecord(np.zeros(d), np.zeros(d)), entropy=0.1)
            mem.insert(e, pseudo_label=int(rng.integers(C)))
        query = pool[int(rng.integers(len(pool)))] if rng.random() < 0.5 else unit(rng, d)
        k = int(rng.integers(1, 8))
        got = mem.retrieve(query, k).entries
        expected = brute_force_retrieve(mem, query, k)
        assert [id(e) for e in got] == [id(e) for e in expected], f"trial {trial}"


def test_similarity_tie_breaks_to_more_recent_entry():
    rng = np.random.default_rng(9)
    mem = ClassMemory(num_classes=1, capacity_per_class=10)
    z = unit(rng, 4)
    older = MemoryEntry(z=z, grad=GradRecord(np.zeros(4), np.zeros(4)), entropy=0.1)
    newer = MemoryEntry(z=z.copy(), grad=GradRecord(np.zeros(4), np.zeros(4)), entropy=0.1)
    mem.insert(older, 0)
    mem.insert(newer, 0)
    support = mem.retrieve(z, k=1)
    assert support.entries[0] is newer


def test_unsplit_mode_retrieves_top_ck_from_single_queue():
    rng = np.random.default_rng(10)
    mem = ClassMemory(num_classes=3, capacity_per_class=20, split=False)
    for _ in range(50):
        mem.insert(entry(rng), pseudo_label=int(rng.integers(3)))
    support = mem.retrieve(unit(rng, 4), k=4)
    assert len(support) == 3 * 4


def test_empty_memory_returns_empty_support():
    mem = ClassMemory(num_classes=2, capacity_per_class=5)
    support = mem.retrieve(np.array([1.0, 0.0]), k=3)
    assert len(support) == 0


def test_retrieve_rejects_nonpositive_k():
    mem = ClassMemory(num_classes=2, capacity_per_class=5)
    with pytest.raises(ValueError, match="k"):
        mem.retrieve(np.array([1.0, 0.0]), k=0)


def test_split_retrieval_is_class_balanced_when_queues_are_warm():
    rng = np.random.default_rng(11)
    mem = ClassMemory(num_classes=4, capacity_per_class=20)
    for c in range(4):
        for _ in range(20):
            mem.insert(entry(rng), pseudo_label=c)
    support = mem.retrieve(unit(rng, 4), k=5)
    counts = {}
    for e in support.entries:
        counts[e.pseudo_class] = counts.get(e.pseudo_class, 0) + 1
    assert counts == {0: 5, 1: 5, 2: 5, 3: 5}


def test_sample_uniform_draws_without_replacement():
    rng = np.random.default_rng(12)
    mem = ClassMemory(num_classes=2, capacity_per_class=30)
    for c in range(2):
        for _ in range(30):
            mem.insert(entry(rng), pseudo_label=c)
    support = mem.sample_uniform(k=10, rng=np.random.default_rng(0))
    assert len(support) == 20
    assert len({id(e) for e in support.entries}) == 20
    per_class = {0: 0, 1: 0}
    for e in support.entries:
        per_class[e.pseudo_class] += 1
    assert per_class == {0: 10, 1: 10}


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_window_matches_deque_replay_oracle(data):
    """Queues, top-k and uniform draws match a deque(maxlen) replay after every insert.

    Runs go past 3x capacity so every queue's window is compacted several
    times; embeddings come from a small pool so exact similarity ties occur.
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
    oracle = [deque(maxlen=K if split else C * K) for _ in range(C if split else 1)]
    for i, (label, zi, qi, k) in enumerate(steps):
        e = MemoryEntry(z=pool[zi], grad=grad_at(rng, pool[zi]),
                        entropy=float(rng.uniform(0.0, 1.2)))
        mem.insert(e, pseudo_label=label)
        oracle[label if split else 0].append(e)
        assert [[id(x) for x in q] for q in mem.queues] == [[id(x) for x in q] for q in oracle]
        assert len(mem) == sum(len(q) for q in oracle)

        budget = k if split else C * k
        query = pool[qi]
        support = mem.retrieve(query, k)
        expected = []
        for q in oracle:
            if q:
                sims = np.stack([x.z for x in q]) @ query
                ranked = sorted(zip(sims, q), key=lambda t: (-t[0], -t[1].seq))
                expected.extend(x for _, x in ranked[:budget])
        assert [id(x) for x in support.entries] == [id(x) for x in expected]
        stacks = support.stacks()
        for key, value in (("z", lambda x: x.z), ("d_weight", lambda x: x.grad.d_weight),
                           ("d_bias", lambda x: x.grad.d_bias), ("entropy", lambda x: x.entropy)):
            np.testing.assert_array_equal(stacks[key], np.array([value(x) for x in expected]))

        drawn = mem.sample_uniform(k, np.random.default_rng(i)).entries
        clone = np.random.default_rng(i)
        expected = []
        for q in oracle:
            if q:
                idx = clone.choice(len(q), size=min(budget, len(q)), replace=False)
                expected.extend(q[int(j)] for j in idx)
        assert [id(x) for x in drawn] == [id(x) for x in expected]


@settings(max_examples=60)
@given(data=st.data())
def test_batched_select_matches_per_query_retrieve_and_draws(data):
    """`select` over a query block equals one `retrieve` per query; with a cloned
    generator its uniform draws equal one `sample_uniform` call per query.

    Embeddings and queries come from a small pool so exact similarity ties occur.
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
    for _ in range(data.draw(st.integers(1, 4 * C * K), label="inserts")):
        z = pool[int(rng.integers(len(pool)))]
        e = MemoryEntry(z=z, grad=grad_at(rng, z), entropy=float(rng.uniform(0.0, 1.2)),
                        domain_id=f"dom{rng.integers(3)}")
        mem.insert(e, pseudo_label=int(rng.integers(C)))
    queries = np.stack([pool[int(rng.integers(len(pool)))] if rng.random() < 0.5 else unit(rng, d)
                        for _ in range(B)])

    block = mem.select(queries, k)
    drawn = mem.select(queries, k, np.random.default_rng(seed))
    clone = np.random.default_rng(seed)
    for i, query in enumerate(queries):
        for got, expected in ((block, mem.retrieve(query, k).entries),
                              (drawn, mem.sample_uniform(k, clone).entries)):
            assert [id(e) for e in mem.entries(got["rows"][i])] == [id(e) for e in expected]
            names = [mem.domain_names[c] for c in got["domain"][i]]
            assert names == [e.domain_id for e in expected]
            for key, value in (("z", lambda e: e.z), ("entropy", lambda e: e.entropy),
                               ("d_weight", lambda e: e.grad.d_weight),
                               ("d_bias", lambda e: e.grad.d_bias)):
                np.testing.assert_array_equal(got[key][i], np.array([value(e) for e in expected]))


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_select_top_k_matches_a_per_queue_sort_oracle(data):
    """`select`'s top-k rows equal a plain oracle per query and queue: the queue's
    embeddings as the test inserted them, oldest first, scored by `z @ q` and sorted
    best first with ties to the newer entry, the first min(budget, size) kept.

    Queue sizes are unequal (empty queues, queues below the budget, queues that
    wrapped), and embeddings and queries come from a small pool, so within one block
    a tie crosses the budget's cut in some rows and not in others.
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
    queues = [deque(maxlen=cap) for _ in range(C if split else 1)]
    start = 0
    while start < len(labels):
        stop = start + int(rng.integers(1, 2 * K + 1))
        r = len(z[start:stop])
        mem.insert_block(z[start:stop], rng.standard_normal((r, d)), rng.uniform(0.0, 1.2, r),
                         labels[start:stop], [None] * r)
        for seq in range(start, min(stop, len(labels))):
            queues[labels[seq] if split else 0].append((seq, z[seq]))
        start = stop
    queries = np.stack([pool[int(rng.integers(len(pool)))] if rng.random() < 0.7
                        else unit(rng, d) for _ in range(B)])

    block = mem.select(queries, k)
    if not len(labels):
        assert block == {}
        return
    budget = k if split else C * k
    for b, query in enumerate(queries):
        expected = []
        for queue in queues:
            if queue:
                sims = np.stack([zq for _, zq in queue]) @ query
                ranked = sorted(range(len(queue)), key=lambda j: (-sims[j], -j))
                expected.extend(queue[j] for j in ranked[:budget])
        assert block["rows"].shape == (B, len(expected))
        np.testing.assert_array_equal(block["z"][b], np.array([zq for _, zq in expected]))
        assert [e.seq for e in mem.entries(block["rows"][b])] == [seq for seq, _ in expected]


def test_select_ranks_every_queue_in_one_top_call(monkeypatch):
    """A deterministic counter beside the timings: on a warm 4-queue memory one `select`
    makes one `_top` call over every (query, queue) row, for one query and for several."""
    rng = np.random.default_rng(14)
    mem = ClassMemory(num_classes=4, capacity_per_class=10)
    for c in range(4):
        for _ in range(10):
            mem.insert(entry(rng), pseudo_label=c)
    shapes = []
    top = retta.memory._top
    monkeypatch.setattr(retta.memory, "_top",
                        lambda sims, budget: shapes.append(sims.shape) or top(sims, budget))
    for B in (1, 3):
        shapes.clear()
        block = mem.select(np.stack([unit(rng, 4) for _ in range(B)]), k=5)
        assert block["rows"].shape == (B, 20)
        assert shapes == [(4 * B, 10)]


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


def test_block_draw_falls_back_when_lemire_would_redraw():
    """A zero word is rejected by Lemire's method whenever (2**32 - 1 - j) % (j + 1) > 0:
    a buffered zero half word makes the first draw (j = 7 - 3 = 4) redraw, and the block
    falls back to the per-call loop."""
    state = start_state(5, False)
    state.update(has_uint32=1, uinteger=0)
    assert (2**32 - 1 - 4) % 5 > 0
    assert assert_block_draw_equals_per_call(state, [7, 7], 3, 4) == 8


# ---------------------------------------------------------------- weigh


def test_weights_uniform_when_both_factors_collapse():
    rng = np.random.default_rng(13)
    entries = [entry(rng, entropy=0.0) for _ in range(5)]
    support = SupportSet(entries=entries)
    weighed = weigh(support, unit(rng, 4), beta=0.0)
    np.testing.assert_allclose(weighed.raw_weights, np.ones(5), atol=1e-15)
    np.testing.assert_allclose(weighed.weights, np.full(5, 0.2), atol=1e-15)


def test_zero_distance_entry_keeps_pure_entropy_weight():
    rng = np.random.default_rng(14)
    near = entry(rng, entropy=0.7)
    far = entry(rng, entropy=0.2)
    weighed = weigh(SupportSet(entries=[near, far]), near.z, beta=3.0)
    np.testing.assert_allclose(weighed.raw_weights[0], np.exp(-0.7), rtol=1e-15)


def test_weights_match_direct_formula_oracle():
    rng = np.random.default_rng(15)
    for _ in range(50):
        entries = [entry(rng) for _ in range(int(rng.integers(1, 12)))]
        query = unit(rng, 4)
        beta = float(rng.uniform(0.0, 8.0))
        weighed = weigh(SupportSet(entries=entries), query, beta)
        raw = np.array(
            [np.exp(-e.entropy) * np.exp(-beta * np.linalg.norm(query - e.z)) for e in entries]
        )
        np.testing.assert_allclose(weighed.raw_weights, raw, rtol=1e-14)
        np.testing.assert_allclose(weighed.weights, raw / raw.sum(), rtol=1e-12)
        assert abs(weighed.weights.sum() - 1.0) < 1e-12
        assert np.all(weighed.raw_weights > 0.0)


def test_weigh_is_permutation_equivariant():
    rng = np.random.default_rng(16)
    entries = [entry(rng) for _ in range(8)]
    query = unit(rng, 4)
    base = weigh(SupportSet(entries=entries), query, beta=4.0)
    perm = np.random.default_rng(1).permutation(8)
    shuffled = weigh(SupportSet(entries=[entries[i] for i in perm]), query, beta=4.0)
    # the normalizing sum's rounding depends on entry order, so equivariance
    # holds to machine precision rather than bitwise
    np.testing.assert_allclose(shuffled.weights, base.weights[perm], rtol=1e-14)
    np.testing.assert_allclose(shuffled.raw_weights, base.raw_weights[perm], rtol=1e-14)


def test_raising_beta_shifts_weight_toward_the_nearest_entry():
    rng = np.random.default_rng(17)
    for _ in range(30):
        entries = [entry(rng) for _ in range(6)]
        query = unit(rng, 4)
        dists = [np.linalg.norm(query - e.z) for e in entries]
        near, far = int(np.argmin(dists)), int(np.argmax(dists))
        prev_ratio = None
        for beta in (0.0, 1.0, 3.0, 9.0):
            w = weigh(SupportSet(entries=entries), query, beta).weights
            ratio = w[far] / w[near]
            if prev_ratio is not None:
                assert ratio <= prev_ratio * (1.0 + 1e-12)
            prev_ratio = ratio


def test_weighting_factors_can_be_disabled():
    rng = np.random.default_rng(18)
    entries = [entry(rng) for _ in range(4)]
    query = unit(rng, 4)
    no_ent = weigh(SupportSet(entries=entries), query, beta=2.0, entropy_weighting=False)
    expected = np.array([np.exp(-2.0 * np.linalg.norm(query - e.z)) for e in entries])
    np.testing.assert_allclose(no_ent.raw_weights, expected, rtol=1e-14)
    no_sim = weigh(SupportSet(entries=entries), query, beta=2.0, similarity_weighting=False)
    expected = np.array([np.exp(-e.entropy) for e in entries])
    np.testing.assert_allclose(no_sim.raw_weights, expected, rtol=1e-14)
    neither = weigh(SupportSet(entries=entries), query, beta=0.0,
                    entropy_weighting=False, similarity_weighting=False)
    np.testing.assert_allclose(neither.weights, 0.25, atol=1e-15)


def test_weigh_rejects_empty_support_and_negative_beta():
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError, match="empty"):
        weigh(SupportSet(entries=[]), unit(rng, 4), beta=1.0)
    with pytest.raises(ValueError, match="beta"):
        weigh(SupportSet(entries=[entry(rng)]), unit(rng, 4), beta=-0.5)


def test_large_beta_normalization_survives_raw_underflow_threshold():
    # log-domain shift keeps normalized weights healthy even when raw values
    # span hundreds of orders of magnitude
    rng = np.random.default_rng(20)
    entries = [entry(rng, entropy=0.5) for _ in range(4)]
    query = entries[0].z
    weighed = weigh(SupportSet(entries=entries), query, beta=500.0)
    assert abs(weighed.weights.sum() - 1.0) < 1e-12
    assert weighed.weights[0] > 0.99


def test_with_raw_weights_normalizes_by_the_sum():
    rng = np.random.default_rng(21)
    entries = [entry(rng) for _ in range(3)]
    support = SupportSet(entries=entries).with_raw_weights(np.array([1.0, 3.0, 4.0]))
    np.testing.assert_allclose(support.weights, [0.125, 0.375, 0.5], atol=1e-15)
    with pytest.raises(ValueError, match="positive"):
        SupportSet(entries=entries).with_raw_weights(np.array([1.0, 0.0, 2.0]))


@settings(max_examples=60)
@given(data=st.data())
def test_rescaled_raw_weights_leave_weights_and_signsgd_logits_unchanged(data):
    """Weights depend on the raw weights only up to a positive scale.

    A power-of-two scale is exact in binary, so weights and the SignSGD-adapted
    logits stay bitwise equal; any scale in [1e-6, 1e6] moves a weight by at
    most 1e-15 relative.  Entropies in [0, 5], distances in [0, 2] and beta in
    [0, 20] keep every raw weight above e^-45, so scaled ones stay normal floats.
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
    entries = [entry(rng, d, entropy=h) for h in entropies]
    query = unit(rng, d)
    bank = TextBank(np.stack([unit(rng, d) for _ in range(C)]), float(rng.uniform(0.0, 4.0)),
                    [f"c{i}" for i in range(C)])

    raw = weigh(SupportSet(entries=entries), query, beta, entropy_weighting=entropy_weighting,
                similarity_weighting=similarity_weighting).raw_weights
    base = SupportSet(entries=entries).with_raw_weights(raw)
    exact = SupportSet(entries=entries).with_raw_weights(2.0**power * raw)
    np.testing.assert_array_equal(exact.weights, base.weights)
    params0 = AffineParams.pretrained(d)
    logits = [predict(forward(query, signsgd_step(params0, aggregate(s), 1e-2)), bank).logits
              for s in (base, exact)]
    np.testing.assert_array_equal(logits[1], logits[0])
    scaled = SupportSet(entries=entries).with_raw_weights(scale * raw)
    np.testing.assert_allclose(scaled.weights, base.weights, rtol=1e-15, atol=0)

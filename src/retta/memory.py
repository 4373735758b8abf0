"""Class-split FIFO cache of embeddings and gradients, with top-k retrieval.

The cache keeps one FIFO queue per pseudo-class (or a single queue in the
unsplit ablation mode).  Each entry stores the embedding computed at the
pretrained parameters together with that sample's entropy gradient, so later
queries can assemble an update from cached pieces without re-running the
model.  Retrieval takes the most similar entries per class queue, which makes
the returned support set class-balanced by construction whenever the queues
are warm.

Each queue owns 2 * capacity rows of columns shared by all queues, allocated
on the first insert: z, d_bias (dH/dz), entropy, domain (a code into
`domain_names`, -1 for none), seq (arrival number), label (pseudo-class) and
entry.  Its live rows are a window [start,
start + size), oldest first; an insert writes the next rows, dropping the
oldest beyond capacity, and when the window hits the end of its rows they move
back to its first row, so each row is copied O(1) times on average.  Rows stay
in arrival order, never rotated as in a ring buffer: BLAS gemv can round a
row's dot product differently by its place in the block, which would give
duplicate embeddings unequal similarities and break the ties-to-newer order of
a scan over the queue oldest first.

The weight gradient has no column: for the affine head dH/dweight = dH/dz * v,
and at the pretrained parameters the stored z is v, so every read forms it as
d_bias * z, the same IEEE multiply as the gradient pass, bitwise.

`insert_block` writes a batch as one block per queue and builds no per-row
object; `insert` is its one-row form that also keeps the caller's
`MemoryEntry` in the entry column.  The oracle API (`queues`, `retrieve`,
`sample_uniform`) builds a row's `MemoryEntry` from the columns on first
request and keeps it until the row is evicted, so a row's entry keeps its
identity.

`select` serves a whole batch of queries at once: one gemv per query and
queue (a matrix product would round by the query's place in the batch),
written into one (queries, queues, longest queue) block padded with -inf,
one top-k over all its rows, and one gather per column the engine reads from
the shared rows.  `retrieve` and `sample_uniform` are its one-query forms.

The uniform draw of the no-domain-consistency ablation is pinned to one
`rng.choice(size, budget, replace=False)` per query and then per queue.
`_uniform_draws` gives those indices and that final generator state for the
whole block from one `rng.integers` call of 32-bit words, replaying
`choice`'s Floyd sampling and shuffle as array steps over the queries.  In
the rare block where `choice` would redraw a word or shuffle a tail instead,
it restores the generator state and makes the per-call `choice` loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import GradRecord, UNIT_NORM_TOL


@dataclass
class MemoryEntry:
    """Embedding + cached gradient + entropy for one past sample.

    The gradient was taken at the pretrained parameters, where the embedding z
    is the feature v, so `grad.d_weight` is `grad.d_bias * z` (dH/dz * z);
    `ClassMemory.insert` rejects an entry that breaks this.  `seq` and
    `pseudo_class` are stamped by `ClassMemory.insert`, or set when the memory
    builds the entry of a block-inserted row.  `domain_id` is carried for
    analysis only and never read on the adaptation path.
    """

    z: np.ndarray
    grad: GradRecord
    entropy: float
    seq: int = -1
    domain_id: str | None = None
    pseudo_class: int = -1

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        dev = abs(float(np.linalg.norm(self.z)) - 1.0)
        if dev > UNIT_NORM_TOL:
            raise ValueError(f"memory entry embedding norm deviates from 1 by {dev:.3g}")


@dataclass
class SupportSet:
    """Retrieved entries plus (optionally) their aggregation weights.

    `raw_weights` are the literal weighting-formula values; `weights` are
    normalized to sum to 1.  Both are None until `weigh` runs.  The stacked
    views (embeddings, entropies, gradients) are built lazily and reused so
    weighing and aggregation stay vectorized.
    """

    entries: list[MemoryEntry] = field(default_factory=list)
    raw_weights: np.ndarray | None = None
    weights: np.ndarray | None = None
    _stacks: dict | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)

    def stacks(self) -> dict:
        """Stacked per-entry arrays: z (n,d), entropy (n,), d_weight, d_bias."""
        if self._stacks is None:
            self._stacks = {
                "z": np.stack([e.z for e in self.entries]),
                "entropy": np.array([e.entropy for e in self.entries]),
                "d_weight": np.stack([e.grad.d_weight for e in self.entries]),
                "d_bias": np.stack([e.grad.d_bias for e in self.entries]),
            }
        return self._stacks

    def with_raw_weights(self, raw: np.ndarray) -> "SupportSet":
        """Same entries with explicit raw weights, normalized by their sum."""
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape != (len(self.entries),):
            raise ValueError("one raw weight per support entry required")
        if not np.all(np.isfinite(raw)) or np.any(raw <= 0.0):
            raise ValueError("raw weights must be finite and strictly positive")
        return SupportSet(entries=list(self.entries), raw_weights=raw,
                          weights=raw / raw.sum(), _stacks=self._stacks)


@dataclass(slots=True)
class _Window:
    """One queue: live rows [base + start, base + start + size) of its 2 * capacity rows."""

    capacity: int
    base: int
    start: int = 0
    size: int = 0

    @property
    def rows(self) -> slice:
        """The live rows, oldest first."""
        return slice(self.base + self.start, self.base + self.start + self.size)

    def extend(self, cols: dict[str, np.ndarray], block: dict[str, np.ndarray]) -> None:
        """Append a block of rows (an array per column), dropping the oldest beyond capacity.

        A block of capacity rows or more keeps only its last capacity rows.
        Rows outside the window hold no entry: dropped rows release theirs.
        """
        r = len(block["seq"])
        if r > self.capacity:
            block = {key: values[r - self.capacity:] for key, values in block.items()}
            r = self.capacity
        drop = self.size + r - self.capacity
        if drop > 0:
            cols["entry"][self.base + self.start : self.base + self.start + drop] = None
            self.start, self.size = self.start + drop, self.size - drop
        if self.start + self.size + r > 2 * self.capacity:
            lo, end = self.base, self.base + self.start + self.size
            for col in cols.values():
                col[lo : lo + self.size] = col[lo + self.start : end]
            cols["entry"][lo + self.size : end] = None
            self.start = 0
        row = self.base + self.start + self.size
        for key, values in block.items():
            cols[key][row : row + r] = values
        self.size += r


class ClassMemory:
    """FIFO memory over pseudo-classes with oldest-first eviction.

    split mode: one queue per class, each holding at most `capacity_per_class`
    entries.  unsplit mode: a single queue of capacity C * K (the
    no-prediction-balance ablation).  Each queue is a `_Window` over its own
    rows of columns shared by all queues; `queues` lists each queue's entries
    oldest first.
    """

    def __init__(self, num_classes: int, capacity_per_class: int, split: bool = True):
        if num_classes < 1:
            raise ValueError("num_classes must be positive")
        if capacity_per_class < 1:
            raise ValueError("capacity_per_class must be positive")
        self.num_classes = num_classes
        self.capacity_per_class = capacity_per_class
        self.split = split
        K = capacity_per_class
        self._windows = ([_Window(K, base=2 * K * c) for c in range(num_classes)] if split
                         else [_Window(num_classes * K, base=0)])
        self._cols: dict[str, np.ndarray] = {}
        self._next_seq = 0
        self._domain_codes: dict[str, int] = {}

    @property
    def domain_names(self) -> tuple[str, ...]:
        """The name of each domain code, in order of first insert."""
        return tuple(self._domain_codes)

    @property
    def queues(self) -> list[list[MemoryEntry]]:
        """Each queue's entries, oldest first, as new lists (editing them changes nothing)."""
        return [self.entries(np.arange(w.rows.start, w.rows.stop)) if w.size else []
                for w in self._windows]

    def __len__(self) -> int:
        return sum(w.size for w in self._windows)

    def entries(self, rows: np.ndarray) -> list[MemoryEntry]:
        """The entries at physical rows (the `rows` of a `select` block).

        A row written by `insert_block` gets its entry built from the columns
        on first request, kept until the row is evicted.
        """
        col = self._cols["entry"]
        found = col[rows]
        if np.count_nonzero(found) < len(found):  # entries are truthy; unbuilt rows hold None
            missing = rows[np.equal(found, None)]
            row = {key: values[missing] for key, values in self._cols.items()}
            d_weight = row["d_bias"] * row["z"]
            names = self.domain_names + (None,)
            for i, at in enumerate(missing.tolist()):
                col[at] = MemoryEntry(row["z"][i], GradRecord(d_weight[i], row["d_bias"][i]),
                                      float(row["entropy"][i]), seq=int(row["seq"][i]),
                                      domain_id=names[row["domain"][i]],
                                      pseudo_class=int(row["label"][i]))
            found = col[rows]
        return found.tolist()

    def insert(self, entry: MemoryEntry, pseudo_label: int) -> None:
        """Append an entry to its pseudo-class queue, evicting the oldest if full.

        A one-row `insert_block` that keeps `entry` itself as the row's entry
        and stamps its `seq` and `pseudo_class`.  An entry whose `d_weight` is
        not `d_bias * z` changes nothing and raises.
        """
        z, grad = entry.z[None], entry.grad
        self._check_dims(z, grad.d_bias[None])
        if not np.array_equal(grad.d_weight, grad.d_bias * entry.z):
            raise ValueError("memory entry d_weight is not d_bias * z (dH/dz * z)")
        self.insert_block(z, grad.d_bias[None], [entry.entropy], [pseudo_label], [entry.domain_id])
        self._cols["entry"][self._windows[pseudo_label if self.split else 0].rows.stop - 1] = entry
        entry.seq, entry.pseudo_class = self._next_seq - 1, pseudo_label

    def insert_block(self, z: np.ndarray, d_bias: np.ndarray, entropy: np.ndarray,
                     pseudo_labels: np.ndarray, domains: list) -> None:
        """One `insert` per row, in row order, but one block write per queue and no entries.

        The pseudo-labels must come from the zero-shot classifier at pretrained
        parameters, the model state the cached values belong to.  Only labels
        and dims are checked, naming the first bad row, and a bad block changes
        nothing: the loader's block check or `Sample` has checked each feature's norm
        and `model.posterior` that every logit and gradient row is finite.
        `domains` holds each row's domain name or None; the column keeps its code.
        """
        labels = np.asarray(pseudo_labels)
        r = len(labels)
        if labels.dtype.kind not in "iu":
            raise ValueError(f"pseudo-labels must be integers, got dtype {labels.dtype}")
        # Python min/max: numpy's fixed cost per call exceeds a batch's worth of them
        label_list = labels.tolist()
        lo, hi = min(label_list, default=0), max(label_list, default=0)
        if lo < 0 or hi >= self.num_classes:
            row, label = next((i, c) for i, c in enumerate(label_list)
                              if not 0 <= c < self.num_classes)
            raise ValueError(f"row {row}: pseudo_label {label} out of range "
                             f"for {self.num_classes} classes")
        if not len(z) == len(d_bias) == len(entropy) == len(domains) == r:
            raise ValueError("block columns have unequal row counts")
        d = self._check_dims(z, d_bias)
        cols = self._cols
        if not cols:
            n = 2 * self.num_classes * self.capacity_per_class
            cols.update(z=np.empty((n, d)), d_bias=np.empty((n, d)), entropy=np.empty(n),
                        entry=np.empty(n, dtype=object), domain=np.empty(n, dtype=np.int64),
                        seq=np.empty(n, dtype=np.int64), label=np.empty(n, dtype=np.int64))
        codes = self._domain_codes
        block = dict(z=z, d_bias=d_bias, entropy=np.asarray(entropy),
                     domain=np.array([-1 if name is None else codes.setdefault(name, len(codes))
                                      for name in domains], dtype=np.int64),
                     seq=np.arange(self._next_seq, self._next_seq + r), label=labels)
        self._next_seq += r
        if not self.split or lo == hi:  # one queue: no sort
            self._windows[lo if self.split else 0].extend(cols, block)
        else:
            order = np.argsort(labels, kind="stable")
            block = {key: values[order] for key, values in block.items()}
            stops = np.cumsum(np.bincount(labels, minlength=self.num_classes)).tolist()
            for window, start, stop in zip(self._windows, [0] + stops, stops):
                if stop > start:
                    window.extend(cols, {key: values[start:stop] for key, values in block.items()})

    def _check_dims(self, z: np.ndarray, d_bias: np.ndarray) -> int:
        """The row dim d of the memory (of `z` while it is empty); raises unless both
        blocks have rows of dim d."""
        d = self._cols["z"].shape[1] if self._cols else z.shape[-1]
        for name, values in (("z", z), ("d_bias", d_bias)):
            if values.shape[1:] != (d,):
                raise ValueError(f"row 0: {name} has dim {values.shape[1:]}, "
                                 f"memory rows have dim {d}")
        return d

    def select(self, queries: np.ndarray, k: int,
               rng: np.random.Generator | None = None) -> dict[str, np.ndarray]:
        """The support of each row of a (B, d) query block, stacked per column.

        Each non-empty queue gives the top `budget` of its rows by inner
        product with the query, ties to the more recent entry; with `rng`, a
        uniform draw without replacement instead, and the query values are not
        read.  The draw gives the indices, and leaves the generator state, of
        one `rng.choice(size, min(budget, size), replace=False)` per query and
        then per queue; it is made as one block (`_uniform_draws`), or as those
        calls when the block cannot match them.  The budget is k per queue in
        split mode and C * k in the single unsplit queue.  Returns z, d_weight
        (formed as d_bias * z), d_bias, entropy and domain (codes into
        `domain_names`) as (B, m, ...) arrays, and the (B, m) physical `rows`
        they came from (for `entries`); every query sees the same memory, so m
        is the same for all.  An empty memory gives {}.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        budget = k if self.split else self.num_classes * k
        windows = [w for w in self._windows if w.size]
        if not windows:
            return {}
        cols = self._cols
        sizes = [w.size for w in windows]
        if rng is None:
            # one gemv per query and queue into a (B, W, n) block, -inf past a short queue:
            # padding sits at a row's highest columns and never outranks a similarity
            B, n = len(queries), max(sizes)
            sims = np.empty((B, len(windows), n))
            if min(sizes) < n:
                sims.fill(-np.inf)
            for i, w in enumerate(windows):
                np.matmul(cols["z"][w.rows], queries[:, :, None], out=sims[:, i, : w.size, None])
            top = _top(sims.reshape(-1, n), budget)
            top = top.reshape(B, len(windows), top.shape[1])
            picks = [top[:, i, : min(budget, size)] for i, size in enumerate(sizes)]
        else:
            picks = _uniform_draws(rng, sizes, budget, len(queries))
        rows = np.concatenate([w.base + w.start + idx for w, idx in zip(windows, picks)], axis=1)
        block = {key: cols[key][rows] for key in ("z", "d_bias", "entropy", "domain")}
        block["d_weight"] = block["d_bias"] * block["z"]
        block["rows"] = rows
        return block

    def _support(self, block: dict[str, np.ndarray]) -> SupportSet:
        """The SupportSet of the first query of a `select` block."""
        if not block:
            return SupportSet(entries=[])
        stacks = {key: block[key][0] for key in ("z", "entropy", "d_weight", "d_bias")}
        return SupportSet(entries=self.entries(block["rows"][0]), _stacks=stacks)

    def retrieve(self, query_z: np.ndarray, k: int) -> SupportSet:
        """Top-k most similar entries from each non-empty queue (weights unset).

        Similarity is the inner product with `query_z`; ties go to the more
        recent entry.  In unsplit mode the single queue contributes the top
        C * k.  An empty memory yields an empty support set.
        """
        return self._support(self.select(np.asarray(query_z, dtype=np.float64)[None, :], k))

    def sample_uniform(self, k: int, rng: np.random.Generator) -> SupportSet:
        """Uniform draw without replacement, same per-queue budget as `retrieve`.

        Used by the no-domain-consistency ablation in place of top-k.
        """
        return self._support(self.select(np.empty((1, 0)), k, rng))


def _uniform_draws(rng: np.random.Generator, sizes: list[int], budget: int,
                   n_queries: int) -> list[np.ndarray]:
    """Per queue size n, an (n_queries, min(budget, n)) block of uniform draws without
    replacement: exactly the indices, and the generator state, of one
    `rng.choice(n, min(budget, n), replace=False)` per query and then per queue.

    For these sizes `choice` runs Floyd's algorithm (for j = n-s ... n-1 draw a value
    in [0, j]; a value already taken becomes j) and then a Fisher-Yates shuffle (for
    i = s-1 ... 1 swap slot i with a draw in [0, i]).  Each draw in [0, j] is Lemire's
    method on one 32-bit word, (x * (j+1)) >> 32, and j = 0 takes no word.  So one
    `integers` call fetches every word of the block in the loop's order and the draws
    are replayed as array steps over the queries (a queue holds far fewer than the
    2**32 rows past which `choice` draws 64-bit words).  When Lemire would redraw a
    word, or a queue takes `choice`'s tail shuffle (n > 10000 and s > n // 50), the
    state is restored and the per-call loop runs instead.
    """
    counts = [min(budget, n) for n in sizes]
    if any(n > 10000 and s > n // 50 for n, s in zip(sizes, counts)):
        return _per_call_draws(rng, sizes, counts, n_queries)
    W, S = len(sizes), max(counts)
    t = np.arange(S)
    s = np.array(counts)[:, None]
    # each query's words, queue by queue: Floyd's slots t = 0 ... S-1 draw in [0, j] for
    # j = n-s+t, then the shuffle's slots i = S-1 ... 1 in [0, i]; a queue's live slots
    # are t < s and i < s, and j = 0 takes no word
    j = np.concatenate([np.array(sizes)[:, None] - s + t, np.broadcast_to(t[::-1], (W, S))],
                       axis=1)
    takes = np.concatenate([t < s, t[::-1] < s], axis=1) & (j > 0)
    bound = j[takes].astype(np.uint64)
    state = rng.bit_generator.state
    words = rng.integers(0, 2**32, size=(n_queries, len(bound)), dtype=np.uint32)
    scaled = words.astype(np.uint64) * (bound + 1)
    if np.any((scaled & 0xFFFFFFFF) < (2**32 - 1 - bound) % (bound + 1)):
        rng.bit_generator.state = state
        return _per_call_draws(rng, sizes, counts, n_queries)
    # a slot without a word draws its j: Floyd's 0, or shuffle slot i swaps with itself
    draws = np.broadcast_to(j, (n_queries, W, 2 * S)).copy()
    draws[:, takes] = scaled >> 32
    idx = np.empty((n_queries, W, S), dtype=np.int64)
    for slot in range(S):
        value = draws[:, :, slot]
        taken = (idx[:, :, :slot] == value[:, :, None]).any(axis=2)
        idx[:, :, slot] = np.where(taken, j[:, slot], value)
    idx = idx.reshape(n_queries * W, S)
    swaps = draws[:, :, : S - 1 : -1].reshape(n_queries * W, S)
    rows = np.arange(n_queries * W)
    for i in range(S - 1, 0, -1):
        other = swaps[:, i]
        held = idx[rows, other]
        idx[rows, other] = idx[:, i]
        idx[:, i] = held
    idx = idx.reshape(n_queries, W, S)
    return [idx[:, w, :c] for w, c in enumerate(counts)]


def _per_call_draws(rng: np.random.Generator, sizes: list[int], counts: list[int],
                    n_queries: int) -> list[np.ndarray]:
    """`_uniform_draws` as one `rng.choice` call per query and then per queue."""
    draws = [[rng.choice(n, size=c, replace=False) for n, c in zip(sizes, counts)]
             for _ in range(n_queries)]
    return [np.stack([row[w] for row in draws]) for w in range(len(sizes))]


def _top(sims: np.ndarray, budget: int) -> np.ndarray:
    """Per row of a (R, n) block, the columns of its `budget` largest values, best first.

    Ties go to the higher column, the more recent entry.  `select` passes one
    row per query and queue.  In a block of several rows a partition picks
    each row's top `budget` and only those are sorted; a row where a tie
    crosses the cut (a -inf padded row below the budget among them) is sorted
    whole instead.  Whole rows are sorted for a single row too (cheaper than
    the partition's fixed cost), and when the budget covers the row.
    """
    R, n = sims.shape
    neg = -sims
    if R == 1 or budget >= n:
        return _sorted_top(neg, budget)
    part = np.argpartition(neg, budget - 1, axis=1)[:, :budget]
    rows = np.arange(R)[:, None]
    vals = neg[rows, part]
    # lexsort: primary key last -> sims descending, then column descending
    top = part[rows, np.lexsort((-part, vals), axis=1)]
    within = neg <= vals.max(axis=1, keepdims=True)
    if np.count_nonzero(within) > part.size:
        crossing = np.flatnonzero(np.count_nonzero(within, axis=1) > budget)
        top[crossing] = _sorted_top(neg[crossing], budget)
    return top


def _sorted_top(neg: np.ndarray, budget: int) -> np.ndarray:
    """`_top` by a whole-row sort of the negated block: a stable sort of the reversed
    row keeps tied columns newest first."""
    return neg.shape[1] - 1 - np.argsort(neg[:, ::-1], axis=1, kind="stable")[:, :budget]


def weigh(
    support: SupportSet,
    query_z: np.ndarray,
    beta: float,
    entropy_weighting: bool = True,
    similarity_weighting: bool = True,
) -> SupportSet:
    """Set aggregation weights: raw_j = exp(-H_j) * exp(-beta * ||query - z_j||).

    Either factor can be disabled (replaced by the constant 1) for the
    weighting ablations.  Normalized weights are computed from max-shifted
    exponentials so large beta * distance terms cannot underflow them; the
    stored raw weights are the literal formula values.
    """
    if not support.entries:
        raise ValueError("cannot weigh an empty support set")
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    query = np.asarray(query_z, dtype=np.float64)
    stacks = support.stacks()
    log_raw = np.zeros(len(support.entries))
    if entropy_weighting:
        log_raw = log_raw - stacks["entropy"]
    if similarity_weighting:
        diff = stacks["z"] - query
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        log_raw = log_raw - beta * dists
    if not np.all(np.isfinite(log_raw)):
        raise ValueError("non-finite aggregation weights (degenerate entropies or distances)")
    raw = np.exp(log_raw)
    shifted = np.exp(log_raw - np.max(log_raw))
    total = shifted.sum()
    if total == 0.0 or raw.sum() == 0.0:
        raise ValueError("all raw aggregation weights underflowed to zero")
    return SupportSet(entries=list(support.entries), raw_weights=raw,
                      weights=shifted / total, _stacks=stacks)

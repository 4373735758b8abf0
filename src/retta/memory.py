"""Class-split FIFO cache of embeddings and gradients, with top-k retrieval.

The cache keeps one FIFO queue per pseudo-class (or a single queue in the
unsplit ablation mode).  Each entry stores the embedding computed at the
pretrained parameters together with that sample's entropy gradient, so later
queries can assemble an update from cached pieces without re-running the
model.  Retrieval takes the most similar entries per class queue, which makes
the returned support set class-balanced by construction whenever the queues
are warm.

Each queue owns 2 * capacity rows of columns shared by all queues (z,
d_weight, d_bias, entropy, entry, domain), allocated on the first insert.
Its live rows are a window [start, start + size), oldest first; an insert
writes the next row, dropping the oldest when full, and when the window hits
the end of its rows they move back to its first row, so each row is copied
O(1) times on average.  Rows stay in arrival order, never rotated as in a
ring buffer: BLAS gemv can round a row's dot product differently by its place
in the block, which would give duplicate embeddings unequal similarities and
break the ties-to-newer order of a scan over the queue oldest first.

`select` serves a whole batch of queries at once: one gemv per query and
queue (a matrix product would round by the query's place in the batch), a
top-k per row, and one gather per column from the shared rows.  `retrieve`
and `sample_uniform` are its one-query forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import GradRecord, UNIT_NORM_TOL


@dataclass
class MemoryEntry:
    """Embedding + cached gradient + entropy for one past sample.

    `seq` and `pseudo_class` are stamped by `ClassMemory.insert`.  `domain_id`
    is carried for analysis only and never read on the adaptation path.
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

    def append(self, cols: dict[str, np.ndarray], row_values: tuple) -> None:
        """Write one row (a value per column, in column order), dropping the oldest when full."""
        if self.size == self.capacity:
            cols["entry"][self.base + self.start] = None
            self.start, self.size = self.start + 1, self.size - 1
        row = self.start + self.size
        if row == 2 * self.capacity:
            lo = self.base
            for col in cols.values():
                col[lo : lo + self.size] = col[lo + self.start : lo + row]
            cols["entry"][lo + self.size : lo + row] = None
            self.start, row = 0, self.size
        for col, value in zip(cols.values(), row_values):
            col[self.base + row] = value
        self.size += 1


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

    @property
    def queues(self) -> list[list[MemoryEntry]]:
        """Each queue's entries, oldest first, as new lists (editing them changes nothing)."""
        return [self._cols["entry"][w.rows].tolist() if w.size else [] for w in self._windows]

    def __len__(self) -> int:
        return sum(w.size for w in self._windows)

    def insert(self, entry: MemoryEntry, pseudo_label: int) -> None:
        """Append an entry to its pseudo-class queue, evicting the oldest if full.

        The pseudo-label must come from the zero-shot classifier at pretrained
        parameters, since that is the model state the cached values belong to.
        """
        if not 0 <= pseudo_label < self.num_classes:
            raise ValueError(
                f"pseudo_label {pseudo_label} out of range for {self.num_classes} classes"
            )
        cols = self._cols
        d = cols["z"].shape[1] if cols else entry.z.shape[0]
        if entry.z.shape != (d,) or entry.grad.d_weight.shape != (d,):
            raise ValueError(f"memory rows have dim {d}, entry has {entry.z.shape[0]}")
        if not cols:  # columns in the order of the row values below
            n = 2 * self.num_classes * self.capacity_per_class
            cols.update(z=np.empty((n, d)), d_weight=np.empty((n, d)), d_bias=np.empty((n, d)),
                        entropy=np.empty(n), entry=np.empty(n, dtype=object),
                        domain=np.empty(n, dtype=object))
        entry.seq = self._next_seq
        self._next_seq += 1
        entry.pseudo_class = pseudo_label
        self._windows[pseudo_label if self.split else 0].append(
            cols, (entry.z, entry.grad.d_weight, entry.grad.d_bias, entry.entropy, entry,
                   entry.domain_id))

    def select(self, queries: np.ndarray, k: int,
               rng: np.random.Generator | None = None) -> dict[str, np.ndarray]:
        """The support of each row of a (B, d) query block, stacked per column.

        Each non-empty queue gives the top `budget` of its rows by inner
        product with the query, ties to the more recent entry; with `rng`, a
        uniform draw without replacement instead, drawn per query and then per
        queue, and the query values are not read.  The budget is k per queue in
        split mode and C * k in the single unsplit queue.  Returns z, d_weight,
        d_bias, entropy, entry and domain as (B, m, ...) arrays; every query sees
        the same memory, so m is the same for all.  An empty memory gives {}.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        budget = k if self.split else self.num_classes * k
        windows = [w for w in self._windows if w.size]
        if not windows:
            return {}
        cols = self._cols
        if rng is None:
            picks = [_top(np.matmul(cols["z"][w.rows], queries[:, :, None])[:, :, 0], budget)
                     for w in windows]
        else:
            draws = [[rng.choice(w.size, size=min(budget, w.size), replace=False) for w in windows]
                     for _ in range(len(queries))]
            picks = [np.stack([row[j] for row in draws]) for j in range(len(windows))]
        rows = np.concatenate([w.base + w.start + idx for w, idx in zip(windows, picks)], axis=1)
        return {key: col[rows] for key, col in cols.items()}

    @staticmethod
    def _support(block: dict[str, np.ndarray]) -> SupportSet:
        """The SupportSet of the first query of a `select` block."""
        if not block:
            return SupportSet(entries=[])
        stacks = {key: block[key][0] for key in ("z", "entropy", "d_weight", "d_bias")}
        return SupportSet(entries=block["entry"][0].tolist(), _stacks=stacks)

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


def _top(sims: np.ndarray, budget: int) -> np.ndarray:
    """Per row of a (B, n) block, the columns of its `budget` largest values, best first.

    Ties go to the higher column, the more recent entry.  In a block of
    several rows a partition picks each row's top `budget` and only those are
    sorted.  Whole rows are sorted instead for a single row (cheaper than the
    partition's fixed cost), when a tie crosses the cut, or when the budget
    covers the row.
    """
    B, n = sims.shape
    neg = -sims
    if 1 < B and budget < n:
        part = np.argpartition(neg, budget - 1, axis=1)[:, :budget]
        rows = np.arange(B)[:, None]
        vals = neg[rows, part]
        if np.count_nonzero(neg <= vals.max(axis=1, keepdims=True)) == part.size:
            # lexsort: primary key last -> sims descending, then column descending
            return part[rows, np.lexsort((-part, vals), axis=1)]
    # a stable sort of the reversed row keeps tied columns newest first
    return n - 1 - np.argsort(neg[:, ::-1], axis=1, kind="stable")[:, :budget]


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

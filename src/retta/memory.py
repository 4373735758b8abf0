"""Class-split FIFO cache of embeddings and gradients, with top-k retrieval.

The cache keeps one FIFO queue per pseudo-class (or a single queue in the
unsplit ablation mode).  Each row stores the embedding computed at the
pretrained parameters together with that sample's entropy gradient, so later
queries can assemble an update from cached pieces without re-running the
model.  Retrieval takes the most similar rows per class queue, which makes
the returned support set class-balanced by construction whenever the queues
are warm.

Each queue owns rows of columns shared by all queues: z, d_bias (dH/dz),
entropy and domain (a code into `domain_names`, -1 for none).  There is no
per-row object.  A queue's live rows are a window [start, start + size),
oldest first; an insert writes the new rows behind them and steps the window
over them, dropping the oldest beyond capacity.  A queue owns 2 * capacity
rows, or more where one call's live and new rows need more: when the new
rows do not fit behind the window, the live rows move back to the queue's
first row, and when even that cannot hold them, the columns are laid out
anew (the first insert allocates them so).  A queue that grew keeps its rows,
so each row is copied O(1) times on average.  Rows stay in arrival order,
never rotated as in a ring buffer: every window is then one slice of rows,
and BLAS gemv can round a row's dot product differently by its place in the
block, which in a rotated queue would give duplicate embeddings unequal
similarities and break the ties-to-newer order of a scan oldest first.

The weight gradient has no column: for the affine head dH/dweight = dH/dz * v,
and at the pretrained parameters the stored z is v, so every read forms it as
d_bias * z, the same IEEE multiply as the gradient pass, bitwise.

`insert_batches` writes a stream of batches and steps the windows batch by
batch.  A queue's window after batch b is its last rows in arrival order
through batch b, so every window follows from the pseudo-label counts before
any row is written: one call writes each queue's new rows once, behind its
live rows, and each window steps forward over rows already written.  A
batch's `select` then ranks the same rows, in the same order and the same
gemv block, as after one insert per batch, so the windows are exact.
`insert_block` is its one-batch case and `insert` the one-row form of that.
`select` serves a whole batch of queries at once: one gemv per query and
queue (a matrix product would round by the query's place in the batch),
written into one (queries, queues, longest queue) block padded with -inf,
one top-k over all its rows by a threshold (`_top`), and one `take` per
column read from the shared rows.  `retrieve` and `sample_uniform` are its
one-query forms, which the per-sample engine reads.

The uniform draw of the no-domain-consistency ablation is pinned to one
`rng.choice(size, budget, replace=False)` per query and then per queue.
`_uniform_draws` gives those indices and that final generator state for a
whole block of queries from `rng.integers` calls of 32-bit words, replaying
`choice`'s Floyd sampling and shuffle as array steps over the queries.  For
the rare batch where `choice` would redraw a word, and a queue where it would
shuffle a tail instead, it restores the generator state and makes the
per-call `choice` loop.  The words depend on the window sizes only, and the
generator keeps the unused half of a 64-bit output between calls, so
`insert_batches` makes one block for each run of batches with equal window
sizes: the same words in the same order as one block per batch.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import UNIT_NORM_TOL


@dataclass(slots=True)
class _Window:
    """One queue: live rows [base + start, base + start + size) of its rows
    [base, base + owned) in the columns."""

    capacity: int
    base: int = 0
    owned: int = 0
    start: int = 0
    size: int = 0

    @property
    def rows(self) -> slice:
        """The live rows, oldest first."""
        return slice(self.base + self.start, self.base + self.start + self.size)


class ClassMemory:
    """FIFO memory over pseudo-classes with oldest-first eviction, kept as columns.

    split mode: one queue per class, each holding at most `capacity_per_class`
    rows.  unsplit mode: a single queue of capacity C * K (the
    no-prediction-balance ablation).  Each queue is a `_Window` over its own
    rows of the z, d_bias, entropy and domain columns shared by all queues.
    A read goes through `select`, which gives each query's support as one
    array per column.
    """

    def __init__(self, num_classes: int, capacity_per_class: int, split: bool = True):
        if num_classes < 1:
            raise ValueError("num_classes must be positive")
        if capacity_per_class < 1:
            raise ValueError("capacity_per_class must be positive")
        self.num_classes = num_classes
        self.capacity_per_class = capacity_per_class
        self.split = split
        self._windows = ([_Window(capacity_per_class) for _ in range(num_classes)] if split
                         else [_Window(num_classes * capacity_per_class)])
        self._cols: dict[str, np.ndarray] = {}
        self._domain_codes: dict[str, int] = {}

    @property
    def domain_names(self) -> tuple[str, ...]:
        """The name of each domain code, in order of first insert."""
        return tuple(self._domain_codes)

    def __len__(self) -> int:
        return sum([w.size for w in self._windows])

    def insert(self, z: np.ndarray, d_bias: np.ndarray, entropy: float, pseudo_label: int,
               domain: str | None = None) -> None:
        """Append one row to its pseudo-class queue, evicting the oldest if full.

        The one-row form of `insert_block`; an embedding off unit norm changes
        nothing and raises.
        """
        z = np.asarray(z, dtype=np.float64)
        dev = abs(float(np.linalg.norm(z)) - 1.0)
        if dev > UNIT_NORM_TOL:
            raise ValueError(f"memory entry embedding norm deviates from 1 by {dev:.3g}")
        self.insert_block(z[None], np.asarray(d_bias, dtype=np.float64)[None], [entropy],
                          [pseudo_label], [domain])

    def insert_block(self, z: np.ndarray, d_bias: np.ndarray, entropy: np.ndarray,
                     pseudo_labels: np.ndarray, domains: list) -> None:
        """One `insert` per row, in row order, but one block write per queue: the
        one-batch case of `insert_batches`.

        The pseudo-labels must come from the zero-shot classifier at pretrained
        parameters, the model state the cached values belong to.  Only labels
        and dims are checked, naming the first bad row, and a bad block changes
        nothing: the loader's block check or `Sample` has checked each feature's norm
        and `model.posterior` that every logit and gradient row is finite.
        `domains` holds each row's domain name or None; the column keeps its code.
        The columns are allocated on the first insert; a memory too large for
        that raises a ValueError naming `capacity_per_class` and `num_classes`.
        """
        for _ in self.insert_batches(z, d_bias, entropy, pseudo_labels, domains, [len(z)]):
            pass

    def insert_batches(self, z: np.ndarray, d_bias: np.ndarray, entropy: np.ndarray,
                       pseudo_labels: np.ndarray, domains: list, stops: list[int], k: int = 1,
                       rng: np.random.Generator | None = None
                       ) -> Iterator[list[np.ndarray] | None]:
        """Insert consecutive batches of rows, batch i ending before row stops[i], and
        yield once per batch with every queue's window where one `insert_block` per
        batch would leave it, so the batch's `select` reads the same rows in the same
        order.

        After batch i a queue holds its last capacity rows in arrival order, so every
        window follows from the pseudo-label counts alone, before any row is written.
        Each queue's new rows are written once, behind its live rows and in arrival
        order (a queue without room there moves its live rows to its first row, or
        the columns are laid out anew), and each window steps forward over rows
        already written.  With `rng`, each yield is the batch's uniform draw
        for `select`'s `picks`: one `_uniform_draws` call per run of consecutive
        batches whose window sizes are equal, which draws the words of one call per
        batch in the same order.  Otherwise each yield is None.  The rows are
        checked as in `insert_block`, all of them before the first write, which
        happens when the iteration starts.
        """
        labels = np.asarray(pseudo_labels)
        r = len(labels)
        if labels.dtype.kind not in "iu":
            raise ValueError(f"pseudo-labels must be integers, got dtype {labels.dtype}")
        # Python min/max: numpy's fixed cost per call exceeds a batch's worth of them
        label_list = labels.tolist()
        if min(label_list, default=0) < 0 or max(label_list, default=0) >= self.num_classes:
            row, label = next((i, c) for i, c in enumerate(label_list)
                              if not 0 <= c < self.num_classes)
            raise ValueError(f"row {row}: pseudo_label {label} out of range "
                             f"for {self.num_classes} classes")
        if not len(z) == len(d_bias) == len(entropy) == len(domains) == r:
            raise ValueError("block columns have unequal row counts")
        d = self._check_dims(z, d_bias)
        windows, bounds = self._windows, [0, *stops]
        # rows per batch and queue, and per queue
        counts = ([list(map(label_list[lo:hi].count, range(self.num_classes)))
                   for lo, hi in zip(bounds, stops)]
                  if self.split else [[hi - lo] for lo, hi in zip(bounds, stops)])
        totals = counts[0] if len(counts) == 1 else list(map(sum, zip(*counts)))
        for w, total in zip(windows, totals):
            if w.start + w.size + total > w.owned:  # no room behind the live rows
                if w.size + total > w.owned:  # nor from the first row: lay the columns out anew
                    self._layout(d, [v.size + t for v, t in zip(windows, totals)])
                    break
                for col in self._cols.values():
                    col[w.base : w.base + w.size] = col[w.rows]
                w.start = 0
        cols = self._cols
        codes = self._domain_codes  # a new name takes the next code, in order of first row
        code = {name: -1 if name is None else codes.setdefault(name, len(codes))
                for name in dict.fromkeys(domains)}
        block = dict(z=z, d_bias=d_bias, entropy=np.asarray(entropy),
                     domain=np.array(list(map(code.__getitem__, domains)), dtype=np.int64))
        # each queue's new rows behind its live rows, in arrival order
        if r in totals:  # one queue takes every row
            w = windows[totals.index(r)]
            row = w.base + w.start + w.size
            for key, col in cols.items():  # none yet if no row was ever inserted
                col[row : row + r] = block[key]
        else:  # sorted position p of queue q goes to its row p - (rows of queues before q)
            shift, before = [], 0
            for w, total in zip(windows, totals):
                shift.append(w.base + w.start + w.size - before)
                before += total
            rows = np.empty(r, dtype=np.int64)
            rows[np.argsort(labels, kind="stable")] = np.arange(r) + np.repeat(shift, totals)
            for key, values in block.items():
                cols[key][rows] = values
        del d_bias, block  # the caller may free its rows
        if rng is not None:  # each queue's rows after each batch
            sizes, size, budget = [], [w.size for w in windows], self._budget(k)
            for row in counts:
                size = [min(w.capacity, s + c) for w, s, c in zip(windows, size, row)]
                sizes.append(size)
        run_end = 0
        for i, batch in enumerate(counts):
            for w, count in zip(windows, batch):
                if count:
                    end = w.start + w.size + count
                    w.size = min(w.capacity, w.size + count)
                    w.start = end - w.size
            if rng is None:
                yield None
                continue
            if i >= run_end:
                run_end = i + 1
                while run_end < len(stops) and sizes[run_end] == sizes[i]:
                    run_end += 1
                run_start = bounds[i]
                draws = _uniform_draws(rng, [size for size in sizes[i] if size], budget,
                                       bounds[run_end] - run_start, bounds[i + 1] - run_start)
            yield [draw[bounds[i] - run_start : bounds[i + 1] - run_start] for draw in draws]

    def _layout(self, d: int, need: list[int]) -> None:
        """Lay the columns out anew: each queue owns max(2 * capacity, need) rows, its
        live rows first.

        The first insert allocates the columns so; a memory too large for that raises
        a ValueError naming `capacity_per_class` and `num_classes`."""
        owned = [max(2 * w.capacity, rows) for w, rows in zip(self._windows, need)]
        n = sum(owned)
        try:
            cols = dict(z=np.empty((n, d)), d_bias=np.empty((n, d)), entropy=np.empty(n),
                        domain=np.empty(n, dtype=np.int64))
        except (ValueError, MemoryError) as exc:
            raise ValueError(f"a memory of capacity_per_class {self.capacity_per_class} x "
                             f"num_classes {self.num_classes} cannot be allocated: {exc}"
                             ) from None
        base = 0
        for w, rows in zip(self._windows, owned):
            if w.size:
                for key, col in cols.items():
                    col[base : base + w.size] = self._cols[key][w.rows]
            w.base, w.owned, w.start = base, rows, 0
            base += rows
        self._cols = cols

    def _check_dims(self, z: np.ndarray, d_bias: np.ndarray) -> int:
        """The row dim d of the memory (of `z` while it is empty); raises unless both
        blocks have rows of dim d."""
        d = self._cols["z"].shape[1] if self._cols else z.shape[-1]
        for name, values in (("z", z), ("d_bias", d_bias)):
            if values.shape[1:] != (d,):
                raise ValueError(f"row 0: {name} has dim {values.shape[1:]}, "
                                 f"memory rows have dim {d}")
        return d

    def _budget(self, k: int) -> int:
        """Rows per query from each queue: k in split mode, C * k in the unsplit queue."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        return k if self.split else self.num_classes * k

    def select(self, queries: np.ndarray, k: int, rng: np.random.Generator | None = None,
               picks: list[np.ndarray] | None = None) -> dict[str, np.ndarray]:
        """The support of each row of a (B, d) query block, stacked per column.

        Each non-empty queue gives the top `budget` of its rows by inner
        product with the query, ties to the more recent row; with `rng`, a
        uniform draw without replacement instead, and the query values are not
        read.  The draw gives the indices, and leaves the generator state, of
        one `rng.choice(size, min(budget, size), replace=False)` per query and
        then per queue; it is made as one block (`_uniform_draws`), or as those
        calls when the block cannot match them.  `picks`, each non-empty queue's
        indices of such a draw for these queries (made for a run of batches by
        `insert_batches`), take the place of ranking or drawing.  The windows
        read are the memory's current ones: during `insert_batches`, those of
        the batch it last yielded, over rows the call has already written.  The
        budget is k per queue in split mode and C * k in the single unsplit
        queue.  Returns z, d_weight (formed as d_bias * z), d_bias, entropy and
        domain (codes into `domain_names`) as (B, m, ...) arrays, each query's
        support queue by queue; every query sees the same memory, so m is the
        same for all.  An empty memory gives {}.
        """
        budget = self._budget(k)
        windows = [w for w in self._windows if w.size]
        if not windows:
            return {}
        cols = self._cols
        sizes = [w.size for w in windows]
        if picks is None and rng is None:
            # one gemv per query and queue into a (B, W, n) block, -inf past a short queue:
            # padding sits at a row's highest columns and never outranks a similarity
            B, n = len(queries), max(sizes)
            sims = np.empty((B, len(windows), n))
            if min(sizes) < n:
                sims.fill(-np.inf)
            z, column = cols["z"], queries[:, :, None]
            for i, w in enumerate(windows):
                np.matmul(z[w.rows], column, out=sims[:, i, : w.size, None])
            top = _top(sims.reshape(-1, n), budget)
            top = top.reshape(B, len(windows), top.shape[1])
            picks = [top[:, i, : min(budget, size)] for i, size in enumerate(sizes)]
        elif picks is None:
            picks = _uniform_draws(rng, sizes, budget, len(queries))
        rows = np.concatenate([w.base + w.start + idx for w, idx in zip(windows, picks)], axis=1)
        block = {key: cols[key].take(rows, axis=0) for key in ("z", "d_bias", "entropy", "domain")}
        block["d_weight"] = block["d_bias"] * block["z"]
        return block

    def retrieve(self, query_z: np.ndarray, k: int) -> dict[str, np.ndarray]:
        """The `select` support of one query: its columns as (m, ...) arrays, {} when empty.

        Similarity is the inner product with `query_z`; ties go to the more
        recent row.  In unsplit mode the single queue contributes the top
        C * k.
        """
        return _first(self.select(np.asarray(query_z, dtype=np.float64)[None, :], k))

    def sample_uniform(self, k: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Uniform draw without replacement, same per-queue budget as `retrieve`.

        Used by the no-domain-consistency ablation in place of top-k.
        """
        return _first(self.select(np.empty((1, 0)), k, rng))


def _first(block: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The first query's support of a `select` block."""
    return {key: values[0] for key, values in block.items()}


def _uniform_draws(rng: np.random.Generator, sizes: list[int], budget: int,
                   n_queries: int, block: int | None = None) -> list[np.ndarray]:
    """Per queue size n, an (n_queries, min(budget, n)) block of uniform draws without
    replacement: exactly the indices, and the generator state, of one
    `rng.choice(n, min(budget, n), replace=False)` per query and then per queue.

    For these sizes `choice` runs Floyd's algorithm (for j = n-s ... n-1 draw a value
    in [0, j]; a value already taken becomes j) and then a Fisher-Yates shuffle (for
    i = s-1 ... 1 swap slot i with a draw in [0, i]).  Each draw in [0, j] is Lemire's
    method on one 32-bit word, (x * (j+1)) >> 32, and j = 0 takes no word.  So the
    words of `block` queries at a time (default: all) are fetched by one `integers`
    call each, in the loop's order, and the draws of all queries are replayed as
    array steps (a queue holds far fewer than the 2**32 rows past which `choice`
    draws 64-bit words).  When Lemire would redraw a word of a block, the state is
    restored and the per-call loop draws that block's queries instead; when a queue
    takes `choice`'s tail shuffle (n > 10000 and s > n // 50), it draws them all.
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
    redraw = (2**32 - 1 - bound) % (bound + 1)
    # a slot without a word draws its j: Floyd's 0, or shuffle slot i swaps with itself
    draws = np.empty((n_queries, W, 2 * S), dtype=np.uint32)
    draws[:] = j
    fallbacks = []
    step = block or max(n_queries, 1)
    for lo in range(0, n_queries, step):
        hi = min(lo + step, n_queries)
        state = rng.bit_generator.state
        # dtype uint64 draws the same 32-bit words, into the width Lemire's product needs
        scaled = rng.integers(0, 2**32, size=(hi - lo, len(bound)), dtype=np.uint64)
        scaled *= bound + 1
        if np.any(scaled.astype(np.uint32) < redraw):
            rng.bit_generator.state = state
            fallbacks.append((lo, _per_call_draws(rng, sizes, counts, hi - lo)))
        else:
            scaled >>= 32
            draws[lo:hi, takes] = scaled
    idx = np.empty((n_queries, W, S), dtype=np.int64)
    for slot in range(S):
        value = draws[:, :, slot]
        taken = (idx[:, :, :slot] == value[:, :, None]).any(axis=2)
        idx[:, :, slot] = np.where(taken, j[:, slot], value)
    idx = idx.reshape(n_queries * W, S)
    swaps = draws.reshape(n_queries * W, 2 * S)  # shuffle slot i draws in column 2S-1-i
    rows = np.arange(n_queries * W)
    for i in range(S - 1, 0, -1):
        other = swaps[:, 2 * S - 1 - i]
        held = idx[rows, other]
        idx[rows, other] = idx[:, i]
        idx[:, i] = held
    idx = idx.reshape(n_queries, W, S)
    for lo, picks in fallbacks:
        for w, pick in enumerate(picks):
            idx[lo : lo + len(pick), w, : pick.shape[1]] = pick
    return [idx[:, w, :c] for w, c in enumerate(counts)]


def _per_call_draws(rng: np.random.Generator, sizes: list[int], counts: list[int],
                    n_queries: int) -> list[np.ndarray]:
    """`_uniform_draws` as one `rng.choice` call per query and then per queue."""
    draws = [[rng.choice(n, size=c, replace=False) for n, c in zip(sizes, counts)]
             for _ in range(n_queries)]
    return [np.stack([row[w] for row in draws]) for w in range(len(sizes))]


def _top(sims: np.ndarray, budget: int) -> np.ndarray:
    """Per row of a (R, n) block, the columns of its `budget` largest values, best first.

    Ties go to the higher column, the more recent entry.  In a block of several
    rows one partition gives each row's budget-th largest value; the columns at or
    above it are kept, the oldest tied ones dropped where a tie crosses it (a -inf
    padded row below the budget too), and only those are sorted.  A single row, or
    a budget that covers the row, is sorted whole (cheaper there).
    """
    R, n = sims.shape
    if R == 1 or budget >= n:
        return _sorted_top(sims, budget)
    cut = np.partition(sims, n - budget, axis=1)[:, n - budget, None]
    keep = sims >= cut
    if np.count_nonzero(keep) > R * budget:
        tied = sims == cut
        newer_ties = tied[:, ::-1].cumsum(axis=1)[:, ::-1]  # at this column or after it
        spare = budget - np.count_nonzero(sims > cut, axis=1, keepdims=True)
        keep &= ~tied | (newer_ties <= spare)
    flat = keep.ravel().nonzero()[0]  # np.flatnonzero, without its Python-level wrapper
    order = _sorted_top(sims.ravel()[flat].reshape(R, budget), budget)
    return (flat % n).reshape(R, budget)[np.arange(R)[:, None], order]


def _sorted_top(sims: np.ndarray, budget: int) -> np.ndarray:
    """`_top` by a whole-row sort: a stable sort of the negated reversed row keeps
    tied columns newest first."""
    return sims.shape[1] - 1 - (-sims[:, ::-1]).argsort(axis=1, kind="stable")[:, :budget]


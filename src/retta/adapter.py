"""Episodic adaptation engine: aggregate cached gradients, step, predict, reset.

For every incoming sample the engine retrieves a support set from memory,
forms a weighted average of the cached per-sample gradients, takes a single
optimizer step away from the pretrained parameters, predicts the sample with
the adapted parameters, and discards them.  Adaptation is therefore episodic:
the persistent model is never mutated, which is exactly what keeps gradients
cached at the pretrained parameters valid forever.

`process_batch` runs these steps for a whole batch as array operations: one
posterior pass for the gradients and zero-shot predictions, one block insert
of the batch's embeddings, gradients and entropies into memory, then
`ClassMemory.select` for the queries' supports and the weighting,
aggregation, step and adapted predict with a leading batch axis, over row
chunks that keep the (queries, support, dim) temporaries within a fixed byte
budget.  The per-sample engine (`adapt_and_predict` with `weigh`,
`aggregate` and `aggregate_recomputed`) is the oracle it is checked and
timed against; the recomputing mode of `process_batch` runs it.

The engines take a `Stream` and slice its feature rows; they return one
`Outcomes`, whose fields are arrays with a row per sample.  An `AdaptOutcome`
is built only for a row that is indexed, and a `Sample` only for the
per-sample oracle.

Two reference engines live here as well: an online entropy-minimization
baseline that keeps mutating one parameter set across batches (and must
recompute gradients at the current parameters, since the cache only holds
pretrained-parameter gradients), and the plain zero-shot pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .memory import ClassMemory, SupportSet, weigh
from .model import (
    AffineParams,
    GradRecord,
    Posterior,
    Prediction,
    Sample,
    Stream,
    TextBank,
    _BadRow,
    _check_field_types,
    batch_grads,
    concat_posteriors,
    domain_codes,
    forward,
    posterior,
    predict,
    sample_grad,
)


@dataclass(frozen=True)
class AdapterConfig:
    """Hyperparameters and ablation switches for the adaptation engine.

    Disabling `topk_selection` (random support draw) forces `beta` to 0,
    since the similarity weight is meaningless for a random draw.
    """

    capacity_per_class: int
    retrieve_k: int
    beta: float = 5.0
    lr: float = 1e-2
    batch_size: int = 1
    optimizer: str = "signsgd"
    split_memory: bool = True
    topk_selection: bool = True
    entropy_weighting: bool = True
    similarity_weighting: bool = True
    seed: int = 0

    def __post_init__(self):
        _check_field_types(
            self, integers=("capacity_per_class", "retrieve_k", "batch_size", "seed"),
            booleans=("split_memory", "topk_selection", "entropy_weighting",
                      "similarity_weighting"),
            reals=("beta", "lr"))
        if self.capacity_per_class < 1:
            raise ValueError("capacity_per_class must be positive")
        if self.retrieve_k < 1:
            raise ValueError("retrieve_k must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.optimizer not in ("signsgd", "gd"):
            raise ValueError(f"unknown optimizer '{self.optimizer}'")
        if not self.topk_selection and self.beta != 0.0:
            raise ValueError("random selection (topk_selection=False) requires beta == 0")


@dataclass(frozen=True)
class AdaptOutcome:
    """Per-sample trace: adapted and zero-shot predictions plus support info."""

    prediction: Prediction
    zero_shot: Prediction
    support_size: int
    support_domain_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class Outcomes:
    """The outcome of each row of a stream as arrays: row i of every field is sample i's.

    `adapted` and `zero_shot` are the posteriors with and without adaptation
    (one object for an engine that does not adapt).  `support_domains` holds
    each row's support domains as codes into `domain_names`, -1 for an entry
    without a domain and past the row's `support_size`.  An integer index
    gives that row's `AdaptOutcome`; a slice or an index array gives an
    `Outcomes` of those rows.
    """

    adapted: Posterior
    zero_shot: Posterior
    support_size: np.ndarray
    support_domains: np.ndarray
    domain_names: tuple[str, ...] = ()

    @classmethod
    def unadapted(cls, zero_shot: Posterior, adapted: Posterior | None = None) -> "Outcomes":
        """Rows without a support set; `adapted` defaults to the zero-shot posterior."""
        n = len(zero_shot.labels)
        return cls(zero_shot if adapted is None else adapted, zero_shot,
                   np.zeros(n, dtype=np.int64), np.empty((n, 0), dtype=np.int64))

    @classmethod
    def from_rows(cls, rows: list[AdaptOutcome], names: tuple[str, ...] | None = None
                  ) -> "Outcomes":
        """Per-row outcomes as one `Outcomes`; support domains are coded as in `names`
        (default: the sorted names that occur)."""
        if names is None:
            names = tuple(sorted({name for o in rows for name in o.support_domain_ids}))
        support = domain_codes([o.support_domain_ids for o in rows], names)

        def stacked(preds: list[Prediction]) -> Posterior:
            return Posterior(np.array([p.logits for p in preds]), np.array([p.probs for p in preds]),
                             np.array([p.entropy for p in preds]),
                             np.array([p.pseudo_label for p in preds], dtype=np.int64))

        return cls(stacked([o.prediction for o in rows]), stacked([o.zero_shot for o in rows]),
                   np.array([o.support_size for o in rows], dtype=np.int64), support, names)

    @classmethod
    def concat(cls, parts: list["Outcomes"]) -> "Outcomes":
        """Consecutive outcomes as one.  Every part codes its support domains as in the
        last part's `domain_names`, a table that only grows (as `ClassMemory.domain_names`)."""
        m = max(p.support_domains.shape[1] for p in parts)
        support = [np.pad(p.support_domains, ((0, 0), (0, m - p.support_domains.shape[1])),
                          constant_values=-1) for p in parts]
        return cls(concat_posteriors([p.adapted for p in parts]),
                   concat_posteriors([p.zero_shot for p in parts]),
                   np.concatenate([p.support_size for p in parts]), np.concatenate(support),
                   parts[-1].domain_names)

    def __len__(self) -> int:
        return len(self.support_size)

    def __getitem__(self, rows):
        if isinstance(rows, (slice, np.ndarray)):
            return Outcomes(self.adapted[rows], self.zero_shot[rows], self.support_size[rows],
                            self.support_domains[rows], self.domain_names)
        return self._row(rows)

    def __iter__(self):
        return map(self._row, range(len(self)))

    def _row(self, i: int) -> AdaptOutcome:
        names = self.domain_names
        return AdaptOutcome(self.adapted.prediction(i), self.zero_shot.prediction(i),
                            int(self.support_size[i]),
                            tuple([names[c] for c in self.support_domains[i].tolist() if c >= 0]))


def aggregate(support: SupportSet) -> GradRecord:
    """Weighted average of the cached gradients under the normalized weights."""
    if not support.entries:
        raise ValueError("cannot aggregate an empty support set")
    if support.weights is None:
        raise ValueError("support set has no weights; run weigh first")
    stacks = support.stacks()
    return GradRecord(
        d_weight=support.weights @ stacks["d_weight"],
        d_bias=support.weights @ stacks["d_bias"],
    )


def aggregate_recomputed(
    support: SupportSet, params: AffineParams, bank: TextBank
) -> GradRecord:
    """Like `aggregate`, but recomputes every gradient instead of using the cache.

    The stored embeddings equal the features at pretrained parameters, so the
    recomputation runs the full per-sample gradient for each entry.  This is
    the reference path the cached engine is checked against (and timed
    against).
    """
    if not support.entries:
        raise ValueError("cannot aggregate an empty support set")
    if support.weights is None:
        raise ValueError("support set has no weights; run weigh first")
    grads = [sample_grad(e.z, params, bank) for e in support.entries]
    gw = np.stack([g.d_weight for g in grads])
    gb = np.stack([g.d_bias for g in grads])
    return GradRecord(d_weight=support.weights @ gw, d_bias=support.weights @ gb)


def _step(optimizer: str, params: AffineParams, d_weight: np.ndarray, d_bias: np.ndarray,
          eta: float) -> tuple[np.ndarray, np.ndarray]:
    """(weight, bias) after one step; gradient rows give one parameter row each."""
    if optimizer == "signsgd":
        d_weight, d_bias = np.sign(d_weight), np.sign(d_bias)
    return params.weight - eta * d_weight, params.bias - eta * d_bias


def signsgd_step(params: AffineParams, grad: GradRecord, eta: float) -> AffineParams:
    """weight <- weight - eta * sign(grad); sign(0) = 0, so zeros never move."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return AffineParams(*_step("signsgd", params, grad.d_weight, grad.d_bias, eta))


def gd_step(params: AffineParams, grad: GradRecord, eta: float) -> AffineParams:
    """Plain gradient-descent step on both affine parameter vectors."""
    if eta < 0:
        raise ValueError("eta must be non-negative")
    return AffineParams(*_step("gd", params, grad.d_weight, grad.d_bias, eta))


def adapt_and_predict(
    sample: Sample,
    mem: ClassMemory,
    cfg: AdapterConfig,
    bank: TextBank,
    rng: np.random.Generator | None = None,
    recompute_grads: bool = False,
) -> AdaptOutcome:
    """One episodic adaptation step for a single sample.

    Retrieves a support set by the sample's pretrained embedding, weighs it,
    aggregates the gradients, takes one optimizer step from the pretrained
    parameters, and predicts with the adapted parameters.  Nothing persistent
    is mutated; an empty support set falls back to the zero-shot prediction.
    The sample's own entry is expected to be in memory already (insertion
    precedes adaptation).
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    params0 = AffineParams.pretrained(bank.dim)
    z = forward(sample.feature, params0)
    zero_shot = predict(z, bank)

    if cfg.topk_selection:
        support = mem.retrieve(z, cfg.retrieve_k)
    else:
        support = mem.sample_uniform(cfg.retrieve_k, rng)
    if not support.entries:
        return AdaptOutcome(
            prediction=zero_shot, zero_shot=zero_shot, support_size=0, support_domain_ids=()
        )

    support = weigh(
        support,
        z,
        cfg.beta,
        entropy_weighting=cfg.entropy_weighting,
        similarity_weighting=cfg.similarity_weighting,
    )
    if recompute_grads:
        grad = aggregate_recomputed(support, params0, bank)
    else:
        grad = aggregate(support)
    adapted = (signsgd_step if cfg.optimizer == "signsgd" else gd_step)(params0, grad, cfg.lr)
    pred = predict(forward(sample.feature, adapted), bank)
    return AdaptOutcome(
        prediction=pred,
        zero_shot=zero_shot,
        support_size=len(support.entries),
        support_domain_ids=tuple(
            e.domain_id for e in support.entries if e.domain_id is not None
        ),
    )


# Byte budget for the float64 temporaries of one array pass; a larger batch or
# stream is processed in consecutive row chunks.  Rows never interact, so the
# results do not depend on the chunking.
_BLOCK_BYTES = 64 << 20


def _row_chunks(rows: int, floats_per_row: int) -> list[slice]:
    """Consecutive slices covering `rows` rows, each within `_BLOCK_BYTES` (at least one row)."""
    step = max(1, _BLOCK_BYTES // (8 * floats_per_row))
    return [slice(start, start + step) for start in range(0, rows, step)]


def _adapt_block(V: np.ndarray, support: dict[str, np.ndarray], cfg: AdapterConfig,
                 params0: AffineParams, bank: TextBank) -> Posterior:
    """`adapt_and_predict` for a whole batch at once, given each row's `select` support.

    Same arithmetic as `weigh`, `aggregate` and the optimizer step, with one
    more leading axis for the batch.  The features `V` are the queries too.
    """
    log_raw = np.zeros(support["entropy"].shape)
    if cfg.entropy_weighting:
        log_raw -= support["entropy"]
    if cfg.similarity_weighting:
        diff = support["z"] - V[:, None, :]
        log_raw -= cfg.beta * np.sqrt(np.einsum("bmd,bmd->bm", diff, diff))
    if not np.all(np.isfinite(log_raw)):
        raise ValueError("non-finite aggregation weights (degenerate entropies or distances)")
    row_max = log_raw.max(axis=1, keepdims=True)
    # the raw weights exp(log_raw) sum to 0 exactly when their largest is 0
    if np.any(np.exp(row_max) == 0.0):
        raise ValueError("all raw aggregation weights underflowed to zero")
    shifted = np.exp(log_raw - row_max)
    weights = (shifted / shifted.sum(axis=1, keepdims=True))[:, None, :]
    weight, bias = _step(cfg.optimizer, params0, np.matmul(weights, support["d_weight"])[:, 0],
                         np.matmul(weights, support["d_bias"])[:, 0], cfg.lr)
    return _adapted_posterior(V * weight + bias, bank, cfg.lr)


def _adapted_posterior(Z: np.ndarray, bank: TextBank, lr: float) -> Posterior:
    """`posterior` of an adapted embedding block; non-finite logits there come from the step."""
    try:
        return posterior(Z, bank)
    except _BadRow:
        raise ValueError(f"adapted logits are not finite: lr {lr!r} is too large") from None


def process_batch(
    batch: Stream,
    mem: ClassMemory,
    cfg: AdapterConfig,
    bank: TextBank,
    rng: np.random.Generator | None = None,
    recompute_grads: bool = False,
) -> Outcomes:
    """Process one batch: gradients first, then one block insert, then adaptation.

    All rows join memory before any sample adapts, so samples within a
    batch can retrieve one another.  The cached engine adapts the batch as
    array operations, in as few row chunks as `_BLOCK_BYTES` allows;
    `recompute_grads` runs the per-sample reference engine
    (`adapt_and_predict`), which recomputes every support gradient.
    Support domains are coded as in `mem.domain_names`.

    A list of `Sample` is taken too, for perfbench's `online` loop that passes
    `[sample]`: `Stream.from_samples`, the one conversion left in the package,
    converts it and names the first sample of the wrong dim.
    """
    if not isinstance(batch, Stream):
        batch = Stream.from_samples(batch, bank.dim)
    if len(batch) > cfg.batch_size:
        raise ValueError(f"batch of {len(batch)} exceeds configured batch_size {cfg.batch_size}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    params0 = AffineParams.pretrained(bank.dim)
    V = batch.features  # the embeddings too: forward at params0 is the identity
    post = batch_grads(V, params0, bank)
    names = batch.domain_names + (None,)
    mem.insert_block(V, post.d_bias, post.entropy, post.labels,
                     [names[c] for c in batch.domains.tolist()])
    if recompute_grads:
        return Outcomes.from_rows(
            [adapt_and_predict(s, mem, cfg, bank, rng=rng, recompute_grads=True) for s in batch],
            mem.domain_names)
    # float64s per query: the support stacks and distances (4 d + 10 per entry); 4 per row
    # of the total capacity C * K (split or not) for the padded similarity block, `_top`'s
    # partition (or negated) copy and int64 tie count (or sort order), and its at most 5
    # bool masks (1 together); the adapted posterior (8 per class, 4 per dim)
    m = min(len(mem), bank.num_classes * cfg.retrieve_k)
    capacity = mem.num_classes * mem.capacity_per_class
    per_query = (4 * bank.dim + 10) * m + 4 * capacity + 8 * bank.num_classes + 4 * bank.dim
    adapted, domains = [], []
    for rows in _row_chunks(len(V), per_query):
        support = mem.select(V[rows], cfg.retrieve_k, rng=None if cfg.topk_selection else rng)
        adapted.append(_adapt_block(V[rows], support, cfg, params0, bank))
        domains.append(support["domain"])
    zero_shot = Posterior(post.logits, post.probs, post.entropy, post.labels)
    return Outcomes(concat_posteriors(adapted), zero_shot,
                    np.full(len(V), domains[0].shape[1]), np.concatenate(domains),
                    mem.domain_names)


def run_stream(
    stream: Stream,
    cfg: AdapterConfig,
    bank: TextBank,
    recompute_grads: bool = False,
) -> Outcomes:
    """Run the full cached-adaptation engine over a stream, batch by batch."""
    if not len(stream):
        return Outcomes.unadapted(_zero_shot(stream.features, bank))
    mem = ClassMemory(
        num_classes=bank.num_classes,
        capacity_per_class=cfg.capacity_per_class,
        split=cfg.split_memory,
    )
    rng = np.random.default_rng(cfg.seed)
    return Outcomes.concat([
        process_batch(stream[start : start + cfg.batch_size], mem, cfg, bank, rng=rng,
                      recompute_grads=recompute_grads)
        for start in range(0, len(stream), cfg.batch_size)])


def run_entropy_baseline(stream: Stream, cfg: AdapterConfig, bank: TextBank) -> Outcomes:
    """Online entropy minimization with one persistent parameter set (no reset).

    Per batch: mean entropy gradient at the current parameters (recomputed
    from scratch every time, since cached gradients are only valid at the
    pretrained parameters), one SignSGD step, then predict the batch with the
    updated parameters.
    """
    params = AffineParams.pretrained(bank.dim)
    adapted = []
    for start in range(0, len(stream), cfg.batch_size):
        V = stream.features[start : start + cfg.batch_size]
        post = posterior(forward(V, params), bank, V)
        mean_grad = GradRecord(post.d_weight.mean(axis=0), post.d_bias.mean(axis=0))
        params = signsgd_step(params, mean_grad, cfg.lr)
        adapted.append(_adapted_posterior(forward(V, params), bank, cfg.lr))
    return Outcomes.unadapted(_zero_shot(stream.features, bank),
                              concat_posteriors(adapted) if adapted else None)


def run_zero_shot(stream: Stream, bank: TextBank) -> Outcomes:
    """Predict every sample at the pretrained parameters, where the embedding is the feature."""
    return Outcomes.unadapted(_zero_shot(stream.features, bank))


def _zero_shot(V: np.ndarray, bank: TextBank) -> Posterior:
    """The posterior of each feature row at the pretrained parameters, in row chunks."""
    return concat_posteriors([posterior(V[rows], bank) for rows in
                              _row_chunks(max(len(V), 1), 8 * bank.num_classes + 2 * bank.dim)])


def reference_adapter_config(seed: int = 0) -> AdapterConfig:
    """Engine settings paired with the reference benchmark stream."""
    return AdapterConfig(
        capacity_per_class=100,
        retrieve_k=5,
        beta=5.0,
        lr=1e-2,
        batch_size=100,
        optimizer="signsgd",
        seed=seed,
    )


# the config fields each engine variant overrides
VARIANTS = {
    "full": {},
    "no-pb": dict(split_memory=False),
    "no-dc": dict(topk_selection=False, beta=0.0),
    "no-pb-dc": dict(split_memory=False, topk_selection=False, beta=0.0),
    "no-entw": dict(entropy_weighting=False),
    "no-simw": dict(similarity_weighting=False),
}


def ablation_config(cfg: AdapterConfig, variant: str) -> AdapterConfig:
    """Config for a named engine variant.

    full: as given; no-pb: single unsplit queue; no-dc: uniform random
    selection with beta forced to 0; no-pb-dc: both; no-entw / no-simw:
    drop one weighting factor.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown engine variant '{variant}'")
    return replace(cfg, **VARIANTS[variant]) if VARIANTS[variant] else cfg

"""Episodic adaptation engine: aggregate cached gradients, step, predict, reset.

For every incoming sample the engine retrieves a support set from memory,
forms a weighted average of the cached per-sample gradients, takes a single
optimizer step away from the pretrained parameters, predicts the sample with
the adapted parameters, and discards them.  Adaptation is therefore episodic:
the persistent model is never mutated, which is exactly what keeps gradients
cached at the pretrained parameters valid forever.

Two reference engines live here as well: an online entropy-minimization
baseline that keeps mutating one parameter set across batches (and must
recompute gradients at the current parameters, since the cache only holds
pretrained-parameter gradients), and the plain zero-shot pass.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .memory import ClassMemory, MemoryEntry, SupportSet, weigh
from .model import (
    AffineParams,
    GradRecord,
    Prediction,
    Sample,
    TextBank,
    batch_grads,
    forward,
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
        for name in ("capacity_per_class", "retrieve_k", "batch_size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def signsgd_step(params: AffineParams, grad: GradRecord, eta: float) -> AffineParams:
    """weight <- weight - eta * sign(grad); sign(0) = 0, so zeros never move."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return AffineParams(
        weight=params.weight - eta * np.sign(grad.d_weight),
        bias=params.bias - eta * np.sign(grad.d_bias),
    )


def gd_step(params: AffineParams, grad: GradRecord, eta: float) -> AffineParams:
    """Plain gradient-descent step on both affine parameter vectors."""
    if eta < 0:
        raise ValueError("eta must be non-negative")
    return AffineParams(
        weight=params.weight - eta * grad.d_weight,
        bias=params.bias - eta * grad.d_bias,
    )


def _optimizer_step(cfg: AdapterConfig):
    return signsgd_step if cfg.optimizer == "signsgd" else gd_step


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
    adapted = _optimizer_step(cfg)(params0, grad, cfg.lr)
    pred = predict(forward(sample.feature, adapted), bank)
    return AdaptOutcome(
        prediction=pred,
        zero_shot=zero_shot,
        support_size=len(support.entries),
        support_domain_ids=tuple(
            e.domain_id for e in support.entries if e.domain_id is not None
        ),
    )


def process_batch(
    batch: list[Sample],
    mem: ClassMemory,
    cfg: AdapterConfig,
    bank: TextBank,
    rng: np.random.Generator | None = None,
    recompute_grads: bool = False,
) -> list[AdaptOutcome]:
    """Process one batch: gradients first, then inserts, then per-sample adaptation.

    All entries join memory before any sample adapts, so samples within a
    batch can retrieve one another.
    """
    if len(batch) > cfg.batch_size:
        raise ValueError(f"batch of {len(batch)} exceeds configured batch_size {cfg.batch_size}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    params0 = AffineParams.pretrained(bank.dim)
    evals = batch_grads(batch, params0, bank)
    for sample, (pred, grad) in zip(batch, evals):
        entry = MemoryEntry(
            z=forward(sample.feature, params0),
            grad=grad,
            entropy=pred.entropy,
            domain_id=sample.domain_id,
        )
        mem.insert(entry, pred.pseudo_label)
    return [
        adapt_and_predict(s, mem, cfg, bank, rng=rng, recompute_grads=recompute_grads)
        for s in batch
    ]


def run_stream(
    stream: list[Sample],
    cfg: AdapterConfig,
    bank: TextBank,
    recompute_grads: bool = False,
) -> list[AdaptOutcome]:
    """Run the full cached-adaptation engine over a stream, batch by batch."""
    mem = ClassMemory(
        num_classes=bank.num_classes,
        capacity_per_class=cfg.capacity_per_class,
        split=cfg.split_memory,
    )
    rng = np.random.default_rng(cfg.seed)
    out: list[AdaptOutcome] = []
    for start in range(0, len(stream), cfg.batch_size):
        batch = stream[start : start + cfg.batch_size]
        out.extend(
            process_batch(batch, mem, cfg, bank, rng=rng, recompute_grads=recompute_grads)
        )
    return out


def run_entropy_baseline(
    stream: list[Sample], cfg: AdapterConfig, bank: TextBank
) -> list[AdaptOutcome]:
    """Online entropy minimization with one persistent parameter set (no reset).

    Per batch: mean entropy gradient at the current parameters (recomputed
    from scratch every time, since cached gradients are only valid at the
    pretrained parameters), one SignSGD step, then predict the batch with the
    updated parameters.
    """
    params0 = AffineParams.pretrained(bank.dim)
    params = params0
    out: list[AdaptOutcome] = []
    for start in range(0, len(stream), cfg.batch_size):
        batch = stream[start : start + cfg.batch_size]
        evals = batch_grads(batch, params, bank)
        mean_gw = np.mean(np.stack([g.d_weight for _, g in evals]), axis=0)
        mean_gb = np.mean(np.stack([g.d_bias for _, g in evals]), axis=0)
        params = signsgd_step(params, GradRecord(mean_gw, mean_gb), cfg.lr)
        for sample in batch:
            pred = predict(forward(sample.feature, params), bank)
            zs = predict(forward(sample.feature, params0), bank)
            out.append(
                AdaptOutcome(prediction=pred, zero_shot=zs, support_size=0)
            )
    return out


def run_zero_shot(stream: list[Sample], bank: TextBank) -> list[AdaptOutcome]:
    """Predict every sample at the pretrained parameters; no state anywhere."""
    params0 = AffineParams.pretrained(bank.dim)
    out = []
    for sample in stream:
        pred = predict(forward(sample.feature, params0), bank)
        out.append(AdaptOutcome(prediction=pred, zero_shot=pred, support_size=0))
    return out


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


def ablation_config(cfg: AdapterConfig, variant: str) -> AdapterConfig:
    """Config for a named engine variant.

    full: as given; no-pb: single unsplit queue; no-dc: uniform random
    selection with beta forced to 0; no-pb-dc: both; no-entw / no-simw:
    drop one weighting factor.
    """
    if variant == "full":
        return cfg
    if variant == "no-pb":
        return replace(cfg, split_memory=False)
    if variant == "no-dc":
        return replace(cfg, topk_selection=False, beta=0.0)
    if variant == "no-pb-dc":
        return replace(cfg, split_memory=False, topk_selection=False, beta=0.0)
    if variant == "no-entw":
        return replace(cfg, entropy_weighting=False)
    if variant == "no-simw":
        return replace(cfg, similarity_weighting=False)
    raise ValueError(f"unknown engine variant '{variant}'")

"""Normalized-feature classifier head with exact per-sample entropy gradients.

The model is deliberately tiny: a unit-norm feature vector goes through an
element-wise affine transform (scale and shift, the trainable part of a
normalization layer) and is scored against a fixed bank of unit-norm class
text embeddings by temperature-scaled inner products.  Softmax entropy of the
resulting distribution is the adaptation objective, and its gradient with
respect to the affine parameters has a closed form that this module computes
exactly (and can cross-check against central finite differences).

A `Stream` carries a whole stream as arrays (features, labels, domain codes
and names) and a `Posterior` the predictions of a block of rows; a per-row
`Sample` or `Prediction` is built only when a row is indexed.  `create_file`
is the one way the package opens a file for writing.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

UNIT_NORM_TOL = 1e-9


def _as_f64(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def create_file(path: str | Path, newline: str | None = None) -> IO[str]:
    """Open `path` for writing text as a new file: whatever is there is unlinked first.

    Writing over an existing file in place can stall on some file systems;
    a new file never does.  A symlink at `path` is replaced, not written through.
    """
    Path(path).unlink(missing_ok=True)
    return open(path, "x", newline=newline)


def _check_field_types(obj, integers=(), booleans=(), reals=()) -> None:
    """Raise ValueError naming the first listed field of `obj` of the wrong type.

    `integers` must be integers and `booleans` true or false; `reals` must be
    finite numbers.  A bool is neither an integer nor a number here.
    """
    for name in integers:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name in booleans:
        value = getattr(obj, name)
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be true or false, got {value!r}")
    for name in reals:
        value = getattr(obj, name)
        try:  # an integer too large for a float is not finite either
            finite = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                      and math.isfinite(value))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def _ensure_unit(v: np.ndarray, name: str, accept_tol: float, renormalize: bool) -> np.ndarray:
    """Return a unit vector, keeping bit-exact inputs that are already unit.

    Vectors within UNIT_NORM_TOL of unit norm pass through untouched so that
    serialization round-trips are exact; larger deviations are rescaled when
    `renormalize` is set or when they fall inside `accept_tol`, and rejected
    otherwise.  Non-finite entries are rejected.  When the squares of the entries
    overflow (entries above about 1e154) the norm is taken of v over its largest
    entry and scaled back, so it is the true norm.
    """
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    scale = 1.0
    if math.isinf(norm):
        scale = float(np.abs(v).max())
        v = v / scale
        norm = float(np.linalg.norm(v))
    true_norm = scale * norm
    dev = abs(true_norm - 1.0)
    if dev <= UNIT_NORM_TOL:
        return v
    if renormalize or dev <= accept_tol:
        if norm == 0.0:
            raise ValueError(f"{name} has zero norm, cannot normalize")
        return v / norm
    raise ValueError(
        f"{name} has L2 norm {true_norm:.12g}, deviating from 1 by more than {accept_tol:g}"
    )


@dataclass(frozen=True)
class TextBank:
    """Fixed class text embeddings plus the log temperature of the logit scale.

    `embeddings` has one unit-norm row per class; logits are
    exp(log_temp) * (z . t_c).
    """

    embeddings: np.ndarray
    log_temp: float
    class_names: list[str]

    def __post_init__(self):
        _check_field_types(self, reals=("log_temp",))
        if not (isinstance(self.class_names, list)
                and all(isinstance(name, str) for name in self.class_names)):
            raise ValueError(f"class_names must be a list of strings, got {self.class_names!r}")
        emb = _as_f64(self.embeddings, "embeddings")
        if emb.ndim != 2:
            raise ValueError("embeddings must be a 2-D array of shape (C, d)")
        C, d = emb.shape
        if C < 2 or d < 2:
            raise ValueError(f"need at least 2 classes and 2 dimensions, got C={C}, d={d}")
        if len(self.class_names) != C:
            raise ValueError(f"{len(self.class_names)} class names for {C} embedding rows")
        norms = np.linalg.norm(emb, axis=1)
        if np.max(np.abs(norms - 1.0)) > UNIT_NORM_TOL:
            raise ValueError("every text embedding row must have unit L2 norm (tol 1e-9)")
        object.__setattr__(self, "embeddings", emb)
        object.__setattr__(self, "log_temp", float(self.log_temp))

    @property
    def num_classes(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True)
class AffineParams:
    """Trainable element-wise scale and shift of the normalization layer."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = _as_f64(self.weight, "weight")
        b = _as_f64(self.bias, "bias")
        if w.ndim != 1 or b.shape != w.shape:
            raise ValueError("weight and bias must be 1-D arrays of equal length")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @classmethod
    @functools.lru_cache(maxsize=64)
    def pretrained(cls, dim: int) -> "AffineParams":
        """Identity transform: all-ones scale, all-zeros shift.

        Built and checked once per dim and then shared, so its arrays are read-only.
        """
        params = cls(weight=np.ones(dim), bias=np.zeros(dim))
        params.weight.flags.writeable = False
        params.bias.flags.writeable = False
        return params

    @property
    def dim(self) -> int:
        return self.weight.shape[0]


@dataclass(frozen=True)
class Sample:
    """One unit-norm feature from the stream.

    `true_label` and `domain_id` exist for evaluation only; the adaptation
    path never reads them.
    """

    feature: np.ndarray
    true_label: int | None = None
    domain_id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "feature", _unit_feature(self.feature))


def _unit_feature(feature) -> np.ndarray:
    """`feature` as a float64 vector; raises unless it is finite, 1-D and of unit norm (1e-9)."""
    v = _as_f64(feature, "feature")
    if v.ndim != 1:
        raise ValueError("feature must be a 1-D vector")
    dev = abs(float(np.linalg.norm(v)) - 1.0)
    if dev > UNIT_NORM_TOL:
        raise ValueError(f"feature norm deviates from 1 by {dev:.3g} (tol 1e-9)")
    return v


@dataclass(frozen=True)
class Stream:
    """A stream as arrays: row i of every field is sample i.

    `features` is (n, d) with unit-norm rows, `labels` holds -1 for a row
    without a label, and `domains` holds codes into `domain_names`, -1 for a
    row without a domain.  The constructor trusts its arrays: `from_samples`
    and `datagen.load_jsonl` check every row.  An integer index gives that
    row's `Sample`, a slice a `Stream` over views of the rows.
    """

    features: np.ndarray
    labels: np.ndarray
    domains: np.ndarray
    domain_names: tuple[str, ...]

    @classmethod
    def from_samples(cls, samples: list[Sample], dim: int | None = None) -> "Stream":
        """The samples as one stream, domains coded in sorted name order; names the first
        sample whose feature is not of dim `dim` (default: the first sample's)."""
        if dim is None:
            dim = samples[0].feature.shape[0] if samples else 0
        for i, s in enumerate(samples):
            if s.feature.shape != (dim,):
                raise ValueError(f"batch element {i}: feature dim {s.feature.shape} "
                                 f"does not match params dim {(dim,)}")
        names = sorted({s.domain_id for s in samples} - {None})
        code = {name: c for c, name in enumerate(names)}
        return cls(np.array([s.feature for s in samples]).reshape(len(samples), dim),
                   np.array([-1 if s.true_label is None else s.true_label for s in samples],
                            dtype=np.int64),
                   np.array([code.get(s.domain_id, -1) for s in samples], dtype=np.int64),
                   tuple(names))

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, rows):
        if isinstance(rows, slice):
            return Stream(self.features[rows], self.labels[rows], self.domains[rows],
                          self.domain_names)
        label, code = int(self.labels[rows]), int(self.domains[rows])
        return Sample(self.features[rows], None if label < 0 else label,
                      None if code < 0 else self.domain_names[code])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def domain_codes(rows: list, names: tuple[str, ...]) -> np.ndarray:
    """Each row's domain names as codes into `names` (-1 for a name not in it), one row per
    list, padded with -1 to the longest."""
    index = {name: c for c, name in enumerate(names)}
    codes = np.full((len(rows), max(map(len, rows), default=0)), -1)
    for i, row in enumerate(rows):
        codes[i, :len(row)] = [index.get(name, -1) for name in row]
    return codes


def as_stream(samples: Stream | list[Sample], dim: int | None = None) -> Stream:
    """`samples` as a `Stream`: a stream as it is, a list through `Stream.from_samples`."""
    return samples if isinstance(samples, Stream) else Stream.from_samples(samples, dim)


@dataclass(frozen=True)
class Prediction:
    logits: np.ndarray
    probs: np.ndarray
    pseudo_label: int
    entropy: float


@dataclass(frozen=True)
class GradRecord:
    """Entropy gradient w.r.t. the affine scale (d_weight) and shift (d_bias)."""

    d_weight: np.ndarray
    d_bias: np.ndarray

    def __post_init__(self):
        gw = _as_f64(self.d_weight, "d_weight")
        gb = _as_f64(self.d_bias, "d_bias")
        if gw.ndim != 1 or gb.shape != gw.shape:
            raise ValueError("d_weight and d_bias must be 1-D arrays of equal length")
        object.__setattr__(self, "d_weight", gw)
        object.__setattr__(self, "d_bias", gb)


def forward(feature: np.ndarray, params: AffineParams) -> np.ndarray:
    """Element-wise affine transform z = v * weight + bias (not re-normalized).

    `feature` is one vector or a (B, d) block with one feature per row.
    """
    v = np.asarray(feature, dtype=np.float64)
    if v.shape[-1:] != params.weight.shape:
        raise ValueError(f"feature dim {v.shape} does not match params dim {params.weight.shape}")
    return v * params.weight + params.bias


class _BadRow(ValueError):
    """A posterior block row with a non-finite value; `row` is its index."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _check_rows(block: np.ndarray, message: str) -> None:
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise _BadRow(int(np.argmin(finite)), message)


@dataclass(frozen=True)
class Posterior:
    """Softmax posterior of each row of an embedding block (row i of every field is row i's).

    `d_weight` and `d_bias` are the entropy gradients, None unless asked for.
    """

    logits: np.ndarray
    probs: np.ndarray
    entropy: np.ndarray
    labels: np.ndarray
    d_weight: np.ndarray | None = None
    d_bias: np.ndarray | None = None

    def prediction(self, row: int) -> Prediction:
        """Row `row` as a `Prediction`."""
        return Prediction(self.logits[row], self.probs[row], pseudo_label=int(self.labels[row]),
                          entropy=float(self.entropy[row]))

    def __getitem__(self, rows) -> "Posterior":
        """The predictions of rows `rows` (a slice or an index array), without gradients."""
        return Posterior(self.logits[rows], self.probs[rows], self.entropy[rows], self.labels[rows])


def concat_posteriors(parts: list[Posterior]) -> Posterior:
    """The predictions of consecutive blocks, without gradients, as one posterior."""
    if len(parts) == 1:
        return parts[0]
    return Posterior(*(np.concatenate([getattr(p, name) for p in parts])
                       for name in ("logits", "probs", "entropy", "labels")))


def posterior(z_block: np.ndarray, bank: TextBank, features: np.ndarray | None = None) -> Posterior:
    """Logits, probs, entropy and argmax label of each row of a (B, d) embedding block.

    Given the (B, d) `features` the block was computed from, the entropy
    gradient of each row is computed as well (see `sample_grad`).  Each row is
    computed on its own and bitwise the same in any batch: logits and T^T dH/dl
    are one gemv per row (np.matmul over a stack of vectors), reductions run
    along a row and the log-normalizer is a scalar `math.log` per row.  A
    matrix product over the block would round a row by its place in the batch.
    """
    Z = np.asarray(z_block, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != bank.dim:
        raise ValueError(f"embedding dim {Z.shape[-1]} does not match bank dim {bank.dim}")
    scale = math.exp(bank.log_temp)
    logits = scale * np.matmul(bank.embeddings, Z[:, :, None])[:, :, 0]
    _check_rows(logits, "non-finite logits")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = [math.log(total) for total in np.exp(shifted).sum(axis=1).tolist()]
    log_probs = shifted - np.array(log_norm)[:, None]
    probs = np.exp(log_probs)
    # p * log p -> 0 as p -> 0; guard the 0 * -inf corner explicitly.
    entropy = -np.where(probs > 0.0, probs * log_probs, 0.0).sum(axis=1)
    # argmax ties resolve to the lowest index
    labels = probs.argmax(axis=1)
    if features is None:
        return Posterior(logits, probs, entropy, labels)
    dH_dl = np.where(probs > 0.0, -probs * (log_probs + entropy[:, None]), 0.0)
    dH_dz = scale * np.matmul(bank.embeddings.T, dH_dl[:, :, None])[:, :, 0]
    _check_rows(dH_dz, "non-finite intermediate in entropy gradient")
    return Posterior(logits, probs, entropy, labels, d_weight=dH_dz * features, d_bias=dH_dz)


def predict(z: np.ndarray, bank: TextBank) -> Prediction:
    """Temperature-scaled cosine-logit softmax prediction for one embedding."""
    return posterior(np.asarray(z, dtype=np.float64)[None, :], bank).prediction(0)


def sample_grad(feature: np.ndarray, params: AffineParams, bank: TextBank) -> GradRecord:
    """Closed-form gradient of the prediction entropy w.r.t. the affine params.

    Chain rule through the softmax: dH/dl_c = -p_c (log p_c + H), then
    dH/dz = exp(log_temp) * T^T dH/dl, dH/dweight = dH/dz * v and
    dH/dbias = dH/dz.
    """
    v = np.asarray(feature, dtype=np.float64)[None, :]
    post = posterior(forward(v, params), bank, v)
    return GradRecord(d_weight=post.d_weight[0], d_bias=post.d_bias[0])


def batch_grads(
    batch: Stream | list[Sample] | np.ndarray, params: AffineParams, bank: TextBank
) -> Posterior:
    """Posterior and entropy gradients (`d_weight`, `d_bias`) of each sample, rows in order.

    `batch` is a stream, a list of samples or a (B, d) block of features.  One
    `posterior` pass over the batch; every element is computed on its own, so
    the output is identical for any partitioning of the batch.
    """
    V = batch if isinstance(batch, np.ndarray) else as_stream(batch, params.dim).features
    if not len(V):
        raise ValueError("batch must be non-empty")
    try:
        return posterior(forward(V, params), bank, V)
    except _BadRow as exc:
        raise ValueError(f"batch element {exc.row}: {exc}") from exc


def entropy_at(feature: np.ndarray, params: AffineParams, bank: TextBank) -> float:
    """Prediction entropy of a feature under the given affine params."""
    return predict(forward(feature, params), bank).entropy


def finite_diff_grad(
    feature: np.ndarray, params: AffineParams, bank: TextBank, step: float
) -> GradRecord:
    """Central-difference entropy gradient, the oracle for `sample_grad`.

    Deliberately a scalar loop over coordinates so it shares nothing with the
    closed-form path.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    v = np.asarray(feature, dtype=np.float64)
    d = params.dim
    gw = np.zeros(d)
    gb = np.zeros(d)
    for h in range(d):
        w_plus = params.weight.copy()
        w_minus = params.weight.copy()
        w_plus[h] += step
        w_minus[h] -= step
        gw[h] = (
            entropy_at(v, AffineParams(w_plus, params.bias), bank)
            - entropy_at(v, AffineParams(w_minus, params.bias), bank)
        ) / (2.0 * step)
        b_plus = params.bias.copy()
        b_minus = params.bias.copy()
        b_plus[h] += step
        b_minus[h] -= step
        gb[h] = (
            entropy_at(v, AffineParams(params.weight, b_plus), bank)
            - entropy_at(v, AffineParams(params.weight, b_minus), bank)
        ) / (2.0 * step)
    return GradRecord(d_weight=gw, d_bias=gb)


def load_text_bank(path: str | Path, renormalize: bool = False) -> TextBank:
    """Load a text bank from JSON: {"log_temp", "class_names", "embeddings"}.

    Rows whose norm deviates from 1 by more than 1e-6 are rejected unless
    `renormalize` is set; accepted off-unit rows are rescaled.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("text bank file must hold a JSON object")
    for key in ("log_temp", "class_names", "embeddings"):
        if key not in data:
            raise ValueError(f"text bank file missing field '{key}'")
    try:
        rows = [np.asarray(row, dtype=np.float64) for row in data["embeddings"]]
    except (TypeError, ValueError):
        raise ValueError("embeddings must be a list of numeric rows")
    except OverflowError:
        raise ValueError("embeddings hold a number too large for a float")
    if not rows:
        raise ValueError("text bank has no embedding rows")
    fixed = [_ensure_unit(row, f"embedding row {i}", accept_tol=1e-6, renormalize=renormalize)
             for i, row in enumerate(rows)]
    return TextBank(
        embeddings=np.stack(fixed),
        log_temp=data["log_temp"],
        class_names=data["class_names"],
    )


def save_text_bank(bank: TextBank, path: str | Path) -> None:
    payload = {
        "log_temp": bank.log_temp,
        "class_names": bank.class_names,
        "embeddings": [[float(x) for x in row] for row in bank.embeddings],
    }
    with create_file(path) as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")

"""Seeded synthetic mixed-domain embedding streams and dataset file I/O.

Each sample is a class prototype with a per-domain corruption applied, plus a
domain marker and isotropic noise, L2-normalized.  Class prototypes live in
the leading `class_dims` coordinates and double as the text bank rows.  A
domain corrupts by damping a random subset of the class coordinates (so each
domain loses a different part of the class evidence) and stamps a marker
direction into the following `domain_dims` coordinates (so domains form
retrievable clusters).  Noise is an isotropic scale mixture: a small fraction
of samples draw a much larger noise radius, giving the stream genuinely
unreliable entries.

The difficulty is fixed: the constants below were calibrated once, and the
repository's trend tests are frozen against them.  A `StreamConfig` sets only
the shape of the stream.

`generate` builds its stream as one `Stream` of arrays, a domain's rows at a
time, and `order_stream` and `save_jsonl` work on its rows.  `load_jsonl`
reads a dataset file into one `Stream`: it parses and type-checks each line,
then checks finiteness and norm over the stacked block, with the exact
per-row rule for any row the block check cannot pass; the generated block
goes through the same check.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    UNIT_NORM_TOL,
    Stream,
    TextBank,
    _check_field_types,
    _ensure_unit,
    _unit_feature,
    create_file,
)

# Embeddings sit in a narrow cone around a shared anchor direction (as encoder
# embeddings do): sample = normalize(anchor + _SIGNAL_SCALE * signal), so
# _SIGNAL_SCALE sets the pairwise-distance scale of the stream.  Text
# embeddings sit in their own cone: normalize(align * anchor + _TEXT_SCALE *
# prototype), with align spread by _TEXT_ANCHOR_SPREAD across the classes.
_SIGNAL_SCALE = 0.10
_TEXT_SCALE = 0.75
_TEXT_ANCHOR_SPREAD = 0.10
# recurring per-class context offsets, and the per-sample noise radius
_CLUSTER_SIGMA = 0.25
_WITHIN_SIGMA = 0.20
_CLUSTERS_PER_CLASS = 12
# domain marker length; share of class coordinates each domain damps, and to what
_SHIFT_SCALE = 1.3
_DAMP_FRACTION = 0.5
_DAMP_STRENGTH = 0.15
# < 1 makes label distributions differ per domain
_CLASS_SKEW = 0.45
# unreliable "blank" captures: their share, class evidence and context attachment
_BLANK_FRACTION = 0.20
_BLANK_EVIDENCE = 0.15
_BLANK_CONTEXT = 0.6
# how far benign and hostile domains sit from the mean severity
_DOMAIN_HETEROGENEITY = 0.6
# a share of samples draws this multiple of the per-sample noise radius
_OUTLIER_FRACTION = 0.1
_OUTLIER_SCALE = 2.0
_LOG_TEMP = math.log(100.0)
# the largest array dimension numpy takes; a larger count cannot size an array
_MAX_ARRAY_DIM = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class StreamConfig:
    """Shape of a generated stream: classes, domains, dimension, length, order, seed.

    The signal of a sample combines a class prototype (first `class_dims`
    coordinates, damped per domain), a domain marker (next `domain_dims`
    coordinates), a recurring cluster offset, and per-sample noise; the
    coordinate after them carries the anchor.  How hard the stream is comes
    from the module constants, not from the config.
    """

    num_classes: int
    num_domains: int
    dim: int
    samples_per_domain: int
    ordering: str = "mixed"
    seed: int = 0

    def __post_init__(self):
        _check_field_types(
            self, integers=("num_classes", "num_domains", "dim", "samples_per_domain", "seed"))
        for name in ("num_classes", "num_domains", "dim", "samples_per_domain"):
            if getattr(self, name) > _MAX_ARRAY_DIM:
                raise ValueError(f"{name}: too large for an array dimension "
                                 f"(at most {_MAX_ARRAY_DIM})")
        if self.num_classes < 2:
            raise ValueError("num_classes: need at least 2 classes")
        if self.num_domains < 1:
            raise ValueError("num_domains: need at least 1 domain")
        if self.dim < 2:
            raise ValueError("dim: need at least 2 dimensions")
        if self.samples_per_domain < 1:
            raise ValueError("samples_per_domain: must be positive")
        if self.seed < 0:
            raise ValueError(f"seed: must be non-negative, got {self.seed}")
        if self.ordering not in ("mixed", "sequential"):
            raise ValueError(f"ordering: must be 'mixed' or 'sequential', got '{self.ordering}'")

    @property
    def class_dims(self) -> int:
        """Width of the class block: at most half the coordinates."""
        return min(self.dim // 2, max(self.num_classes, 2))

    @property
    def domain_dims(self) -> int:
        """Width of the marker block: what is left after the class block and the anchor."""
        return max(0, min(self.num_domains, self.dim - self.class_dims - 1))

    @property
    def anchor_index(self) -> int:
        """Coordinate carrying the shared cone direction."""
        return self.class_dims + self.domain_dims


def _orthonormal_rows(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n orthonormal directions in R^dim (n <= dim), random orientation."""
    raw = rng.standard_normal((dim, n))
    q, r = np.linalg.qr(raw)
    return (q * np.sign(np.diag(r))).T[:n]


def _class_prototypes(cfg: StreamConfig, rng: np.random.Generator) -> np.ndarray:
    """Unit prototypes in the class block, mutually orthogonal when they fit.

    Half the classes concentrate their evidence on a single coordinate, the
    rest spread it across the remaining class coordinates, so damping hits
    classes unevenly (concentrated evidence can be wiped out, spread evidence
    only dented).
    """
    C, cd = cfg.num_classes, cfg.class_dims
    protos = np.zeros((C, cfg.dim))
    n_conc = C // 2
    if C <= cd and cd - n_conc >= C - n_conc:
        for c in range(n_conc):
            protos[c, c] = 1.0
        spread = _orthonormal_rows(C - n_conc, cd - n_conc, rng)
        protos[n_conc:, n_conc:cd] = spread
    elif C <= cd:
        protos[:, :cd] = _orthonormal_rows(C, cd, rng)
    else:
        raw = rng.standard_normal((C, cd))
        protos[:, :cd] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return protos


def _domain_shifts(cfg: StreamConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-domain marker directions and class-block damping masks, each (D, dim).

    Damped coordinates are dealt round-robin so different domains lose
    different parts of the class evidence (disjoint when they fit, which
    maximizes how differently domains corrupt).
    """
    D, cd, dd = cfg.num_domains, cfg.class_dims, cfg.domain_dims
    markers = np.zeros((D, cfg.dim))
    if dd > 0 and D <= dd:
        markers[:, cd : cd + dd] = _orthonormal_rows(D, dd, rng)
    elif dd > 0:
        raw = rng.standard_normal((D, dd))
        markers[:, cd : cd + dd] = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    num_damped = int(round(_DAMP_FRACTION * cd))
    deal = rng.permutation(cd)
    masks = np.ones((D, cfg.dim))
    for j in range(D):
        masks[j, deal[(j * num_damped + np.arange(num_damped)) % cd]] = _DAMP_STRENGTH
    return markers, masks


def _domain_class_probs(cfg: StreamConfig, j: int) -> np.ndarray:
    """Skewed label distribution for domain j: geometric weights, rotated so
    each domain favors a different class (the stream stays balanced overall)."""
    ranks = (np.arange(cfg.num_classes) - j) % cfg.num_classes
    probs = _CLASS_SKEW ** ranks
    return probs / probs.sum()


def _anchor(cfg: StreamConfig) -> np.ndarray:
    a = np.zeros(cfg.dim)
    a[cfg.anchor_index] = 1.0
    return a


def generate(cfg: StreamConfig) -> tuple[Stream, TextBank]:
    """Generate a labeled stream and its text bank, deterministic under the seed.

    The rows come back already ordered per `cfg.ordering`, domains coded in
    sorted name order.  Each domain's rows are computed as one block, with the
    arithmetic of one row at a time: the same elementwise operations in the
    same order, and each row divided by its own `np.linalg.norm`.
    """
    rng = np.random.default_rng(cfg.seed)
    protos = _class_prototypes(cfg, rng)
    markers, masks = _domain_shifts(cfg, rng)
    anchor = _anchor(cfg)
    n = cfg.samples_per_domain
    blocks, labels = [], []
    for j in range(cfg.num_domains):
        # domains alternate between benign (small context offsets, few blanks)
        # and hostile (strong context bias, many unreliable captures)
        severity = 1.0 + _DOMAIN_HETEROGENEITY * (1.0 if j % 2 else -1.0)
        shift = _SHIFT_SCALE * markers[j]
        # recurring per-class contexts: related captures of the same subject
        contexts = severity * _CLUSTER_SIGMA * rng.standard_normal(
            (cfg.num_classes, _CLUSTERS_PER_CLASS, cfg.dim)
        )
        domain_labels = rng.choice(cfg.num_classes, size=n, p=_domain_class_probs(cfg, j))
        clusters = rng.integers(_CLUSTERS_PER_CLASS, size=n)
        noise = _WITHIN_SIGMA * rng.standard_normal((n, cfg.dim))
        outlier = rng.random(n) < _OUTLIER_FRACTION
        blank = rng.random(n) < severity * _BLANK_FRACTION
        scale = np.where(outlier, _OUTLIER_SCALE, 1.0)[:, None]
        # blanks carry almost no class evidence and only loosely follow
        # their context, but keep the domain marker: unreliable captures
        # that still circulate through every neighborhood of their domain
        evidence = np.where(blank, _BLANK_EVIDENCE, 1.0)[:, None]
        attachment = np.where(blank, _BLANK_CONTEXT, 1.0)[:, None]
        sig = (
            evidence * masks[j] * protos[domain_labels]
            + shift
            + attachment * contexts[domain_labels, clusters]
            + scale * noise
        )
        x = anchor + _SIGNAL_SCALE * sig
        blocks.append(x / np.array([np.linalg.norm(row) for row in x])[:, None])
        labels.append(domain_labels)
    names = tuple(sorted(f"dom{j}" for j in range(cfg.num_domains)))
    code = {name: c for c, name in enumerate(names)}
    features = np.concatenate(blocks)
    # the loader's check, a row named by its 1-based place in generation order
    stream = Stream(_unit_rows(features, cfg.dim, range(1, len(features) + 1), False),
                    np.concatenate(labels).astype(np.int64),
                    np.repeat([code[f"dom{j}"] for j in range(cfg.num_domains)], n), names)
    # uneven anchor alignment gives the zero-shot classifier a systematic
    # class prior (low-index classes over-predicted), as real text banks do
    align = 1.0 + _TEXT_ANCHOR_SPREAD * np.linspace(0.5, -0.5, cfg.num_classes)
    text = align[:, None] * anchor + _TEXT_SCALE * protos
    text = text / np.linalg.norm(text, axis=1, keepdims=True)
    bank = TextBank(
        embeddings=text,
        log_temp=_LOG_TEMP,
        class_names=[f"class{c}" for c in range(cfg.num_classes)],
    )
    return order_stream(stream, cfg.ordering, cfg.seed), bank


def order_stream(stream: Stream, ordering: str, seed: int) -> Stream:
    """Permute a stream's rows: 'mixed' is a global shuffle, 'sequential' keeps
    domains contiguous (in first-appearance order, the rows without a domain
    as one) and shuffles within each."""
    rng = np.random.default_rng(seed)
    if ordering == "mixed":
        return stream[rng.permutation(len(stream))]
    if ordering == "sequential":
        codes = stream.domains
        firsts = np.sort(np.unique(codes, return_index=True)[1])
        groups = [np.flatnonzero(codes == code) for code in codes[firsts]]
        return stream[np.concatenate([np.arange(0)] + [g[rng.permutation(len(g))] for g in groups])]
    raise ValueError(f"ordering: must be 'mixed' or 'sequential', got '{ordering}'")


def save_jsonl(stream: Stream, path: str | Path) -> None:
    """One sample per line: {"v": [...], "label": int, "domain": str}; a row without a
    label or domain writes null."""
    names = [*stream.domain_names, None]  # code -1 is the last
    with create_file(path) as fh:
        for v, label, code in zip(stream.features.tolist(), stream.labels.tolist(),
                                  stream.domains.tolist()):
            fh.write(json.dumps({"v": v, "label": None if label < 0 else label,
                                 "domain": names[code]}))
            fh.write("\n")


def load_jsonl(
    path: str | Path,
    expected_dim: int | None = None,
    renormalize: bool = False,
    num_classes: int | None = None,
) -> Stream:
    """Load a stream from JSONL, one sample per non-blank line.

    Vectors off unit norm by more than 1e-6 are rejected unless `renormalize`
    is set.  A label must be a JSON integer in [0, num_classes), or in
    [0, 2**63) when `num_classes` is not given.  A domain, when present, must
    be a JSON string.  Every failure reports the 1-based line number of the
    first bad line.
    """
    vectors, labels, domains, linenos = [], [], [], []
    dim = expected_dim
    limit = 2**63 if num_classes is None else num_classes
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
                if not isinstance(rec, dict) or "v" not in rec:
                    raise ValueError(f"line {lineno}: missing field 'v'")
                v = rec["v"]
                if not isinstance(v, list) or not (types := set(map(type, v))) <= {int, float}:
                    raise ValueError(f"line {lineno}: 'v' must be a flat list of numbers")
                if int in types:
                    try:
                        list(map(float, v))
                    except OverflowError:
                        raise ValueError(
                            f"line {lineno}: 'v' holds an integer too large for a float") from None
                if dim is None:
                    dim = len(v)
                elif len(v) != dim:
                    raise ValueError(
                        f"line {lineno}: vector dim {len(v)} does not match expected {dim}")
                label = rec.get("label")
                if label is not None and (isinstance(label, bool) or not isinstance(label, int)
                                          or not 0 <= label < limit):
                    raise ValueError(
                        f"line {lineno}: label must be an integer in [0, {limit}), got {label!r}")
                domain = rec.get("domain")
                if domain is not None and not isinstance(domain, str):
                    raise ValueError(f"line {lineno}: domain must be a string, got {domain!r}")
                vectors.append(v)
                labels.append(-1 if label is None else label)
                domains.append(domain)
                linenos.append(lineno)
    except ValueError:
        _unit_rows(vectors, dim, linenos, renormalize)  # an earlier line's bad norm comes first
        raise
    names = sorted(set(domains) - {None})
    code = {name: c for c, name in enumerate(names)}
    return Stream(_unit_rows(vectors, dim, linenos, renormalize),
                  np.array(labels, dtype=np.int64),
                  np.array([code.get(d, -1) for d in domains], dtype=np.int64), tuple(names))


def _unit_rows(vectors: list[list] | np.ndarray, dim: int | None, linenos: Sequence[int],
               renormalize: bool) -> np.ndarray:
    """The vectors (rows of dim `dim`) as a new (n, dim) block of finite, unit-norm rows, as
    `_ensure_unit` and `Sample` leave them, or a ValueError naming the first bad row's line.

    One vectorized norm passes the rows clearly inside the 1e-9 tolerance.  It
    may differ from `np.linalg.norm` in the last bits, so every other row goes
    through the exact per-row rule, which decides and rescales as it always did.
    """
    F = np.array(vectors, dtype=np.float64).reshape(len(vectors), dim or 0)
    clear = np.abs(np.sqrt(np.einsum("ij,ij->i", F, F)) - 1.0) <= UNIT_NORM_TOL / 2
    for i in np.flatnonzero(~clear).tolist():
        try:
            F[i] = _unit_feature(_ensure_unit(F[i].copy(), "v", accept_tol=1e-6,
                                              renormalize=renormalize))
        except ValueError as exc:
            raise ValueError(f"line {linenos[i]}: {exc}") from exc
    return F


def save_metadata(cfg: StreamConfig, bank: TextBank, path: str | Path) -> None:
    """Sidecar metadata JSON: {"d", "C", "class_names", "domains"}."""
    meta = {
        "d": cfg.dim,
        "C": cfg.num_classes,
        "class_names": bank.class_names,
        "domains": [f"dom{j}" for j in range(cfg.num_domains)],
        "samples_per_domain": cfg.samples_per_domain,
        "ordering": cfg.ordering,
        "seed": cfg.seed,
    }
    with create_file(path) as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def reference_stream_config(seed: int = 0, ordering: str = "mixed") -> StreamConfig:
    """The benchmark stream the repository's trend tests are frozen against:
    4 classes, 4 domains, 16 dimensions, 4000 samples, default difficulty."""
    return StreamConfig(
        num_classes=4,
        num_domains=4,
        dim=16,
        samples_per_domain=1000,
        ordering=ordering,
        seed=seed,
    )

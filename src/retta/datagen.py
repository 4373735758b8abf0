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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Sample, TextBank, _check_field_types, _ensure_unit


@dataclass(frozen=True)
class DomainSpec:
    """One synthetic domain: marker direction, its scale, noise level, and the
    damping mask applied to the class block."""

    domain_id: str
    shift_vector: np.ndarray
    shift_scale: float
    noise_sigma: float
    damp_mask: np.ndarray | None = None

    def __post_init__(self):
        vec = np.asarray(self.shift_vector, dtype=np.float64)
        if not np.all(np.isfinite(vec)):
            raise ValueError("shift_vector must be finite")
        if self.shift_scale < 0:
            raise ValueError("shift_scale must be non-negative")
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive")
        object.__setattr__(self, "shift_vector", vec)
        if self.damp_mask is not None:
            mask = np.asarray(self.damp_mask, dtype=np.float64)
            if not np.all(np.isfinite(mask)) or np.any(mask < 0):
                raise ValueError("damp_mask must be finite and non-negative")
            object.__setattr__(self, "damp_mask", mask)


@dataclass(frozen=True)
class StreamConfig:
    """Shape and difficulty of a generated stream.

    Embeddings live in a narrow cone around a shared anchor direction (as
    encoder embeddings do): sample = normalize(anchor + signal_scale * s),
    where the signal s combines a class prototype (first `class_dims`
    coordinates, damped per domain), a domain marker (next `domain_dims`
    coordinates), a recurring cluster offset, and per-sample noise.
    `signal_scale` therefore sets the pairwise-distance scale of the stream.
    Text embeddings sit in their own cone: normalize(anchor + text_scale *
    prototype).  `class_skew` < 1 makes label distributions differ per
    domain; a fraction `outlier_fraction` of samples draw `outlier_scale`
    times the per-sample noise radius.
    """

    num_classes: int
    num_domains: int
    dim: int
    samples_per_domain: int
    ordering: str = "mixed"
    class_dims: int | None = None
    domain_dims: int | None = None
    signal_scale: float = 0.10
    text_scale: float = 0.75
    text_anchor_spread: float = 0.10
    cluster_sigma: float = 0.25
    within_sigma: float = 0.20
    clusters_per_class: int = 12
    shift_scale: float = 1.3
    damp_fraction: float = 0.5
    damp_strength: float = 0.15
    class_skew: float = 0.45
    blank_fraction: float = 0.20
    blank_evidence: float = 0.15
    blank_context: float = 0.6
    domain_heterogeneity: float = 0.6
    outlier_fraction: float = 0.1
    outlier_scale: float = 2.0
    log_temp: float = math.log(100.0)
    seed: int = 0

    def __post_init__(self):
        _check_field_types(
            self,
            integers=("num_classes", "num_domains", "dim", "samples_per_domain",
                      "clusters_per_class", "seed",
                      *(name for name in ("class_dims", "domain_dims")
                        if getattr(self, name) is not None)),
            reals=("signal_scale", "text_scale", "text_anchor_spread", "cluster_sigma",
                   "within_sigma", "shift_scale", "damp_fraction", "damp_strength",
                   "class_skew", "blank_fraction", "blank_evidence", "blank_context",
                   "domain_heterogeneity", "outlier_fraction", "outlier_scale", "log_temp"))
        if self.num_classes < 2:
            raise ValueError("num_classes: need at least 2 classes")
        if self.num_domains < 1:
            raise ValueError("num_domains: need at least 1 domain")
        if self.dim < 2:
            raise ValueError("dim: need at least 2 dimensions")
        if self.samples_per_domain < 1:
            raise ValueError("samples_per_domain: must be positive")
        if self.ordering not in ("mixed", "sequential"):
            raise ValueError(f"ordering: must be 'mixed' or 'sequential', got '{self.ordering}'")
        if self.class_dims is None:
            object.__setattr__(self, "class_dims", min(self.dim // 2, max(self.num_classes, 2)))
        if self.domain_dims is None:
            object.__setattr__(
                self,
                "domain_dims",
                max(0, min(self.num_domains, self.dim - self.class_dims - 1)),
            )
        if self.class_dims < 1 or self.domain_dims < 0:
            raise ValueError("class_dims/domain_dims: must be positive")
        # one coordinate is reserved for the anchor direction
        if self.class_dims + self.domain_dims + 1 > self.dim:
            raise ValueError(
                f"class_dims + domain_dims + 1 = {self.class_dims + self.domain_dims + 1} "
                f"exceeds dim = {self.dim} (one coordinate is reserved for the anchor)"
            )
        if self.signal_scale <= 0 or self.text_scale <= 0:
            raise ValueError("signal_scale/text_scale: must be positive")
        if not 0.0 <= self.text_anchor_spread < 1.0:
            raise ValueError("text_anchor_spread: must lie in [0, 1)")
        if self.cluster_sigma <= 0 or self.within_sigma <= 0:
            raise ValueError("cluster_sigma/within_sigma: must be positive")
        if self.clusters_per_class < 1:
            raise ValueError("clusters_per_class: must be positive")
        if self.shift_scale < 0:
            raise ValueError("shift_scale: must be non-negative")
        if not 0.0 <= self.damp_fraction <= 1.0:
            raise ValueError("damp_fraction: must lie in [0, 1]")
        if not 0.0 <= self.damp_strength <= 1.0:
            raise ValueError("damp_strength: must lie in [0, 1]")
        if not 0.0 < self.class_skew <= 1.0:
            raise ValueError("class_skew: must lie in (0, 1]")
        if not 0.0 <= self.blank_fraction <= 1.0:
            raise ValueError("blank_fraction: must lie in [0, 1]")
        if not 0.0 <= self.blank_evidence <= 1.0:
            raise ValueError("blank_evidence: must lie in [0, 1]")
        if not 0.0 <= self.blank_context <= 1.0:
            raise ValueError("blank_context: must lie in [0, 1]")
        if not 0.0 <= self.domain_heterogeneity < 1.0:
            raise ValueError("domain_heterogeneity: must lie in [0, 1)")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction: must lie in [0, 1]")
        if self.outlier_scale < 1.0:
            raise ValueError("outlier_scale: must be >= 1")

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


def make_domain_specs(cfg: StreamConfig, rng: np.random.Generator) -> list[DomainSpec]:
    """Per-domain marker directions and class-block damping masks.

    Damped coordinates are dealt round-robin so different domains lose
    different parts of the class evidence (disjoint when they fit, which
    maximizes how differently domains corrupt).
    """
    specs = []
    cd, dd = cfg.class_dims, cfg.domain_dims
    num_damped = int(round(cfg.damp_fraction * cd))
    if dd > 0 and cfg.num_domains <= dd:
        markers = _orthonormal_rows(cfg.num_domains, dd, rng)
    elif dd > 0:
        raw = rng.standard_normal((cfg.num_domains, dd))
        markers = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    else:
        markers = np.zeros((cfg.num_domains, 0))
    deal = rng.permutation(cd)
    for j in range(cfg.num_domains):
        vec = np.zeros(cfg.dim)
        if dd > 0:
            vec[cd : cd + dd] = markers[j]
        mask = np.ones(cfg.dim)
        damped = [deal[(j * num_damped + i) % cd] for i in range(num_damped)]
        mask[damped] = cfg.damp_strength
        specs.append(
            DomainSpec(
                domain_id=f"dom{j}",
                shift_vector=vec,
                shift_scale=cfg.shift_scale,
                noise_sigma=cfg.within_sigma,
                damp_mask=mask,
            )
        )
    return specs


def _domain_class_probs(cfg: StreamConfig, j: int) -> np.ndarray:
    """Skewed label distribution for domain j: geometric weights, rotated so
    each domain favors a different class (the stream stays balanced overall)."""
    ranks = (np.arange(cfg.num_classes) - j) % cfg.num_classes
    probs = cfg.class_skew ** ranks
    return probs / probs.sum()


def _anchor(cfg: StreamConfig) -> np.ndarray:
    a = np.zeros(cfg.dim)
    a[cfg.anchor_index] = 1.0
    return a


def generate(cfg: StreamConfig) -> tuple[list[Sample], TextBank]:
    """Generate a labeled stream and its text bank, deterministic under the seed.

    Samples come back already ordered per `cfg.ordering`.
    """
    rng = np.random.default_rng(cfg.seed)
    protos = _class_prototypes(cfg, rng)
    specs = make_domain_specs(cfg, rng)
    anchor = _anchor(cfg)
    samples: list[Sample] = []
    for j, spec in enumerate(specs):
        # domains alternate between benign (small context offsets, few blanks)
        # and hostile (strong context bias, many unreliable captures)
        severity = 1.0 + cfg.domain_heterogeneity * (1.0 if j % 2 else -1.0)
        shift = spec.shift_scale * spec.shift_vector
        # recurring per-class contexts: related captures of the same subject
        contexts = severity * cfg.cluster_sigma * rng.standard_normal(
            (cfg.num_classes, cfg.clusters_per_class, cfg.dim)
        )
        labels = rng.choice(
            cfg.num_classes, size=cfg.samples_per_domain, p=_domain_class_probs(cfg, j)
        )
        clusters = rng.integers(cfg.clusters_per_class, size=cfg.samples_per_domain)
        noise = cfg.within_sigma * rng.standard_normal((cfg.samples_per_domain, cfg.dim))
        outlier = rng.random(cfg.samples_per_domain) < cfg.outlier_fraction
        blank = rng.random(cfg.samples_per_domain) < severity * cfg.blank_fraction
        for i in range(cfg.samples_per_domain):
            scale = cfg.outlier_scale if outlier[i] else 1.0
            # blanks carry almost no class evidence and only loosely follow
            # their context, but keep the domain marker: unreliable captures
            # that still circulate through every neighborhood of their domain
            evidence = cfg.blank_evidence if blank[i] else 1.0
            attachment = cfg.blank_context if blank[i] else 1.0
            sig = (
                evidence * spec.damp_mask * protos[labels[i]]
                + shift
                + attachment * contexts[labels[i], clusters[i]]
                + scale * noise[i]
            )
            x = anchor + cfg.signal_scale * sig
            samples.append(
                Sample(
                    feature=x / np.linalg.norm(x),
                    true_label=int(labels[i]),
                    domain_id=spec.domain_id,
                )
            )
    # uneven anchor alignment gives the zero-shot classifier a systematic
    # class prior (low-index classes over-predicted), as real text banks do
    align = 1.0 + cfg.text_anchor_spread * np.linspace(0.5, -0.5, cfg.num_classes)
    text = align[:, None] * anchor + cfg.text_scale * protos
    text = text / np.linalg.norm(text, axis=1, keepdims=True)
    bank = TextBank(
        embeddings=text,
        log_temp=cfg.log_temp,
        class_names=[f"class{c}" for c in range(cfg.num_classes)],
    )
    return order_stream(samples, cfg.ordering, cfg.seed), bank


def order_stream(samples: list[Sample], ordering: str, seed: int) -> list[Sample]:
    """Permute a stream: 'mixed' is a global shuffle, 'sequential' keeps
    domains contiguous (in first-appearance order) and shuffles within each."""
    rng = np.random.default_rng(seed)
    if ordering == "mixed":
        perm = rng.permutation(len(samples))
        return [samples[i] for i in perm]
    if ordering == "sequential":
        by_domain: dict[str | None, list[Sample]] = {}
        for s in samples:
            by_domain.setdefault(s.domain_id, []).append(s)
        out: list[Sample] = []
        for group in by_domain.values():
            perm = rng.permutation(len(group))
            out.extend(group[i] for i in perm)
        return out
    raise ValueError(f"ordering: must be 'mixed' or 'sequential', got '{ordering}'")


def save_jsonl(samples: list[Sample], path: str | Path) -> None:
    """One sample per line: {"v": [...], "label": int, "domain": str}."""
    with open(path, "w") as fh:
        for s in samples:
            rec = {
                "v": [float(x) for x in s.feature],
                "label": s.true_label,
                "domain": s.domain_id,
            }
            fh.write(json.dumps(rec))
            fh.write("\n")


def load_jsonl(
    path: str | Path,
    expected_dim: int | None = None,
    renormalize: bool = False,
    num_classes: int | None = None,
) -> list[Sample]:
    """Load a stream from JSONL, one sample per non-blank line.

    Vectors off unit norm by more than 1e-6 are rejected unless `renormalize`
    is set.  A label must be a JSON integer, in [0, num_classes) when
    `num_classes` is given.  A domain, when present, must be a JSON string.
    Parse, shape, label and domain failures report the 1-based line number.
    """
    samples: list[Sample] = []
    dim = expected_dim
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
            v = np.asarray(rec["v"], dtype=np.float64)
            if v.ndim != 1:
                raise ValueError(f"line {lineno}: 'v' must be a flat vector")
            if dim is None:
                dim = v.shape[0]
            elif v.shape[0] != dim:
                raise ValueError(
                    f"line {lineno}: vector dim {v.shape[0]} does not match expected {dim}"
                )
            label = rec.get("label")
            if label is not None and (
                isinstance(label, bool) or not isinstance(label, int)
                or (num_classes is not None and not 0 <= label < num_classes)
            ):
                bound = "" if num_classes is None else f" in [0, {num_classes})"
                raise ValueError(f"line {lineno}: label must be an integer{bound}, got {label!r}")
            domain = rec.get("domain")
            if domain is not None and not isinstance(domain, str):
                raise ValueError(f"line {lineno}: domain must be a string, got {domain!r}")
            try:
                v = _ensure_unit(v, "v", accept_tol=1e-6, renormalize=renormalize)
                samples.append(Sample(feature=v, true_label=label, domain_id=domain))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return samples


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
    with open(path, "w") as fh:
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

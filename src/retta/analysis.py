"""Evaluation reports, retrieval diagnostics, and numerical verifiers.

Covers five jobs: scoring a run (per-domain accuracies with macro averaging,
plus the domain-composition matrix of the retrieved support sets), the
similarity-decile same-domain statistic, an exact check of the closed-form
feature-importance prediction for one gradient-descent step in the binary
setting, the cached-vs-recompute timing harness, and the report files (the
composition matrix and the composition and bins writers serve `analyze` too).
Scoring, the composition matrix and the trace read the arrays of a `Stream`
and an `Outcomes`; nothing loops over rows in Python but the trace's strings.
The similarity deciles compute their pair similarities on a second thread
when the process may use a second CPU, rank them with two sorts, and hold a
few arrays of one value per pair.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adapter import (
    AdapterConfig,
    Outcomes,
    adapt_and_predict,
    gd_step,
    process_batch,
)
from .memory import ClassMemory
from .model import (
    AffineParams,
    GradRecord,
    Stream,
    TextBank,
    create_file,
    forward,
    predict,
    sample_grad,
)


# pairs per similarity block in similarity_bins: bounds its temporaries
_PAIR_CHUNK = 4096


@dataclass
class EvalReport:
    """Run-level metrics; composition rows are percentages summing to 100."""

    per_domain_accuracy: dict[str, float]
    macro_average: float
    overall_accuracy: float
    domain_order: list[str]
    composition_matrix: np.ndarray
    same_domain_ratio_bins: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "per_domain_accuracy": self.per_domain_accuracy,
            "macro_average": self.macro_average,
            "overall_accuracy": self.overall_accuracy,
            "domain_order": self.domain_order,
            "composition_matrix": [[float(x) for x in row] for row in self.composition_matrix],
            "same_domain_ratio_bins": (
                None
                if self.same_domain_ratio_bins is None
                else [float(x) for x in self.same_domain_ratio_bins]
            ),
        }


@dataclass
class ImportanceCheck:
    """Predicted vs measured feature-importance shift after one GD step.

    `second_moment` is the probability-weighted uncentered second-moment
    matrix of the support features (weights p0 * p1), with the temperature
    already folded into the text embeddings it is paired with.
    """

    eta: float
    predicted_importance: np.ndarray
    empirical_importance: np.ndarray
    max_abs_gap: float
    second_moment: np.ndarray
    diag_only_gap: float


def composition_matrix(query: np.ndarray, support: np.ndarray, num_domains: int) -> np.ndarray:
    """Support composition in percent, one row per query domain.

    `query` holds each query's domain code and `support` (queries, m) its
    support's domain codes, both in [0, num_domains) or -1 for a domain that is
    not counted.  Row i averages, over the queries from domain i with a
    counted support domain, the fraction of their counted support from each
    domain, or is all zeros.  The fractions are summed in query order.
    """
    D = num_domains
    rows, cols = np.nonzero(support >= 0)
    # one (query, domain) cell per distinct pair, sorted, so in query order
    cells, counts = np.unique(rows * D + support[rows, cols], return_counts=True)
    queries = cells // D
    fractions = counts / np.bincount(rows, minlength=len(query))[queries]
    sums = np.bincount(query[queries] * D + cells % D, weights=fractions, minlength=D * D)
    averaged = np.bincount(query[np.unique(queries)], minlength=D)[:, None]
    return np.divide(100.0 * sums.reshape(D, D), averaged, out=np.zeros((D, D)),
                     where=averaged > 0)


def evaluate(
    stream: Stream, outcomes: Outcomes, same_domain_ratio_bins: np.ndarray | None = None
) -> EvalReport:
    """Score a run: per-domain accuracy, macro average, and support composition.

    The macro average is the unweighted mean over domains.  Invariant to the
    order of (sample, outcome) pairs.
    """
    if len(stream) != len(outcomes):
        raise ValueError("need exactly one outcome per sample")
    missing = (stream.labels < 0) | (stream.domains < 0)
    if missing.any():
        raise ValueError(f"sample {int(np.argmax(missing))} is missing true_label or domain_id")
    domains = sorted(stream.domain_names[c] for c in np.unique(stream.domains).tolist())
    index = {d: i for i, d in enumerate(domains)}
    query = _recode(index, stream.domain_names, stream.domains)
    support = _recode(index, outcomes.domain_names, outcomes.support_domains)
    totals = np.bincount(query, minlength=len(domains)).tolist()
    correct = np.bincount(query[outcomes.adapted.labels == stream.labels],
                          minlength=len(domains)).tolist()
    per_domain = {d: c / t for d, c, t in zip(domains, correct, totals)}
    return EvalReport(
        per_domain_accuracy=per_domain,
        macro_average=float(np.mean([per_domain[d] for d in domains])),
        overall_accuracy=sum(correct) / len(stream),
        domain_order=domains,
        composition_matrix=composition_matrix(query, support, len(domains)),
        same_domain_ratio_bins=same_domain_ratio_bins,
    )


def _recode(index: dict[str, int], names: tuple[str, ...], codes: np.ndarray) -> np.ndarray:
    """Codes into `names` as codes into `index`; -1 and names not in `index` give -1."""
    return np.array([index.get(name, -1) for name in names] + [-1])[codes]


def similarity_bins(
    stream: Stream,
    num_bins: int = 10,
    max_pairs: int = 1_000_000,
    seed: int = 0,
) -> np.ndarray:
    """Same-domain fraction per similarity decile, highest similarity first.

    Pairs are subsampled (seeded) when their count exceeds `max_pairs`; the
    statistic is stable under subsampling.  The deciles are exact: pairs are
    ranked by descending similarity with ties in pair order, and bin b holds
    the ranks of `np.array_split(ranks, num_bins)[b]` (empty bins read 0.0).

    Similarities are computed `_PAIR_CHUNK` pairs at a time, half the chunks
    on one worker thread when the process may run on more than one CPU; each
    pair's product is its own, so the split changes no bit.  Ranking sorts
    all similarities once and the same-domain ones once, and counts each cut
    by `searchsorted`; only pairs tied at a cut value that straddle the cut
    are found by a scan, in pair order.  No pair is ranked individually, so
    memory holds a few arrays of one value per pair.
    """
    dom_codes = stream.domains
    if (dom_codes < 0).any():
        raise ValueError(f"sample {int(np.argmax(dom_codes < 0))} has no domain_id")
    if len(np.unique(dom_codes)) < 2:
        raise ValueError("similarity bins need at least 2 domains")
    if num_bins < 1:
        raise ValueError("num_bins must be at least 1")
    n = len(stream)
    total_pairs = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    if total_pairs <= max_pairs:
        ii, jj = np.triu_indices(n, k=1)
    else:
        ii = rng.integers(0, n, size=max_pairs)
        jj = rng.integers(0, n - 1, size=max_pairs)
        jj += jj >= ii  # j != i, uniform over ordered pairs
    feats = stream.features
    m = len(ii)
    sims = np.empty(m)
    same = np.empty(m, dtype=bool)

    def fill(lo: int, hi: int) -> None:
        for start in range(lo, hi, _PAIR_CHUNK):
            a, b = ii[start : start + _PAIR_CHUNK], jj[start : start + _PAIR_CHUNK]
            np.einsum("ij,ij->i", feats.take(a, axis=0), feats.take(b, axis=0),
                      out=sims[start : start + _PAIR_CHUNK])
            np.equal(dom_codes.take(a), dom_codes.take(b), out=same[start : start + _PAIR_CHUNK])

    half = -(-m // _PAIR_CHUNK) // 2 * _PAIR_CHUNK  # the first half of the chunks
    if half and _cpus() > 1:
        # imported here: it costs a process that never ranks pairs 0.6 MB of peak RSS
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            rest = pool.submit(fill, half, m)
            fill(0, half)
            rest.result()
    else:
        fill(0, m)
    del ii, jj

    ascending = np.sort(sims)
    same_ascending = np.compress(same, sims)  # as sims[same], several times faster
    same_ascending.sort()

    def same_in_top(e: int) -> int:
        """Same-domain pairs among the first e ranks."""
        if e == 0:
            return 0
        v = ascending[m - e]  # the e-th largest similarity
        if e == m or ascending[m - e - 1] < v:  # the cut splits no tie
            return len(same_ascending) - int(np.searchsorted(same_ascending, v, "left"))
        # the first pairs with similarity v, in pair order, fill the ranks up to e
        above = m - int(np.searchsorted(ascending, v, "right"))
        tied = np.flatnonzero(sims == v)[: e - above]
        return (len(same_ascending) - int(np.searchsorted(same_ascending, v, "right"))
                + int(np.count_nonzero(same[tied])))

    size, extra = divmod(m, num_bins)
    sizes = [size + 1] * extra + [size] * (num_bins - extra)
    cuts = np.cumsum([0] + sizes)
    counts = np.diff([same_in_top(int(e)) for e in cuts])
    return np.array([c / k if k else 0.0 for c, k in zip(counts, sizes)])


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _scaled_text_delta(bank: TextBank) -> np.ndarray:
    """Temperature folded into the text embeddings: difference of scaled rows."""
    if bank.num_classes != 2:
        raise ValueError("the closed-form importance check needs exactly 2 classes")
    t_scaled = np.exp(bank.log_temp) * bank.embeddings
    return t_scaled[1] - t_scaled[0]


def second_moment_matrix(features: list[np.ndarray], bank: TextBank) -> np.ndarray:
    """Mean of (p0 * p1) * v v^T over the support, probabilities at pretrained."""
    d = bank.dim
    M = np.zeros((d, d))
    params0 = AffineParams.pretrained(d)
    for v in features:
        v = np.asarray(v, dtype=np.float64)
        p = predict(forward(v, params0), bank).probs
        M += (p[0] * p[1]) * np.outer(v, v)
    return M / len(features)


def verify_feature_importance(
    features: list[np.ndarray], bank: TextBank, eta: float
) -> ImportanceCheck:
    """Check the closed-form importance shift against an actual GD step.

    Binary setting, pretrained initialization, one plain gradient-descent step
    on the mean support entropy.  The prediction for the h-th importance is

        r_h = (1 + eta * dt_h * (M dt)_h) / (d + eta * dt^T M dt)

    with dt the temperature-scaled text-embedding difference and M the
    probability-weighted second moment.  Requires eta small enough that no
    scale coordinate changes sign.  `diag_only_gap` measures how far the
    diagonal-M simplification sits from the full quadratic form.
    """
    if not features:
        raise ValueError("need a non-empty support")
    dt = _scaled_text_delta(bank)
    d = bank.dim
    M = second_moment_matrix(features, bank)
    Mdt = M @ dt
    quad = float(dt @ Mdt)
    numerators = 1.0 + eta * dt * Mdt
    if np.any(numerators <= 0.0):
        raise ValueError(
            "learning rate too large: the step flips the sign of a scale coordinate"
        )
    predicted = numerators / (d + eta * quad)

    params0 = AffineParams.pretrained(d)
    grads = [sample_grad(np.asarray(v, dtype=np.float64), params0, bank) for v in features]
    mean_gw = np.mean(np.stack([g.d_weight for g in grads]), axis=0)
    mean_gb = np.mean(np.stack([g.d_bias for g in grads]), axis=0)
    stepped = gd_step(params0, GradRecord(mean_gw, mean_gb), eta)
    if np.any(stepped.weight <= 0.0):
        raise ValueError(
            "learning rate too large: the step flips the sign of a scale coordinate"
        )
    empirical = np.abs(stepped.weight) / np.sum(np.abs(stepped.weight))

    diag = np.diag(M)
    diag_predicted = (1.0 + eta * dt**2 * diag) / (d + eta * float(np.sum(dt**2 * diag)))
    return ImportanceCheck(
        eta=eta,
        predicted_importance=predicted,
        empirical_importance=empirical,
        max_abs_gap=float(np.max(np.abs(predicted - empirical))),
        second_moment=M,
        diag_only_gap=float(np.max(np.abs(diag_predicted - predicted))),
    )


def reflect_across_text_bisector(v: np.ndarray, bank: TextBank) -> np.ndarray:
    """Mirror a feature across the hyperplane orthogonal to t1 - t0.

    For unit text embeddings this swaps the two class probabilities, so a
    support made of such mirror pairs has a cancelling bias gradient.
    """
    delta = bank.embeddings[1] - bank.embeddings[0]
    delta = delta / np.linalg.norm(delta)
    v = np.asarray(v, dtype=np.float64)
    reflected = v - 2.0 * float(v @ delta) * delta
    return reflected / np.linalg.norm(reflected)


def bias_gradient_check(features: list[np.ndarray], bank: TextBank) -> float:
    """Max-abs coordinate of the mean bias gradient over a support."""
    if not features:
        raise ValueError("need a non-empty support")
    params0 = AffineParams.pretrained(bank.dim)
    grads = [sample_grad(np.asarray(v, dtype=np.float64), params0, bank) for v in features]
    mean_gb = np.mean(np.stack([g.d_bias for g in grads]), axis=0)
    return float(np.max(np.abs(mean_gb)))


def bench_cache(
    stream: Stream,
    cfg: AdapterConfig,
    bank: TextBank,
    num_queries: int = 100,
) -> dict[str, float]:
    """Per-sample wall time of the cached engine vs gradient recomputation.

    The memory is warmed with the whole stream first; both engines are then
    run over the same queries and their adapted logits asserted identical
    before anything is timed.  The queries are the stream's first rows, built as
    `Sample`s before the timers start.
    """
    mem = ClassMemory(bank.num_classes, cfg.capacity_per_class, split=cfg.split_memory)
    rng = np.random.default_rng(cfg.seed)
    for start in range(0, len(stream), cfg.batch_size):
        process_batch(stream[start : start + cfg.batch_size], mem, cfg, bank, rng=rng)
    queries = list(stream[: min(num_queries, len(stream))])

    for q in queries:
        cached = adapt_and_predict(q, mem, cfg, bank, rng=rng, recompute_grads=False)
        naive = adapt_and_predict(q, mem, cfg, bank, rng=rng, recompute_grads=True)
        gap = np.max(np.abs(cached.prediction.logits - naive.prediction.logits))
        scale = max(float(np.max(np.abs(naive.prediction.logits))), 1e-300)
        if gap / scale > 1e-12:
            raise AssertionError(
                f"cached and recomputed engines disagree: rel err {gap / scale:.3e}"
            )

    t0 = time.perf_counter_ns()
    for q in queries:
        adapt_and_predict(q, mem, cfg, bank, rng=rng, recompute_grads=False)
    cached_ns = (time.perf_counter_ns() - t0) / len(queries)

    t0 = time.perf_counter_ns()
    for q in queries:
        adapt_and_predict(q, mem, cfg, bank, rng=rng, recompute_grads=True)
    naive_ns = (time.perf_counter_ns() - t0) / len(queries)

    return {"cached_ns_per_sample": cached_ns, "naive_ns_per_sample": naive_ns}


def write_report_files(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write report.json, per_domain.csv, composition.csv, and bins.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    report_path = out / "report.json"
    with create_file(report_path) as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    written.append(report_path)

    per_domain_path = out / "per_domain.csv"
    with create_file(per_domain_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "accuracy"])
        for d in report.domain_order:
            writer.writerow([d, f"{report.per_domain_accuracy[d]:.6f}"])
        writer.writerow(["macro_average", f"{report.macro_average:.6f}"])
        writer.writerow(["overall", f"{report.overall_accuracy:.6f}"])
    written.append(per_domain_path)

    written.append(write_composition_csv(out / "composition.csv", report.domain_order,
                                         report.composition_matrix))
    written.append(write_bins_csv(out / "bins.csv", report.same_domain_ratio_bins))
    return written


def write_composition_csv(path: Path, domains: list[str], composition: np.ndarray) -> Path:
    """composition.csv: a header of the support domains, then one row per query domain."""
    with create_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_domain"] + list(domains))
        for d, row in zip(domains, composition):
            writer.writerow([d] + [f"{x:.4f}" for x in row])
    return path


def write_bins_csv(path: Path, bins: np.ndarray | None) -> Path:
    """bins.csv: the same-domain ratio of each similarity bin; only the header if None."""
    with create_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "same_domain_ratio"])
        if bins is not None:
            for i, r in enumerate(bins, start=1):
                writer.writerow([i, f"{r:.6f}"])
    return path


def write_trace(path: Path, stream: Stream, outcomes: Outcomes) -> Path:
    """trace.jsonl: per sample its domain, true label, adapted and zero-shot labels and
    support domains, one JSON object per line (the text `json.dumps` gives each row)."""
    query = [json.dumps(name) for name in stream.domain_names] + ["null"]
    names = [json.dumps(name) for name in outcomes.domain_names]
    lines = [
        f'{{"domain": {query[d]}, "true_label": {"null" if label < 0 else label}, '
        f'"predicted": {pred}, "zero_shot": {zs}, '
        f'"support_domains": [{", ".join([names[c] for c in support if c >= 0])}]}}\n'
        for d, label, pred, zs, support in zip(
            stream.domains.tolist(), stream.labels.tolist(), outcomes.adapted.labels.tolist(),
            outcomes.zero_shot.labels.tolist(), outcomes.support_domains.tolist())]
    with create_file(path) as fh:
        fh.writelines(lines)
    return path

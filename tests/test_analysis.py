"""Reports, retrieval diagnostics, and the closed-form importance verifier."""

from __future__ import annotations

import json
import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retta.adapter import AdapterConfig, AdaptOutcome, Outcomes, run_stream, run_zero_shot
from retta.analysis import (
    bench_cache,
    bias_gradient_check,
    composition_matrix,
    evaluate,
    reflect_across_text_bisector,
    second_moment_matrix,
    similarity_bins,
    verify_feature_importance,
    write_report_files,
    write_trace,
)
from retta.datagen import StreamConfig, generate, reference_stream_config
from retta.model import (
    AffineParams,
    Posterior,
    Prediction,
    Sample,
    Stream,
    TextBank,
    forward,
    predict,
)


def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_binary_bank(rng, d, log_temp=None):
    emb = rng.standard_normal((2, d))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    if log_temp is None:
        log_temp = float(rng.uniform(0.0, np.log(5.0)))
    return TextBank(emb, log_temp, ["c0", "c1"])


def fake_outcome(pred_label, zs_label, support_domains=(), C=3):
    logits = np.zeros(C)
    logits[pred_label] = 1.0
    probs = np.exp(logits) / np.exp(logits).sum()
    pred = Prediction(logits=logits, probs=probs, pseudo_label=pred_label, entropy=0.5)
    zs_logits = np.zeros(C)
    zs_logits[zs_label] = 1.0
    zs = Prediction(logits=zs_logits, probs=probs, pseudo_label=zs_label, entropy=0.5)
    return AdaptOutcome(prediction=pred, zero_shot=zs, support_size=len(support_domains),
                        support_domain_ids=tuple(support_domains))


def labeled_sample(rng, d, label, domain):
    return Sample(feature=unit(rng, d), true_label=label, domain_id=domain)


# ---------------------------------------------------------------- evaluate


def test_all_correct_predictions_score_one():
    rng = np.random.default_rng(0)
    samples = [labeled_sample(rng, 4, i % 3, f"dom{i % 2}") for i in range(30)]
    outcomes = [fake_outcome(s.true_label, s.true_label) for s in samples]
    report = evaluate(Stream.from_samples(samples), Outcomes.from_rows(outcomes))
    assert report.macro_average == 1.0
    assert report.overall_accuracy == 1.0
    assert all(v == 1.0 for v in report.per_domain_accuracy.values())


def test_single_domain_composition_is_all_diagonal():
    rng = np.random.default_rng(1)
    samples = [labeled_sample(rng, 4, 0, "only") for _ in range(10)]
    outcomes = [fake_outcome(0, 0, support_domains=("only", "only")) for _ in samples]
    report = evaluate(Stream.from_samples(samples), Outcomes.from_rows(outcomes))
    assert report.composition_matrix.shape == (1, 1)
    np.testing.assert_allclose(report.composition_matrix, [[100.0]], atol=1e-9)


def test_macro_average_is_unweighted_over_domains():
    rng = np.random.default_rng(2)
    # 10 samples in domA at 100%, 30 samples in domB at 0%
    samples = [labeled_sample(rng, 4, 0, "domA") for _ in range(10)]
    samples += [labeled_sample(rng, 4, 0, "domB") for _ in range(30)]
    outcomes = [fake_outcome(0, 0) for _ in range(10)] + [fake_outcome(1, 1) for _ in range(30)]
    report = evaluate(Stream.from_samples(samples), Outcomes.from_rows(outcomes))
    assert report.macro_average == pytest.approx(0.5)
    assert report.overall_accuracy == pytest.approx(0.25)


def test_composition_rows_sum_to_100_and_evaluation_is_order_invariant():
    rng = np.random.default_rng(3)
    domains = ["d0", "d1", "d2"]
    samples, outcomes = [], []
    for i in range(120):
        d = domains[i % 3]
        samples.append(labeled_sample(rng, 4, i % 2, d))
        sup = tuple(rng.choice(domains, size=4))
        outcomes.append(fake_outcome(i % 2, i % 2, support_domains=sup))
    stream, outcomes = Stream.from_samples(samples), Outcomes.from_rows(outcomes)
    report = evaluate(stream, outcomes)
    np.testing.assert_allclose(report.composition_matrix.sum(axis=1), 100.0, atol=1e-6)
    perm = np.random.default_rng(0).permutation(len(samples))
    shuffled = evaluate(stream[perm], outcomes[perm])
    np.testing.assert_allclose(shuffled.composition_matrix, report.composition_matrix, atol=1e-9)
    assert shuffled.per_domain_accuracy == report.per_domain_accuracy


def test_evaluate_requires_labels_and_matching_lengths():
    rng = np.random.default_rng(4)
    good = labeled_sample(rng, 4, 0, "d")
    with pytest.raises(ValueError, match="missing"):
        evaluate(Stream.from_samples([Sample(feature=good.feature)]),
                 Outcomes.from_rows([fake_outcome(0, 0)]))
    with pytest.raises(ValueError, match="one outcome per sample"):
        evaluate(Stream.from_samples([good]), Outcomes.from_rows([]))


def loop_composition_matrix(domains, rows):
    """The oracle for `composition_matrix`: one support-domain count vector per query,
    its fractions added to the query domain's row in query order."""
    dindex = {d: i for i, d in enumerate(domains)}
    D = len(domains)
    comp_sums = np.zeros((D, D))
    comp_counts = np.zeros(D)
    for domain, support in rows:
        if not support:
            continue
        row = np.zeros(D)
        for d in support:
            if d in dindex:
                row[dindex[d]] += 1
        row_total = row.sum()
        if row_total > 0:
            comp_sums[dindex[domain]] += row / row_total
            comp_counts[dindex[domain]] += 1
    composition = np.zeros((D, D))
    for i in range(D):
        if comp_counts[i] > 0:
            composition[i] = 100.0 * comp_sums[i] / comp_counts[i]
    return composition


def loop_evaluate(samples, outcomes):
    """The oracle for `evaluate`: per-row counts in Python dicts."""
    domains = sorted({s.domain_id for s in samples})
    correct = {d: 0 for d in domains}
    totals = {d: 0 for d in domains}
    for s, o in zip(samples, outcomes):
        totals[s.domain_id] += 1
        if o.prediction.pseudo_label == s.true_label:
            correct[s.domain_id] += 1
    per_domain = {d: correct[d] / totals[d] for d in domains}
    composition = loop_composition_matrix(
        domains, [(s.domain_id, o.support_domain_ids) for s, o in zip(samples, outcomes)])
    return dict(per_domain_accuracy=per_domain,
                macro_average=float(np.mean([per_domain[d] for d in domains])),
                overall_accuracy=sum(correct.values()) / len(samples), domain_order=domains,
                composition_matrix=composition.tobytes())


def json_dumps_trace(samples, outcomes) -> bytes:
    """The oracle for `write_trace`: one `json.dumps` per row."""
    return "".join(json.dumps({
        "domain": s.domain_id,
        "true_label": s.true_label,
        "predicted": o.prediction.pseudo_label,
        "zero_shot": o.zero_shot.pseudo_label,
        "support_domains": list(o.support_domain_ids),
    }) + "\n" for s, o in zip(samples, outcomes)).encode()


TRACE_NAMES = ["d0", "d1", 'q"uote', "back\\slash", "tab\tname", "ünï", "日本", "😀"]


@st.composite
def scored_runs(draw, labelled=True):
    """A random stream as samples and its outcomes, the support domains coded into a
    random name tuple (names the stream lacks, -1 entries and padding included)."""
    n = draw(st.integers(1, 40), label="n")
    C = draw(st.integers(2, 4), label="C")
    query_names = draw(st.lists(st.sampled_from(TRACE_NAMES), min_size=1, max_size=4,
                                unique=True), label="query names")
    support_names = tuple(draw(st.lists(st.sampled_from(TRACE_NAMES), max_size=5,
                                        unique=True), label="support names"))
    feature = np.eye(3)[0]
    label = st.integers(0, C - 1) if labelled else st.one_of(st.none(), st.integers(0, C - 1))
    samples = [Sample(feature, draw(label), draw(st.sampled_from(query_names)))
               for _ in range(n)]
    m = draw(st.integers(0, 6), label="m")
    support = np.array(draw(st.lists(st.lists(st.integers(-1, len(support_names) - 1),
                                              min_size=m, max_size=m),
                                     min_size=n, max_size=n)), dtype=np.int64).reshape(n, m)
    adapted, zero_shot = (Posterior(np.zeros((n, C)), np.zeros((n, C)), np.zeros(n),
                                    np.array(draw(st.lists(st.integers(0, C - 1), min_size=n,
                                                           max_size=n)), dtype=np.int64))
                          for _ in range(2))
    sizes = np.array(draw(st.lists(st.integers(0, m), min_size=n, max_size=n)), dtype=np.int64)
    return samples, Outcomes(adapted, zero_shot, sizes, support, support_names)


@settings(max_examples=200)
@given(run=scored_runs())
def test_evaluate_and_composition_equal_the_loop_oracles_bitwise(run):
    samples, outcomes = run
    report = evaluate(Stream.from_samples(samples), outcomes)
    got = dict(per_domain_accuracy=report.per_domain_accuracy,
               macro_average=report.macro_average, overall_accuracy=report.overall_accuracy,
               domain_order=report.domain_order,
               composition_matrix=report.composition_matrix.tobytes())
    assert got == loop_evaluate(samples, list(outcomes))
    assert json.dumps(report.per_domain_accuracy) == json.dumps(got["per_domain_accuracy"])


@settings(max_examples=200)
@given(run=scored_runs(labelled=False))
def test_trace_equals_the_json_dumps_oracle_byte_for_byte(tmp_path_factory, run):
    samples, outcomes = run
    path = write_trace(tmp_path_factory.mktemp("trace") / "trace.jsonl",
                       Stream.from_samples(samples), outcomes)
    assert path.read_bytes() == json_dumps_trace(samples, list(outcomes))


@settings(max_examples=200)
@given(data=st.data())
def test_composition_matrix_equals_the_loop_oracle_bitwise(data):
    """Random codes (-1 uncounted) over up to 5 domains, on sums that round."""
    D = data.draw(st.integers(1, 5), label="D")
    n = data.draw(st.integers(0, 60), label="n")
    m = data.draw(st.integers(0, 7), label="m")
    query = np.array(data.draw(st.lists(st.integers(0, D - 1), min_size=n, max_size=n)),
                     dtype=np.int64)
    support = np.array(data.draw(st.lists(st.lists(st.integers(-1, D - 1), min_size=m,
                                                   max_size=m), min_size=n, max_size=n)),
                       dtype=np.int64).reshape(n, m)
    names = [f"d{i}" for i in range(D)]
    rows = [(names[q], [names[c] for c in row if c >= 0]) for q, row in zip(query, support)]
    assert (composition_matrix(query, support, D).tobytes()
            == loop_composition_matrix(names, rows).tobytes())


# ---------------------------------------------------------------- bins


def test_separated_domain_clusters_fill_extreme_bins():
    rng = np.random.default_rng(5)
    # two tight, far-apart clusters: highest-similarity pairs same-domain,
    # lowest-similarity pairs cross-domain
    a = unit(rng, 8)
    b = -a
    samples = []
    for i in range(40):
        base = a if i % 2 == 0 else b
        v = base + 0.01 * rng.standard_normal(8)
        samples.append(Sample(feature=v / np.linalg.norm(v),
                              true_label=0, domain_id="A" if i % 2 == 0 else "B"))
    bins = similarity_bins(Stream.from_samples(samples), seed=0)
    assert bins[0] == 1.0
    assert bins[-1] == 0.0


def test_domain_agnostic_embeddings_give_flat_bins():
    rng = np.random.default_rng(6)
    samples = [Sample(feature=unit(rng, 16), true_label=0,
                      domain_id=f"d{i % 4}") for i in range(400)]
    bins = similarity_bins(Stream.from_samples(samples), seed=0)
    # same-domain base rate is ~1/4 in every decile
    assert np.all(np.abs(bins - 0.25) < 0.08)


def test_bins_require_two_domains():
    rng = np.random.default_rng(7)
    samples = [Sample(feature=unit(rng, 4), true_label=0, domain_id="only")] * 5
    with pytest.raises(ValueError, match="2 domains"):
        similarity_bins(Stream.from_samples(samples))


def test_bins_subsampling_is_seeded_and_stable():
    rng = np.random.default_rng(8)
    samples = Stream.from_samples([Sample(feature=unit(rng, 8), true_label=0,
                                          domain_id=f"d{i % 2}") for i in range(300)])
    a = similarity_bins(samples, max_pairs=2000, seed=1)
    b = similarity_bins(samples, max_pairs=2000, seed=1)
    np.testing.assert_array_equal(a, b)
    full = similarity_bins(samples, seed=1)
    assert np.max(np.abs(a - full)) < 0.1


def stable_argsort_bins(samples, num_bins=10, max_pairs=1_000_000, seed=0):
    """Oracle: rank every pair with a stable argsort, then average each split."""
    n = len(samples)
    rng = np.random.default_rng(seed)
    if n * (n - 1) // 2 <= max_pairs:
        ii, jj = np.triu_indices(n, k=1)
    else:
        ii = rng.integers(0, n, size=max_pairs)
        jj = rng.integers(0, n - 1, size=max_pairs)
        jj = np.where(jj >= ii, jj + 1, jj)
    feats = np.stack([s.feature for s in samples])
    sims = np.einsum("ij,ij->i", feats[ii], feats[jj])
    code_of = {d: i for i, d in enumerate(sorted({s.domain_id for s in samples}))}
    dom_codes = np.array([code_of[s.domain_id] for s in samples])
    same = dom_codes[ii] == dom_codes[jj]
    order = np.argsort(-sims, kind="stable")
    chunks = np.array_split(same[order], num_bins)
    return np.array([float(np.mean(c)) if len(c) else 0.0 for c in chunks])


@settings(max_examples=200)
@given(data=st.data())
def test_bins_equal_the_stable_argsort_oracle_bitwise(data):
    n = data.draw(st.integers(2, 60), label="n")
    D = data.draw(st.integers(2, 4), label="domains")
    d = data.draw(st.integers(2, 8), label="dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # few distinct rows, so many pairs tie in similarity
    pool = [unit(rng, d) for _ in range(data.draw(st.integers(1, n), label="pool"))]
    rows = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n),
                     label="rows")
    doms = [0, 1] + data.draw(st.lists(st.integers(0, D - 1), min_size=n - 2,
                                       max_size=n - 2), label="doms")
    samples = [Sample(feature=pool[r], true_label=0, domain_id=f"d{k}")
               for r, k in zip(rows, doms)]
    total = n * (n - 1) // 2
    num_bins = data.draw(st.integers(1, 12), label="num_bins")
    max_pairs = data.draw(st.integers(0, total + 10), label="max_pairs")
    seed = data.draw(st.integers(0, 2**16), label="pair_seed")
    got = similarity_bins(Stream.from_samples(samples), num_bins=num_bins, max_pairs=max_pairs,
                          seed=seed)
    want = stable_argsort_bins(samples, num_bins=num_bins, max_pairs=max_pairs, seed=seed)
    assert got.tobytes() == want.tobytes()


def test_sampled_bins_break_a_tie_that_straddles_a_cut_in_pair_order():
    rng = np.random.default_rng(11)
    pool = [unit(rng, 6) for _ in range(5)]  # 200 rows, 5 distinct: 15 similarity values
    samples = [Sample(feature=pool[i % 5], true_label=0, domain_id=f"d{int(rng.integers(3))}")
               for i in range(200)]
    max_pairs, seed = 5000, 4  # of 19900 pairs: the sampled path
    # the pairs similarity_bins draws, and where their deciles cut the descending ranks
    pair_rng = np.random.default_rng(seed)
    ii = pair_rng.integers(0, 200, size=max_pairs)
    jj = pair_rng.integers(0, 199, size=max_pairs)
    jj += jj >= ii
    feats = np.stack([s.feature for s in samples])
    sims = np.einsum("ij,ij->i", feats[ii], feats[jj])
    same = np.array([samples[i].domain_id == samples[j].domain_id for i, j in zip(ii, jj)])
    descending = -np.sort(-sims)
    cuts = np.cumsum([len(c) for c in np.array_split(descending, 10)])[:-1]
    straddled = [descending[e] for e in cuts if descending[e - 1] == descending[e]]
    # a tie cut in two holds pairs of both kinds, so only pair order decides each bin's count
    assert any(len(set(same[sims == v])) == 2 for v in straddled)
    got = similarity_bins(Stream.from_samples(samples), max_pairs=max_pairs, seed=seed)
    assert got.tobytes() == stable_argsort_bins(samples, max_pairs=max_pairs,
                                                seed=seed).tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_bins_are_the_same_bytes_with_or_without_the_worker_thread(monkeypatch, cpus):
    rng = np.random.default_rng(12)
    samples = [labeled_sample(rng, 8, 0, f"d{i % 3}") for i in range(300)]  # 11 pair chunks
    submitted = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(ThreadPoolExecutor, "submit",
                        lambda pool, *args, _real=ThreadPoolExecutor.submit:
                        submitted.append(args) or _real(pool, *args))
    threads = threading.active_count()
    got = similarity_bins(Stream.from_samples(samples), seed=0)
    assert threading.active_count() == threads
    assert len(submitted) == (cpus > 1)
    assert got.tobytes() == stable_argsort_bins(samples, seed=0).tobytes()


def test_bins_on_the_reference_pairs_stay_within_64_mib_and_match_the_oracle():
    samples, _ = generate(reference_stream_config(0))  # 4000 samples: 1M sampled pairs
    tracemalloc.start()
    try:
        bins = similarity_bins(samples, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert bins.tobytes() == stable_argsort_bins(samples, seed=0).tobytes()


# ------------------------------------------------- importance verifier


def test_importance_is_uniform_at_zero_learning_rate():
    rng = np.random.default_rng(9)
    d = 8
    bank = random_binary_bank(rng, d)
    feats = [unit(rng, d) for _ in range(16)]
    # eta -> 0: every feature keeps importance 1/d
    check = verify_feature_importance(feats, bank, eta=0.0)
    np.testing.assert_allclose(check.predicted_importance, 1.0 / d, atol=1e-15)
    np.testing.assert_allclose(check.empirical_importance, 1.0 / d, atol=1e-15)
    assert check.max_abs_gap < 1e-15


def test_closed_form_matches_actual_gd_step_exactly():
    rng = np.random.default_rng(10)
    for _ in range(100):
        d = int(rng.integers(4, 17))
        bank = random_binary_bank(rng, d)
        feats = [unit(rng, d) for _ in range(int(rng.integers(4, 33)))]
        check = verify_feature_importance(feats, bank, eta=1e-3)
        assert check.max_abs_gap < 1e-12
        assert abs(check.predicted_importance.sum() - 1.0) < 1e-12
        assert abs(check.empirical_importance.sum() - 1.0) < 1e-12


def test_diagonal_simplification_agrees_on_axis_aligned_support():
    rng = np.random.default_rng(11)
    d = 6
    bank = random_binary_bank(rng, d)
    feats = []
    for _ in range(24):
        v = np.zeros(d)
        v[int(rng.integers(d))] = 1.0 if rng.random() < 0.5 else -1.0
        feats.append(v)
    check = verify_feature_importance(feats, bank, eta=1e-3)
    # one-hot features make the second moment exactly diagonal
    off_diag = check.second_moment - np.diag(np.diag(check.second_moment))
    assert np.max(np.abs(off_diag)) == 0.0
    assert check.diag_only_gap < 1e-12
    assert check.max_abs_gap < 1e-12


def test_sign_flip_precondition_is_reported():
    # this seed yields an update with a negative scale component at large eta
    rng = np.random.default_rng(0)
    d = 4
    bank = random_binary_bank(rng, d, log_temp=np.log(30.0))
    feats = [unit(rng, d) for _ in range(8)]
    with pytest.raises(ValueError, match="sign"):
        verify_feature_importance(feats, bank, eta=1e4)


def test_second_moment_matches_direct_formula():
    rng = np.random.default_rng(13)
    d = 5
    bank = random_binary_bank(rng, d)
    feats = [unit(rng, d) for _ in range(7)]
    M = second_moment_matrix(feats, bank)
    params0 = AffineParams.pretrained(d)
    expected = np.zeros((d, d))
    for v in feats:
        p = predict(forward(v, params0), bank).probs
        expected += p[0] * p[1] * np.outer(v, v)
    expected /= len(feats)
    np.testing.assert_allclose(M, expected, rtol=1e-14)
    np.testing.assert_array_equal(M, M.T)


def test_requires_binary_bank():
    rng = np.random.default_rng(14)
    emb = np.eye(3)
    bank = TextBank(emb, 0.0, ["a", "b", "c"])
    with pytest.raises(ValueError, match="2 classes"):
        verify_feature_importance([unit(rng, 3)], bank, eta=1e-3)


# ---------------------------------------------------------------- bias


def test_mirror_symmetric_support_cancels_the_bias_gradient():
    rng = np.random.default_rng(15)
    for _ in range(10):
        d = 8
        bank = random_binary_bank(rng, d)
        feats = []
        for _ in range(6):
            v = unit(rng, d)
            feats.append(v)
            feats.append(reflect_across_text_bisector(v, bank))
        assert bias_gradient_check(feats, bank) < 1e-12


def test_single_sample_bias_gradient_is_generally_nonzero():
    rng = np.random.default_rng(16)
    bank = random_binary_bank(rng, 8)
    assert bias_gradient_check([unit(rng, 8)], bank) > 1e-6


def test_balanced_bias_gradient_shrinks_with_support_size():
    rng = np.random.default_rng(17)
    d = 8
    sizes = (4, 64)
    means = []
    for m in sizes:
        norms = []
        for trial in range(40):
            bank = random_binary_bank(rng, d)
            # balanced but not mirrored: random halves per predicted side
            feats = [unit(rng, d) for _ in range(m)]
            norms.append(bias_gradient_check(feats, bank))
        means.append(np.mean(norms))
    assert means[1] < means[0]


def test_reflection_swaps_the_two_class_probabilities():
    rng = np.random.default_rng(18)
    bank = random_binary_bank(rng, 8)
    params0 = AffineParams.pretrained(8)
    v = unit(rng, 8)
    mirrored = reflect_across_text_bisector(v, bank)
    p = predict(forward(v, params0), bank).probs
    q = predict(forward(mirrored, params0), bank).probs
    np.testing.assert_allclose(p, q[::-1], atol=1e-12)


# ---------------------------------------------------------------- timing


def test_bench_cache_reports_positive_times_and_equal_predictions():
    cfg = StreamConfig(num_classes=3, num_domains=2, dim=12, samples_per_domain=60, seed=0)
    samples, bank = generate(cfg)
    acfg = AdapterConfig(capacity_per_class=30, retrieve_k=2, beta=5.0, lr=1e-2,
                         batch_size=30, seed=0)
    timing = bench_cache(samples, acfg, bank, num_queries=30)
    assert timing["cached_ns_per_sample"] > 0
    assert timing["naive_ns_per_sample"] > 0


# ---------------------------------------------------------------- files


def test_report_files_are_written_with_fixed_names(tmp_path):
    cfg = StreamConfig(num_classes=3, num_domains=2, dim=12, samples_per_domain=40, seed=0)
    samples, bank = generate(cfg)
    acfg = AdapterConfig(capacity_per_class=20, retrieve_k=2, batch_size=20, seed=0)
    outcomes = run_stream(samples, acfg, bank)
    bins = similarity_bins(samples, seed=0)
    report = evaluate(samples, outcomes, same_domain_ratio_bins=bins)
    written = write_report_files(report, tmp_path)
    names = {p.name for p in written}
    assert names == {"report.json", "per_domain.csv", "composition.csv", "bins.csv"}
    import json as _json

    payload = _json.loads((tmp_path / "report.json").read_text())
    assert set(payload["per_domain_accuracy"]) == {"dom0", "dom1"}
    assert len(payload["same_domain_ratio_bins"]) == 10
    bins_rows = (tmp_path / "bins.csv").read_text().strip().splitlines()
    assert len(bins_rows) == 11  # header + 10 deciles


def test_zero_shot_run_evaluates_with_empty_composition():
    cfg = StreamConfig(num_classes=3, num_domains=2, dim=12, samples_per_domain=30, seed=0)
    samples, bank = generate(cfg)
    report = evaluate(samples, run_zero_shot(samples, bank))
    np.testing.assert_array_equal(report.composition_matrix, np.zeros((2, 2)))

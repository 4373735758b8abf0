"""Synthetic stream generator and dataset file round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest
from scipy import stats

from retta.datagen import (
    DomainSpec,
    StreamConfig,
    generate,
    load_jsonl,
    order_stream,
    reference_stream_config,
    save_jsonl,
)

def tiny_cfg(**kw):
    defaults = dict(num_classes=3, num_domains=2, dim=10, samples_per_domain=60, seed=0)
    defaults.update(kw)
    return StreamConfig(**defaults)


# ---------------------------------------------------------------- generate


def test_same_seed_gives_bitwise_identical_streams():
    a, bank_a = generate(tiny_cfg())
    b, bank_b = generate(tiny_cfg())
    assert len(a) == len(b)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.feature, y.feature)
        assert x.true_label == y.true_label and x.domain_id == y.domain_id
    np.testing.assert_array_equal(bank_a.embeddings, bank_b.embeddings)


def test_different_seeds_differ():
    a, _ = generate(tiny_cfg(seed=0))
    b, _ = generate(tiny_cfg(seed=1))
    assert any(not np.array_equal(x.feature, y.feature) for x, y in zip(a, b))


def test_degenerate_generator_is_perfectly_classified():
    # no noise sources worth mentioning, no damping, no blanks: samples sit on
    # (anchored) prototypes and zero-shot gets everything right
    cfg = tiny_cfg(
        cluster_sigma=1e-9,
        within_sigma=1e-9,
        shift_scale=0.0,
        damp_strength=1.0,
        blank_fraction=0.0,
        outlier_fraction=0.0,
        text_anchor_spread=0.0,
        class_skew=1.0,
    )
    samples, bank = generate(cfg)
    from retta.adapter import run_zero_shot

    outcomes = run_zero_shot(samples, bank)
    assert all(o.prediction.pseudo_label == s.true_label for s, o in zip(samples, outcomes))


def test_reference_benchmark_accuracy_between_chance_and_perfect():
    samples, bank = generate(reference_stream_config(seed=0))
    from retta.adapter import run_zero_shot

    outcomes = run_zero_shot(samples, bank)
    acc = np.mean([o.prediction.pseudo_label == s.true_label for s, o in zip(samples, outcomes)])
    assert 0.25 < acc < 1.0


def test_generator_output_is_unit_norm_with_valid_labels():
    cfg = tiny_cfg()
    samples, bank = generate(cfg)
    assert len(samples) == cfg.num_domains * cfg.samples_per_domain
    for s in samples:
        assert abs(np.linalg.norm(s.feature) - 1.0) < 1e-9
        assert 0 <= s.true_label < cfg.num_classes
        assert s.domain_id in {f"dom{j}" for j in range(cfg.num_domains)}
    counts = {}
    for s in samples:
        counts[s.domain_id] = counts.get(s.domain_id, 0) + 1
    assert all(c == cfg.samples_per_domain for c in counts.values())


def test_text_bank_rows_are_unit_and_match_class_count():
    cfg = tiny_cfg()
    _, bank = generate(cfg)
    assert bank.num_classes == cfg.num_classes
    np.testing.assert_allclose(np.linalg.norm(bank.embeddings, axis=1), 1.0, atol=1e-12)


def test_config_validation_names_the_field():
    with pytest.raises(ValueError, match="class_dims"):
        StreamConfig(num_classes=3, num_domains=2, dim=6, samples_per_domain=10,
                     class_dims=4, domain_dims=3)
    with pytest.raises(ValueError, match="ordering"):
        StreamConfig(num_classes=3, num_domains=2, dim=10, samples_per_domain=10,
                     ordering="interleaved")
    with pytest.raises(ValueError, match="samples_per_domain"):
        StreamConfig(num_classes=3, num_domains=2, dim=10, samples_per_domain=0)


def test_domain_spec_validation():
    with pytest.raises(ValueError, match="noise_sigma"):
        DomainSpec("d0", np.zeros(4), shift_scale=1.0, noise_sigma=0.0)
    with pytest.raises(ValueError, match="finite"):
        DomainSpec("d0", np.array([np.inf, 0.0]), shift_scale=1.0, noise_sigma=0.1)


# ---------------------------------------------------------------- ordering


def test_sequential_ordering_keeps_domains_contiguous():
    samples, _ = generate(tiny_cfg(ordering="sequential"))
    seen = []
    for s in samples:
        if not seen or seen[-1] != s.domain_id:
            seen.append(s.domain_id)
    assert len(seen) == len(set(seen))  # each domain appears as one run


def test_mixed_ordering_is_a_reproducible_permutation():
    samples, _ = generate(tiny_cfg(ordering="sequential"))
    a = order_stream(samples, "mixed", seed=3)
    b = order_stream(samples, "mixed", seed=3)
    assert [id(s) for s in a] == [id(s) for s in b]
    assert sorted(id(s) for s in a) == sorted(id(s) for s in samples)
    c = order_stream(samples, "mixed", seed=4)
    assert [id(s) for s in a] != [id(s) for s in c]


def test_mixed_ordering_spreads_domains_uniformly_over_batches():
    cfg = reference_stream_config(seed=0)
    samples, _ = generate(cfg)
    domains = sorted({s.domain_id for s in samples})
    B = 100
    total_stat = 0.0
    total_dof = 0
    for start in range(0, len(samples), B):
        batch = samples[start : start + B]
        counts = np.array([sum(1 for s in batch if s.domain_id == d) for d in domains])
        total_stat += float(stats.chisquare(counts).statistic)
        total_dof += len(domains) - 1
    p = stats.chi2.sf(total_stat, total_dof)
    assert p > 0.001


# ---------------------------------------------------------------- file I/O


def test_round_trip_is_exact(tmp_path):
    samples, _ = generate(tiny_cfg())
    path = tmp_path / "stream.jsonl"
    save_jsonl(samples, path)
    loaded = load_jsonl(path)
    assert len(loaded) == len(samples)
    assert all(s.feature.shape == (10,) for s in loaded)
    for a, b in zip(samples, loaded):
        np.testing.assert_array_equal(a.feature, b.feature)
        assert a.true_label == b.true_label and a.domain_id == b.domain_id


def test_empty_file_loads_as_empty_stream(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_jsonl(path) == []


def test_malformed_line_error_names_the_line(tmp_path):
    good = json.dumps({"v": [1.0, 0.0], "label": 0, "domain": "a"})
    lines = [good] * 6 + ["{not json"] + [good]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 7"):
        load_jsonl(path)


def test_loader_rejects_off_unit_vectors_without_flag(tmp_path):
    path = tmp_path / "offunit.jsonl"
    path.write_text(json.dumps({"v": [1.0, 0.01], "label": 0, "domain": "a"}) + "\n")
    with pytest.raises(ValueError, match="line 1"):
        load_jsonl(path)
    samples = load_jsonl(path, renormalize=True)
    assert abs(np.linalg.norm(samples[0].feature) - 1.0) < 1e-12


def test_loader_rejects_dim_mismatch(tmp_path):
    path = tmp_path / "dims.jsonl"
    rows = [
        json.dumps({"v": [1.0, 0.0], "label": 0, "domain": "a"}),
        json.dumps({"v": [1.0, 0.0, 0.0], "label": 0, "domain": "a"}),
    ]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        load_jsonl(path)
    with pytest.raises(ValueError, match="line 1"):
        load_jsonl(path, expected_dim=3)


def test_loader_accepts_unlabeled_rows(tmp_path):
    path = tmp_path / "unlabeled.jsonl"
    path.write_text(json.dumps({"v": [1.0, 0.0]}) + "\n")
    samples = load_jsonl(path)
    assert samples[0].true_label is None and samples[0].domain_id is None
    assert len(samples) == 1 and samples[0].feature.shape == (2,)

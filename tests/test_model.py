"""Classifier head and closed-form gradients against independent oracles."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from retta.model import (
    AffineParams,
    GradRecord,
    Sample,
    TextBank,
    _ensure_unit,
    batch_grads,
    entropy_at,
    finite_diff_grad,
    forward,
    load_text_bank,
    predict,
    sample_grad,
    save_text_bank,
)


def random_bank(rng, C, d, log_temp=None):
    emb = rng.standard_normal((C, d))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    if log_temp is None:
        log_temp = float(rng.uniform(0.0, np.log(10.0)))
    return TextBank(emb, log_temp, [f"c{i}" for i in range(C)])


def random_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- forward


def test_forward_identity_at_pretrained():
    v = np.array([1.0, 0.0])
    z = forward(v, AffineParams.pretrained(2))
    np.testing.assert_array_equal(z, v)


def test_forward_elementwise():
    z = forward(np.array([0.6, 0.8]), AffineParams(np.array([2.0, 1.0]), np.array([0.1, 0.0])))
    np.testing.assert_allclose(z, [1.3, 0.8], rtol=0, atol=1e-15)


def test_forward_matches_scalar_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = 16
        v = rng.standard_normal(d)
        w = rng.standard_normal(d)
        b = rng.standard_normal(d)
        expected = np.array([v[h] * w[h] + b[h] for h in range(d)])
        np.testing.assert_allclose(forward(v, AffineParams(w, b)), expected, rtol=0, atol=1e-15)


def test_forward_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        forward(np.zeros(3), AffineParams.pretrained(4))


# ---------------------------------------------------------------- predict


def test_predict_unit_logit_gap_is_logistic():
    bank = TextBank(np.eye(2), 0.0, ["a", "b"])
    pred = predict(np.array([1.0, 0.0]), bank)
    np.testing.assert_allclose(pred.logits, [1.0, 0.0], atol=1e-15)
    p = math.e / (math.e + 1.0)
    np.testing.assert_allclose(pred.probs, [p, 1.0 - p], atol=1e-12)
    assert pred.pseudo_label == 0


def test_predict_orthogonal_embedding_is_uniform():
    C, d = 4, 8
    emb = np.zeros((C, d))
    emb[np.arange(C), np.arange(C)] = 1.0
    bank = TextBank(emb, 1.3, [f"c{i}" for i in range(C)])
    z = np.zeros(d)
    z[6] = 1.0
    pred = predict(z, bank)
    np.testing.assert_allclose(pred.probs, np.full(C, 0.25), atol=1e-15)
    np.testing.assert_allclose(pred.entropy, math.log(C), atol=1e-12)


def test_predict_matches_direct_softmax_oracle():
    rng = np.random.default_rng(1)
    for _ in range(30):
        bank = random_bank(rng, C=10, d=32)
        z = rng.standard_normal(32)
        pred = predict(z, bank)
        logits = np.exp(bank.log_temp) * bank.embeddings @ z
        shifted = np.exp(logits - logits.max())
        probs = shifted / shifted.sum()
        np.testing.assert_allclose(pred.probs, probs, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(pred.entropy, -np.sum(probs * np.log(probs)), rtol=1e-10)
        assert pred.pseudo_label == int(np.argmax(logits))


def test_predict_probs_sum_to_one_for_extreme_logits():
    bank = TextBank(np.eye(2), math.log(500.0), ["a", "b"])
    pred = predict(np.array([1.0, -1.0]), bank)
    assert abs(pred.probs.sum() - 1.0) < 1e-9
    assert np.isfinite(pred.entropy) and pred.entropy >= 0.0


def test_predict_argmax_tie_takes_lowest_index():
    bank = TextBank(np.eye(3), 0.0, ["a", "b", "c"])
    z = np.array([0.5, 0.5, 0.0])
    assert predict(z, bank).pseudo_label == 0


# ---------------------------------------------------------------- gradients


def test_gradient_zero_at_uniform_prediction():
    C, d = 3, 6
    emb = np.zeros((C, d))
    emb[np.arange(C), np.arange(C)] = 1.0
    bank = TextBank(emb, 0.7, [f"c{i}" for i in range(C)])
    v = np.zeros(d)
    v[4] = 1.0
    grad = sample_grad(v, AffineParams.pretrained(d), bank)
    assert np.max(np.abs(grad.d_weight)) < 1e-12
    assert np.max(np.abs(grad.d_bias)) < 1e-12


def test_binary_gradient_closed_form_at_pretrained():
    # d_weight = -exp(2*log_temp) * p0*p1 * (v . (t1-t0)) * (t1-t0) * v
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = 8
        bank = random_bank(rng, C=2, d=d)
        v = random_unit(rng, d)
        params = AffineParams.pretrained(d)
        pred = predict(forward(v, params), bank)
        delta = bank.embeddings[1] - bank.embeddings[0]
        scale = math.exp(2.0 * bank.log_temp) * pred.probs[0] * pred.probs[1]
        expected_w = -scale * float(v @ delta) * delta * v
        expected_b = -scale * float(v @ delta) * delta
        grad = sample_grad(v, params, bank)
        np.testing.assert_allclose(grad.d_weight, expected_w, rtol=1e-11, atol=1e-14)
        np.testing.assert_allclose(grad.d_bias, expected_b, rtol=1e-11, atol=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(100):
        C = int(rng.integers(2, 11))
        d = int(rng.integers(2, 33))
        bank = random_bank(rng, C, d)
        v = random_unit(rng, d)
        params = AffineParams(rng.uniform(0.5, 1.5, d), rng.uniform(-0.3, 0.3, d))
        exact = sample_grad(v, params, bank)
        fd = finite_diff_grad(v, params, bank, step=1e-5)
        num = np.linalg.norm(
            np.concatenate([exact.d_weight - fd.d_weight, exact.d_bias - fd.d_bias])
        )
        den = np.linalg.norm(np.concatenate([exact.d_weight, exact.d_bias]))
        assert num / den < 1e-6


def test_finite_diff_near_zero_at_stationary_point():
    C, d = 3, 6
    emb = np.zeros((C, d))
    emb[np.arange(C), np.arange(C)] = 1.0
    bank = TextBank(emb, 0.4, [f"c{i}" for i in range(C)])
    v = np.zeros(d)
    v[5] = 1.0
    step = 1e-4
    fd = finite_diff_grad(v, AffineParams.pretrained(d), bank, step)
    assert np.max(np.abs(fd.d_weight)) < step**2 * 10
    assert np.max(np.abs(fd.d_bias)) < step**2 * 10


def test_finite_diff_halving_step_quarters_the_error():
    rng = np.random.default_rng(4)
    ratios = []
    for _ in range(5):
        d = 8
        bank = random_bank(rng, C=5, d=d)
        v = random_unit(rng, d)
        params = AffineParams(rng.uniform(0.5, 1.5, d), rng.uniform(-0.3, 0.3, d))
        exact = sample_grad(v, params, bank)

        def err(step):
            fd = finite_diff_grad(v, params, bank, step)
            return np.linalg.norm(
                np.concatenate([fd.d_weight - exact.d_weight, fd.d_bias - exact.d_bias])
            )

        ratios.append(err(1e-4) / err(5e-5))
    # central differences converge quadratically: halving the step ~quarters the error
    assert 3.0 < np.mean(ratios) < 5.0


def test_finite_diff_rejects_nonpositive_step():
    bank = TextBank(np.eye(2), 0.0, ["a", "b"])
    with pytest.raises(ValueError, match="step"):
        finite_diff_grad(np.array([1.0, 0.0]), AffineParams.pretrained(2), bank, step=0.0)


# ---------------------------------------------------------------- batches


def test_batch_of_one_equals_single_sample_path():
    rng = np.random.default_rng(5)
    bank = random_bank(rng, 4, 8)
    s = Sample(random_unit(rng, 8))
    params = AffineParams.pretrained(8)
    post = batch_grads([s], params, bank)
    expected_pred = predict(forward(s.feature, params), bank)
    expected_grad = sample_grad(s.feature, params, bank)
    np.testing.assert_array_equal(post.logits[0], expected_pred.logits)
    np.testing.assert_array_equal(post.d_weight[0], expected_grad.d_weight)


def test_batch_split_and_concatenate_is_identical():
    rng = np.random.default_rng(6)
    bank = random_bank(rng, 4, 8)
    batch = [Sample(random_unit(rng, 8)) for _ in range(10)]
    params = AffineParams(rng.uniform(0.8, 1.2, 8), rng.uniform(-0.1, 0.1, 8))
    whole = batch_grads(batch, params, bank)
    halves = [batch_grads(batch[:5], params, bank), batch_grads(batch[5:], params, bank)]
    for key in ("logits", "d_weight", "d_bias"):
        np.testing.assert_array_equal(getattr(whole, key),
                                      np.concatenate([getattr(h, key) for h in halves]))


def test_batch_matches_serial_loop_bitwise():
    rng = np.random.default_rng(7)
    bank = random_bank(rng, 10, 32)
    params = AffineParams(rng.uniform(0.8, 1.2, 32), rng.uniform(-0.1, 0.1, 32))
    batch = [Sample(random_unit(rng, 32)) for _ in range(100)]
    post = batch_grads(batch, params, bank)
    for i, s in enumerate(batch):
        np.testing.assert_array_equal(post.probs[i],
                                      predict(forward(s.feature, params), bank).probs)
        serial = sample_grad(s.feature, params, bank)
        np.testing.assert_array_equal(post.d_weight[i], serial.d_weight)
        np.testing.assert_array_equal(post.d_bias[i], serial.d_bias)


def test_batch_error_names_the_offending_element():
    bank = TextBank(np.eye(2), 0.0, ["a", "b"])
    good = Sample(np.array([1.0, 0.0]))
    bad = Sample(np.array([1.0, 0.0, 0.0, 0.0]))  # wrong dim for this bank
    with pytest.raises(ValueError, match="batch element 1"):
        batch_grads([good, bad], AffineParams.pretrained(2), bank)


def test_batch_rejects_empty():
    bank = TextBank(np.eye(2), 0.0, ["a", "b"])
    with pytest.raises(ValueError, match="non-empty"):
        batch_grads([], AffineParams.pretrained(2), bank)


# ---------------------------------------------------------------- types


def test_pretrained_params_are_identity():
    p = AffineParams.pretrained(5)
    np.testing.assert_array_equal(p.weight, np.ones(5))
    np.testing.assert_array_equal(p.bias, np.zeros(5))


def test_pretrained_params_are_shared_and_read_only():
    p = AffineParams.pretrained(5)
    assert AffineParams.pretrained(5) is p
    for values in (p.weight, p.bias):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 2.0
    np.testing.assert_array_equal(p.weight, np.ones(5))
    np.testing.assert_array_equal(p.bias, np.zeros(5))


@pytest.mark.filterwarnings("error")
def test_ensure_unit_takes_the_true_norm_of_entries_whose_squares_overflow():
    big = np.array([1e200, 1e200])
    with pytest.raises(ValueError, match=r"L2 norm 1\.41421356237e\+200"):
        _ensure_unit(big, "v", accept_tol=1e-6, renormalize=False)
    unit = _ensure_unit(big, "v", accept_tol=1e-6, renormalize=True)
    np.testing.assert_array_equal(unit, np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert Sample(unit).feature is unit


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ensure_unit_rejects_non_finite_entries_without_a_warning(bad):
    for renormalize in (False, True):
        with pytest.raises(ValueError, match="v contains non-finite entries"):
            _ensure_unit(np.array([bad, 1.0]), "v", accept_tol=1e-6, renormalize=renormalize)


def test_ensure_unit_keeps_the_bits_of_rows_with_a_finite_norm():
    rng = np.random.default_rng(8)
    for scale in (1.0 + 1e-10, 1.0 + 5e-7, 3.0, 1e150, 1e-150):
        v = rng.standard_normal(6)
        v = v / np.linalg.norm(v) * scale
        expected = v / float(np.linalg.norm(v))
        got = _ensure_unit(v.copy(), "v", accept_tol=1e-6, renormalize=True)
        assert got.tobytes() == (v.tobytes() if scale == 1.0 + 1e-10 else expected.tobytes())


def test_sample_rejects_off_unit_feature():
    with pytest.raises(ValueError, match="norm"):
        Sample(np.array([1.0, 1.0]))


def test_text_bank_rejects_off_unit_rows():
    with pytest.raises(ValueError, match="unit"):
        TextBank(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.0, ["a", "b"])


def test_text_bank_rejects_single_class():
    with pytest.raises(ValueError, match="at least 2"):
        TextBank(np.array([[1.0, 0.0]]), 0.0, ["a"])


def test_affine_params_reject_non_finite():
    with pytest.raises(ValueError):
        AffineParams(np.array([1.0, np.nan]), np.zeros(2))


def test_grad_record_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        GradRecord(np.zeros(3), np.zeros(4))


def test_entropy_bounds_hold_on_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(200):
        C = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        bank = random_bank(rng, C, d)
        pred = predict(rng.standard_normal(d), bank)
        assert -1e-12 <= pred.entropy <= math.log(C) + 1e-9
        assert abs(pred.probs.sum() - 1.0) < 1e-9
        assert np.all(pred.probs >= 0.0)


# ---------------------------------------------------------------- bank I/O


def test_text_bank_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    bank = random_bank(rng, 4, 8, log_temp=1.25)
    path = tmp_path / "bank.json"
    save_text_bank(bank, path)
    loaded = load_text_bank(path)
    np.testing.assert_array_equal(loaded.embeddings, bank.embeddings)
    assert loaded.log_temp == bank.log_temp
    assert loaded.class_names == bank.class_names


def test_text_bank_loader_rejects_off_unit_rows(tmp_path):
    path = tmp_path / "bank.json"
    payload = {
        "log_temp": 0.0,
        "class_names": ["a", "b"],
        "embeddings": [[1.0, 0.01], [0.0, 1.0]],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="norm"):
        load_text_bank(path)
    loaded = load_text_bank(path, renormalize=True)
    np.testing.assert_allclose(np.linalg.norm(loaded.embeddings, axis=1), 1.0, atol=1e-12)


def test_text_bank_loader_reports_missing_field(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps({"log_temp": 0.0, "class_names": ["a", "b"]}))
    with pytest.raises(ValueError, match="embeddings"):
        load_text_bank(path)


def test_entropy_at_matches_prediction_entropy():
    rng = np.random.default_rng(10)
    bank = random_bank(rng, 3, 6)
    v = random_unit(rng, 6)
    params = AffineParams(rng.uniform(0.5, 1.5, 6), rng.uniform(-0.2, 0.2, 6))
    assert entropy_at(v, params, bank) == predict(forward(v, params), bank).entropy

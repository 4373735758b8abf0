"""Synthetic stream generator and dataset file round-trips."""

from __future__ import annotations

import hashlib
import io
import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from retta import datagen
from retta.datagen import (
    StreamConfig,
    generate,
    load_jsonl,
    load_npz,
    order_stream,
    reference_stream_config,
    save_jsonl,
    save_npz,
)
from retta.model import Sample, Stream, _ensure_unit

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


def test_degenerate_generator_is_perfectly_classified(monkeypatch):
    # no noise sources worth mentioning, no damping, no blanks: samples sit on
    # (anchored) prototypes and zero-shot gets everything right
    for name, value in [("_CLUSTER_SIGMA", 1e-9), ("_WITHIN_SIGMA", 1e-9), ("_SHIFT_SCALE", 0.0),
                        ("_DAMP_STRENGTH", 1.0), ("_BLANK_FRACTION", 0.0),
                        ("_OUTLIER_FRACTION", 0.0), ("_TEXT_ANCHOR_SPREAD", 0.0),
                        ("_CLASS_SKEW", 1.0)]:
        monkeypatch.setattr(datagen, name, value)
    samples, bank = generate(tiny_cfg())
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


def per_row_generate(cfg):
    """The oracle for `generate`'s stream: one `Sample` per row, as the generator built it
    before it returned a `Stream`, ordered by `per_sample_order`."""
    rng = np.random.default_rng(cfg.seed)
    protos = datagen._class_prototypes(cfg, rng)
    markers, masks = datagen._domain_shifts(cfg, rng)
    anchor = datagen._anchor(cfg)
    samples = []
    for j in range(cfg.num_domains):
        severity = 1.0 + datagen._DOMAIN_HETEROGENEITY * (1.0 if j % 2 else -1.0)
        shift = datagen._SHIFT_SCALE * markers[j]
        contexts = severity * datagen._CLUSTER_SIGMA * rng.standard_normal(
            (cfg.num_classes, datagen._CLUSTERS_PER_CLASS, cfg.dim))
        n = cfg.samples_per_domain
        labels = rng.choice(cfg.num_classes, size=n, p=datagen._domain_class_probs(cfg, j))
        clusters = rng.integers(datagen._CLUSTERS_PER_CLASS, size=n)
        noise = datagen._WITHIN_SIGMA * rng.standard_normal((n, cfg.dim))
        outlier = rng.random(n) < datagen._OUTLIER_FRACTION
        blank = rng.random(n) < severity * datagen._BLANK_FRACTION
        for i in range(n):
            scale = datagen._OUTLIER_SCALE if outlier[i] else 1.0
            evidence = datagen._BLANK_EVIDENCE if blank[i] else 1.0
            attachment = datagen._BLANK_CONTEXT if blank[i] else 1.0
            sig = (evidence * masks[j] * protos[labels[i]] + shift
                   + attachment * contexts[labels[i], clusters[i]] + scale * noise[i])
            x = anchor + datagen._SIGNAL_SCALE * sig
            samples.append(Sample(x / np.linalg.norm(x), int(labels[i]), f"dom{j}"))
    return per_sample_order(samples, cfg.ordering, cfg.seed)


@settings(max_examples=40)
@given(C=st.integers(2, 12), D=st.integers(1, 12), dim=st.integers(2, 40), n=st.integers(1, 20),
       ordering=st.sampled_from(["mixed", "sequential"]), seed=st.integers(0, 2**16))
def test_generate_equals_the_per_row_oracle_bitwise(C, D, dim, n, ordering, seed):
    cfg = StreamConfig(num_classes=C, num_domains=D, dim=dim, samples_per_domain=n,
                       ordering=ordering, seed=seed)
    got, _ = generate(cfg)
    want = Stream.from_samples(per_row_generate(cfg))
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.domains.tobytes() == want.domains.tobytes()
    assert got.domain_names == want.domain_names


# sha256 of the feature block's bytes, of the int64 labels and of the domain names in row
# order (joined by newlines), for `reference_stream_config(0, ordering)`.  The trend floors
# of the acceptance suite are frozen against these streams.
REFERENCE_DIGESTS = {
    "mixed": ("f50c26a04ddd65bcee69bec60a2a19b417f7369d3e09d4e3d72337af2ba2da9c",
              "a74fc76869624fb952c9424ed8e8261fdfcb15a86451e420cdc2e0495ddc24ae",
              "e6b81c9684ea5265367d3b813feb6766c9d49e1bd3100fe7458462cb9ca000e9"),
    "sequential": ("0633d234ffb7a45fa1378a0abe831636ed84a5fef05789ebe9d8833135f5bb3d",
                   "586fc6bc4c9911485a0d596d95f82d81a4fba1524bb36c14fa4e1e51bf9e7f3f",
                   "ae5151555d90eee87dbf3a6029812d96a1df6994c1df387c99b44d510f83278f"),
}


@pytest.mark.parametrize("ordering", sorted(REFERENCE_DIGESTS))
def test_reference_stream_bytes_are_pinned(ordering):
    stream, _ = generate(reference_stream_config(0, ordering))
    names = "\n".join(stream.domain_names[c] for c in stream.domains.tolist())
    got = tuple(hashlib.sha256(data).hexdigest() for data in (
        stream.features.tobytes(), stream.labels.astype(np.int64).tobytes(), names.encode()))
    assert got == REFERENCE_DIGESTS[ordering]


def test_text_bank_rows_are_unit_and_match_class_count():
    cfg = tiny_cfg()
    _, bank = generate(cfg)
    assert bank.num_classes == cfg.num_classes
    np.testing.assert_allclose(np.linalg.norm(bank.embeddings, axis=1), 1.0, atol=1e-12)


def test_config_validation_names_the_field():
    with pytest.raises(ValueError, match="ordering"):
        StreamConfig(num_classes=3, num_domains=2, dim=10, samples_per_domain=10,
                     ordering="interleaved")
    with pytest.raises(ValueError, match="samples_per_domain"):
        StreamConfig(num_classes=3, num_domains=2, dim=10, samples_per_domain=0)


@settings(max_examples=60)
@given(C=st.integers(2, 200), D=st.integers(1, 50), dim=st.integers(2, 600))
def test_every_valid_shape_leaves_the_anchor_coordinate_free(C, D, dim):
    cfg = StreamConfig(num_classes=C, num_domains=D, dim=dim, samples_per_domain=2)
    assert cfg.class_dims >= 1 and cfg.domain_dims >= 0
    assert cfg.class_dims + cfg.domain_dims + 1 <= dim
    samples, bank = generate(cfg)
    feats = np.stack([s.feature for s in samples])
    assert feats.shape == (2 * D, dim) and bank.embeddings.shape == (C, dim)
    np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)


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
    index = {row.tobytes(): i for i, row in enumerate(samples.features)}
    assert len(index) == len(samples)  # every row is distinct, so its bytes name it

    def rows(stream):
        return [index[row.tobytes()] for row in stream.features]

    a = order_stream(samples, "mixed", seed=3)
    b = order_stream(samples, "mixed", seed=3)
    assert rows(a) == rows(b)
    assert sorted(rows(a)) == list(range(len(samples)))
    c = order_stream(samples, "mixed", seed=4)
    assert rows(a) != rows(c)


def per_sample_order(samples, ordering, seed):
    """The oracle for `order_stream`: the same generator calls on a list of samples,
    grouped per domain in a dict (rows without a domain as the key None)."""
    rng = np.random.default_rng(seed)
    if ordering == "mixed":
        return [samples[i] for i in rng.permutation(len(samples))]
    by_domain = {}
    for s in samples:
        by_domain.setdefault(s.domain_id, []).append(s)
    out = []
    for group in by_domain.values():
        out.extend(group[i] for i in rng.permutation(len(group)))
    return out


@settings(max_examples=100)
@given(domains=st.lists(st.sampled_from([None, "b", "a", "c"]), max_size=30),
       ordering=st.sampled_from(["mixed", "sequential"]), seed=st.integers(0, 2**16))
def test_order_stream_equals_the_per_sample_oracle(domains, ordering, seed):
    feature = np.eye(2)[0]
    samples = [Sample(feature, i, domain) for i, domain in enumerate(domains)]
    got = order_stream(Stream.from_samples(samples, 2), ordering, seed)
    want = per_sample_order(samples, ordering, seed)
    assert [(s.true_label, s.domain_id) for s in got] == [
        (s.true_label, s.domain_id) for s in want]


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


def test_rows_without_a_label_or_domain_round_trip_as_null(tmp_path):
    rng = np.random.default_rng(0)
    samples = [Sample(v / np.linalg.norm(v), label, domain) for v, label, domain in zip(
        rng.standard_normal((4, 3)), [None, 2, 0, None], ["b", None, "a", None])]
    path = tmp_path / "stream.jsonl"
    save_jsonl(Stream.from_samples(samples), path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["label"], r["domain"]) for r in rows] == [
        (None, "b"), (2, None), (0, "a"), (None, None)]
    assert [r["v"] for r in rows] == [[float(x) for x in s.feature] for s in samples]
    loaded = load_jsonl(path)
    assert [(s.true_label, s.domain_id) for s in loaded] == [
        (s.true_label, s.domain_id) for s in samples]
    assert loaded.features.tobytes() == Stream.from_samples(samples).features.tobytes()


def json_dumps_lines(stream: Stream) -> bytes:
    """The JSONL of `save_jsonl` written the plain way: one `json.dumps` of a dict per row."""
    names = [*stream.domain_names, None]
    return "".join(json.dumps({"v": v, "label": None if label < 0 else label,
                               "domain": names[code]}) + "\n"
                   for v, label, code in zip(stream.features.tolist(), stream.labels.tolist(),
                                             stream.domains.tolist())).encode()


# floats whose repr takes every form: signed zero, the smallest subnormal, exponents
# either side of the repr's switch to scientific notation, and non-finite values
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-7, 0.0001, 1e-5,
               1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]


@settings(max_examples=60)
@given(data=st.data())
def test_save_jsonl_writes_the_bytes_of_one_json_dumps_per_row(tmp_path_factory, data):
    """Domain names with quotes, backslashes, control characters and non-ASCII; features
    from the edge floats and any others, a row with a non-finite value among them."""
    n = data.draw(st.integers(0, 8), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True))
    features = np.array(data.draw(st.lists(floats, min_size=n * d, max_size=n * d),
                                  label="features"), dtype=np.float64).reshape(n, d)
    names = data.draw(st.lists(st.text(alphabet=st.sampled_from('"\\\x00\x1f\n\té€😀a/'),
                                       max_size=6), max_size=4, unique=True), label="names")
    labels = data.draw(st.lists(st.integers(-1, 2**62), min_size=n, max_size=n), label="labels")
    domains = data.draw(st.lists(st.integers(-1, len(names) - 1), min_size=n, max_size=n),
                        label="domains")
    stream = Stream(features, np.array(labels, dtype=np.int64),
                    np.array(domains, dtype=np.int64), tuple(names))
    path = tmp_path_factory.mktemp("jsonl") / "stream.jsonl"
    save_jsonl(stream, path)
    assert path.read_bytes() == json_dumps_lines(stream)


def assert_same_stream(got, want):
    """Bitwise the same stream: arrays of the same dtype, shape and bytes, the same names."""
    assert got.features.dtype == want.features.dtype == np.float64
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.dtype == want.labels.dtype == np.int64
    assert got.labels.tolist() == want.labels.tolist()
    assert got.domains.dtype == want.domains.dtype == np.int64
    assert got.domains.tolist() == want.domains.tolist()
    assert got.domain_names == want.domain_names
    assert all(type(name) is str for name in got.domain_names)


@pytest.mark.parametrize("renormalize", [False, True])
def test_npz_loads_bitwise_what_the_jsonl_of_the_same_stream_parses(tmp_path, renormalize):
    rng = np.random.default_rng(1)
    samples = [Sample(v / np.linalg.norm(v), label, domain) for v, label, domain in zip(
        rng.standard_normal((5, 4)), [None, 2, 0, None, 1], ["b", None, "a", None, "b"])]
    stream = Stream.from_samples(samples)
    save_jsonl(stream, tmp_path / "stream.jsonl")
    save_npz(stream, tmp_path / "stream.npz")
    parsed = load_jsonl(tmp_path / "stream.jsonl", expected_dim=4, renormalize=renormalize,
                        num_classes=3)
    assert_same_stream(load_npz((tmp_path / "stream.npz").read_bytes(), 4, renormalize, 3),
                       parsed)


def test_save_npz_writes_the_same_bytes_for_the_same_stream(tmp_path):
    stream, _ = generate(tiny_cfg())
    save_npz(stream, tmp_path / "a.npz")
    save_npz(stream[np.arange(len(stream))], tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
    with np.load(tmp_path / "a.npz") as npz:  # a plain .npz to numpy
        assert sorted(npz.files) == ["domain_names", "domains", "features", "labels"]
        assert npz["features"].tobytes() == stream.features.tobytes()


def _edited_npz(tmp_path, **fields):
    stream, _ = generate(tiny_cfg())
    save_npz(Stream(**{**vars(stream), **fields}), tmp_path / "edited.npz")
    return (tmp_path / "edited.npz").read_bytes()


@pytest.mark.parametrize("edit, expected_dim, match", [
    (dict(labels=np.full(120, 3)), 10, "do not fit"),
    (dict(labels=np.full(120, -2)), 10, "do not fit"),
    (dict(domains=np.full(120, 2)), 10, "do not fit"),
    (dict(domain_names=("dom1", "dom0")), 10, "do not fit"),
    (dict(labels=np.zeros(120, dtype=np.int32)), 10, "do not fit"),
    (dict(labels=np.zeros(119, dtype=np.int64)), 10, "do not fit"),
    ({}, 9, "do not fit"),
    (dict(features=np.ones((120, 10), dtype=np.float32)), 10, "do not fit"),
    (dict(features=np.ones((120, 10))), 10, "line 1: v has L2 norm"),
])
def test_load_npz_makes_every_check_of_the_parse(tmp_path, edit, expected_dim, match):
    with pytest.raises(ValueError, match=match):
        load_npz(_edited_npz(tmp_path, **edit), expected_dim, False, 3)


@pytest.mark.parametrize("data", [b"", b"not a zip", b"PK\x03\x04" + bytes(40)])
def test_load_npz_rejects_what_is_not_a_dataset_array_file(data):
    with pytest.raises(ValueError, match="not a dataset array file"):
        load_npz(data, 10, False, 3)


def test_load_npz_rejects_an_archive_without_the_labels(tmp_path):
    data = _edited_npz(tmp_path)
    with zipfile.ZipFile(io.BytesIO(data)) as full, zipfile.ZipFile(tmp_path / "part.npz",
                                                                    "w") as part:
        for name in full.namelist():
            if name != "labels.npy":
                part.writestr(name, full.read(name))
    with pytest.raises(ValueError, match="labels.npy"):
        load_npz((tmp_path / "part.npz").read_bytes(), 10, False, 3)


def test_empty_file_loads_as_empty_stream(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert len(load_jsonl(path)) == 0


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


@pytest.mark.parametrize("v", [
    [True, False],
    ["1.0", 0.0],
    [{}, 0.0],
    "abc",
    [[1.0], 0.0],
], ids=["booleans", "numeric-string", "object", "string", "nested-list"])
def test_loader_rejects_a_vector_that_is_not_a_flat_list_of_numbers(tmp_path, v):
    good = json.dumps({"v": [1.0, 0.0], "label": 0, "domain": "a"})
    bad = json.dumps({"v": v, "label": 0, "domain": "a"})
    path = tmp_path / "vectors.jsonl"
    path.write_text("\n".join([good, good, bad, good]) + "\n")
    with pytest.raises(ValueError, match="^line 3: 'v' must be a flat list of numbers$"):
        load_jsonl(path)


def test_loader_accepts_integer_vector_entries(tmp_path):
    path = tmp_path / "ints.jsonl"
    path.write_text(json.dumps({"v": [0, 1], "label": 0, "domain": "a"}) + "\n")
    np.testing.assert_array_equal(load_jsonl(path)[0].feature, [0.0, 1.0])


def test_loader_accepts_unlabeled_rows(tmp_path):
    path = tmp_path / "unlabeled.jsonl"
    path.write_text(json.dumps({"v": [1.0, 0.0]}) + "\n")
    samples = load_jsonl(path)
    assert samples[0].true_label is None and samples[0].domain_id is None
    assert len(samples) == 1 and samples[0].feature.shape == (2,)


def per_line_load_jsonl(path, expected_dim=None, renormalize=False, num_classes=None):
    """The oracle for `load_jsonl`: parse, check and normalize one line at a time, one
    `Sample` per line (the loader before it built a `Stream`)."""
    samples = []
    dim = expected_dim
    limit = 2**63 if num_classes is None else num_classes
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
            if not isinstance(v, list) or not set(map(type, v)) <= {int, float}:
                raise ValueError(f"line {lineno}: 'v' must be a flat list of numbers")
            try:
                v = np.array(v, dtype=np.float64)
            except OverflowError:
                raise ValueError(f"line {lineno}: 'v' holds an integer too large for a float")
            if dim is None:
                dim = v.shape[0]
            elif v.shape[0] != dim:
                raise ValueError(
                    f"line {lineno}: vector dim {v.shape[0]} does not match expected {dim}"
                )
            label = rec.get("label")
            if label is not None and (
                isinstance(label, bool) or not isinstance(label, int) or not 0 <= label < limit
            ):
                raise ValueError(f"line {lineno}: label must be an integer in [0, {limit}), "
                                 f"got {label!r}")
            domain = rec.get("domain")
            if domain is not None and not isinstance(domain, str):
                raise ValueError(f"line {lineno}: domain must be a string, got {domain!r}")
            try:
                v = _ensure_unit(v, "v", accept_tol=1e-6, renormalize=renormalize)
                samples.append(Sample(feature=v, true_label=label, domain_id=domain))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    return samples


# relative norm deviations around each rule's cut: the vectorized screen's (5e-10),
# the untouched-row tolerance (1e-9) and the rescale tolerance (1e-6)
DEVIATIONS = [sign * dev for sign in (1, -1) for dev in (
    3e-10, 5e-10 * (1 - 1e-6), 5e-10 * (1 + 1e-6), 1e-9 * (1 - 1e-7), 1e-9 * (1 + 1e-7),
    5e-7, 1e-6 * (1 - 1e-7), 1e-6 * (1 + 1e-7), 1e-3)] + [0.5]
ROW_KINDS = ["unit"] * 6 + ["deviation"] * 6 + [
    "integers", "zero", "nan", "inf", "square-overflow", "huge-integer", "wrong-dim",
    "bad-label", "bad-domain", "blank", "unlabeled", "no-domain", "bad-json"]
DOMAIN_NAMES = ["a", "b", 'q"uote', "ünï", "日本"]


def loader_row(kind, rng, d, deviation, domain):
    """One JSONL line of the given kind."""
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    rec = {"v": v.tolist(), "label": int(rng.integers(3)), "domain": domain}
    if kind == "deviation":
        rec["v"] = (v * (1.0 + deviation)).tolist()
    elif kind == "integers":
        rec["v"] = [0] * (d - 1) + [1]
    elif kind == "zero":
        rec["v"] = [0.0] * d
    elif kind in ("nan", "inf", "huge-integer"):
        rec["v"][0] = {"nan": float("nan"), "inf": -float("inf"), "huge-integer": 10**400}[kind]
    elif kind == "square-overflow":
        rec["v"] = [1e200] * d
    elif kind == "wrong-dim":
        rec["v"] = rec["v"] + [0.0]
    elif kind == "bad-label":
        rec["label"] = [5, -1, "1", True, 1.5, 2**63][int(rng.integers(6))]
    elif kind == "bad-domain":
        rec["domain"] = 3
    elif kind == "unlabeled":
        del rec["label"]
    elif kind == "no-domain":
        del rec["domain"]
    elif kind == "blank":
        return "   "
    elif kind == "bad-json":
        return "{not json"
    return json.dumps(rec)


def loaded(load, path, **kwargs):
    """The loader's rows as (feature block, labels, domains), or its error message."""
    try:
        rows = load(path, **kwargs)
    except ValueError as exc:
        return str(exc)
    if not len(rows):
        return None
    block = rows.features if isinstance(rows, Stream) else np.stack([s.feature for s in rows])
    return block.shape, block.tobytes(), [s.true_label for s in rows], [s.domain_id for s in rows]


@settings(max_examples=300)
@given(data=st.data())
def test_loader_matches_the_per_line_oracle(tmp_path_factory, data):
    """On random files `load_jsonl` gives bitwise the oracle's features, the same labels
    and domains, or the same message for the first bad line."""
    d = data.draw(st.integers(2, 6), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kinds = data.draw(st.lists(st.sampled_from(ROW_KINDS), max_size=10), label="kinds")
    lines = [loader_row(kind, rng, d, data.draw(st.sampled_from(DEVIATIONS), label="dev"),
                        data.draw(st.sampled_from(DOMAIN_NAMES), label="domain"))
             for kind in kinds]
    path = tmp_path_factory.mktemp("loader") / "stream.jsonl"
    path.write_text("\n".join(lines) + "\n")
    kwargs = dict(renormalize=data.draw(st.booleans(), label="renormalize"),
                  num_classes=data.draw(st.sampled_from([3, None]), label="num_classes"),
                  expected_dim=data.draw(st.sampled_from([None, d]), label="expected_dim"))
    assert loaded(load_jsonl, path, **kwargs) == loaded(per_line_load_jsonl, path, **kwargs)

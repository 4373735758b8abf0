"""Command-line surface: gen, run, verify, analyze, and their contracts."""

from __future__ import annotations

import hashlib
import json
import platform
import shutil

import numpy as np
import pytest

import retta
from retta import analysis, datagen
from retta.cli import _load_dataset, _similarity_bins, main


def write_stream_config(path, **overrides):
    cfg = {
        "num_classes": 3,
        "num_domains": 2,
        "dim": 12,
        "samples_per_domain": 50,
        "seed": 0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def write_adapter_config(path, **overrides):
    cfg = {
        "capacity_per_class": 20,
        "retrieve_k": 2,
        "beta": 5.0,
        "lr": 0.01,
        "batch_size": 25,
        "seed": 0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def dataset_dir(tmp_path):
    cfg_path = write_stream_config(tmp_path / "stream.json")
    out = tmp_path / "data"
    assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def test_gen_writes_dataset_metadata_bank_and_manifest(tmp_path, dataset_dir):
    names = {p.name for p in dataset_dir.iterdir()}
    assert {"dataset.jsonl", "metadata.json", "textbank.json", "manifest.json"} <= names
    meta = json.loads((dataset_dir / "metadata.json").read_text())
    assert meta["C"] == 3 and meta["d"] == 12
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert set(manifest["outputs"]) == {"dataset.jsonl", "metadata.json", "textbank.json"}


def test_gen_same_config_and_seed_is_byte_identical(tmp_path):
    cfg_path = write_stream_config(tmp_path / "stream.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["gen", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("dataset.jsonl", "metadata.json", "textbank.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gen_rejects_unknown_field(tmp_path, capsys):
    cfg_path = write_stream_config(tmp_path / "bad.json", num_classs=4)
    assert main(["gen", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
    assert "num_classs" in capsys.readouterr().err


def test_seed_flag_overrides_config_seed(tmp_path):
    cfg_path = write_stream_config(tmp_path / "stream.json", seed=0)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--config", str(cfg_path), "--out", str(out1), "--seed", "5"]) == 0
    write_stream_config(tmp_path / "stream2.json", seed=5)
    assert main(["gen", "--config", str(tmp_path / "stream2.json"), "--out", str(out2)]) == 0
    assert (out1 / "dataset.jsonl").read_bytes() == (out2 / "dataset.jsonl").read_bytes()


def test_run_writes_report_csvs_trace_and_manifest(tmp_path, dataset_dir):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    out = tmp_path / "run"
    code = main(["run", "--dataset", str(dataset_dir), "--method", "retta",
                 "--config", str(acfg), "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert {"report.json", "per_domain.csv", "composition.csv", "bins.csv",
            "trace.jsonl", "manifest.json"} <= names
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["macro_average"] <= 1.0
    assert len(report["composition_matrix"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["method"] == "retta"
    assert manifest["config"]["capacity_per_class"] == 20  # defaults echoed, no silence


def test_run_is_reproducible_byte_for_byte(tmp_path, dataset_dir):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["run", "--dataset", str(dataset_dir), "--method", "retta",
                     "--config", str(acfg), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("report.json", "per_domain.csv", "composition.csv", "bins.csv",
                  "trace.jsonl", "manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_run_all_methods_execute(tmp_path, dataset_dir):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    for method in ("retta-no-pb", "retta-no-dc", "retta-no-pb-dc", "retta-no-entw",
                   "retta-no-simw", "entmin", "zeroshot"):
        out = tmp_path / f"run-{method}"
        assert main(["run", "--dataset", str(dataset_dir), "--method", method,
                     "--config", str(acfg), "--out", str(out)]) == 0


def test_run_zeroshot_matches_predict_only_pass(tmp_path, dataset_dir):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    out = tmp_path / "zs"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert all(r["predicted"] == r["zero_shot"] for r in rows)


def test_run_rejects_unknown_method(tmp_path, dataset_dir, capsys):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    code = main(["run", "--dataset", str(dataset_dir), "--method", "retta",
                 "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")])
    assert code == 1


def test_run_rejects_missing_dataset(tmp_path, capsys):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    code = main(["run", "--dataset", str(tmp_path / "nowhere"), "--method", "retta",
                 "--config", str(acfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "dataset" in capsys.readouterr().err


def _single_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize("field, value", [
    ("capacity_per_class", 1.5),
    ("retrieve_k", 2.5),
    ("batch_size", 25.0),
    ("seed", True),
])
def test_run_rejects_non_integer_config_values(tmp_path, dataset_dir, capsys, field, value):
    acfg = write_adapter_config(tmp_path / "adapter.json", **{field: value})
    code = main(["run", "--dataset", str(dataset_dir), "--method", "retta",
                 "--config", str(acfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert field in _single_error_line(capsys.readouterr().err)


def test_run_reports_an_allocation_failure_in_one_line(tmp_path, dataset_dir, capsys):
    # the cache columns would need 2 * 3 * 1e12 rows of 12 float64s, beyond any 64-bit
    # user address space, so the request fails at once and allocates nothing
    acfg = write_adapter_config(tmp_path / "adapter.json", capacity_per_class=10**12)
    code = main(["run", "--dataset", str(dataset_dir), "--method", "retta",
                 "--config", str(acfg), "--out", str(tmp_path / "x")])
    assert code == 1
    _single_error_line(capsys.readouterr().err)


def test_run_rejects_empty_dataset(tmp_path, dataset_dir, capsys):
    (dataset_dir / "dataset.jsonl").write_text("")
    acfg = write_adapter_config(tmp_path / "adapter.json")
    code = main(["run", "--dataset", str(dataset_dir), "--method", "retta",
                 "--config", str(acfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "no samples" in _single_error_line(capsys.readouterr().err)


def test_analyze_recomputes_composition_and_bins(tmp_path, dataset_dir):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir = tmp_path / "run"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "retta",
                 "--config", str(acfg), "--out", str(run_dir)]) == 0
    out = tmp_path / "analysis"
    assert main(["analyze", "--run", str(run_dir), "--out", str(out)]) == 0
    assert (out / "composition.csv").exists()
    assert (out / "bins.csv").exists()
    # composition recomputed from the trace matches the run's own
    assert (out / "composition.csv").read_bytes() == (run_dir / "composition.csv").read_bytes()
    # so do the bins: analyze draws its pairs with the seed the run recorded
    assert (out / "bins.csv").read_bytes() == (run_dir / "bins.csv").read_bytes()


def test_analyze_requires_a_trace(tmp_path, capsys):
    code = main(["analyze", "--run", str(tmp_path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "trace" in capsys.readouterr().err


def test_verify_all_suites_pass(capsys):
    assert main(["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    for name in ("grad", "theorem", "cache"):
        assert f"PASS {name}" in out


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "grad"]) == 0
    out = capsys.readouterr().out
    assert "PASS grad" in out and "theorem" not in out


@pytest.mark.parametrize("field, value", [
    ("split_memory", "no"),
    ("topk_selection", "false"),
    ("entropy_weighting", 1),
    ("similarity_weighting", None),
    ("beta", True),
    ("beta", float("inf")),
    ("lr", True),
    ("lr", "0.01"),
    ("lr", float("nan")),
])
def test_run_rejects_non_boolean_switches_and_bad_floats(tmp_path, dataset_dir, capsys,
                                                         field, value):
    acfg = write_adapter_config(tmp_path / "adapter.json", **{field: value})
    code = main(["run", "--dataset", str(dataset_dir), "--method", "retta",
                 "--config", str(acfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert field in _single_error_line(capsys.readouterr().err)


def _rewrite_jsonl_row(path, lineno, edit):
    lines = path.read_text().splitlines()
    row = json.loads(lines[lineno - 1])
    edit(row)
    lines[lineno - 1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("label", [7, True, 3, -1, 1.0])
def test_run_rejects_labels_that_are_not_class_indices(tmp_path, dataset_dir, capsys, label):
    # the dataset has 3 classes: valid labels are the integers 0, 1, 2
    _rewrite_jsonl_row(dataset_dir / "dataset.jsonl", 5, lambda row: row.update(label=label))
    acfg = write_adapter_config(tmp_path / "adapter.json")
    code = main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "line 5" in _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("domain", [5, 1.5, True, ["dom0"], {"name": "dom0"}])
def test_run_rejects_a_domain_that_is_not_a_string(tmp_path, dataset_dir, capsys, domain):
    _rewrite_jsonl_row(dataset_dir / "dataset.jsonl", 5, lambda row: row.update(domain=domain))
    acfg = write_adapter_config(tmp_path / "adapter.json")
    code = main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(tmp_path / "x")])
    assert code == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "line 5" in line and "domain" in line


def test_run_rejects_integer_domains_on_every_row(tmp_path, dataset_dir, capsys):
    # all-int domains sort without error, so only the loader can stop a trace analyze rejects
    path = dataset_dir / "dataset.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        row.update(domain=int(row["domain"][3:]))
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    acfg = write_adapter_config(tmp_path / "adapter.json")
    code = main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "line 1" in _single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "x" / "trace.jsonl").exists()


@pytest.mark.parametrize("edit", [
    lambda row: row.pop("domain"),
    lambda row: row.update(domain=None),
    lambda row: row.update(support_domains=5),
    lambda row: row.pop("support_domains"),
], ids=["no-domain", "null-domain", "support-not-a-list", "no-support"])
def test_analyze_rejects_malformed_trace_rows(tmp_path, dataset_dir, capsys, edit):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir = tmp_path / "run"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "retta",
                 "--config", str(acfg), "--out", str(run_dir)]) == 0
    _rewrite_jsonl_row(run_dir / "trace.jsonl", 3, edit)
    capsys.readouterr()
    code = main(["analyze", "--run", str(run_dir), "--out", str(tmp_path / "analysis")])
    assert code == 1
    assert "line 3" in _single_error_line(capsys.readouterr().err)


def test_run_rejects_a_row_without_a_domain(tmp_path, dataset_dir, capsys):
    _rewrite_jsonl_row(dataset_dir / "dataset.jsonl", 5, lambda row: row.pop("domain"))
    acfg = write_adapter_config(tmp_path / "adapter.json")
    code = main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "sample 4" in _single_error_line(capsys.readouterr().err)


def test_analyze_writes_header_only_bins_for_a_single_domain_run(tmp_path):
    cfg_path = write_stream_config(tmp_path / "stream.json", num_domains=1,
                                   samples_per_domain=200)
    data = tmp_path / "data"
    assert main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir, out = tmp_path / "run", tmp_path / "analysis"
    assert main(["run", "--dataset", str(data), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir)]) == 0
    assert main(["analyze", "--run", str(run_dir), "--out", str(out)]) == 0
    assert (out / "bins.csv").read_text() == "bin,same_domain_ratio\n"
    assert (out / "bins.csv").read_bytes() == (run_dir / "bins.csv").read_bytes()


def test_analyze_reproduces_the_bins_of_a_seeded_run(tmp_path):
    # 1440 samples make more pairs than similarity_bins keeps, so the seed draws them
    cfg_path = write_stream_config(tmp_path / "stream.json", samples_per_domain=720)
    data = tmp_path / "data"
    assert main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir, out = tmp_path / "run", tmp_path / "analysis"
    assert main(["run", "--dataset", str(data), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir), "--seed", "3"]) == 0
    assert main(["analyze", "--run", str(run_dir), "--out", str(out)]) == 0
    assert (out / "bins.csv").read_bytes() == (run_dir / "bins.csv").read_bytes()


def test_analyze_loads_the_dataset_as_a_renormalized_run_did(tmp_path, dataset_dir):
    _rewrite_jsonl_row(dataset_dir / "dataset.jsonl", 1,
                       lambda row: row.update(v=[2.0 * x for x in row["v"]]))
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir, out = tmp_path / "run", tmp_path / "analysis"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir), "--renormalize"]) == 0
    assert main(["analyze", "--run", str(run_dir), "--out", str(out)]) == 0
    assert (out / "bins.csv").read_bytes() == (run_dir / "bins.csv").read_bytes()


def _edit_manifest(run_dir, edit):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    edit(manifest)
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def _strip_input_hashes(run_dir):
    _edit_manifest(run_dir, lambda manifest: manifest["inputs"].pop("sha256"))


def test_analyze_recomputes_the_bins_of_a_seeded_run_without_input_hashes(tmp_path):
    cfg_path = write_stream_config(tmp_path / "stream.json", samples_per_domain=720)
    data = tmp_path / "data"
    assert main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir, out = tmp_path / "run", tmp_path / "analysis"
    assert main(["run", "--dataset", str(data), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir), "--seed", "3"]) == 0
    _strip_input_hashes(run_dir)
    assert main(["analyze", "--run", str(run_dir), "--out", str(out)]) == 0
    assert (out / "bins.csv").read_bytes() == (run_dir / "bins.csv").read_bytes()


def test_analyze_recomputes_a_renormalized_run_without_input_hashes(tmp_path, dataset_dir):
    _rewrite_jsonl_row(dataset_dir / "dataset.jsonl", 1,
                       lambda row: row.update(v=[2.0 * x for x in row["v"]]))
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir, out = tmp_path / "run", tmp_path / "analysis"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir), "--renormalize"]) == 0
    _strip_input_hashes(run_dir)
    assert main(["analyze", "--run", str(run_dir), "--out", str(out)]) == 0
    assert (out / "bins.csv").read_bytes() == (run_dir / "bins.csv").read_bytes()


def _edit_run_bins(run_dir):
    path = run_dir / "bins.csv"
    path.write_bytes(path.read_bytes().replace(b",0.", b",1.", 1))


def _given_copy(tmp_path, run_dir, data):
    shutil.copytree(data, tmp_path / "copy")
    return ["--dataset", str(tmp_path / "copy")]


# each case edits the run or its dataset after the run, and returns extra analyze flags
_REUSE_CASES = {
    "unchanged": (True, lambda tmp_path, run_dir, data: []),
    "same-seed-given": (True, lambda tmp_path, run_dir, data: ["--seed", "0"]),
    "same-dataset-copy-given": (True, _given_copy),
    "dataset-edited": (False, lambda tmp_path, run_dir, data: _rewrite_jsonl_row(
        data / "dataset.jsonl", 3, lambda row: row.update(v=[-x for x in row["v"]]))),
    "textbank-edited": (False, lambda tmp_path, run_dir, data: _set_text_bank_field(
        data, "log_temp", 1.0)),
    "other-seed-given": (False, lambda tmp_path, run_dir, data: ["--seed", "5"]),
    "bins-edited": (False, lambda tmp_path, run_dir, data: _edit_run_bins(run_dir)),
    "numpy-version-changed": (False, lambda tmp_path, run_dir, data: _edit_manifest(
        run_dir, lambda m: m["environment"].update(numpy="0.0.1"))),
    "retta-version-changed": (False, lambda tmp_path, run_dir, data: _edit_manifest(
        run_dir, lambda m: m["environment"].update(retta="0.0.1"))),
    "no-input-hashes": (False, lambda tmp_path, run_dir, data: _strip_input_hashes(run_dir)),
}


@pytest.mark.parametrize("case", list(_REUSE_CASES))
def test_analyze_reuses_the_run_bins_only_when_the_manifest_proves_them_current(
        tmp_path, dataset_dir, monkeypatch, case):
    reused, edit = _REUSE_CASES[case]
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir, out = tmp_path / "run", tmp_path / "analysis"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir)]) == 0
    run_bins = (run_dir / "bins.csv").read_bytes()
    flags = edit(tmp_path, run_dir, dataset_dir) or []

    calls = {"load_jsonl": 0, "similarity_bins": 0}
    for module, name in ((datagen, "load_jsonl"), (analysis, "similarity_bins")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert main(["analyze", "--run", str(run_dir), "--out", str(out), *flags]) == 0
    expected = {"load_jsonl": 0, "similarity_bins": 0} if reused else \
        {"load_jsonl": 1, "similarity_bins": 1}
    assert calls == expected
    monkeypatch.undo()

    # the oracle: the bins recomputed from the dataset analyze used, with its seed
    seed = int(flags[flags.index("--seed") + 1]) if "--seed" in flags else 0
    dataset = flags[1] if flags[:1] == ["--dataset"] else dataset_dir
    oracle = analysis.write_bins_csv(tmp_path / "oracle.csv",
                                     _similarity_bins(_load_dataset(dataset, False)[0], seed))
    assert (out / "bins.csv").read_bytes() == oracle.read_bytes()
    if reused:
        assert (out / "bins.csv").read_bytes() == run_bins
    assert (out / "composition.csv").read_bytes() == (run_dir / "composition.csv").read_bytes()


def test_analyze_rejects_a_text_bank_edited_into_an_invalid_one(tmp_path, dataset_dir, capsys):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir = tmp_path / "run"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir)]) == 0
    _set_text_bank_field(dataset_dir, "embeddings", 2.0)
    capsys.readouterr()
    assert main(["analyze", "--run", str(run_dir), "--out", str(tmp_path / "analysis")]) == 1
    assert "textbank.json" in _single_error_line(capsys.readouterr().err)


def test_analyze_rejects_the_run_directory_as_out_and_writes_nothing(tmp_path, dataset_dir,
                                                                     capsys):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir = tmp_path / "run"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir)]) == 0
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    assert main(["analyze", "--run", str(run_dir), "--out", f"{run_dir}/../run"]) == 1
    assert "--out" in _single_error_line(capsys.readouterr().err)
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_analyze_records_a_null_dataset_when_it_has_none(tmp_path, dataset_dir):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir, out = tmp_path / "run", tmp_path / "analysis"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir)]) == 0
    (run_dir / "manifest.json").unlink()
    assert main(["analyze", "--run", str(run_dir), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["inputs"]["dataset"] is None
    assert not (out / "bins.csv").exists()


def test_manifests_record_the_environment_and_run_its_input_hashes(tmp_path, dataset_dir):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir, out = tmp_path / "run", tmp_path / "analysis"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir)]) == 0
    assert main(["analyze", "--run", str(run_dir), "--out", str(out)]) == 0
    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "retta": retta.__version__}
    for directory in (dataset_dir, run_dir, out):
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["environment"] == environment
    recorded = json.loads((run_dir / "manifest.json").read_text())["inputs"]["sha256"]
    assert recorded == {name: hashlib.sha256((dataset_dir / name).read_bytes()).hexdigest()
                        for name in ("dataset.jsonl", "textbank.json")}


@pytest.mark.parametrize("source", ["given", "recorded"])
def test_analyze_rejects_a_missing_dataset(tmp_path, dataset_dir, capsys, source):
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir = tmp_path / "run"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir)]) == 0
    argv = ["analyze", "--run", str(run_dir), "--out", str(tmp_path / "analysis")]
    if source == "given":
        missing = tmp_path / "nowhere"
        argv += ["--dataset", str(missing)]
    else:
        missing = dataset_dir
        dataset_dir.rename(tmp_path / "moved")
    capsys.readouterr()
    assert main(argv) == 1
    assert str(missing) in _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("edit", [
    lambda m: m.update(seed="3"),
    lambda m: m.update(seed=True),
    lambda m: m["inputs"].update(renormalize="yes"),
    lambda m: m.update(inputs=["data"]),
    lambda m: m["inputs"].update(dataset=5),
    lambda m: "{not json",
    lambda m: m["inputs"].update(sha256="abc"),
    lambda m: m["inputs"].update(sha256={"dataset.jsonl": 5, "textbank.json": "abc"}),
    lambda m: m.update(seed=-1),
], ids=["string-seed", "bool-seed", "string-renormalize", "inputs-not-an-object",
        "integer-dataset", "not-json", "string-sha256", "non-string-sha256-value",
        "negative-seed"])
def test_analyze_rejects_a_malformed_run_manifest(tmp_path, dataset_dir, capsys, edit):
    # `edit` changes the recorded manifest in place, or returns the text to write instead
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir = tmp_path / "run"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    text = edit(manifest)
    (run_dir / "manifest.json").write_text(json.dumps(manifest) if text is None else text)
    capsys.readouterr()
    assert main(["analyze", "--run", str(run_dir), "--out", str(tmp_path / "analysis")]) == 1
    assert "manifest.json" in _single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "analysis").exists()


@pytest.mark.parametrize("field, value", [
    ("dim", 8.5),
    ("num_classes", 3.0),
    ("samples_per_domain", 2.5),
    ("seed", 1.5),
    ("num_domains", 2.0),
])
def test_gen_rejects_badly_typed_fields_and_writes_nothing(tmp_path, capsys, field, value):
    cfg_path = write_stream_config(tmp_path / "bad.json", **{field: value})
    out = tmp_path / "x"
    assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert line.startswith("error: stream config: ") and field in line
    assert not out.exists()


@pytest.mark.parametrize("field", ["samples_per_domain", "dim", "num_classes", "num_domains"])
def test_gen_rejects_a_size_too_large_for_an_array_and_names_it(tmp_path, capsys, field):
    cfg_path = write_stream_config(tmp_path / "huge.json", **{field: 10**400})
    out = tmp_path / "x"
    assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert line.startswith(f"error: stream config: {field}: "), line
    assert not out.exists()


@pytest.mark.parametrize("field", ["samples_per_domain", "dim", "num_classes", "num_domains"])
def test_gen_names_the_config_when_its_arrays_cannot_be_built(tmp_path, capsys, field):
    # a size within an array dimension whose arrays still exceed what numpy can allocate
    cfg_path = write_stream_config(tmp_path / "huge.json", **{field: 2**63 - 1})
    out = tmp_path / "x"
    assert main(["gen", "--config", str(cfg_path), "--out", str(out)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert line.startswith(f"error: stream config {cfg_path}: "), line
    assert f"{field}={2**63 - 1}" in line
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("renormalize", [False, True])
def test_run_takes_the_true_norm_of_a_row_whose_squares_overflow(tmp_path, dataset_dir, capfd,
                                                                 renormalize):
    _rewrite_jsonl_row(dataset_dir / "dataset.jsonl", 3,
                       lambda row: row.update(v=[1e200, 1e200] + [0.0] * (len(row["v"]) - 2)))
    acfg = write_adapter_config(tmp_path / "adapter.json")
    code = main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(tmp_path / "x")]
                + ["--renormalize"] * renormalize)
    out, err = capfd.readouterr()
    if renormalize:
        assert code == 0 and not err and len(out.splitlines()) == 1
    else:
        assert code == 1 and not out
        assert "line 3: v has L2 norm 1.41421356237e+200" in _single_error_line(err)


@pytest.mark.parametrize("field, value", [
    ("log_temp", None),
    ("log_temp", True),
    ("class_names", 3),
    ("embeddings", 5),
])
def test_run_rejects_a_malformed_text_bank_field(tmp_path, dataset_dir, capsys, field, value):
    path = dataset_dir / "textbank.json"
    bank = json.loads(path.read_text())
    bank[field] = value
    path.write_text(json.dumps(bank))
    acfg = write_adapter_config(tmp_path / "adapter.json")
    code = main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert field in _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("method", ["zeroshot", "retta"])
def test_run_rejects_a_log_temp_whose_scale_overflows(tmp_path, dataset_dir, capsys, method):
    _set_text_bank_field(dataset_dir, "log_temp", 1000.0)
    acfg = write_adapter_config(tmp_path / "adapter.json")
    code = main(["run", "--dataset", str(dataset_dir), "--method", method,
                 "--config", str(acfg), "--out", str(tmp_path / "x")])
    assert code == 1
    line = _single_error_line(capsys.readouterr().err)
    assert f"{dataset_dir / 'textbank.json'}: " in line and "log_temp" in line


def _set_first_dataset_entry(dataset_dir, value):
    path = dataset_dir / "dataset.jsonl"
    lines = path.read_text().splitlines()
    row = json.loads(lines[4])
    row["v"][0] = value
    lines[4] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")


def _set_text_bank_field(dataset_dir, field, value):
    path = dataset_dir / "textbank.json"
    bank = json.loads(path.read_text())
    if field == "embeddings":
        bank["embeddings"][1][0] = value
    else:
        bank[field] = value
    path.write_text(json.dumps(bank))


@pytest.mark.parametrize("where, name", [
    ("dataset", "line 5"),
    ("embeddings", "embeddings"),
    ("log_temp", "log_temp"),
    ("lr", "lr"),
    ("beta", "beta"),
])
def test_run_rejects_an_integer_too_large_for_a_float(tmp_path, dataset_dir, capsys, where, name):
    huge = 10**400
    overrides = {}
    if where == "dataset":
        _set_first_dataset_entry(dataset_dir, huge)
    elif where in ("embeddings", "log_temp"):
        _set_text_bank_field(dataset_dir, where, huge)
    else:
        overrides[where] = huge
    acfg = write_adapter_config(tmp_path / "adapter.json", **overrides)
    code = main(["run", "--dataset", str(dataset_dir), "--method", "retta",
                 "--config", str(acfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert name in _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("command", ["gen", "run", "analyze", "verify"])
def test_a_negative_seed_flag_is_rejected_by_name_before_anything_is_written(
        tmp_path, dataset_dir, capsys, command):
    scfg = write_stream_config(tmp_path / "stream.json")
    acfg = write_adapter_config(tmp_path / "adapter.json")
    run_dir = tmp_path / "run"
    assert main(["run", "--dataset", str(dataset_dir), "--method", "zeroshot",
                 "--config", str(acfg), "--out", str(run_dir)]) == 0
    before = sorted(tmp_path.rglob("*"))
    out = str(tmp_path / "x")
    argv = {"gen": ["--config", str(scfg), "--out", out],
            "run": ["--dataset", str(dataset_dir), "--method", "retta", "--config", str(acfg),
                    "--out", out],
            "analyze": ["--run", str(run_dir), "--out", out],
            "verify": ["--suite", "grad"]}[command]
    capsys.readouterr()
    assert main([command, *argv, "--seed", "-1"]) == 1
    out_text, err = capsys.readouterr()
    assert _single_error_line(err) == "error: --seed must be non-negative, got -1"
    assert not out_text
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["gen", "run"])
def test_a_negative_config_seed_is_rejected_by_name_and_writes_nothing(
        tmp_path, dataset_dir, capsys, command):
    out = tmp_path / "x"
    if command == "gen":
        cfg = write_stream_config(tmp_path / "stream.json", seed=-1)
        argv = ["gen", "--config", str(cfg), "--out", str(out)]
        expected = "error: stream config: seed: must be non-negative, got -1"
    else:
        cfg = write_adapter_config(tmp_path / "adapter.json", seed=-1)
        argv = ["run", "--dataset", str(dataset_dir), "--method", "retta", "--config", str(cfg),
                "--out", str(out)]
        expected = "error: adapter config: seed must be non-negative, got -1"
    assert main(argv) == 1
    assert _single_error_line(capsys.readouterr().err) == expected
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method, optimizer", [
    ("retta", "signsgd"), ("retta-no-dc", "signsgd"), ("entmin", "signsgd"), ("retta", "gd")])
def test_run_names_lr_in_one_line_when_the_adapted_logits_overflow(
        tmp_path, dataset_dir, capsys, method, optimizer):
    acfg = write_adapter_config(tmp_path / "adapter.json", lr=1e308, optimizer=optimizer)
    out = tmp_path / "x"
    code = main(["run", "--dataset", str(dataset_dir), "--method", method,
                 "--config", str(acfg), "--out", str(out)])
    assert code == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "adapted logits are not finite" in line and "lr 1e+308" in line
    assert not out.exists()

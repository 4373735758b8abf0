"""Command-line surface: generate datasets, run methods, verify, analyze.

Every command writes a manifest.json next to its outputs with the fully
resolved configuration (defaults included), input paths, the Python, numpy
and retta versions, and SHA-256 hashes of every written artifact, so a run
can be audited and reproduced exactly.  A run also hashes the two dataset
files it read; `analyze` copies the run's bins.csv only when those hashes,
the seed, the numpy and retta versions and the file's own hash prove it
current, and recomputes it otherwise.

Exit codes: 0 success, 1 validation error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, adapter, analysis, datagen, model

# the run method of each engine variant: "retta" for the full engine, "retta-<variant>"
_VARIANT_OF = {"retta" if v == "full" else f"retta-{v}": v for v in adapter.VARIANTS}
METHODS = (*_VARIANT_OF, "entmin", "zeroshot")


class ValidationError(Exception):
    pass


def _load_config(path: str, cls, name: str):
    """Build a dataclass config from JSON, naming any bad field."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{name} config not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{name} config {path}: invalid JSON ({exc.msg})")
    if not isinstance(data, dict):
        raise ValidationError(f"{name} config {path}: expected a JSON object")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ValidationError(f"{name} config: unknown field '{key}'")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} config: {exc}")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "retta": __version__}


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict,
                    outputs: list[Path], seed: int, method: str | None = None) -> Path:
    manifest = {
        "command": command,
        "method": method,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
        "environment": _environment(),
    }
    path = out_dir / "manifest.json"
    with model.create_file(path) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def cmd_gen(args) -> int:
    cfg = _load_config(args.config, datagen.StreamConfig, "stream")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    try:
        stream, bank = datagen.generate(cfg)
    except (ValueError, MemoryError) as exc:
        sizes = ", ".join(f"{name}={getattr(cfg, name)}" for name in
                          ("num_classes", "num_domains", "dim", "samples_per_domain"))
        raise ValidationError(f"stream config {args.config}: cannot build the stream's arrays "
                              f"({sizes}): {exc}") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = out_dir / "dataset.jsonl"
    datagen.save_jsonl(stream, dataset_path)
    meta_path = out_dir / "metadata.json"
    datagen.save_metadata(cfg, bank, meta_path)
    bank_path = out_dir / "textbank.json"
    model.save_text_bank(bank, bank_path)
    _write_manifest(
        out_dir,
        command="gen",
        config=asdict(cfg),
        inputs={"config": str(args.config)},
        outputs=[dataset_path, meta_path, bank_path],
        seed=cfg.seed,
    )
    print(f"wrote {len(stream)} samples to {dataset_path}")
    return 0


_DATASET_FILES = ("dataset.jsonl", "textbank.json")  # what a run reads, and hashes


def _load_dataset(dataset_dir: str, renormalize: bool):
    ddir = Path(dataset_dir)
    dataset_path = ddir / "dataset.jsonl"
    bank_path = ddir / "textbank.json"
    if not dataset_path.exists():
        raise ValidationError(f"dataset not found: {dataset_path}")
    if not bank_path.exists():
        raise ValidationError(f"text bank not found: {bank_path}")
    try:
        bank = model.load_text_bank(bank_path, renormalize=renormalize)
    except ValueError as exc:
        raise ValidationError(f"{bank_path}: {exc}") from exc
    try:
        stream = datagen.load_jsonl(dataset_path, expected_dim=bank.dim,
                                    renormalize=renormalize, num_classes=bank.num_classes)
    except ValueError as exc:
        raise ValidationError(f"{dataset_path}: {exc}") from exc
    if not len(stream):
        raise ValidationError(f"dataset has no samples: {dataset_path}")
    return stream, bank


def _run_method(method: str, stream, cfg: adapter.AdapterConfig, bank):
    if method in _VARIANT_OF:
        run_cfg = adapter.ablation_config(cfg, _VARIANT_OF[method])
        return adapter.run_stream(stream, run_cfg, bank)
    if method == "entmin":
        return adapter.run_entropy_baseline(stream, cfg, bank)
    if method == "zeroshot":
        return adapter.run_zero_shot(stream, bank)
    raise ValidationError(f"unknown method '{method}' (choose from {', '.join(METHODS)})")


def _similarity_bins(stream, seed: int):
    """The run's similarity bins, or None (a header-only bins.csv) for one domain."""
    if len(np.unique(stream.domains)) < 2:  # a row without a domain (-1) counts as one
        return None
    return analysis.similarity_bins(stream, seed=seed)


def cmd_run(args) -> int:
    if args.method not in METHODS:
        raise ValidationError(f"unknown method '{args.method}' (choose from {', '.join(METHODS)})")
    cfg = _load_config(args.config, adapter.AdapterConfig, "adapter")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    stream, bank = _load_dataset(args.dataset, args.renormalize)
    digests = {name: _sha256(Path(args.dataset) / name) for name in _DATASET_FILES}
    # an overflowing step (a huge lr) fails on its non-finite logits, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = _run_method(args.method, stream, cfg, bank)
    bins = _similarity_bins(stream, cfg.seed)
    report = analysis.evaluate(stream, outcomes, same_domain_ratio_bins=bins)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = analysis.write_report_files(report, out_dir)
    written.append(analysis.write_trace(out_dir / "trace.jsonl", stream, outcomes))

    _write_manifest(
        out_dir,
        command="run",
        config=asdict(cfg),
        inputs={"dataset": str(args.dataset), "config": str(args.config),
                "renormalize": args.renormalize, "sha256": digests},
        outputs=written,
        seed=cfg.seed,
        method=args.method,
    )
    print(f"method={args.method} macro_accuracy={report.macro_average:.4f} "
          f"overall={report.overall_accuracy:.4f}")
    return 0


def _recorded_bins(run_dir: Path, recorded: dict, digests: dict, dataset_dir: str,
                   seed: int) -> str | None:
    """The run's bins.csv text if recomputing it would give the same bytes, else None.

    That holds when the run recorded the seed, the numpy and retta versions and
    the hashes (`digests`) of the dataset files that analyze would use, and of
    its bins.csv as it is now.  The run's `renormalize` is the one analyze loads with.
    """
    environment = recorded.get("environment")
    outputs = recorded.get("outputs")
    bins_path = run_dir / "bins.csv"
    if (not digests or seed != recorded.get("seed") or not isinstance(environment, dict)
            or environment.get("numpy") != np.__version__
            or environment.get("retta") != __version__
            or not isinstance(outputs, dict) or not bins_path.is_file()):
        return None
    for name in _DATASET_FILES:
        path = Path(dataset_dir) / name
        if not path.is_file() or _sha256(path) != digests.get(name):
            return None
    data = bins_path.read_bytes()
    if hashlib.sha256(data).hexdigest() != outputs.get("bins.csv"):
        return None
    return data.decode()


def cmd_analyze(args) -> int:
    run_dir = Path(args.run)
    if Path(args.out).resolve() == run_dir.resolve():
        raise ValidationError(f"--out {args.out} is the run directory; analyze would "
                              "overwrite the run's manifest.json")
    trace_path = run_dir / "trace.jsonl"
    if not trace_path.exists():
        raise ValidationError(f"trace not found: {trace_path}")

    domains, supports = [], []
    with open(trace_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"trace line {lineno}: invalid JSON ({exc.msg})")
            if not isinstance(row, dict) or not isinstance(row.get("domain"), str):
                raise ValidationError(f"trace line {lineno}: 'domain' must be a string")
            support = row.get("support_domains")
            if not isinstance(support, list) or not all(isinstance(d, str) for d in support):
                raise ValidationError(f"trace line {lineno}: 'support_domains' must be a list "
                                      "of strings")
            domains.append(row["domain"])
            supports.append(support)

    # default to the dataset, seed and --renormalize that the run recorded
    manifest_path = run_dir / "manifest.json"
    try:
        recorded = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{manifest_path}: invalid JSON ({exc.msg})")
    inputs = recorded.get("inputs", {}) if isinstance(recorded, dict) else None
    if not isinstance(inputs, dict):
        raise ValidationError(f"{manifest_path}: expected a JSON object with an 'inputs' object")
    dataset_dir = args.dataset if args.dataset is not None else inputs.get("dataset")
    seed = args.seed if args.seed is not None else recorded.get("seed", 0)
    renormalize = inputs.get("renormalize", False)
    digests = inputs.get("sha256", {})
    if (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
            or not isinstance(renormalize, bool)
            or not isinstance(dataset_dir, (str, type(None))) or not isinstance(digests, dict)
            or not all(isinstance(h, str) for h in digests.values())):
        raise ValidationError(f"{manifest_path}: 'seed' must be a non-negative integer, "
                              "'inputs.renormalize' a boolean, 'inputs.dataset' a string and "
                              "'inputs.sha256' an object of strings")
    stream = reused = None
    if dataset_dir is not None:
        reused = _recorded_bins(run_dir, recorded, digests, dataset_dir, seed)
        if reused is None:
            stream, _ = _load_dataset(dataset_dir, renormalize=renormalize)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    order = tuple(sorted(set(domains)))
    composition = analysis.composition_matrix(model.domain_codes([domains], order)[0],
                                              model.domain_codes(supports, order), len(order))
    written = [analysis.write_composition_csv(out_dir / "composition.csv", order, composition)]
    if reused is not None:
        with model.create_file(out_dir / "bins.csv", newline="") as fh:
            fh.write(reused)
        written.append(out_dir / "bins.csv")
    elif stream is not None:
        written.append(analysis.write_bins_csv(out_dir / "bins.csv",
                                               _similarity_bins(stream, seed)))

    _write_manifest(
        out_dir,
        command="analyze",
        config={},
        inputs={"run": str(args.run), "dataset": dataset_dir, "renormalize": renormalize},
        outputs=written,
        seed=seed,
    )
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0


def _verify_grad(seed: int) -> tuple[bool, str]:
    """Closed-form gradients vs central finite differences, 100 random draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        C = int(rng.integers(2, 11))
        d = int(rng.integers(2, 33))
        emb = rng.standard_normal((C, d))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        bank = model.TextBank(emb, float(rng.uniform(0.0, np.log(10.0))),
                              [f"c{i}" for i in range(C)])
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        params = model.AffineParams(rng.uniform(0.5, 1.5, d), rng.uniform(-0.3, 0.3, d))
        exact = model.sample_grad(v, params, bank)
        fd = model.finite_diff_grad(v, params, bank, step=1e-5)
        num = np.linalg.norm(
            np.concatenate([exact.d_weight - fd.d_weight, exact.d_bias - fd.d_bias])
        )
        den = np.linalg.norm(np.concatenate([exact.d_weight, exact.d_bias]))
        worst = max(worst, num / max(den, 1e-300))
    return worst < 1e-6, f"max rel err {worst:.3e} (threshold 1e-6)"


def _verify_theorem(seed: int) -> tuple[bool, str]:
    """Closed-form importance prediction vs an actual GD step, 100 seeds."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(4, 17))
        emb = rng.standard_normal((2, d))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        bank = model.TextBank(emb, float(rng.uniform(0.0, np.log(5.0))), ["c0", "c1"])
        feats = rng.standard_normal((int(rng.integers(4, 33)), d))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        check = analysis.verify_feature_importance(list(feats), bank, eta=1e-3)
        worst = max(worst, check.max_abs_gap)
    return worst < 1e-12, f"max gap {worst:.3e} (threshold 1e-12)"


def _verify_cache(seed: int) -> tuple[bool, str]:
    """Cached vs recomputed engine logits on a small mixed stream."""
    cfg = datagen.StreamConfig(
        num_classes=4, num_domains=3, dim=16, samples_per_domain=80, seed=seed
    )
    stream, bank = datagen.generate(cfg)
    acfg = adapter.AdapterConfig(
        capacity_per_class=40, retrieve_k=3, beta=5.0, lr=1e-2, batch_size=20, seed=seed
    )
    cached = adapter.run_stream(stream, acfg, bank, recompute_grads=False).adapted.logits
    naive = adapter.run_stream(stream, acfg, bank, recompute_grads=True).adapted.logits
    gap = np.max(np.abs(cached - naive), axis=1)
    worst = float(np.max(gap / np.maximum(np.max(np.abs(naive), axis=1), 1e-300)))
    return worst < 1e-12, f"max logit rel err {worst:.3e} (threshold 1e-12)"


def cmd_verify(args) -> int:
    suites = {
        "grad": _verify_grad,
        "theorem": _verify_theorem,
        "cache": _verify_cache,
    }
    selected = list(suites) if args.suite == "all" else [args.suite]
    seed = args.seed if args.seed is not None else 0
    all_ok = True
    for name in selected:
        ok, detail = suites[name](seed)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retta",
        description="Retrieval-cached episodic test-time adaptation: "
        "dataset generation, runs, verification, analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--config", required=True, help="stream config JSON")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=int, default=None, help="override config seed")
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run a method over a dataset")
    p_run.add_argument("--dataset", required=True, help="dataset directory (from gen)")
    p_run.add_argument("--method", required=True, choices=METHODS)
    p_run.add_argument("--config", required=True, help="adapter config JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--renormalize", action="store_true",
                       help="rescale off-unit vectors instead of rejecting them")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run numerical verification suites")
    p_verify.add_argument("--suite", choices=["grad", "theorem", "cache", "all"],
                          default="all")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_analyze = sub.add_parser(
        "analyze", help="recompute diagnostics from run artifacts",
        description="Recompute composition.csv from the run's trace, and bins.csv from the "
        "dataset. The run's bins.csv is copied instead when the run manifest's hashes of the "
        "dataset files and of bins.csv, its seed and its numpy and retta versions all match.")
    p_analyze.add_argument("--run", required=True, help="run directory (from run)")
    p_analyze.add_argument("--out", required=True, help="output directory")
    p_analyze.add_argument("--dataset", default=None,
                           help="dataset directory (default: from the run manifest)")
    p_analyze.add_argument("--seed", type=int, default=None)
    p_analyze.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:  # before any command writes a file
            raise ValidationError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (ValidationError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

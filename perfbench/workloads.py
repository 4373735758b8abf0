"""The three closed-loop workloads: one caller, next call after the last returns.

All three run on the reference stream (4 classes, 4 domains, d=16, 4000
mixed samples) made by `retta.datagen.generate(reference_stream_config(seed))`.

* `sweep`: the reference adapter config with every `run` method in turn, the
  traffic the acceptance suite runs.  Time splits across the gradient pass and
  predicts (`model`), retrieval (`memory`) and weighting and stepping
  (`adapter`); `entmin` exercises only `model`, `no-dc` exercises
  `sample_uniform`, `no-pb` the single unsplit queue.
* `online`: the full engine with `batch_size=1` and 500 entries per class.
  Every sample goes through its own `process_batch` call on one `ClassMemory`
  that persists through the pass, so every insert invalidates a queue
  snapshot and every query restacks up to 500 rows: memory-layer changes
  show most here.
* `cli`: `retta run --method zeroshot` then `retta analyze` on a dataset that
  `retta gen` writes during set-up.  The engine is almost free; the time goes
  to JSONL load, `similarity_bins` and report, trace and manifest writes.

Outputs are checked outside the timed calls.  Each engine method's first
call is compared on a prefix of the stream with the recomputing reference
engine (`run_stream(..., recompute_grads=True)`); the prefix is enough
because the engine is causal, the `no-dc` draw order included.  Zero-shot
labels and logits are compared with a direct numpy evaluation of the
classifier, and the `cli` trace labels with `run_zero_shot`.  Every later
call of a method must return the labels of its first call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter_ns as clock
from typing import Callable

import numpy as np

# the criterion-2 tolerance: cached and recomputed engines agree to 1e-12
LOGIT_REL_TOL = 1e-12

# engine prefix checked against the recomputing reference, per workload;
# online's memory holds 500 per class, so its prefix reaches further
SWEEP_PREFIX = 300
ONLINE_PREFIX = 500
# samples per timed call on online: short calls let the host-speed probe
# that brackets every call follow the host
ONLINE_SEGMENT = 100

ENGINE_VARIANTS = {
    "retta": "full",
    "retta-no-pb": "no-pb",
    "retta-no-dc": "no-dc",
    "retta-no-pb-dc": "no-pb-dc",
    "retta-no-entw": "no-entw",
    "retta-no-simw": "no-simw",
}


@dataclass
class Call:
    """One timed call of the closed loop.

    `fn()` returns the output to check and the wall time, in ns, of each
    labelling call it made when that differs from the whole call (or None).
    """

    method: str
    samples: int
    fn: Callable[[], object]


def labels_of(outcomes) -> np.ndarray:
    return np.fromiter((o.prediction.pseudo_label for o in outcomes), dtype=np.int64,
                       count=len(outcomes))


def mismatches(outcomes, reference) -> int:
    """Samples whose label differs or whose relative logit gap exceeds 1e-12."""
    bad = 0
    for got, ref in zip(outcomes, reference):
        ref_logits = ref.prediction.logits
        scale = max(float(np.max(np.abs(ref_logits))), 1e-300)
        gap = float(np.max(np.abs(got.prediction.logits - ref_logits))) / scale
        if got.prediction.pseudo_label != ref.prediction.pseudo_label or not gap <= LOGIT_REL_TOL:
            bad += 1
    return bad + abs(len(reference) - len(outcomes))


def engine_reference(retta, samples, cfg, bank):
    """The oracle: the per-sample engine that recomputes every support gradient."""
    return retta.adapter.run_stream(samples, cfg, bank, recompute_grads=True)


def macro_accuracy(samples, labels) -> float:
    """Unweighted mean over domains of the per-domain accuracy."""
    per_domain: dict[str, list[int]] = {}
    for s, label in zip(samples, labels):
        hits = per_domain.setdefault(s.domain_id, [0, 0])
        hits[0] += int(label == s.true_label)
        hits[1] += 1
    return float(np.mean([hit / total for hit, total in
                          (per_domain[d] for d in sorted(per_domain))]))


class Workload:
    """Set-up, the calls of one pass, and the check of each call's output."""

    name = ""

    def __init__(self, retta, seed: int, out_dir: Path):
        self.retta = retta
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.expected: dict[str, np.ndarray] = {}
        self.macro_accuracy = float("nan")
        self.samples: list = []
        self.bank = None

    def setup(self) -> None:
        """Make the inputs from the seed; this is what `setup_s` times."""
        stream_cfg = self.retta.datagen.reference_stream_config(self.seed)
        self.samples, self.bank = self.retta.datagen.generate(stream_cfg)

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def first_check(self, method: str, result) -> int:
        """Failed samples in a method's first output, which becomes its reference."""
        raise NotImplementedError

    def labels(self, result) -> np.ndarray:
        return labels_of(result)

    def check(self, method: str, result) -> int:
        """Failed samples in one call's output."""
        if method not in self.expected:
            failed = self.first_check(method, result)
            self.expected[method] = self.labels(result)
            return failed
        labels = self.labels(result)
        expected = self.expected[method]
        if labels.shape != expected.shape:
            return len(expected)
        return int(np.count_nonzero(labels != expected))

    def latencies_us(self, times_ns: dict[str, list[float]],
                     latencies_ns: dict[str, list[np.ndarray]],
                     samples: dict[str, int]) -> np.ndarray:
        """Per-sample wait: the wall time of the call that returned the label.

        A whole-stream call is represented by its method's median call, so
        every sample of the method waits that long.
        """
        done = [m for m in times_ns if times_ns[m]]
        return np.repeat([np.median(times_ns[m]) / 1e3 for m in done],
                         [samples[m] for m in done])


class Sweep(Workload):
    name = "sweep"

    def setup(self) -> None:
        super().setup()
        self.cfg = self.retta.adapter.reference_adapter_config(self.seed)

    def calls(self) -> list[Call]:
        adapter, samples, bank, cfg = self.retta.adapter, self.samples, self.bank, self.cfg
        out = [
            Call(method, len(samples),
                 lambda v=variant: (adapter.run_stream(samples, adapter.ablation_config(cfg, v),
                                                       bank), None))
            for method, variant in ENGINE_VARIANTS.items()
        ]
        out.append(Call("entmin", len(samples),
                        lambda: (adapter.run_entropy_baseline(samples, cfg, bank), None)))
        out.append(Call("zeroshot", len(samples),
                        lambda: (adapter.run_zero_shot(samples, bank), None)))
        return out

    def first_check(self, method: str, outcomes) -> int:
        if len(outcomes) != len(self.samples):
            return len(self.samples)
        if method in ENGINE_VARIANTS:
            cfg = self.retta.adapter.ablation_config(self.cfg, ENGINE_VARIANTS[method])
            prefix = self.samples[:SWEEP_PREFIX]
            reference = engine_reference(self.retta, prefix, cfg, self.bank)
            if method == "retta":
                self.macro_accuracy = macro_accuracy(self.samples, labels_of(outcomes))
            return mismatches(outcomes[:SWEEP_PREFIX], reference)
        if method == "zeroshot":
            return zero_shot_mismatches(self.samples, self.bank, outcomes)
        # entmin has no independent reference; later calls must repeat this one
        return 0


def zero_shot_mismatches(samples, bank, outcomes) -> int:
    """Compare with the classifier evaluated directly: exp(log_temp) * T v."""
    feats = np.stack([s.feature for s in samples])
    logits = math.exp(bank.log_temp) * (feats @ bank.embeddings.T)
    got = np.stack([o.prediction.logits for o in outcomes])
    scale = np.maximum(np.max(np.abs(logits), axis=1), 1e-300)
    gap = np.max(np.abs(got - logits), axis=1) / scale
    wrong = (labels_of(outcomes) != np.argmax(logits, axis=1)) | ~(gap <= LOGIT_REL_TOL)
    return int(np.count_nonzero(wrong))


class Online(Workload):
    """One pass is a round of calls, each feeding the next ONLINE_SEGMENT
    samples one by one to `process_batch`; the first call of a round starts
    a fresh `ClassMemory`, which persists through the round."""

    name = "online"

    def setup(self) -> None:
        super().setup()
        self.cfg = replace(self.retta.adapter.reference_adapter_config(self.seed),
                           batch_size=1, capacity_per_class=500)
        self.starts = {f"retta[{i}:{i + ONLINE_SEGMENT}]": i
                       for i in range(0, len(self.samples), ONLINE_SEGMENT)}
        self.first_labels: dict[int, np.ndarray] = {}
        self.reference = None

    def calls(self) -> list[Call]:
        return [Call(method, len(self.samples[i:i + ONLINE_SEGMENT]),
                     functools.partial(self._segment, i))
                for method, i in self.starts.items()]

    def _segment(self, start: int):
        retta, cfg, bank = self.retta, self.cfg, self.bank
        if start == 0:
            self.mem = retta.memory.ClassMemory(bank.num_classes, cfg.capacity_per_class,
                                                split=cfg.split_memory)
            self.rng = np.random.default_rng(cfg.seed)
        process_batch, mem, rng = retta.adapter.process_batch, self.mem, self.rng
        out, lat = [], []
        for sample in self.samples[start:start + ONLINE_SEGMENT]:
            t0 = clock()
            out.extend(process_batch([sample], mem, cfg, bank, rng=rng))
            lat.append(clock() - t0)
        return out, lat

    def first_check(self, method: str, outcomes) -> int:
        start = self.starts[method]
        size = len(self.samples[start:start + ONLINE_SEGMENT])
        if len(outcomes) != size:
            return size
        self.first_labels[start] = labels_of(outcomes)
        if len(self.first_labels) == len(self.starts):
            labels = np.concatenate([self.first_labels[i] for i in sorted(self.first_labels)])
            self.macro_accuracy = macro_accuracy(self.samples, labels)
        if start >= ONLINE_PREFIX:
            return 0
        if self.reference is None:
            self.reference = engine_reference(self.retta, self.samples[:ONLINE_PREFIX],
                                              self.cfg, self.bank)
        return mismatches(outcomes[:ONLINE_PREFIX - start],
                          self.reference[start:start + size])

    def latencies_us(self, times_ns, latencies_ns, samples):
        """Each sample's median over the rounds that reached it.

        A sample's own wait recurs at the same point of every pass, so its
        median over passes keeps the stream's latency profile and drops a
        host hiccup that hit one pass.
        """
        per_segment = [np.median(np.stack(latencies_ns[m]), axis=0)
                       for m in self.starts if latencies_ns[m]]
        return np.concatenate(per_segment) / 1e3


class Cli(Workload):
    name = "cli"

    def setup(self) -> None:
        super().setup()
        retta, out = self.retta, self.out_dir
        out.mkdir(parents=True, exist_ok=True)
        self.stream_config = out / "stream.json"
        self.adapter_config = out / "adapter.json"
        self.data_dir = out / "data"
        self.run_dir = out / "run"
        self.analysis_dir = out / "analysis"
        stream_cfg = retta.datagen.reference_stream_config(self.seed)
        _write_json(self.stream_config, asdict(stream_cfg))
        _write_json(self.adapter_config,
                    asdict(retta.adapter.reference_adapter_config(self.seed)))
        self._main(["gen", "--config", str(self.stream_config), "--out", str(self.data_dir)])

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.retta.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"retta {argv[0]} exited with {code}")
        return code

    def calls(self) -> list[Call]:
        return [Call("cli", len(self.samples), self._pass)]

    def _pass(self):
        t0 = clock()
        self._main(["run", "--dataset", str(self.data_dir), "--method", "zeroshot",
                    "--config", str(self.adapter_config), "--out", str(self.run_dir)])
        run_ns = clock() - t0
        self._main(["analyze", "--run", str(self.run_dir), "--out", str(self.analysis_dir)])
        return self.run_dir, [run_ns]

    def labels(self, run_dir) -> np.ndarray:
        with open(Path(run_dir) / "trace.jsonl") as fh:
            return np.array([json.loads(line)["predicted"] for line in fh], dtype=np.int64)

    def first_check(self, method: str, run_dir) -> int:
        got = self.labels(run_dir)
        reference = labels_of(self.retta.adapter.run_zero_shot(self.samples, self.bank))
        with open(Path(run_dir) / "report.json") as fh:
            self.macro_accuracy = float(json.load(fh)["macro_average"])
        if got.shape != reference.shape:
            return len(reference)
        return int(np.count_nonzero(got != reference))

    def latencies_us(self, times_ns, latencies_ns, samples):
        # the labels arrive when `retta run` returns; `analyze` labels nothing
        median_us = np.median(np.concatenate(latencies_ns["cli"])) / 1e3
        return np.full(samples["cli"], median_us)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


WORKLOADS = {w.name: w for w in (Sweep, Online, Cli)}

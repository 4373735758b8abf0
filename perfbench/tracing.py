"""Outside-in span tracer for retta, driven from the benchmark's own files.

Each public function of `model`, `memory`, `adapter`, `datagen`, `analysis`
and `cli` is wrapped where its caller looks it up: `retta.adapter` binds
`predict`, `sample_grad`, `batch_grads` and `weigh` at import, so those names
are wrapped on `retta.adapter` as well as on their home module; `ClassMemory`
methods are wrapped on the class; `cli` reaches `datagen` and `analysis`
through module attributes.  Nothing under `src/` changes.

A span is `[name, start_ns, end_ns, parent, batch]`.  `parent` is the index of
the enclosing span (-1 for a call made by the benchmark itself) and `batch`
is the index of the enclosing `adapter.process_batch` span, or of the root
span when there is none.  Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

BATCH_SPAN = "adapter.process_batch"


def _count(key, amount_of):
    """A hook that adds `amount_of(value)` to the counter `key`."""

    def hook(tracer, value):
        tracer.counts[key] = tracer.counts.get(key, 0) + amount_of(value)

    return hook


def _scanned(tracer, args):
    # args[0] is the ClassMemory the query scans
    tracer.counts["memory.entries_scanned"] = (
        tracer.counts.get("memory.entries_scanned", 0) + len(args[0])
    )


def _outcome(tracer, outcome):
    tracer.counts["adapter.support_size"] = (
        tracer.counts.get("adapter.support_size", 0) + outcome.support_size
    )
    if outcome.support_size == 0:
        tracer.counts["adapter.zero_shot_fallbacks"] = (
            tracer.counts.get("adapter.zero_shot_fallbacks", 0) + 1
        )


# (module under retta, attribute path, span name, before-hook(args), after-hook(result))
WRAP_POINTS = (
    ("model", "predict", "model.predict", None, None),
    ("model", "sample_grad", "model.sample_grad", None, None),
    ("adapter", "predict", "model.predict", None, None),
    ("adapter", "sample_grad", "model.sample_grad", None, None),
    ("adapter", "batch_grads", "model.batch_grads",
     _count("model.batch_grads.samples", lambda a: len(a[0])), None),
    ("memory", "ClassMemory.insert", "memory.insert", None, None),
    ("memory", "ClassMemory.retrieve", "memory.retrieve", _scanned, None),
    ("memory", "ClassMemory.sample_uniform", "memory.sample_uniform", _scanned, None),
    ("adapter", "weigh", "memory.weigh", None, None),
    ("adapter", "aggregate", "adapter.aggregate", None, None),
    ("adapter", "signsgd_step", "adapter.signsgd_step", None, None),
    ("adapter", "adapt_and_predict", "adapter.adapt_and_predict", None, _outcome),
    ("adapter", "process_batch", "adapter.process_batch",
     _count("adapter.process_batch.samples", lambda a: len(a[0])), None),
    ("adapter", "run_stream", "adapter.run_stream", None, None),
    ("adapter", "run_entropy_baseline", "adapter.run_entropy_baseline",
     _count("adapter.run_entropy_baseline.samples", lambda a: len(a[0])), None),
    ("adapter", "run_zero_shot", "adapter.run_zero_shot",
     _count("adapter.run_zero_shot.samples", lambda a: len(a[0])), None),
    ("datagen", "generate", "datagen.generate", None, None),
    ("datagen", "save_jsonl", "datagen.save_jsonl", None, None),
    ("datagen", "load_jsonl", "datagen.load_jsonl", None, None),
    ("analysis", "similarity_bins", "analysis.similarity_bins", None, None),
    ("analysis", "evaluate", "analysis.evaluate", None, None),
    ("analysis", "write_report_files", "analysis.write_report_files", None, None),
    ("cli", "cmd_gen", "cli.gen", None, None),
    ("cli", "cmd_run", "cli.run", None, None),
    ("cli", "cmd_analyze", "cli.analyze", None, None),
    ("cli", "main", "cli.main", None, None),
)


def _owner(retta, module: str, path: str):
    owner = getattr(retta, module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _wrapper(self, original, name, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        is_batch = name == BATCH_SPAN

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            batch = idx if is_batch or parent < 0 else spans[parent][4]
            span = [name, 0, 0, parent, batch]
            spans.append(span)
            if before is not None:
                before(self, args)
            stack.append(idx)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, retta):
        """Wrap every point in WRAP_POINTS; restore the originals on exit."""
        saved = []
        try:
            for module, path, name, before, after in WRAP_POINTS:
                owner, attr = _owner(retta, module, path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write one JSON object per span, in the order the spans opened."""
        with open(path, "w") as fh:
            for name, start, end, parent, batch in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "batch": batch}))
                fh.write("\n")


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, total and self nanoseconds per span name, plus the root wall time.

    `root_ns` under the key "" is the summed duration of the calls the
    benchmark made itself, the base of every self share.
    """
    table: dict[str, dict[str, float]] = {"": {"calls": 0, "total_ns": 0, "self_ns": 0}}
    for span, self_ns in zip(spans, self_times(spans)):
        name, start, end, parent, _ = span
        row = table.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += self_ns
        if parent < 0:
            table[""]["calls"] += 1
            table[""]["total_ns"] += end - start
    return table

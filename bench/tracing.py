"""Span tracer that wraps mmexpr's public functions from outside the package.

A ``Tracer`` replaces module attributes and class methods with wrappers that
record one span per call: a name, a start and end time, and the span that
was open when the call began (its parent). Spans live in parallel lists in
memory and are written out once, at the end of a traced run. Nothing inside
``src/`` changes; ``Tracer.restore`` puts every original back.

Calls of a span that re-enter the same span name (``encode_segment`` calling
``forward``) collapse into the outer span, so per-layer sums count each
layer once.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self._undo: list = []

    # -- spans ------------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.span_end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, after=None):
        """Return ``fn`` recording a span per call; ``after(args, result)`` runs
        once the span is closed, so its own cost stays out of the span."""
        nid = self.name_id(name)
        names = self.span_name
        stack = self.stack

        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------------

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, after))
        self._undo.append((cls, attr, original))

    def patch_function(self, modules, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` in every module that holds that same function."""
        original = getattr(owner, attr)
        traced = self.wrap(original, name, after)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
                self._undo.append((mod, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -----------------------------------------------------------------

    def arrays(self):
        return (np.asarray(self.span_name, np.int64),
                np.asarray(self.span_start, np.float64),
                np.asarray(self.span_end, np.float64),
                np.asarray(self.span_parent, np.int64))

    def write(self, path: str) -> None:
        """Spans as parallel arrays plus the name table, one ``.npz`` file."""
        name, start, end, parent = self.arrays()
        np.savez(path, name=name, start=start, end=end, parent=parent,
                 names=np.asarray(json.dumps(self.names)))


def install(tracer: Tracer, mmexpr_modules: dict) -> None:
    """Wrap the layer boundaries the benchmark reports on.

    ``mmexpr_modules`` maps short module names (``tensor``, ``training``,
    ...) to the imported modules.
    """
    m = mmexpr_modules
    everywhere = list(m.values())
    tensor = m["tensor"]

    # Graph.apply: one forward span per op, named by the op kind, which is
    # read from the call so kinds added later appear without an edit here.
    # The node just appended to the tape gets its backward rule wrapped too.
    original_apply = tensor.Graph.__dict__["apply"]
    fwd_ids: dict = {}
    counters = tracer.counters

    def traced_apply(graph, kind, inputs, **attrs):
        nid = fwd_ids.get(kind)
        if nid is None:
            nid = fwd_ids[kind] = tracer.name_id("tensor.fwd." + kind)
        before = len(graph.nodes)
        i = tracer.open(nid)
        try:
            out = original_apply(graph, kind, inputs, **attrs)
        finally:
            tracer.close(i)
        if len(graph.nodes) > before:
            node = graph.nodes[-1]
            counters["nodes." + kind] += 1
            node.backward_fn = tracer.wrap(node.backward_fn, "tensor.bwd." + kind)
        return out

    tensor.Graph.apply = traced_apply
    tracer._undo.append((tensor.Graph, "apply", original_apply))

    samples = tracer.samples

    def on_backward(args, out):
        samples["nodes_per_step"].append(len(args[1].nodes))

    tracer.patch_function(everywhere, tensor, "backward", "tensor.backward", on_backward)

    models = m["models"]
    tracer.patch_method(models.FusionLayer, "apply", "models.fusion")
    tracer.patch_method(models.LstmEncoder, "forward", "models.encoder")
    tracer.patch_method(models.LstmEncoder, "encode_segment", "models.encoder")
    tracer.patch_method(models.TransformerEncoder, "forward", "models.encoder")
    tracer.patch_method(models.ClassificationHead, "forward", "models.head")
    tracer.patch_method(models.ExpressionModel, "eval_logits", "models.eval_logits")

    training = m["training"]

    def on_rdrop(args, out):
        if out is None:
            counters["skipped_steps"] += 1

    def on_adam(args, out):
        counters["params"] = sum(p.data.size for p in args[0].values())

    tracer.patch_function(everywhere, training, "rdrop_loss", "training.rdrop_loss", on_rdrop)
    tracer.patch_function(everywhere, training, "evaluate_split", "training.evaluate_split")
    tracer.patch_function(everywhere, training, "adam_step", "optim.adam_step", on_adam)
    tracer.patch_function(everywhere, training, "collect_grads", "optim.collect_grads")
    tracer.patch_function(everywhere, training, "zero_grads", "optim.zero_grads")

    def on_save(args, out):
        counters["checkpoint_bytes"] += os.path.getsize(args[1])

    tracer.patch_function(everywhere, m["checkpoint"], "save_checkpoint", "checkpoint.save",
                          on_save)

    data = m["data"]
    tracer.patch_function(everywhere, data, "load_video", "data.load_video")
    tracer.patch_method(data.VideoData, "segments", "data.segments")
    tracer.patch_function(everywhere, data, "load_labels", "data.load_labels")

    ensemble = m["ensemble"]

    def on_vote(args, out):
        tally = np.zeros((out.n_frames, ensemble.NUM_CLASSES), np.int64)
        rows = np.arange(out.n_frames)
        for track in args[0]:
            tally[rows, track.labels] += 1
        top = tally.max(axis=1, keepdims=True)
        counters["tie_frames"] += int(((tally == top).sum(axis=1) > 1).sum())
        counters["voted_frames"] += out.n_frames

    tracer.patch_function(everywhere, ensemble, "read_predictions", "ensemble.read")
    tracer.patch_function(everywhere, ensemble, "vote", "ensemble.vote", on_vote)
    tracer.patch_function(everywhere, ensemble, "write_predictions", "ensemble.write")
    tracer.patch_function(everywhere, m["evaluation"], "evaluate_tracks",
                          "evaluation.evaluate_tracks")

    def on_write(args, out):
        counters["atomic_writes"] += 1
        counters["bytes_written"] += len(args[1])

    tracer.patch_function(everywhere, m["fileio"], "atomic_write_bytes", "fileio.atomic_write",
                          on_write)


# -- aggregation ------------------------------------------------------------------


def tail_stats(values):
    """(p50, tail, tail percentile, n) of a sample, by nearest rank.

    The tail is the highest percentile with at least ten samples beyond it;
    below twenty samples no percentile above the median qualifies and the
    tail is the median.
    """
    xs = np.sort(np.asarray(values, np.float64))
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0, 0

    def rank(level):
        return float(xs[max(1, -(-level * n // 100)) - 1])

    level = max(50, 100 * (n - 10) // n)
    return rank(50), rank(level), level, n


class Summary:
    """Self time and per-name aggregates of one tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        name, start, end, parent = tracer.arrays()
        self.name, self.start, self.parent = name, start, parent
        self.dur = end - start
        child = np.zeros(len(name))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        # pointer jumping: each span's outermost ancestor
        root = np.where(has_parent, parent, np.arange(len(name)))
        while len(root) and not np.array_equal(root, root[root]):
            root = root[root]
        self.root = root

    def ids(self, span_name: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(0, np.int64)
        return np.flatnonzero(self.name == self.names.index(span_name))

    def durations(self, span_name: str, within=None) -> np.ndarray:
        """Durations of every ``span_name`` span, optionally only those whose
        root span is ``within``."""
        idx = self.ids(span_name)
        if within is not None:
            roots = self.root_names(idx)
            idx = idx[roots == within]
        return self.dur[idx]

    def root_names(self, idx) -> np.ndarray:
        return np.asarray(self.names, dtype=object)[self.name[self.root[idx]]]

    def self_table(self) -> list:
        """Rows of (span name, calls, total ms, self ms), largest self time first."""
        rows = []
        for nid, label in enumerate(self.names):
            sel = self.name == nid
            if sel.any():
                rows.append((label, int(sel.sum()), float(self.dur[sel].sum() * 1e3),
                             float(self.self_time[sel].sum() * 1e3)))
        return sorted(rows, key=lambda r: -r[3])

    def layer_table(self) -> dict:
        """Self time in ms per layer, the span name's first dotted part."""
        out: dict = defaultdict(float)
        for label, _, _, self_ms in self.self_table():
            out[label.split(".")[0]] += self_ms
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def kind_table(self) -> dict:
        """{kind: {fwd_ms, bwd_ms, fwd_calls}} for every op kind seen."""
        out: dict = {}
        for label, calls, _, self_ms in self.self_table():
            parts = label.split(".", 2)
            if parts[0] == "tensor" and parts[1] in ("fwd", "bwd"):
                row = out.setdefault(parts[2], {"fwd_ms": 0.0, "bwd_ms": 0.0, "fwd_calls": 0})
                row[parts[1] + "_ms"] += self_ms
                if parts[1] == "fwd":
                    row["fwd_calls"] += calls
        return out

    def per_step(self, span_name: str, root: str) -> np.ndarray:
        """Summed duration of ``span_name`` spans per training step.

        Steps end where an ``optim.adam_step`` span ends; spans under
        ``models.eval_logits`` (validation) are left out.
        """
        adam = self.ids("optim.adam_step")
        adam_ends = np.sort(self.start[adam] + self.dur[adam])
        if not len(adam_ends):
            return np.zeros(0)
        idx = self.ids(span_name)
        idx = idx[self.root_names(idx) == root]
        idx = idx[np.isin(self.parent[idx], self.ids("models.eval_logits"), invert=True)]
        steps = np.searchsorted(adam_ends, self.start[idx])
        keep = steps < len(adam_ends)
        return np.bincount(steps[keep], weights=self.dur[idx][keep],
                           minlength=len(adam_ends))

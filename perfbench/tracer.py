"""In-memory span tracer for prvr, installed from outside the program.

A traced run replaces each function in TARGETS with a wrapper in every
prvr module namespace that holds it, so the wrapper is used wherever a
caller looks the function up (``prvr.trainer.build_corpus_map`` and
``prvr.evaluation.build_corpus_map`` alike). Each call records a span
(name, start, end, parent) in flat arrays; spans are written out only when
the run ends. No file of the program changes.

The autodiff elementwise ops are not wrapped: they run millions of times
per training run, so their spans would cost more than the work they
measure. Their time is the self time of the encoder and loss functions
that call them.
"""

import csv
import sys
import time
from array import array
from contextlib import contextmanager

# (module, function) pairs, one per layer boundary the CLI paths cross.
TARGETS = (
    ("cli", "main"),
    ("config", "parse_kv_file"),
    ("config", "apply_overrides"),
    ("config", "corpus_spec_from"),
    ("config", "train_config_from"),
    ("corpus", "generate_synthetic"),
    ("corpus", "write_corpus"),
    ("corpus", "read_corpus"),
    ("encoder", "encode_text"),
    ("encoder", "encode_video"),
    ("encoder", "wrap_params"),
    ("encoder", "collect_tape"),
    ("autodiff", "backward"),
    ("similarity", "cosine_pairs"),
    ("similarity", "build_corpus_map"),
    ("similarity", "map_retrieval_scores"),
    ("ambiguity", "compute_uncertainty"),
    ("ambiguity", "compute_thresholds"),
    ("ambiguity", "detect_video_ambiguity"),
    ("ambiguity", "detect_frame_ambiguity"),
    ("losses", "loss_video"),
    ("losses", "loss_frame"),
    ("losses", "loss_warmup"),
    ("losses", "forced_negative_sets"),
    ("trainer", "train"),
    ("trainer", "checkpoint"),
    ("trainer", "resume"),
    ("evaluation", "evaluate"),
    ("evaluation", "fused_pair_scores"),
    ("evaluation", "recall_from_scores"),
    ("evaluation", "audit"),
    ("gradcheck", "run_suite"),
    ("gradcheck", "check_instance"),
)

# Exact values taken at the same boundaries: (name, unit, better).
EXACT = (
    ("autodiff.backward.nodes", "count", "lower"),
    ("similarity.build_corpus_map.bytes", "bytes", "lower"),
    ("similarity.build_corpus_map.madds", "count", "lower"),
    ("encoder.calls_per_epoch", "1/epoch", "lower"),
    ("ambiguity.detect_video_ambiguity.detected", "count", "higher"),
    ("ambiguity.detect_video_ambiguity.planted_hits", "count", "higher"),
    ("ambiguity.detect_frame_ambiguity.amb_frames", "count", "higher"),
    ("evaluation.audit.detected", "count", "higher"),
    ("evaluation.audit.f1", "ratio", "higher"),
)

# Result passed to an after-hook when the wrapped call raised.
_FAILED = object()

TRACE_TIMES = ("trace.wall_s", "trace.overhead_s", "trace.unattributed_s")


def exact_keys():
    """Metrics that must repeat exactly across traced runs of one input."""
    return [f"{module}.{fn}.calls" for module, fn in TARGETS] + [name for name, _, _ in EXACT]


def metric_specs():
    """Every per-layer metric a traced run reports, as (name, unit, better)."""
    specs = []
    for module, fn in TARGETS:
        specs.append((f"{module}.{fn}.calls", "count", "lower"))
        specs.append((f"{module}.{fn}.self_s", "s", "lower"))
    specs.extend(EXACT)
    specs.extend((name, "s", "lower") for name in TRACE_TIMES)
    return specs


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.names = [f"{module}.{fn}" for module, fn in TARGETS]
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = dict.fromkeys((name for name, _, _ in EXACT), 0)
        self._planted = None        # planted pairs of the corpus in training
        self._train_encodes = 0
        self._train_epochs = 0
        self._hooks = {
            "autodiff.backward": (None, self._after_backward),
            "similarity.build_corpus_map": (None, self._after_map),
            "ambiguity.detect_video_ambiguity": (None, self._after_video_detect),
            "ambiguity.detect_frame_ambiguity": (None, self._after_frame_detect),
            "evaluation.audit": (None, self._after_audit),
            "trainer.train": (self._before_train, self._after_train),
            "encoder.encode_text": (None, self._after_encode),
            "encoder.encode_video": (None, self._after_encode),
        }

    # -- counting hooks (run outside the span's own interval) -------------

    def _after_backward(self, args, result):
        if result is _FAILED:
            return
        self.counts["autodiff.backward.nodes"] += len(result)

    def _after_map(self, args, result):
        if result is _FAILED:
            return
        m = result.m
        self.counts["similarity.build_corpus_map.bytes"] += m.nbytes
        self.counts["similarity.build_corpus_map.madds"] += m.size * args[0].dims.d

    def _after_video_detect(self, args, result):
        if result is _FAILED:
            return
        amb = result.amb
        self.counts["ambiguity.detect_video_ambiguity.detected"] += int(amb.sum())
        if self._planted:
            batch = args[0]
            rows, cols = amb.nonzero()
            self.counts["ambiguity.detect_video_ambiguity.planted_hits"] += sum(
                (batch[i][0], batch[j][1]) in self._planted
                for i, j in zip(rows.tolist(), cols.tolist()))

    def _after_frame_detect(self, args, result):
        if result is _FAILED:
            return
        self.counts["ambiguity.detect_frame_ambiguity.amb_frames"] += sum(
            len(a) for a in result.amb_frames)

    def _after_audit(self, args, result):
        if result is _FAILED:
            return
        self.counts["evaluation.audit.detected"] += len(result.detected_pairs)
        self.counts["evaluation.audit.f1"] = result.f1  # of the last audit

    def _before_train(self, args):
        self._planted = set(args[0].planted_ambiguity or ())

    def _after_train(self, args, result):
        self._planted = None
        if result is not _FAILED:
            state = args[2] if len(args) > 2 else None
            self._train_epochs += result[0].epoch - (state.epoch if state else 0)

    def _after_encode(self, args, result):
        if self._planted is not None and result is not _FAILED:
            self._train_encodes += 1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, idx, fn):
        before, after = self._hooks.get(self.names[idx], (None, None))
        stack, clock = self._stack, time.perf_counter
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = len(start)
            name_idx.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            result = _FAILED
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
                if after is not None:
                    after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target in every prvr namespace; restore on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "prvr" or name.startswith("prvr."))]
        wrappers = {}
        for idx, (module, fn) in enumerate(TARGETS):
            func = getattr(sys.modules[f"prvr.{module}"], fn)
            wrappers[id(func)] = self._wrap(idx, func)
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Per-name (calls, self seconds); self = duration minus child spans."""
        n = len(self.start)
        child = [0.0] * n
        durations = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += durations[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_idx[i]
            calls[k] += 1
            self_s[k] += durations[i] - child[i]
        return calls, self_s

    def metrics(self, wall_s, untraced_wall_s):
        """Per-layer metrics; self times plus unattributed add up to wall_s."""
        calls, self_s = self.self_times()
        values = {}
        for name, c, s in zip(self.names, calls, self_s):
            values[f"{name}.calls"] = c
            values[f"{name}.self_s"] = s
        values.update(self.counts)
        builds = values["similarity.build_corpus_map.calls"]
        for key in ("similarity.build_corpus_map.bytes", "similarity.build_corpus_map.madds"):
            values[key] = values[key] / builds if builds else 0
        values["encoder.calls_per_epoch"] = (
            self._train_encodes / self._train_epochs if self._train_epochs else 0)
        values["trace.wall_s"] = wall_s
        values["trace.overhead_s"] = wall_s - untraced_wall_s
        values["trace.unattributed_s"] = wall_s - sum(self_s)
        return values

    def write(self, path):
        """Write every span as one CSV row: id, name, start, end, parent."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start_s", "end_s", "parent"))
            for i in range(len(self.start)):
                writer.writerow((i, self.names[self.name_idx[i]], repr(self.start[i]),
                                 repr(self.end[i]), self.parent[i]))

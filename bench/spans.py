"""Span tracing from outside the program.

`Tracer.install` wraps public functions of the lexner modules. Each call
records a span (id, parent id, name, phase, thread, start, end) in memory,
and some wrappers also count the work they see. Spans are written out only
when the run ends. A target that no longer exists is listed as absent and
the run goes on.

A span's layer is the module that owns the wrapped function. A layer's
self time is the time its spans cover minus the time their child spans
cover, so self times add up to the traced time without double counting.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

SPAN_FIELDS = ("id", "parent", "name", "phase", "thread", "start", "end")
LAYERS = ("lexicon", "model", "encoder", "fusion", "crf", "params", "trainer", "numerics")

# (module, function or Class.method) for each module boundary that is wrapped
TARGETS = (
    ("lexicon", "build_lexicon"),
    ("lexicon", "match_sentence"),
    ("lexicon", "knowledge_select"),
    ("model", "init_params"),
    ("model", "prepare_sentence"),
    ("model", "sentence_loss"),
    ("model", "decode_sentence"),
    ("encoder", "encode_chars"),
    ("encoder", "encode_backward"),
    ("encoder", "global_feature"),
    ("encoder", "global_feature_backward"),
    ("fusion", "fuse_position"),
    ("fusion", "fuse_backward"),
    ("crf", "emissions"),
    ("crf", "emissions_backward"),
    ("crf", "nll"),
    ("crf", "viterbi"),
    ("params", "GradBuffer.get"),
    ("params", "GradBuffer.reduce_into"),
    ("params", "ParamStore.load"),
    ("params", "ParamStore.copy"),
    ("params", "ParamStore.save"),
    ("trainer", "train"),
    ("trainer", "evaluate"),
    ("trainer", "adam_step"),
    ("trainer", "Checkpoint.load"),
    ("numerics", "grad_check"),
    ("numerics", "dropout"),
    ("numerics", "dropout_backward"),
    ("numerics", "affine"),
    ("numerics", "affine_backward"),
    ("numerics", "check_finite"),
)


def _count_knowledge(counts, args, result):
    counts["lexicon.positions"] += len(result)
    counts["lexicon.covered"] += sum(1 for s in result if len(s))
    counts["lexicon.words"] += sum(len(s) for s in result)


def _count_fusion(counts, args, result):
    counts["fusion.calls"] += 1
    counts["fusion.words"] += len(args[0])


def _count_reduce(counts, args, result):
    counts["params.grad_bytes"] += sum(buf.nbytes for _, buf in args[0].items())


def _count_adam(counts, args, result):
    counts["trainer.adam_values"] += args[0].num_values()


COUNTERS = {
    "lexicon.knowledge_select": _count_knowledge,
    "fusion.fuse_position": _count_fusion,
    "params.GradBuffer.reduce_into": _count_reduce,
    "trainer.adam_step": _count_adam,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.phase: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []
        self._count_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "numerics.grad_check" and args and callable(args[0]):
                args = (tracer._counting(args[0]),) + args[1:]
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, tracer.phase,
                                     threading.get_ident(), start, end))
            if counter is not None and tracer.phase == "phase":
                with tracer._count_lock:
                    try:
                        counter(tracer.counts, args, result)
                    except (AttributeError, IndexError, TypeError):
                        # the function's signature changed; its count goes missing
                        if f"{name} (count)" not in tracer.absent:
                            tracer.absent.append(f"{name} (count)")
            return result

        return traced

    def _counting(self, f):
        def counted():
            if self.phase == "phase":
                with self._count_lock:
                    self.counts["numerics.loss_evals"] += 1
            return f()
        return counted

    def install(self) -> None:
        """Wrap every target, replacing each reference held by a lexner module."""
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            try:
                mod = importlib.import_module(f"lexner.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if raw is None:
                    self.absent.append(name)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(mod, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            for mname, m in list(sys.modules.items()):
                if mname != "lexner" and not mname.startswith("lexner."):
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one list per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(tracer: Tracer, phase_s: float, n_setups: int, n_passes: int,
              main_thread: int) -> dict:
    """Per-layer figures for one setup plus one pass of steady work.

    Spans recorded during set-up are divided by the number of set-ups and
    spans recorded during the timed phase by the number of passes, so each
    figure is the cost of one set-up plus one pass. Counts and shares are
    of the timed phase only. `trace.unaccounted_share` is the part of the timed phase
    that no span on the main thread covers.
    """
    child_time: dict[int, float] = defaultdict(float)
    names: dict[int, str] = {}
    parents: dict[int, int] = {}
    for sid, parent, name, phase, thread, start, end in tracer.spans:
        child_time[parent] += end - start
        names[sid] = name
        parents[sid] = parent

    per = {"setup": 1.0 / max(n_setups, 1), "phase": 1.0 / max(n_passes, 1)}
    total: dict[str, float] = defaultdict(float)
    own_by_name: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    phase_self: dict[str, float] = defaultdict(float)
    covered = 0.0
    phase_spans = 0
    backward_under_check = 0
    for sid, parent, name, phase, thread, start, end in tracer.spans:
        if phase not in per:
            continue
        dur = end - start
        own = dur - child_time[sid]
        layer = name.split(".")[0]
        total[name] += dur * per[phase]
        own_by_name[name] += own * per[phase]
        self_s[layer] += own * per[phase]
        if phase == "phase":
            phase_spans += 1
            phase_self[layer] += own
            if parent == 0 and thread == main_thread:
                covered += dur
            if name == "model.sentence_loss" and _has_ancestor(sid, parents, names,
                                                                "numerics.grad_check"):
                backward_under_check += 1

    c = tracer.counts
    evals = c["numerics.loss_evals"]
    m = {
        "encoder.forward_s": total["encoder.encode_chars"] + total["encoder.global_feature"],
        "encoder.backward_s": (total["encoder.encode_backward"]
                               + total["encoder.global_feature_backward"]),
        "crf.nll_s": total["crf.nll"],
        "crf.viterbi_s": total["crf.viterbi"],
        "fusion.forward_s": total["fusion.fuse_position"],
        "fusion.backward_s": total["fusion.fuse_backward"],
        "fusion.calls": c["fusion.calls"] / max(n_passes, 1),
        "fusion.words": c["fusion.words"] / max(n_passes, 1),
        "lexicon.build_s": total["lexicon.build_lexicon"],
        "lexicon.match_s": total["lexicon.match_sentence"] + total["lexicon.knowledge_select"],
        "lexicon.coverage": c["lexicon.covered"] / max(c["lexicon.positions"], 1),
        "lexicon.words_per_char": c["lexicon.words"] / max(c["lexicon.positions"], 1),
        "params.grad_alloc_s": total["params.GradBuffer.get"],
        "params.reduce_s": total["params.GradBuffer.reduce_into"],
        "params.grad_bytes": c["params.grad_bytes"] / max(n_passes, 1),
        "params.load_s": total["params.ParamStore.load"],
        "params.snapshot_s": total["params.ParamStore.copy"],
        "trainer.adam_s": total["trainer.adam_step"],
        "trainer.adam_values": c["trainer.adam_values"] / max(n_passes, 1),
        "trainer.evaluate_s": total["trainer.evaluate"],
        "numerics.loss_evals": evals / max(n_passes, 1),
        "numerics.backward_per_eval": backward_under_check / evals if evals else 0.0,
        "model.loss_self_s": own_by_name["model.sentence_loss"],
        "model.decode_self_s": own_by_name["model.decode_sentence"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.share"] = phase_self[layer] / phase_s if phase_s > 0 else 0.0
    m["trace.unaccounted_share"] = (phase_s - covered) / phase_s if phase_s > 0 else 0.0
    m["trace.overhead"] = span_cost() * phase_spans / phase_s if phase_s > 0 else 0.0
    return m


def span_cost(calls: int = 20_000) -> float:
    """Seconds that one traced call adds to a plain call (best of three).

    The tracing overhead of a run is estimated as this cost times the
    number of spans. Timing a traced run against an untraced one instead
    would drown the overhead in the run-to-run noise of a shared machine.
    """
    probe = Tracer()

    def noop():
        return None

    traced = probe._wrap("probe.noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def _has_ancestor(sid, parents, names, target) -> bool:
    sid = parents.get(sid, 0)
    while sid:
        if names[sid] == target:
            return True
        sid = parents.get(sid, 0)
    return False

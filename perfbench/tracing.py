"""Spans recorded around calls into lexlab, from outside the package.

The tracer replaces each target function with a wrapper in every lexlab
module that holds a reference to it (modules import functions by name, so
`training.lexical_encode` and `encoders.lexical_encode` are separate
lookups), including functions stored in module-level dicts and lists. A
target that no longer exists is reported as missing instead of failing, so a
later change that renames or batches a function still runs the benchmark.

Spans hold a name, a start, an end and the index of the enclosing span.
They are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.hook_errors: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def summarize(self, lo: int, hi: int) -> dict[str, list[float]]:
        """name -> [calls, self seconds, total seconds] over spans [lo, hi)."""
        start = np.asarray(self.start[lo:hi])
        dur = np.asarray(self.end[lo:hi]) - start
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64) - lo
        child = np.zeros(len(dur))
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        own = dur - child
        out: dict[str, list[float]] = {}
        for nid, d, s in zip(self.name_id[lo:hi], dur.tolist(), own.tolist()):
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s
            row[2] += d
        return out

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
        )


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.idx)

    @property
    def seconds(self) -> float:
        return self.tracer.duration(self.idx)


@dataclass(frozen=True)
class Target:
    """One public lexlab function to wrap.

    `namer(args, kwargs)` returns a suffix for the span name (a train stage,
    an encoder kind). `hook(tracer, args, kwargs, result)` records counts or
    wraps a returned callable. Both run outside the timed call; an error in
    either is counted in `Tracer.hook_errors` and never reaches the program.
    """

    module: str
    func: str
    namer: Callable | None = None
    hook: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.func}"


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


_STAGE_NAMES = {("warmup", "lexical"): "lex1", ("warmup", "dense"): "den1", ("continue", "lexical"): "lex2"}


def _stage_name(args, kwargs) -> str:
    stage = _arg(args, kwargs, 0, "config").stage
    kind = _arg(args, kwargs, 6, "init_params").kind
    return _STAGE_NAMES.get((stage, kind), stage)


def _encoder_kind(args, kwargs) -> str:
    return _arg(args, kwargs, 0, "params").kind


def _retriever(args, kwargs) -> str:
    params = _arg(args, kwargs, 0, "params")
    return "bm25" if params is None else params.kind


def _count_rank_pairs(tracer, args, kwargs, result):
    tracer.counts["objectives.rank_pairs"] += len(result.pairs)


def _count_train_sets(tracer, args, kwargs, result):
    log = result[1]
    tracer.counts["training.train_sets"] += len(log.steps)
    tracer.counts["training.optimizer_steps"] += log.optimizer_steps


def _count_postings(tracer, args, kwargs, result):
    vectors = _arg(args, kwargs, 0, "vectors")
    sizes = [len(v.weights) for v in vectors.values() if hasattr(v, "weights")]
    if sizes:
        tracer.counts["sparse_index.learned_postings"] += sum(sizes)
        tracer.counts["sparse_index.learned_docs"] += len(sizes)


def _trace_teacher(tracer, args, kwargs, result):
    return _wrap(tracer, result, "training.teacher")


# Stage functions are timed in every run; the end-to-end rates of
# led-pipeline and search-large come from them. A handful of calls per pass
# makes their cost negligible.
STAGE_TARGETS = (
    Target("training", "train_stage", namer=_stage_name, hook=_count_train_sets),
    Target("retrieval", "encode_corpus", namer=_encoder_kind),
    Target("retrieval", "make_run", namer=_retriever),
)

LAYER_TARGETS = STAGE_TARGETS + (
    Target("encoders", "lexical_encode"),
    Target("encoders", "dense_encode"),
    Target("encoders", "lexical_backward"),
    Target("encoders", "dense_backward"),
    Target("objectives", "contrastive_loss"),
    Target("objectives", "make_rank_pairs", hook=_count_rank_pairs),
    Target("objectives", "rank_consistent_loss"),
    Target("objectives", "flops_penalty"),
    Target("objectives", "margin_mse_loss"),
    Target("training", "adam_step"),
    Target("training", "model_teacher", hook=_trace_teacher),
    Target("training", "mine_negatives"),
    Target("training", "mix_pools"),
    Target("sparse_index", "build_index", hook=_count_postings),
    Target("sparse_index", "bm25_search"),
    Target("sparse_index", "sparse_search"),
    Target("retrieval", "dense_search"),
    Target("retrieval", "save_run"),
    Target("retrieval", "load_run"),
    Target("retrieval", "evaluate"),
    Target("analysis", "ensemble_fuse"),
    Target("analysis", "rank_buckets"),
    Target("analysis", "discrepancy_pairs"),
    Target("data", "load_collection"),
    Target("data", "load_queries"),
    Target("data", "load_qrels"),
    Target("data", "build_vocab"),
    Target("data", "vectorize_corpus"),
    Target("synthetic", "write_fixture"),
    Target("gradcheck", "grad_check"),
    Target("gradcheck", "loss_grad_check"),
    Target("gradcheck", "composed_grad_check"),
)


def _wrap(tracer: Tracer, orig: Callable, name: str, namer=None, hook=None) -> Callable:
    open_, close = tracer.open, tracer.close
    if namer is None and hook is None:

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                return orig(*args, **kwargs)
            finally:
                close(idx)

        return traced

    @functools.wraps(orig)
    def traced_with_hooks(*args, **kwargs):
        span_name = name
        if namer is not None:
            try:
                span_name = f"{name}.{namer(args, kwargs)}"
            except Exception:  # the program's API moved; keep running untagged
                tracer.hook_errors[name] += 1
        idx = open_(span_name)
        try:
            result = orig(*args, **kwargs)
        finally:
            close(idx)
        if hook is not None:
            try:
                replaced = hook(tracer, args, kwargs, result)
            except Exception:  # a count is lost, the program's result is not
                tracer.hook_errors[name] += 1
            else:
                if replaced is not None:
                    result = replaced
        return result

    return traced_with_hooks


def install(tracer: Tracer, targets: tuple[Target, ...]) -> Callable[[], None]:
    """Wrap every target wherever lexlab refers to it; returns an undo."""
    package = importlib.import_module("lexlab")
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):  # never run a __main__
            importlib.import_module(f"lexlab.{info.name}")
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "lexlab" or key.startswith("lexlab."))]
    undo: list[Callable[[], None]] = []
    for target in targets:
        home = sys.modules.get(f"lexlab.{target.module}")
        orig = getattr(home, target.func, None)
        if not callable(orig):
            if target.name not in tracer.missing:
                tracer.missing.append(target.name)
            continue
        wrapper = _wrap(tracer, orig, target.name, target.namer, target.hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    undo.append(functools.partial(setattr, module, attr, orig))
                elif isinstance(value, (dict, list)):
                    keys = value.keys() if isinstance(value, dict) else range(len(value))
                    for key in [k for k in keys if value[k] is orig]:
                        value[key] = wrapper
                        undo.append(functools.partial(value.__setitem__, key, orig))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall

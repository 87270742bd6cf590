"""Negative mining, pool mixing, the Adam optimizer, stage training, and the
two-stage pipeline (warm-up both retrievers on BM25 negatives, continue the
lexical one on its own negatives, then train the dense student on mixed
negatives under the lexical teacher's rank pairs).

Everything here is seeded and deterministic: the same configuration and data
produce bit-identical checkpoints, pools, and run files.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import random
from dataclasses import dataclass, field, fields
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import (
    CheckpointMeta,
    Corpus,
    FormatError,
    Qrels,
    QuerySet,
    TermVector,
    Vocabulary,
    build_vocab_for,
    vectorize,
    vectorize_corpus,
)
from .encoders import (
    DenseParams,
    LexicalParams,
    LexicalRoutes,
    LexicalTrace,
    Params,
    TokenBatch,
    TokenRow,
    dense_backward_batch,
    dense_encode_batch,
    lexical_encode,
    lexical_trace,
    token_row,
)
from .objectives import STRATEGIES, CandidateSet, flops_penalty, strategy_loss
from . import retrieval
from .retrieval import Retriever, index_kind
from .sparse_index import InvertedIndex, build_index, sparse_scores

log = logging.getLogger(__name__)

SOURCE_TAGS = ("bm25", "lex1", "lex2", "den1", "file")


@dataclass
class TrainConfig:
    """Hyperparameters of a single training stage."""

    seed: int = 7
    dim: int = 16
    lr: float = 1e-2
    batch_size: int = 8
    m: int = 5                 # negatives per query in each candidate set
    reg_weight: float = 1.2    # weight of the teaching loss in the total
    flops_weight: float = 0.0
    epochs: int = 3
    stage: str = "warmup"
    strategy: str = "none"
    filter_threshold: float = 0.95
    kl_temperature: float = 1.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r} (choose from {STRATEGIES})")
        for name in ("dim", "lr", "batch_size", "m", "epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.reg_weight < 0 or self.flops_weight < 0:
            raise ValueError("loss weights must be >= 0")


@dataclass
class NegativePool:
    """Per-query negatives grouped by the model that mined them."""

    by_query: dict[str, dict[str, list[str]]] = field(default_factory=dict)

    def add(self, qid: str, source: str, pids: list[str]) -> None:
        if source not in SOURCE_TAGS:
            raise ValueError(f"unknown source tag {source!r}")
        seen = set()
        deduped = [p for p in pids if not (p in seen or seen.add(p))]
        self.by_query.setdefault(qid, {})[source] = deduped

    def merged(self, qid: str) -> list[str]:
        """Deduplicated concatenation across sources, insertion order."""
        seen: set[str] = set()
        out: list[str] = []
        for pids in self.by_query.get(qid, {}).values():
            for pid in pids:
                if pid not in seen:
                    seen.add(pid)
                    out.append(pid)
        return out


def validate_pool(pool: NegativePool, qrels: Qrels) -> None:
    """Exhaustively verify that no pool contains a qrels-positive passage."""
    for qid, sources in pool.by_query.items():
        positives = qrels.positives(qid)
        for source, pids in sources.items():
            leaked = positives.intersection(pids)
            if leaked:
                raise ValueError(
                    f"pool for query {qid!r} (source {source}) contains positives {sorted(leaked)}"
                )


def save_pool(pool: NegativePool, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for qid, sources in pool.by_query.items():
            for source, pids in sources.items():
                f.write(f"{qid}\t{source}\t{','.join(pids)}\n")


def load_pool(path: str | Path) -> NegativePool:
    pool = NegativePool()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected '<qid>\\t<source>\\t<pid,pid,...>'")
            qid, source, pids_s = parts
            if source not in SOURCE_TAGS:
                raise FormatError(f"{path}:{lineno}: unknown source tag {source!r}")
            if source in pool.by_query.get(qid, {}):
                raise FormatError(f"{path}:{lineno}: query {qid!r}, source {source} given twice")
            pool.add(qid, source, [p for p in pids_s.split(",") if p])
    return pool


def mine_negatives(
    retriever,
    queries: QuerySet,
    qrels: Qrels,
    depth: int = 200,
    m: int = 5,
    seed: int = 0,
    source: str = "bm25",
    sample: bool = True,
) -> NegativePool:
    """Retrieve top-`depth` per query, drop qrels positives, keep m negatives.

    `retriever` is anything with `search(text, k, qid=)`, usually a
    `Retriever`. With sampling enabled the m survivors are drawn uniformly
    without replacement from a per-query seeded stream; otherwise the top m
    are kept.
    """
    if depth < m:
        raise ValueError("mining depth must be >= m")
    pool = NegativePool()
    short = 0
    for qid, text in queries.queries.items():
        positives = qrels.positives(qid)
        ranked = retriever.search(text, depth, qid=qid).pids()
        eligible = [pid for pid in ranked if pid not in positives]
        if len(eligible) < m:
            # With m close to depth a full ranking that holds the positive
            # leaves fewer than m by design; only a short ranking is a shortfall.
            if len(ranked) < depth:
                short += 1
            chosen = eligible
        elif sample:
            rng = random.Random(f"{seed}|{source}|{qid}")
            chosen = rng.sample(eligible, m)
        else:
            chosen = eligible[:m]
        pool.add(qid, source, chosen)
    if short:
        log.warning(
            "%d queries retrieved fewer than %d passages and fewer than %d eligible negatives",
            short, depth, m,
        )
    validate_pool(pool, qrels)
    return pool


def _sample_union(
    parts: list[tuple[str, list[str]]], m_total: int, rng: random.Random
) -> dict[str, list[str]]:
    """Dedup the ordered union, sample m_total, and group the sample by source.

    Each pid belongs to the first source that lists it. Groups keep the
    sample's order and follow the order of `parts`; empty groups are left out.
    """
    seen: set[str] = set()
    union: list[str] = []
    origin: dict[str, str] = {}
    for source, pids in parts:
        for pid in pids:
            if pid not in seen:
                seen.add(pid)
                union.append(pid)
                origin[pid] = source
    chosen = rng.sample(union, m_total) if len(union) > m_total else union
    groups: dict[str, list[str]] = {source: [] for source, _ in parts}
    for pid in chosen:
        groups[origin[pid]].append(pid)
    return {source: group for source, group in groups.items() if group}


def mix_pools(
    lex1: NegativePool,
    lex2: NegativePool,
    den1: NegativePool,
    m_total: int = 32,
    seed: int = 0,
) -> NegativePool:
    """Per query: union of the three sources, dedup, uniform sample of m_total."""
    if not (lex1.by_query.keys() == lex2.by_query.keys() == den1.by_query.keys()):
        raise ValueError("pools to mix must cover the same query set")
    mixed = NegativePool()
    for qid in lex1.by_query:
        parts = [
            ("lex1", lex1.merged(qid)),
            ("lex2", lex2.merged(qid)),
            ("den1", den1.merged(qid)),
        ]
        groups = _sample_union(parts, m_total, random.Random(f"{seed}|mix|{qid}"))
        for source, group in groups.items():
            mixed.add(qid, source, group)
    return mixed


def subsample_pool(pool: NegativePool, m_total: int, seed: int) -> NegativePool:
    """Uniformly sample m_total negatives per query from a single pool."""
    out = NegativePool()
    for qid, sources in pool.by_query.items():
        groups = _sample_union(list(sources.items()), m_total, random.Random(f"{seed}|self|{qid}"))
        for source, group in groups.items():
            out.add(qid, source, group)
    return out


def save_teacher_scores(scores: dict[tuple[str, str], float], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for (qid, pid), score in sorted(scores.items()):
            f.write(f"{qid}\t{pid}\t{score:.12g}\n")


def load_teacher_scores(path: str | Path) -> dict[tuple[str, str], float]:
    scores: dict[tuple[str, str], float] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected '<qid>\\t<pid>\\t<score>'")
            qid, pid, score_s = parts
            try:
                score = float(score_s)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: score {score_s!r} is not a number") from None
            if not math.isfinite(score):
                raise FormatError(f"{path}:{lineno}: score {score_s!r} is not finite")
            if (qid, pid) in scores:
                raise FormatError(f"{path}:{lineno}: query {qid!r}, passage {pid!r} given twice")
            scores[(qid, pid)] = score
    return scores


def table_teacher(scores: dict[tuple[str, str], float]):
    """Teacher callable backed by a static `(qid, pid) -> score` table."""

    def teacher(qid: str, pids: list[str], student_scores: np.ndarray) -> np.ndarray:
        try:
            return np.array([scores[(qid, pid)] for pid in pids])
        except KeyError as exc:
            raise ValueError(f"teacher table missing score for query {qid!r}: {exc}") from None

    return teacher


def model_teacher(params: LexicalParams, index: InvertedIndex, vocab: Vocabulary, queries: QuerySet):
    """Teacher callable scoring candidates with a frozen lexical model.

    Passages are read from `index`, the learned-weight index that
    `encode_corpus` built with the same model, so no passage is encoded
    again. Each query is encoded once and scored against the whole index by
    `sparse_scores`, which equals `relevance` of the two encodings.
    """
    if params.kind != "lexical" or index_kind(index) != "lexical":
        raise TypeError(
            f"the teacher is a lexical model over its learned-weight index, "
            f"got a {params.kind} model and a {index_kind(index)} index"
        )
    by_query: dict[str, np.ndarray] = {}

    def teacher(qid: str, pids: list[str], student_scores: np.ndarray) -> np.ndarray:
        if qid not in by_query:
            q_vec = lexical_encode(vectorize(queries.queries[qid], vocab), params)
            by_query[qid] = sparse_scores(q_vec, index)
        return by_query[qid][[index.row_of[pid] for pid in pids]]

    return teacher


@dataclass
class AdamState:
    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    scratch: dict[str, tuple[np.ndarray, np.ndarray]]  # two work arrays per tensor

    @classmethod
    def init(cls, params: Params) -> "AdamState":
        tensors = params.tensors()
        return cls(
            t=0,
            m={k: np.zeros_like(p) for k, p in tensors.items()},
            v={k: np.zeros_like(p) for k, p in tensors.items()},
            scratch={k: (np.empty_like(p), np.empty_like(p)) for k, p in tensors.items()},
        )


def adam_step(
    params: Params,
    grads: Params,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[Params, AdamState]:
    """Standard bias-corrected Adam update, applied in place.

    Runs the operations of `m_hat = m / (1 - beta1**t)`, `v_hat = v / (1 -
    beta2**t)`, `p -= lr * m_hat / (sqrt(v_hat) + eps)` in that order, in the
    state's work arrays, so it allocates no temporaries and gives the bits of
    that formula.
    """
    state.t += 1
    correct1 = 1.0 - beta1**state.t
    correct2 = 1.0 - beta2**state.t
    grad_tensors = grads.tensors()
    for name, p in params.tensors().items():
        g = grad_tensors[name]
        m, v = state.m[name], state.v[name]
        step, denom = state.scratch[name]
        m *= beta1
        np.multiply(1.0 - beta1, g, out=step)
        m += step
        v *= beta2
        np.multiply(1.0 - beta2, g, out=step)
        step *= g
        v += step
        np.divide(m, correct1, out=step)
        step *= lr
        np.divide(v, correct2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p -= step
    return params, state


@dataclass
class StepRecord:
    epoch: int
    qid: str
    loss: float
    cl: float
    ll: float


@dataclass
class TrainLog:
    stage: str
    epoch_mean_loss: list[float] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)
    optimizer_steps: int = 0
    skipped_queries: int = 0


def _zero_grads(grads: Params) -> None:
    for t in grads.tensors().values():
        t[:] = 0.0


def _needs_teacher(strategy: str) -> bool:
    return strategy != "none"


@dataclass
class StepResult:
    losses: list[float]  # per set: the set loss plus its FLOPS term
    traces: list | None  # lexical: the trace of every row of the batch


def batch_step(
    params: Params,
    batch: TokenBatch,
    set_sizes: list[int],
    loss_fn,
    flops_weight: float = 0.0,
    grads: Params | None = None,
) -> StepResult:
    """Forward, loss and backward of one optimizer batch at fixed parameters.

    `batch` holds the candidate sets back to back, `set_sizes` rows each: a
    query row followed by its candidates' rows. `loss_fn(k, scores)` returns
    (loss, d loss / d scores) for set k, the scores being query . candidate
    relevances. Lexical sets also pay the FLOPS penalty over the query and
    candidate vectors. With `grads` the exact parameter gradients of every
    set's loss accumulate into it, bit for bit as encoding and
    backpropagating one input at a time, set after set, would accumulate
    them.
    """
    if isinstance(params, LexicalParams):
        return _lexical_step(params, batch, set_sizes, loss_fn, flops_weight, grads)
    return _dense_step(params, batch, set_sizes, loss_fn, grads)


def _dense_step(params: DenseParams, batch, set_sizes, loss_fn, grads) -> StepResult:
    out, pooled = dense_encode_batch(params, batch)
    upstream = np.zeros_like(out)
    losses = []
    start = 0
    for k, size in enumerate(set_sizes):
        end = start + size
        q, cands = out[start], out[start + 1 : end]
        loss, g = loss_fn(k, cands @ q)
        losses.append(loss)
        if grads is not None:
            upstream[start] = g @ cands
            upstream[start + 1 : end] = g[:, None] * q
        start = end
    if grads is not None:
        dense_backward_batch(params, batch, pooled, upstream, grads)
    return StepResult(losses=losses, traces=None)


def _lexical_step(params: LexicalParams, batch, set_sizes, loss_fn, flops_weight, grads) -> StepResult:
    # One GEMM per distinct input, then each candidate set as slices of the
    # batch's traces joined back to back, with every gradient addition in the
    # per-input order. A repeated row would trace to the same bits at fixed
    # parameters, so it shares the first trace.
    losses = []
    distinct: dict[bytes, LexicalTrace] = {}
    all_traces = []
    for ids in batch.row_ids:
        key = ids.tobytes()
        trace = distinct.get(key)
        if trace is None:
            trace = distinct[key] = lexical_trace(ids, params)
        all_traces.append(trace)
    if grads is not None:
        routes = LexicalRoutes(params, grads)
        joined = LexicalTrace.join(all_traces)
        lens = [len(tr.active_terms) for tr in all_traces]
        at = [0, *accumulate(lens)]  # each row's first entry in `joined`
    end = 0
    for k, size in enumerate(set_sizes):
        start, end = end, end + size
        traces = all_traces[start:end]
        q_trace, cands = traces[0], traces[1:]
        q_dense = np.zeros(params.vocab_size)
        q_dense[q_trace.active_terms] = q_trace.weights
        # An empty candidate scores the empty dot product, 0.0.
        scores = np.array([q_dense.take(tr.active_terms) @ tr.weights for tr in cands])
        loss, g = loss_fn(k, scores)
        if flops_weight > 0.0:
            flops = flops_penalty(
                [tr.active_terms for tr in traces], [tr.weights for tr in traces], flops_weight
            )
            loss += flops.loss
        losses.append(loss)
        if grads is None:
            continue
        # A term occurs once per row and bincount adds in input order from
        # +0.0, so the query's upstream gets the bits of a per-candidate
        # loop. A candidate with g = 0 adds only +-0.0, and flush drops its
        # zero entries.
        cand = joined[at[start + 1] : at[end]]
        g_rep = np.repeat(g, lens[start + 1 : end])
        upstream = np.bincount(
            cand.active_terms, weights=g_rep * cand.weights, minlength=params.vocab_size
        )
        routes.add(q_trace, upstream.take(q_trace.active_terms))
        routes.add(cand, q_dense.take(cand.active_terms) * g_rep)
        if flops_weight > 0.0:
            routes.add(joined[at[start] : at[end]], flops.grad)
    if grads is not None:
        routes.flush()
    return StepResult(losses=losses, traces=all_traces)


def train_stage(
    config: TrainConfig,
    vocab: Vocabulary,
    corpus: Corpus,
    queries: QuerySet,
    qrels: Qrels,
    pool: NegativePool,
    init_params: Params,
    teacher=None,
    doc_tvs: dict[str, TermVector] | None = None,
) -> tuple[Params, TrainLog]:
    """Run one training stage and return the updated parameters and its log.

    `teacher` is a callable ``(qid, pids, student_scores) -> scores`` aligned
    with the candidate pid order; it is required by every strategy except
    "none". Per step the loss is contrastive plus, when a teaching strategy is
    active, `reg_weight` times the strategy loss (the filter strategy instead
    drops teacher-flagged false negatives before the contrastive loss).
    Parameters change only between optimizer batches, so each batch runs as
    one `batch_step`.
    """
    if _needs_teacher(config.strategy) and teacher is None:
        raise ValueError(f"strategy {config.strategy!r} requires a teacher")
    params = init_params.copy()
    grads = params.zeros_like()
    state = AdamState.init(params)
    if doc_tvs is None:
        doc_tvs = {}
    train_log = TrainLog(stage=config.stage)
    doc_rows: dict[str, TokenRow] = {}

    def row_of(pid: str) -> TokenRow:
        if pid not in doc_rows:
            if pid not in doc_tvs:
                doc_tvs[pid] = vectorize(corpus.docs[pid], vocab)
            doc_rows[pid] = token_row(doc_tvs[pid])
        return doc_rows[pid]

    query_rows = {qid: token_row(vectorize(text, vocab)) for qid, text in queries.queries.items()}
    merged: dict[str, list[str]] = {}
    for qid in queries.queries:
        if not qrels.positives(qid) or not pool.merged(qid):
            train_log.skipped_queries += 1
            continue
        merged[qid] = pool.merged(qid)
    if train_log.skipped_queries:
        log.warning(
            "stage %s: skipping %d queries without positives or pooled negatives",
            config.stage,
            train_log.skipped_queries,
        )

    for epoch in range(config.epochs):
        order = list(merged)
        random.Random(f"{config.seed}|{config.stage}|order|{epoch}").shuffle(order)
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            chunk = order[start : start + config.batch_size]
            cand_pids = [[min(qrels.positives(qid)), *merged[qid][: config.m]] for qid in chunk]
            parts = []

            def loss_fn(k: int, scores: np.ndarray):
                qid, pids = chunk[k], cand_pids[k]
                t_scores = (
                    np.asarray(teacher(qid, pids, scores.copy()), dtype=np.float64)
                    if _needs_teacher(config.strategy)
                    else None
                )
                cands = CandidateSet(
                    qid=qid,
                    pos_pid=pids[0],
                    neg_pids=pids[1:],
                    scores=scores,
                    teacher_scores=t_scores,
                )
                total, cl_val, ll_val = strategy_loss(
                    config.strategy, cands, config.reg_weight,
                    config.filter_threshold, config.kl_temperature,
                )
                if not np.isfinite(total.loss):
                    raise RuntimeError(
                        f"non-finite loss at stage {config.stage!r} epoch {epoch} query {qid!r}"
                    )
                parts.append((cl_val, ll_val))
                return total.loss, total.grad

            batch = TokenBatch([
                row
                for qid, pids in zip(chunk, cand_pids)
                for row in (query_rows[qid], *(row_of(pid) for pid in pids))
            ])
            sizes = [1 + len(pids) for pids in cand_pids]
            step = batch_step(params, batch, sizes, loss_fn, config.flops_weight, grads)
            for qid, loss, (cl_val, ll_val) in zip(chunk, step.losses, parts):
                train_log.steps.append(
                    StepRecord(epoch=epoch, qid=qid, loss=float(loss), cl=cl_val, ll=ll_val)
                )
                epoch_losses.append(loss)
            _apply_batch(params, grads, state, config, len(chunk))
            train_log.optimizer_steps += 1
        train_log.epoch_mean_loss.append(
            float(np.mean(epoch_losses)) if epoch_losses else 0.0
        )
    return params, train_log


def _apply_batch(params, grads, state, config: TrainConfig, batch_count: int) -> None:
    for t in grads.tensors().values():
        t /= batch_count
    adam_step(params, grads, state, config.lr)
    _zero_grads(grads)


@dataclass
class PipelineConfig:
    """Flat configuration for the whole pipeline; every field is a config key.

    File format is ``key = value`` lines ('#' starts a comment); CLI flags
    override file values, and the LED_SEED environment variable overrides the
    seed from either source.
    """

    collection: str = ""
    train_queries: str = ""
    train_qrels: str = ""
    eval_queries: str = ""
    eval_qrels: str = ""
    seed: int = 7
    dim: int = 16
    lr: float = 1e-2
    lex_warmup_lr: float = 0.0    # per-stage overrides; 0 -> lr
    lex_continue_lr: float = 0.0
    den_warmup_lr: float = 0.0
    led_lr: float = 0.0
    batch_size: int = 8
    epochs: int = 3
    lex_epochs: int = 0           # 0 -> same as epochs
    den_epochs: int = 0
    led_epochs: int = 0
    warmup_m: int = 5             # negatives per query, warm-up and continue
    m: int = 32                   # negatives per query in the final stage
    depth: int = 200
    mix_depth: int = 0            # mining depth feeding the mixture; 0 -> depth
    reg_weight: float = 1.2
    flops_weight: float = 0.0
    strategy: str = "rank-consistent"
    filter_threshold: float = 0.95
    kl_temperature: float = 1.0
    min_df: int = 1
    max_vocab: int = 0            # 0 -> unlimited
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    run_depth: int = 1000
    teacher_scores_file: str = ""

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"config key {f.name!r} must be finite, got {getattr(self, f.name)!r}")
        for key in (
            "dim", "depth", "m", "warmup_m", "batch_size", "epochs", "run_depth", "lr",
            "kl_temperature", "min_df",
        ):
            if not getattr(self, key) > 0:
                raise ValueError(f"config key {key!r} must be > 0, got {getattr(self, key)!r}")
        for key in (
            *(key for stage in STAGES.values() for key in (stage.lr_key, stage.epochs_key)),
            "mix_depth", "reg_weight", "flops_weight", "filter_threshold", "max_vocab", "bm25_k1",
        ):
            if not getattr(self, key) >= 0:
                raise ValueError(f"config key {key!r} must be >= 0, got {getattr(self, key)!r}")
        if not 0 <= self.bm25_b <= 1:
            raise ValueError(f"config key 'bm25_b' must be in [0, 1], got {self.bm25_b!r}")
        if self.depth < self.warmup_m:
            raise ValueError(
                f"config key 'depth' must be >= warmup_m ({self.warmup_m}), got {self.depth}"
            )


def parse_config_file(path: str | Path) -> dict[str, str]:
    """`key = value` lines; `#` starts a comment. A key may appear once."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            key = key.strip()
            if not eq or not key:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            if key in out:
                raise FormatError(f"{path}:{lineno}: config key {key!r} given twice")
            out[key] = value.strip()
    return out


def config_from_mapping(mapping: dict[str, str]) -> PipelineConfig:
    """Build a PipelineConfig, rejecting unknown keys and coercing types."""
    by_name = {f.name: f for f in fields(PipelineConfig)}
    kwargs = {}
    for key, raw in mapping.items():
        if key not in by_name:
            raise ValueError(f"unknown config key {key!r}")
        ftype = by_name[key].type
        if ftype == "int":
            kwargs[key] = int(raw)
        elif ftype == "float":
            kwargs[key] = float(raw)
        else:
            kwargs[key] = raw
    return PipelineConfig(**kwargs)


INPUT_FILE_KEYS = (
    "collection", "train_queries", "train_qrels", "eval_queries", "eval_qrels",
    "teacher_scores_file",
)


def config_digest(cfg: PipelineConfig) -> str:
    """sha256 over every config key. A non-empty input file key counts by the
    sha256 of its file's bytes, not its path, so the same data read from
    another directory gives the same digest."""

    def value(name: str):
        v = getattr(cfg, name)
        if name not in INPUT_FILE_KEYS or not v:
            return v
        try:
            return hashlib.sha256(Path(v).read_bytes()).hexdigest()
        except OSError as exc:
            raise ValueError(f"config key {name!r}: cannot read {v}: {exc.strerror}") from None

    canonical = "".join(
        f"{f.name}={value(f.name)!r}\n" for f in sorted(fields(cfg), key=lambda f: f.name)
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def require_config_keys(cfg: PipelineConfig, keys: tuple[str, ...]) -> None:
    for key in keys:
        if not getattr(cfg, key):
            raise ValueError(f"missing config key {key!r}")


class Stage(NamedTuple):
    """One training stage's recipe: its `TrainConfig.stage` phase, which
    seeds the shuffle and goes into the checkpoint header, and the config
    keys of its lr, epochs and negatives per query."""

    phase: str
    lr_key: str
    epochs_key: str
    m_key: str


# The pipeline's stages, the lexical teacher's then the dense student's;
# den2 and led_noreg, the ablation heads of the acceptance suite, train with
# the led row.
STAGES = {
    "lex1": Stage("warmup", "lex_warmup_lr", "lex_epochs", "warmup_m"),
    "lex2": Stage("continue", "lex_continue_lr", "lex_epochs", "warmup_m"),
    "den1": Stage("warmup", "den_warmup_lr", "den_epochs", "warmup_m"),
    "led": Stage("led", "led_lr", "led_epochs", "m"),
}


def stage_config(cfg: PipelineConfig, stage: Stage, strategy: str) -> TrainConfig:
    """The `TrainConfig` of one stage; a zero lr or epochs key falls back to
    `lr` or `epochs`."""
    return TrainConfig(
        seed=cfg.seed,
        dim=cfg.dim,
        lr=getattr(cfg, stage.lr_key) or cfg.lr,
        batch_size=cfg.batch_size,
        m=getattr(cfg, stage.m_key),
        reg_weight=cfg.reg_weight,
        flops_weight=cfg.flops_weight,
        epochs=getattr(cfg, stage.epochs_key) or cfg.epochs,
        stage=stage.phase,
        strategy=strategy,
        filter_threshold=cfg.filter_threshold,
        kl_temperature=cfg.kl_temperature,
    )


@dataclass
class PipelineResult:
    vocab: Vocabulary
    corpus: Corpus
    queries: QuerySet
    qrels: Qrels
    checkpoints: dict[str, Params]
    metas: dict[str, CheckpointMeta]
    pools: dict[str, NegativePool]
    logs: dict[str, TrainLog]
    runs: dict[str, object]
    reports: dict[str, object]
    digest: str


def run_pipeline(cfg: PipelineConfig, out_dir: str | Path | None = None) -> PipelineResult:
    """Run warm-up, continue, and final training, then optionally evaluate.

    Produces the four staged checkpoints of `STAGES` (lex1, lex2, den1,
    led). Every mining pass is tagged by its source model and checked
    against the qrels exclusion rule.
    """
    from .data import load_collection, load_qrels, load_queries

    require_config_keys(cfg, ("collection", "train_queries", "train_qrels"))
    digest = config_digest(cfg)
    corpus = load_collection(cfg.collection)
    queries = load_queries(cfg.train_queries)
    qrels = load_qrels(cfg.train_qrels)
    vocab = build_vocab_for(corpus, cfg.min_df, cfg.max_vocab)
    doc_tvs = vectorize_corpus(corpus, vocab)

    mix_depth = cfg.mix_depth or cfg.depth
    pools: dict[str, NegativePool] = {}
    logs: dict[str, TrainLog] = {}
    checkpoints: dict[str, Params] = {}
    indexes: dict[str, object] = {}

    def train(name: str, pool: NegativePool, init: Params, strategy: str = "none", teacher=None):
        checkpoints[name], logs[name] = train_stage(
            stage_config(cfg, STAGES[name], strategy),
            vocab, corpus, queries, qrels, pool, init, teacher, doc_tvs,
        )
        return checkpoints[name]

    # Warm-up: both retrievers on BM25 negatives.
    bm25 = Retriever(None, build_index(doc_tvs), vocab, cfg.bm25_k1, cfg.bm25_b)
    pools["bm25"] = mine_negatives(
        bm25, queries, qrels, cfg.depth, cfg.warmup_m, cfg.seed, source="bm25"
    )
    lex1 = train("lex1", pools["bm25"], LexicalParams.init(vocab.size, cfg.dim, cfg.seed))
    den1 = train("den1", pools["bm25"], DenseParams.init(vocab.size, cfg.dim, cfg.seed))

    # Continue: lexical retriever on its own warm-up negatives.
    indexes["lex1"] = retrieval.encode_corpus(lex1, corpus, vocab, doc_tvs)
    pools["lex1"] = mine_negatives(
        Retriever(lex1, indexes["lex1"], vocab), queries, qrels,
        cfg.depth, cfg.warmup_m, cfg.seed, source="lex1",
    )
    lex2 = train("lex2", pools["lex1"], lex1)

    # Final stage: mixture of full-depth negatives from lex1, lex2, den1.
    indexes["lex2"] = retrieval.encode_corpus(lex2, corpus, vocab, doc_tvs)
    indexes["den1"] = retrieval.encode_corpus(den1, corpus, vocab, doc_tvs)
    for name in ("lex1", "lex2", "den1"):
        pools[f"{name}_top"] = mine_negatives(
            Retriever(checkpoints[name], indexes[name], vocab), queries, qrels,
            mix_depth, mix_depth, cfg.seed, source=name, sample=False,
        )
    pools["mix"] = mix_pools(
        pools["lex1_top"], pools["lex2_top"], pools["den1_top"], cfg.m, cfg.seed
    )

    teacher = None
    if _needs_teacher(cfg.strategy):
        if cfg.teacher_scores_file:
            teacher = table_teacher(load_teacher_scores(cfg.teacher_scores_file))
        else:
            teacher = model_teacher(lex2, indexes["lex2"], vocab, queries)
    led = train("led", pools["mix"], den1, cfg.strategy, teacher)
    del teacher  # its caches are not needed by evaluation

    metas = {
        name: CheckpointMeta(
            kind=params.kind,
            vocab_size=vocab.size,
            dim=cfg.dim,
            stage=STAGES[name].phase,
            step=logs[name].optimizer_steps,
            seed=cfg.seed,
            config_digest=digest,
        )
        for name, params in checkpoints.items()
    }

    runs: dict[str, object] = {}
    reports: dict[str, object] = {}
    if cfg.eval_queries and cfg.eval_qrels:
        eval_queries = load_queries(cfg.eval_queries)
        eval_qrels = load_qrels(cfg.eval_qrels)
        k = min(cfg.run_depth, corpus.n_docs)
        indexes["led"] = retrieval.encode_corpus(led, corpus, vocab, doc_tvs)
        for name in STAGES:
            runs[name] = retrieval.make_run(
                checkpoints[name], eval_queries, indexes[name], vocab, k=k, tag=name
            )
            reports[name] = retrieval.evaluate(runs[name], eval_qrels)

    result = PipelineResult(
        vocab=vocab,
        corpus=corpus,
        queries=queries,
        qrels=qrels,
        checkpoints=checkpoints,
        metas=metas,
        pools=pools,
        logs=logs,
        runs=runs,
        reports=reports,
        digest=digest,
    )
    if out_dir is not None:
        write_pipeline_artifacts(result, cfg, Path(out_dir))
    return result


def write_pipeline_artifacts(result: PipelineResult, cfg: PipelineConfig, out_dir: Path) -> None:
    """Write checkpoints, pools, runs, reports, and a digest manifest."""
    from .encoders import save_params

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "checkpoints").mkdir(exist_ok=True)
    (out_dir / "pools").mkdir(exist_ok=True)
    written: list[Path] = []
    for name, params in result.checkpoints.items():
        path = out_dir / "checkpoints" / f"{name}.ckpt"
        save_params(params, result.metas[name], path)
        written.append(path)
    for name, pool in result.pools.items():
        path = out_dir / "pools" / f"{name}.tsv"
        save_pool(pool, path)
        written.append(path)
    if result.runs:
        (out_dir / "runs").mkdir(exist_ok=True)
        (out_dir / "reports").mkdir(exist_ok=True)
        for name, run in result.runs.items():
            path = out_dir / "runs" / f"{name}.trec"
            retrieval.save_run(run, path)
            written.append(path)
            path = out_dir / "reports" / f"{name}.tsv"
            path.write_text(retrieval.format_report(result.reports[name], per_query=True))
            written.append(path)
    manifest = {
        "config_digest": result.digest,
        "files": {
            str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(written)
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

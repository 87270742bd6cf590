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
    Corpus,
    FormatError,
    Qrels,
    QuerySet,
    TermVector,
    Vocabulary,
    build_vocab,
    check_id,
    load_collection,
    load_qrels,
    load_queries,
    open_text,
    vectorize,
    vectorize_corpus,
)
from .encoders import (
    PARAMS_BY_KIND,
    CheckpointMeta,
    DenseParams,
    LexicalParams,
    LexicalRoutes,
    LexicalTrace,
    Params,
    TokenBatch,
    dense_backward_batch,
    dense_encode_batch,
    lexical_trace,
    save_params,
)
from .objectives import (
    PAIR_STRATEGIES,
    STRATEGIES,
    RankPairSet,
    batch_loss,
    flops_penalty,
    make_rank_pairs,
)
from . import retrieval
from .retrieval import Retriever
from .sparse_index import Ranking, build_index, sparse_scores
from .workers import fork_map

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
        _check_ranges(self)


# The numeric config keys that must be > 0, in either config; `bm25_b` lies
# in [0, 1] and every other numeric key must be >= 0.
_POSITIVE_KEYS = frozenset({
    "dim", "lr", "batch_size", "m", "epochs", "kl_temperature", "depth", "warmup_m",
    "run_depth", "min_df",
})


def _check_ranges(cfg) -> None:
    """Reject an unknown strategy, a non-finite float field and a numeric
    field outside its key's range, naming the key."""
    if cfg.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {cfg.strategy!r} (choose from {STRATEGIES})")
    numeric = [f for f in fields(cfg) if f.type in ("int", "float")]
    for f in numeric:
        if f.type == "float" and not math.isfinite(getattr(cfg, f.name)):
            raise ValueError(f"config key {f.name!r} must be finite, got {getattr(cfg, f.name)!r}")
    for f in numeric:
        value = getattr(cfg, f.name)
        if f.name == "bm25_b":
            ok, rule = 0 <= value <= 1, "in [0, 1]"
        elif f.name in _POSITIVE_KEYS:
            ok, rule = value > 0, "> 0"
        else:
            ok, rule = value >= 0, ">= 0"
        if not ok:
            raise ValueError(f"config key {f.name!r} must be {rule}, got {value!r}")


@dataclass
class NegativePool:
    """Per-query negatives grouped by the model that mined them."""

    by_query: dict[str, dict[str, list[str]]] = field(default_factory=dict)

    def add(self, qid: str, source: str, pids: list[str]) -> None:
        """Store `pids` as `source`'s list for `qid`; no source or passage of a query repeats."""
        if source not in SOURCE_TAGS:
            raise ValueError(f"unknown source tag {source!r}")
        if source in self.by_query.get(qid, {}):
            raise ValueError(f"query {qid!r}, source {source} given twice")
        listed = set(self.merged(qid))
        for pid in pids:
            if pid in listed:
                raise ValueError(f"query {qid!r}, passage {pid!r} given twice")
            listed.add(pid)
        self.by_query.setdefault(qid, {})[source] = list(pids)

    def merged(self, qid: str) -> list[str]:
        """The query's passages, source after source in insertion order."""
        return [pid for pids in self.by_query.get(qid, {}).values() for pid in pids]


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
    with open_text(path) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected '<qid>\\t<source>\\t<pid,pid,...>'")
            qid, source, pids_s = parts
            pids = pids_s.split(",") if pids_s else []
            check_id(qid, "query", f"{path}:{lineno}")
            for pid in pids:
                check_id(pid, "passage", f"{path}:{lineno}")
            try:
                pool.add(qid, source, pids)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
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


class _Searched:
    """A `mine_negatives` retriever that cuts each query's ranking from one
    search of all queries at `depth`, to any depth up to that. With exact
    top-k and its fixed tie-break, the top k of a deeper search is the top-k
    search itself."""

    def __init__(self, retriever: Retriever, queries: QuerySet, depth: int):
        self.rankings = retriever.search_all(queries.queries, depth)

    def search(self, text: str, k: int, qid: str = "") -> Ranking:
        ranking = self.rankings[qid]
        return Ranking(qid, ranking.ids[:k], ranking.scores[:k])


def mix_pools(*pools: NegativePool, m_total: int = 32, seed: int = 0, salt: str = "mix") -> NegativePool:
    """Per query: a uniform sample of m_total from the union of the pools.

    The union takes every pool's `(source, pids)` lists in order, and each
    pid stays under the first source that lists it. The sample, drawn from
    `random.Random(f"{seed}|{salt}|{qid}")`, is grouped by source in
    first-listed order, each group in sample order, and empty groups are
    left out. The pipeline mixes its `*_top` pools under salt "mix" and
    subsamples den1's alone under salt "self"; each keeps its own tags.
    """
    if any(pool.by_query.keys() != pools[0].by_query.keys() for pool in pools):
        raise ValueError("pools to mix must cover the same query set")
    mixed = NegativePool()
    for qid in pools[0].by_query:
        origin: dict[str, str] = {}  # the union in order, each pid's first source
        for pool in pools:
            for source, pids in pool.by_query[qid].items():
                for pid in pids:
                    origin.setdefault(pid, source)
        union = list(origin)
        rng = random.Random(f"{seed}|{salt}|{qid}")
        chosen = rng.sample(union, m_total) if len(union) > m_total else union
        for source in {source: None for pool in pools for source in pool.by_query[qid]}:
            group = [pid for pid in chosen if origin[pid] == source]
            if group:
                mixed.add(qid, source, group)
    return mixed


def load_teacher_scores(path: str | Path) -> dict[tuple[str, str], float]:
    scores: dict[tuple[str, str], float] = {}
    with open_text(path) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected '<qid>\\t<pid>\\t<score>'")
            qid, pid, score_s = parts
            check_id(qid, "query", f"{path}:{lineno}")
            check_id(pid, "passage", f"{path}:{lineno}")
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

    def teacher(qid: str, pids: list[str]) -> np.ndarray:
        try:
            return np.array([scores[(qid, pid)] for pid in pids])
        except KeyError as exc:
            raise ValueError(f"teacher table missing score for query {qid!r}: {exc}") from None

    return teacher


def model_teacher(retriever: Retriever, queries: QuerySet):
    """Teacher callable scoring candidates with a frozen lexical model.

    `retriever` pairs the model with its learned-weight index, which
    `encode_corpus` built, so no passage is encoded again. Every query of
    `queries` is encoded here, once, by `retriever.encode`, the query path
    of search, and each call scores its query's vector against the whole
    index by `sparse_scores`, the dot product of the two encodings.
    """
    if retriever.kind != "lexical":
        raise TypeError(
            f"the teacher is a lexical model over its learned-weight index, got a {retriever.kind} retriever"
        )
    index = retriever.index
    row_of = {pid: row for row, pid in enumerate(index.pids)}
    q_vecs = dict(zip(queries.queries, retriever.encode(queries.queries.values())))

    def teacher(qid: str, pids: list[str]) -> np.ndarray:
        return sparse_scores(q_vecs[qid], index)[[row_of[pid] for pid in pids]]

    return teacher


@dataclass
class AdamState:
    t: int
    m: np.ndarray  # m and v align with `params.flat`
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]  # two work arrays

    @classmethod
    def init(cls, params: Params) -> "AdamState":
        n = params.flat.size
        return cls(t=0, m=np.zeros(n), v=np.zeros(n), scratch=(np.empty(n), np.empty(n)))


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
    beta2**t)`, `p -= lr * m_hat / (sqrt(v_hat) + eps)` in that order over
    the whole flat buffer, in the state's work arrays, so it allocates no
    temporaries and, every operation being elementwise, gives each element
    the bits of that formula.
    """
    state.t += 1
    correct1 = 1.0 - beta1**state.t
    correct2 = 1.0 - beta2**state.t
    g, m, v = grads.flat, state.m, state.v
    step, denom = state.scratch
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
    params.flat -= step
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
    epoch_mean_loss: list[float] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)
    optimizer_steps: int = 0
    skipped_queries: int = 0


def _needs_teacher(strategy: str) -> bool:
    return strategy != "none"


@dataclass
class StepResult:
    losses: list[float]  # per set: the set loss plus its FLOPS term
    traces: list | None  # lexical: the trace of each row of each set, in order


def batch_step(
    params: Params,
    table: TokenBatch,
    sets: list[list[int]],
    loss_fn,
    flops_weight: float = 0.0,
    grads: Params | None = None,
) -> StepResult:
    """Forward, loss and backward of one optimizer batch at fixed parameters.

    `sets` lists each candidate set's rows of `table`: a query row followed
    by its candidates' rows. A row that occurs more than once encodes once,
    as it gets the same bits wherever it occurs. The step scores every set
    first, a score being a query . candidate relevance, and then calls
    `loss_fn(scores)` once, with the list of every set's score vector; it
    returns each set's loss and d loss / d scores. Lexical sets also pay the
    FLOPS penalty over the query and candidate vectors, all sets in one
    `flops_penalty` call. With `grads` the exact parameter gradients of
    every set's loss accumulate into it, bit for bit as encoding and
    backpropagating one input at a time, set after set, would accumulate
    them.
    """
    starts = [0, *accumulate(map(len, sets))]
    spans = list(zip(starts, starts[1:]))  # each set's occurrences, its query's first
    index: dict[int, int] = {}  # row -> its place in `distinct`, by first occurrence
    occ = [index.setdefault(row, len(index)) for rows in sets for row in rows]  # per occurrence
    distinct = list(index)
    if isinstance(params, LexicalParams):
        return _lexical_step(params, table, spans, distinct, occ, loss_fn, flops_weight, grads)
    return _dense_step(params, table, spans, distinct, occ, loss_fn, grads)


def _dense_step(params: DenseParams, table, spans, distinct, occ, loss_fn, grads) -> StepResult:
    # All rows in order, each once (occ == distinct), are the table, its `groups` kept cached.
    batch = table if occ == distinct and len(occ) == len(table) else table.take(distinct)
    out, pooled = dense_encode_batch(params, batch)
    if len(occ) > len(distinct):  # a row occurs again: one output and pooled row per occurrence
        batch, out, pooled = batch.take(occ), out[occ], pooled[occ]
    losses, g = loss_fn([out[a + 1 : b] @ out[a] for a, b in spans])
    if grads is not None:
        upstream = np.zeros_like(out)
        for (a, b), g_k in zip(spans, g):
            upstream[a] = g_k @ out[a + 1 : b]
            upstream[a + 1 : b] = g_k[:, None] * out[a]
        dense_backward_batch(params, batch, pooled, upstream, grads)
    return StepResult(losses=list(map(float, losses)), traces=None)


def _lexical_step(
    params: LexicalParams, table, spans, distinct, occ, loss_fn, flops_weight, grads
) -> StepResult:
    # One GEMM per distinct row, then each candidate set as slices of the
    # occurrences' traces joined back to back, with every gradient addition
    # in the per-input order.
    slices = zip(table.starts[distinct].tolist(), table.lens[distinct].tolist())
    traced = [lexical_trace(table.ids[a : a + n], params) for a, n in slices]
    all_traces = [traced[i] for i in occ]
    q_denses, scores = [], []
    for a, b in spans:
        q_dense = np.zeros(params.vocab_size)
        q_dense[all_traces[a].active_terms] = all_traces[a].weights
        q_denses.append(q_dense)
        # An empty candidate scores the empty dot product, 0.0.
        cands = all_traces[a + 1 : b]
        scores.append(np.array([q_dense.take(tr.active_terms) @ tr.weights for tr in cands]))
    losses, g = loss_fn(scores)
    if flops_weight > 0.0:
        flops = flops_penalty(
            [tr.active_terms for tr in all_traces], [tr.weights for tr in all_traces],
            flops_weight, [b - a for a, b in spans],
        )
        losses = np.add(losses, flops.loss)
    if grads is not None:
        routes = LexicalRoutes(params, grads)
        joined = LexicalTrace.join(all_traces)
        lens = [len(tr.active_terms) for tr in all_traces]
        at = [0, *accumulate(lens)]  # each row's first entry in `joined`
        for k, (a, b) in enumerate(spans):
            # A term occurs once per row and bincount adds in input order
            # from +0.0, so the query's upstream gets the bits of a
            # per-candidate loop. A candidate with g = 0 adds only +-0.0,
            # and flush drops its zero entries.
            q_trace, cand = all_traces[a], joined[at[a + 1] : at[b]]
            g_rep = np.repeat(g[k], lens[a + 1 : b])
            upstream = np.bincount(
                cand.active_terms, weights=g_rep * cand.weights, minlength=params.vocab_size
            )
            routes.add(q_trace, upstream.take(q_trace.active_terms))
            routes.add(cand, q_denses[k].take(cand.active_terms) * g_rep)
            if flops_weight > 0.0:
                routes.add(joined[at[a] : at[b]], flops.grad[at[a] : at[b]])
        routes.flush()
    return StepResult(losses=list(map(float, losses)), traces=all_traces)


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

    `teacher` is a callable ``(qid, pids) -> scores`` aligned
    with the candidate pid order; it is required by every strategy except
    "none", and it scores each trained query's candidates once, before the
    first optimizer step. Per step the loss is contrastive plus, when a
    teaching strategy is active, `reg_weight` times the strategy loss (the
    filter strategy instead drops teacher-flagged false negatives before the
    contrastive loss). A pool that lists any qrels positive of its query is
    rejected up front. `doc_tvs`, every passage's `vectorize_corpus` vectors
    (computed here if None or empty), is only read. Parameters change only between
    optimizer batches, so each batch runs as one `batch_step` over its sets'
    rows of the stage's token table, with one `batch_loss` call.
    """
    validate_pool(pool, qrels)
    needs_teacher = _needs_teacher(config.strategy)
    needs_pairs = config.strategy in PAIR_STRATEGIES
    if needs_teacher and teacher is None:
        raise ValueError(f"strategy {config.strategy!r} requires a teacher")
    params = init_params.copy()
    grads = params.zeros_like()
    state = AdamState.init(params)
    doc_tvs = doc_tvs or vectorize_corpus(corpus, vocab)
    train_log = TrainLog()

    # Per trained query, built once per stage as none of it changes between
    # epochs: its candidate set's rows in the stage's token table (its own
    # row, then the positive's and the negatives', a passage's row shared by
    # every set and, for the lexical encoder, by every input with its term
    # ids), the teacher's scores and their rank pairs.
    tvs: list[TermVector] = []
    row_of: dict[str, int] = {}
    set_rows: dict[str, list[int]] = {}
    teacher_of: dict[str, np.ndarray] = {}
    pairs_of: dict[str, RankPairSet] = {}
    for qid, text in queries.queries.items():
        pids = pool.merged(qid)
        if not qrels.positives(qid) or not pids:
            train_log.skipped_queries += 1
            continue
        cand_pids = [min(qrels.positives(qid)), *pids[: config.m]]
        set_rows[qid] = [len(tvs)]
        tvs.append(vectorize(text, vocab))
        for pid in cand_pids:
            if pid not in row_of:
                row_of[pid] = len(tvs)
                tvs.append(doc_tvs[pid])
            set_rows[qid].append(row_of[pid])
        if needs_teacher:
            t = np.asarray(teacher(qid, cand_pids), dtype=np.float64)
            if t.shape != (len(cand_pids),):
                raise ValueError(f"teacher scores for query {qid!r} do not align with candidates")
            teacher_of[qid] = t
            if needs_pairs:
                pairs_of[qid] = make_rank_pairs(t)
    if train_log.skipped_queries:
        log.warning(
            "stage %s: skipping %d queries without positives or pooled negatives",
            config.stage,
            train_log.skipped_queries,
        )
    table, shared = TokenBatch.for_encoder(tvs, params.kind)
    set_rows = {qid: [shared[row] for row in rows] for qid, rows in set_rows.items()}

    for epoch in range(config.epochs):
        order = list(set_rows)
        random.Random(f"{config.seed}|{config.stage}|order|{epoch}").shuffle(order)
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            chunk = order[start : start + config.batch_size]
            parts = []

            def loss_fn(scores: list[np.ndarray]):
                losses, g, cl, ll = batch_loss(
                    config.strategy, scores,
                    [teacher_of[qid] for qid in chunk] if needs_teacher else None,
                    [pairs_of[qid] for qid in chunk] if needs_pairs else None,
                    config.reg_weight, config.filter_threshold, config.kl_temperature,
                )
                bad = (~np.isfinite(losses)).nonzero()[0]
                if len(bad):
                    raise RuntimeError(
                        f"non-finite loss at stage {config.stage!r} epoch {epoch} "
                        f"query {chunk[bad[0]]!r}"
                    )
                parts.extend(zip(cl.tolist(), ll.tolist()))
                return losses, g

            sets = [set_rows[qid] for qid in chunk]
            step = batch_step(params, table, sets, loss_fn, config.flops_weight, grads)
            for qid, loss, (cl_val, ll_val) in zip(chunk, step.losses, parts):
                train_log.steps.append(
                    StepRecord(epoch=epoch, qid=qid, loss=loss, cl=cl_val, ll=ll_val)
                )
                epoch_losses.append(loss)
            grads.flat /= len(chunk)
            adam_step(params, grads, state, config.lr)
            grads.flat[:] = 0.0
            train_log.optimizer_steps += 1
        train_log.epoch_mean_loss.append(
            float(np.mean(epoch_losses)) if epoch_losses else 0.0
        )
    return params, train_log


@dataclass
class PipelineConfig:
    """Flat configuration for the whole pipeline; every field is a config key.

    File format is ``key = value`` lines ('#' starts a comment); CLI flags
    override file values, and for a command that reads the seed the LED_SEED
    environment variable overrides the file's seed but not the flag.
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
        _check_ranges(self)
        if self.depth < self.warmup_m:
            raise ValueError(
                f"config key 'depth' must be >= warmup_m ({self.warmup_m}), got {self.depth}"
            )


def parse_config_file(path: str | Path) -> dict[str, str]:
    """`key = value` lines; `#` starts a comment. A key may appear once."""
    out: dict[str, str] = {}
    with open_text(path) as f:
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
        try:
            if ftype == "int":
                kwargs[key] = int(raw)
            elif ftype == "float":
                kwargs[key] = float(raw)
            else:
                kwargs[key] = raw
        except ValueError:
            kind = "an integer" if ftype == "int" else "a number"
            raise ValueError(f"config key {key!r} must be {kind}, got {raw!r}") from None
    return PipelineConfig(**kwargs)


INPUT_FILE_KEYS = (
    "collection", "train_queries", "train_qrels", "eval_queries", "eval_qrels",
    "teacher_scores_file",
)


def config_digest(cfg: PipelineConfig, keys: tuple[str, ...]) -> str:
    """sha256 over the config keys `keys`. A non-empty input file key counts
    by the sha256 of its file's bytes, not its path, so the same data read
    from another directory gives the same digest."""

    def value(name: str):
        v = getattr(cfg, name)
        if name not in INPUT_FILE_KEYS or not v:
            return v
        try:
            return hashlib.sha256(Path(v).read_bytes()).hexdigest()
        except OSError as exc:
            raise ValueError(f"config key {name!r}: cannot read {v}: {exc.strerror}") from None

    canonical = "".join(f"{name}={value(name)!r}\n" for name in sorted(keys))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def require_config_keys(cfg: PipelineConfig, keys: tuple[str, ...]) -> None:
    for key in keys:
        if not getattr(cfg, key):
            raise ValueError(f"missing config key {key!r}")


def load_train_data(cfg: PipelineConfig) -> tuple[Corpus, Vocabulary, QuerySet, Qrels]:
    """The collection, its vocabulary, and the training queries and qrels
    that `cfg` names; each of the three files is a required key."""
    require_config_keys(cfg, ("collection", "train_queries", "train_qrels"))
    corpus = load_collection(cfg.collection)
    vocab = build_vocab(corpus, cfg.min_df, cfg.max_vocab)
    return corpus, vocab, load_queries(cfg.train_queries), load_qrels(cfg.train_qrels)


class Stage(NamedTuple):
    """One training row's whole recipe: its `TrainConfig.stage` phase, which
    seeds the shuffle and goes into the checkpoint header; its lr, epochs and
    m config keys; its init, a fresh model of a kind or an earlier row's; its
    pool; and the row whose model, or the teacher table, teaches it."""

    phase: str
    lr_key: str
    epochs_key: str
    m_key: str
    init: str = ""
    pool: str = ""
    teacher: str = ""


# The pipeline's rows, then the acceptance suite's ablation heads: den2 (DEN
# Continue) trains on den1's own negatives, and led_noreg is led untaught.
STAGES = {
    "lex1": Stage("warmup", "lex_warmup_lr", "lex_epochs", "warmup_m", "lexical", "bm25"),
    "lex2": Stage("continue", "lex_continue_lr", "lex_epochs", "warmup_m", "lex1", "lex1"),
    "den1": Stage("warmup", "den_warmup_lr", "den_epochs", "warmup_m", "dense", "bm25"),
    "led": Stage("led", "led_lr", "led_epochs", "m", "den1", "mix", "lex2"),
    "den2": Stage("led", "led_lr", "led_epochs", "m", "den1", "den1_sub"),
    "led_noreg": Stage("led", "led_lr", "led_epochs", "m", "den1", "mix"),
}
# The pipeline's rows in training order; a round's rows train side by side.
ROUNDS = (("lex1", "den1"), ("lex2",), ("led",))
# The pools built from mined ones, each one `mix_pools` of its parts to `m`
# under its salt: the three `*_top` pools mixed, and den1's own subsampled.
BUILT_POOLS = {"mix": (("lex1_top", "lex2_top", "den1_top"), "mix"), "den1_sub": (("den1_top",), "self")}


def stage_config(cfg: PipelineConfig, stage: Stage, strategy: str) -> TrainConfig:
    """The `TrainConfig` of one stage: every key it shares with `cfg`, then the
    stage's lr, epochs and m keys (a zero lr or epochs key falls back to `lr`
    or `epochs`), its phase and `strategy`."""
    shared = {f.name for f in fields(PipelineConfig)}
    return TrainConfig(**{
        **{f.name: getattr(cfg, f.name) for f in fields(TrainConfig) if f.name in shared},
        "lr": getattr(cfg, stage.lr_key) or cfg.lr,
        "epochs": getattr(cfg, stage.epochs_key) or cfg.epochs,
        "m": getattr(cfg, stage.m_key),
        "stage": stage.phase,
        "strategy": strategy,
    })


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


def run_pipeline(
    cfg: PipelineConfig, out_dir: str | Path | None = None, heads: tuple[str, ...] = ()
) -> PipelineResult:
    """Train the `STAGES` rows of `ROUNDS` round by round, then the `heads`,
    rows outside `ROUNDS`, as one last round; optionally evaluate them all.

    A round's rows train side by side, one `fork_map` item each, after the
    pools and teachers they need are built here, once each. Each model gets
    one `Retriever`, on first use, that serves its mining, its teaching and
    the index of its eval run. A bad head is rejected before any input file
    is read, and every input file before any work, the teacher table
    whatever the strategy. Every mining pass is tagged by its source model
    and checked against qrels exclusion.
    """
    ablations = sorted(STAGES.keys() - {name for names in ROUNDS for name in names})
    for k, name in enumerate(heads):
        if name not in ablations:
            raise ValueError(f"head {name!r} is not one of {ablations}")
        if name in heads[:k]:
            raise ValueError(f"head {name!r} is named twice")
    if cfg.eval_queries or cfg.eval_qrels:  # evaluation needs both
        require_config_keys(cfg, ("eval_queries", "eval_qrels"))
    digest = config_digest(cfg, tuple(f.name for f in fields(cfg)))
    corpus, vocab, queries, qrels = load_train_data(cfg)
    if cfg.eval_queries:
        eval_queries, eval_qrels = load_queries(cfg.eval_queries), load_qrels(cfg.eval_qrels)
    if cfg.teacher_scores_file:
        teacher_scores = load_teacher_scores(cfg.teacher_scores_file)
    doc_tvs = vectorize_corpus(corpus, vocab)

    mix_depth = cfg.mix_depth or cfg.depth
    pools: dict[str, NegativePool] = {}
    logs: dict[str, TrainLog] = {}
    checkpoints: dict[str, Params] = {}
    metas: dict[str, CheckpointMeta] = {}
    retrievers: dict[str, Retriever] = {}
    teachers: dict[str, object] = {}

    # No nested function calls itself: that cycle would hold a pass until the cyclic GC.
    def retriever(name: str) -> Retriever:
        if name not in retrievers:
            params = checkpoints.get(name)  # bm25 has none
            index = build_index(doc_tvs) if params is None else (
                retrieval.encode_corpus(params, corpus, vocab, doc_tvs))
            retrievers[name] = Retriever(params, index, vocab, cfg.bm25_k1, cfg.bm25_b)
        return retrievers[name]

    # The mined pools the run reads: each row's pool, or those it is built from.
    read = {STAGES[name].pool for names in (*ROUNDS, heads) for name in names}
    wanted = {part for name in read for part in (BUILT_POOLS[name][0] if name in BUILT_POOLS else (name,))}

    def mine(name: str) -> NegativePool:
        # "<source>" samples warmup_m of the top depth; "<source>_top" keeps the
        # top mix_depth. One search per query serves every pool the run reads
        # from a source, and no ranking outlives the mining.
        if name not in pools:
            source = name.removesuffix("_top")
            searched = _Searched(retriever(source), queries, max(cfg.depth, mix_depth))
            for part in (source, f"{source}_top"):
                top = part != source
                depth, m = (mix_depth, mix_depth) if top else (cfg.depth, cfg.warmup_m)
                if part in wanted:
                    pools[part] = mine_negatives(
                        searched, queries, qrels, depth, m, cfg.seed, source=source, sample=not top
                    )
        return pools[name]

    def pool(name: str) -> NegativePool:
        if name in BUILT_POOLS and name not in pools:
            parts, salt = BUILT_POOLS[name]
            pools[name] = mix_pools(*map(mine, parts), m_total=cfg.m, seed=cfg.seed, salt=salt)
        return mine(name)

    def train(name: str) -> tuple[Params, TrainLog]:
        row = STAGES[name]
        fresh = PARAMS_BY_KIND.get(row.init)
        init = fresh.init(vocab.size, cfg.dim, cfg.seed) if fresh else checkpoints[row.init]
        return train_stage(
            stage_config(cfg, row, cfg.strategy if row.teacher else "none"),
            vocab, corpus, queries, qrels, pools[row.pool], init, teachers.get(name), doc_tvs,
        )

    for names in (*ROUNDS, heads):
        for name in names:
            row = STAGES[name]
            pool(row.pool)
            if row.teacher and _needs_teacher(cfg.strategy):
                teachers[name] = table_teacher(teacher_scores) if cfg.teacher_scores_file else (
                    model_teacher(retriever(row.teacher), queries)
                )
        for name, (params, tlog) in zip(names, fork_map(train, names)):
            checkpoints[name], logs[name] = params, tlog
            metas[name] = CheckpointMeta(STAGES[name].phase, tlog.optimizer_steps, cfg.seed, digest)

    runs: dict[str, object] = {}
    reports: dict[str, object] = {}
    if cfg.eval_queries:
        # Every index before the first run: one encoded between runs raised peak RSS 4 MB.
        searched = {name: retriever(name) for name in sorted(checkpoints, key=list(STAGES).index)}
        for name, model in searched.items():
            runs[name] = retrieval.make_run(
                checkpoints[name], eval_queries, model.index, vocab, k=cfg.run_depth, tag=name
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
        write_pipeline_artifacts(result, Path(out_dir))
    return result


def write_pipeline_artifacts(result: PipelineResult, out_dir: Path) -> None:
    """Write checkpoints, pools, runs, reports, and a digest manifest."""
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
            report = retrieval.format_report(result.reports[name], per_query=True)
            path.write_text(report, encoding="utf-8")
            written.append(path)
    manifest = {
        "config_digest": result.digest,
        "files": {
            str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(written)
        },
    }
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    (out_dir / "manifest.json").write_text(manifest_text, encoding="utf-8")

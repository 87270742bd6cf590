"""Corpus encoding, exact dense top-k search, TREC run files, and metrics.

Run files use the standard six-column TREC format. Metrics follow the
official evaluation conventions: binary relevance (grade >= 1) for MRR and
recall, graded linear-gain NDCG with a log2(rank+1) discount, and queries
judged in the qrels but missing from the run scoring zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    Corpus, FormatError, Qrels, QuerySet, TermVector, Vocabulary, check_id, open_text,
    vectorize, vectorize_corpus,
)
from .encoders import (
    LexicalTable,
    Params,
    TokenBatch,
    dense_encode_batch,
)
from .sparse_index import (
    InvertedIndex,
    Ranking,
    bm25_search,
    build_index,
    postings_index,
    sparse_search,
    top_k,
)
from .workers import fork_map

DEFAULT_RUN_DEPTH = 1000
# Passages per encoding block, the unit of work `encode_corpus` deals to each
# CPU. It bounds the gathered dense embeddings: on the 8000-passage
# search-large fixture, blocks of 1024 raised the peak allocation of dense
# encoding from 1.1 MB (one passage at a time) to 3.6 MB, and blocks of 256
# hold it at 1.7 MB at the same speed, in 32 blocks that two CPUs share
# evenly. A lexical block holds only its packed output: it reads the
# checkpoint's `LexicalTable` in chunks of `LexicalTable.CHUNK_CELLS`.
ENCODE_BLOCK = 256


@dataclass
class DenseIndex:
    pids: list[str]  # ascending
    matrix: np.ndarray  # n_docs x d
    kind = "dense"  # unannotated: a class attribute, not a field

    @property
    def n_docs(self) -> int:
        return len(self.pids)


@dataclass
class RunFile:
    rankings: dict[str, Ranking]
    tag: str


def encode_corpus(
    params: Params | None,
    corpus: Corpus,
    vocab: Vocabulary,
    doc_tvs: dict[str, TermVector] | None = None,
) -> DenseIndex | InvertedIndex:
    """Encode every passage with a frozen checkpoint, pid-ascending order;
    without one (`params` None) index the raw counts that BM25 searches, as
    `Retriever` and `make_run` read a `None` model.

    `doc_tvs` holds every passage's term vectors over `vocab`, as
    `vectorize_corpus` returns them; without it (None or empty) each
    passage is vectorized where it is encoded. With a model, the passages
    go in blocks of `ENCODE_BLOCK`, dealt over the usable CPUs by
    `workers.fork_map`. A dense block is one `dense_encode_batch`. A lexical
    model's `LexicalTable` is built once, before the blocks, and each block
    is one `LexicalTable.encode`, sent back as three packed arrays (each
    passage's active term count, then all their terms and all their
    weights) that `postings_index` reads. A passage gets the bits of its
    own one-row encoding in any block on any CPU, and the index kind is the
    model's, for an empty collection too.
    """
    pids = sorted(corpus.docs)
    if params is None:
        return build_index(doc_tvs or vectorize_corpus(corpus, vocab))

    if params.kind == "dense":
        encode = lambda batch: dense_encode_batch(params, batch)[0]
    else:
        encode = LexicalTable(params).encode

    def encode_block(block: list[str]):
        if doc_tvs:
            tvs = [doc_tvs[pid] for pid in block]
        else:
            tvs = [vectorize(corpus.docs[pid], vocab) for pid in block]
        return encode(TokenBatch.of(tvs))

    blocks = fork_map(encode_block, [pids[i : i + ENCODE_BLOCK] for i in range(0, len(pids), ENCODE_BLOCK)])
    # Each concatenation starts from an empty array of its dtype and shape,
    # which is the whole result for an empty collection.
    if params.kind == "dense":
        return DenseIndex(pids=pids, matrix=np.concatenate([np.empty((0, params.dim)), *blocks]))
    no_ints = np.empty(0, dtype=np.int64)
    lens, terms, weights = (np.concatenate(parts) for parts in zip((no_ints, no_ints, np.empty(0)), *blocks))
    return postings_index(pids, lens, terms, weights, "lexical")


def dense_search(query_vec: np.ndarray, index: DenseIndex, k: int, qid: str = "") -> Ranking:
    """Exact top-k by dot product with the (score desc, pid asc) tie-break."""
    return top_k(index.pids, index.matrix @ query_vec, k, qid)


class Retriever:
    """Query encoding and top-k search of query texts over one index.

    The index fixes the search when the retriever is built: a dense index is
    searched with `DenseParams`, a learned-weight index with `LexicalParams`,
    and a raw-count index by BM25 (`k1`, `b`) with no model; any other
    pairing is rejected. A lexical retriever builds its model's
    `LexicalTable` once, here, and every `encode` reads it.
    """

    def __init__(
        self,
        params: Params | None,
        index: DenseIndex | InvertedIndex,
        vocab: Vocabulary,
        k1: float = 1.2,
        b: float = 0.75,
    ):
        self.kind = index.kind
        given = "bm25" if params is None else params.kind
        if given != self.kind:
            model = {"bm25": "no model", "dense": "a dense model", "lexical": "a lexical model"}
            raise TypeError(
                f"a {self.kind} index is searched with {model[self.kind]}, got {model[given]}"
            )
        self.params = params
        self.table = LexicalTable(params) if self.kind == "lexical" else None
        self.index = index
        self.vocab = vocab
        self.k1 = k1
        self.b = b

    def search(self, text: str, k: int, qid: str = "") -> Ranking:
        return self.search_all({qid: text}, k)[qid]

    def encode(self, texts) -> np.ndarray | list:
        """The query encodings of `texts`, in order: the rows of one
        `dense_encode_batch` for a dense model, `TermWeightVector`s of one
        `LexicalTable.vectors` for a lexical one (as `encode_corpus` encodes
        passages; a query gets the same bits in any batch), and the raw
        `TermVector`s that BM25 reads without one."""
        tvs = [vectorize(text, self.vocab) for text in texts]
        if self.kind == "dense":
            return dense_encode_batch(self.params, TokenBatch.of(tvs))[0]
        if self.kind == "lexical":
            return self.table.vectors(TokenBatch.of(tvs))
        return tvs

    def search_all(self, texts: dict[str, str], k: int) -> dict[str, Ranking]:
        """Top-k of every query text, keyed and ordered like `texts`, from
        one `encode` of them all, so each ranking equals its own `search`."""
        vecs = zip(texts, self.encode(texts.values()))
        if self.kind == "bm25":
            return {qid: bm25_search(tv, self.index, k, self.k1, self.b, qid=qid) for qid, tv in vecs}
        search = dense_search if self.kind == "dense" else sparse_search
        return {qid: search(vec, self.index, k, qid=qid) for qid, vec in vecs}


def make_run(
    params: Params | None,
    queries: QuerySet,
    index: DenseIndex | InvertedIndex,
    vocab: Vocabulary,
    k: int = DEFAULT_RUN_DEPTH,
    tag: str = "run",
    bm25_k1: float = 1.2,
    bm25_b: float = 0.75,
) -> RunFile:
    """Retrieve top-k for every query with a `Retriever` over `index`."""
    rankings = Retriever(params, index, vocab, bm25_k1, bm25_b).search_all(queries.queries, k)
    return RunFile(rankings=rankings, tag=tag)


def save_run(run: RunFile, path: str | Path) -> None:
    """Six-column TREC lines, scores to six decimals, one write per query.

    Each query's lines come from one `%` formatting of the line pattern
    repeated once per passage; `%.6f` formats as `{:.6f}` does.
    """
    tail = f" {run.tag}\n".replace("%", "%%")
    with open(path, "w", encoding="utf-8") as f:
        for qid, ranking in run.rankings.items():
            n = len(ranking.ids)
            values = [None] * (3 * n)
            values[0::3] = ranking.ids
            values[1::3] = range(1, n + 1)
            values[2::3] = ranking.scores.tolist()
            line = qid.replace("%", "%%") + " Q0 %s %d %.6f" + tail
            f.write(line * n % tuple(values))


def load_run(path: str | Path) -> RunFile:
    """Rankings in file order; a pid listed twice for one query stays twice.

    A qid or pid holding "," fails with `path:line`, as `data.check_id` rules.
    """
    ids: dict[str, list[str]] = {}
    scores: dict[str, list[float]] = {}
    current = None
    tag = "run"
    with open_text(path) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if len(parts) != 6:
                raise FormatError(f"{path}:{lineno}: expected 6 TREC run columns")
            qid, _, pid, _, score, tag = parts
            if qid != current:  # lines of one query are usually adjacent
                current = qid
                add_id = ids.setdefault(qid, []).append
                add_score = scores.setdefault(qid, []).append
            add_id(pid)
            try:
                add_score(float(score))
            except ValueError:
                raise FormatError(f"{path}:{lineno}: score {score!r} is not a number") from None
    # An id split off on whitespace can break the id rule only by holding
    # ","; one test per query looks for it, and only then is the file read
    # again, to name the line.
    if any("," in qid or "," in "".join(pids) for qid, pids in ids.items()):
        with open_text(path) as f:
            for lineno, line in enumerate(f, 1):
                qid, _, pid, *_ = line.split()
                check_id(qid, "query", f"{path}:{lineno}")
                check_id(pid, "passage", f"{path}:{lineno}")
    return RunFile(
        rankings={
            qid: Ranking(qid=qid, ids=ids[qid], scores=np.array(scores[qid], dtype=np.float64))
            for qid in ids
        },
        tag=tag,
    )


@dataclass
class MetricResult:
    per_query: dict[str, float]
    mean: float


@dataclass
class MetricReport:
    results: dict[str, MetricResult] = field(default_factory=dict)

    def mean(self, name: str) -> float:
        return self.results[name].mean


def _ranked_pids(run: RunFile, qid: str) -> list[str]:
    ranking = run.rankings.get(qid)
    return ranking.pids() if ranking is not None else []


def mrr_at_k(run: RunFile, qrels: Qrels, k: int = 10) -> MetricResult:
    """Reciprocal rank of the first relevant passage within the top k, else 0."""
    per_query: dict[str, float] = {}
    for qid in qrels.by_query:
        positives = qrels.positives(qid)
        value = 0.0
        for rank, pid in enumerate(_ranked_pids(run, qid)[:k], 1):
            if pid in positives:
                value = 1.0 / rank
                break
        per_query[qid] = value
    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return MetricResult(per_query=per_query, mean=mean)


def recall_at_k(run: RunFile, qrels: Qrels, k: int) -> MetricResult:
    """Fraction of relevant passages retrieved in the top k, a passage listed
    twice counting once; queries without relevant passages are excluded from
    the mean."""
    per_query: dict[str, float] = {}
    for qid in qrels.by_query:
        positives = qrels.positives(qid)
        if not positives:
            continue
        per_query[qid] = len(positives.intersection(_ranked_pids(run, qid)[:k])) / len(positives)
    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return MetricResult(per_query=per_query, mean=mean)


def ndcg_at_k(run: RunFile, qrels: Qrels, k: int = 10, exponential_gain: bool = False) -> MetricResult:
    """Graded NDCG with log2(rank+1) discount, a passage listed twice gaining
    at its first rank only; zero-IDCG queries are excluded."""

    def gain(grade: int) -> float:
        return float(2**grade - 1) if exponential_gain else float(grade)

    per_query: dict[str, float] = {}
    for qid in qrels.by_query:
        grades = qrels.grades_for(qid)
        ideal = sorted(grades.values(), reverse=True)[:k]
        idcg = sum(gain(g) / math.log2(r + 1) for r, g in enumerate(ideal, 1))
        if idcg <= 0.0:
            continue
        first: dict[str, int] = {}
        for rank, pid in enumerate(_ranked_pids(run, qid)[:k], 1):
            first.setdefault(pid, rank)
        dcg = sum(gain(grades.get(pid, 0)) / math.log2(rank + 1) for pid, rank in first.items())
        per_query[qid] = dcg / idcg
    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return MetricResult(per_query=per_query, mean=mean)


DEFAULT_METRICS = ("mrr@10", "recall@50", "recall@1000", "ndcg@10")


def parse_metric(spec: str) -> tuple[str, int]:
    """The name and cutoff of a metric spec '<name>@<k>', such as 'mrr@10'."""
    name, _, k_s = spec.partition("@")
    try:
        k = int(k_s)
    except ValueError:
        raise ValueError(f"bad metric name {spec!r} (expected '<metric>@<k>')") from None
    if k < 1:
        raise ValueError(f"bad metric name {spec!r} (the cutoff must be >= 1)")
    if name not in ("mrr", "recall", "ndcg"):
        raise ValueError(f"unknown metric {name!r}")
    return name, k


def evaluate(
    run: RunFile,
    qrels: Qrels,
    metrics: tuple[str, ...] | list[str] = DEFAULT_METRICS,
    exponential_gain: bool = False,
) -> MetricReport:
    """Compute the requested metrics; metric names look like 'mrr@10'."""
    if not set(run.rankings) & set(qrels.by_query):
        raise ValueError("run and qrels share no query ids")
    report = MetricReport()
    for spec in metrics:
        name, k = parse_metric(spec)
        if name == "mrr":
            result = mrr_at_k(run, qrels, k)
        elif name == "recall":
            result = recall_at_k(run, qrels, k)
        else:
            result = ndcg_at_k(run, qrels, k, exponential_gain=exponential_gain)
        report.results[spec] = result
    return report


def format_report(report: MetricReport, per_query: bool = False) -> str:
    """Tool-style records: '<metric>\\t<qid|all>\\t<value>'."""
    lines = []
    for name, result in report.results.items():
        if per_query:
            for qid in sorted(result.per_query):
                lines.append(f"{name}\t{qid}\t{result.per_query[qid]:.6f}")
        lines.append(f"{name}\tall\t{result.mean:.6f}")
    return "\n".join(lines) + "\n"


def format_report_table(report: MetricReport) -> str:
    width = max((len(n) for n in report.results), default=6)
    lines = [f"{'metric'.ljust(width)}  mean"]
    for name, result in report.results.items():
        lines.append(f"{name.ljust(width)}  {result.mean:.4f}")
    return "\n".join(lines) + "\n"

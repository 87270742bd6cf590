"""Inverted index over raw term counts or learned term weights, with exact
BM25 and sparse dot-product top-k search.

Documents are ordered by ascending passage id at build time, which makes the
global tie-break (score descending, passage id ascending) a stable argsort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import TermVector
from .encoders import TermWeightVector, TokenBatch

class WeightSemanticsError(ValueError):
    """Operation applied to an index with the wrong weight semantics."""


@dataclass(frozen=True, eq=False)
class Ranking:
    """Per-query ranked list, strictly sorted by (score desc, pid asc).

    `ids` and `scores` are aligned: `ids[i]` is the passage at rank i + 1 and
    `scores[i]` (float64) its score.
    """

    qid: str
    ids: list[str]
    scores: np.ndarray

    def __post_init__(self):
        if self.scores.ndim != 1 or len(self.scores) != len(self.ids):
            raise ValueError("a ranking needs one score per passage id")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return (
            self.qid == other.qid
            and self.ids == other.ids
            and np.array_equal(self.scores, other.scores)
        )

    @property
    def entries(self) -> list[tuple[str, float]]:
        """(pid, score) pairs in rank order, built on each access."""
        return list(zip(self.ids, self.scores.tolist()))

    def pids(self) -> list[str]:
        return self.ids


@dataclass
class InvertedIndex:
    pids: list[str]  # ascending
    postings: dict[int, tuple[np.ndarray, np.ndarray]]  # term -> (doc rows, weights)
    kind: str  # "bm25" over raw counts, "lexical" over learned weights
    doc_len: np.ndarray  # token counts per row (raw-count indexes)
    total_tokens: int

    @property
    def n_docs(self) -> int:
        return len(self.pids)

    @property
    def avgdl(self) -> float:
        return self.total_tokens / self.n_docs if self.pids else 0.0


def build_index(vectors: dict[str, TermVector]) -> InvertedIndex:
    """The raw-count "bm25" index of `vectors`, each passage's term counts.

    A learned-weight "lexical" index comes from `postings_index`, which
    `retrieval.encode_corpus` calls with a lexical model's encoded passages.
    """
    pids = sorted(vectors)
    docs = [vectors[pid] for pid in pids]
    table = TokenBatch.of(docs)
    doc_len = np.array([v.n for v in docs], dtype=np.int64)
    return postings_index(pids, table.lens, table.ids, table.counts, "bm25", doc_len)


def postings_index(
    pids: list[str],
    lens: np.ndarray,
    terms: np.ndarray,
    weights: np.ndarray,
    kind: str,
    doc_len: np.ndarray | None = None,
) -> InvertedIndex:
    """The `kind` index over `pids` (ascending), whose row r holds the next
    `lens[r]` entries of `terms` (ascending within a row) and `weights`.

    Every entry lands in exactly one posting, and posting lists are ordered
    by ascending passage id. `doc_len` gives each row's token count, which
    only BM25 reads; without it every row counts zero.
    """
    if doc_len is None:
        doc_len = np.zeros(len(pids), dtype=np.int64)
    # A stable sort by term keeps each term's entries in ascending row order.
    order = np.argsort(terms, kind="stable")
    terms = terms[order]
    doc_rows = np.repeat(np.arange(len(pids), dtype=np.int64), lens)[order]
    weights = weights[order]
    # Each posting starts where the sorted terms change.
    cuts = (np.flatnonzero(terms[1:] != terms[:-1]) + 1).tolist()
    bounds = [0, *cuts, len(terms)] if len(terms) else [0]
    postings = {
        term: (doc_rows[lo:hi], weights[lo:hi])
        for term, lo, hi in zip(terms[bounds[:-1]].tolist(), bounds, bounds[1:])
    }
    return InvertedIndex(
        pids=pids,
        postings=postings,
        kind=kind,
        doc_len=doc_len,
        total_tokens=int(doc_len.sum()),
    )


def idf(n_docs: int, df: int) -> float:
    # +1 inside the log keeps scores non-negative.
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def top_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Rows of the k best `scores`: the first k of a stable argsort of
    `-scores`, so ties keep row order and NaN scores come last.

    `np.partition` finds the k-th best score and only the rows at or above
    it are sorted; when fewer than k rows are not NaN, all are sorted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    neg = -scores
    if k < len(neg):
        kth = np.partition(neg, k - 1)[k - 1]
        rows = np.flatnonzero(neg <= kth)
        if len(rows) >= k:
            return rows[np.argsort(neg[rows], kind="stable")[:k]]
    return np.argsort(neg, kind="stable")[:k]


def top_k(pids: list[str], scores: np.ndarray, k: int, qid: str = "") -> Ranking:
    """The k best of `pids` (ascending, as every index keeps them) by `scores`;
    row order, hence pid order, breaks ties."""
    order = top_rows(scores, k)
    return Ranking(qid=qid, ids=[pids[i] for i in order.tolist()], scores=scores[order])


def bm25_search(
    query: TermVector,
    index: InvertedIndex,
    k: int,
    k1: float = 1.2,
    b: float = 0.75,
    qid: str = "",
) -> Ranking:
    """Exact BM25 top-k; documents sharing no query term rank by id with score 0."""
    if index.kind != "bm25":
        raise WeightSemanticsError("BM25 requires a raw-count index")
    scores = np.zeros(index.n_docs, dtype=np.float64)
    avgdl = index.avgdl
    for term in sorted(query.counts):
        rows_w = index.postings.get(term)
        if rows_w is None:
            continue
        rows, tf = rows_w
        w = idf(index.n_docs, len(rows))
        denom = tf + k1 * (1.0 - b + b * index.doc_len[rows] / avgdl)
        scores[rows] += w * tf * (k1 + 1.0) / denom
    return top_k(index.pids, scores, k, qid)


def sparse_scores(query: TermWeightVector, index: InvertedIndex) -> np.ndarray:
    """Sparse dot product of `query` with every indexed passage, by row.

    Each passage adds its products in ascending term order, so its score is
    the left-to-right sum over the terms it shares with the query, bit for
    bit; `relevance` in `tests/helpers.py` is that sum.
    """
    if index.kind != "lexical":
        raise WeightSemanticsError("sparse search requires a learned-weight index")
    scores = np.zeros(index.n_docs, dtype=np.float64)
    for term, weight in zip(query.terms.tolist(), query.weights.tolist()):
        rows_w = index.postings.get(term)
        if rows_w is None:
            continue
        rows, weights = rows_w
        scores[rows] += weight * weights
    return scores


def sparse_search(query: TermWeightVector, index: InvertedIndex, k: int, qid: str = "") -> Ranking:
    """Exact top-k by sparse dot product over a learned-weight index."""
    return top_k(index.pids, sparse_scores(query, index), k, qid)

"""Inverted index over raw term counts or learned term weights, with exact
BM25 and sparse dot-product top-k search.

Documents are ordered by ascending passage id at build time, which makes the
global tie-break (score descending, passage id ascending) a stable argsort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import TermVector
from .encoders import TermWeightVector, token_row

RAW_COUNT = "raw-count"
LEARNED_WEIGHT = "learned-weight"


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
    semantics: str
    doc_len: np.ndarray  # token counts per row (raw-count indexes)
    total_tokens: int
    row_of: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.row_of:
            self.row_of = {pid: i for i, pid in enumerate(self.pids)}

    @property
    def n_docs(self) -> int:
        return len(self.pids)

    @property
    def avgdl(self) -> float:
        return self.total_tokens / self.n_docs if self.pids else 0.0


def build_index(vectors: dict[str, TermVector] | dict[str, TermWeightVector]) -> InvertedIndex:
    """Build postings from term vectors (raw counts) or weight vectors.

    The vector type sets the semantics: `TermVector`s give a raw-count
    index, `TermWeightVector`s a learned-weight one. Every nonzero entry
    lands in exactly one posting; posting lists are ordered by ascending
    passage id.
    """
    pids = sorted(vectors)
    learned = isinstance(next(iter(vectors.values()), None), TermWeightVector)
    if learned:
        docs = [(vectors[pid].terms, vectors[pid].weights) for pid in pids]
        doc_len = np.zeros(len(pids), dtype=np.int64)
    else:
        docs = [token_row(vectors[pid]) for pid in pids]
        doc_len = np.array([vectors[pid].n for pid in pids], dtype=np.int64)
    lens = np.array([len(terms) for terms, _ in docs], dtype=np.int64)
    terms = np.concatenate([t for t, _ in docs] + [np.empty(0, dtype=np.int64)])
    weights = np.concatenate([w for _, w in docs] + [np.empty(0)])
    # A stable sort by term keeps each term's entries in ascending row order.
    order = np.argsort(terms, kind="stable")
    terms = terms[order]
    doc_rows = np.repeat(np.arange(len(pids), dtype=np.int64), lens)[order]
    weights = weights[order]
    uniq, starts = np.unique(terms, return_index=True)
    postings = dict(zip(
        uniq.tolist(),
        zip(np.split(doc_rows, starts[1:]), np.split(weights, starts[1:])),
    ))
    return InvertedIndex(
        pids=pids,
        postings=postings,
        semantics=LEARNED_WEIGHT if learned else RAW_COUNT,
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
    if index.semantics != RAW_COUNT:
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

    Each passage adds its products in ascending term order, as `relevance`
    does, so the scores equal `relevance` of the two vectors bit for bit.
    """
    if index.semantics != LEARNED_WEIGHT:
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

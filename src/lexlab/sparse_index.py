"""Inverted index over raw term counts or learned term weights, with exact
BM25 and sparse dot-product top-k search.

Documents are ordered by ascending passage id at build time, which makes the
global tie-break (score descending, passage id ascending) a stable argsort.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import TermVector
from .encoders import TermWeightVector, token_row

INDEX_VERSION = 1

RAW_COUNT = "raw-count"
LEARNED_WEIGHT = "learned-weight"


class WeightSemanticsError(ValueError):
    """Operation applied to an index with the wrong weight semantics."""


@dataclass(frozen=True)
class Ranking:
    """Per-query ranked list, strictly sorted by (score desc, pid asc)."""

    qid: str
    entries: list[tuple[str, float]]

    def pids(self) -> list[str]:
        return [pid for pid, _ in self.entries]


@dataclass
class InvertedIndex:
    pids: list[str]  # ascending
    postings: dict[int, tuple[np.ndarray, np.ndarray]]  # term -> (doc rows, weights)
    semantics: str
    doc_len: np.ndarray  # token counts per row (raw-count indexes)
    total_tokens: int
    digest: str = ""
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

    def df(self, term: int) -> int:
        rows_w = self.postings.get(term)
        return 0 if rows_w is None else len(rows_w[0])


def build_index(
    vectors: dict[str, TermVector] | dict[str, TermWeightVector],
    digest: str = "",
) -> InvertedIndex:
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
        digest=digest,
    )


def idf(n_docs: int, df: int) -> float:
    # +1 inside the log keeps scores non-negative.
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def bm25_score(
    query: TermVector,
    pid: str,
    index: InvertedIndex,
    k1: float = 1.2,
    b: float = 0.75,
) -> float:
    """Okapi BM25 for one document; each distinct query term contributes once."""
    if index.semantics != RAW_COUNT:
        raise WeightSemanticsError("BM25 requires a raw-count index")
    row = index.row_of.get(pid)
    if row is None:
        raise KeyError(f"unknown passage id {pid!r}")
    dl = float(index.doc_len[row])
    avgdl = index.avgdl
    score = 0.0
    for term in sorted(query.counts):
        rows_w = index.postings.get(term)
        if rows_w is None:
            continue
        rows, weights = rows_w
        pos = int(np.searchsorted(rows, row))
        if pos >= len(rows) or rows[pos] != row:
            continue
        tf = weights[pos]
        denom = tf + k1 * (1.0 - b + b * dl / avgdl)
        score += idf(index.n_docs, len(rows)) * tf * (k1 + 1.0) / denom
    return score


def top_k(pids: list[str], scores: np.ndarray, k: int, qid: str = "") -> Ranking:
    """The k best of `pids` (ascending, as every index keeps them) by `scores`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # Stable argsort on -scores: ties keep ascending-pid (row) order.
    order = np.argsort(-scores, kind="stable")[:k]
    ranked = [pids[i] for i in order.tolist()]
    return Ranking(qid=qid, entries=list(zip(ranked, scores[order].tolist())))


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


def save_index(index: InvertedIndex, path: str | Path) -> None:
    terms = sorted(index.postings)
    header = {
        "version": INDEX_VERSION,
        "semantics": index.semantics,
        "digest": index.digest,
        "total_tokens": index.total_tokens,
        "n_terms": len(terms),
        "pids": index.pids,
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(np.array(terms, dtype="<i8").tobytes())
        f.write(np.array([len(index.postings[t][0]) for t in terms], dtype="<i8").tobytes())
        for t in terms:
            rows, weights = index.postings[t]
            f.write(np.ascontiguousarray(rows, dtype="<i8").tobytes())
            f.write(np.ascontiguousarray(weights, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(index.doc_len, dtype="<i8").tobytes())


def load_index(path: str | Path) -> InvertedIndex:
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        if header["version"] != INDEX_VERSION:
            raise ValueError(f"{path}: unsupported index version {header['version']}")
        n_terms = header["n_terms"]
        pids = header["pids"]
        terms = np.frombuffer(f.read(n_terms * 8), dtype="<i8")
        lengths = np.frombuffer(f.read(n_terms * 8), dtype="<i8")
        postings = {}
        for t, ln in zip(terms, lengths):
            rows = np.frombuffer(f.read(int(ln) * 8), dtype="<i8").copy()
            weights = np.frombuffer(f.read(int(ln) * 8), dtype="<f8").copy()
            postings[int(t)] = (rows, weights)
        doc_len = np.frombuffer(f.read(len(pids) * 8), dtype="<i8").copy()
    return InvertedIndex(
        pids=pids,
        postings=postings,
        semantics=header["semantics"],
        doc_len=doc_len,
        total_tokens=header["total_tokens"],
        digest=header["digest"],
    )

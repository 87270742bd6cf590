"""Independent readers and brute-force references for the output checks.

Nothing here calls lexlab's scoring, ranking, metric or file-reading code:
the checks read the documented file formats themselves and score every
passage from the checkpoint tensors, so a fast path in the program is
compared against slow, obvious code.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-9


def read_qrels(path: Path) -> dict[str, set[str]]:
    """qid -> passages graded >= 1; judged queries without one map to an empty set."""
    out: dict[str, set[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        qid, _, pid, grade = line.split()
        positives = out.setdefault(qid, set())
        if int(grade) >= 1:
            positives.add(pid)
    return out


def read_run(path: Path) -> dict[str, list[str]]:
    """TREC run file -> qid -> passage ids in file order."""
    out: dict[str, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        qid, _, pid, _, _, _ = line.split()
        out.setdefault(qid, []).append(pid)
    return out


def read_pool(path: Path) -> dict[str, list[str]]:
    """Negative pool file -> qid -> negatives over all source tags."""
    out: dict[str, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        qid, _, pids = line.split("\t")
        out.setdefault(qid, []).extend(p for p in pids.split(",") if p)
    return out


def read_report_mean(path: Path, metric: str) -> float:
    for line in path.read_text(encoding="utf-8").splitlines():
        name, qid, value = line.split("\t")
        if name == metric and qid == "all":
            return float(value)
    raise ValueError(f"{path}: no '{metric}\\tall' record")


def checkpoint_is_finite(path: Path) -> bool:
    """Parse the JSON header + raw float64 layout and test every value."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        values = np.frombuffer(f.read(), dtype="<f8")
    expected = sum(math.prod(shape) for _, shape in header["tensors"])
    return values.size == expected and bool(np.isfinite(values).all())


def mrr_at_10(ranked: dict[str, list[str]], qrels: dict[str, set[str]]) -> float:
    """Mean over judged queries; a query missing from the run scores 0."""
    total = 0.0
    for qid, positives in qrels.items():
        for rank, pid in enumerate(ranked.get(qid, [])[:10], 1):
            if pid in positives:
                total += 1.0 / rank
                break
    return total / len(qrels)


def bm25_scores(doc_tvs: list, query_tv, k1: float, b: float) -> np.ndarray:
    """Okapi BM25 of one query against every passage, each query term once."""
    n = len(doc_tvs)
    doc_len = np.array([tv.n for tv in doc_tvs], dtype=np.float64)
    norm = k1 * (1.0 - b + b * doc_len / (doc_len.sum() / n))
    scores = np.zeros(n)
    for term in query_tv.counts:
        tf = np.array([tv.counts.get(term, 0) for tv in doc_tvs], dtype=np.float64)
        df = int(np.count_nonzero(tf))
        if df:
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            scores += idf * tf * (k1 + 1.0) / (tf + norm)
    return scores


def lexical_weights(tensors: dict[str, np.ndarray], tvs: list, chunk: int = 128):
    """Yield (first row, rows x |V| term weights): log1p(ReLU(max over tokens))."""
    emb, expand, bias = tensors["emb"], tensors["expand"], tensors["bias"]
    vocab = emb.shape[0]
    # Column `vocab` is padding that never wins the max.
    table = np.concatenate([expand @ emb.T, np.full((vocab, 1), -np.inf)], axis=1)
    for lo in range(0, len(tvs), chunk):
        part = tvs[lo:lo + chunk]
        width = max(1, max(len(tv.counts) for tv in part))
        tokens = np.full((len(part), width), vocab, dtype=np.int64)
        for row, tv in enumerate(part):
            tokens[row, :len(tv.counts)] = sorted(tv.counts)
        z = table[:, tokens].max(axis=2) + bias[:, None]
        yield lo, np.log1p(np.where(z > 0.0, z, 0.0)).T


def lexical_scores(tensors, doc_tvs: list, query_tvs: list) -> np.ndarray:
    """queries x passages sparse dot products, from dense weight rows."""
    queries = np.vstack([w for _, w in lexical_weights(tensors, query_tvs)])
    out = np.zeros((len(query_tvs), len(doc_tvs)))
    for lo, weights in lexical_weights(tensors, doc_tvs):
        out[:, lo:lo + len(weights)] = queries @ weights.T
    return out


def dense_vectors(tensors: dict[str, np.ndarray], tvs: list) -> np.ndarray:
    """Count-weighted mean embedding, then the affine map; empty -> zeros."""
    emb, proj, bias = tensors["emb"], tensors["proj"], tensors["bias"]
    out = np.zeros((len(tvs), proj.shape[0]))
    for row, tv in enumerate(tvs):
        if tv.counts:
            ids = sorted(tv.counts)
            counts = np.array([tv.counts[t] for t in ids], dtype=np.float64)
            out[row] = proj @ (counts @ emb[ids] / counts.sum()) + bias
    return out


def topk_mismatch(entries: list[tuple[str, float]], ref: np.ndarray, pids: list[str],
                  row_of: dict[str, int], k: int) -> str:
    """Why a ranking is not the exact top-k of `ref`; empty when it is.

    Scores must match the reference, the order must be (score desc, pid
    asc), and no passage scoring above the k-th may be left out.
    """
    n = min(k, len(pids))
    if len(entries) != n or len({pid for pid, _ in entries}) != n:
        return f"{len(entries)} entries, expected {n} distinct"
    for pid, score in entries:
        want = ref[row_of[pid]]
        if abs(score - want) > SCORE_TOL * max(1.0, abs(want)):
            return f"{pid} scored {score!r}, brute force {want!r}"
    for (p1, s1), (p2, s2) in zip(entries, entries[1:]):
        if s1 < s2 or (s1 == s2 and p1 > p2):
            return f"{p1} before {p2} breaks (score desc, pid asc)"
    kth = entries[-1][1]
    chosen = {pid for pid, _ in entries}
    for row in np.flatnonzero(ref > kth + SCORE_TOL * max(1.0, abs(kth))):
        if pids[row] not in chosen:
            return f"{pids[row]} scores {ref[row]!r} above the k-th but is missing"
    return ""

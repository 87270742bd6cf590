"""Corpus/query/qrels ingestion, vocabulary construction, and checkpoint files.

Collections and queries are tab-separated ``<id>\\t<text>`` files; qrels are
whitespace-separated TREC ``<qid> 0 <pid> <grade>`` lines. Checkpoints are a
single JSON header line followed by raw little-endian float64 tensor blocks,
so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CHECKPOINT_VERSION = 1


class FormatError(ValueError):
    """Malformed input file; the message names the offending line."""


class CheckpointError(ValueError):
    """Unreadable, truncated, or incompatible checkpoint file."""


# Runs of `str.isalnum` codepoints: `\w` on str patterns is exactly
# `str.isalnum` plus "_", so `[^\W_]` is exactly `str.isalnum`.
_ALNUM_RUN = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase `text` and split it on every non-alphanumeric codepoint."""
    return _ALNUM_RUN.findall(text.lower())


@dataclass(frozen=True)
class Corpus:
    """Passage collection with the stats needed downstream (N, avgdl, df)."""

    docs: dict[str, str]
    total_tokens: int
    df: dict[str, int]

    @property
    def n_docs(self) -> int:
        return len(self.docs)

    @property
    def avgdl(self) -> float:
        # Exact integer count divided once; empty corpus scores 0.
        return self.total_tokens / self.n_docs if self.docs else 0.0

    @classmethod
    def from_docs(cls, docs: dict[str, str]) -> "Corpus":
        total = 0
        df: dict[str, int] = {}
        for text in docs.values():
            toks = tokenize(text)
            total += len(toks)
            for t in set(toks):
                df[t] = df.get(t, 0) + 1
        return cls(docs=dict(docs), total_tokens=total, df=df)


@dataclass(frozen=True)
class QuerySet:
    queries: dict[str, str]

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(frozen=True)
class Qrels:
    """Relevance judgments; a (query, passage) pair appears at most once."""

    entries: dict[tuple[str, str], int]
    by_query: dict[str, dict[str, int]] = field(repr=False)

    @classmethod
    def from_entries(cls, entries: dict[tuple[str, str], int]) -> "Qrels":
        by_query: dict[str, dict[str, int]] = {}
        for (qid, pid), grade in entries.items():
            if grade < 0:
                raise ValueError(f"negative relevance grade for ({qid}, {pid})")
            by_query.setdefault(qid, {})[pid] = grade
        return cls(entries=dict(entries), by_query=by_query)

    def grades_for(self, qid: str) -> dict[str, int]:
        return self.by_query.get(qid, {})

    def positives(self, qid: str) -> set[str]:
        """Passages judged relevant (grade >= 1) for `qid`."""
        return {pid for pid, g in self.grades_for(qid).items() if g >= 1}


@dataclass(frozen=True)
class Vocabulary:
    """Dense contiguous term-id assignment with per-term document frequency."""

    term_to_id: dict[str, int]
    id_to_term: list[str]
    df: np.ndarray  # int64, aligned with term ids

    @property
    def size(self) -> int:
        return len(self.id_to_term)

    def __contains__(self, term: str) -> bool:
        return term in self.term_to_id


@dataclass(frozen=True)
class TermVector:
    """Sparse term-id -> count map plus the total token count n (OOV included)."""

    counts: dict[int, int]
    n: int

    @property
    def n_invocab(self) -> int:
        return sum(self.counts.values())

    @property
    def n_oov(self) -> int:
        return self.n - self.n_invocab


def build_vocab(corpus: Corpus, min_df: int = 1, max_size: int | None = None) -> Vocabulary:
    """Select terms with df >= `min_df`, keeping at most `max_size` of them.

    Ranking is by descending df, ties broken by ascending term, and ids are
    assigned in that order.
    """
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be >= 1")
    kept = [(term, df) for term, df in corpus.df.items() if df >= min_df]
    kept.sort(key=lambda td: (-td[1], td[0]))
    if max_size is not None:
        kept = kept[:max_size]
    term_to_id = {term: i for i, (term, _) in enumerate(kept)}
    return Vocabulary(
        term_to_id=term_to_id,
        id_to_term=[term for term, _ in kept],
        df=np.array([df for _, df in kept], dtype=np.int64),
    )


def build_vocab_for(corpus: Corpus, min_df: int, max_vocab: int) -> Vocabulary:
    """The vocabulary the config keys select; `max_vocab` 0 is unlimited."""
    return build_vocab(corpus, min_df, max_vocab or None)


def vectorize(text: str, vocab: Vocabulary) -> TermVector:
    """Count in-vocabulary tokens; OOV tokens only contribute to n."""
    tokens = tokenize(text)
    counts: dict[int, int] = {}
    for tok in tokens:
        tid = vocab.term_to_id.get(tok)
        if tid is not None:
            counts[tid] = counts.get(tid, 0) + 1
    return TermVector(counts=counts, n=len(tokens))


def vectorize_corpus(corpus: Corpus, vocab: Vocabulary) -> dict[str, TermVector]:
    return {pid: vectorize(text, vocab) for pid, text in corpus.docs.items()}


def _read_id_text_lines(path: str | Path, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            parts = line.split("\t", 1)
            if len(parts) != 2 or not parts[0]:
                raise FormatError(f"{path}:{lineno}: expected '<id>\\t<text>'")
            iid, text = parts
            if iid in out:
                raise FormatError(f"{path}:{lineno}: duplicate {what} id {iid!r}")
            out[iid] = text
    return out


def load_collection(path: str | Path) -> Corpus:
    return Corpus.from_docs(_read_id_text_lines(path, "passage"))


def load_queries(path: str | Path) -> QuerySet:
    return QuerySet(queries=_read_id_text_lines(path, "query"))


def load_qrels(path: str | Path) -> Qrels:
    entries: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected '<qid> 0 <pid> <grade>'")
            qid, _, pid, grade_s = parts
            try:
                grade = int(grade_s)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: grade {grade_s!r} is not an integer") from None
            if grade < 0:
                raise FormatError(f"{path}:{lineno}: negative grade {grade}")
            if (qid, pid) in entries:
                raise FormatError(f"{path}:{lineno}: duplicate qrels pair ({qid}, {pid})")
            entries[(qid, pid)] = grade
    return Qrels.from_entries(entries)


@dataclass(frozen=True)
class CheckpointMeta:
    """Training metadata stored alongside the parameter tensors."""

    kind: str  # "dense" | "lexical"
    vocab_size: int
    dim: int
    stage: str
    step: int
    seed: int
    config_digest: str = ""


def save_checkpoint(tensors: dict[str, np.ndarray], meta: CheckpointMeta, path: str | Path) -> None:
    """Write a JSON header line, then each tensor as raw little-endian float64."""
    header = {
        "version": CHECKPOINT_VERSION,
        "kind": meta.kind,
        "vocab_size": meta.vocab_size,
        "dim": meta.dim,
        "stage": meta.stage,
        "step": meta.step,
        "seed": meta.seed,
        "config_digest": meta.config_digest,
        "tensors": [[name, list(t.shape)] for name, t in tensors.items()],
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for t in tensors.values():
            f.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], CheckpointMeta]:
    with open(path, "rb") as f:
        raw = f.readline()
        if not raw.endswith(b"\n"):
            raise CheckpointError(f"{path}: corrupt header (no newline)")
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header ({exc})") from None
        if not isinstance(header, dict) or "version" not in header:
            raise CheckpointError(f"{path}: corrupt header (not a checkpoint)")
        if header["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {header['version']}")
        if header.get("kind") not in ("dense", "lexical"):
            raise CheckpointError(f"{path}: unknown encoder kind {header.get('kind')!r}")
        tensors: dict[str, np.ndarray] = {}
        for name, shape in header["tensors"]:
            size = int(np.prod(shape)) if shape else 1
            block = f.read(size * 8)
            if len(block) != size * 8:
                raise CheckpointError(f"{path}: truncated tensor block {name!r}")
            tensors[name] = np.frombuffer(block, dtype="<f8").reshape(shape).copy()
        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after declared tensors")
    meta = CheckpointMeta(
        kind=header["kind"],
        vocab_size=header["vocab_size"],
        dim=header["dim"],
        stage=header["stage"],
        step=header["step"],
        seed=header["seed"],
        config_digest=header.get("config_digest", ""),
    )
    return tensors, meta

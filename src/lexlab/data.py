"""Corpus/query/qrels ingestion and vocabulary construction.

Collections and queries are tab-separated ``<id>\\t<text>`` files; qrels are
whitespace-separated TREC ``<qid> 0 <pid> <grade>`` lines. An id is not
empty and holds no whitespace or ",", the separators of the run, qrels and
pool files that carry it. Every text input is UTF-8, and a byte that is
not fails with `path:line` (`open_text`). Checkpoint files are
`encoders.save_params`/`load_params`.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO


class FormatError(ValueError):
    """Malformed input file; the message names the offending line."""


_ID_SEPARATOR = re.compile(r"[\s,]")
# Runs of `str.isalnum` codepoints: `\w` on str patterns is exactly
# `str.isalnum` plus "_", so `[^\W_]` is exactly `str.isalnum`.
_ALNUM_RUN = re.compile(r"[^\W_]+")


def check_id(iid: str, what: str, where: str) -> None:
    """Reject an id that no passage or query id can equal, read at `where`."""
    if not iid:
        raise FormatError(f"{where}: empty {what} id")
    if _ID_SEPARATOR.search(iid):
        raise FormatError(f"{where}: {what} id {iid!r} holds whitespace or ','")


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """`path` opened as UTF-8 text, past a leading byte-order mark, which
    would otherwise start the first id. If reading it meets a byte that is
    not UTF-8, the file is read again with each such byte decoded to a lone
    surrogate, so lines split as before, and the first line holding one
    fails with `path:line`."""
    try:
        with open(path, encoding="utf-8") as f:
            if f.read(1) != "\ufeff":
                f.seek(0)
            yield f
    except UnicodeDecodeError:
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            for lineno, line in enumerate(f, 1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise FormatError(f"{path}:{lineno}: not UTF-8 text") from None
        raise


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
    """Dense contiguous term-id assignment."""

    term_to_id: dict[str, int]
    id_to_term: list[str]

    @property
    def size(self) -> int:
        return len(self.id_to_term)


@dataclass(frozen=True)
class TermVector:
    """Sparse term-id -> count map plus the total token count n (OOV included)."""

    counts: dict[int, int]
    n: int


def build_vocab(corpus: Corpus, min_df: int = 1, max_vocab: int = 0) -> Vocabulary:
    """Select terms with df >= `min_df`, keeping at most `max_vocab` of them
    (0 keeps all).

    Ranking is by descending df, ties broken by ascending term, and ids are
    assigned in that order.
    """
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    if max_vocab < 0:
        raise ValueError("max_vocab must be >= 0")
    kept = sorted((term for term, df in corpus.df.items() if df >= min_df),
                  key=lambda term: (-corpus.df[term], term))
    if max_vocab:
        kept = kept[:max_vocab]
    return Vocabulary(term_to_id={term: i for i, term in enumerate(kept)}, id_to_term=kept)


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
    with open_text(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected '<id>\\t<text>'")
            iid, text = parts
            check_id(iid, what, f"{path}:{lineno}")
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
    with open_text(path) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected '<qid> 0 <pid> <grade>'")
            qid, _, pid, grade_s = parts
            check_id(qid, "query", f"{path}:{lineno}")
            check_id(pid, "passage", f"{path}:{lineno}")
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

"""Deterministic synthetic corpus for directional experiments.

Two query populations over one collection:

* exact-match queries carry a rare marker token that occurs in exactly one
  passage; sibling passages from the same topic cluster share the topic
  vocabulary, so only the marker identifies the golden passage;
* paraphrase queries use query-side vocabulary that never occurs in their
  golden passage (the passage uses the group's document-side vocabulary),
  so term matching is nearly useless and cross-vocabulary alignment has to
  be learned.

Test queries reuse markers and paraphrase groups that also have a training
query (with freshly sampled context words): the toy encoders have no subword
or pretrained knowledge, so a term that never occurred in training carries no
signal for any model. Everything is drawn from one seeded stream, and the
same seed reproduces the files byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

COMMON_WORDS = (
    "the", "of", "a", "in", "to", "is", "for", "on", "with", "how",
    "what", "best", "guide", "about", "use",
)


@dataclass
class FixtureInfo:
    docs: dict[str, str]
    train_queries: dict[str, str]
    train_qrels: dict[tuple[str, str], int]
    test_queries: dict[str, str]
    test_qrels: dict[tuple[str, str], int]


def build_fixture(
    seed: int = 13,
    exact_clusters: int = 25,
    cluster_size: int = 8,
    topic_bank: int = 12,
    doc_topic_words: int = 6,
    exact_train: int = 100,
    exact_test: int = 50,
    para_supers: int = 13,
    groups_per_super: int = 8,
    group_words: int = 4,
    super_bank: int = 8,
    para_train: int = 100,
    para_train_repeats: int = 2,
    para_test: int = 50,
    total_docs: int = 2000,
    filler_topics: int = 30,
    filler_bank: int = 12,
    filler_len: int = 12,
) -> FixtureInfo:
    rng = random.Random(f"fixture|{seed}")
    docs: dict[str, str] = {}
    train_queries: dict[str, str] = {}
    train_qrels: dict[tuple[str, str], int] = {}
    test_queries: dict[str, str] = {}
    test_qrels: dict[tuple[str, str], int] = {}

    def commons(k: int) -> list[str]:
        return rng.sample(COMMON_WORDS, k)

    # Exact-match clusters: every passage gets a unique marker token.
    topic_words = {
        c: [f"t{c:02d}w{j:02d}" for j in range(topic_bank)] for c in range(exact_clusters)
    }
    markers: list[tuple[str, str, int]] = []  # (marker, pid, cluster)
    for c in range(exact_clusters):
        for g in range(cluster_size):
            marker = f"mk{c:02d}{g}"
            pid = f"dx{c:02d}{g}"
            words = [marker] + rng.sample(topic_words[c], doc_topic_words) + commons(3)
            rng.shuffle(words)
            docs[pid] = " ".join(words)
            markers.append((marker, pid, c))
    if exact_train > len(markers):
        raise ValueError("not enough markers for the requested training queries")

    def exact_query(marker: str, cluster: int) -> str:
        return " ".join([marker] + rng.sample(topic_words[cluster], 2) + commons(1))

    for i in range(exact_train):
        marker, pid, c = markers[i]
        qid = f"tq-ex-{i:04d}"
        train_queries[qid] = exact_query(marker, c)
        train_qrels[(qid, pid)] = 1
    for i in range(exact_test):
        marker, pid, c = markers[i]
        qid = f"te-ex-{i:04d}"
        test_queries[qid] = exact_query(marker, c)
        test_qrels[(qid, pid)] = 1

    # Paraphrase groups: query vocabulary never appears in the golden passage.
    n_groups = para_supers * groups_per_super
    if para_train > n_groups:
        raise ValueError("not enough paraphrase groups for the requested training queries")
    super_words = {
        s: [f"s{s:02d}w{j:02d}" for j in range(super_bank)] for s in range(para_supers)
    }
    groups = []
    for g in range(n_groups):
        s = g // groups_per_super
        q_words = [f"pq{g:03d}x{i}" for i in range(group_words)]
        d_words = [f"pd{g:03d}x{i}" for i in range(group_words)]
        pid = f"dp{g:03d}"
        words = d_words + rng.sample(super_words[s], 3) + commons(3)
        rng.shuffle(words)
        docs[pid] = " ".join(words)
        groups.append((g, s, q_words, pid))

    def para_query(q_words: list[str], s: int) -> str:
        return " ".join(rng.sample(q_words, 2) + rng.sample(super_words[s], 1) + commons(1))

    # Several training queries per group make the cross-vocabulary mapping
    # learnable; test queries still use fresh word samples.
    groups_used = max(1, para_train // max(1, para_train_repeats))
    for i in range(para_train):
        g, s, q_words, pid = groups[i % groups_used]
        qid = f"tq-pa-{i:04d}"
        train_queries[qid] = para_query(q_words, s)
        train_qrels[(qid, pid)] = 1
    for i in range(para_test):
        g, s, q_words, pid = groups[i]
        qid = f"te-pa-{i:04d}"
        test_queries[qid] = para_query(q_words, s)
        test_qrels[(qid, pid)] = 1

    # Filler passages pad the collection and add vocabulary noise.
    filler_words = [
        f"f{t:02d}w{j:02d}" for t in range(filler_topics) for j in range(filler_bank)
    ]
    n_fillers = total_docs - len(docs)
    for i in range(n_fillers):
        pid = f"df{i:04d}"
        words = rng.sample(filler_words, filler_len - 3) + commons(3)
        rng.shuffle(words)
        docs[pid] = " ".join(words)
    return FixtureInfo(docs, train_queries, train_qrels, test_queries, test_qrels)


def write_fixture(out_dir: str | Path, seed: int = 13, **knobs) -> FixtureInfo:
    """Materialize the fixture as collection/query/qrels files."""
    info = build_fixture(seed=seed, **knobs)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_tsv(out / "collection.tsv", info.docs)
    _write_tsv(out / "train_queries.tsv", info.train_queries)
    _write_qrels(out / "train_qrels.txt", info.train_qrels)
    _write_tsv(out / "test_queries.tsv", info.test_queries)
    _write_qrels(out / "test_qrels.txt", info.test_qrels)
    return info


def _write_tsv(path: Path, rows: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for key, text in rows.items():
            f.write(f"{key}\t{text}\n")


def _write_qrels(path: Path, qrels: dict[tuple[str, str], int]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for (qid, pid), grade in qrels.items():
            f.write(f"{qid} 0 {pid} {grade}\n")

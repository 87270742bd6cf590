"""The ranking API the benchmark in `perfbench/` reads, pinned in tier 1.

`perfbench/workloads.py` reads `run.rankings[qid].entries` as a list of
(pid, float) pairs and hands them to `perfbench/reference.py`'s
`topk_mismatch`, which checks them against brute-force scores. A change to
that API then fails here rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lexlab.data import Corpus, QuerySet, build_vocab, vectorize, vectorize_corpus
from lexlab.encoders import DenseParams, LexicalParams
from lexlab.retrieval import encode_corpus, load_run, make_run, save_run
from lexlab.sparse_index import build_index

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
K = 40


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(4)
    words = [f"w{i}" for i in range(30)]
    docs = {
        f"d{i:03d}": " ".join(rng.choice(words, size=int(rng.integers(2, 10))))
        for i in range(150)
    }
    corpus = Corpus.from_docs(docs)
    vocab = build_vocab(corpus)
    queries = QuerySet(queries={
        f"q{i}": " ".join(rng.choice(words + ["oov"], size=int(rng.integers(1, 4))))
        for i in range(8)
    })
    doc_tvs = vectorize_corpus(corpus, vocab)
    params = {
        "bm25": None,
        "lexical": LexicalParams.init(vocab.size, 6, 1),
        "dense": DenseParams.init(vocab.size, 6, 2),
    }
    indexes = {
        "bm25": build_index(doc_tvs),
        "lexical": encode_corpus(params["lexical"], corpus, vocab),
        "dense": encode_corpus(params["dense"], corpus, vocab),
    }
    return corpus, vocab, queries, doc_tvs, params, indexes


def brute_force(reference, kind, params, doc_tvs, query_tvs):
    """queries x passages scores from the reference's own scorers."""
    if kind == "bm25":
        return np.vstack([reference.bm25_scores(doc_tvs, tv, k1=1.2, b=0.75) for tv in query_tvs])
    if kind == "lexical":
        return reference.lexical_scores(params.tensors(), doc_tvs, query_tvs)
    tensors = params.tensors()
    return reference.dense_vectors(tensors, query_tvs) @ reference.dense_vectors(tensors, doc_tvs).T


@pytest.mark.parametrize("kind", ["bm25", "lexical", "dense"])
def test_entries_pass_the_benchmark_top_k_check(world, kind, tmp_path):
    reference = load_reference()
    corpus, vocab, queries, doc_tvs, params, indexes = world
    pids = sorted(corpus.docs)
    row_of = {pid: row for row, pid in enumerate(pids)}
    query_tvs = [vectorize(queries.queries[qid], vocab) for qid in queries.queries]
    ref = brute_force(reference, kind, params[kind], [doc_tvs[p] for p in pids], query_tvs)

    run = make_run(params[kind], queries, indexes[kind], vocab, k=K, tag=kind)
    path = tmp_path / "run.trec"
    save_run(run, path)
    loaded = load_run(path)
    for got in (run, loaded):
        assert list(got.rankings) == list(queries.queries)
        for ranking in got.rankings.values():
            entries = ranking.entries
            assert type(entries) is list
            assert all(
                type(e) is tuple and len(e) == 2 and type(e[0]) is str and type(e[1]) is float
                for e in entries
            )
    for qid, row in zip(queries.queries, ref):
        written = run.rankings[qid].entries
        assert reference.topk_mismatch(written, row, pids, row_of, K) == ""
        # The round trip as the benchmark checks it: six decimals keep the
        # pids and their order, and each score within 5e-7. (Rounding can
        # tie two scores out of pid order, so the loaded list is not held
        # to `topk_mismatch`'s 1e-9 score tolerance and tie-break.)
        read = loaded.rankings[qid].entries
        assert [p for p, _ in read] == [p for p, _ in written]
        assert all(abs(s - t) <= 5e-7 for (_, s), (_, t) in zip(read, written))

"""The lexlab API the benchmark in `perfbench/` calls, pinned in tier 1.

`perfbench/workloads.py` reads `run.rankings[qid].entries` as a list of
(pid, float) pairs and hands them to `perfbench/reference.py`'s
`topk_mismatch`, which checks them against brute-force scores. It also
trains through `TrainConfig`, positional `train_stage` and `mine_negatives`
calls and `run_pipeline` over its `LED_CONFIG` keys, and reads the files
the pipeline writes by name. A change to that API then fails here rather
than in a benchmark run.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from lexlab import data, synthetic, training
from lexlab.data import Corpus, QuerySet, build_vocab, vectorize, vectorize_corpus
from lexlab.encoders import DenseParams, LexicalParams
from lexlab.retrieval import encode_corpus, load_run, make_run, save_run
from lexlab.sparse_index import bm25_search, build_index

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference.py"
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


def led_config_keys() -> dict:
    """`LED_CONFIG` of `perfbench/workloads.py`, read without importing it."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LED_CONFIG"]:
            return {kw.arg: ast.literal_eval(kw.value) for kw in node.value.keywords}
    raise AssertionError("perfbench/workloads.py defines no LED_CONFIG = dict(...)")


@pytest.fixture(scope="module")
def toy_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("toy")
    synthetic.write_fixture(
        d, seed=13, exact_clusters=4, cluster_size=4, exact_train=10, exact_test=5,
        para_supers=2, groups_per_super=5, para_train=8, para_test=4,
        total_docs=50, filler_topics=4,
    )
    return d


def test_training_calls_keep_their_positions():
    # The tracer reads `config` and `init_params` by position or by name.
    assert list(inspect.signature(training.train_stage).parameters)[:9] == [
        "config", "vocab", "corpus", "queries", "qrels", "pool", "init_params", "teacher", "doc_tvs",
    ]
    assert list(inspect.signature(training.mine_negatives).parameters)[:6] == [
        "retriever", "queries", "qrels", "depth", "m", "seed",
    ]


def test_search_large_training_calls(toy_data):
    corpus = data.load_collection(toy_data / "collection.tsv")
    queries = data.load_queries(toy_data / "train_queries.tsv")
    qrels = data.load_qrels(toy_data / "train_qrels.txt")
    vocab = data.build_vocab(corpus)
    doc_tvs = data.vectorize_corpus(corpus, vocab)
    index = build_index(doc_tvs)

    class Miner:
        def search(self, text, k, qid=""):
            return bm25_search(vectorize(text, vocab), index, k, qid=qid)

    pool = training.mine_negatives(Miner(), queries, qrels, 10, 5, 5)
    for kind, params_cls in (("lexical", LexicalParams), ("dense", DenseParams)):
        config = training.TrainConfig(seed=5, dim=16, lr=0.03, batch_size=8, m=5, epochs=1,
                                      flops_weight=0.2 if kind == "lexical" else 0.0,
                                      stage="warmup", strategy="none")
        init = params_cls.init(vocab.size, 16, 5)
        params, log = training.train_stage(
            config, vocab, corpus, queries, qrels, pool, init, None, doc_tvs)
        assert params.kind == kind and log.steps and log.optimizer_steps


def test_led_pipeline_files(toy_data, tmp_path):
    lines = [f"{key} = {toy_data / name}" for key, name in (
        ("collection", "collection.tsv"), ("train_queries", "train_queries.tsv"),
        ("train_qrels", "train_qrels.txt"), ("eval_queries", "test_queries.tsv"),
        ("eval_qrels", "test_qrels.txt"))]
    lines += [f"{key} = {value}" for key, value in led_config_keys().items()]
    (tmp_path / "led.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = training.config_from_mapping(training.parse_config_file(tmp_path / "led.cfg"))
    out = tmp_path / "out"
    result = training.run_pipeline(cfg, out_dir=out)

    assert all(log.steps for log in result.logs.values())
    expected = [
        *(f"pools/{stem}.tsv" for stem in ("bm25", "lex1", "lex1_top", "lex2_top", "den1_top")),
        *(f"checkpoints/{stem}.ckpt" for stem in ("lex1", "lex2", "den1", "led")),
        *(f"{sub}/{stem}{ext}" for sub, ext in (("runs", ".trec"), ("reports", ".tsv"))
          for stem in ("led", "lex2")),
        "manifest.json",
    ]
    assert [rel for rel in expected if not (out / rel).is_file()] == []

import gc
import itertools
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lexlab.data import (
    Corpus, FormatError, TermVector, build_vocab, load_qrels, vectorize, vectorize_corpus,
)
from lexlab.encoders import ROW_EXACT_MULADDS, DenseParams, LexicalParams, LexicalTable, TokenBatch
from lexlab import retrieval
from lexlab.retrieval import (
    DenseIndex,
    Retriever,
    RunFile,
    dense_search,
    encode_corpus,
    evaluate,
    format_report,
    load_run,
    make_run,
    mrr_at_k,
    ndcg_at_k,
    recall_at_k,
    save_run,
)
from lexlab.sparse_index import (
    InvertedIndex, Ranking, bm25_search, build_index, sparse_scores, sparse_search,
)
from lexlab.data import QuerySet, Vocabulary
from lexlab.training import model_teacher

from helpers import (
    assert_no_children, per_input_dense_encode, per_input_lexical_encode, per_passage_lexical_index,
    set_usable_cpus,
)

FIXTURE = Path(__file__).parent / "data" / "metric_fixture"


def ranking_from(qid, entries):
    return Ranking(
        qid=qid, ids=[pid for pid, _ in entries], scores=np.array([float(s) for _, s in entries])
    )


def run_from(entries_by_qid, tag="t"):
    return RunFile(
        rankings={qid: ranking_from(qid, entries) for qid, entries in entries_by_qid.items()},
        tag=tag,
    )


class TestEncodeCorpus:
    def test_empty_corpus(self):
        corpus = Corpus.from_docs({})
        vocab = build_vocab(corpus)
        index = encode_corpus(DenseParams.init(0, 4, 0), corpus, vocab)
        assert index.n_docs == 0

    def test_reencode_identical(self):
        corpus = Corpus.from_docs({"d1": "a b", "d2": "b c c"})
        vocab = build_vocab(corpus)
        params = DenseParams.init(vocab.size, 4, seed=2)
        a = encode_corpus(params, corpus, vocab)
        b = encode_corpus(params, corpus, vocab)
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_lexical_index_matches_per_doc_encode(self):
        corpus = Corpus.from_docs({"d1": "a b", "d2": "c a a", "d3": "b"})
        vocab = build_vocab(corpus)
        params = LexicalParams.init(vocab.size, 4, seed=3)
        index = encode_corpus(params, corpus, vocab)
        assert isinstance(index, InvertedIndex)
        for pid in corpus.docs:
            vec = per_input_lexical_encode(vectorize(corpus.docs[pid], vocab), params)
            row = index.pids.index(pid)
            got = [
                (t, w[list(rows).index(row)])
                for t, (rows, w) in index.postings.items()
                if row in rows
            ]
            assert got == list(zip(vec.terms.tolist(), vec.weights.tolist()))

    def test_dense_index_equals_per_passage_encode(self, monkeypatch):
        # "x" and "y" occur once and fall out of a min_df=2 vocabulary, so
        # d3 is all out-of-vocabulary; d4 is empty. Blocks of two passages
        # make the last block short.
        docs = {"d0": "a b b", "d1": "b c", "d2": "a c c a", "d3": "x y", "d4": "", "d5": "c"}
        corpus = Corpus.from_docs(docs)
        vocab = build_vocab(corpus, min_df=2)
        params = DenseParams.init(vocab.size, 4, seed=5)
        params.proj[:] = np.random.default_rng(5).normal(size=params.proj.shape)
        params.bias[:] = 0.25
        monkeypatch.setattr(retrieval, "ENCODE_BLOCK", 2)
        index = encode_corpus(params, corpus, vocab)
        assert index.pids == sorted(docs)
        for row, pid in enumerate(index.pids):
            vec = per_input_dense_encode(vectorize(docs[pid], vocab), params)
            assert index.matrix[row].tobytes() == vec.tobytes()
        assert not index.matrix[index.pids.index("d3")].any()
        assert not index.matrix[index.pids.index("d4")].any()

    def test_no_model_gives_the_bm25_index(self):
        corpus = Corpus.from_docs({"d2": "a b b", "d0": "b c", "d1": "", "d3": "c a a"})
        vocab = build_vocab(corpus)
        index = encode_corpus(None, corpus, vocab)
        expected = build_index(vectorize_corpus(corpus, vocab))
        assert index.kind == "bm25"
        assert index.pids == expected.pids == ["d0", "d1", "d2", "d3"]
        assert index.doc_len.tolist() == expected.doc_len.tolist()
        assert index.postings.keys() == expected.postings.keys()
        for t, (rows, w) in expected.postings.items():
            assert rows.tobytes() == index.postings[t][0].tobytes()
            assert w.tobytes() == index.postings[t][1].tobytes()


    @pytest.mark.parametrize("kind", ["dense", "lexical"])
    def test_given_vectors_encode_as_vectorized(self, kind):
        docs = {"d0": "a b b", "d1": "b c", "d2": "a c c a", "d3": ""}
        corpus = Corpus.from_docs(docs)
        vocab = build_vocab(corpus)
        params = (DenseParams if kind == "dense" else LexicalParams).init(vocab.size, 3, seed=2)
        doc_tvs = vectorize_corpus(corpus, vocab)
        a, b = encode_corpus(params, corpus, vocab), encode_corpus(params, corpus, vocab, doc_tvs)
        if kind == "dense":
            assert a.matrix.tobytes() == b.matrix.tobytes()
        else:
            assert a.postings.keys() == b.postings.keys()
            for t, (rows, w) in a.postings.items():
                assert rows.tobytes() == b.postings[t][0].tobytes()
                assert w.tobytes() == b.postings[t][1].tobytes()


# Blocks of three passages: "d2" is all out of the min_df=2 vocabulary and
# "d4" is empty, so both encode to nothing.
BLOCK_DOCS = {
    "d0": "a b b", "d1": "b c", "d2": "x y", "d3": "a c c a", "d4": "", "d5": "c a", "d6": "b",
}
BLOCK_VOCAB = build_vocab(Corpus.from_docs(BLOCK_DOCS), min_df=2)


def block_model(kind):
    cls = DenseParams if kind == "dense" else LexicalParams
    params = cls.init(BLOCK_VOCAB.size, 4, seed=7)
    rng = np.random.default_rng(7)
    # Random biases switch some lexical terms off and move dense outputs.
    params.bias[:] = rng.normal(scale=0.2, size=params.bias.shape)
    return params


class TestEncodeBlocks:
    """`encode_corpus` with a model deals blocks of `ENCODE_BLOCK` passages
    over the usable CPUs; the index has the bytes of a passage-by-passage
    encoding for any CPU count and block split."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["dense", "lexical"])
    @pytest.mark.parametrize("given", [False, True], ids=["vectorized", "doc_tvs"])
    @pytest.mark.parametrize("n_docs", [0, 1, 3, 4, 7])
    def test_same_bytes_on_any_cpus_and_blocks(self, monkeypatch, cpus, kind, given, n_docs):
        set_usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(retrieval, "ENCODE_BLOCK", 3)
        corpus = Corpus.from_docs(dict(list(BLOCK_DOCS.items())[:n_docs]))
        params = block_model(kind)
        doc_tvs = {pid: vectorize(text, BLOCK_VOCAB) for pid, text in sorted(corpus.docs.items())}
        index = encode_corpus(params, corpus, BLOCK_VOCAB, doc_tvs if given else None)
        assert index.kind == kind
        assert index.pids == sorted(corpus.docs)
        if kind == "dense":
            rows = [per_input_dense_encode(doc_tvs[pid], params) for pid in index.pids]
            expected = np.array(rows).reshape(n_docs, params.dim)
            assert index.matrix.shape == expected.shape
            assert index.matrix.tobytes() == expected.tobytes()
        else:
            oracle = per_passage_lexical_index(params, doc_tvs)
            assert index.pids == oracle.pids
            assert index.doc_len.tobytes() == oracle.doc_len.tobytes()
            assert index.total_tokens == oracle.total_tokens
            assert list(index.postings) == list(oracle.postings)
            for t, (rows, w) in oracle.postings.items():
                assert index.postings[t][0].tobytes() == rows.tobytes()
                assert index.postings[t][1].tobytes() == w.tobytes()
        assert_no_children()

    def test_empty_collection_index_kind_follows_the_model(self):
        corpus = Corpus.from_docs({})
        vocab = build_vocab(corpus)
        lexical = LexicalParams.init(vocab.size, 4, seed=0)
        index = encode_corpus(lexical, corpus, vocab)
        assert index.kind == "lexical" and index.n_docs == 0
        rankings = Retriever(lexical, index, vocab).search_all({"q1": "a b", "q2": ""}, 10)
        assert [(r.ids, len(r.scores)) for r in rankings.values()] == [([], 0), ([], 0)]
        dense = encode_corpus(DenseParams.init(vocab.size, 4, seed=0), corpus, vocab)
        assert dense.matrix.shape == (0, 4)

    @pytest.mark.parametrize("kind", ["dense", "lexical"])
    def test_a_missing_vector_raises_the_same_key_error_on_any_cpus(self, monkeypatch, kind):
        # Blocks of three: "d4" sits in the second block, a child's on two CPUs.
        monkeypatch.setattr(retrieval, "ENCODE_BLOCK", 3)
        corpus = Corpus.from_docs(BLOCK_DOCS)
        doc_tvs = {pid: vectorize(text, BLOCK_VOCAB) for pid, text in BLOCK_DOCS.items() if pid != "d4"}
        errors = []
        for cpus in (1, 2):
            set_usable_cpus(monkeypatch, cpus)
            with pytest.raises(KeyError) as err:
                encode_corpus(block_model(kind), corpus, BLOCK_VOCAB, doc_tvs)
            errors.append((type(err.value), err.value.args))
            assert_no_children()
        assert errors == [(KeyError, ("d4",))] * 2


# (|V|, dim) pairs whose score table, in blocks of `ROW_EXACT_MULADDS //
# (|V| dim)` rows, would end in a block of one row.
ONE_ROW_LAST_BLOCK = [
    (v, d) for v in range(2, 301) for d in range(1, 65)
    if 2 <= (rows := ROW_EXACT_MULADDS // (v * d)) < v and v % rows == 1
]


def table_model(case, seed, vocab_size, dim):
    """A lexical model: fresh from `init` (half its scores positive), or
    random with some terms off, with one NaN entry, or with a bias rounding
    tie between tokens 0 and 1 on term 2."""
    if case == "init":
        return LexicalParams.init(vocab_size, dim, seed)
    rng = np.random.default_rng(seed)
    p = LexicalParams(vocab_size, dim)
    p.emb, p.expand = rng.uniform(-0.8, 0.8, size=(2, vocab_size, dim))
    p.bias = rng.uniform(-0.3, 0.1, size=vocab_size)
    if case == "nan":
        p.flat[rng.integers(p.flat.size)] = np.nan
    if case == "tie" and vocab_size >= 3:
        # Token 0 scores 1 and token 1 scores 1 + 2^-52 on term 2; the bias
        # 1.0 rounds both sums to 2.0.
        p.emb[:2], p.expand[2] = 0.0, 0.0
        p.emb[:2, 0], p.expand[2, 0], p.bias[2] = [1.0, np.nextafter(1.0, 2.0)], 1.0, 1.0
    return p


class TestEncodeFromTheTable:
    """A lexical `encode_corpus` reads each passage of 2 to `max_tokens`
    tokens from one score table per checkpoint, and gives any other its own
    product; the index has the bits of a passage-by-passage
    `per_input_lexical_encode`, and so do the same inputs as queries of a
    `Retriever` and of `model_teacher`, which encode through the table too."""

    @given(case=st.sampled_from(["random", "init", "nan", "tie"]), seed=st.integers(0, 10_000),
           sizes=st.one_of(st.sampled_from(ONE_ROW_LAST_BLOCK),
                           st.tuples(st.integers(1, 300), st.integers(1, 64))),
           lens=st.lists(st.integers(0, 100), max_size=4))
    @example(case="random", seed=1, sizes=(300, 64), lens=[100])  # 100 x 300 x 64 > 10^6
    @example(case="random", seed=2, sizes=(139, 52), lens=[2])  # a one-row last block
    @settings(max_examples=150, deadline=None)
    def test_matches_per_passage_encode(self, case, seed, sizes, lens):
        vocab_size, dim = sizes
        p = table_model(case, seed, vocab_size, dim)
        rng = np.random.default_rng(seed)
        passages = [
            [],  # all out of the vocabulary
            rng.choice(vocab_size, size=1).tolist(),
            list(range(vocab_size))[-2:],  # the table's last rows
            list(range(vocab_size))[:2],  # the tie, in that case
            *(rng.choice(vocab_size, size=min(n, vocab_size), replace=False).tolist()
              for n in [100, *lens]),
        ]
        doc_tvs = {f"d{i}": TermVector(counts={t: 1 for t in ids}, n=len(ids) + 1)
                   for i, ids in enumerate(passages)}
        # With the vectors given, the texts and the vocabulary go unread.
        index = encode_corpus(p, Corpus.from_docs({pid: "x" for pid in doc_tvs}), BLOCK_VOCAB, doc_tvs)
        oracle = per_passage_lexical_index(p, doc_tvs)
        assert index.pids == oracle.pids
        assert list(index.postings) == list(oracle.postings)
        for t, (rows, w) in oracle.postings.items():
            assert index.postings[t][0].tobytes() == rows.tobytes()
            assert index.postings[t][1].tobytes() == w.tobytes()

        # The passages again as query texts over a vocabulary of "t<id>" terms.
        terms = [f"t{i}" for i in range(vocab_size)]
        vocab = Vocabulary({term: i for i, term in enumerate(terms)}, terms)
        texts = {pid: " ".join(terms[t] for t in ids) for pid, ids in zip(doc_tvs, passages)}
        q_vecs = {pid: per_input_lexical_encode(tv, p) for pid, tv in doc_tvs.items()}
        vecs = LexicalTable(p).vectors(TokenBatch.of(list(doc_tvs.values())))
        assert [(v.terms.tobytes(), v.weights.tobytes()) for v in vecs] == [
            (v.terms.tobytes(), v.weights.tobytes()) for v in q_vecs.values()]
        retriever = Retriever(p, index, vocab)
        rankings = retriever.search_all(texts, len(texts))
        teacher = model_teacher(retriever, QuerySet(queries=texts))
        for qid, q_vec in q_vecs.items():
            want = sparse_search(q_vec, oracle, len(texts), qid=qid)
            assert rankings[qid].ids == want.ids
            assert rankings[qid].scores.tobytes() == want.scores.tobytes()
            assert teacher(qid, oracle.pids).tobytes() == sparse_scores(q_vec, oracle).tobytes()


class TestDenseSearch:
    def test_k_at_least_n_returns_full(self):
        index = DenseIndex(pids=["a", "b"], matrix=np.eye(2))
        ranking = dense_search(np.array([1.0, 0.0]), index, k=10)
        assert len(ranking.entries) == 2

    def test_matching_row_first(self):
        rng = np.random.default_rng(0)
        mat, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        index = DenseIndex(pids=[f"d{i}" for i in range(6)], matrix=mat)
        ranking = dense_search(mat[3], index, k=1)
        assert ranking.pids() == ["d3"]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        mat = rng.normal(size=(500, 8))
        pids = [f"d{i:04d}" for i in range(500)]
        index = DenseIndex(pids=pids, matrix=mat)
        for _ in range(5):
            q = rng.normal(size=8)
            scores = {pid: float(mat[i] @ q) for i, pid in enumerate(pids)}
            expected = sorted(scores.items(), key=lambda e: (-e[1], e[0]))
            got = dense_search(q, index, k=500)
            assert got.pids() == [pid for pid, _ in expected]

    def test_tie_break_by_pid(self):
        index = DenseIndex(pids=["b", "a", "c"], matrix=np.zeros((3, 2)))
        # Zero scores everywhere: ranking must be ascending pid.
        index.pids = sorted(index.pids)
        ranking = dense_search(np.ones(2), index, k=3)
        assert ranking.pids() == ["a", "b", "c"]


class TestMakeRunAndIO:
    def _setup(self):
        corpus = Corpus.from_docs({f"d{i}": f"w{i % 4} w{(i + 1) % 4}" for i in range(12)})
        vocab = build_vocab(corpus)
        queries = QuerySet(queries={"q1": "w0 w1", "q2": "w2"})
        return corpus, vocab, queries

    def test_run_depth_capped(self):
        corpus, vocab, queries = self._setup()
        params = DenseParams.init(vocab.size, 4, 0)
        index = encode_corpus(params, corpus, vocab)
        run = make_run(params, queries, index, vocab, k=5, tag="x")
        assert all(len(r.entries) <= 5 for r in run.rankings.values())

    def test_deterministic(self):
        corpus, vocab, queries = self._setup()
        params = DenseParams.init(vocab.size, 4, 0)
        index = encode_corpus(params, corpus, vocab)
        a = make_run(params, queries, index, vocab, k=12, tag="x")
        b = make_run(params, queries, index, vocab, k=12, tag="x")
        assert list(a.rankings) == list(b.rankings)
        for qid, ranking in a.rankings.items():
            assert ranking.pids() == b.rankings[qid].pids()
            assert ranking.scores.tobytes() == b.rankings[qid].scores.tobytes()

    def test_composition_equals_per_query_search(self):
        corpus, vocab, queries = self._setup()
        params = DenseParams.init(vocab.size, 4, 0)
        index = encode_corpus(params, corpus, vocab)
        run = make_run(params, queries, index, vocab, k=12, tag="x")
        for qid, text in queries.queries.items():
            vec = per_input_dense_encode(vectorize(text, vocab), params)
            assert run.rankings[qid].entries == dense_search(vec, index, 12, qid=qid).entries

    def test_bm25_run(self):
        corpus, vocab, queries = self._setup()
        from lexlab.sparse_index import build_index

        index = build_index(vectorize_corpus(corpus, vocab))
        run = make_run(None, queries, index, vocab, k=3, tag="bm25")
        assert len(run.rankings) == 2

    def test_run_file_roundtrip(self, tmp_path):
        run = run_from({"q1": [("d1", 1.25), ("d2", 0.5)], "q2": [("d3", 9.0)]}, tag="rt")
        path = tmp_path / "run.trec"
        save_run(run, path)
        text = path.read_text().splitlines()
        assert text[0] == "q1 Q0 d1 1 1.250000 rt"
        loaded = load_run(path)
        assert loaded.tag == "rt"
        assert loaded.rankings["q2"].entries == [("d3", 9.0)]

    def test_save_run_keeps_percent_signs(self, tmp_path):
        run = run_from({"q%d": [("d%s", 1.5), ("d2", -0.5)], "q2": [("d1", 0.25)]}, tag="t%.6f")
        path = tmp_path / "run.trec"
        save_run(run, path)
        assert path.read_text().splitlines() == [
            "q%d Q0 d%s 1 1.500000 t%.6f",
            "q%d Q0 d2 2 -0.500000 t%.6f",
            "q2 Q0 d1 1 0.250000 t%.6f",
        ]

    def test_load_run_matches_tuple_reader(self, tmp_path):
        # Interleaved queries, a pid listed twice, signed zeros and a run of
        # ties; the reader the array form replaced is the oracle.
        lines = [
            "q2 Q0 d1 1 3.500000 t", "q1 Q0 d4 1 -0.000000 t", "q2 Q0 d2 2 1.000000 t",
            "q2 Q0 d1 3 0.250000 t", "q1 Q0 d5 2 0.000000 t", "q3 Q0 d9 1 -1e-300 t",
            "q2 Q0 d3 4 1.000000 t", "q1 Q0 d6 3 -7.125000 t",
        ]
        path = tmp_path / "run.trec"
        path.write_text("\n".join(lines) + "\n")
        expected: dict[str, list[tuple[str, float]]] = {}
        for line in lines:
            qid, _, pid, _, score, _ = line.split()
            expected.setdefault(qid, []).append((pid, float(score)))
        loaded = load_run(path)
        assert list(loaded.rankings) == list(expected)
        for qid, entries in expected.items():
            got = loaded.rankings[qid]
            assert got.qid == qid
            assert [(p, s.hex()) for p, s in got.entries] == [(p, s.hex()) for p, s in entries]
            assert got.scores.dtype == np.float64

    def test_load_run_rejects_short_line_and_reads_empty_file(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 0.5\n")
        with pytest.raises(FormatError, match=r"run.trec:2: expected 6 TREC run columns"):
            load_run(path)
        path.write_text("")
        empty = load_run(path)
        assert empty.rankings == {} and empty.tag == "run"

    def test_save_run_matches_per_line_formatter(self, tmp_path):
        # Negative, signed-zero, large and half-ulp-of-six-decimals scores.
        edge = [-1.25, -0.0, 0.0, -2.5e-7, 2.5e-7, 5e-7, -5e-7, 1.0000005, 0.1234565,
                2.0000015, 123456.0000005, 1e17, -3.5e300, 1e-320]
        run = run_from({
            "q1": [(f"d{i}", s) for i, s in enumerate(edge)],
            "q2": [],
            "q3": [("d9", -12.3456785)],
        }, tag="fmt")
        path = tmp_path / "run.trec"
        save_run(run, path)
        expected = "".join(
            f"{qid} Q0 {pid} {rank} {score:.6f} {run.tag}\n"
            for qid in run.rankings
            for rank, (pid, score) in enumerate(run.rankings[qid].entries, 1)
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert "q1 Q0 d1 2 -0.000000 fmt" in expected.splitlines()

    def test_dense_run_batches_queries_exactly(self):
        # Queries of several lengths, one all out of vocabulary and one empty,
        # encode in one batch; each ranking equals its own one-query search.
        corpus, vocab, _ = self._setup()
        queries = QuerySet(queries={"q1": "w0 w1", "q2": "w2", "q3": "zz", "q4": "",
                                    "q5": "w3 w0 w1 w0", "q6": "w1"})
        params = DenseParams.init(vocab.size, 4, 3)
        params.proj[:] = np.random.default_rng(3).normal(size=params.proj.shape)
        index = encode_corpus(params, corpus, vocab)
        run = make_run(params, queries, index, vocab, k=12, tag="x")
        assert list(run.rankings) == list(queries.queries)
        for qid, text in queries.queries.items():
            vec = per_input_dense_encode(vectorize(text, vocab), params)
            expected = dense_search(vec, index, 12, qid=qid).entries
            assert [(p, s.hex()) for p, s in run.rankings[qid].entries] == [
                (p, s.hex()) for p, s in expected]


class TestRetriever:
    def _setup(self):
        corpus = Corpus.from_docs({f"d{i}": f"w{i % 4} w{(i + 1) % 4} w{i % 3}" for i in range(12)})
        vocab = build_vocab(corpus)
        dense = DenseParams.init(vocab.size, 4, 0)
        lexical = LexicalParams.init(vocab.size, 4, 0)
        indexes = {
            "bm25": build_index(vectorize_corpus(corpus, vocab)),
            "dense": encode_corpus(dense, corpus, vocab),
            "lexical": encode_corpus(lexical, corpus, vocab),
        }
        return vocab, {"bm25": None, "dense": dense, "lexical": lexical}, indexes

    def test_each_kind_searches_as_its_search_function(self):
        vocab, params, indexes = self._setup()
        tv = vectorize("w1 w2", vocab)
        expected = {
            "bm25": bm25_search(tv, indexes["bm25"], 5, k1=0.9, b=0.4, qid="q"),
            "dense": dense_search(
                per_input_dense_encode(tv, params["dense"]), indexes["dense"], 5, qid="q"
            ),
            "lexical": sparse_search(
                per_input_lexical_encode(tv, params["lexical"]), indexes["lexical"], 5, qid="q"
            ),
        }
        for kind, index in indexes.items():
            got = Retriever(params[kind], index, vocab, k1=0.9, b=0.4).search("w1 w2", 5, qid="q")
            assert got == expected[kind]

    def test_index_freed_when_the_run_is_done(self):
        # A reference cycle through the retriever would keep the index alive
        # until the cyclic collector runs, raising peak memory.
        vocab, params, indexes = self._setup()
        for kind in list(indexes):
            ref = weakref.ref(indexes[kind])
            gc.disable()
            try:
                make_run(params[kind], QuerySet(queries={"q": "w1"}), indexes.pop(kind), vocab, k=3)
                assert ref() is None
            finally:
                gc.enable()

    @pytest.mark.parametrize(
        "model, index_kind", list(itertools.permutations(["bm25", "dense", "lexical"], 2))
    )
    def test_kind_mismatch_rejected(self, model, index_kind):
        vocab, params, indexes = self._setup()
        named = f"{index_kind} index .*, got {'no' if model == 'bm25' else 'a ' + model} model"
        with pytest.raises(TypeError, match=named):
            Retriever(params[model], indexes[index_kind], vocab)
        with pytest.raises(TypeError, match=named):
            make_run(params[model], QuerySet(queries={"q": "w1"}), indexes[index_kind], vocab)


class TestMetrics:
    def test_mrr_first_relevant_rank_three(self):
        run = run_from({"q": [("a", 3.0), ("b", 2.0), ("rel", 1.0)]})
        qrels = self._qrels({("q", "rel"): 1})
        assert mrr_at_k(run, qrels, k=10).per_query["q"] == pytest.approx(1 / 3)

    def test_mrr_cutoff(self):
        entries = [(f"f{i}", 100.0 - i) for i in range(10)] + [("rel", 1.0)]
        run = run_from({"q": entries})
        qrels = self._qrels({("q", "rel"): 1})
        assert mrr_at_k(run, qrels, k=10).per_query["q"] == 0.0

    def test_recall_extremes(self):
        run = run_from({"q": [("a", 2.0), ("b", 1.0)]})
        qrels = self._qrels({("q", "a"): 1, ("q", "b"): 1})
        assert recall_at_k(run, qrels, k=2).per_query["q"] == 1.0
        qrels_miss = self._qrels({("q", "zz"): 1})
        assert recall_at_k(run, qrels_miss, k=2).per_query["q"] == 0.0

    def test_a_passage_listed_twice_counts_at_its_first_rank(self):
        run = run_from({"q1": [("d1", 3.0), ("d1", 2.0), ("d2", 1.0)]})
        qrels = self._qrels({("q1", "d1"): 1, ("q1", "d3"): 1})
        assert recall_at_k(run, qrels, k=50).per_query["q1"] == 0.5
        ndcg = ndcg_at_k(run, qrels, k=10).per_query["q1"]
        assert ndcg == pytest.approx(1 / (1 + 1 / math.log2(3)))
        assert round(ndcg, 3) == 0.613
        assert mrr_at_k(run, qrels, k=10).per_query["q1"] == 1.0

    def test_ndcg_perfect_ordering(self):
        run = run_from({"q": [("a", 2.0), ("b", 1.0)]})
        qrels = self._qrels({("q", "a"): 3, ("q", "b"): 1})
        assert ndcg_at_k(run, qrels, k=10).per_query["q"] == pytest.approx(1.0)

    def test_ndcg_hand_example(self):
        # Graded qrels {d1: 3, d2: 1}, run [d2, d1]:
        # DCG = 1/log2(2) + 3/log2(3); IDCG = 3/log2(2) + 1/log2(3).
        run = run_from({"q": [("d2", 2.0), ("d1", 1.0)]})
        qrels = self._qrels({("q", "d1"): 3, ("q", "d2"): 1})
        dcg = 1.0 / math.log2(2) + 3.0 / math.log2(3)
        idcg = 3.0 / math.log2(2) + 1.0 / math.log2(3)
        assert ndcg_at_k(run, qrels, k=10).per_query["q"] == pytest.approx(
            dcg / idcg, abs=1e-12
        )
        assert dcg / idcg == pytest.approx(0.7967, abs=5e-5)

    def test_ndcg_single_relevant_at_rank_one(self):
        run = run_from({"q": [("a", 1.0)]})
        for grade in (1, 2, 3):
            qrels = self._qrels({("q", "a"): grade})
            assert ndcg_at_k(run, qrels, k=10).per_query["q"] == pytest.approx(1.0)

    def test_query_missing_from_run_scores_zero(self):
        run = run_from({"q1": [("a", 1.0)]})
        qrels = self._qrels({("q1", "a"): 1, ("q2", "b"): 1})
        result = mrr_at_k(run, qrels, k=10)
        assert result.per_query["q2"] == 0.0
        assert result.mean == pytest.approx(0.5)

    def test_permutations_beyond_k_invariant(self):
        base = [("r", 10.0)] + [(f"f{i}", 5.0 - i * 0.1) for i in range(20)]
        qrels = self._qrels({("q", "r"): 1})
        run_a = run_from({"q": base})
        swapped = base[:10] + base[10:][::-1]
        run_b = run_from({"q": swapped})
        assert (
            mrr_at_k(run_a, qrels, 10).mean == mrr_at_k(run_b, qrels, 10).mean
        )
        assert (
            ndcg_at_k(run_a, qrels, 10).mean == ndcg_at_k(run_b, qrels, 10).mean
        )

    @staticmethod
    def _qrels(entries):
        from lexlab.data import Qrels

        return Qrels.from_entries(entries)


class TestEvaluate:
    def test_fixture_matches_hand_computation(self):
        run = load_run(FIXTURE / "run.trec")
        qrels = load_qrels(FIXTURE / "qrels.txt")
        report = evaluate(run, qrels, ("mrr@10", "recall@50", "recall@1000", "ndcg@10"))
        ndcg_q1 = (1 / math.log2(2) + 3 / math.log2(3)) / (3 / math.log2(2) + 1 / math.log2(3))
        assert report.mean("mrr@10") == pytest.approx((1.0 + 1 / 3 + 0.0) / 3, abs=1e-9)
        assert report.mean("recall@50") == pytest.approx((1.0 + 1.0 + 0.5) / 3, abs=1e-9)
        assert report.mean("recall@1000") == pytest.approx(1.0, abs=1e-9)
        assert report.mean("ndcg@10") == pytest.approx((ndcg_q1 + 0.5 + 0.0) / 3, abs=1e-9)

    def test_fixture_exponential_gain_by_hand(self):
        # q1 ranks d2 (grade 1) above d1 (grade 3); q2's d7 (grade 1) is
        # third; q3's d9 (grade 2) is eleventh and d10 (grade 1) sixtieth.
        run = load_run(FIXTURE / "run.trec")
        qrels = load_qrels(FIXTURE / "qrels.txt")
        q1 = (1 + 7 / math.log2(3)) / (7 + 1 / math.log2(3))
        at10 = ndcg_at_k(run, qrels, 10, exponential_gain=True)
        assert at10.per_query == pytest.approx({"q1": q1, "q2": 0.5, "q3": 0.0}, abs=1e-12)
        assert at10.mean == pytest.approx((q1 + 0.5) / 3, abs=1e-12)
        q3 = (3 / math.log2(12)) / (3 + 1 / math.log2(3))
        at20 = ndcg_at_k(run, qrels, 20, exponential_gain=True)
        assert at20.per_query == pytest.approx({"q1": q1, "q2": 0.5, "q3": q3}, abs=1e-12)
        linear = ndcg_at_k(run, qrels, 20)
        assert linear.per_query["q3"] == pytest.approx(
            (2 / math.log2(12)) / (2 + 1 / math.log2(3)), abs=1e-12
        )
        report = evaluate(run, qrels, ("ndcg@10",), exponential_gain=True)
        assert report.results["ndcg@10"] == at10

    def test_all_metrics_in_unit_interval(self):
        run = load_run(FIXTURE / "run.trec")
        qrels = load_qrels(FIXTURE / "qrels.txt")
        report = evaluate(run, qrels)
        for result in report.results.values():
            assert 0.0 <= result.mean <= 1.0
            assert all(0.0 <= v <= 1.0 for v in result.per_query.values())

    def test_mean_is_arithmetic_mean(self):
        run = load_run(FIXTURE / "run.trec")
        qrels = load_qrels(FIXTURE / "qrels.txt")
        report = evaluate(run, qrels)
        for result in report.results.values():
            vals = list(result.per_query.values())
            assert result.mean == pytest.approx(sum(vals) / len(vals), abs=1e-12)

    def test_disjoint_queries_error(self):
        run = run_from({"q9": [("a", 1.0)]})
        from lexlab.data import Qrels

        with pytest.raises(ValueError):
            evaluate(run, Qrels.from_entries({("q1", "a"): 1}))

    def test_report_format_parses(self):
        run = load_run(FIXTURE / "run.trec")
        qrels = load_qrels(FIXTURE / "qrels.txt")
        text = format_report(evaluate(run, qrels), per_query=True)
        for line in text.strip().splitlines():
            metric, qid, value = line.split("\t")
            assert "@" in metric
            float(value)

    def test_unknown_metric_rejected(self):
        run = run_from({"q1": [("a", 1.0)]})
        from lexlab.data import Qrels

        qrels = Qrels.from_entries({("q1", "a"): 1})
        with pytest.raises(ValueError):
            evaluate(run, qrels, ("precision@5",))

    @pytest.mark.parametrize("spec", ["mrr@-1", "recall@-1", "ndcg@0", "mrr@0"])
    def test_cutoff_below_one_rejected(self, spec):
        from lexlab.data import Qrels

        run = run_from({"q1": [("a", 1.0), ("b", 0.5)]})
        qrels = Qrels.from_entries({("q1", "a"): 1})
        with pytest.raises(ValueError, match=f"bad metric name '{spec}'"):
            evaluate(run, qrels, ("mrr@10", spec))

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexlab.data import Corpus, TermVector, build_vocab, vectorize, vectorize_corpus
from lexlab.encoders import TermWeightVector
from lexlab.sparse_index import (
    WeightSemanticsError,
    bm25_score,
    bm25_search,
    build_index,
    idf,
    load_index,
    save_index,
    sparse_search,
)


def tv(counts, n=None):
    return TermVector(counts=counts, n=n if n is not None else sum(counts.values()))


def by_term(terms, weights):
    """A `TermWeightVector` of terms drawn in any order, sorted by term."""
    terms, weights = np.asarray(terms, dtype=np.int64), np.asarray(weights, dtype=float)
    order = np.argsort(terms)
    return TermWeightVector(terms[order], weights[order])


def brute_force_bm25(query, vectors, k1=1.2, b=0.75):
    """Independent scalar reimplementation used as the oracle."""
    n_docs = len(vectors)
    total = sum(v.n for v in vectors.values())
    avgdl = total / n_docs
    df = {}
    for v in vectors.values():
        for t in v.counts:
            df[t] = df.get(t, 0) + 1
    scores = {}
    for pid, v in vectors.items():
        s = 0.0
        for t in sorted(query.counts):
            tf = v.counts.get(t, 0)
            if tf == 0 or t not in df:
                continue
            w = math.log(1.0 + (n_docs - df[t] + 0.5) / (df[t] + 0.5))
            s += w * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * v.n / avgdl))
        scores[pid] = s
    return scores


class TestBuildIndex:
    def test_postings_shape(self):
        index = build_index({"d1": tv({0: 2}), "d2": tv({0: 1, 1: 1})})
        rows0, w0 = index.postings[0]
        assert [index.pids[r] for r in rows0] == ["d1", "d2"]
        assert list(w0) == [2.0, 1.0]
        rows1, w1 = index.postings[1]
        assert [index.pids[r] for r in rows1] == ["d2"]

    def test_empty_corpus(self):
        index = build_index({})
        assert index.postings == {} and index.n_docs == 0

    def test_total_entries_equal_nonzeros(self):
        rng = np.random.default_rng(7)
        vectors = {}
        nonzeros = 0
        for i in range(500):
            terms = rng.choice(40, size=rng.integers(1, 10), replace=False)
            counts = {int(t): int(rng.integers(1, 5)) for t in terms}
            vectors[f"d{i:03d}"] = tv(counts)
            nonzeros += len(counts)
        index = build_index(vectors)
        assert sum(len(rows) for rows, _ in index.postings.values()) == nonzeros

    def test_posting_rows_strictly_increasing(self):
        vectors = {f"d{i}": tv({0: 1, i % 3: 1}) for i in range(20)}
        index = build_index(vectors)
        for rows, _ in index.postings.values():
            assert all(rows[i] < rows[i + 1] for i in range(len(rows) - 1))

    def test_df_matches_posting_length(self):
        vectors = {"a": tv({0: 1, 1: 2}), "b": tv({0: 3})}
        index = build_index(vectors)
        assert index.df(0) == 2 and index.df(1) == 1 and index.df(9) == 0


class TestBm25Score:
    def test_absent_term_contributes_zero(self):
        index = build_index({"d1": tv({0: 1}), "d2": tv({1: 1})})
        assert bm25_score(tv({1: 1}), "d1", index) == 0.0

    def test_single_doc_hand_value(self):
        # One doc "a", query "a": idf = ln(4/3), tf term cancels at |d| = avgdl.
        index = build_index({"d": tv({0: 1})})
        expected = math.log(4.0 / 3.0)
        assert bm25_score(tv({0: 1}), "d", index) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.28768, abs=5e-6)

    def test_three_doc_corpus_matches_oracle(self):
        vectors = {"d1": tv({0: 2, 1: 1}), "d2": tv({0: 1, 2: 4}), "d3": tv({2: 1}, n=3)}
        index = build_index(vectors)
        query = tv({0: 1, 2: 1})
        oracle = brute_force_bm25(query, vectors)
        for pid in vectors:
            assert bm25_score(query, pid, index) == pytest.approx(oracle[pid], abs=1e-9)

    def test_learned_weight_index_rejected(self):
        index = build_index({"d": by_term([0], [0.5])})
        with pytest.raises(WeightSemanticsError):
            bm25_score(tv({0: 1}), "d", index)
        with pytest.raises(WeightSemanticsError):
            bm25_search(tv({0: 1}), index, 1)

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_tf(self, tf):
        # Higher tf, all else fixed, never lowers the score.
        vectors = {"d1": tv({0: tf}, n=10), "d2": tv({0: tf + 1}, n=10), "pad": tv({1: 1}, n=10)}
        index = build_index(vectors)
        q = tv({0: 1})
        assert bm25_score(q, "d2", index) >= bm25_score(q, "d1", index)


class TestBm25Search:
    def _random_corpus(self, n_docs, n_terms, seed):
        rng = np.random.default_rng(seed)
        vectors = {}
        for i in range(n_docs):
            terms = rng.choice(n_terms, size=rng.integers(1, 8), replace=False)
            vectors[f"d{i:04d}"] = tv({int(t): int(rng.integers(1, 4)) for t in terms})
        return vectors

    def test_k_larger_than_corpus_returns_all(self):
        vectors = {"d1": tv({0: 1}), "d2": tv({1: 1})}
        ranking = bm25_search(tv({0: 1}), build_index(vectors), k=10)
        assert len(ranking.entries) == 2

    def test_term_overlap_outranks_none(self):
        vectors = {"hit": tv({0: 1, 1: 1}), "miss": tv({2: 1})}
        ranking = bm25_search(tv({0: 1, 1: 1}), build_index(vectors), k=2)
        assert ranking.pids()[0] == "hit"

    def test_matches_exhaustive_scoring(self):
        vectors = self._random_corpus(200, 30, seed=5)
        index = build_index(vectors)
        rng = np.random.default_rng(8)
        for _ in range(10):
            terms = rng.choice(30, size=3, replace=False)
            query = tv({int(t): 1 for t in terms})
            oracle = brute_force_bm25(query, vectors)
            expected = sorted(oracle.items(), key=lambda e: (-e[1], e[0]))
            got = bm25_search(query, index, k=len(vectors))
            assert got.pids() == [pid for pid, _ in expected]
            for (pid, score), (epid, escore) in zip(got.entries, expected):
                assert score == pytest.approx(escore, abs=1e-9)

    def test_deterministic_bytes(self):
        vectors = self._random_corpus(50, 10, seed=1)
        index = build_index(vectors)
        q = tv({0: 1, 3: 1})
        a = repr(bm25_search(q, index, k=50).entries)
        b = repr(bm25_search(q, index, k=50).entries)
        assert a == b


class TestSparseSearch:
    def test_empty_query_ranks_by_pid(self):
        vectors = {f"d{i}": by_term([0], [float(i + 1)]) for i in range(5)}
        ranking = sparse_search(by_term([], []), build_index(vectors), k=3)
        assert ranking.pids() == ["d0", "d1", "d2"]
        assert all(s == 0.0 for _, s in ranking.entries)

    def test_single_shared_term_orders_by_weight(self):
        vectors = {
            "a": by_term([7], [0.2]),
            "b": by_term([7], [0.9]),
            "c": by_term([7], [0.5]),
        }
        ranking = sparse_search(by_term([7], [1.0]), build_index(vectors), k=3)
        assert ranking.pids() == ["b", "c", "a"]

    def test_matches_dense_materialization(self):
        rng = np.random.default_rng(17)
        n_terms = 40
        vectors = {}
        for i in range(300):
            terms = rng.choice(n_terms, size=rng.integers(1, 9), replace=False)
            vectors[f"d{i:03d}"] = by_term(terms, rng.uniform(0.01, 2.0, size=len(terms)))
        index = build_index(vectors)
        for _ in range(10):
            q_terms = rng.choice(n_terms, size=4, replace=False)
            query = by_term(q_terms, rng.uniform(0.1, 1.0, size=len(q_terms)))
            dense_q = np.zeros(n_terms)
            dense_q[query.terms] = query.weights
            oracle = {}
            for pid, vec in vectors.items():
                dense_d = np.zeros(n_terms)
                dense_d[vec.terms] = vec.weights
                oracle[pid] = float(dense_q @ dense_d)
            expected = sorted(oracle.items(), key=lambda e: (-e[1], e[0]))
            got = sparse_search(query, index, k=len(vectors))
            assert got.pids() == [pid for pid, _ in expected]
            for (pid, score), (_, escore) in zip(got.entries, expected):
                assert score == pytest.approx(escore, abs=1e-9)

    def test_raw_count_index_rejected(self):
        index = build_index({"d": tv({0: 1})})
        with pytest.raises(WeightSemanticsError):
            sparse_search(by_term([0], [1.0]), index, 1)


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        corpus = Corpus.from_docs({"d1": "a b b", "d2": "b c", "d3": "a"})
        vocab = build_vocab(corpus)
        index = build_index(vectorize_corpus(corpus, vocab))
        path = tmp_path / "idx.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.pids == index.pids
        assert loaded.semantics == index.semantics
        assert loaded.total_tokens == index.total_tokens
        assert loaded.doc_len.tobytes() == index.doc_len.tobytes()
        assert set(loaded.postings) == set(index.postings)
        for t in index.postings:
            assert loaded.postings[t][0].tobytes() == index.postings[t][0].tobytes()
            assert loaded.postings[t][1].tobytes() == index.postings[t][1].tobytes()

    def test_search_identical_after_reload(self, tmp_path):
        corpus = Corpus.from_docs({f"d{i}": f"w{i % 5} w{i % 3}" for i in range(30)})
        vocab = build_vocab(corpus)
        index = build_index(vectorize_corpus(corpus, vocab))
        save_index(index, tmp_path / "i.bin")
        loaded = load_index(tmp_path / "i.bin")
        q = vectorize("w1 w2", vocab)
        assert bm25_search(q, index, 30).entries == bm25_search(q, loaded, 30).entries


def test_idf_non_negative():
    for n in (1, 10, 1000):
        for df in range(1, n + 1):
            assert idf(n, df) >= 0.0

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexlab.data import TermVector
from lexlab.encoders import TermWeightVector
from lexlab.sparse_index import (
    Ranking,
    WeightSemanticsError,
    bm25_search,
    build_index,
    idf,
    sparse_search,
    top_k,
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


def bm25_by_pid(query, index):
    """Every passage's BM25 score, read off a full-depth `bm25_search`."""
    return dict(bm25_search(query, index, k=index.n_docs).entries)


class TestBm25Score:
    def test_absent_term_contributes_zero(self):
        index = build_index({"d1": tv({0: 1}), "d2": tv({1: 1})})
        assert bm25_by_pid(tv({1: 1}), index)["d1"] == 0.0

    def test_single_doc_hand_value(self):
        # One doc "a", query "a": idf = ln(4/3), tf term cancels at |d| = avgdl.
        index = build_index({"d": tv({0: 1})})
        expected = math.log(4.0 / 3.0)
        assert bm25_by_pid(tv({0: 1}), index)["d"] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.28768, abs=5e-6)

    def test_three_doc_corpus_matches_oracle(self):
        vectors = {"d1": tv({0: 2, 1: 1}), "d2": tv({0: 1, 2: 4}), "d3": tv({2: 1}, n=3)}
        index = build_index(vectors)
        query = tv({0: 1, 2: 1})
        oracle = brute_force_bm25(query, vectors)
        scores = bm25_by_pid(query, index)
        for pid in vectors:
            assert scores[pid] == pytest.approx(oracle[pid], abs=1e-9)

    def test_learned_weight_index_rejected(self):
        index = build_index({"d": by_term([0], [0.5])})
        with pytest.raises(WeightSemanticsError):
            bm25_search(tv({0: 1}), index, 1)

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_tf(self, tf):
        # Higher tf, all else fixed, never lowers the score.
        vectors = {"d1": tv({0: tf}, n=10), "d2": tv({0: tf + 1}, n=10), "pad": tv({1: 1}, n=10)}
        index = build_index(vectors)
        scores = bm25_by_pid(tv({0: 1}), index)
        assert scores["d2"] >= scores["d1"]


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


def test_idf_non_negative():
    for n in (1, 10, 1000):
        for df in range(1, n + 1):
            assert idf(n, df) >= 0.0


def argsort_top_k(pids, scores, k):
    """The first k of the full stable argsort of -scores: the `top_k` oracle."""
    order = np.argsort(-scores, kind="stable")[:k]
    return [pids[i] for i in order], scores[order]


class TestTopK:
    def check(self, scores, k):
        scores = np.asarray(scores, dtype=np.float64)
        pids = [f"d{i:04d}" for i in range(len(scores))]
        got = top_k(pids, scores, k, qid="q")
        ids, want = argsort_top_k(pids, scores, k)
        assert got.qid == "q"
        assert got.ids == ids
        assert got.scores.tobytes() == want.tobytes()

    def test_ties_straddling_the_cutoff(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 80))
            # Four distinct values: most cutoffs fall inside a run of ties.
            scores = rng.integers(0, 4, size=n).astype(np.float64)
            for k in (1, 2, n // 2 or 1, n - 1, n, n + 5):
                self.check(scores, k)

    def test_signed_zeros_infinities_and_nan(self):
        rng = np.random.default_rng(1)
        values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0])
        for _ in range(3000):
            n = int(rng.integers(1, 40))
            scores = rng.choice(values, size=n)
            self.check(scores, int(rng.integers(1, n + 3)))

    def test_fewer_than_k_scores_that_are_not_nan(self):
        self.check([np.nan, 2.0, np.nan, np.nan, 1.0, np.nan], 3)
        self.check([np.nan, np.nan, np.nan], 1)

    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64)
            | st.sampled_from([0.0, -0.0, 1.0]),
            min_size=1,
            max_size=50,
        ),
        k=st.integers(min_value=1, max_value=60),
    )
    def test_matches_full_stable_argsort(self, scores, k):
        self.check(scores, k)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            top_k(["a"], np.array([1.0]), 0)


class TestRanking:
    def test_entries_are_derived_pairs_of_python_floats(self):
        ranking = Ranking(qid="q", ids=["b", "a"], scores=np.array([2.0, -0.0]))
        assert ranking.entries == [("b", 2.0), ("a", -0.0)]
        assert all(type(score) is float for _, score in ranking.entries)
        assert ranking.pids() is ranking.ids

    def test_misaligned_fields_rejected(self):
        with pytest.raises(ValueError, match="one score per passage id"):
            Ranking(qid="q", ids=["a", "b"], scores=np.array([1.0]))

    def test_equality_compares_ids_and_scores(self):
        a = Ranking(qid="q", ids=["a"], scores=np.array([1.0]))
        assert a == Ranking(qid="q", ids=["a"], scores=np.array([1.0]))
        assert a != Ranking(qid="q", ids=["a"], scores=np.array([2.0]))
        assert a != Ranking(qid="q", ids=["b"], scores=np.array([1.0]))
        assert a != Ranking(qid="r", ids=["a"], scores=np.array([1.0]))

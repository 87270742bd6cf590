import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexlab.data import TermVector
from lexlab.encoders import (
    DenseParams,
    LexicalParams,
    LexicalRoutes,
    TermWeightVector,
    TokenBatch,
    dense_backward_batch,
    dense_encode,
    dense_encode_batch,
    lexical_encode,
    lexical_trace,
    load_params,
    params_digest,
    params_from_tensors,
    relevance,
    save_params,
    token_row,
)
from lexlab.data import CheckpointMeta
from lexlab.gradcheck import fd_max_rel_error, grad_check
from lexlab.sparse_index import build_index, sparse_scores


def tv(counts):
    return TermVector(counts=counts, n=sum(counts.values()))


def vector(terms, weights):
    return TermWeightVector(np.array(terms, dtype=np.int64), np.array(weights, dtype=float))


def rand_dense(vocab_size=9, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    p = DenseParams.init(vocab_size, dim, seed)
    p.proj = rng.uniform(-0.6, 0.6, size=(dim, dim))
    p.bias = rng.uniform(-0.3, 0.3, size=dim)
    return p


def rand_lexical(vocab_size=9, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    p = LexicalParams.init(vocab_size, dim, seed)
    p.emb = rng.uniform(-0.8, 0.8, size=(vocab_size, dim))
    p.expand = rng.uniform(-0.8, 0.8, size=(vocab_size, dim))
    p.bias = rng.uniform(-0.2, 0.2, size=vocab_size)
    return p


def one_row(sample):
    return TokenBatch([token_row(sample)])


class TestDenseEncode:
    def test_identity_projection_single_token(self):
        p = DenseParams.init(6, 3, seed=1)  # proj = I, bias = 0
        out = dense_encode(tv({4: 1}), p)
        assert np.array_equal(out, p.emb[4])

    def test_zero_embeddings_give_bias(self):
        p = rand_dense()
        p.emb[:] = 0.0
        out = dense_encode(tv({0: 1, 1: 2}), p)
        assert np.allclose(out, p.bias, atol=0)

    def test_count_weighted_mean_matches_direct(self):
        p = rand_dense(seed=3)
        out, pooled = dense_encode_batch(p, one_row(tv({0: 2, 1: 1})))
        h = (2 * p.emb[0] + p.emb[1]) / 3
        assert np.allclose(pooled[0], h, atol=1e-15)
        assert np.allclose(out[0], p.proj @ h + p.bias, atol=1e-15)
        assert out[0].tobytes() == dense_encode(tv({0: 2, 1: 1}), p).tobytes()

    def test_empty_input_zero_vector(self):
        p = rand_dense()
        empty = TermVector(counts={}, n=2)
        assert np.array_equal(dense_encode(empty, p), np.zeros(p.dim))
        assert one_row(empty).empty[0]


class TestLexicalEncode:
    def test_all_gated_off_gives_empty(self):
        p = rand_lexical()
        p.expand[:] = 0.0
        p.bias[:] = -1.0
        vec = lexical_encode(tv({0: 1, 2: 1}), p)
        assert len(vec.terms) == 0 and vec.terms.dtype == np.int64 and vec.weights.dtype == np.float64

    def test_preactivation_e_minus_one_gives_weight_one(self):
        p = rand_lexical()
        p.expand[:] = 0.0
        p.bias[:] = -1.0
        p.bias[5] = math.e - 1.0  # z for term 5 equals e-1 for any token
        vec = lexical_encode(tv({0: 1}), p)
        assert vec.terms.tolist() == [5] and vec.weights == pytest.approx([1.0])

    def test_max_pool_then_log(self):
        # Two tokens with pre-activations 3 and 5 for one term -> log(6).
        p = rand_lexical(vocab_size=4, dim=1)
        p.expand[:] = 0.0
        p.bias[:] = -10.0
        p.emb[0, 0] = 3.0
        p.emb[1, 0] = 5.0
        p.expand[2, 0] = 1.0
        p.bias[2] = 0.0
        vec = lexical_encode(tv({0: 1, 1: 1}), p)
        assert vec.terms.tolist() == [2] and vec.weights == pytest.approx([math.log(6.0)])
        assert lexical_trace(np.array([0, 1]), p).source_token.tolist() == [1]

    def test_weights_strictly_positive(self):
        p = rand_lexical(seed=11)
        vec = lexical_encode(tv({0: 1, 3: 2, 7: 1}), p)
        assert len(vec.terms) and (vec.weights > 0).all()

    def test_empty_input(self):
        p = rand_lexical()
        vec = lexical_encode(TermVector(counts={}, n=0), p)
        assert len(vec.terms) == 0 == len(vec.weights)

    def test_tied_init_opens_self_channel(self):
        p = LexicalParams.init(30, 8, seed=4)
        vec = lexical_encode(tv({12: 1}), p)
        assert 12 in vec.terms  # self dot product is positive at init


class TestRelevance:
    def test_dense_dot(self):
        assert relevance(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_disjoint_sparse_supports(self):
        a = vector([0, 1], [1.0, 2.0])
        b = vector([2], [3.0])
        assert relevance(a, b) == 0.0

    def test_sparse_equals_densified(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a_terms = np.sort(rng.choice(15, size=rng.integers(0, 8), replace=False))
            b_terms = np.sort(rng.choice(15, size=rng.integers(0, 8), replace=False))
            a = TermWeightVector(a_terms, rng.uniform(0.1, 2, size=len(a_terms)))
            b = TermWeightVector(b_terms, rng.uniform(0.1, 2, size=len(b_terms)))
            da, db = np.zeros(15), np.zeros(15)
            da[a.terms] = a.weights
            db[b.terms] = b.weights
            assert relevance(a, b) == pytest.approx(float(da @ db), abs=1e-12)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(TypeError):
            relevance(np.zeros(3), vector([0], [1.0]))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_sparse_equals_index_and_sequential_loop(self, data):
        # Bit for bit: relevance, sparse_scores over an index of p, and a
        # left-to-right loop over the shared terms in ascending order.
        def draw():
            terms = sorted(data.draw(st.sets(st.integers(0, 40), max_size=25)))
            weights = data.draw(st.lists(st.floats(1e-3, 50.0), min_size=len(terms),
                                         max_size=len(terms)))
            return TermWeightVector(np.array(terms, dtype=np.int64), np.array(weights))

        q, p = draw(), draw()
        p_weight = dict(zip(p.terms.tolist(), p.weights.tolist()))
        total = 0.0
        for t, w in zip(q.terms.tolist(), q.weights.tolist()):
            if t in p_weight:
                total += w * p_weight[t]
        (indexed,) = sparse_scores(q, build_index({"p": p}))
        assert relevance(q, p) == indexed == total

    @pytest.mark.parametrize("terms, weights", [
        ([3, 1], [1.0, 1.0]),            # descending
        ([1, 1], [1.0, 1.0]),            # duplicate
        ([1, 2], [1.0]),                 # fewer weights than terms
        ([1], [1.0, 2.0]),               # more weights than terms
        ([[1, 2]], [[1.0, 2.0]]),        # not 1-D
    ])
    def test_vector_rejects_unsorted_duplicate_and_misaligned(self, terms, weights):
        with pytest.raises(ValueError):
            TermWeightVector(np.array(terms), np.array(weights))

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=30)
    def test_bilinear_in_scale(self, alpha):
        q = np.array([0.3, -1.2, 2.0])
        p = np.array([1.0, 0.5, -0.25])
        assert relevance(alpha * q, p) == pytest.approx(alpha * relevance(q, p), abs=1e-12)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        p = rand_dense(seed=5)
        batch = one_row(tv({0: 1, 2: 1}))
        pooled = dense_encode_batch(p, batch)[1]
        g = dense_backward_batch(p, batch, pooled, np.zeros((1, p.dim)), p.zeros_like())
        assert all(not t.any() for t in g.tensors().values())
        lp = rand_lexical(seed=5)
        ltrace = lexical_trace(np.array([0, 2]), lp)
        lg = lp.zeros_like()
        routes = LexicalRoutes(lp, lg)
        routes.add(ltrace, np.zeros(len(ltrace.active_terms)))
        routes.flush()
        assert all(not t.any() for t in lg.tensors().values())

    def test_dense_bias_grad_is_upstream(self):
        p = DenseParams.init(6, 3, seed=0)  # proj = I
        batch = one_row(tv({0: 1}))
        pooled = dense_encode_batch(p, batch)[1]
        up = np.array([0.5, -1.0, 2.0])
        g = dense_backward_batch(p, batch, pooled, up[None], p.zeros_like())
        assert np.array_equal(g.bias, up)

    def test_dense_fd(self):
        for seed in range(5):
            p = rand_dense(seed=seed)
            sample = tv({0: 2, 3: 1, 5: 1})
            assert grad_check("dense", p, sample, seed=seed) < 1e-4

    def test_lexical_fd(self):
        for seed in range(5):
            p = rand_lexical(seed=seed)
            sample = tv({1: 1, 4: 2})
            assert grad_check("lexical", p, sample, seed=seed) < 1e-4

    def test_grad_check_leaves_params_unchanged(self):
        for kind, p in (("dense", rand_dense(seed=2)), ("lexical", rand_lexical(seed=2))):
            before = params_digest(p)
            grad_check(kind, p, tv({1: 1, 4: 2}), seed=2)
            assert params_digest(p) == before

    def test_grad_check_eps_bounds(self):
        p = rand_dense()
        with pytest.raises(ValueError):
            grad_check("dense", p, tv({0: 1}), eps=1e-2)

    @pytest.mark.parametrize(
        "analytic, finite",
        [([2, 4], True), ([2, np.nan], False), ([np.nan, 4], False), ([2, np.inf], False)],
    )
    def test_fd_check_fails_non_finite_analytic_gradients(self, analytic, finite):
        # f = x . x at [1, 2] has gradient [2, 4].
        x = np.array([1.0, 2.0])
        error = fd_max_rel_error(x, lambda: (float(x @ x), b""), np.array(analytic), 1e-5)
        assert (error < 1e-9) if finite else error == math.inf

    def test_fd_check_fails_a_non_finite_difference(self):
        x = np.array([1.0, 2.0])

        def forward():
            return (math.nan if x[1] > 2.0 else float(x @ x)), b""

        assert fd_max_rel_error(x, forward, np.array([2.0, 4.0]), 1e-5) == math.inf


class TestScalingInvariance:
    def test_output_scaling_preserves_ranking(self):
        # Scaling every encoded vector by alpha scales scores by alpha^2 and
        # leaves the induced ranking identical.
        rng = np.random.default_rng(9)
        docs = rng.normal(size=(40, 6))
        q = rng.normal(size=6)
        scores = docs @ q
        scaled = (2.5 * docs) @ (2.5 * q)
        assert np.allclose(scaled, 2.5**2 * scores, atol=1e-9)
        order = sorted(range(40), key=lambda i: (-scores[i], i))
        order_scaled = sorted(range(40), key=lambda i: (-scaled[i], i))
        assert order == order_scaled


class TestParamsIO:
    def test_save_load_roundtrip(self, tmp_path):
        p = rand_lexical(seed=8)
        meta = CheckpointMeta(
            kind="lexical", vocab_size=p.vocab_size, dim=p.dim,
            stage="continue", step=17, seed=8,
        )
        save_params(p, meta, tmp_path / "lex.ckpt")
        loaded, meta2 = load_params(tmp_path / "lex.ckpt")
        assert isinstance(loaded, LexicalParams)
        assert params_digest(loaded) == params_digest(p)
        assert meta2.stage == "continue"

    def test_params_from_tensors_unknown_kind(self):
        with pytest.raises(ValueError):
            params_from_tensors("fancy", {})

    def test_digest_changes_with_values(self):
        a = rand_dense(seed=1)
        b = rand_dense(seed=1)
        assert params_digest(a) == params_digest(b)
        b.bias[0] += 1e-9
        assert params_digest(a) != params_digest(b)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexlab.data import TermVector
from lexlab.encoders import (
    CheckpointError,
    CheckpointMeta,
    DenseParams,
    LexicalParams,
    LexicalRoutes,
    TermWeightVector,
    TokenBatch,
    dense_backward_batch,
    dense_encode_batch,
    lexical_trace,
    load_params,
    save_params,
)
from lexlab import gradcheck
from lexlab.gradcheck import fd_max_rel_error, grad_check
from lexlab.sparse_index import sparse_scores

from helpers import (
    params_digest, per_input_dense_encode, per_input_lexical_encode, relevance, set_usable_cpus,
    weight_index,
)


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
    return TokenBatch.of([sample])


class TestDenseEncode:
    def test_identity_projection_single_token(self):
        p = DenseParams.init(6, 3, seed=1)  # proj = I, bias = 0
        out = dense_encode_batch(p, one_row(tv({4: 1})))[0]
        assert np.array_equal(out[0], p.emb[4])

    def test_zero_embeddings_give_bias(self):
        p = rand_dense()
        p.emb[:] = 0.0
        out = dense_encode_batch(p, one_row(tv({0: 1, 1: 2})))[0]
        assert np.allclose(out[0], p.bias, atol=0)

    def test_count_weighted_mean_matches_direct(self):
        p = rand_dense(seed=3)
        out, pooled = dense_encode_batch(p, one_row(tv({0: 2, 1: 1})))
        h = (2 * p.emb[0] + p.emb[1]) / 3
        assert np.allclose(pooled[0], h, atol=1e-15)
        assert np.allclose(out[0], p.proj @ h + p.bias, atol=1e-15)
        assert out[0].tobytes() == per_input_dense_encode(tv({0: 2, 1: 1}), p).tobytes()

    def test_empty_input_zero_vector(self):
        p = rand_dense()
        empty = TermVector(counts={}, n=2)
        assert np.array_equal(dense_encode_batch(p, one_row(empty))[0][0], np.zeros(p.dim))
        assert one_row(empty).empty[0]


def oracle_token_batch(tvs):
    """`TokenBatch.of` as it read each vector's sorted items and flattened them."""
    rows = [sorted(tv.counts.items()) for tv in tvs]
    return (
        np.array([t for row in rows for t, _ in row], dtype=np.int64),
        np.array([c for row in rows for _, c in row], dtype=np.float64),
        np.array([len(row) for row in rows], dtype=np.int64),
    )


class TestTokenBatchOf:
    def assert_matches_oracle(self, tvs):
        table = TokenBatch.of(tvs)
        for got, want in zip((table.ids, table.counts, table.lens), oracle_token_batch(tvs)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_random_vectors_match_the_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            tvs = []
            for _ in range(int(rng.integers(1, 40))):
                # Terms enter each dict in random order; some vectors are empty.
                terms = rng.choice(60, size=int(rng.integers(0, 10)), replace=False)
                tvs.append(tv({int(t): int(rng.integers(1, 6)) for t in terms}))
            self.assert_matches_oracle(tvs)

    def test_empty_vectors_and_an_empty_list(self):
        self.assert_matches_oracle([tv({}), tv({3: 1, 0: 2}), tv({})])
        self.assert_matches_oracle([tv({})])
        self.assert_matches_oracle([])
        assert len(TokenBatch.of([])) == 0


class TestLexicalEncode:
    def test_all_gated_off_gives_empty(self):
        p = rand_lexical()
        p.expand[:] = 0.0
        p.bias[:] = -1.0
        vec = per_input_lexical_encode(tv({0: 1, 2: 1}), p)
        assert len(vec.terms) == 0 and vec.terms.dtype == np.int64 and vec.weights.dtype == np.float64

    def test_preactivation_e_minus_one_gives_weight_one(self):
        p = rand_lexical()
        p.expand[:] = 0.0
        p.bias[:] = -1.0
        p.bias[5] = math.e - 1.0  # z for term 5 equals e-1 for any token
        vec = per_input_lexical_encode(tv({0: 1}), p)
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
        vec = per_input_lexical_encode(tv({0: 1, 1: 1}), p)
        assert vec.terms.tolist() == [2] and vec.weights == pytest.approx([math.log(6.0)])
        assert lexical_trace(np.array([0, 1]), p).source_token.tolist() == [1]

    def test_weights_strictly_positive(self):
        p = rand_lexical(seed=11)
        vec = per_input_lexical_encode(tv({0: 1, 3: 2, 7: 1}), p)
        assert len(vec.terms) and (vec.weights > 0).all()

    def test_empty_input(self):
        p = rand_lexical()
        vec = per_input_lexical_encode(TermVector(counts={}, n=0), p)
        assert len(vec.terms) == 0 == len(vec.weights)

    def test_tied_init_opens_self_channel(self):
        p = LexicalParams.init(30, 8, seed=4)
        vec = per_input_lexical_encode(tv({12: 1}), p)
        assert 12 in vec.terms  # self dot product is positive at init


class TestRelevance:
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
        (indexed,) = sparse_scores(q, weight_index({"p": p}))
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
            assert grad_check(p, sample, seed=seed) < 1e-4

    def test_lexical_fd(self):
        for seed in range(5):
            p = rand_lexical(seed=seed)
            sample = tv({1: 1, 4: 2})
            assert grad_check(p, sample, seed=seed) < 1e-4

    def test_grad_check_leaves_params_unchanged(self):
        for p in (rand_dense(seed=2), rand_lexical(seed=2)):
            before = params_digest(p)
            grad_check(p, tv({1: 1, 4: 2}), seed=2)
            assert params_digest(p) == before

    def test_grad_check_eps_bounds(self):
        p = rand_dense()
        with pytest.raises(ValueError):
            grad_check(p, tv({0: 1}), eps=1e-2)

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
        meta = CheckpointMeta(stage="continue", step=17, seed=8)
        save_params(p, meta, tmp_path / "lex.ckpt")
        loaded, meta2 = load_params(tmp_path / "lex.ckpt")
        assert isinstance(loaded, LexicalParams)
        assert params_digest(loaded) == params_digest(p)
        assert meta2.stage == "continue"

    def test_header_of_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "lex.ckpt"
        save_params(rand_lexical(), CheckpointMeta(stage="s", step=0, seed=0), path)
        saved = path.read_bytes()
        path.write_bytes(saved.replace(b'"kind": "lexical"', b'"kind": "fancy"', 1))
        with pytest.raises(CheckpointError, match="unknown encoder kind 'fancy'"):
            load_params(path)
        # A kind that is no string, even one that cannot key a dict, is unknown too.
        path.write_bytes(saved.replace(b'"kind": "lexical"', b'"kind": ["lexical"]', 1))
        with pytest.raises(CheckpointError, match=r"unknown encoder kind \['lexical'\]"):
            load_params(path)

    def test_digest_changes_with_values(self):
        a = rand_dense(seed=1)
        b = rand_dense(seed=1)
        assert params_digest(a) == params_digest(b)
        b.bias[0] += 1e-9
        assert params_digest(a) != params_digest(b)


def assert_views_of_flat(p):
    """Every tensor is a view of `p.flat`, laid out back to back in `tensors()` order."""
    at = 0
    for name, t in p.tensors().items():
        assert np.shares_memory(t, p.flat), name
        assert t.flags.c_contiguous, name
        assert t.ctypes.data == p.flat.ctypes.data + at * p.flat.itemsize, name
        at += t.size
    assert at == p.flat.size
    assert p.flat.dtype == np.float64 and p.flat.ndim == 1


class TestFlatBuffer:
    @pytest.mark.parametrize("cls, second", [(DenseParams, "proj"), (LexicalParams, "expand")])
    def test_layout_is_emb_then_second_then_bias(self, cls, second):
        p = cls.init(6, 3, 0)
        assert list(p.tensors()) == ["emb", second, "bias"]
        assert_views_of_flat(p)

    def test_every_constructor_gives_views(self, tmp_path):
        for p in (rand_dense(), rand_lexical()):
            save_params(p, CheckpointMeta(stage="s", step=0, seed=0), tmp_path / "p.ckpt")
            loaded = load_params(tmp_path / "p.ckpt")[0]
            for q in (p, p.copy(), p.zeros_like(), loaded):
                assert type(q) is type(p)
                assert_views_of_flat(q)
            assert loaded.flat.tobytes() == p.flat.tobytes()
            assert not p.zeros_like().flat.any()

    def test_copy_shares_no_memory(self):
        for p in (rand_dense(), rand_lexical()):
            c = p.copy()
            assert not np.shares_memory(c.flat, p.flat)
            assert c.flat.tobytes() == p.flat.tobytes()
            c.flat[:] = 1.0
            assert not (p.flat == 1.0).all()

    def test_assigning_a_tensor_writes_the_buffer(self):
        p = rand_dense(vocab_size=5, dim=2)
        flat = p.flat
        p.proj = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert p.flat is flat
        assert p.flat[10:14].tolist() == [1.0, 2.0, 3.0, 4.0]
        grads = p.zeros_like()
        u = np.array([0.5, -2.0])
        grads.bias += u
        grads.bias += u
        assert grads.flat[-2:].tolist() == [1.0, -4.0]
        assert not grads.flat[:-2].any()
        assert_views_of_flat(p)
        assert_views_of_flat(grads)

    def test_no_tensor_comes_loose(self):
        p = rand_lexical(vocab_size=5, dim=2)
        with pytest.raises(ValueError, match="'bias' has shape"):
            p.bias = np.zeros(4)
        with pytest.raises(AttributeError):
            p.extra = np.zeros(3)


class TestGradCheckPins:
    def test_suite_values_are_pinned(self):
        # Every check's worst error over three trials, exact, so that any
        # change to how the checks perturb parameters shows here.
        assert gradcheck.run_suite(trials=3, seed=0).max_errors == {
            "encoder/dense": 2.8949574318115095e-11,
            "encoder/lexical": 2.4583841644134854e-10,
            "loss/contrastive": 2.398260489027688e-10,
            "loss/rank-consistent": 5.551115123125782e-07,
            "loss/combined": 1.9233039281284022e-09,
            "loss/margin-mse": 7.985929682231033e-10,
            "loss/kl": 6.261445348014674e-09,
            "loss/flops": 5.7781075973330256e-11,
            "composed/dense/contrastive": 3.360986964598681e-09,
            "composed/dense/rank-consistent": 1.7347234759768068e-08,
            "composed/dense/combined": 1.5053594530725265e-08,
            "composed/dense/margin-mse": 6.001590697893573e-09,
            "composed/dense/kl": 2.1321201339514473e-08,
            "composed/lexical/contrastive": 1.572272548031738e-08,
            "composed/lexical/rank-consistent": 8.326672684688673e-07,
            "composed/lexical/combined": 1.1397725537143805e-08,
            "composed/lexical/margin-mse": 3.572841056413868e-08,
            "composed/lexical/kl": 9.871024551348014e-07,
            "composed/lexical/flops": 1.7279827147301835e-09,
        }

    def test_suite_values_are_the_same_on_one_cpu_and_two(self, monkeypatch):
        errors = []
        for cpus in (1, 2):
            set_usable_cpus(monkeypatch, cpus)
            errors.append(gradcheck.run_suite(trials=2, seed=0).max_errors)
        assert errors[0] == errors[1]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            gradcheck.run_suite(trials=1, seed=-1)

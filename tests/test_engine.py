"""The batched training engine against the per-input code it replaced.

Each oracle below is the earlier implementation, kept here verbatim in
substance: lexical encoding with two |V|-wide reductions and the bias added
before the max, per-input lexical tracing and backward, the dict FLOPS penalty, per-document dense encode/backward, and
the pair-list hinge and margin-MSE. The lexical oracle keeps the
vocabulary-major GEMM `expand @ emb[ids].T`, so it also holds the
tokens-major GEMM of `lexical_trace` to the same bits. Lexical paths and the
pair losses must agree bit for bit, dense paths within 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexlab import retrieval, training
from lexlab.data import Corpus, QuerySet, TermVector, build_vocab, vectorize
from lexlab.encoders import (
    ROW_EXACT_MULADDS,
    DenseParams,
    LexicalParams,
    LexicalRoutes,
    LexicalTable,
    LexicalTrace,
    TokenBatch,
    dense_backward_batch,
    dense_encode_batch,
    lexical_trace,
    token_scores,
)
from lexlab.objectives import flops_penalty, make_rank_pairs, margin_mse_loss, rank_consistent_loss
from lexlab.retrieval import Retriever, encode_corpus
from lexlab.training import batch_step, model_teacher


def trace_of(tv, params):
    return lexical_trace(np.array(sorted(tv.counts), dtype=np.int64), params)


def as_dict(trace):
    """A trace's term weights as the {term: weight} map the FLOPS oracle reads."""
    return {int(t): float(w) for t, w in zip(trace.active_terms, np.log1p(trace.pre_activation))}


def oracle_lexical_encode(tv, params):
    if not tv.counts:
        return np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64)
    ids = np.array(sorted(tv.counts), dtype=np.int64)
    z = params.expand @ params.emb[ids].T + params.bias[:, None]
    zmax = z.max(axis=1)
    argmax = z.argmax(axis=1)
    active = np.flatnonzero(zmax > 0.0)
    return active.astype(np.int64), zmax[active], ids[argmax[active]]


def oracle_dense_encode(tv, params):
    """(output, pooled input) of one input: the count-weighted mean of its
    token embeddings, then the affine map; zero for an empty input."""
    if not tv.counts:
        return np.zeros(params.dim), np.zeros(params.dim)
    ids = np.array(sorted(tv.counts), dtype=np.int64)
    counts = np.array([float(tv.counts[int(t)]) for t in ids])
    h = counts @ params.emb[ids] / counts.sum()
    return params.proj @ h + params.bias, h


def oracle_dense_backward(params, tv, pooled, upstream, grads):
    if not tv.counts:
        return
    ids = np.array(sorted(tv.counts), dtype=np.int64)
    counts = np.array([float(tv.counts[int(t)]) for t in ids])
    grads.bias += upstream
    grads.proj += np.outer(upstream, pooled)
    gh = params.proj.T @ upstream
    grads.emb[ids] += (counts / counts.sum())[:, None] * gh[None, :]


def oracle_lexical_backward(params, trace, upstream, grads, scale=1.0):
    if len(trace.active_terms) == 0:
        return
    if isinstance(upstream, np.ndarray):
        gv = upstream[trace.active_terms] * scale
    else:
        gv = np.array([upstream.get(int(v), 0.0) for v in trace.active_terms]) * scale
    nz = np.flatnonzero(gv)
    if len(nz) == 0:
        return
    terms = trace.active_terms[nz]
    src = trace.source_token[nz]
    coef = gv[nz] / (1.0 + trace.pre_activation[nz])
    grads.expand[terms] += coef[:, None] * params.emb[src]
    grads.bias[terms] += coef
    np.add.at(grads.emb, src, coef[:, None] * params.expand[terms])


def oracle_flops(batch, weight):
    size = len(batch)
    mean = {}
    for vec in batch:
        for term, w in vec.items():
            mean[term] = mean.get(term, 0.0) + w / size
    loss = weight * sum(m * m for m in mean.values())
    grads = [{t: weight * 2.0 * mean[t] / size for t in vec} for vec in batch]
    return loss, grads


def oracle_pairs(t):
    return [(i, j) for i in range(len(t)) for j in range(len(t)) if t[i] > t[j]]


def oracle_hinge(s, t):
    pairs = oracle_pairs(t)
    grad, total = np.zeros(len(s)), 0.0
    if not pairs:
        return 0.0, grad
    inv = 1.0 / len(pairs)
    for i, j in pairs:
        if s[j] - s[i] > 0.0:
            total += s[j] - s[i]
            grad[j] += inv
            grad[i] -= inv
    return total * inv, grad


def oracle_margin_mse(s, t):
    pairs = oracle_pairs(t)
    grad, total = np.zeros(len(s)), 0.0
    if not pairs:
        return 0.0, grad
    inv = 1.0 / len(pairs)
    for i, j in pairs:
        diff = (s[i] - s[j]) - (t[i] - t[j])
        total += diff * diff
        grad[i] += 2.0 * diff * inv
        grad[j] -= 2.0 * diff * inv
    return total * inv, grad


def recording(real, seen):
    """`real`, appending each call's first argument to `seen`."""

    def wrapper(vec, *args, **kwargs):
        seen.append(vec)
        return real(vec, *args, **kwargs)

    return wrapper


def lexical_params(seed, vocab_size, dim, coarse):
    rng = np.random.default_rng(seed)
    p = LexicalParams.init(vocab_size, dim, seed)
    for t in (p.emb, p.expand):
        t[:] = rng.uniform(-0.8, 0.8, size=t.shape)
    p.bias[:] = rng.uniform(-0.3, 0.1, size=vocab_size)
    if coarse:
        # Values on a coarse grid make exact ties in the max-pool common.
        for t in (p.emb, p.expand, p.bias):
            t[:] = np.round(t * 2.0) / 2.0
    return p


def term_vectors(seed, vocab_size, n, max_terms):
    rng = np.random.default_rng(seed + 1)
    out = []
    for _ in range(n):
        k = int(rng.integers(0, min(max_terms, vocab_size) + 1))
        ids = rng.choice(vocab_size, size=k, replace=False)
        counts = {int(t): int(rng.integers(1, 4)) for t in ids}
        out.append(TermVector(counts=counts, n=sum(counts.values()) + int(rng.integers(0, 2))))
    return out


params_args = dict(
    seed=st.integers(0, 10_000),
    vocab_size=st.integers(1, 25),
    dim=st.integers(1, 5),
    coarse=st.booleans(),
)


class TestLexicalEncodeIsBitIdentical:
    # Rows of up to 40 tokens, widths up to 16 and vocabularies of up to 300
    # terms, mostly not multiples of 8, reach the GEMM shapes where a
    # tokens-major product rounds differently unless its operand layouts
    # are right.
    @given(seed=st.integers(0, 10_000), vocab_size=st.integers(1, 300), dim=st.integers(1, 16),
           coarse=st.booleans(), n_inputs=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_two_reduction_oracle(self, seed, vocab_size, dim, coarse, n_inputs):
        p = lexical_params(seed, vocab_size, dim, coarse)
        tvs = term_vectors(seed, vocab_size, n_inputs, 40)
        for tv, vec in zip(tvs, LexicalTable(p).vectors(TokenBatch.of(tvs))):
            trace = trace_of(tv, p)
            active, pre, src = oracle_lexical_encode(tv, p)
            assert trace.active_terms.dtype == np.int64
            assert np.array_equal(trace.active_terms, active)
            assert trace.pre_activation.tobytes() == pre.tobytes()
            assert np.array_equal(trace.source_token, src)
            weights = [float(np.log1p(z)) for z in pre]
            assert trace.weights.tolist() == weights
            assert vec.terms.tobytes() == active.tobytes() and vec.weights.tolist() == weights

    def test_tied_tokens_take_the_first(self):
        p = lexical_params(3, 6, 2, coarse=False)
        p.bias[:] = 1.0  # every term active
        p.emb[4] = p.emb[1]  # tokens 1 and 4 score every term identically
        trace = trace_of(TermVector(counts={4: 1, 1: 2}, n=3), p)
        active, pre, src = oracle_lexical_encode(TermVector(counts={1: 1, 4: 1}, n=2), p)
        assert len(active) and np.array_equal(trace.source_token, src)
        assert set(trace.source_token.tolist()) == {1}

    def test_bias_rounding_tie_takes_the_first_token(self):
        # Token 0 scores s_1 = 1 and token 1 scores s_2 = 1 + 2^-52 on term 2;
        # adding the bias 1.0 rounds both to 2.0, so token 0 is the argmax.
        p = LexicalParams.init(3, 1, 0)
        p.emb[:, 0] = [1.0, np.nextafter(1.0, 2.0), -1.0]
        p.expand[:, 0] = [-1.0, -1.0, 1.0]
        p.bias[:] = [0.0, 0.0, 1.0]
        ids = np.array([0, 1])
        s = p.expand[2] @ p.emb[ids].T
        assert s[0] < s[1] and s[0] + p.bias[2] == s[1] + p.bias[2]
        trace = lexical_trace(ids, p)
        assert trace.active_terms.tolist() == [2]
        assert trace.source_token.tolist() == [0]
        assert trace.pre_activation.tolist() == [2.0]
        active, pre, src = oracle_lexical_encode(TermVector(counts={0: 1, 1: 1}, n=2), p)
        assert np.array_equal(trace.active_terms, active) and np.array_equal(trace.source_token, src)

    def test_empty_and_all_inactive(self):
        p = lexical_params(5, 7, 3, coarse=False)
        trace = trace_of(TermVector(counts={}, n=3), p)
        assert not len(trace.active_terms) and not len(trace.weights)
        p.bias[:] = -100.0
        inactive = TermVector(counts={0: 1, 6: 2}, n=3)
        assert not len(LexicalTable(p).vectors(TokenBatch.of([inactive]))[0].terms)
        assert not len(trace_of(inactive, p).source_token)


class TestBlasRowBits:
    """The BLAS property `LexicalTable` rests on, named, so that a BLAS
    without it fails here and not only in a pinned digest."""

    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 64), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_row_gets_the_same_bits_in_any_product_of_two_or_more_rows(self, seed, dim, data):
        # Every product here has at least two rows and at most
        # ROW_EXACT_MULADDS multiply-adds.
        vocab_size = data.draw(st.integers(2, min(3000, ROW_EXACT_MULADDS // (2 * dim))))
        most = ROW_EXACT_MULADDS // (vocab_size * dim)
        rng = np.random.default_rng(seed)
        p = LexicalParams(vocab_size, dim)
        p.emb, p.expand = rng.uniform(-1.0, 1.0, size=(2, vocab_size, dim))
        row = int(rng.integers(vocab_size))
        bits = set()
        for n in (2, most, *rng.integers(2, most + 1, size=3).tolist()):
            ids = rng.integers(vocab_size, size=n)
            at = int(rng.integers(n))
            ids[at] = row
            bits.add(token_scores(p, ids)[at].tobytes())
        assert len(bits) == 1


class TestEveryCallerTracesTheSameBits:
    def test_one_passage_through_every_caller(self, monkeypatch):
        # 203 words (not a multiple of 8) and a 33-token passage, which is
        # also a query text, at the pipeline's width of 16: a shape where
        # other GEMM layouts give other maxima.
        rng = np.random.default_rng(8)
        words = [f"t{i}" for i in range(203)]
        passage = " ".join(rng.choice(words, size=33, replace=False))
        docs = {"d0": passage, **{f"d{i}": " ".join(words[i * 12 - 12 : i * 12 + 1]) for i in range(1, 18)}}
        corpus = Corpus.from_docs(docs)
        vocab = build_vocab(corpus)
        assert vocab.size == 203
        p = lexical_params(5, vocab.size, 16, coarse=False)
        p.bias -= 1.5  # leaves some terms inactive
        queries = QuerySet(queries={"q1": docs["d1"], "q0": passage})
        table = TokenBatch.of([vectorize(docs[pid], vocab) for pid in ("d2", "d0", "d3")])
        lone = lexical_trace(table.take([1]).ids, p)
        assert 0 < len(lone.active_terms) < vocab.size

        def assert_lone(terms, weights):
            assert terms.tobytes() == lone.active_terms.tobytes()
            assert weights.tobytes() == lone.weights.tobytes()

        step = batch_step(p, table, [[0, 1, 2]], lambda scores: ([0.0], [np.zeros_like(scores[0])]))
        traced = step.traces[1]
        assert_lone(traced.active_terms, traced.weights)
        assert traced.source_token.tobytes() == lone.source_token.tobytes()
        assert traced.pre_activation.tobytes() == lone.pre_activation.tobytes()

        index = encode_corpus(p, corpus, vocab)
        row = index.pids.index("d0")
        posted = {t: w[r == row] for t, (r, w) in index.postings.items() if (r == row).any()}
        terms = np.array(sorted(posted), dtype=np.int64)
        assert_lone(terms, np.concatenate([posted[t] for t in terms.tolist()]))

        searched = []
        monkeypatch.setattr(retrieval, "sparse_search", recording(retrieval.sparse_search, searched))
        Retriever(p, index, vocab).search_all(queries.queries, 3)
        assert_lone(searched[1].terms, searched[1].weights)

        scored = []
        monkeypatch.setattr(training, "sparse_scores", recording(training.sparse_scores, scored))
        teacher = model_teacher(Retriever(p, index, vocab), queries)
        teacher("q1", ["d0"])
        teacher("q0", ["d0"])
        assert_lone(scored[1].terms, scored[1].weights)


def oracle_lexical_step(p, sets_tv, upstream, flops):
    """The per-input loop train_stage used to run: (gradients, per-set losses)."""
    vocab_size = p.vocab_size
    expected = p.zeros_like()
    expected_losses = []
    for k, set_tv in enumerate(sets_tv):
        q_trace = trace_of(set_tv[0], p)
        q_dense = np.zeros(vocab_size)
        q_dense[q_trace.active_terms] = np.log1p(q_trace.pre_activation)
        encoded = [trace_of(tv, p) for tv in set_tv[1:]]
        scores = np.zeros(len(encoded))
        for i, tr in enumerate(encoded):
            if len(tr.active_terms):
                scores[i] = q_dense[tr.active_terms] @ np.log1p(tr.pre_activation)
        g = upstream[k]
        loss = float(g @ scores)
        buf = np.zeros(vocab_size)
        for i, tr in enumerate(encoded):
            if g[i] != 0.0 and len(tr.active_terms):
                buf[tr.active_terms] += g[i] * np.log1p(tr.pre_activation)
        oracle_lexical_backward(p, q_trace, buf, expected)
        for i, tr in enumerate(encoded):
            if g[i] != 0.0:
                oracle_lexical_backward(p, tr, q_dense, expected, scale=g[i])
        if flops:
            fl_loss, fl_grads = oracle_flops([as_dict(tr) for tr in [q_trace, *encoded]], flops)
            loss += fl_loss
            for (tr, fg) in zip([q_trace, *encoded], fl_grads):
                oracle_lexical_backward(p, tr, fg, expected)
        expected_losses.append(loss)
    return expected, expected_losses


def table_sets(sets_tv):
    """A table with one row per distinct term vector object, last seen
    first, and each set as its rows; a term vector listed again is its row
    listed again, an equal copy a row of its own."""
    tvs = list({id(tv): tv for set_tv in sets_tv for tv in set_tv}.values())[::-1]
    row = {id(tv): r for r, tv in enumerate(tvs)}
    return TokenBatch.of(tvs), [[row[id(tv)] for tv in set_tv] for set_tv in sets_tv]


def assert_step_matches_oracle(p, sets_tv, upstream, flops):
    expected, expected_losses = oracle_lexical_step(p, sets_tv, upstream, flops)
    got = p.zeros_like()
    step = batch_step(p, *table_sets(sets_tv),
                      lambda scores: ([float(g @ s) for g, s in zip(upstream, scores)], upstream),
                      flops, got)
    assert step.losses == expected_losses
    for name, t in got.tensors().items():
        assert t.tobytes() == expected.tensors()[name].tobytes(), name


class TestLexicalStepIsBitIdentical:
    @given(**params_args, n_sets=st.integers(1, 4), n_cands=st.integers(1, 5),
           flops=st.sampled_from([0.0, 0.7]))
    @settings(max_examples=80, deadline=None)
    def test_batch_step_matches_per_input_loop(
        self, seed, vocab_size, dim, coarse, n_sets, n_cands, flops
    ):
        p = lexical_params(seed, vocab_size, dim, coarse)
        tvs = term_vectors(seed, vocab_size, n_sets * (1 + n_cands), 6)
        sets_tv = [tvs[k * (1 + n_cands):(k + 1) * (1 + n_cands)] for k in range(n_sets)]
        rng = np.random.default_rng(seed + 2)
        upstream = [rng.normal(size=n_cands) * (rng.random(n_cands) < 0.7) for _ in range(n_sets)]
        assert_step_matches_oracle(p, sets_tv, upstream, flops)

    @given(**params_args, n_sets=st.integers(2, 4), n_cands=st.integers(1, 5),
           flops=st.sampled_from([0.0, 0.7]))
    @settings(max_examples=80, deadline=None)
    def test_batch_step_with_repeated_rows(
        self, seed, vocab_size, dim, coarse, n_sets, n_cands, flops
    ):
        # batch_step traces each distinct table row once; the oracle traces
        # every occurrence.
        p = lexical_params(seed, vocab_size, dim, coarse)
        tvs = term_vectors(seed, vocab_size, n_sets * (1 + n_cands), 6)
        sets_tv = [tvs[k * (1 + n_cands):(k + 1) * (1 + n_cands)] for k in range(n_sets)]
        sets_tv[1][-1] = sets_tv[0][-1]  # the same passage in two sets
        sets_tv[-1][1] = sets_tv[0][0]   # a query reused as a candidate
        rng = np.random.default_rng(seed + 2)
        for k in range(n_sets):
            for i in range(1, 1 + n_cands):
                if rng.random() < 0.3:  # more repeats, of any earlier row
                    earlier = [tv for set_tv in sets_tv[:k] for tv in set_tv] + sets_tv[k][:i]
                    sets_tv[k][i] = earlier[int(rng.integers(len(earlier)))]
        # Two distinct table rows with equal ids.
        sets_tv[0][1] = TermVector(counts=dict(sets_tv[1][0].counts), n=sets_tv[1][0].n)
        upstream = [rng.normal(size=n_cands) * (rng.random(n_cands) < 0.7) for _ in range(n_sets)]
        assert_step_matches_oracle(p, sets_tv, upstream, flops)

    @pytest.mark.parametrize("flops", [0.0, 0.7])
    def test_edge_sets(self, flops):
        # Sets of different sizes in one batch: one whose upstream is zero
        # (+0.0 and -0.0) for every candidate, one holding a candidate with
        # no active terms, a one-candidate set, and a query with no active
        # terms.
        p = lexical_params(11, 12, 3, coarse=False)
        p.bias[:] = 0.05  # every row with a token activates its own terms
        rows = [TermVector(counts={t: 1 + t % 3 for t in range(lo, lo + 3)}, n=6)
                for lo in range(0, 10)]
        empty = TermVector(counts={}, n=2)  # every token out of vocabulary
        assert all(len(trace_of(tv, p).active_terms) for tv in rows)
        assert not len(trace_of(empty, p).active_terms)
        sets_tv = [
            [rows[0], rows[1], rows[2], rows[3]],
            [rows[4], rows[5], empty, rows[6]],
            [rows[7], rows[8]],
            [empty, rows[9], rows[2]],
        ]
        upstream = [np.array([0.0, -0.0, 0.0]), np.array([0.4, -1.3, 0.9]),
                    np.array([-0.6]), np.array([1.1, -0.2])]
        assert_step_matches_oracle(p, sets_tv, upstream, flops)

    @given(seed=st.integers(0, 10_000), n_vecs=st.integers(1, 6), weight=st.floats(0.01, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_flops_matches_dict_oracle(self, seed, n_vecs, weight):
        rng = np.random.default_rng(seed)
        batch = [
            {int(t): float(w) for t, w in zip(
                np.sort(rng.choice(15, size=k, replace=False)), rng.uniform(0.01, 2.0, size=k))}
            for k in rng.integers(0, 8, size=n_vecs)
        ]
        terms = [np.fromiter(vec, dtype=np.int64, count=len(vec)) for vec in batch]
        values = [np.fromiter(vec.values(), dtype=float, count=len(vec)) for vec in batch]
        lv = flops_penalty(terms, values, weight, [len(terms)])
        loss, grads = oracle_flops(batch, weight)
        assert lv.loss.tolist() == [loss]
        assert lv.grad.tolist() == [g for vec_grads in grads for g in vec_grads.values()]

    @given(**params_args, n_calls=st.integers(1, 8), limit=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_routes_match_sequential_backward(self, seed, vocab_size, dim, coarse, n_calls, limit):
        p = lexical_params(seed, vocab_size, dim, coarse)
        rng = np.random.default_rng(seed + 3)
        expected, got = p.zeros_like(), p.zeros_like()
        routes = LexicalRoutes(p, got)
        routes.PENDING_LIMIT = limit  # flushes part way, wherever the limit falls
        traces, gvs = [], []
        for tv in term_vectors(seed, vocab_size, n_calls, 6):
            trace = trace_of(tv, p)
            n = len(trace.active_terms)
            gv = rng.normal(size=n) * (rng.random(n) < 0.8)  # some entries zero
            up = np.zeros(vocab_size)
            up[trace.active_terms] = gv
            oracle_lexical_backward(p, trace, up, expected)
            traces.append(trace)
            gvs.append(gv)
        # Runs of consecutive traces, each added as one joined chunk the way
        # training adds a candidate set's rows.
        cuts = np.sort(rng.choice(np.arange(1, n_calls), size=int(rng.integers(n_calls)),
                                  replace=False)).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, n_calls]):
            routes.add(LexicalTrace.join(traces[lo:hi]), np.concatenate(gvs[lo:hi]))
        routes.flush()
        for name, t in got.tensors().items():
            assert t.tobytes() == expected.tensors()[name].tobytes(), name


def dense_params(seed, vocab_size, dim):
    rng = np.random.default_rng(seed)
    p = DenseParams.init(vocab_size, dim, seed)
    p.proj[:] = rng.uniform(-0.6, 0.6, size=(dim, dim))
    p.bias[:] = rng.uniform(-0.3, 0.3, size=dim)
    return p


class TestDenseBatch:
    @given(seed=st.integers(0, 10_000), vocab_size=st.integers(1, 25), dim=st.integers(1, 5),
           n_rows=st.integers(1, 8), repeat=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_document(self, seed, vocab_size, dim, n_rows, repeat):
        p = dense_params(seed, vocab_size, dim)
        tvs = term_vectors(seed, vocab_size, n_rows, 8)
        tvs.append(TermVector(counts={}, n=4))  # all tokens out of vocabulary
        if repeat:
            tvs.append(tvs[0])
        batch = TokenBatch.of(tvs)
        out, pooled = dense_encode_batch(p, batch)
        rng = np.random.default_rng(seed + 4)
        upstream = rng.normal(size=out.shape)
        expected = p.zeros_like()
        for r, tv in enumerate(tvs):
            vec, h = oracle_dense_encode(tv, p)
            assert np.allclose(out[r], vec, rtol=0, atol=1e-12)
            oracle_dense_backward(p, tv, h, upstream[r], expected)
        got = dense_backward_batch(p, batch, pooled, upstream, p.zeros_like())
        for name, t in got.tensors().items():
            assert np.allclose(t, expected.tensors()[name], rtol=0, atol=1e-12), name
        assert not out[len(tvs) - 1 - repeat].any()

    @given(seed=st.integers(0, 10_000), vocab_size=st.integers(1, 25), dim=st.integers(1, 5),
           n_rows=st.integers(0, 6), picks=st.lists(st.integers(0, 100), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_take_equals_a_table_of_the_taken_rows(self, seed, vocab_size, dim, n_rows, picks):
        p = dense_params(seed, vocab_size, dim)
        tvs = term_vectors(seed, vocab_size, n_rows, 8)
        tvs += [TermVector(counts={}, n=0), TermVector(counts={}, n=3)]  # empty, all-OOV
        rows = [i % len(tvs) for i in picks]  # any order, repeats allowed
        taken, built = TokenBatch.of(tvs).take(rows), TokenBatch.of([tvs[r] for r in rows])
        for name in ("ids", "counts", "lens"):
            a, b = getattr(taken, name), getattr(built, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        upstream = np.random.default_rng(seed + 5).normal(size=(len(rows), dim))
        results = []
        for batch in (taken, built):
            out, pooled = dense_encode_batch(p, batch)
            grads = dense_backward_batch(p, batch, pooled, upstream, p.zeros_like())
            results.append((out.tobytes(), pooled.tobytes(), grads.flat.tobytes()))
        assert results[0] == results[1]

    def test_empty_batch_rows(self):
        p = dense_params(1, 5, 3)
        batch = TokenBatch.of([TermVector(counts={}, n=0)] * 2)
        out, pooled = dense_encode_batch(p, batch)
        assert out.shape == (2, 3) and not out.any()
        grads = dense_backward_batch(p, batch, pooled, np.ones((2, 3)), p.zeros_like())
        assert all(not t.any() for t in grads.tensors().values())


class TestSharedForward:
    """batch_step encodes each distinct table row once per batch."""

    @given(seed=st.integers(0, 10_000), vocab_size=st.integers(1, 25), dim=st.integers(1, 5),
           n_rows=st.integers(1, 6),
           picks=st.lists(st.lists(st.integers(0, 100), min_size=2, max_size=6),
                          min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_dense_step_equals_the_step_on_taken_rows(self, seed, vocab_size, dim, n_rows, picks):
        p = dense_params(seed, vocab_size, dim)
        tvs = term_vectors(seed, vocab_size, n_rows, 8) + [TermVector(counts={}, n=3)]
        sets = [[i % len(tvs) for i in set_picks] for set_picks in picks]
        sets[0].append(sets[0][-1])  # a row listed twice in one set
        sets[-1][1] = sets[0][0]     # a query row reused as a candidate
        rng = np.random.default_rng(seed + 6)
        upstream = [rng.normal(size=len(s) - 1) * (rng.random(len(s) - 1) < 0.8) for s in sets]

        def loss_fn(scores):
            return [float(g @ sc) for g, sc in zip(upstream, scores)], upstream

        table = TokenBatch.of(tvs)
        shared = p.zeros_like()
        step = batch_step(p, table, sets, loss_fn, grads=shared)
        rows = [r for s in sets for r in s]
        starts = np.cumsum([0, *map(len, sets)]).tolist()
        once = [list(range(a, b)) for a, b in zip(starts, starts[1:])]  # every row listed once
        for spare in ([], [0]):  # the listed rows are the whole table, then all but its last row
            taken = p.zeros_like()
            again = batch_step(p, table.take(rows + spare), once, loss_fn, grads=taken)
            assert step.losses == again.losses
            for name, t in shared.tensors().items():
                assert t.tobytes() == taken.tensors()[name].tobytes(), name

    @pytest.mark.parametrize("seed", range(6))
    def test_lexical_inputs_with_equal_ids_share_a_row(self, seed, monkeypatch):
        tvs = term_vectors(seed, 6, 6, 3)
        # Row 0's ids with other counts: the lexical encoder reads ids alone.
        tvs.append(TermVector(counts={t: c + 1 for t, c in tvs[0].counts.items()}, n=9))
        table, rows = TokenBatch.for_encoder(tvs, "lexical")
        assert rows[-1] == rows[0] and len(table) == len(set(rows)) < len(tvs)
        assert TokenBatch.for_encoder(tvs, "dense")[1] == list(range(len(tvs)))
        p = lexical_params(seed, 6, 3, coarse=False)
        sets = [[0, 1, 6, 2], [6, 3, 0], [4, 5, 1]]
        loss_fn = lambda scores: ([0.0] * len(scores), [np.cos(sc) for sc in scores])
        traced, real = [], training.lexical_trace

        def counted(ids, params):
            traced.append(1)
            return real(ids, params)

        monkeypatch.setattr(training, "lexical_trace", counted)
        own, shared = p.zeros_like(), p.zeros_like()
        first = batch_step(p, TokenBatch.of(tvs), sets, loss_fn, 0.3, own)
        per_input = len(traced)
        again = batch_step(p, table, [[rows[i] for i in s] for s in sets], loss_fn, 0.3, shared)
        assert len(traced) - per_input == len(set(rows)) < per_input
        assert first.losses == again.losses
        assert own.flat.tobytes() == shared.flat.tobytes()

    @pytest.mark.parametrize("kind", ["dense", "lexical"])
    def test_each_distinct_row_encodes_once(self, kind, monkeypatch):
        tvs = term_vectors(3, 12, 5, 6)
        tvs.append(TermVector(counts=dict(tvs[0].counts), n=tvs[0].n))  # row 0's ids, row 5
        sets = [[0, 1, 2, 1], [3, 1, 0, 4], [2, 2, 5]]
        encoded = []
        if kind == "dense":
            p, real = dense_params(3, 12, 4), training.dense_encode_batch

            def counted(params, batch):
                encoded.append(len(batch))
                return real(params, batch)

            monkeypatch.setattr(training, "dense_encode_batch", counted)
        else:
            p, real = lexical_params(3, 12, 4, coarse=False), training.lexical_trace

            def counted(ids, params):
                encoded.append(1)
                return real(ids, params)

            monkeypatch.setattr(training, "lexical_trace", counted)
        loss_fn = lambda scores: ([0.0] * len(scores), [np.ones_like(sc) for sc in scores])
        batch_step(p, TokenBatch.of(tvs), sets, loss_fn, grads=p.zeros_like())
        assert sum(encoded) == len(tvs)


class TestMaskLosses:
    @given(scores=st.lists(st.integers(-3, 3), min_size=2, max_size=9),
           teacher=st.lists(st.integers(-2, 2), min_size=9, max_size=9),
           jitter=st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_match_pair_lists(self, scores, teacher, jitter):
        n = len(scores)
        rng = np.random.default_rng(jitter)
        s = np.array(scores, dtype=float) + (rng.normal(size=n) if jitter % 2 else 0.0)
        t = np.array(teacher[:n], dtype=float)  # small integers: many teacher ties
        pairs = make_rank_pairs(t)
        assert len(pairs) == len(oracle_pairs(t))
        assert pairs.pairs == oracle_pairs(t)
        for loss_fn, oracle in ((rank_consistent_loss, oracle_hinge),
                                (margin_mse_loss, oracle_margin_mse)):
            lv = loss_fn(s[None], t[None])
            loss, grad = oracle(s, t)
            # Additions replay the pair order, so the results are exact.
            assert lv.loss.tolist() == [loss]
            assert lv.grad[0].tobytes() == grad.tobytes()

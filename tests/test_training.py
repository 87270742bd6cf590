import dataclasses
import gc
import hashlib
import json
import math
import re
import shutil
import weakref
from collections import Counter

import numpy as np
import pytest

from lexlab import training
from lexlab.data import Corpus, Qrels, QuerySet, build_vocab, vectorize, vectorize_corpus
from lexlab.encoders import (
    DenseParams,
    LexicalParams,
    LexicalTable,
    TokenBatch,
)
from lexlab.objectives import TEACHING_LOSSES
from lexlab.retrieval import Retriever, encode_corpus
from lexlab.sparse_index import build_index
from lexlab.training import (
    STAGES,
    STRATEGIES,
    AdamState,
    NegativePool,
    PipelineConfig,
    TrainConfig,
    adam_step,
    config_digest,
    config_from_mapping,
    _needs_teacher,
    load_pool,
    load_teacher_scores,
    mine_negatives,
    mix_pools,
    model_teacher,
    parse_config_file,
    run_pipeline,
    save_pool,
    stage_config,
    table_teacher,
    train_stage,
    validate_pool,
)

from helpers import (
    mix_three_pools, params_digest, per_input_lexical_encode, relevance, save_teacher_scores,
    set_usable_cpus, subsample_pool,
)

ALL_KEYS = tuple(f.name for f in dataclasses.fields(PipelineConfig))


def small_world(n_docs=30, n_queries=6, seed=0):
    rng = np.random.default_rng(seed)
    docs = {}
    for i in range(n_docs):
        words = [f"w{i}"] * 2 + [f"c{j}" for j in rng.choice(5, 2)]
        docs[f"d{i:02d}"] = " ".join(words)
    corpus = Corpus.from_docs(docs)
    queries = QuerySet(queries={f"q{i}": f"w{i} c0" for i in range(n_queries)})
    qrels = Qrels.from_entries({(f"q{i}", f"d{i:02d}"): 1 for i in range(n_queries)})
    vocab = build_vocab(corpus)
    return corpus, queries, qrels, vocab


class TestMining:
    def test_positive_never_mined(self):
        corpus, queries, qrels, vocab = small_world()
        retriever = Retriever(None, build_index(vectorize_corpus(corpus, vocab)), vocab)
        pool = mine_negatives(retriever, queries, qrels, depth=20, m=5, seed=1)
        for qid in pool.by_query:
            for pids in pool.by_query[qid].values():
                assert not qrels.positives(qid).intersection(pids)

    def test_same_seed_same_pool(self):
        corpus, queries, qrels, vocab = small_world()
        retriever = Retriever(None, build_index(vectorize_corpus(corpus, vocab)), vocab)
        a = mine_negatives(retriever, queries, qrels, depth=20, m=5, seed=7)
        b = mine_negatives(retriever, queries, qrels, depth=20, m=5, seed=7)
        assert a.by_query == b.by_query
        c = mine_negatives(retriever, queries, qrels, depth=20, m=5, seed=8)
        assert a.by_query != c.by_query

    def test_short_supply_takes_all(self, caplog):
        # Depth beyond the 4-passage collection: the ranking itself comes
        # back short, which is a real shortfall.
        corpus, queries, qrels, vocab = small_world(n_docs=4, n_queries=2)
        retriever = Retriever(None, build_index(vectorize_corpus(corpus, vocab)), vocab)
        with caplog.at_level("WARNING"):
            pool = mine_negatives(retriever, queries, qrels, depth=10, m=4, seed=0)
        assert any("fewer than" in r.message for r in caplog.records)
        for qid in pool.by_query:
            assert len(pool.merged(qid)) <= 3

    def test_full_ranking_holding_the_positive_is_no_shortfall(self, caplog):
        # m == depth and the positive is retrieved: one negative short by
        # design, so no warning, and the pool is still every eligible pid.
        corpus, queries, qrels, vocab = small_world()
        retriever = Retriever(None, build_index(vectorize_corpus(corpus, vocab)), vocab)
        with caplog.at_level("WARNING"):
            pool = mine_negatives(retriever, queries, qrels, depth=8, m=8, seed=0, sample=False)
        assert not [r for r in caplog.records if "fewer than" in r.message]
        for qid, text in queries.queries.items():
            ranked = retriever.search(text, 8).pids()
            assert qrels.positives(qid) <= set(ranked)
            assert pool.merged(qid) == [p for p in ranked if p not in qrels.positives(qid)]

    def test_default_depth_and_m(self):
        import inspect

        sig = inspect.signature(mine_negatives)
        assert sig.parameters["depth"].default == 200
        assert sig.parameters["m"].default == 5

    def test_depth_less_than_m_rejected(self):
        corpus, queries, qrels, vocab = small_world()
        retriever = Retriever(None, build_index(vectorize_corpus(corpus, vocab)), vocab)
        with pytest.raises(ValueError):
            mine_negatives(retriever, queries, qrels, depth=3, m=5)

    def test_validate_pool_catches_leak(self):
        pool = NegativePool()
        pool.add("q1", "bm25", ["d1", "d2"])
        qrels = Qrels.from_entries({("q1", "d2"): 1})
        with pytest.raises(ValueError, match="positives"):
            validate_pool(pool, qrels)


class TestPools:
    def test_mix_default_and_dedup(self):
        import inspect

        assert inspect.signature(mix_pools).parameters["m_total"].default == 32
        pools = []
        for source in ("lex1", "lex2", "den1"):
            p = NegativePool()
            p.add("q1", source, ["d9"])
            pools.append(p)
        mixed = mix_pools(*pools, m_total=32, seed=0)
        assert mixed.merged("q1") == ["d9"]

    def test_union_size_matches_set_oracle(self):
        rng = np.random.default_rng(3)
        pids = [f"d{i}" for i in range(40)]
        pools = []
        for source in ("lex1", "lex2", "den1"):
            p = NegativePool()
            p.add("q1", source, list(rng.choice(pids, size=12, replace=False)))
            pools.append(p)
        mixed = mix_pools(*pools, m_total=1000, seed=0)
        expected = set(pools[0].merged("q1")) | set(pools[1].merged("q1")) | set(pools[2].merged("q1"))
        assert set(mixed.merged("q1")) == expected

    def test_mix_samples_to_m_total(self):
        pools = []
        for source in ("lex1", "lex2", "den1"):
            p = NegativePool()
            p.add("q1", source, [f"{source}-{i}" for i in range(20)])
            pools.append(p)
        mixed = mix_pools(*pools, m_total=8, seed=5)
        assert len(mixed.merged("q1")) == 8

    def test_mismatched_query_sets_rejected(self):
        a, b, c = NegativePool(), NegativePool(), NegativePool()
        a.add("q1", "lex1", ["d1"])
        b.add("q2", "lex2", ["d1"])
        c.add("q1", "den1", ["d1"])
        with pytest.raises(ValueError):
            mix_pools(a, b, c)

    def test_subsample_pool(self):
        p = NegativePool()
        p.add("q1", "den1", [f"d{i}" for i in range(30)])
        out = mix_pools(p, m_total=10, seed=2, salt="self")
        assert len(out.merged("q1")) == 10
        assert set(out.merged("q1")) <= set(p.merged("q1"))

    @staticmethod
    def random_pools(sources_per_pool, seed, n_queries=8, n_pids=14, max_len=7):
        """One pool per tuple of sources; each query's lists are drawn from a
        shared pid space, so lists of different pools overlap, and a list is
        empty now and then (every list of the last query is)."""
        rng = np.random.default_rng(seed)
        pools = [NegativePool() for _ in sources_per_pool]
        for q in range(n_queries):
            for pool, sources in zip(pools, sources_per_pool):
                # A pool lists a passage once, so its sources split a draw.
                drawn = [f"d{i}" for i in rng.permutation(n_pids)]
                cuts = sorted(rng.integers(0, max_len + 1, size=len(sources)).tolist())
                for source, a, b in zip(sources, [0, *cuts], cuts):
                    pool.add(f"q{q}", source, [] if q == n_queries - 1 else drawn[a:b])
        return pools

    @staticmethod
    def ordered(pool):
        return [(qid, list(sources.items())) for qid, sources in pool.by_query.items()]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mix_equals_the_three_pool_sampler(self, seed):
        # Unions of 0 to 21 pids per query: m_total runs below, at and above each.
        pools = self.random_pools([("lex1",), ("lex2",), ("den1",)], seed)
        for m_total in range(0, 24):
            got = mix_pools(*pools, m_total=m_total, seed=seed + 3, salt="mix")
            assert self.ordered(got) == self.ordered(mix_three_pools(*pools, m_total, seed + 3))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_self_salt_equals_the_one_pool_sampler(self, seed):
        (pool,) = self.random_pools([("bm25", "den1")], seed)
        for m_total in range(0, 10):
            got = mix_pools(pool, m_total=m_total, seed=seed + 3, salt="self")
            assert self.ordered(got) == self.ordered(subsample_pool(pool, m_total, seed + 3))

    def test_pool_file_roundtrip(self, tmp_path):
        p = NegativePool()
        p.add("q1", "bm25", ["d1", "d2"])
        p.add("q1", "lex1", ["d3"])
        p.add("q2", "den1", [])
        save_pool(p, tmp_path / "pool.tsv")
        loaded = load_pool(tmp_path / "pool.tsv")
        assert loaded.by_query == p.by_query

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            NegativePool().add("q1", "mystery", ["d1"])

    def test_source_given_twice_rejected(self):
        p = NegativePool()
        p.add("q1", "bm25", ["d1"])
        with pytest.raises(ValueError, match="query 'q1', source bm25 given twice"):
            p.add("q1", "bm25", ["d2"])
        assert p.by_query == {"q1": {"bm25": ["d1"]}}

    @pytest.mark.parametrize("first, second", [
        ([], ["d2", "d1", "d2"]),  # in one source
        (["d1", "d2"], ["d3", "d2"]),  # across sources
    ])
    def test_passage_given_twice_rejected(self, first, second):
        p = NegativePool()
        p.add("q1", "lex1", first)
        with pytest.raises(ValueError, match="query 'q1', passage 'd2' given twice"):
            p.add("q1", "lex2", second)
        assert p.by_query == {"q1": {"lex1": first}}
        p.add("q2", "lex2", second[:2])  # another query may list the same passages
        assert p.merged("q2") == second[:2]


def encode_and_dot(params, vocab, query_text, docs, pids):
    """Teacher oracle: encode the query and each passage, then `relevance`."""
    q_vec = per_input_lexical_encode(vectorize(query_text, vocab), params)
    return {
        pid: relevance(q_vec, per_input_lexical_encode(vectorize(docs[pid], vocab), params))
        for pid in pids
    }


def sparse_lexical_params(vocab_size, seed):
    """Random lexical parameters, away from the tied initialization."""
    rng = np.random.default_rng(seed)
    params = LexicalParams.init(vocab_size, 4, seed)
    params.emb[:] = rng.uniform(-0.8, 0.8, size=params.emb.shape)
    params.expand[:] = rng.uniform(-0.8, 0.8, size=params.expand.shape)
    params.bias[:] = rng.uniform(-0.6, 0.0, size=params.bias.shape)
    return params


class TestTeachers:
    def test_empty_pid_list(self):
        corpus, queries, qrels, vocab = small_world()
        params = LexicalParams.init(vocab.size, 4, 0)
        teacher = model_teacher(Retriever(params, encode_corpus(params, corpus, vocab), vocab), queries)
        assert len(teacher("q0", [])) == 0

    def test_model_scores_equal_direct_relevance(self):
        corpus, queries, qrels, vocab = small_world()
        params = LexicalParams.init(vocab.size, 4, 0)
        teacher = model_teacher(Retriever(params, encode_corpus(params, corpus, vocab), vocab), queries)
        pids = sorted(corpus.docs)
        for qid, text in queries.queries.items():
            got = teacher(qid, pids)
            q_vec = per_input_lexical_encode(vectorize(text, vocab), params)
            for pid, score in zip(pids, got):
                p_vec = per_input_lexical_encode(vectorize(corpus.docs[pid], vocab), params)
                assert score == pytest.approx(relevance(q_vec, p_vec), abs=0)

    def test_score_file_roundtrip(self, tmp_path):
        table = {("q1", "d1"): 0.125, ("q1", "d2"): -3.5, ("q2", "d9"): 7.0}
        save_teacher_scores(table, tmp_path / "s.tsv")
        loaded = load_teacher_scores(tmp_path / "s.tsv")
        assert loaded == table

    def test_table_teacher_missing_pair(self):
        teacher = table_teacher({})
        with pytest.raises(ValueError, match="missing"):
            teacher("q1", ["d1"])

    def test_model_teacher_matches_helper(self):
        corpus, queries, qrels, vocab = small_world()
        params = sparse_lexical_params(vocab.size, 4)
        teacher = model_teacher(Retriever(params, encode_corpus(params, corpus, vocab), vocab), queries)
        pids = sorted(corpus.docs, reverse=True)
        for qid, text in queries.queries.items():
            got = teacher(qid, pids)
            helper = encode_and_dot(params, vocab, text, corpus.docs, pids)
            assert got.tolist() == [helper[pid] for pid in pids]

    def test_model_teacher_encodes_no_passage(self, monkeypatch):
        corpus, queries, qrels, vocab = small_world()
        params = LexicalParams.init(vocab.size, 4, 0)
        index = encode_corpus(params, corpus, vocab)
        encoded = []
        real = LexicalTable.encode
        monkeypatch.setattr(LexicalTable, "encode", lambda self, b: encoded.append(b) or real(self, b))
        teacher = model_teacher(Retriever(params, index, vocab), queries)
        first = teacher("q0", ["d00", "d05"])
        again = teacher("q0", ["d05", "d00", "d07"])
        # Only the query rows are encoded; passages come from the index.
        rows = TokenBatch.of([vectorize(text, vocab) for text in queries.queries.values()])
        assert [(b.ids.tobytes(), b.counts.tobytes(), b.lens.tobytes()) for b in encoded] == [
            (rows.ids.tobytes(), rows.counts.tobytes(), rows.lens.tobytes())]
        assert list(again[:2]) == [first[1], first[0]]

    def test_model_teacher_rejects_other_kinds(self):
        corpus, queries, qrels, vocab = small_world()
        dense = DenseParams.init(vocab.size, 4, 0)
        with pytest.raises(TypeError, match="lexical.*dense"):
            model_teacher(Retriever(dense, encode_corpus(dense, corpus, vocab), vocab), queries)
        lexical = LexicalParams.init(vocab.size, 4, 0)
        bm25_index = build_index(vectorize_corpus(corpus, vocab))
        with pytest.raises(TypeError, match="bm25 index is searched with no model, got a lexical"):
            model_teacher(Retriever(lexical, bm25_index, vocab), queries)
        with pytest.raises(TypeError, match="lexical.*bm25"):
            model_teacher(Retriever(None, bm25_index, vocab), queries)


def allocating_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam written with a temporary per operation: the
    `adam_step` oracle. `state` is (t, m, v) of dicts of arrays."""
    t, m_all, v_all = state
    t += 1
    for name, p in params.tensors().items():
        g = grads.tensors()[name]
        m, v = m_all[name], v_all[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return t, m_all, v_all


class TestAdam:
    @pytest.mark.parametrize("kind", [DenseParams, LexicalParams])
    def test_equals_allocating_formula_bit_for_bit(self, kind):
        params = kind.init(7, 3, 2)
        oracle = kind.init(7, 3, 2)
        state = AdamState.init(params)
        oracle_state = (0, {k: np.zeros_like(p) for k, p in oracle.tensors().items()},
                        {k: np.zeros_like(p) for k, p in oracle.tensors().items()})
        rng = np.random.default_rng(11)
        for step in range(50):
            grads = params.zeros_like()
            if step % 7 != 3:  # every seventh step has all-zero gradients
                for g in grads.tensors().values():
                    g[:] = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=g.shape)
                    g[rng.random(g.shape) < 0.3] = 0.0
            lr = float(rng.choice([0.05, 0.015, 1e-4]))
            adam_step(params, grads, state, lr=lr)
            oracle_state = allocating_adam_step(oracle, grads, oracle_state, lr=lr)
            assert state.t == oracle_state[0]
            for name, p in params.tensors().items():
                assert p.tobytes() == oracle.tensors()[name].tobytes()
            # The state is flat, aligned with `params.flat`: the per-tensor
            # moments back to back in `tensors()` order.
            names = list(params.tensors())
            assert state.m.tobytes() == b"".join(oracle_state[1][k].tobytes() for k in names)
            assert state.v.tobytes() == b"".join(oracle_state[2][k].tobytes() for k in names)

    def test_zero_grads_keep_params(self):
        params = DenseParams.init(5, 3, 0)
        before = params_digest(params)
        state = AdamState.init(params)
        adam_step(params, params.zeros_like(), state, lr=0.1)
        assert params_digest(params) == before

    def test_first_step_is_signed_lr(self):
        params = DenseParams.init(4, 2, 0)
        grads = params.zeros_like()
        grads.bias[:] = np.array([3.0, -0.25])
        before = params.bias.copy()
        adam_step(params, grads, AdamState.init(params), lr=0.01, eps=1e-12)
        step = params.bias - before
        # Bias-corrected first step is -lr * g/|g| up to eps.
        assert step == pytest.approx([-0.01, 0.01], rel=1e-6)

    def test_deterministic(self):
        def run():
            params = DenseParams.init(6, 3, 1)
            state = AdamState.init(params)
            rng = np.random.default_rng(5)
            for _ in range(10):
                grads = params.zeros_like()
                grads.emb[:] = rng.normal(size=grads.emb.shape)
                adam_step(params, grads, state, lr=0.05)
            return params_digest(params)

        assert run() == run()


def make_pool(queries, qrels, corpus, vocab, m=4, seed=0):
    retriever = Retriever(None, build_index(vectorize_corpus(corpus, vocab)), vocab)
    return mine_negatives(retriever, queries, qrels, depth=10, m=m, seed=seed)


class TestTrainStage:
    def test_none_equals_zero_weight_rank_consistent(self):
        corpus, queries, qrels, vocab = small_world()
        pool = make_pool(queries, qrels, corpus, vocab)
        init = DenseParams.init(vocab.size, 4, 3)
        cfg_a = TrainConfig(seed=3, dim=4, lr=0.05, m=4, epochs=3, stage="s", strategy="none")
        a, _ = train_stage(cfg_a, vocab, corpus, queries, qrels, pool, init)
        cfg_b = TrainConfig(
            seed=3, dim=4, lr=0.05, m=4, epochs=3, stage="s",
            strategy="rank-consistent", reg_weight=0.0,
        )
        teacher = lambda qid, pids: np.arange(len(pids), 0.0, -1.0)
        b, _ = train_stage(cfg_b, vocab, corpus, queries, qrels, pool, init, teacher=teacher)
        assert params_digest(a) == params_digest(b)

    def test_loss_decreases_on_separable_data(self):
        # 20-doc separable toy set, fixed seed: strictly decreasing epoch loss.
        docs = {f"d{i:02d}": f"w{i} w{i} w{i}" for i in range(20)}
        corpus = Corpus.from_docs(docs)
        queries = QuerySet(queries={f"q{i}": f"w{i}" for i in range(10)})
        qrels = Qrels.from_entries({(f"q{i}", f"d{i:02d}"): 1 for i in range(10)})
        vocab = build_vocab(corpus)
        pool = make_pool(queries, qrels, corpus, vocab, m=4)
        cfg = TrainConfig(seed=1, dim=8, lr=0.05, m=4, epochs=5, stage="w", strategy="none")
        _, log = train_stage(cfg, vocab, corpus, queries, qrels, pool, DenseParams.init(vocab.size, 8, 1))
        losses = log.epoch_mean_loss
        assert len(losses) == 5
        assert all(losses[i + 1] < losses[i] for i in range(4))

    def test_total_is_cl_plus_weighted_ll(self):
        corpus, queries, qrels, vocab = small_world()
        pool = make_pool(queries, qrels, corpus, vocab)
        cfg = TrainConfig(seed=2, dim=4, lr=0.05, m=4, epochs=2, stage="s",
                          strategy="rank-consistent", reg_weight=1.2)
        teacher = lambda qid, pids: np.arange(len(pids), 0.0, -1.0)
        _, log = train_stage(
            cfg, vocab, corpus, queries, qrels, pool,
            DenseParams.init(vocab.size, 4, 2), teacher=teacher,
        )
        for rec in log.steps:
            assert rec.loss == pytest.approx(rec.cl + 1.2 * rec.ll, abs=1e-12)

    def test_leaves_the_callers_term_vectors_unchanged(self):
        corpus, queries, qrels, vocab = small_world()
        pool = make_pool(queries, qrels, corpus, vocab)
        cfg = TrainConfig(seed=2, dim=4, lr=0.05, m=4, epochs=1, stage="s", strategy="none")
        init = DenseParams.init(vocab.size, 4, 2)
        full = vectorize_corpus(corpus, vocab)
        digests = set()
        for doc_tvs in ({}, full, None):
            before = None if doc_tvs is None else dict(doc_tvs)
            params, _ = train_stage(cfg, vocab, corpus, queries, qrels, pool, init, doc_tvs=doc_tvs)
            assert doc_tvs == before
            digests.add(params_digest(params))
        assert len(digests) == 1

    def test_query_without_positive_or_pooled_negative_skipped(self, caplog):
        corpus, queries, qrels, vocab = small_world()
        mined = make_pool(queries, qrels, corpus, vocab)
        pool = NegativePool()
        for qid, sources in mined.by_query.items():
            for source, pids in sources.items():
                pool.add(qid, source, [] if qid == "q1" else pids)
        # q1 has no pooled negative, q6 pooled negatives but no qrels.
        pool.add("q6", "bm25", ["d07", "d08"])
        queries = QuerySet(queries={**queries.queries, "q6": "w6 c0"})
        cfg = TrainConfig(seed=2, dim=4, lr=0.05, m=4, epochs=1, stage="s", strategy="none")
        with caplog.at_level("WARNING"):
            _, log = train_stage(
                cfg, vocab, corpus, queries, qrels, pool, DenseParams.init(vocab.size, 4, 2)
            )
        assert log.skipped_queries == 2
        assert sorted(rec.qid for rec in log.steps) == ["q0", "q2", "q3", "q4", "q5"]
        assert "stage s: skipping 2 queries without positives or pooled negatives" in caplog.text

    def test_strategy_needs_teacher(self):
        corpus, queries, qrels, vocab = small_world()
        pool = make_pool(queries, qrels, corpus, vocab)
        cfg = TrainConfig(seed=2, dim=4, lr=0.05, m=4, epochs=1, stage="s", strategy="kl")
        with pytest.raises(ValueError, match="teacher"):
            train_stage(cfg, vocab, corpus, queries, qrels, pool, DenseParams.init(vocab.size, 4, 2))

    def test_lexical_stage_runs_with_flops(self):
        corpus, queries, qrels, vocab = small_world()
        pool = make_pool(queries, qrels, corpus, vocab)
        cfg = TrainConfig(seed=2, dim=4, lr=0.02, m=4, epochs=2, stage="s",
                          strategy="none", flops_weight=0.1)
        params, log = train_stage(
            cfg, vocab, corpus, queries, qrels, pool,
            LexicalParams.init(vocab.size, 4, 2),
        )
        assert len(log.epoch_mean_loss) == 2
        assert all(math.isfinite(l) for l in log.epoch_mean_loss)

    def test_filter_strategy_runs(self):
        corpus, queries, qrels, vocab = small_world()
        pool = make_pool(queries, qrels, corpus, vocab)
        cfg = TrainConfig(seed=2, dim=4, lr=0.05, m=4, epochs=2, stage="s", strategy="filter")
        teacher = lambda qid, pids: np.linspace(1.0, 0.1, len(pids))
        params, log = train_stage(
            cfg, vocab, corpus, queries, qrels, pool,
            DenseParams.init(vocab.size, 4, 2), teacher=teacher,
        )
        assert log.steps

    def test_pool_listing_another_positive_rejected(self):
        # q0 trains on its smallest positive, d00; a pool that lists its other
        # positive, d10, as a negative must not train it as one.
        corpus, queries, _, vocab = small_world()
        qrels = Qrels.from_entries({("q0", "d00"): 1, ("q0", "d10"): 1})
        pool = NegativePool()
        pool.add("q0", "bm25", ["d03", "d10", "d04"])
        cfg = TrainConfig(seed=2, dim=4, lr=0.05, m=4, epochs=1, stage="s", strategy="none")
        with pytest.raises(ValueError, match=r"contains positives \['d10'\]"):
            train_stage(cfg, vocab, corpus, queries, qrels, pool, DenseParams.init(vocab.size, 4, 2))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(strategy="magic")

    def test_teacher_scores_each_query_once_before_training(self, monkeypatch):
        corpus, queries, qrels, vocab = small_world()
        pool = make_pool(queries, qrels, corpus, vocab)
        calls, steps = [], []
        real_adam = training.adam_step

        def teacher(qid, pids):
            calls.append((qid, len(steps)))
            return np.arange(len(pids), 0.0, -1.0)

        def counted_adam(*args, **kwargs):
            steps.append(1)
            return real_adam(*args, **kwargs)

        monkeypatch.setattr(training, "adam_step", counted_adam)
        cfg = TrainConfig(seed=2, dim=4, lr=0.05, m=4, epochs=3, batch_size=2, stage="s",
                          strategy="rank-consistent")
        _, log = train_stage(cfg, vocab, corpus, queries, qrels, pool,
                             DenseParams.init(vocab.size, 4, 2), teacher=teacher)
        trained = sorted({rec.qid for rec in log.steps})
        assert sorted(qid for qid, _ in calls) == trained == sorted(queries.queries)
        assert all(n_steps == 0 for _, n_steps in calls)  # all before the first step
        assert len(steps) == log.optimizer_steps == 9

    def test_missing_teacher_score_fails_before_any_step(self, monkeypatch):
        corpus, queries, qrels, vocab = small_world()
        pool = make_pool(queries, qrels, corpus, vocab)
        table = {(qid, pid): 1.0 for qid in queries.queries
                 for pid in [min(qrels.positives(qid)), *pool.merged(qid)]}
        last = list(queries.queries)[-1]
        del table[(last, pool.merged(last)[0])]
        monkeypatch.setattr(training, "adam_step", lambda *a, **k: pytest.fail("stepped"))
        # One query per batch, so a lookup made per batch would step first.
        cfg = TrainConfig(seed=2, dim=4, lr=0.05, batch_size=1, m=4, epochs=1, stage="s",
                          strategy="kl")
        with pytest.raises(ValueError, match=f"missing score for query {last!r}"):
            train_stage(cfg, vocab, corpus, queries, qrels, pool,
                        DenseParams.init(vocab.size, 4, 2), teacher=table_teacher(table))

    @pytest.mark.parametrize("bad, key", [
        (dict(lr=math.nan), "lr"),
        (dict(lr=math.inf), "lr"),
        (dict(reg_weight=math.nan), "reg_weight"),
        (dict(strategy="kl", kl_temperature=0.0), "kl_temperature"),
        (dict(filter_threshold=-1.0), "filter_threshold"),
        (dict(seed=-3), "seed"),
    ])
    def test_out_of_range_values_rejected_when_built(self, bad, key):
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            TrainConfig(**bad)

    def test_strategies_come_from_the_loss_table(self):
        teaching = [name for name in STRATEGIES if name not in ("none", "filter")]
        assert sorted(teaching) == sorted(TEACHING_LOSSES)
        assert len(set(teaching)) == len(teaching)
        assert [name for name in STRATEGIES if _needs_teacher(name)] == [
            name for name in STRATEGIES if name != "none"
        ]


class TestConfig:
    def test_parse_and_coerce(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# comment\ncollection = c.tsv\nseed = 11\nlr = 0.5\nstrategy = kl\n"
        )
        cfg = config_from_mapping(parse_config_file(path))
        assert cfg.seed == 11 and cfg.lr == 0.5 and cfg.strategy == "kl"
        assert cfg.collection == "c.tsv"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_mapping({"learning_rate": "0.1"})

    def test_bad_number_names_its_key(self):
        with pytest.raises(ValueError, match="^config key 'run_depth' must be an integer, got 'abc'$"):
            config_from_mapping({"run_depth": "abc"})
        with pytest.raises(ValueError, match="^config key 'lr' must be a number, got '0,1'$"):
            config_from_mapping({"lr": "0,1"})

    def test_digest_sensitivity(self, tmp_path):
        x = tmp_path / "x.tsv"
        x.write_text("d1\tsome text\n")
        a = PipelineConfig(collection=str(x))
        b = PipelineConfig(collection=str(x), seed=8)
        assert config_digest(a, ALL_KEYS) != config_digest(b, ALL_KEYS)
        assert config_digest(a, ALL_KEYS) == config_digest(PipelineConfig(collection=str(x)), ALL_KEYS)
        # Input files count by their bytes, not their path.
        (tmp_path / "copy").mkdir()
        same = tmp_path / "copy" / "y.tsv"
        same.write_bytes(x.read_bytes())
        other = tmp_path / "z.tsv"
        other.write_text("d1\tother text\n")
        assert config_digest(a, ALL_KEYS) == config_digest(PipelineConfig(collection=str(same)), ALL_KEYS)
        assert config_digest(a, ALL_KEYS) != config_digest(PipelineConfig(collection=str(other)), ALL_KEYS)

    def test_digest_hashes_only_the_given_keys(self, tmp_path):
        a = PipelineConfig(seed=1, eval_qrels=str(tmp_path / "absent.tsv"))
        b = PipelineConfig(seed=1, lr=0.5)
        assert config_digest(a, ("seed", "dim")) == config_digest(b, ("seed", "dim"))
        assert config_digest(a, ("seed",)) != config_digest(a, ("seed", "dim"))

    def test_digest_names_a_missing_input_file(self, tmp_path):
        missing = tmp_path / "absent.tsv"
        with pytest.raises(ValueError, match=f"'eval_qrels'.*{missing}"):
            config_digest(PipelineConfig(eval_qrels=str(missing)), ALL_KEYS)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match=":1"):
            parse_config_file(path)


@pytest.fixture(scope="module")
def toy_fixture(tmp_path_factory):
    from lexlab.synthetic import write_fixture

    d = tmp_path_factory.mktemp("toy")
    write_fixture(
        d, seed=13, exact_clusters=4, cluster_size=4, exact_train=10, exact_test=5,
        para_supers=2, groups_per_super=5, para_train=8, para_test=4,
        total_docs=50, filler_topics=4,
    )
    return d


def toy_config(d, **overrides):
    base = dict(
        collection=str(d / "collection.tsv"),
        train_queries=str(d / "train_queries.tsv"),
        train_qrels=str(d / "train_qrels.txt"),
        eval_queries=str(d / "test_queries.tsv"),
        eval_qrels=str(d / "test_qrels.txt"),
        seed=5, dim=6, epochs=2, m=6, warmup_m=3, depth=12, run_depth=50,
        batch_size=4, lr=0.02,
    )
    base.update(overrides)
    return PipelineConfig(**base)


# sha256 of the led checkpoint per strategy on the toy fixture, with FLOPS in
# the lexical stages and KL at temperature 2, as the per-set training loop
# wrote it before the losses ran one call per batch. The rank-consistent run
# also pins the other stages' checkpoints, so the lexical layout is pinned
# too; every header holds the config digest, which names the strategy.
CHECKPOINT_SHA256 = {
    "none": {"led": "f1a07383dcd4acc61be59a3cd800bfb43ae26bb329b1e777b79fa4b0e976e67d"},
    "kl": {"led": "84d43c31d9a706f51475ccab3e178e28a090e5d070598b60b7811f48b18d62a3"},
    "margin-mse": {"led": "4454d60cf6b6331badf3c15ea3cbe43cbb0c66ca35340bdc03c926ae65e56db0"},
    "filter": {"led": "cdff51c0599d658e7388abeec6ad8215d9afbf23bf17a03998bda1b6ac3c097b"},
    "rank-consistent": {
        "lex1": "bee866b152e9508a79a78857c42c599641fc9b8feab153ba263ce0ab7a06adde",
        "lex2": "6ed35a9379b91bd67b1fc248674e03dbd7caace192df5598b2d46408b235d56a",
        "den1": "d72f2e7f8ccf86fd6e674d4fc26afac32458bcd249f171182be40ab17756d392",
        "led": "3bdf19cb5b492a03f9cd16bc532a19fa47e2daa2dc93fafaf7867d7ba7b48b7b",
    },
}


class TestPipeline:
    @pytest.mark.parametrize("strategy", sorted(CHECKPOINT_SHA256))
    def test_led_checkpoint_bytes_are_pinned(self, toy_fixture, tmp_path, strategy):
        cfg = toy_config(toy_fixture, strategy=strategy, flops_weight=0.2, kl_temperature=2.0,
                         eval_queries="", eval_qrels="")
        run_pipeline(cfg, out_dir=tmp_path)
        for name, pinned in CHECKPOINT_SHA256[strategy].items():
            digest = hashlib.sha256((tmp_path / "checkpoints" / f"{name}.ckpt").read_bytes())
            assert digest.hexdigest() == pinned, name

    def test_pipeline_completes_with_four_checkpoints(self, toy_fixture, tmp_path):
        result = run_pipeline(toy_config(toy_fixture), out_dir=tmp_path / "arts")
        assert sorted(result.checkpoints) == ["den1", "led", "lex1", "lex2"]
        assert result.metas["lex1"].stage == "warmup"
        assert result.metas["lex2"].stage == "continue"
        assert result.metas["led"].stage == "led"
        assert (tmp_path / "arts" / "manifest.json").exists()
        assert set(result.runs) == {"lex1", "lex2", "den1", "led"}

    def test_no_positive_in_any_pool(self, toy_fixture):
        result = run_pipeline(toy_config(toy_fixture))
        for pool in result.pools.values():
            validate_pool(pool, result.qrels)

    def test_rerun_identical_artifacts(self, toy_fixture, tmp_path):
        # The rerun reads a byte copy of the fixture from another directory.
        copy = shutil.copytree(toy_fixture, tmp_path / "copy")
        run_pipeline(toy_config(toy_fixture), out_dir=tmp_path / "a")
        run_pipeline(toy_config(copy), out_dir=tmp_path / "b")
        manifest_a = (tmp_path / "a" / "manifest.json").read_bytes()
        manifest_b = (tmp_path / "b" / "manifest.json").read_bytes()
        assert manifest_a == manifest_b
        for rel in ("checkpoints/led.ckpt", "runs/led.trec", "pools/mix.tsv"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_teacher_score_file_trains_led_as_the_model_teacher(
        self, toy_fixture, tmp_path, monkeypatch
    ):
        # margin-mse reads the teacher's score values, not only their order.
        cfg = toy_config(toy_fixture, strategy="margin-mse", eval_queries="", eval_qrels="")
        base = run_pipeline(cfg)
        # lex2's scores for every training query and passage; repr floats
        # read back to the same bits.
        lex2 = base.checkpoints["lex2"]
        index = encode_corpus(lex2, base.corpus, base.vocab)
        teacher = model_teacher(Retriever(lex2, index, base.vocab), base.queries)
        path = tmp_path / "teacher.tsv"
        with open(path, "w", encoding="utf-8") as f:
            for qid in base.queries.queries:
                for pid, score in zip(index.pids, teacher(qid, index.pids).tolist()):
                    f.write(f"{qid}\t{pid}\t{score!r}\n")

        def forbidden(*args, **kwargs):
            raise AssertionError("the model teacher ran despite a teacher score file")

        monkeypatch.setattr(training, "model_teacher", forbidden)
        cfg.teacher_scores_file = str(path)
        filed = run_pipeline(cfg)
        digests = lambda result: {n: params_digest(p) for n, p in result.checkpoints.items()}
        assert digests(filed) == digests(base)

    @pytest.mark.parametrize("given, missing", [
        ("eval_queries", "eval_qrels"), ("eval_qrels", "eval_queries"),
    ])
    def test_one_eval_file_without_the_other_rejected(self, tmp_path, given, missing):
        # No input file exists, so the check runs before any is read or hashed.
        absent = str(tmp_path / "absent.tsv")
        cfg = PipelineConfig(
            collection=absent, train_queries=absent, train_qrels=absent, **{given: absent}
        )
        with pytest.raises(ValueError, match=f"^missing config key '{missing}'$"):
            run_pipeline(cfg)

    def test_manifest_is_the_same_on_one_cpu_and_two(self, toy_fixture, tmp_path, monkeypatch):
        manifest = lambda out: (tmp_path / out / "manifest.json").read_bytes()
        for heads in ((), ("den2", "led_noreg")):
            for cpus in (1, 2):
                set_usable_cpus(monkeypatch, cpus)
                out = tmp_path / f"heads{len(heads)}-cpus{cpus}"
                run_pipeline(toy_config(toy_fixture), out_dir=out, heads=heads)
            assert manifest(f"heads{len(heads)}-cpus1") == manifest(f"heads{len(heads)}-cpus2")
        # Heads add files of their own and leave every pipeline file's bytes alone.
        base, got = (json.loads(manifest(out)) for out in ("heads0-cpus1", "heads2-cpus2"))
        assert got["config_digest"] == base["config_digest"]
        assert {name: got["files"][name] for name in base["files"]} == base["files"]
        added = {name.split("/")[1] for name in got["files"].keys() - base["files"].keys()}
        own = {f"{head}.{ext}" for head in ("den2", "led_noreg") for ext in ("ckpt", "trec", "tsv")}
        assert added == own | {"den1_sub.tsv"}

    @pytest.mark.parametrize("head", ["led", "lex1", "den3", ""])
    def test_a_head_that_is_no_ablation_row_rejected(self, tmp_path, head):
        # No input file exists, so the check runs before any is read or hashed.
        absent = str(tmp_path / "absent.tsv")
        cfg = PipelineConfig(**{key: absent for key in training.INPUT_FILE_KEYS})
        expected = f"head {head!r} is not one of ['den2', 'led_noreg']"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            run_pipeline(cfg, heads=("den2", head))

    def test_a_head_named_twice_rejected(self, tmp_path):
        # No input file exists, so the check runs before any is read or hashed.
        absent = str(tmp_path / "absent.tsv")
        cfg = PipelineConfig(**{key: absent for key in training.INPUT_FILE_KEYS})
        with pytest.raises(ValueError, match="^head 'den2' is named twice$"):
            run_pipeline(cfg, heads=("den2", "led_noreg", "den2"))

    def test_each_model_searches_each_training_query_once(self, toy_fixture, monkeypatch):
        # lex1 feeds two pools, its sampled top `depth` and its whole top
        # `mix_depth`; one search at the deeper depth serves both, cut to
        # what a search at each depth finds.
        searched = []
        real = Retriever.search_all

        def recording(self, texts, k):
            searched.extend((id(self.index), qid) for qid in texts)
            return real(self, texts, k)

        monkeypatch.setattr(training.Retriever, "search_all", recording)
        cfg = toy_config(toy_fixture, mix_depth=20, eval_queries="", eval_qrels="")
        result = run_pipeline(cfg)
        monkeypatch.undo()
        n_queries = len(result.queries.queries)
        assert len(searched) == len(set(searched)) == 4 * n_queries  # bm25, lex1, lex2, den1
        lex1 = result.checkpoints["lex1"]
        retriever = Retriever(lex1, encode_corpus(lex1, result.corpus, result.vocab), result.vocab)
        for name, depth, m, sample in (("lex1", 12, 3, True), ("lex1_top", 20, 20, False)):
            direct = mine_negatives(retriever, result.queries, result.qrels, depth, m, 5, "lex1", sample)
            assert direct.by_query == result.pools[name].by_query

    def test_mining_and_the_teacher_share_one_table_per_lexical_model(self, toy_fixture, monkeypatch):
        # A lexical model's tables: one for `encode_corpus` to encode its
        # passages, and one in its `Retriever`, which mines with it and, for
        # lex2, teaches led. Without evaluation no `make_run` builds another.
        # On one CPU every table is built in this process.
        set_usable_cpus(monkeypatch, 1)
        built = []
        real = LexicalTable.__init__
        monkeypatch.setattr(
            LexicalTable, "__init__", lambda self, params: built.append(params) or real(self, params)
        )
        result = run_pipeline(toy_config(toy_fixture, eval_queries="", eval_qrels=""))
        name_of = {id(params): name for name, params in result.checkpoints.items()}
        assert Counter(name_of[id(params)] for params in built) == {"lex1": 2, "lex2": 2}

    def test_a_pass_frees_its_state(self, toy_fixture):
        # With the cyclic GC off only reference counts free a pass, so a
        # reference cycle through run_pipeline's closures would keep every
        # model it trained alive.
        gc.disable()
        try:
            result = run_pipeline(toy_config(toy_fixture))
            led = weakref.ref(result.checkpoints["led"])
            del result
            assert led() is None
        finally:
            gc.enable()

    # The forced overflow is the point of the test, not a fault to report.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_den1_loss_surfaces_from_the_child(self, toy_fixture, monkeypatch):
        real = DenseParams.init.__func__

        def huge_init(cls, vocab_size, dim, seed):
            params = real(cls, vocab_size, dim, seed)
            params.emb[:] = 1e200  # every score overflows to +inf, so the loss is NaN
            return params

        monkeypatch.setattr(DenseParams, "init", classmethod(huge_init))
        expected = "^non-finite loss at stage 'warmup' epoch 0 query "
        errors = []
        for cpus in (1, 2):
            set_usable_cpus(monkeypatch, cpus)
            with pytest.raises(RuntimeError, match=expected) as caught:
                run_pipeline(toy_config(toy_fixture))
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    def test_missing_config_key_named(self, toy_fixture):
        cfg = toy_config(toy_fixture)
        cfg.collection = ""
        with pytest.raises(ValueError, match="collection"):
            run_pipeline(cfg)

    def test_stage_config_carries_fields(self, toy_fixture):
        cfg = toy_config(toy_fixture, reg_weight=0.7, kl_temperature=2.0)
        sc = stage_config(cfg, STAGES["led"], "kl")
        assert sc.reg_weight == 0.7
        assert sc.kl_temperature == 2.0
        assert sc.stage == "led" and sc.strategy == "kl"

    @pytest.mark.parametrize(
        "name, phase, lr_key, epochs_key, m_key",
        [
            ("lex1", "warmup", "lex_warmup_lr", "lex_epochs", "warmup_m"),
            ("lex2", "continue", "lex_continue_lr", "lex_epochs", "warmup_m"),
            ("den1", "warmup", "den_warmup_lr", "den_epochs", "warmup_m"),
            ("led", "led", "led_lr", "led_epochs", "m"),
            ("den2", "led", "led_lr", "led_epochs", "m"),
            ("led_noreg", "led", "led_lr", "led_epochs", "m"),
        ],
    )
    def test_stage_table_recipe(self, name, phase, lr_key, epochs_key, m_key):
        # Every override differs from the others and from the base keys, so
        # each value read names the key it came from.
        overrides = dict(
            lex_warmup_lr=0.001, lex_continue_lr=0.002, den_warmup_lr=0.003, led_lr=0.004,
            lex_epochs=4, den_epochs=5, led_epochs=6,
        )
        base = dict(lr=0.05, epochs=9, warmup_m=3, m=7)
        picked = stage_config(PipelineConfig(**base, **overrides), STAGES[name], "none")
        assert (picked.lr, picked.epochs) == (overrides[lr_key], overrides[epochs_key])
        fallback = stage_config(PipelineConfig(**base), STAGES[name], "none")
        assert (fallback.lr, fallback.epochs) == (0.05, 9)
        for sc in (picked, fallback):
            assert sc.m == base[m_key] and sc.stage == phase

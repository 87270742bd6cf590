import math
import shutil

import numpy as np
import pytest

from lexlab.data import Corpus, Qrels, QuerySet, build_vocab, vectorize, vectorize_corpus
from lexlab.encoders import (
    DenseParams,
    LexicalParams,
    lexical_encode,
    params_digest,
    relevance,
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
    save_teacher_scores,
    stage_config,
    subsample_pool,
    table_teacher,
    train_stage,
    validate_pool,
)


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
        out = subsample_pool(p, 10, seed=2)
        assert len(out.merged("q1")) == 10
        assert set(out.merged("q1")) <= set(p.merged("q1"))

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


def encode_and_dot(params, vocab, query_text, docs, pids):
    """Teacher oracle: encode the query and each passage, then `relevance`."""
    q_vec = lexical_encode(vectorize(query_text, vocab), params)
    return {
        pid: relevance(q_vec, lexical_encode(vectorize(docs[pid], vocab), params))
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
        teacher = model_teacher(params, encode_corpus(params, corpus, vocab), vocab, queries)
        assert len(teacher("q0", [], np.zeros(0))) == 0

    def test_model_scores_equal_direct_relevance(self):
        corpus, queries, qrels, vocab = small_world()
        params = LexicalParams.init(vocab.size, 4, 0)
        teacher = model_teacher(params, encode_corpus(params, corpus, vocab), vocab, queries)
        pids = sorted(corpus.docs)
        for qid, text in queries.queries.items():
            got = teacher(qid, pids, np.zeros(len(pids)))
            q_vec = lexical_encode(vectorize(text, vocab), params)
            for pid, score in zip(pids, got):
                p_vec = lexical_encode(vectorize(corpus.docs[pid], vocab), params)
                assert score == pytest.approx(relevance(q_vec, p_vec), abs=0)

    def test_score_file_roundtrip(self, tmp_path):
        table = {("q1", "d1"): 0.125, ("q1", "d2"): -3.5, ("q2", "d9"): 7.0}
        save_teacher_scores(table, tmp_path / "s.tsv")
        loaded = load_teacher_scores(tmp_path / "s.tsv")
        assert loaded == table

    def test_table_teacher_missing_pair(self):
        teacher = table_teacher({})
        with pytest.raises(ValueError, match="missing"):
            teacher("q1", ["d1"], np.zeros(1))

    def test_model_teacher_matches_helper(self):
        corpus, queries, qrels, vocab = small_world()
        params = sparse_lexical_params(vocab.size, 4)
        teacher = model_teacher(params, encode_corpus(params, corpus, vocab), vocab, queries)
        pids = sorted(corpus.docs, reverse=True)
        for qid, text in queries.queries.items():
            got = teacher(qid, pids, np.zeros(len(pids)))
            helper = encode_and_dot(params, vocab, text, corpus.docs, pids)
            assert got.tolist() == [helper[pid] for pid in pids]

    def test_model_teacher_encodes_no_passage(self, monkeypatch):
        from lexlab import training

        corpus, queries, qrels, vocab = small_world()
        params = LexicalParams.init(vocab.size, 4, 0)
        index = encode_corpus(params, corpus, vocab)
        encoded = []
        real = training.lexical_encode
        monkeypatch.setattr(training, "lexical_encode", lambda tv, p: encoded.append(tv) or real(tv, p))
        teacher = model_teacher(params, index, vocab, queries)
        first = teacher("q0", ["d00", "d05"], np.zeros(2))
        again = teacher("q0", ["d05", "d00", "d07"], np.zeros(3))
        assert encoded == [vectorize(queries.queries["q0"], vocab)]
        assert list(again[:2]) == [first[1], first[0]]

    def test_model_teacher_rejects_other_kinds(self):
        corpus, queries, qrels, vocab = small_world()
        dense = DenseParams.init(vocab.size, 4, 0)
        with pytest.raises(TypeError, match="lexical.*dense"):
            model_teacher(dense, encode_corpus(dense, corpus, vocab), vocab, queries)
        lexical = LexicalParams.init(vocab.size, 4, 0)
        bm25_index = build_index(vectorize_corpus(corpus, vocab))
        with pytest.raises(TypeError, match="lexical.*bm25"):
            model_teacher(lexical, bm25_index, vocab, queries)


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
                assert state.m[name].tobytes() == oracle_state[1][name].tobytes()
                assert state.v[name].tobytes() == oracle_state[2][name].tobytes()

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
        teacher = lambda qid, pids, scores: np.arange(len(pids), 0.0, -1.0)
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

    def test_teacher_equal_to_student_gives_zero_ll(self):
        corpus, queries, qrels, vocab = small_world()
        pool = make_pool(queries, qrels, corpus, vocab)
        cfg = TrainConfig(seed=2, dim=4, lr=0.05, m=4, epochs=2, stage="s", strategy="rank-consistent")
        teacher = lambda qid, pids, scores: scores
        _, log = train_stage(
            cfg, vocab, corpus, queries, qrels, pool,
            DenseParams.init(vocab.size, 4, 2), teacher=teacher,
        )
        assert log.steps
        assert all(rec.ll == 0.0 for rec in log.steps)

    def test_total_is_cl_plus_weighted_ll(self):
        corpus, queries, qrels, vocab = small_world()
        pool = make_pool(queries, qrels, corpus, vocab)
        cfg = TrainConfig(seed=2, dim=4, lr=0.05, m=4, epochs=2, stage="s",
                          strategy="rank-consistent", reg_weight=1.2)
        teacher = lambda qid, pids, scores: np.arange(len(pids), 0.0, -1.0)
        _, log = train_stage(
            cfg, vocab, corpus, queries, qrels, pool,
            DenseParams.init(vocab.size, 4, 2), teacher=teacher,
        )
        for rec in log.steps:
            assert rec.loss == pytest.approx(rec.cl + 1.2 * rec.ll, abs=1e-12)

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
        teacher = lambda qid, pids, scores: np.linspace(1.0, 0.1, len(pids))
        params, log = train_stage(
            cfg, vocab, corpus, queries, qrels, pool,
            DenseParams.init(vocab.size, 4, 2), teacher=teacher,
        )
        assert log.steps

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(strategy="magic")

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

    def test_digest_sensitivity(self, tmp_path):
        x = tmp_path / "x.tsv"
        x.write_text("d1\tsome text\n")
        a = PipelineConfig(collection=str(x))
        b = PipelineConfig(collection=str(x), seed=8)
        assert config_digest(a) != config_digest(b)
        assert config_digest(a) == config_digest(PipelineConfig(collection=str(x)))
        # Input files count by their bytes, not their path.
        (tmp_path / "copy").mkdir()
        same = tmp_path / "copy" / "y.tsv"
        same.write_bytes(x.read_bytes())
        other = tmp_path / "z.tsv"
        other.write_text("d1\tother text\n")
        assert config_digest(a) == config_digest(PipelineConfig(collection=str(same)))
        assert config_digest(a) != config_digest(PipelineConfig(collection=str(other)))

    def test_digest_names_a_missing_input_file(self, tmp_path):
        missing = tmp_path / "absent.tsv"
        with pytest.raises(ValueError, match=f"'eval_qrels'.*{missing}"):
            config_digest(PipelineConfig(eval_qrels=str(missing)))

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


class TestPipeline:
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

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they execute. The directional experiments (criteria 6-10) share one
pipeline run over the committed synthetic corpus (generator + pinned seed);
its thresholds were validated once during fixture construction and are
pinned here.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from lexlab import analysis, cli, gradcheck, retrieval, synthetic, training
from lexlab.data import load_qrels, load_queries, vectorize_corpus
from lexlab.encoders import TermWeightVector
from lexlab.objectives import (
    CandidateSet,
    combined_loss,
    contrastive_loss,
    make_rank_pairs,
    rank_consistent_loss,
)
from lexlab.retrieval import DenseIndex, dense_search, evaluate, format_report, load_run, mrr_at_k
from lexlab.sparse_index import build_index, sparse_search

METRIC_FIXTURE = Path(__file__).parent / "data" / "metric_fixture"

FIXTURE_SEED = 13
PIPELINE_CONFIG = dict(
    seed=5,
    dim=16,
    lr=0.03,
    lex_warmup_lr=0.03,
    lex_continue_lr=0.02,
    den_warmup_lr=0.03,
    led_lr=0.015,
    lex_epochs=10,
    den_epochs=14,
    led_epochs=12,
    epochs=10,
    warmup_m=5,
    m=32,
    depth=10,
    mix_depth=40,
    reg_weight=1.2,
    flops_weight=0.2,
    strategy="rank-consistent",
    batch_size=8,
    run_depth=1000,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    """One full pipeline run on the synthetic corpus plus ablation variants."""
    d = tmp_path_factory.mktemp("fixture")
    info = synthetic.write_fixture(d, seed=FIXTURE_SEED)
    cfg = training.PipelineConfig(
        collection=str(d / "collection.tsv"),
        train_queries=str(d / "train_queries.tsv"),
        train_qrels=str(d / "train_qrels.txt"),
        eval_queries=str(d / "test_queries.tsv"),
        eval_qrels=str(d / "test_qrels.txt"),
        **PIPELINE_CONFIG,
    )
    start = time.perf_counter()
    result = training.run_pipeline(cfg)
    doc_tvs = vectorize_corpus(result.corpus, result.vocab)
    # The ablation heads train with the led recipe from den1 without the
    # teacher: den2 (the DEN Continue analog) on the dense model's own
    # negatives, led_noreg on the mixed negatives.
    heads = {}
    for name, pool in (
        ("den2", training.subsample_pool(result.pools["den1_top"], cfg.m, cfg.seed)),
        ("led_noreg", result.pools["mix"]),
    ):
        heads[name], _ = training.train_stage(
            training.stage_config(cfg, training.STAGES["led"], "none"),
            result.vocab, result.corpus, result.queries, result.qrels,
            pool, result.checkpoints["den1"], doc_tvs=doc_tvs,
        )

    test_queries = load_queries(cfg.eval_queries)
    test_qrels = load_qrels(cfg.eval_qrels)
    k = min(cfg.run_depth, result.corpus.n_docs)
    runs = dict(result.runs)
    for name, params in heads.items():
        index = retrieval.encode_corpus(params, result.corpus, result.vocab, doc_tvs)
        runs[name] = retrieval.make_run(params, test_queries, index, result.vocab, k=k, tag=name)
    mrr = {name: mrr_at_k(run, test_qrels, 10) for name, run in runs.items()}
    elapsed = time.perf_counter() - start

    def subset_mean(result_, prefix):
        vals = [v for q, v in result_.per_query.items() if q.startswith(prefix)]
        return sum(vals) / len(vals)

    return {
        "cfg": cfg,
        "dir": d,
        "info": info,
        "result": result,
        "runs": runs,
        "mrr": mrr,
        "qrels": test_qrels,
        "subset_mean": subset_mean,
        "elapsed": elapsed,
        "k": k,
    }


class TestCriterion1:
    def test_gradient_fidelity(self):
        report_obj = gradcheck.run_suite(trials=100, seed=0, eps=1e-5)
        ok = report_obj.worst < 1e-4 and report_obj.elapsed_s < 30.0
        report(
            1, ok,
            f"max rel error {report_obj.worst:.2e} over 100 seeds "
            f"(both encoders, 7 objectives, compositions) in {report_obj.elapsed_s:.1f}s",
        )
        assert report_obj.worst < 1e-4
        assert report_obj.elapsed_s < 30.0


class TestCriterion2:
    def test_metric_oracle(self):
        run = load_run(METRIC_FIXTURE / "run.trec")
        qrels = load_qrels(METRIC_FIXTURE / "qrels.txt")
        rep = evaluate(run, qrels, ("mrr@10", "recall@50", "recall@1000", "ndcg@10"))
        ndcg_q1 = (1 / math.log2(2) + 3 / math.log2(3)) / (
            3 / math.log2(2) + 1 / math.log2(3)
        )
        expected = {
            "mrr@10": (1.0 + 1.0 / 3.0 + 0.0) / 3.0,
            "recall@50": (1.0 + 1.0 + 0.5) / 3.0,
            "recall@1000": 1.0,
            "ndcg@10": (ndcg_q1 + 0.5 + 0.0) / 3.0,
        }
        deltas = {m: abs(rep.mean(m) - v) for m, v in expected.items()}
        ok = all(dv < 1e-9 for dv in deltas.values())
        # Output must parse as tool-style records.
        lines = format_report(rep, per_query=True).strip().splitlines()
        parsed = all(len(l.split("\t")) == 3 for l in lines)
        report(2, ok and parsed, f"hand-scored fixture deltas {max(deltas.values()):.1e}, "
                                 f"{len(lines)} records parse")
        for metric, value in expected.items():
            assert rep.mean(metric) == pytest.approx(value, abs=1e-9)
        assert parsed


class TestCriterion3:
    def test_rank_consistent_contract(self):
        checked = 0
        ok = True
        for n in range(2, 7):
            teacher = np.arange(n, 0, -1, dtype=float)
            base = np.arange(n, 0, -1, dtype=float)
            for perm in itertools.permutations(range(n)):
                student = base[list(perm)]
                c = CandidateSet(
                    qid="q", pos_pid="p0", neg_pids=[f"p{i}" for i in range(1, n)],
                    scores=student, teacher_scores=teacher,
                )
                lv = rank_consistent_loss(c, make_rank_pairs(c))
                agrees = perm == tuple(range(n))
                ok &= (lv.loss == 0.0) if agrees else (lv.loss > 0.0)
                checked += 1
        report(3, ok, f"{checked} orderings over sizes 2..6: zero iff order matches")
        assert ok


class TestCriterion4:
    def test_combined_linearity(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 7))
            c = CandidateSet(
                qid="q", pos_pid="p0", neg_pids=[f"p{i}" for i in range(1, n)],
                scores=rng.normal(size=n), teacher_scores=rng.normal(size=n),
            )
            cl = contrastive_loss(c)
            ll = rank_consistent_loss(c, make_rank_pairs(c))
            for lam in (0.0, 1.0, 1.2, 2.0):
                total = combined_loss(cl, ll, lam)
                worst = max(worst, abs(total.loss - (cl.loss + lam * ll.loss)))
        report(4, worst < 1e-12, f"max |total - (cl + lam*ll)| = {worst:.1e} over lam grid")
        assert worst < 1e-12


class TestCriterion5:
    def test_index_equivalence(self):
        rng = np.random.default_rng(77)
        n_docs, n_terms, n_queries = 500, 60, 50

        def by_term(terms, low, high):
            # One weight per term, drawn in the order the terms were drawn.
            weights = np.array([float(rng.uniform(low, high)) for _ in terms])
            order = np.argsort(terms)
            return TermWeightVector(terms[order], weights[order])

        # Sparse side.
        vectors = {}
        for i in range(n_docs):
            terms = rng.choice(n_terms, size=rng.integers(1, 10), replace=False)
            vectors[f"d{i:04d}"] = by_term(terms, 0.05, 2.0)
        index = build_index(vectors)
        dense_mats = np.zeros((n_docs, n_terms))
        pids = sorted(vectors)
        for row, pid in enumerate(pids):
            dense_mats[row, vectors[pid].terms] = vectors[pid].weights
        sparse_ok = True
        for _ in range(n_queries):
            q_terms = rng.choice(n_terms, size=rng.integers(1, 6), replace=False)
            query = by_term(q_terms, 0.1, 1.5)
            qv = np.zeros(n_terms)
            qv[query.terms] = query.weights
            scores = dense_mats @ qv
            expected = sorted(
                ((pids[i], float(scores[i])) for i in range(n_docs)),
                key=lambda e: (-e[1], e[0]),
            )
            got = sparse_search(query, index, k=n_docs)
            sparse_ok &= got.pids() == [p for p, _ in expected]
            sparse_ok &= all(
                abs(s - es) < 1e-9 for (_, s), (_, es) in zip(got.entries, expected)
            )

        # Dense side.
        mat = rng.normal(size=(n_docs, 12))
        dindex = DenseIndex(pids=pids, matrix=mat)
        dense_ok = True
        for _ in range(n_queries):
            q = rng.normal(size=12)
            scores = mat @ q
            expected = sorted(
                ((pids[i], float(scores[i])) for i in range(n_docs)),
                key=lambda e: (-e[1], e[0]),
            )
            got = dense_search(q, dindex, k=n_docs)
            dense_ok &= got.pids() == [p for p, _ in expected]
            dense_ok &= all(
                abs(s - es) < 1e-9 for (_, s), (_, es) in zip(got.entries, expected)
            )
        report(5, sparse_ok and dense_ok,
               f"{n_queries} queries x {n_docs} docs: sparse and dense match brute force")
        assert sparse_ok and dense_ok


class TestCriterion6:
    def test_exclusion_invariant(self, lab):
        leaks = 0
        pools = lab["result"].pools
        qrels = lab["result"].qrels
        scanned = 0
        for pool in pools.values():
            for qid, sources in pool.by_query.items():
                positives = qrels.positives(qid)
                for pids in sources.values():
                    scanned += len(pids)
                    leaks += len(positives.intersection(pids))
        report(6, leaks == 0, f"scanned {scanned} pooled negatives across "
                              f"{len(pools)} pools, {leaks} positives leaked")
        assert leaks == 0


class TestCriterion7:
    def test_pipeline_determinism(self, tmp_path):
        d = tmp_path / "toy"
        synthetic.write_fixture(
            d, seed=13, exact_clusters=4, cluster_size=4, exact_train=10, exact_test=5,
            para_supers=2, groups_per_super=5, para_train=8, para_test=4,
            total_docs=50, filler_topics=4,
        )
        (d / "toy.cfg").write_text(
            "\n".join(
                [
                    f"collection = {d / 'collection.tsv'}",
                    f"train_queries = {d / 'train_queries.tsv'}",
                    f"train_qrels = {d / 'train_qrels.txt'}",
                    f"eval_queries = {d / 'test_queries.tsv'}",
                    f"eval_qrels = {d / 'test_qrels.txt'}",
                    "seed = 5", "dim = 6", "epochs = 2", "m = 6", "warmup_m = 3",
                    "depth = 12", "run_depth = 50", "batch_size = 4", "lr = 0.02",
                ]
            )
            + "\n"
        )
        assert cli.main(["pipeline", "--config", str(d / "toy.cfg"), "--out-dir", str(tmp_path / "a")]) == 0
        assert cli.main(["pipeline", "--config", str(d / "toy.cfg"), "--out-dir", str(tmp_path / "b")]) == 0
        mismatched = []
        compared = 0
        for sub in ("runs", "checkpoints"):
            for path_a in sorted((tmp_path / "a" / sub).iterdir()):
                path_b = tmp_path / "b" / sub / path_a.name
                compared += 1
                if path_a.read_bytes() != path_b.read_bytes():
                    mismatched.append(f"{sub}/{path_a.name}")
        ok = not mismatched and compared >= 8
        report(7, ok, f"{compared} run/checkpoint files byte-identical across reruns")
        assert ok, mismatched


class TestCriterion8:
    def test_directional_lexical_gap(self, lab):
        sm = lab["subset_mean"]
        lex_exact = sm(lab["mrr"]["lex2"], "te-ex-")
        den2_exact = sm(lab["mrr"]["den2"], "te-ex-")
        led_exact = sm(lab["mrr"]["led"], "te-ex-")
        den2_para = sm(lab["mrr"]["den2"], "te-pa-")
        led_para = sm(lab["mrr"]["led"], "te-pa-")
        a_ok = lex_exact > den2_exact
        gain = led_exact - den2_exact
        b_ok = gain >= 0.05
        degr = den2_para - led_para
        c_ok = degr <= 0.02
        t_ok = lab["elapsed"] < 300.0
        ok = a_ok and b_ok and c_ok and t_ok
        report(
            8, ok,
            f"exact MRR@10 lex={lex_exact:.3f} den={den2_exact:.3f} led={led_exact:.3f} "
            f"(gain {gain:+.3f}); para degradation {degr:+.3f}; {lab['elapsed']:.0f}s",
        )
        assert a_ok, "lexical teacher must beat the continued dense model on exact-match"
        assert b_ok, f"exact-match gain {gain:.3f} below 0.05"
        assert c_ok, f"paraphrase degradation {degr:.3f} above 0.02"
        assert t_ok, f"runtime {lab['elapsed']:.0f}s exceeds 5 minutes"


class TestCriterion9:
    def test_ablation_direction(self, lab):
        overall = {name: lab["mrr"][name].mean for name in ("den2", "led_noreg", "led")}
        diff = abs(overall["led_noreg"] - overall["den2"])
        a_ok = diff <= 0.02
        b_ok = overall["led"] > max(overall["led_noreg"], overall["den2"])
        report(
            9, a_ok and b_ok,
            f"MRR@10 self={overall['den2']:.3f} mixed={overall['led_noreg']:.3f} "
            f"(|diff| {diff:.3f}) mixed+reg={overall['led']:.3f}",
        )
        assert a_ok, "mixed negatives without regularization should match self negatives"
        assert b_ok, "regularized training should beat both ablations"


class TestCriterion10:
    def test_fusion_sanity(self, lab):
        fused = analysis.ensemble_fuse(lab["runs"]["led"], lab["runs"]["lex2"], k=lab["k"])
        fused_mrr = mrr_at_k(fused.run, lab["qrels"], 10).mean
        floor = max(lab["mrr"]["led"].mean, lab["mrr"]["lex2"].mean) - 0.01
        a_ok = fused_mrr >= floor
        self_fused = analysis.ensemble_fuse(lab["runs"]["led"], lab["runs"]["led"], k=lab["k"])
        b_ok = all(
            self_fused.run.rankings[qid].pids() == lab["runs"]["led"].rankings[qid].pids()
            for qid in lab["runs"]["led"].rankings
        )
        report(
            10, a_ok and b_ok,
            f"fused MRR@10 {fused_mrr:.3f} >= max(led, lex)-0.01 = {floor:.3f}; "
            f"self-fusion preserves order: {b_ok}",
        )
        assert a_ok and b_ok

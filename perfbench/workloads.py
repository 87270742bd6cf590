"""The three workloads: set-up, one timed pass, and the output checks.

Every call into lexlab goes through a module attribute (`training.run_pipeline`,
never a name bound at import), so the tracer's wrappers see it. Each pass
returns its end-to-end figures and a list of (check, ok, detail) triples.
"""

from __future__ import annotations

import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

from lexlab import analysis, data, encoders, gradcheck, retrieval, sparse_index, synthetic, training

import reference
from tracing import Tracer

# The acceptance configuration (tests/test_acceptance.py PIPELINE_CONFIG,
# the README's led.cfg).
LED_CONFIG = dict(
    seed=5, dim=16, lr=0.03, lex_warmup_lr=0.03, lex_continue_lr=0.02,
    den_warmup_lr=0.03, led_lr=0.015, lex_epochs=10, den_epochs=14, led_epochs=12,
    epochs=10, warmup_m=5, m=32, depth=10, mix_depth=40, reg_weight=1.2,
    flops_weight=0.2, strategy="rank-consistent", batch_size=8, run_depth=1000,
)

# 8000 passages and 150 eval queries. Queries grow through cluster_size and
# exact_test: more exact clusters would grow the vocabulary, and lexical
# encoding cost grows with |V| times passage length. The query count keeps a
# pass near 5 s, so the median is taken over several passes per run.
SEARCH_FIXTURE = dict(total_docs=8000, cluster_size=40, exact_test=120, para_test=30)
SEARCH_DEPTH = 1000
SEARCH_CHECK_QUERIES = 12
GRADCHECK_TRIALS = 10
GRADCHECK_MAX_ERROR = 1e-4

Check = tuple[str, bool, str]


def _lines(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for _ in f)


def _stage_total(summary: dict, prefix: str) -> tuple[int, float]:
    """(calls, inclusive seconds) of every span whose name starts with prefix."""
    rows = [row for name, row in summary.items() if name.startswith(prefix)]
    return sum(r[0] for r in rows), sum(r[2] for r in rows)


class LedPipeline:
    """The paper's method end to end: fixture files + led.cfg -> run_pipeline."""

    name = "led-pipeline"
    setup_reps = 15

    def setup(self, work: Path, seed: int, rep: int) -> None:
        home = work / f"setup{rep}"
        synthetic.write_fixture(home / "data", seed=seed)
        lines = [f"{key} = {home / 'data' / name}" for key, name in (
            ("collection", "collection.tsv"), ("train_queries", "train_queries.tsv"),
            ("train_qrels", "train_qrels.txt"), ("eval_queries", "test_queries.tsv"),
            ("eval_qrels", "test_qrels.txt"))]
        lines += [f"{key} = {value}" for key, value in LED_CONFIG.items()]
        (home / "led.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.cfg = training.config_from_mapping(training.parse_config_file(home / "led.cfg"))
        self.home = home
        self.manifest: bytes | None = None

    def run_pass(self, i: int, tracer: Tracer) -> tuple[dict[str, float], list[Check]]:
        out = self.home / f"pass{i}"
        lo = len(tracer.start)
        result = training.run_pipeline(self.cfg, out_dir=out)
        summary = tracer.summarize(lo, len(tracer.start))
        train_sets = sum(len(log.steps) for log in result.logs.values())
        del result

        fixture = self.home / "data"
        n_docs = _lines(fixture / "collection.tsv")
        n_eval = _lines(fixture / "test_queries.tsv")
        _, train_s = _stage_total(summary, "training.train_stage")
        encodes, encode_s = _stage_total(summary, "retrieval.encode_corpus")
        searches, search_s = _stage_total(summary, "retrieval.make_run")
        test_qrels = reference.read_qrels(fixture / "test_qrels.txt")
        mrr = {name: reference.mrr_at_10(reference.read_run(out / "runs" / f"{name}.trec"), test_qrels)
               for name in ("led", "lex2")}
        metrics = {
            "train_sets_per_s": train_sets / train_s,
            "index_docs_per_s": n_docs * encodes / encode_s,
            "search_qps": n_eval * searches / search_s,
            "mrr10_led": mrr["led"],
            "mrr10_lex2": mrr["lex2"],
        }
        checks = self._check(out, mrr, tracer)
        shutil.rmtree(out)
        return metrics, checks

    def _check(self, out: Path, mrr: dict[str, float], tracer: Tracer) -> list[Check]:
        train_qrels = reference.read_qrels(self.home / "data" / "train_qrels.txt")
        leaks = []
        pool_m = {"bm25": self.cfg.warmup_m, "lex1": self.cfg.warmup_m,
                  "lex1_top": self.cfg.mix_depth, "lex2_top": self.cfg.mix_depth,
                  "den1_top": self.cfg.mix_depth}
        for path in sorted((out / "pools").glob("*.tsv")):
            pool = reference.read_pool(path)
            leaks += [f"{path.stem}:{qid}" for qid, pids in pool.items()
                      if train_qrels.get(qid, set()).intersection(pids)]
            if path.stem in pool_m:
                short = sum(len(pids) < pool_m[path.stem] for pids in pool.values())
                tracer.counts[f"training.short_queries.{path.stem}"] += short
        ckpts = {p.stem: reference.checkpoint_is_finite(p) for p in (out / "checkpoints").glob("*.ckpt")}
        missing = {"lex1", "lex2", "den1", "led"} - set(ckpts)
        reported = {name: reference.read_report_mean(out / "reports" / f"{name}.tsv", "mrr@10")
                    for name in mrr}
        manifest = (out / "manifest.json").read_bytes()
        if self.manifest is None:
            self.manifest = manifest
        return [
            ("pools_exclude_qrels_positives", not leaks, ", ".join(leaks[:5])),
            ("checkpoints_finite", not missing and all(ckpts.values()),
             f"missing {sorted(missing)}, non-finite {sorted(k for k, ok in ckpts.items() if not ok)}"),
            ("report_mrr_matches_run_file",
             all(abs(reported[n] - mrr[n]) <= 1e-6 for n in mrr), f"report {reported}, run files {mrr}"),
            ("rerun_byte_identical", manifest == self.manifest, "manifest differs from the first pass"),
        ]

    def final_checks(self) -> list[tuple[int, Check]]:
        return []


class _Bm25Miner:
    """Search backend for mining BM25 negatives; duck-typed on `search`."""

    def __init__(self, index, vocab) -> None:
        self.index, self.vocab = index, vocab

    def search(self, text: str, k: int, qid: str = ""):
        return sparse_index.bm25_search(data.vectorize(text, self.vocab), self.index, k, qid=qid)


class SearchLarge:
    """Corpus encoding, top-k search, run I/O and analysis; no training."""

    name = "search-large"
    setup_reps = 3

    def setup(self, work: Path, seed: int, rep: int) -> None:
        home = work / f"setup{rep}"
        synthetic.write_fixture(home, seed=seed, **SEARCH_FIXTURE)
        self.home = home
        self.corpus = data.load_collection(home / "collection.tsv")
        train_queries = data.load_queries(home / "train_queries.tsv")
        train_qrels = data.load_qrels(home / "train_qrels.txt")
        self.queries = data.load_queries(home / "test_queries.tsv")
        self.qrels = data.load_qrels(home / "test_qrels.txt")
        self.vocab = data.build_vocab(self.corpus)
        self.doc_tvs = data.vectorize_corpus(self.corpus, self.vocab)
        self.bm25_index = sparse_index.build_index(self.doc_tvs)
        pool = training.mine_negatives(_Bm25Miner(self.bm25_index, self.vocab),
                                       train_queries, train_qrels, 10, 5, 5)
        self.params = {}
        # Four lexical epochs: after two, the learned index held 9 to 159
        # postings per passage depending on the seed, and search cost with it.
        for kind, params_cls, epochs in (("lexical", encoders.LexicalParams, 4),
                                         ("dense", encoders.DenseParams, 6)):
            config = training.TrainConfig(seed=5, dim=16, lr=0.03, batch_size=8, m=5, epochs=epochs,
                                          flops_weight=0.2 if kind == "lexical" else 0.0,
                                          stage="warmup", strategy="none")
            init = params_cls.init(self.vocab.size, 16, 5)
            self.params[kind], _ = training.train_stage(
                config, self.vocab, self.corpus, train_queries, train_qrels, pool, init,
                None, self.doc_tvs)
        rng = random.Random(f"check|{seed}")
        self.sample = sorted(rng.sample(sorted(self.queries.queries), SEARCH_CHECK_QUERIES))
        self.first: dict[str, dict] | None = None

    def run_pass(self, i: int, tracer: Tracer) -> tuple[dict[str, float], list[Check]]:
        lo = len(tracer.start)
        indexes = {
            "bm25": self.bm25_index,
            "lexical": retrieval.encode_corpus(self.params["lexical"], self.corpus, self.vocab),
            "dense": retrieval.encode_corpus(self.params["dense"], self.corpus, self.vocab),
        }
        runs = {name: retrieval.make_run(self.params.get(name), self.queries, index, self.vocab,
                                         k=SEARCH_DEPTH, tag=name)
                for name, index in indexes.items()}
        del indexes
        with tracer.span("bench.analysis") as span:
            loaded = {}
            for name, run in runs.items():
                path = self.home / f"{name}.trec"
                retrieval.save_run(run, path)
                loaded[name] = retrieval.load_run(path)
            reports = {name: retrieval.evaluate(run, self.qrels) for name, run in loaded.items()}
            analysis.ensemble_fuse(loaded["lexical"], loaded["dense"], k=SEARCH_DEPTH)
            analysis.rank_buckets(loaded["lexical"], {"dense": loaded["dense"], "bm25": loaded["bm25"]},
                                  self.qrels)
            analysis.discrepancy_pairs(loaded["lexical"], loaded["dense"], loaded["bm25"])
        summary = tracer.summarize(lo, len(tracer.start))
        encodes, encode_s = _stage_total(summary, "retrieval.encode_corpus")
        searches, search_s = _stage_total(summary, "retrieval.make_run")
        metrics = {
            "index_docs_per_s": len(self.corpus.docs) * encodes / encode_s,
            "search_qps": len(self.queries.queries) * searches / search_s,
            "analysis_s": span.seconds,
        }

        sample = {name: {qid: run.rankings[qid].entries for qid in self.sample}
                  for name, run in runs.items()}
        qrels = reference.read_qrels(self.home / "test_qrels.txt")
        checks: list[Check] = []
        for name, run in loaded.items():
            ranked = {qid: [pid for pid, _ in r.entries] for qid, r in run.rankings.items()}
            ours, theirs = reference.mrr_at_10(ranked, qrels), reports[name].mean("mrr@10")
            checks.append((f"evaluate_mrr_{name}", abs(ours - theirs) <= 1e-9, f"{theirs!r} vs {ours!r}"))
            bad = [qid for qid in self.sample if not _same_run_entries(run.rankings[qid].entries,
                                                                       sample[name][qid])]
            checks.append((f"run_file_round_trip_{name}", not bad, f"queries {bad[:3]}"))
        if self.first is None:
            self.first = sample
        else:
            changed = [name for name in sample if sample[name] != self.first[name]]
            checks.append(("pass_repeats_first_pass", not changed, f"runs {changed}"))
        return metrics, checks

    def final_checks(self) -> list[tuple[int, Check]]:
        """Top-k of the sampled queries from the first pass against brute force."""
        if self.first is None:
            return []
        pids = sorted(self.corpus.docs)
        row_of = {pid: row for row, pid in enumerate(pids)}
        doc_tvs = [self.doc_tvs[pid] for pid in pids]
        query_tvs = [data.vectorize(self.queries.queries[qid], self.vocab) for qid in self.sample]
        lexical = self.params["lexical"].tensors()
        dense = self.params["dense"].tensors()
        scores = {
            "bm25": [reference.bm25_scores(doc_tvs, tv, k1=1.2, b=0.75) for tv in query_tvs],
            "lexical": reference.lexical_scores(lexical, doc_tvs, query_tvs),
            "dense": reference.dense_vectors(dense, query_tvs) @ reference.dense_vectors(dense, doc_tvs).T,
        }
        checks = []
        for name, per_query in scores.items():
            problems = [f"{qid}: {why}" for qid, ref in zip(self.sample, per_query)
                        if (why := reference.topk_mismatch(self.first[name][qid], ref, pids,
                                                           row_of, SEARCH_DEPTH))]
            checks.append((0, (f"top{SEARCH_DEPTH}_equals_brute_force_{name}", not problems,
                               "; ".join(problems[:2]))))
        return checks


def _same_run_entries(loaded: list, written: list) -> bool:
    """Run files print six decimals: same pids in order, scores within 5e-7."""
    return len(loaded) == len(written) and all(
        p == q and abs(s - t) <= 5e-7 for (p, s), (q, t) in zip(loaded, written))


class GradcheckSuite:
    """`lexlab gradcheck`: finite differences over tiny encoders and losses.

    Pass i runs `run_suite(10, seed + 10 i)`; passes 0-9 together check the
    instances of `lexlab gradcheck --trials 100 --seed <seed>`.
    """

    name = "gradcheck-suite"
    setup_reps = 9

    def setup(self, work: Path, seed: int, rep: int) -> None:
        # The only set-up `lexlab gradcheck` has: a fresh interpreter importing it.
        # No timeout: a timed wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import lexlab.gradcheck"], check=True)
        self.seed = seed

    def run_pass(self, i: int, tracer: Tracer) -> tuple[dict[str, float], list[Check]]:
        report = gradcheck.run_suite(GRADCHECK_TRIALS, self.seed + GRADCHECK_TRIALS * i)
        worst = float(report.worst)
        ok = all(math.isfinite(e) and e < GRADCHECK_MAX_ERROR for e in report.max_errors.values())
        return ({"worst_rel_error": worst},
                [("max_relative_error_below_1e-4", ok, f"worst {worst!r}")])

    def final_checks(self) -> list[tuple[int, Check]]:
        return []


WORKLOADS = {w.name: w for w in (LedPipeline, SearchLarge, GradcheckSuite)}

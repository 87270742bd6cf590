import functools

import numpy as np
import pytest

from lexlab.analysis import (
    _golden_rank,
    _normalize,
    discrepancy_pairs,
    emit_histogram,
    ensemble_fuse,
    format_bucket_table,
    histogram_counts,
    rank_buckets,
)
from lexlab.data import Qrels
from lexlab.retrieval import RunFile
from lexlab.sparse_index import Ranking


def ranking_from(qid, entries):
    return Ranking(
        qid=qid, ids=[pid for pid, _ in entries], scores=np.array([float(s) for _, s in entries])
    )


def run_from(entries_by_qid, tag="t"):
    return RunFile(
        rankings={qid: ranking_from(qid, entries) for qid, entries in entries_by_qid.items()},
        tag=tag,
    )


def normalize_run(run):
    """`run` with each query's scores min-max normalized as the analyses see them."""
    rankings = {
        qid: Ranking(qid=qid, ids=r.ids, scores=_normalize(r.scores))
        for qid, r in run.rankings.items()
    }
    return RunFile(rankings=rankings, tag=run.tag)


# The tuple and dict bodies the analyses had before rankings became arrays,
# kept as oracles. A run here is {qid: [(pid, score), ...]}.


def oracle_normalize(entries):
    if not entries:
        return []
    scores = [s for _, s in entries]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return [(pid, 0.5) for pid, _ in entries]
    return [(pid, (s - lo) / (hi - lo)) for pid, s in entries]


def oracle_fuse(run_a, run_b, k):
    rankings = {}
    for qid in sorted(set(run_a) & set(run_b)):
        a = dict(oracle_normalize(run_a[qid]))
        b = dict(oracle_normalize(run_b[qid]))
        rankings[qid] = sorted(
            ((pid, a.get(pid, 0.0) + b.get(pid, 0.0)) for pid in sorted(set(a) | set(b))),
            key=lambda e: (-e[1], e[0]),
        )[:k]
    return rankings


def oracle_golden_rank(run, qid, pid, depth):
    for rank, (cand, _) in enumerate(run.get(qid, [])[:depth], 1):
        if cand == pid:
            return rank
    return depth + 1


def oracle_discrepancy(lex, den, led, margin, top_n, bottom_n, depth):
    biased, unbiased = [], []
    for qid, ranking in lex.items():
        entries = oracle_normalize(ranking)[:depth]
        den_scores = dict(oracle_normalize(den[qid])) if qid in den else {}
        led_scores = dict(oracle_normalize(led[qid])) if qid in led else {}
        strata = (
            (biased, entries[:top_n]),
            (unbiased, entries[max(top_n, len(entries) - bottom_n):]),
        )
        for out, stratum in strata:
            for pid, lex_score in stratum:
                den_score = den_scores.get(pid, 0.0)
                if abs(lex_score - den_score) > margin:
                    out.append((qid, pid, lex_score, den_score, led_scores.get(pid, 0.0)))
    return biased, unbiased


def random_lists(rng, n_queries=40, pool=60):
    """{qid: entries} with partial overlap between calls, and constant,
    single-entry, empty, repeated-pid and signed-zero lists; some queries
    are left out."""
    out = {}
    for q in range(n_queries):
        shape = rng.integers(0, 8)
        if shape == 0:
            continue
        n = int(rng.integers(1, pool))
        pids = [f"d{i:03d}" for i in rng.choice(pool, size=n, replace=False)]
        scores = np.round(rng.normal(size=n), int(rng.integers(0, 3)))  # rounding makes ties
        scores[rng.random(n) < 0.1] = -0.0
        if shape == 1:
            scores[:] = 2.5
        elif shape == 2:
            pids, scores = pids[:1], scores[:1]
        elif shape == 3:
            pids, scores = [], scores[:0]
        elif shape == 4:  # one pid listed twice, with another score
            pids.append(pids[0])
            scores = np.append(scores, float(rng.normal()))
        elif shape == 5:  # non-negative, so the minimum is often a signed zero
            scores = np.abs(scores)
            scores[rng.random(n) < 0.3] = -0.0
        out[f"q{q}"] = list(zip(pids, scores.tolist()))
    return out


# Hand-made fusion cases: "d10" sorts before "d9" as a string and is listed
# twice in one ranking; qa and qb are in one run only; q2 has an empty
# ranking on one side and q3 on both.
FUSE_CASES = (
    {"q1": [("d9", 3.0), ("d10", 2.0), ("d100", 1.0), ("d10", 0.5)], "q2": [], "q3": [],
     "qa": [("d1", 1.0)]},
    {"q1": [("d2", 4.0), ("d9", 1.0), ("d10", 1.0)], "q2": [("d10", 1.0), ("d9", 1.0), ("d1", 0.0)],
     "q3": [], "qb": [("d3", 2.0)]},
)


@functools.cache
def large_run_lists(n_queries=150, depth=1000, n_pids=8000):
    """One seeded pair of runs at search scale: `depth` pids per query from
    `n_pids`, unpadded, so string order differs from numeric order."""
    rng = np.random.default_rng(150)
    runs = []
    for _ in range(2):
        run = {}
        for q in range(n_queries):
            pids = [f"d{i}" for i in rng.choice(n_pids, size=depth, replace=False).tolist()]
            run[f"q{q}"] = list(zip(pids, np.sort(rng.normal(size=depth))[::-1].tolist()))
        runs.append(run)
    return tuple(runs)


def bits(entries):
    return [(pid, score.hex()) for pid, score in entries]


class TestArrayFormsMatchOracles:
    def test_normalize(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            lists = random_lists(rng)
            normed = normalize_run(run_from(lists))
            assert list(normed.rankings) == list(lists)
            for qid, entries in lists.items():
                assert bits(normed.rankings[qid].entries) == bits(oracle_normalize(entries))

    def test_normalize_with_nan(self):
        for scores in ([np.nan, 1.0, 3.0], [1.0, np.nan, 3.0], [2.0, 2.0, np.nan]):
            entries = [(f"d{i}", s) for i, s in enumerate(scores)]
            got = normalize_run(run_from({"q": entries})).rankings["q"].entries
            assert bits(got) == bits(oracle_normalize(entries))

    @pytest.mark.parametrize("k", [1, 5, 1000, 5000])
    def test_fuse(self, k):
        rng = np.random.default_rng(21 + k)
        pairs = [(random_lists(rng), random_lists(rng)) for _ in range(5)]
        pairs += [FUSE_CASES, large_run_lists()]
        for lists_a, lists_b in pairs:
            if not set(lists_a) & set(lists_b):
                continue
            fused = ensemble_fuse(run_from(lists_a), run_from(lists_b), k=k)
            rankings = oracle_fuse(lists_a, lists_b, k)
            assert list(fused.rankings) == list(rankings)
            for qid, entries in rankings.items():
                assert bits(fused.rankings[qid].entries) == bits(entries)

    def test_golden_rank(self):
        rng = np.random.default_rng(22)
        lists = random_lists(rng)
        run = run_from(lists)
        for q in range(45):
            qid = f"q{q}"
            for pid in ("d000", "d007", "d030", "d059", "zz"):
                for depth in (1, 3, 10, 1000):
                    want = oracle_golden_rank(lists, qid, pid, depth)
                    assert _golden_rank(run, qid, pid, depth) == want

    @pytest.mark.parametrize("top_n,bottom_n,depth", [(100, 100, 1000), (5, 5, 20), (10, 30, 25)])
    def test_discrepancy(self, top_n, bottom_n, depth):
        rng = np.random.default_rng(23 + depth)
        for _ in range(5):
            lex, den, led = random_lists(rng), random_lists(rng), random_lists(rng)
            sample = discrepancy_pairs(
                run_from(lex), run_from(den), run_from(led),
                margin=0.2, top_n=top_n, bottom_n=bottom_n, depth=depth,
            )
            biased, unbiased = oracle_discrepancy(lex, den, led, 0.2, top_n, bottom_n, depth)

            def row_bits(rows):
                return [(q, p) + tuple(x.hex() for x in xs) for q, p, *xs in rows]

            assert row_bits(sample.biased) == row_bits(biased)
            assert row_bits(sample.unbiased) == row_bits(unbiased)


class TestNormalize:
    def test_min_max(self):
        assert _normalize(np.array([6.0, 4.0, 2.0])).tolist() == [1.0, 0.5, 0.0]

    def test_single_entry_is_half(self):
        assert _normalize(np.array([42.0])).tolist() == [0.5]

    def test_constant_list_is_half(self):
        assert _normalize(np.array([3.0, 3.0])).tolist() == [0.5, 0.5]

    def test_order_preserved(self):
        scores = -np.sort(-np.random.default_rng(1).normal(size=30))
        normed = _normalize(scores)
        assert normed[0] == 1.0 and normed[-1] == 0.0
        assert np.all(np.diff(normed) < 0)


class TestFuse:
    def test_self_fusion_preserves_order(self):
        entries = [("a", 5.0), ("b", 3.0), ("c", 1.0)]
        run = run_from({"q": entries})
        fused = ensemble_fuse(run, run)
        assert fused.rankings["q"].pids() == ["a", "b", "c"]

    def test_top_in_both_stays_top(self):
        run_a = run_from({"q": [("top", 9.0), ("x", 1.0)]})
        run_b = run_from({"q": [("top", 4.0), ("y", 2.0)]})
        fused = ensemble_fuse(run_a, run_b)
        assert fused.rankings["q"].pids()[0] == "top"

    def test_matches_brute_force_union_sum(self):
        rng = np.random.default_rng(5)
        pids = [f"d{i}" for i in range(20)]
        for _ in range(10):
            a_list = sorted(
                [(p, float(rng.normal())) for p in rng.choice(pids, 12, replace=False)],
                key=lambda e: (-e[1], e[0]),
            )
            b_list = sorted(
                [(p, float(rng.normal())) for p in rng.choice(pids, 12, replace=False)],
                key=lambda e: (-e[1], e[0]),
            )
            run_a = run_from({"q": a_list})
            run_b = run_from({"q": b_list})
            fused = ensemble_fuse(run_a, run_b)

            def norm(lst):
                scores = [s for _, s in lst]
                lo, hi = min(scores), max(scores)
                if hi == lo:
                    return {p: 0.5 for p, _ in lst}
                return {p: (s - lo) / (hi - lo) for p, s in lst}

            na, nb = norm(a_list), norm(b_list)
            union = set(na) | set(nb)
            expected = sorted(
                ((p, na.get(p, 0.0) + nb.get(p, 0.0)) for p in union),
                key=lambda e: (-e[1], e[0]),
            )
            assert fused.rankings["q"].pids() == [p for p, _ in expected]
            for (pid, score), (_, escore) in zip(fused.rankings["q"].entries, expected):
                assert score == pytest.approx(escore, abs=1e-12)

    def test_symmetric(self):
        run_a = run_from({"q": [("a", 3.0), ("b", 1.0)]}, tag="A")
        run_b = run_from({"q": [("b", 7.0), ("c", 2.0)]}, tag="B")
        ab = ensemble_fuse(run_a, run_b)
        ba = ensemble_fuse(run_b, run_a)
        assert ab.rankings["q"].pids() == ba.rankings["q"].pids()
        for (p1, s1), (p2, s2) in zip(ab.rankings["q"].entries, ba.rankings["q"].entries):
            assert p1 == p2 and s1 == pytest.approx(s2, abs=1e-12)

    def test_disjoint_queries_rejected(self):
        with pytest.raises(ValueError):
            ensemble_fuse(run_from({"q1": [("a", 1.0)]}), run_from({"q2": [("a", 1.0)]}))

    def test_truncates_to_k(self):
        run_a = run_from({"q": [(f"a{i}", 10.0 - i) for i in range(8)]})
        run_b = run_from({"q": [(f"b{i}", 10.0 - i) for i in range(8)]})
        fused = ensemble_fuse(run_a, run_b, k=5)
        assert len(fused.rankings["q"].entries) == 5

    def test_k_below_one_rejected(self):
        run = run_from({"q": [("a", 1.0)]})
        with pytest.raises(ValueError, match="k must be >= 1"):
            ensemble_fuse(run, run, k=0)


class TestBuckets:
    def _runs(self):
        # Reference (lex) ranks golden passages of q1..q4 at 1, 3, 7, 20.
        def ranking(golden_rank, n=25):
            entries = []
            rank = 1
            i = 0
            while rank <= n:
                if rank == golden_rank:
                    entries.append(("gold", float(n - rank)))
                else:
                    entries.append((f"f{i}", float(n - rank)))
                    i += 1
                rank += 1
            return entries

        lex = run_from(
            {f"q{i}": ranking(r) for i, r in zip(range(1, 5), [1, 3, 7, 20])}, tag="lex"
        )
        den = run_from(
            {f"q{i}": ranking(r) for i, r in zip(range(1, 5), [2, 6, 9, 25])}, tag="den"
        )
        qrels = Qrels.from_entries({(f"q{i}", "gold"): 1 for i in range(1, 5)})
        return lex, den, qrels

    def test_hand_computed_means(self):
        lex, den, qrels = self._runs()
        table = rank_buckets(lex, {"den": den}, qrels, depth=25)
        rows = {r.label: r for r in table.rows}
        assert rows["Top 1"].count == 1
        assert rows["Top 1"].mean_ranks["lex"] == 1.0
        assert rows["Top 1"].mean_ranks["den"] == 2.0
        assert rows["(1, 5]"].count == 1
        assert rows["(1, 5]"].mean_ranks["den"] == 6.0
        assert rows["(5, 10]"].mean_ranks["den"] == 9.0
        assert rows["(10, 50]"].mean_ranks["lex"] == 20.0
        assert rows["(10, 50]"].mean_ranks["den"] == 25.0

    def test_counts_partition_bucketed_queries(self):
        lex, den, qrels = self._runs()
        table = rank_buckets(lex, {"den": den}, qrels, depth=25)
        assert sum(r.count for r in table.rows) == 4

    def test_identical_runs_equal_means(self):
        lex, _, qrels = self._runs()
        table = rank_buckets(lex, {"other": lex}, qrels, depth=25)
        for row in table.rows:
            if row.count:
                assert row.mean_ranks["lex"] == row.mean_ranks["other"]

    def test_golden_missing_counts_depth_plus_one(self):
        lex = run_from({"q1": [("gold", 1.0)]}, tag="lex")
        den = run_from({"q1": [("junk", 1.0)]}, tag="den")
        qrels = Qrels.from_entries({("q1", "gold"): 1})
        table = rank_buckets(lex, {"den": den}, qrels, depth=10)
        top1 = next(r for r in table.rows if r.label == "Top 1")
        assert top1.mean_ranks["den"] == 11.0

    def test_a_run_named_like_the_reference_tag_rejected(self):
        lex, den, qrels = self._runs()
        with pytest.raises(ValueError, match="run name 'lex' is the reference run's tag"):
            rank_buckets(lex, {"den": den, "lex": den}, qrels, depth=25)

    def test_table_format_shape(self):
        lex, den, qrels = self._runs()
        text = format_bucket_table(rank_buckets(lex, {"den": den}, qrels, depth=25))
        lines = text.strip().splitlines()
        assert lines[0].split("\t") == ["range", "count", "lex", "den"]
        assert lines[1].startswith("Top 1\t")

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        lex, den, qrels = self._runs()
        with pytest.raises(ValueError, match="depth must be >= 1"):
            rank_buckets(lex, {"den": den}, qrels, depth=depth)


class TestDiscrepancy:
    def test_identical_runs_empty(self):
        run = run_from({"q": [(f"d{i}", 10.0 - i) for i in range(10)]})
        sample = discrepancy_pairs(run, run, run)
        assert sample.biased == [] and sample.unbiased == []

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        run = run_from({"q": [(f"d{i}", 10.0 - i) for i in range(3)]})
        with pytest.raises(ValueError, match="depth must be >= 1"):
            discrepancy_pairs(run, run, run, depth=depth)

    @pytest.mark.parametrize("margin", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_margin_negative_or_not_finite_rejected(self, margin):
        run = run_from({"q": [(f"d{i}", 10.0 - i) for i in range(3)]})
        with pytest.raises(ValueError, match="margin must be a finite number >= 0"):
            discrepancy_pairs(run, run, run, margin=margin)

    def test_counts_match_brute_force_filter(self):
        rng = np.random.default_rng(8)
        pids = [f"d{i}" for i in range(40)]

        def rand_run(tag):
            return run_from(
                {
                    "q": sorted(
                        [(p, float(rng.uniform(0, 1))) for p in pids],
                        key=lambda e: (-e[1], e[0]),
                    )
                },
                tag=tag,
            )

        lex, den, led = rand_run("lex"), rand_run("den"), rand_run("led")
        sample = discrepancy_pairs(lex, den, led, margin=0.2, top_n=10, bottom_n=10, depth=40)
        norm_lex = normalize_run(lex).rankings["q"].entries
        den_scores = dict(normalize_run(den).rankings["q"].entries)
        expected_biased = sum(
            1 for pid, s in norm_lex[:10] if abs(s - den_scores.get(pid, 0.0)) > 0.2
        )
        expected_unbiased = sum(
            1 for pid, s in norm_lex[30:] if abs(s - den_scores.get(pid, 0.0)) > 0.2
        )
        assert len(sample.biased) == expected_biased
        assert len(sample.unbiased) == expected_unbiased

    def test_margin_predicate_holds(self):
        rng = np.random.default_rng(9)
        pids = [f"d{i}" for i in range(30)]

        def rand_run(tag):
            return run_from(
                {
                    "q": sorted(
                        [(p, float(rng.uniform(0, 1))) for p in pids],
                        key=lambda e: (-e[1], e[0]),
                    )
                },
                tag=tag,
            )

        sample = discrepancy_pairs(
            rand_run("a"), rand_run("b"), rand_run("c"), margin=0.2, top_n=15, bottom_n=15, depth=30
        )
        for _, _, lex_s, den_s, _ in sample.biased + sample.unbiased:
            assert abs(lex_s - den_s) > 0.2

    @pytest.mark.parametrize("model", ["lex", "den"])
    def test_a_nan_lex_or_den_score_names_its_model_and_pair(self, model):
        # Listed third, the NaN normalizes to NaN for d2 alone.
        scores = {"lex": [5.0, 4.0, 3.0, 2.0], "den": [1.0, 4.0, 3.0, 9.0]}
        scores[model][2] = float("nan")
        lex, den = (run_from({"q": [(f"d{i}", s) for i, s in enumerate(scores[m])]})
                    for m in ("lex", "den"))
        with pytest.raises(ValueError, match=rf"^the normalized {model} score of \('q', 'd2'\) is NaN$"):
            discrepancy_pairs(lex, den, lex, margin=0.0, top_n=2, bottom_n=2)
        # Beyond the depth, a NaN is never compared, so it is no error.
        discrepancy_pairs(lex, den, lex, depth=2)


class TestHistogram:
    def test_empty_sample_zero_bins(self):
        from lexlab.analysis import DiscrepancySample

        text = emit_histogram(DiscrepancySample(biased=[], unbiased=[]), bins=4)
        counts = [int(line.split("\t")[-1]) for line in text.strip().splitlines()[1:]]
        assert all(c == 0 for c in counts)

    def test_counts_sum_to_sample_size(self):
        values = [0.0, 0.1, 0.5, 0.999, 1.0]
        counts = histogram_counts(values, bins=10)
        assert sum(counts) == len(values)
        assert counts[-1] == 2  # 0.999 and 1.0 in the last bin

    @pytest.mark.parametrize("bins", [0, -1])
    def test_bins_below_one_rejected(self, bins):
        with pytest.raises(ValueError, match="bins must be >= 1"):
            histogram_counts([0.5], bins)
        with pytest.raises(ValueError, match="bins must be >= 1"):
            histogram_counts([], bins)

    def test_uniform_values_near_uniform_bins(self):
        rng = np.random.default_rng(3)
        values = list(rng.uniform(0, 1, size=4000))
        counts = histogram_counts(values, bins=8)
        assert sum(counts) == 4000
        assert min(counts) > 400  # counting oracle: expected 500 per bin

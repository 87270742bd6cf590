"""Run-level analyses: score fusion of two retrievers, golden-passage rank
bucketing against a reference run, and sampling of query-passage pairs the
lexical and dense models score discrepantly.

All score normalization is per-query min-max over each run's retrieved list;
a constant (or single-entry) list normalizes to 0.5 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .data import Qrels
from .retrieval import RunFile
from .sparse_index import Ranking, top_rows

BUCKET_RANGES = (
    ("Top 1", 1, 1),
    ("(1, 5]", 2, 5),
    ("(5, 10]", 6, 10),
    ("(10, 50]", 11, 50),
    ("(50, 100]", 51, 100),
    ("(100, 500]", 101, 500),
    ("(500, 1000]", 501, 1000),
)


def _normalize(scores: np.ndarray) -> np.ndarray:
    if not len(scores):
        return scores
    # argmin/argmax pick the first of equal extremes, as built-in min/max
    # do, which decides between 0.0 and -0.0. They pick a NaN, the built-ins
    # a number unless the NaN comes first, so NaN lists take the built-ins.
    lo, hi = scores[scores.argmin()], scores[scores.argmax()]
    if np.isnan(lo):
        lo, hi = min(scores.tolist()), max(scores.tolist())
    if hi == lo:
        return np.full(len(scores), 0.5)
    return (scores - lo) / (hi - lo)


def normalize_run(run: RunFile) -> RunFile:
    """Min-max normalize every query's scores; order is preserved exactly."""
    rankings = {
        qid: Ranking(qid=qid, ids=r.ids, scores=_normalize(r.scores))
        for qid, r in run.rankings.items()
    }
    return RunFile(rankings=rankings, tag=run.tag)


def _normalized_scores(ranking: Ranking | None):
    """A map from a pid list to those pids' normalized scores in `ranking`:
    0 for a pid it does not list, the last score for one it lists twice."""
    if ranking is None:
        return lambda ids: np.zeros(len(ids))
    norm = np.append(_normalize(ranking.scores), 0.0)
    last = dict(zip(ranking.ids, range(len(ranking.ids))))
    return lambda ids: norm[np.fromiter(map(last.get, ids, repeat(-1)), np.intp, len(ids))]


@dataclass
class FusedRun:
    run: RunFile
    components: dict[str, dict[str, tuple[float, float]]]  # qid -> pid -> (a, b)


def ensemble_fuse(run_a: RunFile, run_b: RunFile, k: int = 1000) -> FusedRun:
    """Sum per-query min-max normalized scores over the candidate union.

    A candidate missing from one run contributes 0 from that side; a pid a
    run lists twice counts with its last score. The fused list is re-ranked
    under the usual (score desc, pid asc) tie-break and truncated to k.
    """
    shared = set(run_a.rankings) & set(run_b.rankings)
    if not shared:
        raise ValueError("runs to fuse share no query ids")
    rankings: dict[str, Ranking] = {}
    components: dict[str, dict[str, tuple[float, float]]] = {}
    for qid in sorted(shared):
        a, b = run_a.rankings[qid], run_b.rankings[qid]
        union = sorted(set(a.ids).union(b.ids))
        sa = _normalized_scores(a)(union)
        sb = _normalized_scores(b)(union)
        fused = sa + sb
        # `union` ascends, so row order is the pid tie-break.
        order = top_rows(fused, k)
        ids = [union[i] for i in order.tolist()]
        rankings[qid] = Ranking(qid=qid, ids=ids, scores=fused[order])
        components[qid] = dict(zip(ids, zip(sa[order].tolist(), sb[order].tolist())))
    tag = f"{run_a.tag}+{run_b.tag}.fused"
    return FusedRun(run=RunFile(rankings=rankings, tag=tag), components=components)


@dataclass
class BucketRow:
    label: str
    count: int
    mean_ranks: dict[str, float]


@dataclass
class BucketTable:
    models: list[str]
    rows: list[BucketRow] = field(default_factory=list)


def _golden_rank(run: RunFile, qid: str, pid: str, depth: int) -> int:
    ranking = run.rankings.get(qid)
    if ranking is not None:
        try:
            return ranking.ids.index(pid, 0, depth) + 1
        except ValueError:
            pass
    return depth + 1


def rank_buckets(
    reference: RunFile,
    others: dict[str, RunFile],
    qrels: Qrels,
    depth: int = 1000,
) -> BucketTable:
    """Bucket queries by the reference model's golden-passage rank and report
    each model's mean golden rank per bucket.

    The golden passage is the qrels positive the reference ranks best (ties
    by ascending pid); a golden missing from a run's top-`depth` counts as
    rank depth+1, and queries whose reference rank exceeds `depth` are not
    bucketed.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    models = [reference.tag, *others]
    table = BucketTable(models=models)
    per_query: list[tuple[int, dict[str, int]]] = []
    for qid in qrels.by_query:
        positives = sorted(qrels.positives(qid))
        if not positives or qid not in reference.rankings:
            continue
        golden = min(positives, key=lambda pid: (_golden_rank(reference, qid, pid, depth), pid))
        ref_rank = _golden_rank(reference, qid, golden, depth)
        if ref_rank > depth:
            continue
        ranks = {reference.tag: ref_rank}
        for name, run in others.items():
            ranks[name] = _golden_rank(run, qid, golden, depth)
        per_query.append((ref_rank, ranks))
    for label, lo, hi in BUCKET_RANGES:
        rows = [ranks for ref_rank, ranks in per_query if lo <= ref_rank <= hi]
        if lo > depth:
            continue
        mean_ranks = {
            name: (sum(r[name] for r in rows) / len(rows)) if rows else 0.0
            for name in models
        }
        table.rows.append(BucketRow(label=label, count=len(rows), mean_ranks=mean_ranks))
    return table


def format_bucket_table(table: BucketTable) -> str:
    header = "range\tcount\t" + "\t".join(table.models)
    lines = [header]
    for row in table.rows:
        means = "\t".join(f"{row.mean_ranks[m]:.1f}" for m in table.models)
        lines.append(f"{row.label}\t{row.count}\t{means}")
    return "\n".join(lines) + "\n"


@dataclass
class DiscrepancySample:
    """(qid, pid, lex, den, led) normalized-score tuples for the two strata."""

    biased: list[tuple[str, str, float, float, float]]
    unbiased: list[tuple[str, str, float, float, float]]
    margin: float


def discrepancy_pairs(
    lex_run: RunFile,
    den_run: RunFile,
    led_run: RunFile,
    margin: float = 0.2,
    top_n: int = 100,
    bottom_n: int = 100,
    depth: int = 1000,
) -> DiscrepancySample:
    """Pairs where normalized lexical and dense scores differ by more than
    `margin`, from the lexical run's top stratum and its bottom stratum of
    the retrieved depth. A pid missing from a run scores 0 for that model."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    biased: list[tuple[str, str, float, float, float]] = []
    unbiased: list[tuple[str, str, float, float, float]] = []
    for qid, ranking in lex_run.rankings.items():
        lex = _normalize(ranking.scores)
        den = _normalized_scores(den_run.rankings.get(qid))
        led = _normalized_scores(led_run.rankings.get(qid))
        rows = range(len(lex))[:depth]
        # The bottom stratum never overlaps the top one on short lists.
        strata = ((biased, rows[:top_n]), (unbiased, rows[max(top_n, len(rows) - bottom_n):]))
        for out, part in strata:
            ids = ranking.ids[part.start : part.stop]
            lex_part = lex[part.start : part.stop]
            den_part = den(ids)
            keep = np.flatnonzero(np.abs(lex_part - den_part) > margin).tolist()
            kept = [ids[i] for i in keep]
            out.extend(zip(
                [qid] * len(kept), kept, lex_part[keep].tolist(), den_part[keep].tolist(),
                led(kept).tolist(),
            ))
    return DiscrepancySample(biased=biased, unbiased=unbiased, margin=margin)


def histogram_counts(values: list[float], bins: int) -> list[int]:
    """Counts over `bins` equal-width bins of [0, 1]; 1.0 lands in the last."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts = [0] * bins
    for v in values:
        idx = min(int(v * bins), bins - 1)
        counts[idx] += 1
    return counts


def emit_histogram(sample: DiscrepancySample, bins: int = 20) -> str:
    """TSV histogram of normalized scores per model and stratum."""
    lines = ["stratum\tmodel\tbin_lo\tbin_hi\tcount"]
    for stratum_name, rows in (("lex-biased", sample.biased), ("lex-unbiased", sample.unbiased)):
        for model, col in (("lex", 2), ("den", 3), ("led", 4)):
            counts = histogram_counts([r[col] for r in rows], bins)
            for i, c in enumerate(counts):
                lines.append(
                    f"{stratum_name}\t{model}\t{i / bins:.4f}\t{(i + 1) / bins:.4f}\t{c}"
                )
    return "\n".join(lines) + "\n"

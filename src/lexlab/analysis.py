"""Run-level analyses: score fusion of two retrievers, golden-passage rank
bucketing against a reference run, and sampling of query-passage pairs the
lexical and dense models score discrepantly.

All score normalization is per-query min-max over each run's retrieved list;
a constant (or single-entry) list normalizes to 0.5 everywhere.
"""

from __future__ import annotations

import math
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


def _normalized_scores(ranking: Ranking | None):
    """A map from a pid list to those pids' normalized scores in `ranking`:
    0 for a pid it does not list, the last score for one it lists twice."""
    if ranking is None:
        return lambda ids: np.zeros(len(ids))
    norm = np.append(_normalize(ranking.scores), 0.0)
    last = dict(zip(ranking.ids, range(len(ranking.ids))))
    return lambda ids: norm[np.fromiter(map(last.get, ids, repeat(-1)), np.intp, len(ids))]


def ensemble_fuse(run_a: RunFile, run_b: RunFile, k: int = 1000) -> RunFile:
    """Sum per-query min-max normalized scores over the candidate union.

    A candidate missing from one run contributes 0 from that side; a pid a
    run lists twice counts with its last score. The fused list is re-ranked
    under the usual (score desc, pid asc) tie-break and truncated to k.

    The distinct pids of the shared queries are sorted once into a table, so
    a query's union is its sorted table codes and per-query work is linear
    in its two rankings.
    """
    shared = sorted(set(run_a.rankings) & set(run_b.rankings))
    if not shared:
        raise ValueError("runs to fuse share no query ids")
    pairs = [(run_a.rankings[qid], run_b.rankings[qid]) for qid in shared]
    table = sorted(set().union(*(ranking.ids for pair in pairs for ranking in pair)))
    code = dict(zip(table, range(len(table))))
    # Each side's last-listed position per code; -1 (unlisted) picks the
    # appended 0.0. Reset at the touched codes after each side.
    last = np.full(len(table), -1, dtype=np.intp)

    def side(ranking: Ranking, codes: np.ndarray, union: np.ndarray) -> np.ndarray:
        np.maximum.at(last, codes, np.arange(len(codes)))
        at = last[union]
        last[codes] = -1
        return np.append(_normalize(ranking.scores), 0.0)[at]

    rankings: dict[str, Ranking] = {}
    for qid, (a, b) in zip(shared, pairs):
        codes_a, codes_b = (
            np.fromiter(map(code.__getitem__, r.ids), np.intp, len(r.ids)) for r in (a, b)
        )
        union = np.sort(np.concatenate((codes_a, codes_b)))
        union = union[np.append(True, union[1:] != union[:-1])] if len(union) else union
        fused = side(a, codes_a, union) + side(b, codes_b, union)
        # `union` ascends in table order, so row order is the pid tie-break.
        order = top_rows(fused, k)
        ids = list(map(table.__getitem__, union[order].tolist()))
        rankings[qid] = Ranking(qid=qid, ids=ids, scores=fused[order])
    return RunFile(rankings=rankings, tag=f"{run_a.tag}+{run_b.tag}.fused")


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
    bucketed. No model of `others` may be named like the reference's tag.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if reference.tag in others:
        raise ValueError(f"run name {reference.tag!r} is the reference run's tag")
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
    the retrieved depth. A pid missing from a run scores 0 for that model;
    a NaN lex or den score of a pair in a stratum is an error that names its
    model and pair."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be a finite number >= 0, got {margin!r}")
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
            # A NaN would fail the margin test, so it drops its pair silently.
            for model, scores in (("lex", lex_part), ("den", den_part)):
                nan = np.flatnonzero(np.isnan(scores))
                if len(nan):
                    raise ValueError(f"the normalized {model} score of {(qid, ids[nan[0]])} is NaN")
            keep = np.flatnonzero(np.abs(lex_part - den_part) > margin).tolist()
            kept = [ids[i] for i in keep]
            out.extend(zip(
                [qid] * len(kept), kept, lex_part[keep].tolist(), den_part[keep].tolist(),
                led(kept).tolist(),
            ))
    return DiscrepancySample(biased=biased, unbiased=unbiased)


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
    """TSV histogram of normalized scores per model and stratum; a NaN score,
    which falls in no bin, is an error that names its model and pair."""
    lines = ["stratum\tmodel\tbin_lo\tbin_hi\tcount"]
    for stratum_name, rows in (("lex-biased", sample.biased), ("lex-unbiased", sample.unbiased)):
        for model, col in (("lex", 2), ("den", 3), ("led", 4)):
            nan = next((r for r in rows if math.isnan(r[col])), None)
            if nan:
                raise ValueError(f"the normalized {model} score of {nan[:2]} is NaN")
            counts = histogram_counts([r[col] for r in rows], bins)
            for i, c in enumerate(counts):
                lines.append(
                    f"{stratum_name}\t{model}\t{i / bins:.4f}\t{(i + 1) / bins:.4f}\t{c}"
                )
    return "\n".join(lines) + "\n"

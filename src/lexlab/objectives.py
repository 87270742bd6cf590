"""Training losses over candidate sets.

A candidate set is one row of one or two aligned float64 (sets x
candidates) matrices: the student's `scores` and the teacher's `teacher`
scores, with column 0 the positive and the negatives after it, every row a
set of the same length; one set is a one-row matrix (`x[None]`). Every loss
gives each row the bits that set gets alone: row maxima and sums run along
C-contiguous rows, logarithms are `math.log` per row, and the pair and
left-to-right sums keep each row's order. It returns one value per row
together with the exact gradient with respect to the student scores (one
row per set), or for flops_penalty one value per set of vectors and the
gradient over their term weights. Softmax-based losses are stabilized by
max subtraction. The rank-consistent hinge penalizes only pairs the student
orders against the teacher; agreement, including exact ties, costs nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class LossValue:
    loss: np.ndarray  # one entry per set
    grad: np.ndarray


@dataclass(frozen=True, eq=False)
class RankPairSet:
    """Ordered (preferred, other) pairs under the teacher's strict order.

    `mask[i, j]` is True when candidate `i` is preferred to candidate `j`; a
    stack of sets holds one such mask per set.
    """

    mask: np.ndarray

    @cached_property
    def inv_count(self) -> np.ndarray:
        """1 / each set's pair count, 1.0 for a set without pairs (its pair
        losses and their gradients are zero)."""
        counts = self.mask.reshape(-1, self.mask.shape[-1] ** 2).sum(axis=1)
        return 1.0 / np.maximum(counts, 1)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        win, lose = np.nonzero(self.mask)
        return list(zip(win.tolist(), lose.tolist()))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_z = [math.log(z) for z in np.exp(shifted).sum(axis=1).tolist()]
    shifted -= np.array(log_z)[:, None]
    return shifted


def contrastive_loss(scores: np.ndarray) -> LossValue:
    """-log softmax at the positive over raw dot-product logits."""
    if scores.shape[1] < 2:
        raise ValueError("contrastive loss needs at least one negative")
    if np.isnan(scores).any():
        raise ValueError("NaN score in candidate set")
    logp = _log_softmax(scores)
    grad = np.exp(logp)
    grad[:, 0] -= 1.0
    return LossValue(loss=-logp[:, 0], grad=grad)


def make_rank_pairs(teacher: np.ndarray) -> RankPairSet:
    """All ordered candidate pairs the teacher strictly prefers; ties yield none."""
    return RankPairSet(mask=teacher[..., :, None] > teacher[..., None, :])


def _sequential_pair_sum(win, lose, win_step, lose_step, n: int) -> np.ndarray:
    """grad[lose] += lose_step; grad[win] += win_step, pair by pair in order.

    One `np.bincount` over the interleaved updates adds to each element,
    from +0.0, in the same order as a Python loop over the pairs would.
    """
    at = np.empty(2 * len(win), dtype=np.int64)
    at[0::2], at[1::2] = lose, win
    step = np.empty(2 * len(win))
    step[0::2], step[1::2] = lose_step, win_step
    return np.bincount(at, weights=step, minlength=n)


def _ordered_row_totals(values: np.ndarray, row: np.ndarray, n_rows: int) -> np.ndarray:
    """Per row, the left-to-right float sum of its entries of `values`, as
    `total += v` in a loop accumulates it; 0.0 for a row without entries.

    `row` gives each value's row, in ascending order. The rows are laid out
    zero-padded at their ends, so a row-wise `cumsum` adds each row's
    values in order and its last value is reached before any padding.
    """
    if n_rows == 1:
        return values.cumsum()[-1:] if len(values) else np.zeros(1)
    counts = np.bincount(row, minlength=n_rows)
    totals = np.zeros(n_rows)
    if not len(values):
        return totals
    padded = np.zeros((n_rows, counts.max()))
    padded[row, np.arange(len(row)) - (np.cumsum(counts) - counts)[row]] = values
    has = counts.nonzero()[0]
    totals[has] = padded.cumsum(axis=1)[has, counts[has] - 1]
    return totals


def _rank_pairs(s: np.ndarray, teacher: np.ndarray, pairs: RankPairSet | None):
    """The teacher's rank-pair masks, one per row of `s`, and their `inv_count`."""
    pairs = make_rank_pairs(teacher) if pairs is None else pairs
    return pairs.mask.reshape(len(s), s.shape[1], s.shape[1]), pairs.inv_count


def rank_consistent_loss(
    scores: np.ndarray, teacher: np.ndarray, pairs: RankPairSet | None = None
) -> LossValue:
    """Mean hinge on student disagreement: max(0, s(other) - s(preferred))
    over the teacher's rank pairs.

    Zero exactly when the student's strict order matches the teacher on every
    pair; the subgradient at an exact tie is zero. `pairs` is
    `make_rank_pairs(teacher)`, for a caller that keeps it.
    """
    s = scores
    mask, inv = _rank_pairs(s, teacher, pairs)
    # Pairs whose hinge is active, in the row-major order of the masks, as
    # positions in the flattened rows.
    row, win, lose = (mask & (s[:, None, :] > s[:, :, None])).nonzero()
    start = row * s.shape[1]
    win, lose, flat = start + win, start + lose, s.reshape(-1)
    step = inv[row]
    grad = _sequential_pair_sum(win, lose, -step, step, s.size).reshape(s.shape)
    loss = _ordered_row_totals(flat[lose] - flat[win], row, len(s)) * inv
    return LossValue(loss=loss, grad=grad)


def combined_loss(cl: LossValue, ll: LossValue, weight: float) -> LossValue:
    """cl + weight * ll with linearly combined gradients."""
    if weight < 0:
        raise ValueError("regularization weight must be >= 0")
    return LossValue(loss=cl.loss + weight * ll.loss, grad=cl.grad + weight * ll.grad)


def margin_mse_loss(
    scores: np.ndarray, teacher: np.ndarray, pairs: RankPairSet | None = None
) -> LossValue:
    """Mean squared difference between student and teacher margins over the
    teacher's rank pairs (`pairs`, built from `teacher` when not given)."""
    s, t = scores, teacher
    mask, inv = _rank_pairs(s, teacher, pairs)
    row, win, lose = mask.nonzero()
    start = row * s.shape[1]
    win, lose, s_flat, t_flat = start + win, start + lose, s.reshape(-1), t.reshape(-1)
    diff = (s_flat[win] - s_flat[lose]) - (t_flat[win] - t_flat[lose])
    step = 2.0 * diff * inv[row]
    grad = _sequential_pair_sum(win, lose, step, -step, s.size).reshape(s.shape)
    loss = _ordered_row_totals(diff * diff, row, len(s)) * inv
    return LossValue(loss=loss, grad=grad)


def kl_divergence_loss(
    scores: np.ndarray, teacher: np.ndarray, temperature: float = 1.0
) -> LossValue:
    """KL(softmax(teacher/T) || softmax(student/T)) over the candidate list.

    At T = 1 its gradient is ListNet's top-1 cross-entropy gradient: the two
    losses differ by the teacher's entropy, which the student cannot move.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    logp = _log_softmax(teacher / temperature)
    logq = _log_softmax(scores / temperature)
    p = np.exp(logp)
    return LossValue(loss=(p * (logp - logq)).sum(axis=1), grad=(np.exp(logq) - p) / temperature)


# The teaching losses by strategy name: (scores, teacher scores, the
# teacher's rank pairs or None, KL temperature) -> loss over the student
# scores.
TEACHING_LOSSES = {
    "rank-consistent": lambda s, t, pairs, temperature: rank_consistent_loss(s, t, pairs),
    "margin-mse": lambda s, t, pairs, temperature: margin_mse_loss(s, t, pairs),
    "kl": lambda s, t, pairs, temperature: kl_divergence_loss(s, t, temperature),
}
STRATEGIES = ("none", *TEACHING_LOSSES, "filter")
PAIR_STRATEGIES = ("rank-consistent", "margin-mse")  # their losses read the rank pairs


def _filtered_contrastive(s: np.ndarray, t: np.ndarray, threshold: float) -> LossValue:
    """Per row, the contrastive loss over the positive and the negatives whose
    teacher score stays below `threshold` times the positive's; zero for a
    row that keeps no negative."""
    keep = t < threshold * t[:, :1]
    keep[:, 0] = True
    loss, grad = np.zeros(len(s)), np.zeros(s.shape)
    for row in (np.count_nonzero(keep, axis=1) > 1).nonzero()[0].tolist():
        cl = contrastive_loss(s[row, keep[row]][None])
        loss[row], grad[row, keep[row]] = cl.loss[0], cl.grad[0]
    return LossValue(loss=loss, grad=grad)


def strategy_loss(
    strategy: str,
    scores: np.ndarray,
    teacher: np.ndarray | None = None,
    reg_weight: float = 1.2,
    filter_threshold: float = 0.95,
    kl_temperature: float = 1.0,
    pairs: RankPairSet | None = None,
) -> tuple[LossValue, np.ndarray, np.ndarray]:
    """The training loss of each row of a matrix of sets: (total, contrastive
    parts, teaching parts).

    "none" is the contrastive loss alone and ignores `teacher`; "filter" is
    the contrastive loss over the negatives whose teacher score stays below
    `filter_threshold` times the positive's (a NaN teacher score drops its
    negative); every other strategy adds `reg_weight` times its teaching
    loss from `TEACHING_LOSSES`, which reads `pairs` when given.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (choose from {STRATEGIES})")
    if strategy != "none":
        if teacher is None:
            raise ValueError(f"strategy {strategy!r} needs teacher scores")
        if teacher.shape != scores.shape:
            raise ValueError("teacher scores do not align with candidates")
    ll = np.zeros(len(scores))
    if strategy == "filter":
        total = _filtered_contrastive(scores, teacher, filter_threshold)
        return total, total.loss, ll
    total = contrastive_loss(scores)
    cl = total.loss
    if strategy != "none":
        teaching = TEACHING_LOSSES[strategy](scores, teacher, pairs, kl_temperature)
        total, ll = combined_loss(total, teaching, reg_weight), teaching.loss
    return total, cl, ll


def batch_loss(
    strategy: str,
    scores: list[np.ndarray],
    teacher: list[np.ndarray] | None = None,
    pairs: list[RankPairSet] | None = None,
    reg_weight: float = 1.2,
    filter_threshold: float = 0.95,
    kl_temperature: float = 1.0,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """`strategy_loss` of every set of a batch: (losses, gradients, contrastive
    parts, teaching parts), one each per set.

    `teacher` and `pairs` are per-set lists aligned with `scores`. The sets
    of one length go through one `strategy_loss` call as the rows of a
    matrix, so each gets the bits it gets alone.
    """
    by_length: dict[int, list[int]] = {}
    for k, s in enumerate(scores):
        by_length.setdefault(len(s), []).append(k)
    losses, cl, ll = np.empty(len(scores)), np.empty(len(scores)), np.empty(len(scores))
    grads: list[np.ndarray] = [np.empty(0)] * len(scores)
    for members in by_length.values():
        total, cl[members], ll[members] = strategy_loss(
            strategy,
            np.stack([scores[k] for k in members]),
            None if teacher is None else np.stack([teacher[k] for k in members]),
            reg_weight,
            filter_threshold,
            kl_temperature,
            None if pairs is None else RankPairSet(np.stack([pairs[k].mask for k in members])),
        )
        losses[members] = total.loss
        for k, g in zip(members, total.grad):
            grads[k] = g
    return losses, grads, cl, ll


def flops_penalty(
    terms: list[np.ndarray], values: list[np.ndarray], weight: float, sizes: list[int]
) -> LossValue:
    """weight * sum_v (mean over a set of vectors of weight(v))^2, per set.

    The vectors are (term ids, weights) array pairs. `sizes` splits them
    into consecutive sets, each with its own mean and penalty, and the loss
    has one entry per set. The gradient is aligned with the weights of all
    vectors concatenated. A set's mean accumulates vector by vector
    (`np.bincount` adds in input order from +0.0) and its loss sums the
    squared means left to right in order of first appearance, so each set
    gets bit for bit the result of a term -> weight dict accumulation over
    that set alone.
    """
    if weight < 0:
        raise ValueError("flops weight must be >= 0")
    n_vecs = np.array(sizes, dtype=np.int64)
    flat = np.concatenate([*terms, np.empty(0, dtype=np.int64)])
    set_of = np.arange(len(n_vecs)).repeat(n_vecs).repeat([len(t) for t in terms])
    size = n_vecs[set_of]  # vectors in each entry's set
    # One bin per (term, set), so each set's means stay its own.
    key = flat * len(n_vecs) + set_of
    mean = np.bincount(key, weights=np.concatenate([*values, np.empty(0)]) / size)
    first = np.sort(np.unique(key, return_index=True)[1])
    by_appearance = mean[key[first]]
    loss = weight * _ordered_row_totals(by_appearance * by_appearance, set_of[first], len(n_vecs))
    grad = weight * 2.0 * mean[key] / size
    return LossValue(loss=loss, grad=grad)

"""Training losses over per-query candidate sets.

A candidate set is one or two aligned float64 arrays: the student's
`scores` and the teacher's `teacher` scores, with index 0 the positive and
the negatives after it. Every loss returns its value together with the
exact gradient with respect to the student scores, or for flops_penalty the
lexical term weights. Softmax-based losses are stabilized by max
subtraction. The rank-consistent hinge penalizes only pairs the student
orders against the teacher; agreement, including exact ties, costs nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class LossValue:
    loss: float
    grad: np.ndarray


@dataclass(frozen=True, eq=False)
class RankPairSet:
    """Ordered (preferred, other) pairs under the teacher's strict order.

    `mask[i, j]` is True when candidate `i` is preferred to candidate `j`.
    """

    mask: np.ndarray

    @property
    def pairs(self) -> list[tuple[int, int]]:
        win, lose = np.nonzero(self.mask)
        return list(zip(win.tolist(), lose.tolist()))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    return shifted - math.log(np.exp(shifted).sum())


def contrastive_loss(scores: np.ndarray) -> LossValue:
    """-log softmax at the positive over raw dot-product logits."""
    if len(scores) < 2:
        raise ValueError("contrastive loss needs at least one negative")
    if np.isnan(scores).any():
        raise ValueError("NaN score in candidate set")
    logp = _log_softmax(scores)
    grad = np.exp(logp)
    grad[0] -= 1.0
    return LossValue(loss=-float(logp[0]), grad=grad)


def make_rank_pairs(teacher: np.ndarray) -> RankPairSet:
    """All ordered candidate pairs the teacher strictly prefers; ties yield none."""
    return RankPairSet(mask=teacher[:, None] > teacher[None, :])


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


def ordered_total(values: np.ndarray) -> float:
    """Left-to-right float sum, as `total += v` in a loop accumulates it."""
    return float(values.cumsum()[-1]) if len(values) else 0.0


def rank_consistent_loss(scores: np.ndarray, teacher: np.ndarray) -> LossValue:
    """Mean hinge on student disagreement: max(0, s(other) - s(preferred))
    over the teacher's rank pairs.

    Zero exactly when the student's strict order matches the teacher on every
    pair; the subgradient at an exact tie is zero.
    """
    mask = make_rank_pairs(teacher).mask
    n_pairs = np.count_nonzero(mask)
    n = len(scores)
    if not n_pairs:
        return LossValue(loss=0.0, grad=np.zeros(n))
    s = scores
    inv = 1.0 / n_pairs
    # Pairs whose hinge is active, in the row-major order of the mask.
    win, lose = (mask & (s[None, :] > s[:, None])).nonzero()
    grad = _sequential_pair_sum(win, lose, -inv, inv, n)
    return LossValue(loss=ordered_total(s[lose] - s[win]) * inv, grad=grad)


def combined_loss(cl: LossValue, ll: LossValue, weight: float) -> LossValue:
    """cl + weight * ll with linearly combined gradients."""
    if weight < 0:
        raise ValueError("regularization weight must be >= 0")
    return LossValue(loss=cl.loss + weight * ll.loss, grad=cl.grad + weight * ll.grad)


def margin_mse_loss(scores: np.ndarray, teacher: np.ndarray) -> LossValue:
    """Mean squared difference between student and teacher margins over the
    teacher's rank pairs."""
    mask = make_rank_pairs(teacher).mask
    n_pairs = np.count_nonzero(mask)
    n = len(scores)
    if not n_pairs:
        return LossValue(loss=0.0, grad=np.zeros(n))
    s, t = scores, teacher
    inv = 1.0 / n_pairs
    win, lose = mask.nonzero()
    diff = (s[win] - s[lose]) - (t[win] - t[lose])
    step = 2.0 * diff * inv
    grad = _sequential_pair_sum(win, lose, step, -step, n)
    return LossValue(loss=ordered_total(diff * diff) * inv, grad=grad)


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
    loss = float((p * (logp - logq)).sum())
    grad = (np.exp(logq) - p) / temperature
    return LossValue(loss=loss, grad=grad)


# The teaching losses by strategy name: (scores, teacher scores, KL
# temperature) -> loss over the student scores.
TEACHING_LOSSES = {
    "rank-consistent": lambda scores, teacher, temperature: rank_consistent_loss(scores, teacher),
    "margin-mse": lambda scores, teacher, temperature: margin_mse_loss(scores, teacher),
    "kl": kl_divergence_loss,
}
STRATEGIES = ("none", *TEACHING_LOSSES, "filter")


def strategy_loss(
    strategy: str,
    scores: np.ndarray,
    teacher: np.ndarray | None = None,
    reg_weight: float = 1.2,
    filter_threshold: float = 0.95,
    kl_temperature: float = 1.0,
) -> tuple[LossValue, float, float]:
    """The training loss of one candidate set: (total, contrastive part, teaching part).

    "none" is the contrastive loss alone and ignores `teacher`; "filter" is
    the contrastive loss over the negatives whose teacher score stays below
    `filter_threshold` times the positive's (a NaN teacher score drops its
    negative); every other strategy adds `reg_weight` times its teaching
    loss from `TEACHING_LOSSES`.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (choose from {STRATEGIES})")
    if strategy != "none":
        if teacher is None:
            raise ValueError(f"strategy {strategy!r} needs teacher scores")
        if len(teacher) != len(scores):
            raise ValueError("teacher scores do not align with candidates")
    if strategy == "filter":
        keep = teacher < filter_threshold * teacher[0]
        keep[0] = True
        grad = np.zeros(len(scores))
        if not keep[1:].any():
            return LossValue(loss=0.0, grad=grad), 0.0, 0.0
        cl = contrastive_loss(scores[keep])
        grad[keep] = cl.grad
        return LossValue(loss=cl.loss, grad=grad), cl.loss, 0.0
    cl = contrastive_loss(scores)
    if strategy == "none":
        return cl, cl.loss, 0.0
    ll = TEACHING_LOSSES[strategy](scores, teacher, kl_temperature)
    return combined_loss(cl, ll, reg_weight), cl.loss, ll.loss


def flops_penalty(terms: list[np.ndarray], values: list[np.ndarray], weight: float) -> LossValue:
    """weight * sum_v (mean over the batch of weight(v))^2.

    The batch holds one vector per (term ids, weights) array pair; the
    gradient is aligned with the weights of all vectors concatenated. The
    batch mean accumulates vector by vector (`np.bincount` adds in input
    order from +0.0) and the loss sums the squared means in order of first
    appearance, so the result is bit for bit that of a term -> weight dict
    accumulation in the same order.
    """
    if weight < 0:
        raise ValueError("flops weight must be >= 0")
    flat = np.concatenate([*terms, np.empty(0, dtype=np.int64)])
    if not len(flat):
        return LossValue(loss=0.0, grad=np.empty(0))
    mean = np.bincount(flat, weights=np.concatenate(values) / len(terms))
    first = np.unique(flat, return_index=True)[1]
    by_appearance = mean[flat[np.sort(first)]]
    loss = weight * sum((by_appearance * by_appearance).tolist())
    return LossValue(loss=loss, grad=weight * 2.0 * mean[flat] / len(terms))

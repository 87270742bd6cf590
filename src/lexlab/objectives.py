"""Training losses over per-query candidate sets.

Every loss returns its value together with the exact gradient with respect to
its inputs: the student scores, or for flops_penalty the lexical term
weights. Softmax-based losses are stabilized by max subtraction. The
rank-consistent hinge penalizes only pairs the student orders against the
teacher; agreement, including exact ties, costs nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class CandidateSet:
    """One query's positive and negatives with aligned score arrays.

    Scores follow pid order: index 0 is the positive, then the negatives.
    """

    qid: str
    pos_pid: str
    neg_pids: list[str]
    scores: np.ndarray
    teacher_scores: np.ndarray | None = None

    def __post_init__(self):
        if self.pos_pid in self.neg_pids:
            raise ValueError(f"positive {self.pos_pid!r} listed among negatives")
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if len(self.scores) != 1 + len(self.neg_pids):
            raise ValueError("scores do not align with [positive] + negatives")
        if self.teacher_scores is not None:
            self.teacher_scores = np.asarray(self.teacher_scores, dtype=np.float64)
            if len(self.teacher_scores) != len(self.scores):
                raise ValueError("teacher scores do not align with candidates")

    @property
    def pids(self) -> list[str]:
        return [self.pos_pid, *self.neg_pids]


@dataclass
class LossValue:
    loss: float
    grad: np.ndarray


@dataclass(frozen=True, eq=False)
class RankPairSet:
    """Ordered (preferred, other) pairs under the teacher's strict order.

    `mask[i, j]` is True when candidate `pids[i]` is preferred to `pids[j]`.
    """

    pids: tuple[str, ...]
    mask: np.ndarray

    @property
    def pairs(self) -> list[tuple[str, str]]:
        win, lose = np.nonzero(self.mask)
        return [(self.pids[i], self.pids[j]) for i, j in zip(win.tolist(), lose.tolist())]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    return shifted - math.log(np.exp(shifted).sum())


def _require_teacher(cands: CandidateSet) -> np.ndarray:
    if cands.teacher_scores is None:
        raise ValueError("teacher scores required but not provided")
    return cands.teacher_scores


def contrastive_loss(cands: CandidateSet) -> LossValue:
    """-log softmax at the positive over raw dot-product logits."""
    if not cands.neg_pids:
        raise ValueError("contrastive loss needs at least one negative")
    if np.isnan(cands.scores).any():
        raise ValueError(f"NaN score in candidate set for query {cands.qid!r}")
    logp = _log_softmax(cands.scores)
    grad = np.exp(logp)
    grad[0] -= 1.0
    return LossValue(loss=-float(logp[0]), grad=grad)


def make_rank_pairs(cands: CandidateSet) -> RankPairSet:
    """All ordered candidate pairs the teacher strictly prefers; ties yield none."""
    t = _require_teacher(cands)
    return RankPairSet(pids=tuple(cands.pids), mask=t[:, None] > t[None, :])


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


def rank_consistent_loss(cands: CandidateSet) -> LossValue:
    """Mean hinge on student disagreement: max(0, s(other) - s(preferred))
    over the teacher's rank pairs.

    Zero exactly when the student's strict order matches the teacher on every
    pair; the subgradient at an exact tie is zero.
    """
    mask = make_rank_pairs(cands).mask
    n_pairs = np.count_nonzero(mask)
    n = len(cands.scores)
    if not n_pairs:
        return LossValue(loss=0.0, grad=np.zeros(n))
    s = cands.scores
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


def margin_mse_loss(cands: CandidateSet) -> LossValue:
    """Mean squared difference between student and teacher margins over the
    teacher's rank pairs."""
    t = _require_teacher(cands)
    mask = make_rank_pairs(cands).mask
    n_pairs = np.count_nonzero(mask)
    n = len(cands.scores)
    if not n_pairs:
        return LossValue(loss=0.0, grad=np.zeros(n))
    s = cands.scores
    inv = 1.0 / n_pairs
    win, lose = mask.nonzero()
    diff = (s[win] - s[lose]) - (t[win] - t[lose])
    step = 2.0 * diff * inv
    grad = _sequential_pair_sum(win, lose, step, -step, n)
    return LossValue(loss=ordered_total(diff * diff) * inv, grad=grad)


def kl_divergence_loss(cands: CandidateSet, temperature: float = 1.0) -> LossValue:
    """KL(softmax(teacher/T) || softmax(student/T)) over the candidate list."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    t = _require_teacher(cands)
    logp = _log_softmax(t / temperature)
    logq = _log_softmax(cands.scores / temperature)
    p = np.exp(logp)
    loss = float((p * (logp - logq)).sum())
    grad = (np.exp(logq) - p) / temperature
    return LossValue(loss=loss, grad=grad)


def listnet_loss(cands: CandidateSet) -> LossValue:
    """Cross-entropy between the teacher's and student's top-1 distributions."""
    t = _require_teacher(cands)
    logp = _log_softmax(t)
    logq = _log_softmax(cands.scores)
    p = np.exp(logp)
    loss = -float((p * logq).sum())
    grad = np.exp(logq) - p
    return LossValue(loss=loss, grad=grad)


def filter_false_negatives(cands: CandidateSet, threshold: float = 0.95) -> CandidateSet:
    """Drop negatives whose teacher score reaches `threshold` x the positive's."""
    t = _require_teacher(cands)
    cutoff = threshold * t[0]
    keep = [i for i in range(1, len(cands.scores)) if t[i] < cutoff]
    sel = [0, *keep]
    return CandidateSet(
        qid=cands.qid,
        pos_pid=cands.pos_pid,
        neg_pids=[cands.neg_pids[i - 1] for i in keep],
        scores=cands.scores[sel],
        teacher_scores=t[sel],
    )


# The teaching losses by strategy name: (candidates with teacher scores, KL
# temperature) -> loss over the student scores.
TEACHING_LOSSES = {
    "rank-consistent": lambda cands, temperature: rank_consistent_loss(cands),
    "margin-mse": lambda cands, temperature: margin_mse_loss(cands),
    "listnet": lambda cands, temperature: listnet_loss(cands),
    "kl": lambda cands, temperature: kl_divergence_loss(cands, temperature=temperature),
}
STRATEGIES = ("none", *TEACHING_LOSSES, "filter")


def strategy_loss(
    strategy: str,
    cands: CandidateSet,
    reg_weight: float = 1.2,
    filter_threshold: float = 0.95,
    kl_temperature: float = 1.0,
) -> tuple[LossValue, float, float]:
    """The training loss of one candidate set: (total, contrastive part, teaching part).

    "none" is the contrastive loss alone; "filter" is the contrastive loss
    over the negatives the teacher does not flag; every other strategy adds
    `reg_weight` times its teaching loss from `TEACHING_LOSSES`.
    """
    if strategy == "filter":
        kept = filter_false_negatives(cands, threshold=filter_threshold)
        grad = np.zeros(len(cands.scores))
        if not kept.neg_pids:
            return LossValue(loss=0.0, grad=grad), 0.0, 0.0
        cl = contrastive_loss(kept)
        index = {pid: i for i, pid in enumerate(cands.pids)}
        for g, pid in zip(cl.grad, kept.pids):
            grad[index[pid]] = g
        return LossValue(loss=cl.loss, grad=grad), cl.loss, 0.0
    cl = contrastive_loss(cands)
    if strategy == "none":
        return cl, cl.loss, 0.0
    if strategy not in TEACHING_LOSSES:
        raise ValueError(f"unknown strategy {strategy!r} (choose from {STRATEGIES})")
    ll = TEACHING_LOSSES[strategy](cands, kl_temperature)
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

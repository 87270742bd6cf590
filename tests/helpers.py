"""Test oracles and helpers for what the library itself never runs.

`relevance` is the bit-for-bit oracle of `sparse_index.sparse_scores` and of
the lexical teacher, `per_passage_lexical_index` that of a lexical
`retrieval.encode_corpus`, `params_digest` fingerprints a model's parameters, and
`save_teacher_scores` writes the score table `training.load_teacher_scores`
reads. The per-set losses below (`set_contrastive`, `set_rank_consistent`,
`set_margin_mse`, `set_kl`, `set_strategy_loss` and `set_flops`) are the
one-set-at-a-time forms the row-wise losses of `objectives` replaced, kept
as the oracles those are held to bit for bit.
"""

import hashlib
import math
import os

import numpy as np
import pytest

from lexlab.encoders import TermWeightVector, lexical_encode
from lexlab.objectives import LossValue
from lexlab.sparse_index import build_index


def ordered_total(values: np.ndarray) -> float:
    """Left-to-right float sum, as `total += v` in a loop accumulates it."""
    return float(values.cumsum()[-1]) if len(values) else 0.0


def relevance(q_vec: TermWeightVector, p_vec: TermWeightVector) -> float:
    """Dot product of two lexical vectors: their shared terms' products added
    left to right in ascending term order."""
    _, qi, pi = np.intersect1d(q_vec.terms, p_vec.terms, assume_unique=True, return_indices=True)
    return ordered_total(q_vec.weights[qi] * p_vec.weights[pi])


def per_passage_lexical_index(params, doc_tvs):
    """The lexical index of `doc_tvs` built one `lexical_encode` per passage,
    as `encode_corpus` built it before it dealt blocks over CPUs."""
    return build_index({pid: lexical_encode(tv, params) for pid, tv in doc_tvs.items()})


def params_digest(params) -> str:
    """sha256 over the model kind and every tensor's name and float64 bytes."""
    h = hashlib.sha256()
    h.update(params.kind.encode())
    for name, t in params.tensors().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t, dtype="<f8").tobytes())
    return h.hexdigest()


def save_teacher_scores(scores: dict[tuple[str, str], float], path) -> None:
    """`<qid>\\t<pid>\\t<score>` lines in key order, scores to 12 significant digits."""
    with open(path, "w", encoding="utf-8") as f:
        for (qid, pid), score in sorted(scores.items()):
            f.write(f"{qid}\t{pid}\t{score:.12g}\n")


def _set_log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    return shifted - math.log(np.exp(shifted).sum())


def set_contrastive(scores: np.ndarray) -> LossValue:
    if len(scores) < 2:
        raise ValueError("contrastive loss needs at least one negative")
    if np.isnan(scores).any():
        raise ValueError("NaN score in candidate set")
    logp = _set_log_softmax(scores)
    grad = np.exp(logp)
    grad[0] -= 1.0
    return LossValue(loss=-float(logp[0]), grad=grad)


def _set_pair_sum(win, lose, win_step, lose_step, n: int) -> np.ndarray:
    at = np.empty(2 * len(win), dtype=np.int64)
    at[0::2], at[1::2] = lose, win
    step = np.empty(2 * len(win))
    step[0::2], step[1::2] = lose_step, win_step
    return np.bincount(at, weights=step, minlength=n)


def set_rank_consistent(scores: np.ndarray, teacher: np.ndarray) -> LossValue:
    mask = teacher[:, None] > teacher[None, :]
    n_pairs = np.count_nonzero(mask)
    n = len(scores)
    if not n_pairs:
        return LossValue(loss=0.0, grad=np.zeros(n))
    s = scores
    inv = 1.0 / n_pairs
    win, lose = (mask & (s[None, :] > s[:, None])).nonzero()
    grad = _set_pair_sum(win, lose, -inv, inv, n)
    return LossValue(loss=ordered_total(s[lose] - s[win]) * inv, grad=grad)


def set_margin_mse(scores: np.ndarray, teacher: np.ndarray) -> LossValue:
    mask = teacher[:, None] > teacher[None, :]
    n_pairs = np.count_nonzero(mask)
    n = len(scores)
    if not n_pairs:
        return LossValue(loss=0.0, grad=np.zeros(n))
    s, t = scores, teacher
    inv = 1.0 / n_pairs
    win, lose = mask.nonzero()
    diff = (s[win] - s[lose]) - (t[win] - t[lose])
    step = 2.0 * diff * inv
    grad = _set_pair_sum(win, lose, step, -step, n)
    return LossValue(loss=ordered_total(diff * diff) * inv, grad=grad)


def set_kl(scores: np.ndarray, teacher: np.ndarray, temperature: float = 1.0) -> LossValue:
    logp = _set_log_softmax(teacher / temperature)
    logq = _set_log_softmax(scores / temperature)
    p = np.exp(logp)
    loss = float((p * (logp - logq)).sum())
    grad = (np.exp(logq) - p) / temperature
    return LossValue(loss=loss, grad=grad)


SET_TEACHING_LOSSES = {
    "rank-consistent": lambda scores, teacher, temperature: set_rank_consistent(scores, teacher),
    "margin-mse": lambda scores, teacher, temperature: set_margin_mse(scores, teacher),
    "kl": set_kl,
}


def set_strategy_loss(strategy, scores, teacher=None, reg_weight=1.2, filter_threshold=0.95,
                      kl_temperature=1.0):
    """(total, contrastive part, teaching part) of one candidate set."""
    if strategy == "filter":
        keep = teacher < filter_threshold * teacher[0]
        keep[0] = True
        grad = np.zeros(len(scores))
        if not keep[1:].any():
            return LossValue(loss=0.0, grad=grad), 0.0, 0.0
        cl = set_contrastive(scores[keep])
        grad[keep] = cl.grad
        return LossValue(loss=cl.loss, grad=grad), cl.loss, 0.0
    cl = set_contrastive(scores)
    if strategy == "none":
        return cl, cl.loss, 0.0
    ll = SET_TEACHING_LOSSES[strategy](scores, teacher, kl_temperature)
    total = LossValue(loss=cl.loss + reg_weight * ll.loss, grad=cl.grad + reg_weight * ll.grad)
    return total, cl.loss, ll.loss


def set_flops(terms: list[np.ndarray], values: list[np.ndarray], weight: float) -> LossValue:
    """The FLOPS penalty of one set of vectors."""
    flat = np.concatenate([*terms, np.empty(0, dtype=np.int64)])
    if not len(flat):
        return LossValue(loss=0.0, grad=np.empty(0))
    mean = np.bincount(flat, weights=np.concatenate(values) / len(terms))
    first = np.unique(flat, return_index=True)[1]
    by_appearance = mean[flat[np.sort(first)]]
    loss = weight * sum((by_appearance * by_appearance).tolist())
    return LossValue(loss=loss, grad=weight * 2.0 * mean[flat] / len(terms))


def set_usable_cpus(monkeypatch, n: int) -> None:
    """Make `workers.fork_map` see `n` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_children() -> None:
    """No child of this process is left unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

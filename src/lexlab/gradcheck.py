"""Finite-difference verification harness.

Checks three layers: encoder parameter gradients, loss gradients with
respect to their inputs (candidate scores, or lexical term weights for
FLOPS), and full compositions (parameters -> encoder -> relevance -> loss).
Every check runs `fd_max_rel_error`, one central-difference loop over a flat
float64 array, against the functions that train: `dense_encode_batch` /
`dense_backward_batch`, `lexical_trace` / `LexicalRoutes`, the losses, and
`training.batch_step`. Kink-adjacent coordinates are detected by comparing
the discrete forward structure (ReLU gates, max-pool argmaxes, active
hinges) at the +eps and -eps evaluation points and skipped when it differs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import TermVector
from .encoders import (
    DenseParams,
    LexicalParams,
    LexicalRoutes,
    Params,
    TokenBatch,
    dense_backward_batch,
    dense_encode_batch,
    lexical_trace,
    params_from_tensors,
    token_row,
)
from .objectives import TEACHING_LOSSES, CandidateSet, flops_penalty, strategy_loss
from .training import batch_step

LOSS_NAMES = (
    "contrastive",
    "rank-consistent",
    "combined",
    "margin-mse",
    "kl",
    "listnet",
    "flops",
)


def fd_max_rel_error(x: np.ndarray, forward, analytic: np.ndarray, eps: float, unread=()) -> float:
    """Max relative error between `analytic` and central differences at `x`.

    `x` is a flat float64 array that `forward() -> (value, structure)` reads;
    each element in turn is set to +eps and -eps around its value and then
    restored. Coordinates where the structure at +eps and -eps differs are
    skipped as kink-adjacent. Coordinates in `unread` are never read by
    `forward`, so their finite difference is exactly zero without
    evaluating it, and their analytic gradient is held to that. A checked
    coordinate with a NaN or infinite difference or analytic value fails
    the check with an infinite error.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    unread = set(np.asarray(unread, dtype=np.int64).tolist())
    worst = 0.0
    for i, (orig, an) in enumerate(zip(x.tolist(), analytic.tolist())):
        if i in unread:
            fd = 0.0
        else:
            x[i] = orig + eps
            f_plus, s_plus = forward()
            x[i] = orig - eps
            f_minus, s_minus = forward()
            x[i] = orig
            if s_plus != s_minus:
                continue
            fd = (f_plus - f_minus) / (2.0 * eps)
        # The floor keeps central-difference roundoff (~|f|*1e-16/eps) on
        # zero-gradient coordinates from registering as relative error.
        error = abs(fd - an) / max(abs(fd) + abs(an), 1e-5)
        # A NaN or infinite fd or analytic value makes the ratio NaN, which
        # max() would pass over.
        if not math.isfinite(error):
            return math.inf
        worst = max(worst, error)
    return worst


def _flat(params: Params) -> np.ndarray:
    """Every tensor of `params` in one flat float64 array, `emb` first."""
    return np.concatenate([t.reshape(-1) for t in params.tensors().values()])


def _flat_copy(params: Params) -> tuple[np.ndarray, Params]:
    """A flat copy of `params` (see `_flat`) and parameters viewing it.

    Setting an element of the array sets the parameter it holds, which is
    how `fd_max_rel_error` perturbs a model.
    """
    x = _flat(params)
    views, at = {}, 0
    for name, t in params.tensors().items():
        views[name] = x[at : at + t.size].reshape(t.shape)
        at += t.size
    return x, params_from_tensors(params.kind, views)


def grad_check(
    kind: str,
    params: Params,
    sample: TermVector,
    eps: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference encoder gradients.

    The scalar objective is a fixed random linear functional of the encoder
    output. Coordinates whose +/-eps perturbations land on different sides of
    a ReLU or max-pool decision are skipped (the two-sided difference spans a
    kink there and is meaningless for comparison).
    """
    rng = np.random.default_rng(seed)
    x, p = _flat_copy(params)
    grads = p.zeros_like()
    row = token_row(sample)
    if kind == "dense":
        probe = rng.normal(size=p.dim)
        batch = TokenBatch([row])

        def forward():
            return float(probe @ dense_encode_batch(p, batch)[0][0]), b""

        pooled = dense_encode_batch(p, batch)[1]
        dense_backward_batch(p, batch, pooled, probe[None], grads)
    elif kind == "lexical":
        probe = rng.normal(size=p.vocab_size)

        def forward():
            trace = lexical_trace(row[0], p)
            parts = probe[trace.active_terms] * trace.weights
            return sum(parts.tolist()), trace.structure()

        trace = lexical_trace(row[0], p)
        routes = LexicalRoutes(p, grads)
        routes.add(trace, probe[trace.active_terms])
        routes.flush()
    else:
        raise ValueError(f"unknown encoder kind {kind!r}")
    return fd_max_rel_error(x, forward, _flat(grads), eps)


def _loss_and_structure(name: str, cands: CandidateSet):
    """Evaluate one named loss as training does; returns (LossValue, discrete structure).

    "contrastive" and "combined" are the training losses of the strategies
    "none" and "rank-consistent" (weight 1.2); the others are the teaching
    losses themselves, "kl" at temperature 2.
    """
    if name == "contrastive":
        lv = strategy_loss("none", cands)[0]
    elif name == "combined":
        lv = strategy_loss("rank-consistent", cands, reg_weight=1.2)[0]
    else:
        lv = TEACHING_LOSSES[name](cands, 2.0)
    if name not in ("rank-consistent", "combined"):
        return lv, b""
    s, t = cands.scores, cands.teacher_scores
    # Which rank pairs' hinges are active: s(other) > s(preferred).
    return lv, ((t[:, None] > t[None, :]) & (s[None, :] > s[:, None])).tobytes()


def _random_cands(rng: np.random.Generator, n_negs: int = 4) -> CandidateSet:
    scores = rng.normal(size=n_negs + 1)
    teacher = rng.normal(size=n_negs + 1)
    return CandidateSet(
        qid="q",
        pos_pid="p+",
        neg_pids=[f"n{i}" for i in range(n_negs)],
        scores=scores,
        teacher_scores=teacher,
    )


def loss_grad_check(name: str, seed: int, eps: float = 1e-5, n_negs: int = 4) -> float:
    """Central differences of one loss with respect to its direct inputs."""
    rng = np.random.default_rng(seed)
    if name == "flops":
        # Three vectors of three distinct terms each; x holds their weights.
        vecs = [
            (rng.choice(12, size=3, replace=False), rng.uniform(0.1, 2.0, size=3))
            for _ in range(3)
        ]
        terms = [t for t, _ in vecs]
        x = np.concatenate([w for _, w in vecs])
        values = np.split(x, 3)

        def forward():
            return flops_penalty(terms, values, weight=0.7).loss, b""

        analytic = flops_penalty(terms, values, weight=0.7).grad
        return fd_max_rel_error(x, forward, analytic, eps)

    # The set keeps the float64 scores array it was given: that array is x.
    cands = _random_cands(rng, n_negs)

    def forward():
        lv, structure = _loss_and_structure(name, cands)
        return lv.loss, structure

    analytic = _loss_and_structure(name, cands)[0].grad
    return fd_max_rel_error(cands.scores, forward, analytic, eps)


def composed_grad_check(
    kind: str,
    loss_name: str,
    seed: int,
    eps: float = 1e-5,
    vocab_size: int = 10,
    dim: int = 3,
    n_negs: int = 3,
) -> float:
    """Full-chain check: parameters -> encode -> dot products -> loss."""
    rng = np.random.default_rng(seed)

    def rand_tv(max_terms: int) -> TermVector:
        k = int(rng.integers(1, max_terms + 1))
        ids = rng.choice(vocab_size, size=k, replace=False)
        counts = {int(t): int(rng.integers(1, 3)) for t in ids}
        return TermVector(counts=counts, n=sum(counts.values()))

    q_tv = rand_tv(3)
    cand_tvs = [rand_tv(4) for _ in range(n_negs + 1)]
    teacher = rng.normal(size=n_negs + 1)
    neg_pids = [f"n{i}" for i in range(n_negs)]

    if kind == "dense":
        params = DenseParams.init(vocab_size, dim, seed)
        params.emb[:] = rng.uniform(-0.5, 0.5, size=params.emb.shape)
        params.proj[:] = rng.uniform(-0.5, 0.5, size=params.proj.shape)
        params.bias[:] = rng.uniform(-0.2, 0.2, size=params.bias.shape)
    elif kind == "lexical":
        params = LexicalParams.init(vocab_size, dim, seed)
        params.emb[:] = rng.uniform(-0.8, 0.8, size=params.emb.shape)
        params.expand[:] = rng.uniform(-0.8, 0.8, size=params.expand.shape)
        params.bias[:] = rng.uniform(-0.1, 0.1, size=params.bias.shape)
    else:
        raise ValueError(f"unknown encoder kind {kind!r}")
    if loss_name == "flops" and kind != "lexical":
        raise ValueError("flops composes on the lexical encoder only")

    # The chain under test is the training step itself: batch_step encodes,
    # scores, applies the loss (plus FLOPS) and backpropagates.
    batch = TokenBatch([token_row(tv) for tv in (q_tv, *cand_tvs)])
    sizes = [len(batch)]
    flops_weight = 0.7 if loss_name == "flops" else 0.0
    loss_structure = []

    def loss_fn(k, scores):
        if loss_name == "flops":
            return 0.0, np.zeros(len(scores))
        cands = CandidateSet(
            qid="q", pos_pid="p+", neg_pids=neg_pids, scores=scores, teacher_scores=teacher
        )
        lv, structure = _loss_and_structure(loss_name, cands)
        loss_structure.append(structure)
        return lv.loss, lv.grad

    x, params = _flat_copy(params)

    def forward():
        loss_structure.clear()
        step = batch_step(params, batch, sizes, loss_fn, flops_weight)
        encoded = b"dense" if step.traces is None else b"".join(
            tr.structure() for tr in step.traces
        )
        return step.losses[0], encoded + b"".join(loss_structure)

    grads = params.zeros_like()
    batch_step(params, batch, sizes, loss_fn, flops_weight, grads)
    # The embedding rows of terms in no input, at the head of x.
    rows = np.setdiff1d(np.arange(vocab_size), batch.ids)
    unread = (rows[:, None] * dim + np.arange(dim)).reshape(-1)
    return fd_max_rel_error(x, forward, _flat(grads), eps, unread=unread)


@dataclass
class GradCheckReport:
    max_errors: dict[str, float]
    trials: int
    elapsed_s: float

    @property
    def worst(self) -> float:
        return max(self.max_errors.values())


def run_suite(trials: int = 100, seed: int = 0, eps: float = 1e-5) -> GradCheckReport:
    """Encoder, loss, and composed checks over `trials` seeded instances."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    start = time.perf_counter()
    errors: dict[str, float] = {}

    for kind in ("dense", "lexical"):
        worst = 0.0
        for t in range(trials):
            rng = np.random.default_rng(seed + 1000 + t)
            vocab_size, dim = 10, 3
            if kind == "dense":
                params = DenseParams.init(vocab_size, dim, seed + t)
                params.proj[:] = rng.uniform(-0.5, 0.5, size=(dim, dim))
            else:
                params = LexicalParams.init(vocab_size, dim, seed + t)
                params.emb[:] = rng.uniform(-0.8, 0.8, size=params.emb.shape)
                params.expand[:] = rng.uniform(-0.8, 0.8, size=params.expand.shape)
            k = int(rng.integers(1, 4))
            ids = rng.choice(vocab_size, size=k, replace=False)
            counts = {int(i): int(rng.integers(1, 3)) for i in ids}
            tv = TermVector(counts=counts, n=sum(counts.values()))
            worst = max(worst, grad_check(kind, params, tv, eps=eps, seed=seed + t))
        errors[f"encoder/{kind}"] = worst

    for name in LOSS_NAMES:
        worst = 0.0
        for t in range(trials):
            worst = max(worst, loss_grad_check(name, seed + 2000 + t, eps=eps))
        errors[f"loss/{name}"] = worst

    compositions = [("dense", n) for n in LOSS_NAMES if n != "flops"] + [
        ("lexical", n) for n in LOSS_NAMES
    ]
    for kind, name in compositions:
        worst = 0.0
        for t in range(trials):
            worst = max(worst, composed_grad_check(kind, name, seed + 3000 + t, eps=eps))
        errors[f"composed/{kind}/{name}"] = worst

    return GradCheckReport(
        max_errors=errors, trials=trials, elapsed_s=time.perf_counter() - start
    )


def format_suite_report(report: GradCheckReport) -> str:
    lines = [f"gradient check: {report.trials} trials, {report.elapsed_s:.1f}s"]
    for name in sorted(report.max_errors):
        lines.append(f"{name}\t{report.max_errors[name]:.3e}")
    lines.append(f"worst\t{report.worst:.3e}")
    return "\n".join(lines) + "\n"
